"""Linear subspaces of R^n, Haar sampling, and angle functionals.

A subspace is stored as an orthonormal basis (n x k matrix).  The two scalar
functionals are

    cos_angle(E, F)  -- volume contraction factor of the orthogonal
                        projection of E onto F (product of the cosines of
                        the principal angles),
    sin_angle(E, F)  -- cos_angle(E, orthocomplement(F)),

with the conventions cos = 1 on the zero subspace (empty product) and the
higher-dimensional branch evaluated through orthocomplements.

Haar frames come from ``haar_frames``: classical Gram-Schmidt, with one
reorthogonalisation pass, of a (count, n, k) stack of Gaussian matrices.  Its
Q factor has a positive R diagonal, so it is the Haar sample itself (Mezzadri
2007) and needs neither LAPACK nor a sign fix.  The sign-fixed QR
(``signed_qr_batch``) is kept for ``orthonormal_basis``, which orthonormalises
arbitrary rank-checked input.

The orthocomplement and the cosine are computed on stacks of bases
(``orthocomplement_batch``, ``cos_angle_batch``).  Every sampler and every
function on one ``Subspace`` is a one-row call into the same code as its
stacked form, so a row of a stack equals the scalar result bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .base import unit_ball_volume
from .errors import DimensionError, RankError

ORTHO_TOL = 1e-12
RANK_TOL = 1e-10


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional linear subspace of R^n given by an orthonormal basis.

    Attributes
    ----------
    ambient_dim : int
        Dimension n of the surrounding space.
    basis : ndarray, shape (n, k)
        Orthonormal columns spanning the subspace.  k = 0 (empty basis)
        encodes the zero subspace.
    """

    ambient_dim: int
    basis: np.ndarray = field(repr=False)

    def __post_init__(self):
        b = np.ascontiguousarray(np.asarray(self.basis, dtype=float))
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise DimensionError(
                f"basis shape {b.shape} incompatible with ambient dim {self.ambient_dim}"
            )
        if b.shape[1] > self.ambient_dim:
            raise DimensionError(f"subspace dim {b.shape[1]} exceeds ambient {self.ambient_dim}")
        _check_orthonormal(b)
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The n x n orthogonal projection matrix onto the subspace."""
        return self.basis @ self.basis.T

    def __repr__(self) -> str:
        return f"Subspace(ambient_dim={self.ambient_dim}, dim={self.dim})"


def full_space(n: int) -> Subspace:
    return Subspace(n, np.eye(n))


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0)))


def coordinate_subspace(n: int, axes) -> Subspace:
    """Span of the given coordinate axes (0-based indices)."""
    axes = list(axes)
    b = np.zeros((n, len(axes)))
    for j, a in enumerate(axes):
        b[a, j] = 1.0
    return Subspace(n, b)


class SeededSampler:
    """Deterministic random stream keyed by (seed, stream_id).

    The same (seed, stream_id) pair reproduces the identical sequence on any
    run.  ``substream`` derives independent child streams with a fixed
    labelling, so chunked Monte-Carlo loops give results independent of how
    the chunks are scheduled.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,)))
        )

    @property
    def rng(self) -> np.random.Generator:
        return self._rng

    def substream(self, index: int) -> "SeededSampler":
        """Child sampler labelled by ``index``; independent of call order."""
        child = SeededSampler.__new__(SeededSampler)
        child.seed = self.seed
        child.stream_id = self.stream_id
        child._rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(
                    entropy=self.seed, spawn_key=(self.stream_id, int(index))
                )
            )
        )
        return child

    def standard_normal(self, shape) -> np.ndarray:
        return self._rng.standard_normal(shape)

    def uniform(self, low=0.0, high=1.0, size=None) -> np.ndarray:
        return self._rng.uniform(low, high, size)

    def __repr__(self) -> str:
        return f"SeededSampler(seed={self.seed}, stream_id={self.stream_id})"


def _check_orthonormal(bases: np.ndarray) -> None:
    """Raise ValueError unless each (n, k) matrix of ``bases``, one matrix or
    a stack, has orthonormal columns; one vectorized test for the stack."""
    k = bases.shape[-1]
    if k > 0:
        eye = np.eye(k)
        gram = np.swapaxes(bases, -1, -2) @ bases
        # np.allclose(gram, eye, atol=ORTHO_TOL), with its default rtol of
        # 1e-5, written out: the call costs four times as much.
        if not np.all(np.abs(gram - eye) <= ORTHO_TOL + 1e-5 * eye):
            raise ValueError("basis columns are not orthonormal")


def _stack(bases) -> np.ndarray:
    b = np.ascontiguousarray(np.asarray(bases, dtype=float))
    if b.ndim != 3 or b.shape[2] > b.shape[1]:
        raise DimensionError(f"expected a (count, n, k) stack with k <= n, got shape {b.shape}")
    return b


def signed_qr_batch(m: np.ndarray) -> np.ndarray:
    """Q factors of a (count, n, k) stack with the signs of R's diagonals fixed
    positive.

    Makes the decomposition unique for full-rank input.  Row t equals the QR
    of ``m[t]`` alone.
    """
    q, r = np.linalg.qr(m)
    signs = np.sign(np.einsum("...ii->...i", r))
    signs[signs == 0] = 1.0
    return q * signs[..., None, :]


def haar_frames(g: np.ndarray) -> np.ndarray:
    """Orthonormal frames of a (count, n, k) stack of Gaussian matrices.

    Classical Gram-Schmidt, column by column for the whole stack, with a
    second projection pass that keeps the columns orthonormal to rounding
    even for ill-conditioned draws.  The result is the Q factor whose R has
    a positive diagonal, which makes iid Gaussian input a Haar frame.  Row t
    equals the frame of ``g[t]`` alone bit for bit.
    """
    q = np.array(np.swapaxes(_stack(g), 1, 2))  # (count, k, n): columns contiguous
    for j in range(q.shape[1]):
        v, done = q[:, j], q[:, :j]
        if j:  # project out the finished columns, then once more
            for _ in range(2):
                v -= np.einsum("sin,si->sn", done, np.einsum("sin,sn->si", done, v))
        v /= np.sqrt(np.einsum("sn,sn->s", v, v))[:, None]
    return np.ascontiguousarray(np.swapaxes(q, 1, 2))


def orthonormal_basis(m: np.ndarray) -> Subspace:
    """Subspace spanned by the columns of ``m``.

    Raises
    ------
    RankError
        If the columns are linearly dependent (threshold 1e-10 relative).
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DimensionError("expected a 2-d matrix")
    n, k = m.shape
    if k == 0:
        return zero_subspace(n)
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size < k or sv[-1] <= RANK_TOL * max(1.0, sv[0]):
        raise RankError(f"matrix of shape {m.shape} is rank deficient")
    return Subspace(n, signed_qr_batch(m[None])[0])


def haar_subspace(n: int, k: int, s: SeededSampler) -> Subspace:
    """Haar (rotation-invariant) random k-subspace of R^n.

    Orthonormalizes an n x k matrix of iid standard Gaussians; the resulting
    distribution is the unique O(n)-invariant probability measure on the
    Grassmannian.
    """
    if not 0 <= k <= n:
        raise DimensionError(f"need 0 <= k <= n, got k={k}, n={n}")
    return Subspace(n, haar_bases_batch(n, k, 1, s)[0])


def _complement(bases: np.ndarray) -> np.ndarray:
    """Complements of a stack already known to be orthonormal."""
    n, k = bases.shape[1:]
    if k == 0:
        return np.broadcast_to(np.eye(n), (len(bases), n, n)).copy()
    if k == n:
        return np.zeros((len(bases), n, 0))
    q, _ = np.linalg.qr(bases, mode="complete")
    comp = q[:, :, k:]
    # Column signs of the complete factor are arbitrary; fix them for
    # reproducibility: each column's entry of largest magnitude is positive.
    top = np.argmax(np.abs(comp), axis=1)
    signs = np.sign(np.take_along_axis(comp, top[:, None, :], axis=1))
    signs[signs == 0] = 1.0
    return comp * signs


def orthocomplement_batch(bases: np.ndarray) -> np.ndarray:
    """(count, n, n - k) bases of the orthogonal complements of a (count, n, k)
    stack of orthonormal bases; row t is ``orthocomplement`` of row t."""
    b = _stack(bases)
    _check_orthonormal(b)
    return _complement(b)


def orthocomplement(e: Subspace) -> Subspace:
    """The orthogonal complement, of dimension n - dim(e)."""
    return Subspace(e.ambient_dim, _complement(e.basis[None])[0])


def span_sum(e: Subspace, f: Subspace) -> Subspace:
    """The linear span of E union F (dimension by rank with threshold 1e-10)."""
    if e.ambient_dim != f.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    n = e.ambient_dim
    stacked = np.hstack([e.basis, f.basis])
    if stacked.shape[1] == 0:
        return zero_subspace(n)
    u, sv, _ = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(sv > RANK_TOL * max(1.0, sv[0])))
    return Subspace(n, u[:, :rank])


def _cos(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """cos(E_t, F_t) for paired stacks already known to be orthonormal."""
    n = e.shape[1]
    if e.shape[2] > f.shape[2]:
        e, f = _complement(e), _complement(f)
    if e.shape[2] == 0 or f.shape[2] == n:
        return np.ones(len(e))
    return cos_from_products(np.swapaxes(f, 1, 2) @ e)


def cos_angle_batch(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(count,) values of ``cos_angle`` on two stacks of orthonormal bases,
    (count, n, dim E) and (count, n, dim F); row t is cos(E_t, F_t)."""
    e, f = _stack(e), _stack(f)
    if e.shape[:2] != f.shape[:2]:
        raise DimensionError(f"stacks of shapes {e.shape} and {f.shape} do not pair up")
    _check_orthonormal(e)
    _check_orthonormal(f)
    return _cos(e, f)


def cos_angle(e: Subspace, f: Subspace) -> float:
    """|cos(E, F)|: the factor by which projection onto F scales dim(E)-volume.

    Computed as the product of the singular values of Q_F^T Q_E when
    dim E <= dim F; when dim E > dim F it is evaluated on the
    orthocomplements, matching the volume-ratio definition on the nose.
    Conventions: the zero subspace gives 1 (empty product).
    """
    if e.ambient_dim != f.ambient_dim:
        raise DimensionError("ambient dimensions differ")
    return float(_cos(e.basis[None], f.basis[None])[0])


def cos_from_products(m: np.ndarray) -> np.ndarray:
    """Product of the clipped singular values of each Q_F^T Q_E in a stack.

    ``m`` has shape (..., dim F, dim E); a single matrix gives a 0-d array.
    This is ``cos_angle``'s arithmetic, and for dim E > dim F it equals
    cos(F, E) = cos(E, F) as well.
    """
    sv = np.linalg.svd(m, compute_uv=False)
    return np.prod(np.clip(sv, 0.0, 1.0), axis=-1)


def sin_angle(e: Subspace, f: Subspace) -> float:
    """|sin(E, F)| = |cos(E, orthocomplement(F))|."""
    return cos_angle(e, orthocomplement(f))


def sample_containing(h: Subspace, i: int, s: SeededSampler) -> Subspace:
    """Haar-random i-subspace containing H.

    Returns H + W where W is Haar in the orthocomplement of H; the law is
    invariant under the stabilizer of H in O(n).
    """
    n, k = h.ambient_dim, h.dim
    if i <= k or i > n:
        raise DimensionError(f"need dim H < i <= n, got dim H={k}, i={i}, n={n}")
    comp = orthocomplement(h)
    g = s.standard_normal((n - k, i - k))
    w = comp.basis @ haar_frames(g[None])[0]
    return Subspace(n, np.hstack([h.basis, w]))


def sample_within(h: Subspace, i: int, s: SeededSampler) -> Subspace:
    """Haar-random i-subspace contained in H."""
    n, k = h.ambient_dim, h.dim
    if i >= k or i < 0:
        raise DimensionError(f"need 0 <= i < dim H, got dim H={k}, i={i}")
    if i == 0:
        return zero_subspace(n)
    g = s.standard_normal((k, i))
    return Subspace(n, h.basis @ haar_frames(g[None])[0])


def _map_ball_volume(m: np.ndarray, l: np.ndarray, q: int) -> np.ndarray:
    """q-volume of m(D_L), the image of L's unit ball under the q x n map m:
    kappa_q times the product of the singular values of m l, 1 for q = 0 (a
    point) and 0 for dim L < q.  ``m`` (..., q, n) and the orthonormal basis
    ``l`` (..., n, dim L) may each be a stack; the result has their broadcast
    batch shape.  ``ellipsoid_image_volume`` is its one-row form.
    """
    shape = np.broadcast_shapes(m.shape[:-2], l.shape[:-2])
    if q == 0:
        return np.ones(shape)
    if l.shape[-1] < q:
        return np.zeros(shape)
    sv = np.linalg.svd(m @ l, compute_uv=False)
    return unit_ball_volume(q) * np.prod(sv[..., :q], axis=-1)


def ellipsoid_image_volume(a: np.ndarray, l: Subspace) -> float:
    """Volume of the image A(D_L) of the unit ball of L under a linear map.

    With d = dim L this is kappa_d times the product of the singular values
    of A restricted to L; zero when the restriction is rank deficient, and 1
    for L = 0, the volume of a point.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[1] != l.ambient_dim:
        raise DimensionError(f"map shape {a.shape} incompatible with ambient {l.ambient_dim}")
    if l.dim > a.shape[0]:
        raise DimensionError(f"dim L = {l.dim} exceeds target dimension {a.shape[0]}")
    return float(_map_ball_volume(a, l.basis, l.dim))


# ---------------------------------------------------------------------------
# Vectorized sampling helpers.  Distributionally identical to looping the
# public samplers; unit tests pin the agreement.
# ---------------------------------------------------------------------------


def haar_unit_vectors(n: int, count: int, s: SeededSampler) -> np.ndarray:
    """(count, n) array of independent uniform unit vectors."""
    g = s.standard_normal((count, n))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def haar_bases_batch(n: int, k: int, count: int, s: SeededSampler) -> np.ndarray:
    """(count, n, k) stack of independent Haar orthonormal bases."""
    return haar_frames(s.standard_normal((count, n, k)))


def unit_vectors_orthogonal_to(v: np.ndarray, s: SeededSampler) -> np.ndarray:
    """For each row v_i, a uniform unit vector in the hyperplane v_i^perp."""
    v = np.asarray(v, dtype=float)
    g = s.standard_normal(v.shape)
    g -= v * np.einsum("ij,ij->i", g, v)[:, None]
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _transposed_products(bases: np.ndarray, m: np.ndarray) -> np.ndarray:
    """R_s^T m for every R_s of a (count, n, q) stack and one (n, j) matrix m:
    a (count, q, j) stack computed as one (count q, n) @ (n, j) matmul."""
    count, n, q = bases.shape
    return (np.swapaxes(bases, 1, 2).reshape(count * q, n) @ m).reshape(count, q, m.shape[1])


def _abs_det(m: np.ndarray) -> np.ndarray:
    """|det| of each matrix of a (..., q, q) stack: |ad - bc| for q = 2,
    LAPACK's LU for every other size."""
    if m.shape[-2:] == (2, 2):
        return np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0])
    return np.abs(np.linalg.det(m))


def cos_angles_with_bases(l: Subspace, bases: np.ndarray) -> np.ndarray:
    """cos_angle(L, R_s) for a stack of bases R_s of dimension >= dim L.

    A square product R_s^T Q_L gives the cosine as its |det|, a tall one by
    its singular values.
    """
    if l.dim == 0:
        return np.ones(bases.shape[0])
    m = _transposed_products(bases, l.basis)
    if m.shape[1] == m.shape[2]:
        return _abs_det(m)
    return cos_from_products(m)
