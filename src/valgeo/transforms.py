"""Radon and cosine transforms on Grassmannians, and the Lefschetz probe.

Functions on a Grassmannian are evaluable objects (``GFunction``) that act
on whole stacks of bases; the two transforms are Monte-Carlo averages
against the Haar measure, drawn and evaluated one chunk at a time.  On lines
(Gr_1) the even spherical harmonics diagonalize both transforms, which gives
independent one-dimensional Gauss-Jacobi oracles:

* cosine transform eigenvalue: mean of |t| against the degree-d Gegenbauer
  polynomial in the weight (1 - t^2)^((n-3)/2);
* hyperplane Radon eigenvalue: the great-subsphere average of a zonal
  harmonic (equals the normalized Gegenbauer polynomial at 0).

The discretized multiply-by-V1 operator (cosine after Radon, pulled back to
lines through orthocomplements) is assembled by plain Monte-Carlo inner
products, and its spectrum is the desk-scale injectivity probe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import roots_jacobi

from ._harmonics import (
    _weight_normalizer,
    even_harmonic_blocks,
    gegenbauer_normalized,
    kernel_mean_quadrature,
    monomials,
)
from .base import Estimate, mc_chunks, mc_samples, mean_and_stderr
from .errors import DimensionError, ScopeError
from .grassmann import (
    SeededSampler,
    Subspace,
    _transposed_products,
    cos_from_products,
    haar_bases_batch,
    haar_unit_vectors,
    orthocomplement,
    unit_vectors_orthogonal_to,
)


# ---------------------------------------------------------------------------
# Evaluable functions on Grassmannians
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GFunction:
    """A scalar function on Gr_k(R^n) given by a pure batched evaluator.

    ``evaluator`` maps a (count, n, k) stack of orthonormal bases to the
    (count,) values of the function on the subspaces they span.  It must
    depend only on each subspace, not on the basis chosen to represent it
    (checked in the tests by re-randomizing bases).  Calling the function on
    one ``Subspace`` evaluates a one-row stack.
    """

    ambient_dim: int
    grass_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    name: str = ""
    spec: dict | None = None

    def __call__(self, subspace: Subspace) -> float:
        return float(self.eval_bases(subspace.basis[None])[0])

    def eval_bases(self, bases: np.ndarray) -> np.ndarray:
        """Evaluate on a (count, n, k) stack of orthonormal bases."""
        label = self.name or "GFunction"
        if np.ndim(bases) != 3 or np.shape(bases)[1:] != (self.ambient_dim, self.grass_dim):
            raise DimensionError(f"{label} expects Gr_{self.grass_dim}(R^{self.ambient_dim})")
        vals = np.asarray(self.evaluator(bases), dtype=float)
        if vals.shape != (len(bases),):
            raise DimensionError(
                f"{label} evaluator returned shape {vals.shape} for {len(bases)} bases"
            )
        return vals


def constant_gfunction(n: int, k: int, value: float = 1.0) -> GFunction:
    return GFunction(n, k, lambda bases: np.full(bases.shape[0], value),
                     name=f"const({value})", spec={"kind": "constant", "value": value})


def zonal_harmonic(n: int, d: int, axis) -> GFunction:
    """Zonal spherical harmonic of degree d on lines: G_d(<axis, u>)."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    return GFunction(n, 1, lambda bases: gegenbauer_normalized(n, d, bases[:, :, 0] @ axis),
                     name=f"zonal(d={d})",
                     spec={"kind": "zonal", "degree": d, "axis": axis.tolist()})


# ---------------------------------------------------------------------------
# The transforms as Monte-Carlo operators
# ---------------------------------------------------------------------------


def _containing_bases(h: Subspace, comp: np.ndarray, i: int, count: int,
                      s: SeededSampler) -> np.ndarray:
    """(count, n, i) bases of Haar i-subspaces containing H.

    Each row is H's basis followed by ``comp`` (a basis of H^perp) times a
    Haar frame: ``sample_containing`` for a whole chunk, reading the same
    Gaussian stream.
    """
    n, k = h.ambient_dim, h.dim
    frames = haar_bases_batch(n - k, i - k, count, s)
    lift = np.swapaxes(_transposed_products(frames, comp.T), 1, 2)
    return np.concatenate([np.broadcast_to(h.basis, (count, n, k)), lift], axis=2)


def radon_apply(f: GFunction, j: int, h: Subspace, n_samples: int, s: SeededSampler) -> Estimate:
    """Radon transform (R_{j,i} f)(H): average of f over subspaces through/in H.

    For j < i averages over Haar i-subspaces containing H, for j > i over
    Haar i-subspaces inside H.  i = j is undefined.  Each chunk draws its
    subspaces at once, from the stream the per-sample ``sample_containing``
    and ``sample_within`` read.
    """
    i = f.grass_dim
    if h.dim != j:
        raise DimensionError(f"H has dimension {h.dim}, expected j={j}")
    if i == j:
        raise DimensionError("Radon transform requires i != j")
    comp = orthocomplement(h).basis

    def draw(c: int, sub: SeededSampler) -> np.ndarray:
        if j < i:
            return f.eval_bases(_containing_bases(h, comp, i, c, sub))
        return f.eval_bases(h.basis @ haar_bases_batch(j, i, c, sub))

    return mean_and_stderr(mc_samples(n_samples, s, draw))


def cosine_apply(f: GFunction, j: int, e: Subspace, n_samples: int, s: SeededSampler) -> Estimate:
    """Cosine transform (T_{j,i} f)(E) = E_F[ |cos(E, F)| f(F) ] over Haar F in Gr_i.

    Each chunk draws its F's with ``haar_bases_batch`` (the stream that
    per-sample ``haar_subspace`` reads) and takes |cos| with ``cos_angle``'s
    arithmetic, ``cos_from_products`` (|ad - bc| for 2 x 2 products).
    """
    i = f.grass_dim
    n = f.ambient_dim
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise DimensionError("cosine transform needs 1 <= i, j <= n-1")
    if e.dim != j or e.ambient_dim != n:
        raise DimensionError(f"E must lie in Gr_{j}(R^{n})")

    def draw(c: int, sub: SeededSampler) -> np.ndarray:
        bases = haar_bases_batch(n, i, c, sub)
        return cos_from_products(np.swapaxes(bases, 1, 2) @ e.basis) * f.eval_bases(bases)

    return mean_and_stderr(mc_samples(n_samples, s, draw))


# ---------------------------------------------------------------------------
# Harmonic bases and eigenvalue oracles
# ---------------------------------------------------------------------------


def even_harmonic_basis(n: int, d_max: int) -> list[GFunction]:
    """Orthonormal even-degree harmonics on Gr_1(R^n) as GFunctions.

    Orthonormal with respect to the uniform probability measure; only even
    degrees exist on the projective quotient.  Supported for n in {3, 4}.
    """
    basis = even_harmonic_blocks(n, d_max)
    out = []
    for block in basis.blocks:
        for row in range(block.size):
            def ev(bases: np.ndarray, _b=block, _r=row) -> np.ndarray:
                return _b.eval_points(bases[:, :, 0])[:, _r]

            out.append(GFunction(n, 1, ev, name=f"Y[{block.degree},{row}]",
                                 spec={"kind": "harmonic", "degree": block.degree, "order": row}))
    return out


def funk_hecke_cosine_eigen(n: int, d: int) -> float:
    """Eigenvalue of the |cos| kernel on degree-d harmonics of S^{n-1}.

    The mean of |t| G_d(t) in the weight (1-t^2)^((n-3)/2), normalized so
    that d = 0 gives the mean of |cos|.  The integrand is even, and s = t^2
    turns it into G_d(sqrt(s)), a polynomial of degree d/2 in s, against the
    Jacobi weight (1-s)^((n-3)/2) on [0, 1], for which Gauss-Jacobi on
    s = (1+u)/2 is exact.
    """
    if d % 2 != 0 or d < 0:
        raise DimensionError("even nonnegative degree required")
    if n < 2:
        raise ScopeError("need ambient dimension >= 2")
    nu = (n - 3) / 2.0
    u, weights = roots_jacobi(d // 4 + 2, nu, 0.0)
    s = (1.0 + u) / 2.0
    integral = float(weights @ gegenbauer_normalized(n, d, np.sqrt(s))) / 2.0 ** (nu + 1.0)
    return integral / _weight_normalizer(n)


def funk_radon_eigen(n: int, d: int) -> float:
    """Eigenvalue of the hyperplane Radon transform on even degree-d harmonics.

    Computed as a quadrature of the great-subsphere average of a zonal
    harmonic at a generic pole (no closed form is consumed; the answer
    happens to be the normalized Gegenbauer value at 0).
    """
    if d % 2 != 0 or d < 0:
        raise DimensionError("even nonnegative degree required")
    if n < 3:
        raise ScopeError("need ambient dimension >= 3")
    rho0 = 0.6
    rho = math.sqrt(1.0 - rho0 * rho0)
    mean = kernel_mean_quadrature(
        lambda t: gegenbauer_normalized(n, d, rho * t), n - 1, d
    )
    return mean / float(gegenbauer_normalized(n, d, rho0))


# ---------------------------------------------------------------------------
# Discretized multiply-by-V1 operator and its spectrum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OperatorMatrix:
    """Composed transform in the even-harmonic basis of Gr_1.

    Entry (b', b) is the probability inner product of basis element b' with
    the operator applied to element b; rows and columns are labelled by
    (degree, order).
    """

    ambient_dim: int
    d_max: int
    labels: list[tuple[int, int]]
    degrees: np.ndarray
    matrix: np.ndarray
    block_scalars: np.ndarray
    block_scalar_stderrs: np.ndarray
    n_samples: int

    @property
    def block_degrees(self) -> np.ndarray:
        return np.unique(self.degrees)


def operator_matrix_even(
    n: int, d_max: int, n_samples: int, s: SeededSampler
) -> OperatorMatrix:
    """Matrix of f -> (T_{n-1,n-1} after R_{n-1,1}) f pulled back to Gr_1.

    A hyperplane is identified with its normal line, under which the cosine
    kernel becomes |<u, v>|.  Entries are Monte-Carlo averages of
    Y_b'(w) |<w, v>| Y_b(l) over independent Haar lines w, v and a Haar line
    l inside the hyperplane with normal v.  Each chunk adds only to the moment
    matrix M = sum |<w, v>| m(w)^T m(l) of the top-degree monomials m, and the
    basis's lift C gives the matrix once, as C M C^T / N.  A block's scalar,
    its mean diagonal entry, averages |<w, v>| G_d(<w, l>) (addition theorem).
    """
    if n not in (3, 4):
        raise ScopeError(f"spectral probe implemented for ambient dim 3 and 4, not {n}")
    basis = even_harmonic_blocks(n, d_max)
    exps, lift = basis.lifted()
    block_degs = np.array([blk.degree for blk in basis.blocks])

    m_sum = np.zeros((len(exps), len(exps)))
    tr_sum, tr_sumsq = np.zeros((2, len(block_degs)))

    for _, c, sub in mc_chunks(n_samples, s):
        w = haar_unit_vectors(n, c, sub)
        v = haar_unit_vectors(n, c, sub)
        lines = unit_vectors_orthogonal_to(v, sub)
        kern = np.abs(np.einsum("ij,ij->i", w, v))
        m_sum += (monomials(w, exps) * kern[:, None]).T @ monomials(lines, exps)
        t = np.einsum("ij,ij->i", w, lines)[:, None]
        z = kern[:, None] * gegenbauer_normalized(n, block_degs, t)
        tr_sum += z.sum(axis=0)
        tr_sumsq += (z**2).sum(axis=0)

    mat = lift @ m_sum @ lift.T / n_samples
    scalars = tr_sum / n_samples
    scal_var = np.maximum(tr_sumsq / n_samples - scalars**2, 0.0)
    scal_stderr = np.sqrt(scal_var / n_samples)

    return OperatorMatrix(
        ambient_dim=n,
        d_max=d_max,
        labels=basis.labels,
        degrees=basis.degrees,
        matrix=mat,
        block_scalars=scalars,
        block_scalar_stderrs=scal_stderr,
        n_samples=n_samples,
    )


@dataclass(frozen=True)
class SpectrumReport:
    """Spectral summary of the discretized operator on a band-limited subspace."""

    ambient_dim: int
    d_max: int
    degrees: np.ndarray
    scalars: np.ndarray
    scalar_stderrs: np.ndarray
    oracle_products: np.ndarray
    leakage_ratio: float
    singular_values: np.ndarray
    smallest_singular_value: float
    floor: float
    injective: bool
    n_samples: int

    def to_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "d_max": self.d_max,
            "degrees": [int(d) for d in self.degrees],
            "scalars": self.scalars.tolist(),
            "scalar_stderrs": self.scalar_stderrs.tolist(),
            "oracle_products": self.oracle_products.tolist(),
            "leakage_ratio": self.leakage_ratio,
            "singular_values": self.singular_values.tolist(),
            "smallest_singular_value": self.smallest_singular_value,
            "floor": self.floor,
            "injective": self.injective,
            "n_samples": self.n_samples,
        }


def lefschetz_probe(
    n: int, d_max: int, n_samples: int, s: SeededSampler
) -> tuple[SpectrumReport, OperatorMatrix]:
    """Band-limited injectivity probe of multiplication by V_1 (degree n-2 to n-1).

    Builds the composed-transform matrix, extracts the per-degree scalars,
    and declares injectivity on the band-limited subspace when the smallest
    singular value clears 0.1 times the smallest quadrature-oracle scalar.
    """
    op = operator_matrix_even(n, d_max, n_samples, s)
    block_degs = op.block_degrees
    oracle = np.array(
        [funk_hecke_cosine_eigen(n, int(d)) * funk_radon_eigen(n, int(d)) for d in block_degs]
    )
    off = op.matrix - np.diag(np.diag(op.matrix))
    max_scalar = float(np.abs(op.block_scalars).max())
    leakage = float(np.abs(off).max() / max_scalar) if max_scalar > 0 else math.inf
    # Spectrum of the equivariance-projected operator: the operator commutes
    # with O(n) and the harmonics have multiplicity one, so each degree block
    # is scalar; the deviation of the raw matrix from this structure is pure
    # MC noise and is already summarized by the leakage ratio.
    block_sizes = np.array([np.count_nonzero(op.degrees == d) for d in block_degs])
    sv = np.repeat(np.abs(op.block_scalars), block_sizes)
    floor = 0.1 * float(np.abs(oracle).min())
    smallest = float(sv.min())
    report = SpectrumReport(
        ambient_dim=n,
        d_max=d_max,
        degrees=block_degs,
        scalars=op.block_scalars,
        scalar_stderrs=op.block_scalar_stderrs,
        oracle_products=oracle,
        leakage_ratio=leakage,
        singular_values=np.sort(sv)[::-1],
        smallest_singular_value=smallest,
        floor=floor,
        injective=bool(smallest > floor),
        n_samples=n_samples,
    )
    return report, op
