"""Real spherical harmonics as harmonic polynomials.

Works uniformly for S^2 and S^3 (ambient n = 3, 4): a basis of harmonic
homogeneous polynomials of degree d is the nullspace of the Laplacian acting
on monomial coefficients, and the Gram matrix over the sphere is assembled
from the exact monomial moments

    E[x^gamma] = prod_i (gamma_i - 1)!! / prod_{k < |gamma|/2} (n + 2k)

(all gamma_i even; zero otherwise), so the basis is orthonormalized without
any numerical integration.  On the sphere |x|^2 = 1, so every even harmonic
of degree d <= D is also Y |x|^(D - d): one square matrix writes the whole
basis in the degree-D monomials (``HarmonicBasis.lifted``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ScopeError


def monomial_exponents(n: int, d: int) -> np.ndarray:
    """Exponent vectors of the degree-d monomials in n variables (lex order)."""
    combos = [
        e
        for e in itertools.product(range(d + 1), repeat=n)
        if sum(e) == d
    ]
    combos.sort()
    return np.array(combos, dtype=int).reshape(len(combos), n)


def sphere_moment(gamma: np.ndarray, n: int) -> np.ndarray:
    """E[x^gamma] for x uniform on S^{n-1}, for each exponent vector of a
    (..., n) stack; one vector gives a 0-d result.

    The double factorials (gamma_i - 1)!! come from one table and are
    multiplied left to right over the coordinates; the denominator is one
    running product per total degree.  Any odd exponent gives 0.
    """
    gamma = np.asarray(gamma, dtype=int)
    top = int(gamma.max(initial=0))
    odd_factorials = np.ones(top + 1)  # (g - 1)!! at index g
    for g in range(2, top + 1):
        odd_factorials[g] = (g - 1) * odd_factorials[g - 2]
    num = np.ones(gamma.shape[:-1])
    for i in range(gamma.shape[-1]):
        num = num * odd_factorials[gamma[..., i]]
    half = gamma.sum(axis=-1) // 2
    den = np.cumprod(np.concatenate([[1.0], n + 2.0 * np.arange(int(half.max(initial=0)))]))
    return np.where((gamma % 2 == 1).any(axis=-1), 0.0, num / den[half])


def _laplacian_matrix(exps_d: np.ndarray, exps_dm2: np.ndarray) -> np.ndarray:
    """Matrix of the Laplacian from degree-d to degree-(d-2) monomial coefficients."""
    index = {tuple(e): i for i, e in enumerate(exps_dm2)}
    n = exps_d.shape[1]
    lap = np.zeros((len(exps_dm2), len(exps_d)))
    for j, e in enumerate(exps_d):
        for i in range(n):
            if e[i] >= 2:
                target = e.copy()
                target[i] -= 2
                lap[index[tuple(target)], j] += e[i] * (e[i] - 1)
    return lap


def _harmonic_space(n: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(exponents, coefficient rows) spanning the harmonic polynomials of degree d."""
    exps = monomial_exponents(n, d)
    if d < 2:
        return exps, np.eye(len(exps))
    lap = _laplacian_matrix(exps, monomial_exponents(n, d - 2))
    _, sv, vt = np.linalg.svd(lap)
    rank = int(np.sum(sv > 1e-10 * max(1.0, sv[0] if sv.size else 1.0)))
    null = vt[rank:]
    return exps, null


@dataclass(frozen=True)
class HarmonicBlock:
    degree: int
    exponents: np.ndarray
    coefficients: np.ndarray  # (block size, n monomials), orthonormal rows

    @property
    def size(self) -> int:
        return self.coefficients.shape[0]

    def eval_points(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the block at unit vectors; returns (npoints, size)."""
        return monomials(x, self.exponents) @ self.coefficients.T


def monomials(x: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """(npoints, len(exponents)) values of the monomials x^e at a stack of points
    (npoints, n): powers by repeated multiplication, gathered by exponent and
    multiplied left to right over the coordinates."""
    xt = np.atleast_2d(np.asarray(x, dtype=float)).T
    powers = np.empty((xt.shape[0], int(exponents.max()) + 1, xt.shape[1]))
    powers[:, 0] = 1.0
    for p in range(1, powers.shape[1]):
        powers[:, p] = powers[:, p - 1] * xt
    mono = powers[0, exponents[:, 0]]
    for i in range(1, exponents.shape[1]):
        mono = mono * powers[i, exponents[:, i]]
    return mono.T


@dataclass(frozen=True)
class HarmonicBasis:
    """Orthonormal (probability measure) real harmonics of the even degrees."""

    ambient_dim: int
    blocks: tuple[HarmonicBlock, ...]

    @property
    def size(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def degrees(self) -> np.ndarray:
        return np.concatenate([[b.degree] * b.size for b in self.blocks]).astype(int)

    @property
    def labels(self) -> list[tuple[int, int]]:
        return [(b.degree, j) for b in self.blocks for j in range(b.size)]

    def lifted(self) -> tuple[np.ndarray, np.ndarray]:
        """(exponents, C): the top degree D's monomials and the square matrix C
        whose row for each degree-d harmonic Y writes Y |x|^(D - d) in them, so
        on the unit sphere the basis is ``monomials(x, exponents) @ C.T``.

        Times |x|^2 sends x^e to every x^(e + 2 e_i), the Laplacian's pattern.
        """
        rows = [self.blocks[0].coefficients]
        for lo, hi in zip(self.blocks, self.blocks[1:]):
            up = _laplacian_matrix(hi.exponents, lo.exponents) != 0
            rows = [r @ up for r in rows] + [hi.coefficients]
        return self.blocks[-1].exponents, np.vstack(rows)


def even_harmonic_blocks(n: int, d_max: int) -> HarmonicBasis:
    """Orthonormal harmonics of even degree 0, 2, ..., d_max on S^{n-1}.

    Supported for n in {3, 4} and d_max <= 12 (desk scope).
    """
    if n not in (3, 4):
        raise ScopeError(f"harmonic bases implemented for ambient dim 3 and 4, not {n}")
    if d_max % 2 != 0 or d_max < 0 or d_max > 12:
        raise ScopeError(f"d_max must be even in [0, 12], got {d_max}")
    blocks = []
    for d in range(0, d_max + 1, 2):
        exps, rows = _harmonic_space(n, d)
        pair_moments = sphere_moment(exps[:, None] + exps[None, :], n)
        gram = rows @ pair_moments @ rows.T
        chol = np.linalg.cholesky(gram)
        ortho = np.linalg.solve(chol, rows)
        if d == 0:
            ortho = np.abs(ortho)  # the constant harmonic is +1
        blocks.append(HarmonicBlock(degree=d, exponents=exps, coefficients=ortho))
    return HarmonicBasis(ambient_dim=n, blocks=tuple(blocks))


# ---------------------------------------------------------------------------
# Gegenbauer kernels and 1-D eigenvalue quadratures
# ---------------------------------------------------------------------------


def gegenbauer_normalized(n: int, d: int, t) -> np.ndarray:
    """Gegenbauer polynomial for S^{n-1} zonal harmonics, normalized to 1 at t=1."""
    t = np.asarray(t, dtype=float)
    if n < 2:
        raise ScopeError("need ambient dimension >= 2")
    if n == 2:
        return special.eval_chebyt(d, t)
    lam = (n - 2) / 2.0
    ref = special.eval_gegenbauer(d, lam, 1.0)
    return special.eval_gegenbauer(d, lam, t) / ref


def _weight_normalizer(n: int) -> float:
    """Integral of (1-t^2)^((n-3)/2) over [-1, 1]."""
    return math.sqrt(math.pi) * math.gamma((n - 1) / 2.0) / math.gamma(n / 2.0)


def kernel_mean_quadrature(kernel, n: int, poly_degree: int) -> float:
    """E[kernel(t)] for t = <u, v> with u, v uniform on S^{n-1}.

    Gauss-Jacobi quadrature in the weight (1-t^2)^((n-3)/2); exact when the
    kernel is a polynomial of degree <= 2*npoints - 1.
    """
    npts = max(poly_degree // 2 + 2, 8)
    a = (n - 3) / 2.0
    nodes, weights = special.roots_jacobi(npts, a, a)
    return float(weights @ kernel(nodes)) / _weight_normalizer(n)
