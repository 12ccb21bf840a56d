import math
from fractions import Fraction

import numpy as np
import pytest

from scipy import special

from valgeo._harmonics import (
    even_harmonic_blocks,
    gegenbauer_normalized,
    kernel_mean_quadrature,
    monomial_exponents,
    monomials,
    sphere_moment,
)
from valgeo.errors import ScopeError


def harmonic_dimension(n: int, d: int) -> int:
    """dim of the spherical harmonics of degree d on S^{n-1}."""
    if d == 0:
        return 1
    return math.comb(d + n - 1, n - 1) - math.comb(d + n - 3, n - 1)


def sphere_quadrature(n: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric node set and probability weights on S^{n-1}.

    Exact for all polynomials up to the given degree.  Built recursively:
    S^{m-1} = Gauss-Jacobi nodes in the first coordinate times a rule on
    S^{m-2}; the base circle rule is a uniform (even) grid.
    """
    if n == 2:
        m = degree + 2 + (degree % 2)  # even count, exact past the degree
        theta = 2.0 * math.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        return nodes, np.full(m, 1.0 / m)
    sub_nodes, sub_weights = sphere_quadrature(n - 1, degree)
    a = (n - 3) / 2.0
    t, wt = special.roots_jacobi(degree // 2 + 2, a, a)
    wt = wt / wt.sum()
    r = np.sqrt(np.maximum(1.0 - t**2, 0.0))
    nodes = np.concatenate(
        [np.column_stack([np.full(len(sub_nodes), ti), ri * sub_nodes]) for ti, ri in zip(t, r)]
    )
    return nodes, np.concatenate([wi * sub_weights for wi in wt])


class TestMoments:
    def test_odd_vanishes(self):
        assert sphere_moment(np.array([1, 2, 0]), 3) == 0.0

    def test_second_moment(self):
        for n in (3, 4, 7):
            gamma = np.zeros(n, dtype=int)
            gamma[0] = 2
            assert sphere_moment(gamma, n) == pytest.approx(1.0 / n, rel=1e-14)

    def test_fourth_moments(self):
        # E[x1^4] = 3/(n(n+2)), E[x1^2 x2^2] = 1/(n(n+2)).
        n = 4
        g4 = np.array([4, 0, 0, 0])
        g22 = np.array([2, 2, 0, 0])
        assert sphere_moment(g4, n) == pytest.approx(3 / (n * (n + 2)), rel=1e-14)
        assert sphere_moment(g22, n) == pytest.approx(1 / (n * (n + 2)), rel=1e-14)

    def test_stack_matches_exact_rationals(self):
        # Every exponent vector of total degree <= 24 in R^4 (the pair
        # moments of degree-12 blocks), as one (..., n) stack against
        # prod (g_i - 1)!! / prod_{k < |g|/2} (n + 2k) in exact arithmetic.
        n = 4
        gammas = np.concatenate([monomial_exponents(n, d) for d in range(25)])
        got = sphere_moment(gammas.reshape(-1, 5, n), n).ravel()
        for gamma, value in zip(gammas, got):
            if np.any(gamma % 2):
                assert value == 0.0
                continue
            num = math.prod(math.prod(range(g - 1, 0, -2)) for g in gamma.tolist())
            den = math.prod(n + 2 * k for k in range(int(gamma.sum()) // 2))
            assert value == float(Fraction(num, den))
        assert sphere_moment(gammas[:0], n).shape == (0,)

    def test_monomial_count(self):
        assert len(monomial_exponents(3, 4)) == math.comb(4 + 2, 2)


class TestSphereQuadrature:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_polynomial_exactness(self, n):
        nodes, weights = sphere_quadrature(n, 10)
        assert weights.sum() == pytest.approx(1.0, rel=1e-12)
        rng = np.random.default_rng(5)
        for _ in range(10):
            gamma = rng.integers(0, 5, size=n)
            if gamma.sum() > 10:
                continue
            quad = float(weights @ np.prod(nodes ** gamma, axis=1))
            assert quad == pytest.approx(sphere_moment(gamma, n), abs=1e-12)

    def test_nodes_on_sphere(self):
        nodes, _ = sphere_quadrature(4, 8)
        assert np.abs(np.linalg.norm(nodes, axis=1) - 1.0).max() < 1e-12

    def test_antipodal_symmetry(self):
        nodes, weights = sphere_quadrature(3, 8)
        odd = float(weights @ nodes[:, 0] ** 3)
        assert abs(odd) < 1e-14


def _unit_rows(seed: int, count: int, n: int) -> np.ndarray:
    x = np.random.default_rng(seed).standard_normal((count, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _by_blocks(basis, x: np.ndarray) -> np.ndarray:
    """The whole basis at unit vectors, one block at a time."""
    return np.hstack([block.eval_points(x) for block in basis.blocks])


class TestHarmonicBasis:
    @pytest.mark.parametrize("n", [3, 4])
    def test_block_dimensions(self, n):
        basis = even_harmonic_blocks(n, 8)
        for block in basis.blocks:
            assert block.size == harmonic_dimension(n, block.degree)

    def test_degree_zero_constant(self):
        basis = even_harmonic_blocks(3, 4)
        pts = sphere_quadrature(3, 4)[0]
        vals = basis.blocks[0].eval_points(pts)
        assert np.allclose(vals, 1.0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_orthonormal_by_quadrature(self, n):
        # Independent oracle: numerical integration over the sphere.
        basis = even_harmonic_blocks(n, 6)
        nodes, weights = sphere_quadrature(n, 14)
        exps, lift = basis.lifted()
        y = monomials(nodes, exps) @ lift.T
        gram = (y * weights[:, None]).T @ y
        assert np.abs(gram - np.eye(basis.size)).max() < 1e-8

    def test_even_parity(self):
        basis = even_harmonic_blocks(3, 8)
        pts = _unit_rows(6, 20, 3)
        assert np.allclose(_by_blocks(basis, pts), _by_blocks(basis, -pts))

    def test_scope_errors(self):
        with pytest.raises(ScopeError):
            even_harmonic_blocks(5, 4)
        with pytest.raises(ScopeError):
            even_harmonic_blocks(3, 7)
        with pytest.raises(ScopeError):
            even_harmonic_blocks(3, 14)

    def test_harmonicity(self):
        # Laplacian of each degree-4 basis polynomial vanishes at random points.
        basis = even_harmonic_blocks(3, 4)
        block = basis.blocks[2]
        rng = np.random.default_rng(7)
        x = rng.normal(size=3)
        h = 1e-5
        for r in range(block.size):
            def poly(p, _r=r):
                return float(block.eval_points((p / np.linalg.norm(p))[None, :])[0, _r]) * np.linalg.norm(p) ** 4

            lap = 0.0
            for i in range(3):
                e = np.zeros(3)
                e[i] = h
                lap += poly(x + e) - 2 * poly(x) + poly(x - e)
            assert abs(lap / h**2) < 1e-4


class TestAdditionTheorem:
    """The addition theorem pins every block independently of how it is
    evaluated: for an orthonormal basis Y_d1, ..., Y_dN of the degree-d
    harmonics, sum_j Y_dj(w) Y_dj(l) = N G_d(<w, l>), with G_d the Gegenbauer
    polynomial normalized to 1 at 1."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_block_mean_is_gegenbauer(self, n):
        rng = np.random.default_rng(11 + n)
        w = rng.standard_normal((200, n))
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        l = rng.standard_normal((200, n))
        l /= np.linalg.norm(l, axis=1, keepdims=True)
        # w = l and w = -l give <w, l> = +-1, the ends of the Gegenbauer range.
        l[:10] = w[:10]
        l[10:20] = -w[10:20]
        basis = even_harmonic_blocks(n, 12)
        assert [b.degree for b in basis.blocks] == list(range(0, 13, 2))
        t = np.einsum("ij,ij->i", w, l)
        for block in basis.blocks:
            mean = (block.eval_points(w) * block.eval_points(l)).mean(axis=1)
            err = np.abs(mean - gegenbauer_normalized(n, block.degree, t)).max()
            assert err <= 1e-12, (block.degree, err)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("d_max", [0, 2, 8, 12])
    def test_lift_reproduces_every_block(self, n, d_max):
        # On the sphere each degree-d block times |x|^(d_max - d) is the
        # block itself, written in the degree-d_max monomials.  Those
        # monomials span exactly the even harmonics up to d_max, so C is
        # square.
        basis = even_harmonic_blocks(n, d_max)
        exps, lift = basis.lifted()
        assert lift.shape == (basis.size, basis.size) == (basis.size, len(exps))
        x = _unit_rows(13, 50, n)
        gap = np.abs(monomials(x, exps) @ lift.T - _by_blocks(basis, x)).max()
        assert gap <= 1e-13, gap


class TestGegenbauer:
    def test_normalized_at_one(self):
        for n in (2, 3, 4, 6):
            for d in (0, 2, 4, 8):
                assert gegenbauer_normalized(n, d, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_legendre_special_case(self):
        from scipy.special import eval_legendre

        t = np.linspace(-1, 1, 11)
        assert np.allclose(gegenbauer_normalized(3, 4, t), eval_legendre(4, t))

    def test_kernel_mean_polynomial_exact(self):
        # E[t^2] for t = <u, v> equals 1/n.
        for n in (3, 4, 5):
            val = kernel_mean_quadrature(lambda t: t**2, n, 2)
            assert val == pytest.approx(1.0 / n, rel=1e-12)
