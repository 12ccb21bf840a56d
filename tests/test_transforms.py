import math

import numpy as np
import pytest
from scipy.special import eval_chebyu, eval_legendre

from valgeo import transforms as T
from valgeo._harmonics import gegenbauer_normalized
from valgeo.errors import DimensionError, ScopeError
from valgeo.grassmann import (
    SeededSampler,
    Subspace,
    coordinate_subspace,
    haar_bases_batch,
    haar_subspace,
    orthocomplement,
    orthonormal_basis,
)


class TestGFunction:
    def test_dimension_validation(self, sampler):
        f = T.constant_gfunction(3, 1)
        with pytest.raises(DimensionError):
            f(haar_subspace(3, 2, sampler))

    def test_basis_independence(self, sampler):
        f = T.zonal_harmonic(4, 4, [1.0, 0.0, 0.0, 0.0])
        sub = haar_subspace(4, 1, sampler)
        flipped = orthonormal_basis(-sub.basis)
        assert f(sub) == pytest.approx(f(flipped), abs=1e-12)

    def test_eval_bases_matches_loop(self, sampler):
        f = T.zonal_harmonic(3, 2, [0.0, 0.0, 1.0])
        bases = haar_bases_batch(3, 1, 16, sampler)
        batch = f.eval_bases(bases)
        loop = [f(Subspace(3, b)) for b in bases]
        assert np.allclose(batch, loop, atol=1e-12)

    def test_eval_bases_validates_dimensions(self):
        f = T.constant_gfunction(3, 1)
        with pytest.raises(DimensionError):
            f.eval_bases(np.zeros((5, 4, 1)))  # wrong n
        with pytest.raises(DimensionError):
            f.eval_bases(np.zeros((5, 3, 2)))  # wrong k
        with pytest.raises(DimensionError):
            f.eval_bases(np.zeros((3, 1)))  # not a stack

    def test_evaluator_output_shape_is_checked(self, sampler):
        # A scalar-valued evaluator must not broadcast over a chunk.
        f = T.GFunction(3, 1, lambda bases: 2.0)
        with pytest.raises(DimensionError):
            f.eval_bases(haar_bases_batch(3, 1, 4, sampler))
        with pytest.raises(DimensionError):
            f(haar_subspace(3, 1, sampler))
        with pytest.raises(DimensionError):
            T.radon_apply(f, 2, coordinate_subspace(3, [0, 1]), 100, sampler)


class TestRadon:
    def test_constant_is_constant(self, sampler):
        one = T.constant_gfunction(3, 1)
        h = coordinate_subspace(3, [0, 1])
        est = T.radon_apply(one, 2, h, 500, sampler)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_equal_dims_rejected(self, sampler):
        one = T.constant_gfunction(3, 2)
        with pytest.raises(DimensionError):
            T.radon_apply(one, 2, haar_subspace(3, 2, sampler), 10, sampler)

    def test_degree_two_harmonic_in_plane(self, sampler):
        # Lines in {z = 0} have zero e3 component, so the average is -1/3.
        f = T.GFunction(3, 1, lambda bases: bases[:, 2, 0] ** 2 - 1 / 3)
        h = coordinate_subspace(3, [0, 1])
        est = T.radon_apply(f, 2, h, 200, sampler)
        assert est.value == pytest.approx(-1 / 3, abs=1e-12)

    def test_upward_direction_constant(self, sampler):
        # j < i: average over planes containing a line is again a mean of 1.
        one = T.constant_gfunction(3, 2)
        h = coordinate_subspace(3, [2])
        est = T.radon_apply(one, 1, h, 300, sampler)
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_equivariance(self):
        n = 3
        f = T.zonal_harmonic(n, 2, [0.0, 0.0, 1.0])
        g = np.linalg.qr(np.random.default_rng(4).normal(size=(n, n)))[0]
        f_rot = T.GFunction(n, 1, lambda bases: f.eval_bases(g @ bases))
        h = haar_subspace(n, 2, SeededSampler(5))
        gh = orthonormal_basis(g @ h.basis)
        a = T.radon_apply(f_rot, 2, h, 20000, SeededSampler(6))
        b = T.radon_apply(f, 2, gh, 20000, SeededSampler(7))
        sigma = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) < 4 * sigma + 1e-9


class TestCosine:
    def test_mean_cos_r2(self):
        e = coordinate_subspace(2, [0])
        est = T.cosine_apply(T.constant_gfunction(2, 1), 1, e, 20000, SeededSampler(8))
        assert abs(est.value - 2 / math.pi) < 4 * est.stderr

    def test_mean_cos_r3(self):
        e = coordinate_subspace(3, [0])
        est = T.cosine_apply(T.constant_gfunction(3, 1), 1, e, 20000, SeededSampler(9))
        assert abs(est.value - 0.5) < 4 * est.stderr

    def test_invariance_in_e(self):
        one = T.constant_gfunction(3, 1)
        vals = []
        for seed in (10, 11):
            e = haar_subspace(3, 1, SeededSampler(seed))
            vals.append(T.cosine_apply(one, 1, e, 20000, SeededSampler(12)))
        assert abs(vals[0].value - vals[1].value) < 4 * math.hypot(
            vals[0].stderr, vals[1].stderr
        )

    def test_bounds(self, sampler):
        with pytest.raises(DimensionError):
            T.cosine_apply(T.constant_gfunction(3, 3), 3, haar_subspace(3, 3, sampler), 10, sampler)

    def test_orthocomplement_symmetry(self):
        # T applied to f after perp, at E-perp, equals T applied to f at E.
        from valgeo.grassmann import orthocomplement

        n = 3
        f = T.zonal_harmonic(n, 2, [0.0, 1.0, 0.0])
        f_perp = T.GFunction(
            n, 2, lambda bases: f.eval_bases(np.linalg.qr(bases, mode="complete")[0][:, :, 2:])
        )
        e = haar_subspace(n, 1, SeededSampler(25))
        a = T.cosine_apply(f, 1, e, 30_000, SeededSampler(26))
        b = T.cosine_apply(f_perp, 2, orthocomplement(e), 30_000, SeededSampler(27))
        assert abs(a.value - b.value) < 4 * math.hypot(a.stderr, b.stderr)

    def test_equivariance(self):
        n = 3
        f = T.zonal_harmonic(n, 2, [0.0, 0.0, 1.0])
        g = np.linalg.qr(np.random.default_rng(28).normal(size=(n, n)))[0]
        f_rot = T.GFunction(n, 1, lambda bases: f.eval_bases(g @ bases))
        e = haar_subspace(n, 1, SeededSampler(29))
        ge = orthonormal_basis(g @ e.basis)
        a = T.cosine_apply(f_rot, 1, e, 30_000, SeededSampler(30))
        b = T.cosine_apply(f, 1, ge, 30_000, SeededSampler(31))
        assert abs(a.value - b.value) < 4 * math.hypot(a.stderr, b.stderr)


class TestFunkHeckeOracles:
    def test_hand_values(self):
        assert T.funk_hecke_cosine_eigen(3, 0) == pytest.approx(0.5, abs=1e-9)
        assert T.funk_hecke_cosine_eigen(3, 2) == pytest.approx(0.125, abs=1e-9)
        assert T.funk_hecke_cosine_eigen(2, 0) == pytest.approx(2 / math.pi, abs=1e-9)

    def test_odd_degree_rejected(self):
        with pytest.raises(DimensionError):
            T.funk_hecke_cosine_eigen(3, 3)

    def test_mc_cross_oracle(self):
        # The quadrature eigenvalue matches the Monte-Carlo cosine transform
        # applied to a harmonic.
        n, d = 3, 2
        f = T.zonal_harmonic(n, d, [0.0, 0.0, 1.0])
        e = coordinate_subspace(n, [2])  # pole: f(e) = 1
        est = T.cosine_apply(f, 1, e, 60000, SeededSampler(13))
        assert abs(est.value - T.funk_hecke_cosine_eigen(n, d)) < 4 * est.stderr

    def test_radon_eigen_closed_form(self):
        for d in (0, 2, 4, 6, 8):
            assert T.funk_radon_eigen(3, d) == pytest.approx(
                eval_legendre(d, 0.0), abs=1e-10
            )
        for d in (0, 2, 4):
            expected = eval_chebyu(d, 0.0) / eval_chebyu(d, 1.0)
            assert T.funk_radon_eigen(4, d) == pytest.approx(expected, abs=1e-10)

    def test_radon_eigen_mc(self):
        # radon_apply on a zonal harmonic, averaged over lines in a plane
        # in generic position to the pole and divided by the value at the
        # plane's normal line, estimates the Radon eigenvalue.
        axis = np.array([1.0, 0.0, 0.0])
        normal = np.array([math.cos(0.9), math.sin(0.9), 0.0])
        h = orthocomplement(orthonormal_basis(normal.reshape(3, 1)))
        for d in (2, 4):
            est = T.radon_apply(T.zonal_harmonic(3, d, axis), 2, h, 30000, SeededSampler(14))
            denom = float(gegenbauer_normalized(3, d, math.cos(0.9)))
            assert abs(est.value / denom - T.funk_radon_eigen(3, d)) < 4 * est.stderr / abs(denom)


class TestEvenHarmonicBasisAPI:
    def test_degree_zero_constant(self, sampler):
        basis = T.even_harmonic_basis(3, 4)
        assert basis[0](haar_subspace(3, 1, sampler)) == pytest.approx(1.0, abs=1e-12)

    def test_counts(self):
        assert len(T.even_harmonic_basis(3, 2)) == 6
        assert len(T.even_harmonic_basis(4, 4)) == 35

    def test_only_even_degrees(self):
        degs = {f.spec["degree"] for f in T.even_harmonic_basis(3, 8)}
        assert degs == {0, 2, 4, 6, 8}

    def test_line_parity(self, sampler):
        for f in T.even_harmonic_basis(3, 4)[:8]:
            sub = haar_subspace(3, 1, sampler)
            assert f(sub) == pytest.approx(f(orthonormal_basis(-sub.basis)), abs=1e-12)

    def test_scope(self):
        with pytest.raises(ScopeError):
            T.even_harmonic_basis(5, 4)


class TestOperatorAndProbe:
    def test_constant_column_concentrates_on_degree_zero(self):
        op = T.operator_matrix_even(3, 4, 150_000, SeededSampler(15))
        col = op.matrix[:, 0]
        assert col[0] == pytest.approx(
            T.funk_hecke_cosine_eigen(3, 0) * T.funk_radon_eigen(3, 0), abs=0.01
        )
        assert np.abs(col[1:]).max() < 0.01

    def test_block_scalars_match_oracles(self):
        report, op = T.lefschetz_probe(3, 4, 400_000, SeededSampler(16))
        for i, d in enumerate(report.degrees):
            oracle = report.oracle_products[i]
            assert abs(report.scalars[i] - oracle) < 4 * report.scalar_stderrs[i] + 1e-9

    def test_labels_and_blocks(self):
        op = T.operator_matrix_even(3, 4, 20_000, SeededSampler(17))
        assert op.labels[0] == (0, 0)
        assert list(op.block_degrees) == [0, 2, 4]
        assert op.matrix.shape == (15, 15)

    @pytest.mark.parametrize("n, d_max", [(3, 8), (4, 6)])
    def test_block_trace_is_the_block_scalar(self, n, d_max):
        # By the addition theorem the mean over a block of Y_j(w) Y_j(l) is
        # G_d(<w, l>) sample by sample, so the mean of the block's diagonal
        # equals the scalar taken from G_d up to rounding.
        op = T.operator_matrix_even(n, d_max, 5_000, SeededSampler(23))
        for i, d in enumerate(op.block_degrees):
            trace = np.diag(op.matrix)[op.degrees == d].mean()
            assert abs(trace - op.block_scalars[i]) <= 1e-12

    def test_probe_n4(self):
        report, _ = T.lefschetz_probe(4, 4, 300_000, SeededSampler(18))
        for i in range(len(report.degrees)):
            assert abs(report.scalars[i] - report.oracle_products[i]) < (
                4 * report.scalar_stderrs[i] + 1e-9
            )
        assert report.injective

    def test_report_serializable(self):
        import json

        report, _ = T.lefschetz_probe(3, 2, 20_000, SeededSampler(19))
        payload = json.dumps(report.to_dict(), sort_keys=True)
        assert "singular_values" in payload

    def test_probe_degree_zero_single_positive_scalar(self):
        report, _ = T.lefschetz_probe(3, 0, 20_000, SeededSampler(22))
        assert len(report.scalars) == 1
        assert report.scalars[0] > 0
        assert report.injective

    def test_mc_convergence_rate(self):
        # 4x the samples roughly halves the reported standard errors.
        r1, _ = T.lefschetz_probe(3, 2, 30_000, SeededSampler(20))
        r2, _ = T.lefschetz_probe(3, 2, 120_000, SeededSampler(21))
        ratio = r1.scalar_stderrs.mean() / r2.scalar_stderrs.mean()
        assert 1.5 < ratio < 2.7

    def test_scope(self, sampler):
        with pytest.raises(ScopeError):
            T.operator_matrix_even(5, 4, 100, sampler)
