import json
import math

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from valgeo import bodies as B, trace
from valgeo import transforms as T
from valgeo import valuations as V
from valgeo.base import unit_ball_volume
from valgeo.errors import DimensionError, PolynomialFitError, ScopeError
from valgeo.grassmann import (
    SeededSampler,
    Subspace,
    coordinate_subspace,
    cos_angle,
    haar_bases_batch,
    haar_subspace,
    haar_unit_vectors,
    orthonormal_basis,
    sin_angle,
    span_sum,
    zero_subspace,
)
from valgeo.suites import _claim23_gaps


class TestExpressionTypes:
    def test_degrees(self, sampler):
        f2 = haar_subspace(4, 2, sampler)
        assert V.IntrinsicVolume(2).degree == 2
        assert V.ProjectionVal(f2).degree == 2
        assert V.CroftonVal(T.constant_gfunction(4, 1), 1).degree == 1
        assert V.ProductProj(f2, f2).degree == 4
        assert V.Lambda(V.IntrinsicVolume(3)).degree == 2
        assert V.Lambda(V.Lambda(V.IntrinsicVolume(3))).degree == 1

    def test_lambda_requires_positive_degree(self):
        with pytest.raises(DimensionError):
            V.Lambda(V.IntrinsicVolume(0))

    def test_crofton_dimension_check(self):
        with pytest.raises(DimensionError):
            V.CroftonVal(T.constant_gfunction(4, 1), 2)

    def test_parity_even(self):
        assert V.IntrinsicVolume(1).parity == "even"


class TestEvaluate:
    def test_euler_characteristic(self, sampler):
        for body in (B.make_cube(3), B.Ball(haar_subspace(3, 2, sampler))):
            est = V.evaluate(V.IntrinsicVolume(0), body, 10, sampler)
            assert est.value == 1.0

    def test_projection_on_ball_is_cosine(self, sampler):
        f = haar_subspace(4, 2, sampler)
        l = haar_subspace(4, 2, sampler)
        est = V.evaluate(V.ProjectionVal(f), B.Ball(l), 10, sampler)
        assert est.value == pytest.approx(
            unit_ball_volume(2) * cos_angle(l, f), rel=1e-10
        )

    def test_intrinsic_on_matching_ball(self, sampler):
        l = haar_subspace(5, 3, sampler)
        est = V.evaluate(V.IntrinsicVolume(3), B.Ball(l), 10, sampler)
        assert est.value == pytest.approx(unit_ball_volume(3), rel=1e-12)

    def test_intrinsic_on_thin_ball_vanishes(self, sampler):
        l = haar_subspace(5, 2, sampler)
        assert V.evaluate(V.IntrinsicVolume(3), B.Ball(l), 10, sampler).value == 0.0

    def test_projection_on_polytope_exact(self, sampler):
        cube = B.make_cube(3)
        f = coordinate_subspace(3, [0, 1])
        est = V.evaluate(V.ProjectionVal(f), cube, 10, sampler)
        assert est.value == pytest.approx(1.0, rel=1e-12)
        assert est.stderr == 0.0

    def test_crofton_constant_equals_kubota_mean(self):
        # CroftonVal with f = 1 is the raw mean projection volume.
        cube = B.make_cube(3)
        expr = V.CroftonVal(T.constant_gfunction(3, 1), 1)
        est = V.evaluate(expr, cube, 30_000, SeededSampler(3))
        kub = B.kubota_estimate(cube, 1, 30_000, SeededSampler(4))
        c = B.kubota_coefficient(3, 1)
        assert abs(c * est.value - kub.value) < 4 * c * math.hypot(est.stderr, kub.stderr)

    @pytest.mark.parametrize("i", [1, 2])
    def test_crofton_lines_and_planes_have_no_per_sample_loop(self, monkeypatch, i):
        for module in (B, V):
            monkeypatch.setattr(module, "_raw_hull", lambda x: pytest.fail("per-sample loop"),
                                raising=False)
        est = V.evaluate(V.CroftonVal(T.constant_gfunction(3, i), i), B.make_cube(3),
                         4096, SeededSampler(3))
        assert est.value > 0.0

    def test_crofton_planes_in_r3_take_cauchy_and_match_per_image_qhull(self, monkeypatch):
        seen = []
        mean = V.mean_and_stderr
        monkeypatch.setattr(V, "mean_and_stderr", lambda vals: (seen.append(vals.copy()), mean(vals))[1])
        cube, budget, s = B.make_cube(3), 4096, SeededSampler(3)
        trace.reset()
        V.evaluate(V.CroftonVal(T.constant_gfunction(3, 2, 0.5), 2), cube, budget, s)
        used = {key: v for key, v in trace.counters.items() if v}
        assert used == {"shadow_rows_cauchy": budget}
        bases = haar_bases_batch(3, 2, budget, s.substream(0))
        hulls = [ConvexHull(x).volume for x in cube.vertices @ bases]
        np.testing.assert_allclose(seen[0], 0.5 * np.array(hulls), rtol=1e-12, atol=0)

    def test_translation_invariance(self):
        cube = B.make_cube(3)
        moved = B.Polytope(3, cube.vertices + [0.3, -1.2, 0.7])
        a = V.evaluate(V.IntrinsicVolume(2), cube, 20_000, SeededSampler(5))
        b = V.evaluate(V.IntrinsicVolume(2), moved, 20_000, SeededSampler(5))
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_evenness(self):
        p = B.make_random_polytope(3, 12, SeededSampler(6))
        a = V.evaluate(V.IntrinsicVolume(2), p, 20_000, SeededSampler(7))
        q = B.Polytope(3, -p.vertices)
        b = V.evaluate(V.IntrinsicVolume(2), q, 20_000, SeededSampler(7))
        assert a.value == pytest.approx(b.value, rel=1e-10)

    def test_homogeneity(self):
        p = B.make_simplex(3)
        a = V.evaluate(V.IntrinsicVolume(2), p, 20_000, SeededSampler(8))
        q = B.Polytope(3, 1.7 * p.vertices)
        b = V.evaluate(V.IntrinsicVolume(2), q, 20_000, SeededSampler(8))
        assert b.value == pytest.approx(1.7**2 * a.value, rel=1e-10)


class TestProductProjection:
    def test_complementary_coordinate_planes(self):
        c4 = B.make_cube(4)
        f1 = coordinate_subspace(4, [0, 1])
        f2 = coordinate_subspace(4, [2, 3])
        assert V.product_projection(f1, f2, c4) == pytest.approx(1.0, rel=1e-12)

    def test_repeated_factor_degenerate(self):
        c4 = B.make_cube(4)
        f1 = coordinate_subspace(4, [0, 1])
        assert V.product_projection(f1, f1, c4) == 0.0

    def test_rotated_vs_rejection_mc(self):
        c4 = B.make_cube(4)
        f1 = coordinate_subspace(4, [0, 1])
        c, s_ = math.cos(0.4), math.sin(0.4)
        rot = np.eye(4)
        rot[1, 1], rot[1, 2], rot[2, 1], rot[2, 2] = c, -s_, s_, c
        f2 = orthonormal_basis(rot @ coordinate_subspace(4, [2, 3]).basis)
        exact = V.product_projection(f1, f2, c4)
        embedded = B.Polytope(
            4, np.hstack([c4.vertices @ f1.basis, c4.vertices @ f2.basis])
        )
        mc = B.mc_hull_volume(embedded, 60_000, SeededSampler(9))
        assert abs(mc.value - exact) < 4 * mc.stderr

    def test_degree_above_ambient_gives_zero(self, sampler):
        cube = B.make_cube(3)
        f1 = haar_subspace(3, 2, sampler)
        f2 = haar_subspace(3, 2, sampler)
        assert V.product_projection(f1, f2, cube) == 0.0

    def test_on_ball_matches_claim_identity(self, sampler):
        e = haar_subspace(5, 2, sampler)
        f = haar_subspace(5, 1, sampler)
        l = haar_subspace(5, 3, sampler)
        est = V.evaluate(V.ProductProj(e, f), B.Ball(l), 10, sampler)
        lhs, rhs = V.claim23_check(e, f, l)
        assert est.value == pytest.approx(lhs, rel=1e-12)
        assert est.value == pytest.approx(rhs, rel=1e-9)


class TestKlain:
    def test_intrinsic_volume_constant(self, sampler):
        kf = V.klain_function(V.IntrinsicVolume(2), ambient_dim=4)
        for _ in range(3):
            l = haar_subspace(4, 2, sampler)
            assert kf(l) == pytest.approx(unit_ball_volume(2), rel=1e-12)

    def test_projection_val_cosine(self, sampler):
        f = haar_subspace(4, 2, sampler)
        kf = V.klain_function(V.ProjectionVal(f))
        l = haar_subspace(4, 2, sampler)
        assert kf(l) == pytest.approx(unit_ball_volume(2) * cos_angle(l, f), rel=1e-10)

    def test_basis_independence(self, sampler):
        f = haar_subspace(4, 2, sampler)
        kf = V.klain_function(V.ProjectionVal(f))
        l = haar_subspace(4, 2, sampler)
        q = np.linalg.qr(sampler.standard_normal((2, 2)))[0]
        l2 = orthonormal_basis(l.basis @ q)
        assert kf(l) == pytest.approx(kf(l2), abs=1e-10)

    def test_crofton_klain_deterministic(self, sampler):
        expr = V.CroftonVal(T.zonal_harmonic(3, 2, [0, 0, 1.0]), 1)
        kf = V.klain_function(expr, budget=2048, s=SeededSampler(10), ambient_dim=3)
        l = haar_subspace(3, 1, sampler)
        assert kf(l) == kf(l)


def reference_claim23(e, f, l):
    """Claim 2.3's two sides for one triple by the scalar functions: the
    per-trial arithmetic that ``claim23_sides`` stacks."""
    m = np.vstack([e.basis.T, f.basis.T])
    lhs = float(V._map_ball_volume(m, l.basis, l.dim))
    return lhs, unit_ball_volume(l.dim) * cos_angle(l, span_sum(e, f)) * sin_angle(e, f)


def reference_claim23_gaps(n, trials, s):
    """The claim23 suite's per-trial gaps |lhs - rhs| / kappa_q as a loop of
    ``haar_subspace`` draws and ``reference_claim23``."""
    gaps = []
    for t in range(trials):
        i1 = 1 + t % 2
        i2 = 1 + (t // 2) % min(2, n - i1 - 1)
        e = haar_subspace(n, i1, s)
        f = haar_subspace(n, i2, s)
        l = haar_subspace(n, i1 + i2, s)
        lhs, rhs = reference_claim23(e, f, l)
        gaps.append(abs(lhs - rhs) / unit_ball_volume(i1 + i2))
    return gaps


class TestClaim23:
    @pytest.mark.parametrize("seed", [1234, 3456993387, 2906882619])
    def test_grouped_gaps_equal_per_trial_loop(self, seed):
        for n in range(4, 8):
            for trials in (100, 40, 7):
                grouped = _claim23_gaps(n, trials, SeededSampler(seed, stream_id=50 + n))
                loop = reference_claim23_gaps(n, trials, SeededSampler(seed, stream_id=50 + n))
                assert grouped.tolist() == loop

    @pytest.mark.parametrize("i1, i2", [(1, 2), (2, 2), (2, 1)])
    def test_sides_equal_one_row_calls_on_degenerate_rows(self, i1, i2):
        # Haar rows mixed with coordinate rows: E and F nested (E = F when
        # i1 = i2), where E + F is too small for L, and E orthogonal to F.
        n, q = 6, i1 + i2
        s = SeededSampler(i1 + 10 * i2)
        e, f, l = (list(haar_bases_batch(n, k, 3, s)) for k in (i1, i2, q))
        nested = coordinate_subspace(n, range(i2)).basis
        apart = coordinate_subspace(n, range(i1, q)).basis
        coords = coordinate_subspace(n, range(q)).basis
        for ft, lt in ((nested, l[0]), (nested, coords), (apart, coords), (apart, l[1])):
            e.append(coordinate_subspace(n, range(i1)).basis)
            f.append(ft)
            l.append(lt)
        lhs, rhs = V.claim23_sides(np.stack(e), np.stack(f), np.stack(l))
        for t in range(len(e)):
            triple = [Subspace(n, b[t]) for b in (e, f, l)]
            assert (lhs[t], rhs[t]) == V.claim23_check(*triple)
            assert (lhs[t], rhs[t]) == reference_claim23(*triple)
        assert rhs[3] == rhs[4] == 0.0
        assert lhs[5] == rhs[5] == pytest.approx(unit_ball_volume(q), rel=1e-12)

    def test_non_orthonormal_stack_raises(self):
        s = SeededSampler(8)
        stacks = [haar_bases_batch(5, k, 4, s) for k in (1, 2, 3)]
        V.claim23_sides(*stacks)
        for j in range(3):
            bad = list(stacks)
            bad[j] = stacks[j].copy()
            bad[j][2, :, -1] *= 1.001
            with pytest.raises(ValueError):
                V.claim23_sides(*bad)
        with pytest.raises(DimensionError):
            V.claim23_sides(stacks[0][:3], *stacks[1:])

    @pytest.mark.parametrize("n", [5, 6])
    def test_random_triples(self, n):
        s = SeededSampler(20 + n)
        for t in range(100):
            i1 = 1 + t % 2
            i2 = 1 + (t // 2) % 2
            e = haar_subspace(n, i1, s)
            f = haar_subspace(n, i2, s)
            l = haar_subspace(n, i1 + i2, s)
            lhs, rhs = V.claim23_check(e, f, l)
            assert abs(lhs - rhs) <= 1e-9 * unit_ball_volume(i1 + i2)

    def test_orthogonal_sum_case(self):
        e = coordinate_subspace(6, [0, 1])
        f = coordinate_subspace(6, [2])
        l = span_sum(e, f)
        lhs, rhs = V.claim23_check(e, f, l)
        assert lhs == pytest.approx(unit_ball_volume(3), rel=1e-12)
        assert rhs == pytest.approx(unit_ball_volume(3), rel=1e-12)

    def test_dimension_mismatch(self, sampler):
        with pytest.raises(DimensionError):
            V.claim23_check(
                haar_subspace(5, 1, sampler),
                haar_subspace(5, 2, sampler),
                haar_subspace(5, 2, sampler),
            )


class TestLemma22:
    def test_k_zero_degenerate(self, sampler):
        f = haar_subspace(4, 2, sampler)
        l = haar_subspace(4, 2, sampler)
        (value,), (stderr,) = V.lemma22_formula(f, 0, l.basis[None], 10, sampler)
        assert value == pytest.approx(cos_angle(l, f), rel=1e-12)
        assert stderr == 0.0

    def test_zero_f_reduces_to_unrestricted(self):
        n = 4
        l = haar_subspace(n, 2, SeededSampler(30))
        (a,), (a_se,) = V.lemma22_formula(zero_subspace(n), 2, l.basis[None], 40_000,
                                          SeededSampler(31))
        b = T.cosine_apply(T.constant_gfunction(n, 2), 2, l, 20_000, SeededSampler(32))
        assert abs(a - b.value) < 4 * math.hypot(a_se, b.stderr)

    def test_proportional_to_direct(self):
        n, i, k = 4, 1, 1
        f = haar_subspace(n, i, SeededSampler(33))
        ls = haar_bases_batch(n, 2, 8, SeededSampler(34))
        direct, _ = V.lemma22_direct(f, k, ls, 40_000, SeededSampler(50))
        formula, _ = V.lemma22_formula(f, k, ls, 40_000, SeededSampler(70))
        _, residual = V.fit_proportionality(direct, formula)
        assert residual < 0.03

    def test_wrong_stack_shape_raises(self):
        f = haar_subspace(4, 1, SeededSampler(33))
        with pytest.raises(DimensionError):
            V.lemma22_direct(f, 1, haar_bases_batch(4, 3, 2, SeededSampler(34)), 10,
                             SeededSampler(50))
        with pytest.raises(DimensionError):
            V.lemma22_formula(f, 1, haar_subspace(4, 2, SeededSampler(34)).basis, 10,
                              SeededSampler(70))


class TestLemma24:
    def test_constant_function_invariance(self):
        g = V.multiply_by_intrinsic(
            T.constant_gfunction(4, 1), 1, 1, 20_000, SeededSampler(40)
        )
        assert g.grass_dim == 2
        vals = [g(haar_subspace(4, 2, SeededSampler(41 + j))) for j in range(3)]
        assert (max(vals) - min(vals)) / abs(np.mean(vals)) < 0.08

    def test_proportional_to_direct(self):
        n, i, k = 4, 1, 1
        f = T.zonal_harmonic(n, 2, [1.0, 0.4, -0.2, 0.5])
        smooth = T.GFunction(n, 1, lambda bases: 1.0 + 0.5 * f.eval_bases(bases))
        ls = haar_bases_batch(n, 2, 8, SeededSampler(90))
        direct, _ = V.lemma24_direct(smooth, i, k, ls, 40_000, SeededSampler(110))
        formula = V.multiply_by_intrinsic(smooth, i, k, 40_000, SeededSampler(130)).eval_bases(ls)
        _, residual = V.fit_proportionality(direct, formula)
        assert residual < 0.04


class TestLambda:
    def test_volume_on_cube(self):
        est = V.lambda_apply(
            V.Lambda(V.IntrinsicVolume(3)), B.make_cube(3), 1 << 16,
            SeededSampler(60),
        )
        assert est.value == pytest.approx(6.0, rel=0.03)

    def test_lambda_v1_body_independent(self):
        # Lambda V_1 is a multiple of the Euler characteristic.
        vals = []
        for j, body in enumerate(
            (B.make_cube(3), B.make_simplex(3), B.make_random_polytope(3, 16, SeededSampler(61)))
        ):
            est = V.lambda_apply(
                V.Lambda(V.IntrinsicVolume(1)), body, 20_000, SeededSampler(62 + j)
            )
            vals.append(est.value)
        assert max(vals) - min(vals) < 0.03 * abs(np.mean(vals))
        # The constant is V_1 of the unit ball.
        assert np.mean(vals) == pytest.approx(4.0, rel=0.02)

    def test_nested_lambda(self):
        # vol(square + eps D) = 1 + 4 eps + pi eps^2, so Lambda^2 = 2 pi.
        est = V.lambda_apply(
            V.Lambda(V.Lambda(V.IntrinsicVolume(2))), B.make_cube(2), 1 << 16,
            SeededSampler(70),
        )
        assert est.value == pytest.approx(2 * math.pi, rel=0.05)

    def test_projection_val_planar_exact(self):
        f = haar_subspace(3, 2, SeededSampler(71))
        cube = B.make_cube(3)
        est = V.lambda_apply(V.Lambda(V.ProjectionVal(f)), cube, 100, SeededSampler(72))
        shadow = B.project(cube, f)
        assert est.value == pytest.approx(ConvexHull(shadow.vertices).area, rel=1e-9)

    def test_projection_val_of_another_dimension_raises(self):
        f = haar_subspace(4, 2, SeededSampler(71))
        with pytest.raises(DimensionError, match="ambient dimensions differ"):
            V.lambda_apply(V.Lambda(V.ProjectionVal(f)), B.make_cube(3), 100,
                           SeededSampler(72))

    def test_fit_error_on_impossible_residual(self):
        with pytest.raises(PolynomialFitError):
            V.lambda_apply(
                V.Lambda(V.IntrinsicVolume(3)), B.make_cube(3), 4096,
                SeededSampler(73), max_residual=1e-12,
            )

    def test_scope_error_middle_degree(self):
        with pytest.raises(ScopeError):
            V.lambda_apply(
                V.Lambda(V.IntrinsicVolume(3)), B.make_cube(4), 1000,
                SeededSampler(74),
            )

    def test_ball_body_rejected(self, sampler):
        with pytest.raises(ScopeError):
            V.evaluate(
                V.Lambda(V.IntrinsicVolume(2)), B.Ball(haar_subspace(3, 2, sampler)),
                100, sampler,
            )


class TestProportionality:
    def test_identical_expressions(self):
        bodies = [B.make_cube(3), B.make_simplex(3)]
        rep = V.proportionality_check(
            V.IntrinsicVolume(2), V.IntrinsicVolume(2), bodies, 10_000, SeededSampler(80)
        )
        assert np.allclose(rep.ratios, 1.0, atol=1e-9)
        assert rep.proportional

    def test_zero_denominator_excluded(self):
        segment = B.Polytope(3, [[0, 0, 0], [0, 0, 1.0]])
        cube = B.make_cube(3)
        f = coordinate_subspace(3, [0])
        expr_a = V.IntrinsicVolume(1)
        expr_b = V.ProjectionVal(f)  # vanishes on the segment along e3
        with pytest.warns(UserWarning):
            rep = V.proportionality_check(
                expr_a, expr_b, [cube, segment], 5_000, SeededSampler(81)
            )
        assert rep.skipped == [1]

    def test_v1_squared_vs_v2(self):
        bodies = [B.make_cube(3), B.make_simplex(3)]
        rep = V.proportionality_check(
            V.v1_power(3, 2), V.IntrinsicVolume(2), bodies, 30_000, SeededSampler(82)
        )
        assert rep.spread < 0.03

    def test_v1_power_one_matches_kubota(self):
        est = V.evaluate(V.v1_power(3, 1), B.make_cube(3), 40_000, SeededSampler(83))
        assert abs(est.value - 3.0) < 4 * est.stderr + 0.01

    def test_v1_power_on_ball(self, sampler):
        est = V.evaluate(V.v1_power(3, 1), B.Ball(haar_subspace(3, 3, sampler)), 30_000, SeededSampler(84))
        assert est.value == pytest.approx(4.0, rel=0.03)

    @pytest.mark.parametrize("body, path", [
        (B.make_cube(3), "shadow_rows_cauchy"),
        (B.make_simplex(3), "shadow_rows_cauchy"),
        (B.Polytope(3, [[0, 0, 0], [2, 0, 0], [0, 1, 0], [1.5, 1.5, 0]]), "shadow_rows_edges"),
    ])
    def test_v1_power_square_per_sample_matches_qhull(self, monkeypatch, body, path):
        # One chunk: every per-sample area against Qhull on the same draws.
        seen = []
        mean = V.mean_and_stderr
        monkeypatch.setattr(V, "mean_and_stderr", lambda vals: (seen.append(vals.copy()), mean(vals))[1])
        budget, s = 2048, SeededSampler(85)
        trace.reset()
        V.v1_power(3, 2).evaluator(body, budget, s)
        assert {key: v for key, v in trace.counters.items() if v} == {path: budget}
        dirs = haar_unit_vectors(3, 2 * budget, s.substream(0)).reshape(budget, 2, 3)
        embedded = np.einsum("vn,spn->svp", body.vertices, dirs)
        reference = [ConvexHull(e).volume for e in embedded]
        np.testing.assert_allclose(seen[0], reference, rtol=1e-12, atol=1e-14)


class TestExprJson:
    def test_round_trip_tree(self):
        expr = V.Lambda(V.CroftonVal(T.zonal_harmonic(3, 2, [0, 0, 1.0]), 1))
        data = V.expr_to_json(expr)
        assert data["op"] == "Lambda"
        rebuilt = V.expr_from_json(data)
        assert rebuilt.degree == expr.degree
        assert isinstance(rebuilt, V.Lambda)

    @pytest.mark.parametrize("n, index", [(3, 3), (3, 14), (4, 0), (4, 9)])
    def test_harmonic_crofton_round_trip(self, n, index, sampler):
        f = T.even_harmonic_basis(n, 4)[index]
        data = json.loads(json.dumps(V.expr_to_json(V.CroftonVal(f, 1))))
        assert data["f"]["kind"] == "harmonic"
        rebuilt = V.expr_from_json(data)
        assert rebuilt.f.spec == f.spec
        bases = haar_bases_batch(n, 1, 32, sampler)
        assert np.array_equal(rebuilt.f.eval_bases(bases), f.eval_bases(bases))

    def test_projection_round_trip(self, sampler):
        f = haar_subspace(4, 2, sampler)
        rebuilt = V.expr_from_json(V.expr_to_json(V.ProjectionVal(f)))
        assert np.allclose(rebuilt.subspace.basis @ rebuilt.subspace.basis.T, f.basis @ f.basis.T,
                           atol=1e-12)

    def test_custom_not_serializable(self):
        with pytest.raises(ValueError):
            V.expr_to_json(V.v1_power(3, 2))

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            V.expr_from_json({"op": "Nope"})
