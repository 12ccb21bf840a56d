import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import ks_2samp

from valgeo import suites, valuations as V
from valgeo.base import mean_and_stderr, unit_ball_volume
from valgeo.errors import DimensionError, RankError
from valgeo.grassmann import (
    SeededSampler,
    Subspace,
    _complement,
    _cos,
    _map_ball_volume,
    _plucker,
    _subsets,
    coordinate_subspace,
    cos_angle,
    cos_angles_with_bases,
    cos_from_products,
    ellipsoid_image_volume,
    haar_bases_batch,
    haar_frames,
    haar_subspace,
    haar_unit_vectors,
    orthocomplement,
    orthonormal_basis,
    sample_containing,
    sample_within,
    signed_qr_batch,
    sin_angle,
    span_sum,
    unit_vectors_orthogonal_to,
    zero_subspace,
)
from valgeo.suites import _angle_laws


def full_space(n):
    return Subspace(n, np.eye(n))


def projector(e):
    return e.basis @ e.basis.T


def projector_close(e, f, tol=1e-10):
    return np.allclose(projector(e), projector(f), atol=tol)


class TestOrthonormalBasis:
    def test_identity_gives_full_space(self):
        sub = orthonormal_basis(np.eye(3))
        assert sub.dim == 3
        assert projector_close(sub, full_space(3))

    def test_gram_schmidt_forced(self):
        m = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        sub = orthonormal_basis(m)
        assert projector_close(sub, coordinate_subspace(3, [0, 1]))

    def test_projector_equals_normal_equations(self, rng):
        m = rng.normal(size=(5, 2))
        sub = orthonormal_basis(m)
        oracle = m @ np.linalg.solve(m.T @ m, m.T)
        assert np.abs(projector(sub) - oracle).max() < 1e-10

    def test_rank_deficient_raises(self):
        m = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(RankError):
            orthonormal_basis(m)

    def test_subspace_invariants(self):
        with pytest.raises(DimensionError):
            Subspace(3, np.eye(4))
        with pytest.raises(ValueError):
            Subspace(3, np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


class TestHaarSubspace:
    def test_full_space_always(self, sampler):
        sub = haar_subspace(4, 4, sampler)
        assert projector_close(sub, full_space(4))

    def test_same_seed_identical(self):
        a = haar_subspace(5, 2, SeededSampler(7))
        b = haar_subspace(5, 2, SeededSampler(7))
        assert np.array_equal(a.basis, b.basis)

    def test_cos_squared_moment(self):
        # E[cos^2(random line, e1)] = 1/n by symmetry; Beta-moment oracle.
        n, trials = 3, 100_000
        s = SeededSampler(5)
        axis = coordinate_subspace(n, [0])
        vals = np.array(
            [cos_angle(haar_subspace(n, 1, s), axis) ** 2 for _ in range(trials)]
        )
        sigma = vals.std(ddof=1) / math.sqrt(trials)
        assert abs(vals.mean() - 1.0 / n) < 3.0 * sigma + 1e-12

    def test_rotation_invariance_ks(self, rng):
        n, trials = 4, 2000
        g = np.linalg.qr(rng.normal(size=(n, n)))[0]
        s = SeededSampler(8)
        base = []
        rotated = []
        for _ in range(trials):
            e = haar_subspace(n, 2, s)
            f = haar_subspace(n, 2, s)
            base.append(cos_angle(e, f))
            rotated.append(
                cos_angle(
                    orthonormal_basis(g @ e.basis), orthonormal_basis(g @ f.basis)
                )
            )
        assert ks_2samp(base, rotated, method="asymp").pvalue > 0.01

    def test_bounds(self, sampler):
        with pytest.raises(DimensionError):
            haar_subspace(3, 4, sampler)


class TestOrthocomplement:
    def test_xy_plane_gives_z_axis(self):
        comp = orthocomplement(coordinate_subspace(3, [0, 1]))
        assert projector_close(comp, coordinate_subspace(3, [2]))

    def test_involution(self, sampler):
        e = haar_subspace(6, 2, sampler)
        assert projector_close(orthocomplement(orthocomplement(e)), e)

    def test_zero_subspace(self):
        assert orthocomplement(zero_subspace(4)).dim == 4
        assert orthocomplement(full_space(4)).dim == 0


class TestSpanSum:
    def test_orthogonal_dims_add(self):
        e = coordinate_subspace(5, [0, 1])
        f = coordinate_subspace(5, [2])
        assert span_sum(e, f).dim == 3

    def test_idempotent(self, sampler):
        e = haar_subspace(5, 2, sampler)
        assert projector_close(span_sum(e, e), e)

    def test_generic_position(self, sampler):
        e = haar_subspace(6, 2, sampler)
        f = haar_subspace(6, 3, sampler)
        total = span_sum(e, f)
        assert total.dim == 5
        p = projector(total)
        assert np.allclose(p @ e.basis, e.basis, atol=1e-10)
        assert np.allclose(p @ f.basis, f.basis, atol=1e-10)


class TestAngles:
    def test_self_cosine(self, sampler):
        e = haar_subspace(5, 3, sampler)
        assert cos_angle(e, e) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_zero(self):
        e = coordinate_subspace(4, [0, 1])
        f = coordinate_subspace(4, [2])
        assert cos_angle(e, f) == 0.0

    def test_planar_closed_form(self):
        theta = math.pi / 3
        e = orthonormal_basis(np.array([[1.0], [0.0]]))
        f = orthonormal_basis(np.array([[math.cos(theta)], [math.sin(theta)]]))
        assert cos_angle(e, f) == pytest.approx(0.5, abs=1e-12)
        assert sin_angle(e, f) == pytest.approx(math.sqrt(3) / 2, abs=1e-12)

    def test_volume_ratio_definition(self, sampler):
        # cos(E, F) is the contraction factor of projection on polytopes in E.
        e = haar_subspace(5, 2, sampler)
        f = haar_subspace(5, 2, sampler)
        verts2 = haar_unit_vectors(2, 10, sampler)
        from valgeo.bodies import Polytope, hull_volume

        inside = Polytope(2, verts2)
        ambient = Polytope(5, verts2 @ e.basis.T)
        shadow = Polytope(2, ambient.vertices @ f.basis)
        ratio = hull_volume(shadow) / hull_volume(inside)
        assert ratio == pytest.approx(cos_angle(e, f), abs=1e-10)

    def test_symmetry_triple(self):
        s = SeededSampler(99)
        for t in range(100):
            n = 3 + t % 4
            e = haar_subspace(n, 1 + t % (n - 1), s)
            f = haar_subspace(n, 1 + (t // 3) % (n - 1), s)
            ce = cos_angle(e, f)
            assert abs(ce - cos_angle(f, e)) < 1e-10
            assert abs(ce - cos_angle(orthocomplement(e), orthocomplement(f))) < 1e-10
            se = sin_angle(e, f)
            assert abs(se - sin_angle(f, e)) < 1e-10
            assert abs(se - sin_angle(orthocomplement(e), orthocomplement(f))) < 1e-10
            assert 0.0 <= ce <= 1.0 and 0.0 <= se <= 1.0

    def test_sin_of_self_is_zero(self, sampler):
        e = haar_subspace(4, 2, sampler)
        assert sin_angle(e, e) == pytest.approx(0.0, abs=1e-12)

    def test_zero_subspace_convention(self):
        assert cos_angle(zero_subspace(3), coordinate_subspace(3, [0])) == 1.0


class TestConditionalSamplers:
    def test_containing_contains(self, sampler):
        h = haar_subspace(3, 1, sampler)
        for _ in range(10):
            r = sample_containing(h, 2, sampler)
            assert r.dim == 2
            assert np.allclose(projector(r) @ h.basis, h.basis, atol=1e-10)

    def test_containing_zero_is_haar(self):
        a = sample_containing(zero_subspace(4), 2, SeededSampler(3))
        b = haar_subspace(4, 2, SeededSampler(3))
        # Same distribution; both are orthonormalized Gaussians.
        assert a.dim == b.dim == 2

    def test_containing_bounds(self, sampler):
        h = haar_subspace(4, 2, sampler)
        with pytest.raises(DimensionError):
            sample_containing(h, 2, sampler)
        with pytest.raises(DimensionError):
            sample_containing(h, 5, sampler)

    def test_stabilizer_invariance_ks(self, rng):
        # Rotations fixing H leave the law of cos(sample, L) unchanged.
        n = 4
        h = coordinate_subspace(n, [0])
        g = np.eye(n)
        g[1:, 1:] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        l = haar_subspace(n, 2, SeededSampler(17))
        s = SeededSampler(18)
        plain, rotated = [], []
        for _ in range(2000):
            r1 = sample_containing(h, 2, s)
            r2 = sample_containing(h, 2, s)
            plain.append(cos_angle(r1, l))
            rotated.append(cos_angle(orthonormal_basis(g @ r2.basis), l))
        assert ks_2samp(plain, rotated).pvalue > 0.01

    def test_within_contained(self, sampler):
        h = haar_subspace(4, 3, sampler)
        r = sample_within(h, 1, sampler)
        assert cos_angle(r, h) == pytest.approx(1.0, abs=1e-10)

    def test_within_full_is_haar(self, sampler):
        r = sample_within(full_space(5), 2, sampler)
        assert r.dim == 2

    def test_within_beta_moment(self):
        # Inside a 3-space of R^4 the line-vs-line moment is again 1/3.
        s = SeededSampler(23)
        h = haar_subspace(4, 3, s)
        fixed = sample_within(h, 1, s)
        vals = np.array(
            [cos_angle(sample_within(h, 1, s), fixed) ** 2 for _ in range(20000)]
        )
        sigma = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1.0 / 3.0) < 4.0 * sigma


class TestEllipsoidImageVolume:
    def test_identity(self, sampler):
        l = haar_subspace(4, 2, sampler)
        assert ellipsoid_image_volume(np.eye(4), l) == pytest.approx(
            unit_ball_volume(2), rel=1e-12
        )

    def test_projection_gives_cosine(self, sampler):
        # Projecting the unit ball of L onto F contracts by cos(L, F).
        l = haar_subspace(5, 2, sampler)
        f = haar_subspace(5, 2, sampler)
        vol = ellipsoid_image_volume(f.basis.T, l)
        assert vol == pytest.approx(unit_ball_volume(2) * cos_angle(l, f), rel=1e-10)

    def test_diagonal_scaling(self):
        vol = ellipsoid_image_volume(np.diag([2.0, 3.0]), full_space(2))
        assert vol == pytest.approx(6.0 * math.pi, rel=1e-12)

    def test_rank_deficient_zero(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert ellipsoid_image_volume(a, full_space(2)) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_subspace_is_a_point(self, n):
        assert ellipsoid_image_volume(np.ones((2, n)), zero_subspace(n)) == 1.0

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_rows_of_map_ball_volume(self, d):
        s = SeededSampler(31)
        maps = s.standard_normal((40, 3, 5))
        bases = haar_bases_batch(5, d, 40, s)
        stacked = _map_ball_volume(maps[:, :d], bases, d)
        rows = [ellipsoid_image_volume(m[:d], Subspace(5, b)) for m, b in zip(maps, bases)]
        assert np.array_equal(stacked, rows)


class TestSeededSampler:
    def test_bit_identical_streams(self):
        a = SeededSampler(42, 3).standard_normal(16)
        b = SeededSampler(42, 3).standard_normal(16)
        assert np.array_equal(a, b)

    def test_substreams_independent_of_order(self):
        s1 = SeededSampler(1)
        s2 = SeededSampler(1)
        early = s1.substream(5).standard_normal(4)
        s2.substream(0).standard_normal(4)
        late = s2.substream(5).standard_normal(4)
        assert np.array_equal(early, late)

    def test_distinct_streams_differ(self):
        a = SeededSampler(42, 0).standard_normal(8)
        b = SeededSampler(42, 1).standard_normal(8)
        assert not np.array_equal(a, b)


class TestBatchHelpers:
    def test_batch_bases_are_orthonormal(self, sampler):
        bases = haar_bases_batch(5, 2, 64, sampler)
        grams = np.einsum("snk,snj->skj", bases, bases)
        assert np.abs(grams - np.eye(2)).max() < 1e-10

    def test_batch_matches_loop_distribution(self):
        n, k, trials = 4, 2, 4000
        axis = haar_subspace(n, k, SeededSampler(2))
        loop = []
        s = SeededSampler(3)
        for _ in range(trials):
            loop.append(cos_angle(haar_subspace(n, k, s), axis))
        batched = cos_angles_with_bases(axis.basis[None],
                                        haar_bases_batch(n, k, trials, SeededSampler(4)))[0]
        assert ks_2samp(loop, batched).pvalue > 0.01

    def test_cos_angles_with_bases_matches_scalar(self, sampler):
        l = haar_subspace(5, 2, sampler)
        bases = haar_bases_batch(5, 3, 32, sampler)
        (batch,) = cos_angles_with_bases(l.basis[None], bases)
        for t in range(32):
            assert batch[t] == pytest.approx(
                cos_angle(l, Subspace(5, bases[t])), abs=1e-11
            )

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3)])
    def test_cos_angles_with_bases_square_matches_scalar(self, sampler, n, k):
        # dim L = dim R: the cosine is |det| of the square product.
        l = haar_subspace(n, k, sampler)
        bases = haar_bases_batch(n, k, 64, sampler)
        (batch,) = cos_angles_with_bases(l.basis[None], bases)
        reference = [cos_angle(l, Subspace(n, b)) for b in bases]
        np.testing.assert_allclose(batch, reference, rtol=0, atol=1e-12)

    def test_orthogonal_unit_vectors(self, sampler):
        v = haar_unit_vectors(4, 128, sampler)
        w = unit_vectors_orthogonal_to(v, sampler)
        assert np.abs(np.einsum("ij,ij->i", v, w)).max() < 1e-10
        assert np.abs(np.linalg.norm(w, axis=1) - 1.0).max() < 1e-12


# The scalar arithmetic of the sign-fixed QR and the complement as it was
# before they became one-row calls into the stacked primitives, and the
# cosine's closed form written out for one matrix: a stack must round each
# row exactly as this does.
def reference_signed_qr(m):
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def reference_orthocomplement(basis):
    n, k = basis.shape
    if k == 0:
        return np.eye(n)
    if k == n:
        return np.zeros((n, 0))
    q, _ = np.linalg.qr(basis, mode="complete")
    comp = q[:, k:]
    signs = np.sign(comp[np.argmax(np.abs(comp), axis=0), np.arange(comp.shape[1])])
    signs[signs == 0] = 1.0
    return comp * signs


def reference_cos_angle(e, f):
    n = e.shape[0]
    if {e.shape[1], f.shape[1]} & {0, n}:
        return 1.0
    # The norm of the q x q minors of the p x q product, p >= q
    # (Cauchy-Binet), summed one minor at a time in lexicographic order.
    m = f.T @ e
    if m.shape[0] < m.shape[1]:
        m = m.T
    p, q = m.shape
    minors = []
    for rows in combinations(range(p), q):
        x = m[list(rows)]
        if q == 1:
            minors.append(x[0, 0])
        elif q == 2:
            minors.append(x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0])
        else:
            minors.append(np.linalg.det(x))
    if len(minors) == 1:
        return float(min(abs(minors[0]), 1.0))
    total = minors[0] * minors[0]
    for x in minors[1:]:
        total += x * x
    return float(min(math.sqrt(total), 1.0))


def reference_angle_laws(n, s):
    """The angles suite's law loop as it ran before it was batched: one trial
    at a time through the scalar samplers and functionals."""
    sym_dev = perp_dev = branch_dev = range_dev = 0.0
    for t in range(100):
        i = 1 + t % (n - 1)
        j = 1 + (t // 7) % (n - 1)
        e = haar_subspace(n, i, s)
        f = haar_subspace(n, j, s)
        ce, cf = cos_angle(e, f), cos_angle(f, e)
        cp = cos_angle(orthocomplement(e), orthocomplement(f))
        se, sf = sin_angle(e, f), sin_angle(f, e)
        sp = sin_angle(orthocomplement(e), orthocomplement(f))
        sym_dev = max(sym_dev, abs(ce - cf), abs(se - sf))
        perp_dev = max(perp_dev, abs(ce - cp), abs(se - sp))
        for val in (ce, cf, cp, se, sf, sp):
            range_dev = max(range_dev, -val, val - 1.0)
        if i == j:
            direct = float(np.prod(np.linalg.svd(f.basis.T @ e.basis, compute_uv=False)))
            branch_dev = max(branch_dev, abs(direct - cp))
    return float(sym_dev), float(perp_dev), float(branch_dev), float(range_dev)


class TestBatchedAngleLaws:
    @pytest.mark.parametrize("seed", [99, 1234, 3456993387, 2906882619])
    def test_equal_to_per_trial_loop(self, seed):
        # n = 17 is the smallest n with a dimension (k = 16) that has E rows
        # but no F rows (j <= 15 in 100 trials): its stack's F part is empty.
        for n in [*range(2, 8), *([17] if seed == 99 else [])]:
            batched = _angle_laws(n, SeededSampler(seed, stream_id=n))
            assert batched == reference_angle_laws(n, SeededSampler(seed, stream_id=n))

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("step", ["haar_frames", "_complement"])
    def test_every_chain_level_is_checked(self, monkeypatch, n, step):
        # The law loop builds 1 frame stack and 2 complement stacks (E^perp
        # with F^perp, and F^perp^perp) per dimension k in 1..n-1.  Whichever
        # one call returns a basis with a column 0.1% too long, the loop must
        # refuse it.
        real = getattr(suites, step)
        calls = n - 1 if step == "haar_frames" else 2 * (n - 1)
        for bad_call in range(calls):
            made = []

            def corrupt(bases):
                out = real(bases)
                if len(made) == bad_call:
                    out[:, :, -1] *= 1.001
                made.append(out)
                return out

            monkeypatch.setattr(suites, step, corrupt)
            with pytest.raises(ValueError):
                _angle_laws(n, SeededSampler(7, stream_id=n))
            assert len(made) == bad_call + 1
        made = []
        monkeypatch.setattr(suites, step, lambda bases: made.append(bases) or real(bases))
        _angle_laws(n, SeededSampler(7, stream_id=n))
        assert len(made) == calls

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_one_cosine_call_per_product_shape(self, monkeypatch, n):
        # Every product Q_Y^T Q_X is p x q with p, q in 1..n-1, and the law
        # loop pools the products of each shape into one call.
        shapes = []

        def counted(m):
            shapes.append(m.shape[1:])
            return cos_from_products(m)

        monkeypatch.setattr(suites, "cos_from_products", counted)
        _angle_laws(n, SeededSampler(1234, stream_id=n))
        assert len(shapes) <= (n - 1) ** 2
        assert len(set(shapes)) == len(shapes)


def _orthonormal_stack(rng, count, n, k):
    return signed_qr_batch(rng.standard_normal((count, n, k)))


class TestStackedPrimitives:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), count=st.integers(1, 5))
    def test_rows_equal_scalar_arithmetic(self, seed, n, count):
        rng = np.random.default_rng(seed)
        for ke in range(n + 1):
            g = rng.standard_normal((count, n, ke))
            e = signed_qr_batch(g)
            comp = _complement(e)
            assert comp.shape == (count, n, n - ke)
            for kf in range(n + 1):
                f = _orthonormal_stack(rng, count, n, kf)
                cos = _cos(e, f)
                for t in range(count):
                    assert cos[t] == reference_cos_angle(e[t], f[t])
                    assert cos[t] == cos_angle(Subspace(n, e[t]), Subspace(n, f[t]))
            for t in range(count):
                assert np.array_equal(e[t], reference_signed_qr(g[t]))
                assert np.array_equal(comp[t], reference_orthocomplement(e[t]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), count=st.integers(1, 5))
    def test_symmetry_complement_and_range_laws(self, seed, n, count):
        rng = np.random.default_rng(seed)
        for ke in range(n + 1):
            for kf in range(n + 1):
                e = _orthonormal_stack(rng, count, n, ke)
                f = _orthonormal_stack(rng, count, n, kf)
                oce, ocf = _complement(e), _complement(f)
                ce, cf = _cos(e, f), _cos(f, e)
                cp = _cos(oce, ocf)
                se, sf = _cos(e, ocf), _cos(f, oce)
                sp = _cos(oce, _complement(ocf))
                assert np.abs(ce - cf).max() <= 1e-10
                assert np.abs(se - sf).max() <= 1e-10
                assert np.abs(ce - cp).max() <= 1e-10
                assert np.abs(se - sp).max() <= 1e-10
                vals = np.concatenate([ce, cf, cp, se, sf, sp])
                assert vals.min() >= -1e-10 and vals.max() <= 1.0 + 1e-10

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), count=st.integers(1, 5),
           data=st.data())
    def test_non_orthonormal_row_raises(self, seed, n, count, data):
        k = data.draw(st.integers(1, n))
        bad_row = data.draw(st.integers(0, count - 1))
        rng = np.random.default_rng(seed)
        good = _orthonormal_stack(rng, count, n, k)
        zero = np.zeros((count, n, 0))
        V.claim23_sides(good, zero, good)
        bad = good.copy()
        bad[bad_row, :, k - 1] *= 1.001
        with pytest.raises(ValueError):
            cos_angle(Subspace(n, bad[bad_row]), Subspace(n, good[bad_row]))
        for stacks in ((bad, zero, good), (zero, bad, good), (good, zero, bad)):
            with pytest.raises(ValueError):
                V.claim23_sides(*stacks)

    def test_stack_shapes_are_checked(self):
        e = _orthonormal_stack(np.random.default_rng(0), 3, 4, 1)
        l = _orthonormal_stack(np.random.default_rng(1), 3, 4, 2)
        V.claim23_sides(e, e, l)
        with pytest.raises(DimensionError):
            V.claim23_sides(e, e[:2], l)
        with pytest.raises(DimensionError):
            V.claim23_sides(e, _orthonormal_stack(np.random.default_rng(1), 3, 5, 1), l)
        with pytest.raises(DimensionError):
            V.claim23_sides(e[0], e, l)
        with pytest.raises(DimensionError):
            cos_angle(Subspace(4, e[0]), Subspace(5, np.eye(5)[:, :1]))


def _assert_haar_frame_rows(q, g, ortho_tol):
    """Each row of q has orthonormal columns and Q^T g is upper triangular
    with a positive diagonal: q is the R-positive Q factor of g."""
    k = g.shape[2]
    gram = np.swapaxes(q, 1, 2) @ q
    assert np.abs(gram - np.eye(k)).max(initial=0.0) <= ortho_tol
    r = np.swapaxes(q, 1, 2) @ g
    scale = np.abs(g).max(axis=(1, 2), initial=1.0)[:, None, None]
    assert np.all(np.abs(np.tril(r, -1)) <= 1e-13 * scale)
    assert np.all(np.einsum("sii->si", r) > 0.0)


class TestHaarFrames:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), count=st.integers(1, 6))
    def test_rows_are_r_positive_q_factors(self, seed, n, count):
        rng = np.random.default_rng(seed)
        for k in range(n + 1):
            g = rng.standard_normal((count, n, k))
            q = haar_frames(g)
            assert q.shape == (count, n, k) and q.flags.c_contiguous
            for t in range(count):
                assert np.array_equal(haar_frames(g[t : t + 1])[0], q[t])
            _assert_haar_frame_rows(q, g, 1e-14)
            # Both are the R-positive Q factor, so they agree on draws that
            # are not ill-conditioned, up to rounding.
            cond = np.array([np.linalg.cond(x) if k else 1.0 for x in g])
            well = cond <= 100.0
            gap = np.abs(q[well] - signed_qr_batch(g[well]))
            assert gap.max(initial=0.0) <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), count=st.integers(1, 6),
           data=st.data())
    def test_orthonormal_with_nearly_parallel_columns(self, seed, n, count, data):
        k = data.draw(st.integers(2, n))  # includes square stacks
        a, b = sorted(data.draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2,
                                         unique=True)))
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((count, n, k))
        g[:, :, b] = g[:, :, a] + 1e-8 * rng.standard_normal((count, n))
        assume(np.linalg.cond(g).min() > 1e7)  # about 1 in 1000 2x2 draws is better conditioned
        q = haar_frames(g)
        _assert_haar_frame_rows(q, g, 1e-14)
        for t in range(count):
            assert np.array_equal(haar_frames(g[t : t + 1])[0], q[t])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_first_axis_weight_matches_exact_mean(self, n):
        # For a Haar k-frame F in R^n, |F^T e_1|^2 has mean k/n.
        for k in range(n + 1):
            f = haar_bases_batch(n, k, 20_000, SeededSampler(5150 + n, stream_id=k))
            est = mean_and_stderr(np.einsum("sk,sk->s", f[:, 0], f[:, 0]))
            # k = 0 and k = n are exact up to rounding: stderr is ~0 there.
            assert abs(est.value - k / n) <= 4.0 * est.stderr + 1e-14

    def test_stack_shape_is_checked(self):
        with pytest.raises(DimensionError):
            haar_frames(np.ones((3, 2)))
        with pytest.raises(DimensionError):
            haar_frames(np.ones((1, 2, 3)))

    def test_samplers_draw_through_haar_frames(self):
        g = SeededSampler(12, 3).standard_normal((1, 5, 2))
        assert np.array_equal(haar_subspace(5, 2, SeededSampler(12, 3)).basis,
                              haar_frames(g)[0])
        h = haar_subspace(5, 2, SeededSampler(13))
        inside = h.basis @ haar_frames(SeededSampler(14).standard_normal((1, 2, 1)))[0]
        assert np.array_equal(sample_within(h, 1, SeededSampler(14)).basis, inside)


class TestAbsDet:
    """|det(R^T L)| of square products as the Plucker product |P(R) . P(L)|
    (Cauchy-Binet): ad - bc minors for q = 2, LAPACK's for every other q."""

    @staticmethod
    def _check_against_lapack(r, l):
        # 32 eps (A_00 A_11 + A_01 A_10) with A = |R|^T |L| bounds both
        # LAPACK's error on det(R^T L) and the Plucker product's, whose
        # minors and sum stay below it in magnitude.
        a = np.swapaxes(np.abs(r), 1, 2) @ np.abs(l)
        bound = 32.0 * np.finfo(float).eps * (a[:, 0, 0] * a[:, 1, 1] + a[:, 0, 1] * a[:, 1, 0])
        plucker = np.abs(np.einsum("sc,sc->s", _plucker(r), _plucker(l)))
        lapack = np.abs(np.linalg.det(np.swapaxes(r, 1, 2) @ l))
        assert np.all(np.abs(plucker - lapack) <= bound)

    def test_random_stack(self, rng):
        self._check_against_lapack(*rng.standard_normal((2, 5000, 4, 2)))

    def test_near_singular_stack(self, rng):
        # R's two columns nearly agree, so every minor of R, and det(R^T L),
        # is about 1e-10 of its terms.
        r, l = rng.standard_normal((2, 5000, 4, 2))
        r[:, :, 1] = r[:, :, 0] + 1e-10 * rng.standard_normal((5000, 4))
        self._check_against_lapack(r, l)

    def test_integer_stack_is_exact(self, rng):
        # Every minor, product and sum of these integers stays below 2^53, so
        # the Plucker product is the exact determinant.  LAPACK's is not:
        # NumPy forms it as sign * exp(log|det|) from the LU factors.  So the
        # reference here is integer arithmetic, not np.linalg.det.
        r, l = rng.integers(-30, 31, size=(2, 500, 4, 2))
        m = np.swapaxes(r, 1, 2) @ l
        exact = np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        products = np.abs(_plucker(l.astype(float)) @ _plucker(r.astype(float)).T)
        assert np.array_equal(np.diagonal(products), exact.astype(float))

    def test_stacked_batch_shape(self, sampler):
        l = haar_bases_batch(5, 2, 3, sampler)
        assert _plucker(l).shape == (3, 10)
        assert cos_angles_with_bases(l, haar_bases_batch(5, 2, 4, sampler)).shape == (3, 4)
        assert cos_angles_with_bases(l, haar_bases_batch(5, 3, 4, sampler)).shape == (3, 4)
        assert np.array_equal(cos_angles_with_bases(np.zeros((3, 5, 0)), l), np.ones((3, 3)))

    @pytest.mark.parametrize("q", [1, 3])
    def test_other_sizes_take_lapack(self, monkeypatch, rng, q):
        x = rng.standard_normal((50, 4, q))
        rows = np.array(list(combinations(range(4), q)))
        expected = np.linalg.det(x[:, rows, :])
        calls = []
        lapack = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: (calls.append(a.shape), lapack(a))[1])
        assert np.array_equal(_plucker(x), expected)
        assert calls == [(50, math.comb(4, q), q, q)]
        _plucker(rng.standard_normal((50, 4, 2)))
        assert calls == [(50, math.comb(4, q), q, q)]


class TestPluckerCosines:
    """``cos_angles_with_bases`` on a stack of L: every (L, R) pair at once."""

    @pytest.mark.parametrize("n, q", [(n, q) for n in range(2, 7) for q in range(1, n + 1)])
    def test_matches_det_and_cos_angle(self, n, q):
        l = haar_bases_batch(n, q, 5, SeededSampler(90, n))
        r = haar_bases_batch(n, q, 40, SeededSampler(91, q))
        table = cos_angles_with_bases(l, r)
        dets = np.abs(np.linalg.det(np.swapaxes(r, 1, 2)[None] @ l[:, None]))
        scalar = [[cos_angle(Subspace(n, lt), Subspace(n, rs)) for rs in r] for lt in l]
        np.testing.assert_allclose(table, dets, rtol=0, atol=1e-13)
        np.testing.assert_allclose(table, scalar, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("n, q", [(4, 2), (5, 2), (5, 3), (6, 4)])
    def test_invariant_under_a_change_of_basis_within_l(self, n, q):
        l = haar_bases_batch(n, q, 5, SeededSampler(92))
        r = haar_bases_batch(n, q, 40, SeededSampler(93))
        # Rotations and reflections of each L's basis within L.
        turned = l @ haar_bases_batch(q, q, 5, SeededSampler(94))
        np.testing.assert_allclose(cos_angles_with_bases(turned, r),
                                   cos_angles_with_bases(l, r), rtol=0, atol=1e-13)

    def test_rejects_a_non_orthonormal_stack(self, sampler):
        l = 2.0 * haar_bases_batch(4, 2, 3, sampler)
        with pytest.raises(ValueError):
            cos_angles_with_bases(l, haar_bases_batch(4, 2, 8, sampler))


def _svd_cos(m):
    """The clipped product of the singular values of each matrix of m."""
    return np.minimum(np.prod(np.linalg.svd(m, compute_uv=False), axis=-1), 1.0)


class TestCosFromProducts:
    """The closed form from Cauchy-Binet minors against an SVD."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 64))
    def test_matches_singular_values_on_haar_stacks(self, seed, count):
        # Every (n, i, j) the suites can reach, F^T E of both shapes.
        s = SeededSampler(seed)
        for n in range(2, 8):
            for i in range(1, n):
                for j in range(1, n):
                    e, f = haar_bases_batch(n, i, count, s), haar_bases_batch(n, j, count, s)
                    m = np.swapaxes(f, 1, 2) @ e
                    np.testing.assert_allclose(cos_from_products(m), _svd_cos(m),
                                               rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_nested_and_orthogonal_subspaces(self, n):
        for j in range(1, n):
            frames = haar_bases_batch(n, n, 200, SeededSampler(n, j))
            f = frames[:, :, :j]
            for i in range(1, j + 1):
                turn = haar_bases_batch(i, i, 200, SeededSampler(n, 10 + i))
                inside = cos_from_products(np.swapaxes(f, 1, 2) @ (f[:, :, :i] @ turn))
                assert np.all(inside <= 1.0) and np.all(inside >= 1.0 - 1e-14)
            for i in range(1, n - j + 1):
                outside = cos_from_products(np.swapaxes(f, 1, 2) @ frames[:, :, j:j + i])
                assert np.all(outside <= 1e-14)

    @pytest.mark.parametrize("theta", [1e-8, 1e-12])
    def test_tilted_subspaces_keep_relative_accuracy(self, theta):
        # E is spanned by the first i columns of F, but its first column is
        # sin(theta) f_0 + cos(theta) g with g orthogonal to F, so cos(E, F)
        # is sin(theta).  Rounding in F^T E itself moves it from sin(theta)
        # by about 1e-16 absolute; on that one product the closed form and
        # the singular values agree to relative rounding.  LAPACK's singular
        # values of the wide transpose do not: they drift by up to 5e-8
        # relative at theta = 1e-12, so the wide form is held to the tall.
        for n in range(2, 8):
            for j in range(1, n):
                frames = haar_bases_batch(n, n, 200, SeededSampler(n, 20 + j))
                f = frames[:, :, :j]
                for i in range(1, j + 1):
                    e = frames[:, :, :i].copy()
                    e[:, :, 0] = np.sin(theta) * frames[:, :, 0] + np.cos(theta) * frames[:, :, j]
                    m = np.swapaxes(f, 1, 2) @ e
                    cos = cos_from_products(m)
                    np.testing.assert_allclose(cos, _svd_cos(m), rtol=1e-12, atol=0)
                    assert np.array_equal(cos_from_products(np.swapaxes(m, 1, 2)), cos)

    @pytest.mark.parametrize("p, q", [(1, 1), (2, 2), (3, 3), (3, 1), (1, 3), (4, 2), (5, 3)])
    def test_empty_stack_and_single_matrix(self, p, q):
        assert cos_from_products(np.zeros((0, p, q))).shape == (0,)
        m = np.swapaxes(haar_bases_batch(5, p, 3, SeededSampler(p)), 1, 2) @ \
            haar_bases_batch(5, q, 3, SeededSampler(q + 10))
        one = cos_from_products(m[1])
        assert np.ndim(one) == 0 and one == cos_from_products(m)[1]

    @pytest.mark.parametrize("n, q", [(n, q) for n in range(1, 8) for q in range(1, n + 1)])
    def test_subset_tables_are_cached_read_only(self, n, q):
        table = _subsets(n, q)
        assert table is _subsets(n, q)
        assert not table.flags.writeable
        assert table.T.tolist() == [list(c) for c in combinations(range(n), q)]
        if q == 2:
            assert np.array_equal(table, np.triu_indices(n, 1))
        with pytest.raises(ValueError):
            table[..., :1] = 0
