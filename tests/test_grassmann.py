import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.stats import ks_2samp

from valgeo.base import mean_and_stderr, unit_ball_volume
from valgeo.errors import DimensionError, RankError
from valgeo.grassmann import (
    SeededSampler,
    Subspace,
    _abs_det,
    _map_ball_volume,
    coordinate_subspace,
    cos_angle,
    cos_angle_batch,
    cos_angles_with_bases,
    ellipsoid_image_volume,
    full_space,
    haar_bases_batch,
    haar_frames,
    haar_subspace,
    haar_unit_vectors,
    orthocomplement,
    orthocomplement_batch,
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


def projector_close(e, f, tol=1e-10):
    return np.allclose(e.projector(), f.projector(), atol=tol)


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
        assert np.abs(sub.projector() - oracle).max() < 1e-10

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
        p = total.projector()
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
            assert np.allclose(r.projector() @ h.basis, h.basis, atol=1e-10)

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
        batched = cos_angles_with_bases(axis, haar_bases_batch(n, k, trials, SeededSampler(4)))
        assert ks_2samp(loop, batched).pvalue > 0.01

    def test_cos_angles_with_bases_matches_scalar(self, sampler):
        l = haar_subspace(5, 2, sampler)
        bases = haar_bases_batch(5, 3, 32, sampler)
        batch = cos_angles_with_bases(l, bases)
        for t in range(32):
            assert batch[t] == pytest.approx(
                cos_angle(l, Subspace(5, bases[t])), abs=1e-11
            )

    @pytest.mark.parametrize("n, k", [(4, 2), (5, 3)])
    def test_cos_angles_with_bases_square_matches_scalar(self, sampler, n, k):
        # dim L = dim R: the cosine is |det| of the square product.
        l = haar_subspace(n, k, sampler)
        bases = haar_bases_batch(n, k, 64, sampler)
        batch = cos_angles_with_bases(l, bases)
        reference = [cos_angle(l, Subspace(n, b)) for b in bases]
        np.testing.assert_allclose(batch, reference, rtol=0, atol=1e-12)

    def test_orthogonal_unit_vectors(self, sampler):
        v = haar_unit_vectors(4, 128, sampler)
        w = unit_vectors_orthogonal_to(v, sampler)
        assert np.abs(np.einsum("ij,ij->i", v, w)).max() < 1e-10
        assert np.abs(np.linalg.norm(w, axis=1) - 1.0).max() < 1e-12


# The scalar arithmetic of the sign-fixed QR, the complement and the cosine as
# it was before they became one-row calls into the stacked primitives.
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
    if e.shape[1] == 0:
        return 1.0
    if e.shape[1] > f.shape[1]:
        return reference_cos_angle(reference_orthocomplement(e), reference_orthocomplement(f))
    if f.shape[1] == n:
        return 1.0
    sv = np.linalg.svd(f.T @ e, compute_uv=False)
    return float(np.prod(np.clip(sv, 0.0, 1.0)))


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
        for n in range(2, 8):
            batched = _angle_laws(n, SeededSampler(seed, stream_id=n))
            assert batched == reference_angle_laws(n, SeededSampler(seed, stream_id=n))


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
            comp = orthocomplement_batch(e)
            assert comp.shape == (count, n, n - ke)
            for kf in range(n + 1):
                f = _orthonormal_stack(rng, count, n, kf)
                cos = cos_angle_batch(e, f)
                for t in range(count):
                    assert cos[t] == reference_cos_angle(e[t], f[t])
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
                oce, ocf = orthocomplement_batch(e), orthocomplement_batch(f)
                ce, cf = cos_angle_batch(e, f), cos_angle_batch(f, e)
                cp = cos_angle_batch(oce, ocf)
                se, sf = cos_angle_batch(e, ocf), cos_angle_batch(f, oce)
                sp = cos_angle_batch(oce, orthocomplement_batch(ocf))
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
        bad = good.copy()
        bad[bad_row, :, k - 1] *= 1.001
        with pytest.raises(ValueError):
            orthocomplement_batch(bad)
        with pytest.raises(ValueError):
            cos_angle_batch(bad, good)
        with pytest.raises(ValueError):
            cos_angle_batch(good, bad)

    def test_stack_shapes_are_checked(self):
        e = _orthonormal_stack(np.random.default_rng(0), 3, 4, 2)
        with pytest.raises(DimensionError):
            cos_angle_batch(e, e[:2])
        with pytest.raises(DimensionError):
            cos_angle_batch(e, _orthonormal_stack(np.random.default_rng(1), 3, 5, 2))
        with pytest.raises(DimensionError):
            orthocomplement_batch(e[0])


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
    """``_abs_det`` is |ad - bc| on 2 x 2 stacks and LAPACK's |det| otherwise."""

    @staticmethod
    def _check_against_lapack(m):
        ad = m[..., 0, 0] * m[..., 1, 1]
        bc = m[..., 0, 1] * m[..., 1, 0]
        bound = 4.0 * np.finfo(float).eps * (np.abs(ad) + np.abs(bc))
        assert np.all(np.abs(_abs_det(m) - np.abs(np.linalg.det(m))) <= bound)

    def test_random_stack(self, rng):
        self._check_against_lapack(rng.standard_normal((5000, 2, 2)))

    def test_near_singular_stack(self, rng):
        u, v = rng.standard_normal((2, 5000, 2))
        m = u[:, :, None] * v[:, None, :] + 1e-10 * rng.standard_normal((5000, 2, 2))
        self._check_against_lapack(m)

    def test_integer_stack_is_exact(self, rng):
        # Products of integers below 2^26 are exact in double precision, so
        # ad - bc is the exact determinant.  LAPACK's is not: NumPy forms it
        # as sign * exp(log|det|) from the LU factors, which on these stacks
        # is off by up to 8.5 eps (|ad| + |bc|).  So the reference here is
        # integer arithmetic, not np.linalg.det.
        m = rng.integers(-1000, 1001, size=(5000, 2, 2))
        exact = np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
        assert np.array_equal(_abs_det(m.astype(float)), exact.astype(float))

    def test_stacked_batch_shape(self, rng):
        m = rng.standard_normal((3, 4, 2, 2))
        assert _abs_det(m).shape == (3, 4)

    @pytest.mark.parametrize("q", [1, 3])
    def test_other_sizes_take_lapack(self, monkeypatch, rng, q):
        m = rng.standard_normal((50, q, q))
        expected = np.abs(np.linalg.det(m))
        calls = []
        lapack = np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda a: (calls.append(a.shape), lapack(a))[1])
        assert np.array_equal(_abs_det(m), expected)
        assert calls == [(50, q, q)]
        _abs_det(rng.standard_normal((50, 2, 2)))
        assert calls == [(50, q, q)]
