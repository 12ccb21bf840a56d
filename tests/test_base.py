"""The Monte-Carlo chunk layout that every seeded estimator shares."""

from itertools import combinations

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from valgeo import bodies as B
from valgeo import transforms as T
from valgeo import valuations as V
from valgeo.base import (MC_CHUNK, Estimate, mc_chunks, mc_samples, mean_and_stderr,
                         unit_ball_volume)
from valgeo.grassmann import (
    SeededSampler,
    Subspace,
    cos_angle,
    cos_from_products,
    haar_bases_batch,
    haar_subspace,
    haar_unit_vectors,
    sample_containing,
    sample_within,
)

# Two full chunks and a ragged third: exercises the labels and the last slice.
BUDGET = 2 * 8192 + 7


def test_chunk_size_is_pinned():
    assert MC_CHUNK == 8192


@pytest.mark.parametrize("n", [0, 1, 8192, 8193, 3 * 8192 + 5])
def test_mc_chunks_layout(n):
    s = SeededSampler(5, stream_id=3)
    chunks = list(mc_chunks(n, s))
    assert len(chunks) == -(-n // 8192)
    start = 0
    for j, (rows, c, sub) in enumerate(chunks):
        assert rows == slice(start, start + c)
        assert c == 8192 or (j == len(chunks) - 1 and 1 <= c < 8192)
        # Chunk j is labelled j: it draws exactly what substream(j) draws.
        assert np.array_equal(sub.uniform(size=4), s.substream(j).uniform(size=4))
        start += c
    assert start == n


@pytest.mark.parametrize("n", [1, MC_CHUNK, 2 * MC_CHUNK + 5])
@pytest.mark.parametrize("row_shape", [(), (3,)])
def test_mc_samples_matches_hand_loop(n, row_shape):
    def draw(c, sub):
        return sub.standard_normal((c, *row_shape))

    s = SeededSampler(5, stream_id=3)
    want = np.empty((n, *row_shape))
    for rows, c, sub in mc_chunks(n, s):
        want[rows] = draw(c, sub)
    got = mc_samples(n, s, draw)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _old_lemma24_direct(f, i, k, l, n_samples, s):
    """The per-L chunk loop that ``lemma24_direct`` used to carry, with
    LAPACK's 2x2 determinants."""
    n = f.ambient_dim
    kappa_q = unit_ball_volume(k + i)
    c_nk = B.kubota_coefficient(n, k)
    vals = np.empty(n_samples)
    done = 0
    chunk_idx = 0
    while done < n_samples:
        c = min(8192, n_samples - done)
        sub = s.substream(chunk_idx)
        e_bases = haar_bases_batch(n, k, c, sub)
        f_bases = haar_bases_batch(n, i, c, sub)
        stack = np.concatenate(
            [np.swapaxes(e_bases, 1, 2), np.swapaxes(f_bases, 1, 2)], axis=1
        )
        dets = kappa_q * np.abs(np.linalg.det(stack @ l.basis))
        vals[done : done + c] = dets * f.eval_bases(f_bases)
        done += c
        chunk_idx += 1
    est = mean_and_stderr(vals)
    return Estimate(c_nk * est.value, c_nk * est.stderr)


def _minors(x):
    """The 2x2 minors of an (count, n, 2) stack, one row pair at a time."""
    pairs = list(combinations(range(x.shape[1]), 2))
    out = np.empty((len(x), len(pairs)))
    for col, (a, b) in enumerate(pairs):
        out[:, col] = x[:, a, 0] * x[:, b, 1] - x[:, a, 1] * x[:, b, 0]
    return out


def _cauchy_binet_profile(ls, n_samples, s, draw):
    """Per-L (mean, stderr) of w |det(R^T L)| written out: det(R^T L) as the
    sum over row pairs of the minors' products, in blocks of 2048 rows, with
    per-L sums of x and x^2."""
    pl = _minors(ls)
    total, total_sq = np.zeros(len(ls)), np.zeros(len(ls))
    for _, c, sub in _old_chunks(n_samples, s):
        r, w = draw(c, sub)
        pr = _minors(r)
        for start in range(0, c, 2048):
            x = np.abs(pl @ pr[start : start + 2048].T) * w[start : start + 2048]
            total += x.sum(axis=1)
            total_sq += (x * x).sum(axis=1)
    mean = total / n_samples
    return mean, np.sqrt((total_sq - total * mean) / (n_samples - 1) / n_samples)


def _old_kubota_cube4_v2(n_samples, s):
    """The hand-written chunk loop of the old Kubota estimator, k = 2 on the
    4-cube: (estimate, shadows, areas), with the areas from the estimator's
    own planar-shadow arithmetic."""
    cube = B.make_cube(4)
    shadows = np.empty((n_samples, cube.n_vertices, 2))
    vals = np.empty(n_samples)
    done = 0
    chunk_idx = 0
    while done < n_samples:
        c = min(8192, n_samples - done)
        bases = haar_bases_batch(4, 2, c, s.substream(chunk_idx))
        proj = np.einsum("vn,snk->svk", cube.vertices, bases)
        shadows[done : done + c] = proj
        vals[done : done + c] = B._edge_shadows(cube, bases, False)[0]
        done += c
        chunk_idx += 1
    est = mean_and_stderr(vals)
    coeff = B.kubota_coefficient(4, 2)
    return Estimate(coeff * est.value, coeff * est.stderr), shadows, vals


def test_batched_estimator_matches_old_loop():
    f = T.zonal_harmonic(4, 2, [1.0, 0.5, -0.25, 0.7])
    ls = haar_bases_batch(4, 2, 20, SeededSampler(71))
    value, stderr = V.lemma24_direct(f, 1, 1, ls, BUDGET, SeededSampler(171))

    def draw(c, sub):
        e_bases, f_bases = haar_bases_batch(4, 1, c, sub), haar_bases_batch(4, 1, c, sub)
        return np.concatenate([e_bases, f_bases], axis=2), f.eval_bases(f_bases)

    # The stacked arithmetic, bit for bit.
    mean, se = _cauchy_binet_profile(ls, BUDGET, SeededSampler(171), draw)
    scale = unit_ball_volume(2) * B.kubota_coefficient(4, 1)
    assert value.tolist() == (scale * mean).tolist()
    assert stderr.tolist() == (scale * se).tolist()
    # A one-row stack reads the per-L loop's draws, so it agrees to rounding.
    for l in ls[:4]:
        (one,), (one_se,) = V.lemma24_direct(f, 1, 1, l[None], BUDGET, SeededSampler(171))
        old = _old_lemma24_direct(f, 1, 1, Subspace(4, l), BUDGET, SeededSampler(171))
        assert one == pytest.approx(old.value, rel=1e-14, abs=0)
        assert one_se == pytest.approx(old.stderr, rel=1e-12, abs=0)


def test_per_sample_estimator_matches_old_loop(monkeypatch):
    new = B.kubota_estimate(B.make_cube(4), 2, BUDGET, SeededSampler(42))
    old, shadows, areas = _old_kubota_cube4_v2(BUDGET, SeededSampler(42))
    assert new == old
    samples = _samples(monkeypatch, B,
                       lambda: B.kubota_estimate(B.make_cube(4), 2, BUDGET, SeededSampler(42)))
    assert np.array_equal(samples, areas)
    # Every planar-shadow area agrees with Qhull's per sample.
    qhull = np.array([ConvexHull(x).volume for x in shadows])
    assert np.abs(areas / qhull - 1.0).max() <= 1e-12


# The per-sample loops that the batched transforms replaced.  Each batched
# estimator must read the same Gaussian stream as the per-sample samplers and
# give the same value on every sample.


def _old_chunks(n_samples, s):
    done = 0
    chunk_idx = 0
    while done < n_samples:
        c = min(8192, n_samples - done)
        yield slice(done, done + c), c, s.substream(chunk_idx)
        done += c
        chunk_idx += 1


def _old_cosine_apply_samples(f, e, n_samples, s):
    vals = np.empty(n_samples)
    for rows, c, sub in _old_chunks(n_samples, s):
        for t in range(c):
            fs = haar_subspace(f.ambient_dim, f.grass_dim, sub)
            vals[rows.start + t] = cos_angle(e, fs) * f(fs)
    return vals


def _old_radon_apply_samples(f, h, n_samples, s):
    draw = sample_containing if h.dim < f.grass_dim else sample_within
    vals = np.empty(n_samples)
    for rows, c, sub in _old_chunks(n_samples, s):
        vals[rows] = [f(draw(h, f.grass_dim, sub)) for _ in range(c)]
    return vals


def _old_multiply_by_intrinsic_at(f, i, k, l, n_samples, s):
    n, q = f.ambient_dim, k + i
    vals = np.empty(n_samples)
    for rows, c, sub in _old_chunks(n_samples, s):
        r_bases = haar_bases_batch(n, q, c, sub)
        w = haar_bases_batch(q, i, c, sub)
        fp = r_bases @ w
        cosines = np.abs(np.linalg.det(np.swapaxes(r_bases, 1, 2) @ l.basis))
        vals[rows] = cosines * f.eval_bases(fp)
    return float(vals.mean())


def _old_map_ball_volume(m, l, q):
    if q == 0:
        return 1.0
    if l.dim < q:
        return 0.0
    sv = np.linalg.svd(m @ l.basis, compute_uv=False)
    return float(unit_ball_volume(q) * np.prod(sv[:q]))


def _old_crofton_on_ball_samples(f, l, n_samples, s):
    n, i = f.ambient_dim, f.grass_dim
    vals = np.empty(n_samples)
    for rows, c, sub in _old_chunks(n_samples, s):
        bases = haar_bases_batch(n, i, c, sub)
        fvals = f.eval_bases(bases)
        vols = [_old_map_ball_volume(Subspace(n, b).basis.T, l, i) for b in bases]
        vals[rows] = fvals * vols
    return vals


def _old_v1_power_on_ball_samples(n, p, l, n_samples, s):
    vals = np.empty(n_samples)
    for rows, c, sub in _old_chunks(n_samples, s):
        dirs = haar_unit_vectors(n, c * p, sub).reshape(c, p, n)
        vals[rows] = [_old_map_ball_volume(dirs[t], l, p) for t in range(c)]
    return vals


def _samples(monkeypatch, module, call):
    """The per-sample values that ``call`` hands to ``module.mean_and_stderr``."""
    seen = []
    monkeypatch.setattr(module, "mean_and_stderr",
                        lambda vals: (seen.append(vals.copy()), mean_and_stderr(vals))[1])
    call()
    (vals,) = seen
    return vals


def _first_row_weight(n, i):
    """|P_F e_1|^2 on Gr_i(R^n): elementwise, so one row and a stack agree bit for bit."""
    return T.GFunction(n, i, lambda bases: (bases[:, 0, :] ** 2).sum(axis=-1))


@pytest.mark.parametrize("n, i, j", [(3, 1, 1), (4, 2, 2), (5, 3, 1)])
def test_cosine_apply_matches_old_loop(monkeypatch, n, i, j):
    f = _first_row_weight(n, i)
    e = haar_subspace(n, j, SeededSampler(64))
    new = _samples(monkeypatch, T, lambda: T.cosine_apply(f, j, e, BUDGET, SeededSampler(66)))
    assert np.array_equal(new, _old_cosine_apply_samples(f, e, BUDGET, SeededSampler(66)))


def test_cosine_apply_constant_matches_old_loop(monkeypatch):
    # The lemma22 suite's i = 0 reference.
    f = T.constant_gfunction(4, 2)
    e = haar_subspace(4, 2, SeededSampler(64))
    new = _samples(monkeypatch, T, lambda: T.cosine_apply(f, 2, e, BUDGET, SeededSampler(66)))
    assert np.array_equal(new, _old_cosine_apply_samples(f, e, BUDGET, SeededSampler(66)))


@pytest.mark.parametrize("n, i, j", [(3, 1, 2), (5, 2, 4)])
def test_radon_apply_within_matches_old_loop(monkeypatch, n, i, j):
    f = _first_row_weight(n, i)
    h = haar_subspace(n, j, SeededSampler(5))
    new = _samples(monkeypatch, T, lambda: T.radon_apply(f, j, h, BUDGET, SeededSampler(6)))
    assert np.array_equal(new, _old_radon_apply_samples(f, h, BUDGET, SeededSampler(6)))


@pytest.mark.parametrize("n, i, j", [(4, 2, 1), (4, 2, 0)])
def test_radon_apply_containing_matches_old_loop(monkeypatch, n, i, j):
    # The containing draw lifts its frame with an einsum; the old loop used a
    # matmul per sample, so the two agree to rounding, not bit for bit.
    f = _first_row_weight(n, i)
    h = haar_subspace(n, j, SeededSampler(5))
    new = _samples(monkeypatch, T, lambda: T.radon_apply(f, j, h, BUDGET, SeededSampler(6)))
    old = _old_radon_apply_samples(f, h, BUDGET, SeededSampler(6))
    np.testing.assert_allclose(new, old, rtol=0, atol=1e-14)


def test_multiply_by_intrinsic_stack_matches_rows_and_old_loop():
    zonal = T.zonal_harmonic(4, 2, [1.0, 0.5, -0.25, 0.7])
    f = T.GFunction(4, 1, lambda bases: 1.0 + 0.5 * zonal.evaluator(bases))
    g = V.multiply_by_intrinsic(f, 1, 1, BUDGET, SeededSampler(72))
    ls = [haar_subspace(4, 2, SeededSampler(73 + j)) for j in range(4)]
    stacked = g.eval_bases(np.stack([l.basis for l in ls]))

    def draw(c, sub):
        r_bases = haar_bases_batch(4, 2, c, sub)
        return r_bases, f.eval_bases(r_bases @ haar_bases_batch(2, 1, c, sub))

    mean, _ = _cauchy_binet_profile(np.stack([l.basis for l in ls]), BUDGET,
                                    SeededSampler(72), draw)
    assert stacked.tolist() == mean.tolist()
    # One-row calls take the product as a matrix-vector BLAS call, which may
    # round the last bit differently from the stack's matrix product.
    np.testing.assert_allclose(stacked, [g(l) for l in ls], rtol=1e-14, atol=0)
    old = [_old_multiply_by_intrinsic_at(f, 1, 1, l, BUDGET, SeededSampler(72)) for l in ls]
    np.testing.assert_allclose(stacked, old, rtol=1e-14, atol=0)


@pytest.mark.parametrize("n, i, ldim", [(3, 1, 2), (4, 2, 3)])
def test_crofton_on_ball_matches_old_loop(monkeypatch, n, i, ldim):
    f = _first_row_weight(n, i)
    ball = B.Ball(haar_subspace(n, ldim, SeededSampler(77)))
    new = _samples(monkeypatch, V,
                   lambda: V.evaluate(V.CroftonVal(f, i), ball, BUDGET, SeededSampler(78)))
    old = _old_crofton_on_ball_samples(f, ball.subspace, BUDGET, SeededSampler(78))
    assert np.array_equal(new, old)


@pytest.mark.parametrize("n, p, ldim", [(3, 1, 2), (3, 2, 3), (4, 2, 3)])
def test_v1_power_on_ball_matches_old_loop(monkeypatch, n, p, ldim):
    ball = B.Ball(haar_subspace(n, ldim, SeededSampler(79)))
    new = _samples(monkeypatch, V,
                   lambda: V.evaluate(V.v1_power(n, p), ball, BUDGET, SeededSampler(80)))
    old = _old_v1_power_on_ball_samples(n, p, ball.subspace, BUDGET, SeededSampler(80))
    assert np.array_equal(new, old)


def test_ball_branches_vanish_above_ball_dimension():
    ball = B.Ball(haar_subspace(4, 2, SeededSampler(79)))
    crofton = V.CroftonVal(_first_row_weight(4, 3), 3)
    assert V.evaluate(crofton, ball, 50, SeededSampler(78)) == (0, 0)
    assert V.evaluate(V.v1_power(4, 3), ball, 50, SeededSampler(80)) == (0, 0)


@pytest.mark.parametrize(
    "n, i, j", [(4, 1, 3), (5, 2, 3), (4, 2, 2), (5, 3, 3), (4, 3, 1), (5, 3, 2)]
)
def test_stacked_cosines_match_cos_angle(n, i, j):
    # j > i, j = i and j < i: one formula, the singular values of F^T E.
    e = haar_subspace(n, j, SeededSampler(81))
    bases = haar_bases_batch(n, i, 200, SeededSampler(82))
    stacked = cos_from_products(np.swapaxes(bases, 1, 2) @ e.basis)
    reference = [cos_angle(e, Subspace(n, b)) for b in bases]
    np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-12)
