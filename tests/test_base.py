"""The Monte-Carlo chunk layout that every seeded estimator shares."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from valgeo import bodies as B
from valgeo import transforms as T
from valgeo import valuations as V
from valgeo.base import MC_CHUNK, Estimate, mc_chunks, mean_and_stderr, unit_ball_volume
from valgeo.grassmann import SeededSampler, haar_bases_batch, haar_subspace

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


def _old_lemma24_direct(f, i, k, l, n_samples, s):
    """The hand-written chunk loop that ``lemma24_direct`` used to carry."""
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


def _old_kubota_cube4_v2(n_samples, s):
    """The per-sample hull loop of the old Kubota estimator, k = 2 on the 4-cube."""
    cube = B.make_cube(4)
    vals = np.empty(n_samples)
    done = 0
    chunk_idx = 0
    while done < n_samples:
        c = min(8192, n_samples - done)
        bases = haar_bases_batch(4, 2, c, s.substream(chunk_idx))
        proj = np.einsum("vn,snk->svk", cube.vertices, bases)
        for t in range(c):
            vals[done + t] = ConvexHull(proj[t]).volume
        done += c
        chunk_idx += 1
    est = mean_and_stderr(vals)
    coeff = B.kubota_coefficient(4, 2)
    return Estimate(coeff * est.value, coeff * est.stderr)


def test_batched_estimator_matches_old_loop():
    f = T.zonal_harmonic(4, 2, [1.0, 0.5, -0.25, 0.7])
    l = haar_subspace(4, 2, SeededSampler(71))
    new = V.lemma24_direct(f, 1, 1, l, BUDGET, SeededSampler(171))
    assert new == _old_lemma24_direct(f, 1, 1, l, BUDGET, SeededSampler(171))


def test_per_sample_estimator_matches_old_loop():
    new = B.kubota_estimate(B.make_cube(4), 2, BUDGET, SeededSampler(42))
    assert new == _old_kubota_cube4_v2(BUDGET, SeededSampler(42))
