"""Benchmark the spectral layer on one Monte-Carlo chunk: LAPACK and einsum
against closed forms and BLAS matmuls, and the Lefschetz operator's per-block
harmonic traces against its monomial moment matrix; and claim23's random
trials and the angles suite's laws, per trial against stacked.

For each shape the angles, claim23, lemma22, lemma24, kubota, lambda and
lefschetz suites use, it times one chunk four ways:

* the cosines of the lemma suites' 20 planes L against a chunk of planes R
  in R^4, by a per-L loop of 2 x 2 determinants |ad - bc| of R^T L and by
  ``grassmann.cos_angles_with_bases``'s one product of Plucker coordinates;
* |cos(E, F)| of a stack of products M = Q_F^T Q_E, for M of shape (2, 2),
  (3, 3), (4, 4), (3, 1), (4, 2), (5, 2) and (5, 3), by the clipped product
  of LAPACK's singular values (kept here as the reference) and by
  ``grassmann.cos_from_products``'s minors (Cauchy-Binet);
* |cos(E, F)| of a stack of pairs with dim E > dim F, for (n, dim E, dim F)
  in (3, 2, 1), (4, 3, 1), (4, 3, 2), (5, 3, 2), (5, 4, 1), (6, 4, 3) and
  (7, 5, 3), by the former route through both orthocomplements (kept here
  as the reference) and by ``grassmann._cos``'s minors of the wide product
  Q_F^T Q_E;
* a contraction of a fixed matrix against a (count, n, k) stack by
  ``np.einsum`` and by the matmul the library now uses;
* ``transforms.operator_matrix_even`` on one chunk, for (n, d_max) in
  (3, 8), (3, 12) and (4, 8): by the former algorithm (kept here as the
  reference), which evaluates every harmonic at both lines of each sample and
  takes each block's scalar as the mean over the block of the products, and
  by the library's, which accumulates one monomial moment matrix and takes
  the scalars from the addition theorem.  The matrix, the scalars and their
  standard errors are each compared.  Both paths build the harmonic basis,
  and their times include it.

It also times the claim23 suite's 200 default trials (100 for each of n = 5
and 6) two ways: the per-trial loop of ``haar_subspace`` draws and scalar
angle functions (kept here as the reference), and the suite's grouped draw
through ``valuations.claim23_sides``.  Every trial's gap must agree exactly.
And it times the angles suite's laws for n = 3..6, 100 trials each, by the
same kind of per-trial loop (kept here as the reference) and by
``suites._angle_laws``'s one stack per dimension.  All four deviations of
every n must agree exactly.

It prints the best time of a few repeats for each path and the largest
relative disagreement between the two (for the operator, the largest over
its three outputs; absolute for the cosines), and exits with an error if any
exceeds 1e-12, 1e-13 for the cosines, or 0 for claim23 and the angle laws.
Run:

    python benchmarks/bench_spectral.py [--samples N] [--repeats R] [--json FILE]

``--json FILE`` stores the results under "layers" in FILE, with the git
revision and the machine, keeping the file's other entries.
"""

import argparse
import json
from pathlib import Path

import numpy as np

from valgeo._harmonics import even_harmonic_blocks
from valgeo.base import MC_CHUNK, mc_chunks, unit_ball_volume
from valgeo.bodies import make_cube
from valgeo.grassmann import (
    SeededSampler,
    _complement,
    _cos,
    _map_ball_volume,
    _transposed_products,
    cos_angle,
    cos_angles_with_bases,
    cos_from_products,
    haar_bases_batch,
    haar_subspace,
    haar_unit_vectors,
    orthocomplement,
    sin_angle,
    span_sum,
    unit_vectors_orthogonal_to,
)
from valgeo.suites import _angle_laws, _claim23_gaps
from valgeo.transforms import operator_matrix_even

from _common import best_time, machine

TOL = 1e-12
SEED = 1234  # the suites' default seed, at which every BENCH_*.json row was recorded


def per_block_operator(n: int, d_max: int, n_samples: int,
                       s: SeededSampler) -> tuple[np.ndarray, ...]:
    """(matrix, scalars, standard errors) of ``operator_matrix_even`` by its
    former algorithm: both lines' harmonics evaluated block by block and
    stacked, and each block's scalar the mean over the block of the products,
    one fancy-indexed block at a time."""
    basis = even_harmonic_blocks(n, d_max)
    blocks = [np.nonzero(basis.degrees == b.degree)[0] for b in basis.blocks]
    m_sum = np.zeros((basis.size, basis.size))
    tr_sum, tr_sumsq = np.zeros((2, len(blocks)))
    for _, c, sub in mc_chunks(n_samples, s):
        w = haar_unit_vectors(n, c, sub)
        v = haar_unit_vectors(n, c, sub)
        lines = unit_vectors_orthogonal_to(v, sub)
        kern = np.abs(np.einsum("ij,ij->i", w, v))
        yw = np.hstack([b.eval_points(w) for b in basis.blocks])
        yl = np.hstack([b.eval_points(lines) for b in basis.blocks])
        m_sum += (yw * kern[:, None]).T @ yl
        for bi, idx in enumerate(blocks):
            z = kern * np.mean(yw[:, idx] * yl[:, idx], axis=1)
            tr_sum[bi] += z.sum()
            tr_sumsq[bi] += (z**2).sum()
    scalars = tr_sum / n_samples
    stderrs = np.sqrt(np.maximum(tr_sumsq / n_samples - scalars**2, 0.0) / n_samples)
    return m_sum / n_samples, scalars, stderrs


def library_operator(n: int, d_max: int, n_samples: int,
                     s: SeededSampler) -> tuple[np.ndarray, ...]:
    op = operator_matrix_even(n, d_max, n_samples, s)
    return op.matrix, op.block_scalars, op.block_scalar_stderrs


def loop_claim23_gaps(n: int, trials: int, s: SeededSampler) -> np.ndarray:
    """The claim23 suite's gaps |lhs - rhs| / kappa_q as a per-trial loop:
    three ``haar_subspace`` draws and both sides by the scalar functions."""
    gaps = np.empty(trials)
    for t in range(trials):
        i1 = 1 + t % 2
        i2 = 1 + (t // 2) % min(2, n - i1 - 1)
        e = haar_subspace(n, i1, s)
        f = haar_subspace(n, i2, s)
        l = haar_subspace(n, i1 + i2, s)
        lhs = float(_map_ball_volume(np.vstack([e.basis.T, f.basis.T]), l.basis, l.dim))
        rhs = unit_ball_volume(l.dim) * cos_angle(l, span_sum(e, f)) * sin_angle(e, f)
        gaps[t] = abs(lhs - rhs) / unit_ball_volume(i1 + i2)
    return gaps


def loop_angle_laws(n: int, s: SeededSampler) -> tuple[float, float, float, float]:
    """The angles suite's symmetry, complement, branch-agreement and range
    deviations as a per-trial loop: two ``haar_subspace`` draws and the
    scalar angle functions."""
    sym = perp = branch = beyond = 0.0
    for t in range(100):
        i = 1 + t % (n - 1)
        j = 1 + (t // 7) % (n - 1)
        e = haar_subspace(n, i, s)
        f = haar_subspace(n, j, s)
        ce, cf = cos_angle(e, f), cos_angle(f, e)
        cp = cos_angle(orthocomplement(e), orthocomplement(f))
        se, sf = sin_angle(e, f), sin_angle(f, e)
        sp = sin_angle(orthocomplement(e), orthocomplement(f))
        sym = max(sym, abs(ce - cf), abs(se - sf))
        perp = max(perp, abs(ce - cp), abs(se - sp))
        for val in (ce, cf, cp, se, sf, sp):
            beyond = max(beyond, -val, val - 1.0)
        if i == j:
            direct = float(np.prod(np.linalg.svd(f.basis.T @ e.basis, compute_uv=False)))
            branch = max(branch, abs(direct - cp))
    return sym, perp, branch, beyond


def per_l_abs_dets(ls: np.ndarray, r: np.ndarray) -> np.ndarray:
    """|det(R_s^T L_t)| for every L_t, one L at a time, as |ad - bc|."""
    out = np.empty((len(ls), len(r)))
    for t, l in enumerate(ls):
        m = _transposed_products(r, l)
        out[t] = np.abs(m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0])
    return out


def svd_cosines(m: np.ndarray) -> np.ndarray:
    """|cos(E, F)| of each M = Q_F^T Q_E: the product of M's singular values,
    clipped at 1."""
    return np.minimum(np.prod(np.linalg.svd(m, compute_uv=False), axis=-1), 1.0)


def cosine_cases(c: int, s: SeededSampler):
    """c products Q_F^T Q_E of Haar frames in R^(p + 1) per shape (p, q), by
    singular values and by minors, at tolerance 1e-13 absolute."""
    for sub, (p, q) in enumerate([(2, 2), (3, 3), (4, 4), (3, 1), (4, 2), (5, 2), (5, 3)]):
        f = haar_bases_batch(p + 1, p, c, s.substream(20 + sub))
        e = haar_bases_batch(p + 1, q, c, s.substream(30 + sub))
        m = np.swapaxes(f, 1, 2) @ e
        yield (f"cos_from_products {p}x{q}", lambda m=m: svd_cosines(m),
               lambda m=m: cos_from_products(m), 1.0, 1e-13)


def complement_cosines(e: np.ndarray, f: np.ndarray) -> np.ndarray:
    """|cos(E, F)| for dim E > dim F by the former route: the minors of
    Q_{F^perp}^T Q_{E^perp}, a tall product, on both orthocomplements."""
    return cos_from_products(np.swapaxes(_complement(f), 1, 2) @ _complement(e))


def wide_cosine_cases(c: int, s: SeededSampler):
    """c Haar pairs (E, F) in R^n with dim E > dim F per shape, through the
    orthocomplements and directly, at tolerance 1e-13 absolute."""
    shapes = [(3, 2, 1), (4, 3, 1), (4, 3, 2), (5, 3, 2), (5, 4, 1), (6, 4, 3), (7, 5, 3)]
    for sub, (n, i, j) in enumerate(shapes):
        e = haar_bases_batch(n, i, c, s.substream(40 + sub))
        f = haar_bases_batch(n, j, c, s.substream(50 + sub))
        yield (f"cos dim E {i} > dim F {j}, R^{n}", lambda e=e, f=f: complement_cosines(e, f),
               lambda e=e, f=f: _cos(e, f), 1.0, 1e-13)


def contraction_cases(c: int, s: SeededSampler):
    """(name, einsum path, matmul path, scale, tol) per contraction; None
    scales by the largest reference entry."""
    ls = haar_bases_batch(4, 2, 20, s.substream(3))
    r = haar_bases_batch(4, 2, c, s.substream(4))
    yield ("20 L cosines 2|2, R^4", lambda: per_l_abs_dets(ls, r),
           lambda: cos_angles_with_bases(ls, r), None, TOL)
    for name, cube, k, sub in (("cube4 2-planes", make_cube(4), 2, 5),
                               ("cube3 2-planes", make_cube(3), 2, 6)):
        bases = haar_bases_batch(cube.ambient_dim, k, c, s.substream(sub))
        yield (f"vertices @ bases, {name}",
               lambda v=cube.vertices, b=bases: np.einsum("vn,snk->svk", v, b),
               lambda v=cube.vertices, b=bases: v @ b, None, TOL)
    comp = haar_bases_batch(4, 3, 1, s.substream(7))[0]
    frames = haar_bases_batch(3, 1, c, s.substream(8))
    yield ("containing lift (4, 3) @ (3, 1)",
           lambda: np.einsum("nm,smk->snk", comp, frames),
           lambda: np.swapaxes(_transposed_products(frames, comp.T), 1, 2), None, TOL)


def operator_cases(c: int):
    """The Lefschetz operator on one chunk of c samples, former against
    library, both from the suite's stream."""
    for n, d_max in [(3, 8), (3, 12), (4, 8)]:
        yield (f"operator n={n} d_max={d_max}",
               lambda n=n, d=d_max: per_block_operator(n, d, c, SeededSampler(SEED, 80)),
               lambda n=n, d=d_max: library_operator(n, d, c, SeededSampler(SEED, 80)),
               None, TOL)


def claim23_cases():
    """The claim23 suite's default trials, per trial and stacked, at tolerance 0."""
    def gaps(path):
        return np.concatenate([path(n, 100, SeededSampler(SEED, stream_id=50 + n))
                               for n in (5, 6)])

    yield ("claim23 200 trials, n = 5, 6", lambda: gaps(loop_claim23_gaps),
           lambda: gaps(_claim23_gaps), None, 0.0)


def angle_law_cases():
    """The angles suite's laws for n = 3..6, per trial and stacked, at tolerance 0."""
    def laws(path):
        return np.array([path(n, SeededSampler(SEED, stream_id=n)) for n in range(3, 7)])

    yield ("angle laws 100 trials, n = 3..6", lambda: laws(loop_angle_laws),
           lambda: laws(_angle_laws), 1.0, 0.0)


def run(c: int, repeats: int) -> dict:
    s = SeededSampler(SEED, 1)
    print(f"{c} rows per chunk; best of {repeats}, milliseconds per chunk "
          "(per 200 trials for claim23, per 400 for the angle laws)")
    print(f"{'case':<40} {'old':>9} {'new':>9} {'old/new':>8} {'max rel':>9}")
    rows, failed = [], []
    cases = [*contraction_cases(c, s), *cosine_cases(c, s), *wide_cosine_cases(c, s),
             *operator_cases(c),
             *claim23_cases(), *angle_law_cases()]
    for name, old, new, scale, tol in cases:
        refs, outs = old(), new()
        if not isinstance(refs, tuple):
            refs, outs = (refs,), (outs,)
        gap = max(float(np.max(np.abs(out - ref) / (np.abs(ref).max() if scale is None else scale)))
                  for ref, out in zip(refs, outs))
        t_old, t_new = best_time(old, repeats), best_time(new, repeats)
        print(f"{name:<40} {t_old * 1e3:>9.3f} {t_new * 1e3:>9.3f} {t_old / t_new:>7.1f}x "
              f"{gap:>9.1e}")
        rows.append({"case": name, "old_ms": round(t_old * 1e3, 3),
                     "new_ms": round(t_new * 1e3, 3), "max_rel": float(f"{gap:.2e}")})
        if not gap <= tol:
            failed.append(f"{name}: {gap:.1e} > {tol:.0e}")
    if failed:
        raise SystemExit("bench_spectral: disagreement " + "; ".join(failed))
    return {"rows_per_chunk": c, "seed": SEED, "repeats": repeats, "cases": rows}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, default=MC_CHUNK, help="rows per chunk")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per path")
    parser.add_argument("--json", type=Path, help="store the results in this file")
    args = parser.parse_args()
    result = run(args.samples, args.repeats)
    if args.json:
        record = json.loads(args.json.read_text()) if args.json.exists() else {}
        record["layers"] = {**machine(), **result}
        args.json.write_text(json.dumps(record, indent=2) + "\n")
