"""Benchmark the spectral layer on one Monte-Carlo chunk: LAPACK and einsum
against closed forms and BLAS matmuls, and the harmonic monomial loop against
the shared power table; and claim23's random trials, per trial against stacked.

For each shape the lemma22, lemma24, kubota, lambda and lefschetz suites use,
it times one chunk three ways:

* |det| of a stack of 2 x 2 products by LAPACK (``np.linalg.det``) and by
  ``grassmann._abs_det`` (|ad - bc|);
* a contraction of a fixed matrix against a (count, n, k) stack by
  ``np.einsum`` and by the matmul the library now uses;
* ``HarmonicBasis.eval_points`` by the old per-monomial loop over ``x**p``
  (kept here as the reference) and by the library's power-table gather.

It also times the claim23 suite's 200 default trials (100 for each of n = 5
and 6) two ways: the per-trial loop of ``haar_subspace`` draws and scalar
angle functions (kept here as the reference), and the suite's grouped draw
through ``valuations.claim23_sides``.  Every trial's gap must agree exactly.

It prints the best time of a few repeats for each path and the largest
relative disagreement between the two, and exits with an error if any
exceeds 1e-12, or 0 for claim23.  Run:

    python benchmarks/bench_spectral.py [--samples N] [--repeats R] [--json FILE]

``--json FILE`` stores the results under "layers" in FILE, with the git
revision and the machine, keeping the file's other entries.
"""

import argparse
import json
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from valgeo._harmonics import even_harmonic_blocks
from valgeo.base import MC_CHUNK, unit_ball_volume
from valgeo.bodies import make_cube
from valgeo.grassmann import (
    SeededSampler,
    _abs_det,
    _map_ball_volume,
    _transposed_products,
    cos_angle,
    cos_angles_with_bases,
    haar_bases_batch,
    haar_subspace,
    haar_unit_vectors,
    sin_angle,
    span_sum,
)
from valgeo.suites import _claim23_gaps

TOL = 1e-12
SEED = 1234  # the suites' default seed, at which every BENCH_*.json row was recorded


def best_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def lapack_abs_det(m: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.det(m))


def loop_eval_points(basis, x: np.ndarray) -> np.ndarray:
    """``HarmonicBasis.eval_points`` as a Python loop over each block's
    monomials, with the powers taken as x**p."""
    out = []
    for block in basis.blocks:
        mono = np.ones((x.shape[0], len(block.exponents)))
        powers = np.stack([x**p for p in range(block.degree + 1)], axis=0)
        for t, e in enumerate(block.exponents):
            col = np.ones(x.shape[0])
            for i, p in enumerate(e):
                if p:
                    col = col * powers[p, :, i]
            mono[:, t] = col
        out.append(mono @ block.coefficients.T)
    return np.hstack(out)


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


def det_cases(c: int, s: SeededSampler):
    """(name, old, new, scale, tol) for the 2 x 2 products of lemma22 and lemma24:
    [E; F]^T L in R^4, with Haar lines E, F and a Haar plane L.  A row's
    disagreement is relative to its |ad| + |bc|."""
    l = haar_subspace(4, 2, s.substream(0)).basis
    stack = np.concatenate([np.swapaxes(haar_bases_batch(4, 1, c, s.substream(j)), 1, 2)
                            for j in (1, 2)], axis=1)
    m = (stack.reshape(2 * c, 4) @ l).reshape(c, 2, 2)
    scale = np.abs(m[:, 0, 0] * m[:, 1, 1]) + np.abs(m[:, 0, 1] * m[:, 1, 0])
    yield "2x2 |det|, R^4", lambda: lapack_abs_det(m), lambda: _abs_det(m), scale, TOL


def contraction_cases(c: int, s: SeededSampler):
    """(name, einsum path, matmul path, scale, tol) per contraction; None
    scales by the largest reference entry."""
    l = haar_subspace(4, 2, s.substream(3))
    r = haar_bases_batch(4, 2, c, s.substream(4))
    yield ("cos_angles_with_bases 2|2, R^4",
           lambda: np.abs(np.linalg.det(np.einsum("snk,nj->skj", r, l.basis))),
           lambda: cos_angles_with_bases(l, r), None, TOL)
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


def harmonic_cases(c: int, s: SeededSampler):
    for j, (n, d_max) in enumerate([(3, 8), (3, 12), (4, 8), (4, 12)]):
        basis = even_harmonic_blocks(n, d_max)
        x = haar_unit_vectors(n, c, s.substream(10 + j))
        yield (f"harmonics n={n} d_max={d_max} ({basis.size})",
               lambda b=basis, x=x: loop_eval_points(b, x),
               lambda b=basis, x=x: b.eval_points(x), None, TOL)


def claim23_cases():
    """The claim23 suite's default trials, per trial and stacked, at tolerance 0."""
    def gaps(path):
        return np.concatenate([path(n, 100, SeededSampler(SEED, stream_id=50 + n))
                               for n in (5, 6)])

    yield ("claim23 200 trials, n = 5, 6", lambda: gaps(loop_claim23_gaps),
           lambda: gaps(_claim23_gaps), None, 0.0)


def run(c: int, repeats: int) -> dict:
    s = SeededSampler(SEED, 1)
    print(f"{c} rows per chunk; best of {repeats}, milliseconds per chunk "
          "(per 200 trials for claim23)")
    print(f"{'case':<40} {'old':>9} {'new':>9} {'old/new':>8} {'max rel':>9}")
    rows, failed = [], []
    cases = [*det_cases(c, s), *contraction_cases(c, s), *harmonic_cases(c, s),
             *claim23_cases()]
    for name, old, new, scale, tol in cases:
        ref, out = old(), new()
        gap = float(np.max(np.abs(out - ref) / (np.abs(ref).max() if scale is None else scale)))
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


def machine() -> dict:
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True,
                             text=True, cwd=Path(__file__).resolve().parent).stdout.strip()
    except OSError:
        rev = ""
    return {"git": rev or "unknown", "machine": platform.machine(),
            "processor": platform.processor(), "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default")}


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
