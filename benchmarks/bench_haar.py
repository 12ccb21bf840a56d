"""Benchmark Haar frames on one Monte-Carlo chunk: batched LAPACK QR against
vectorised Gram-Schmidt.

For each (n, k) shape the suites draw, it orthonormalises one chunk of
Gaussian n x k matrices twice, with the sign-fixed QR ``signed_qr_batch`` and
with ``haar_frames``, and prints the best time of a few repeats for each, the
largest entrywise disagreement between the two frames and the largest
orthonormality defect |F^T F - I| of the Gram-Schmidt frames.  Both must stay
at or below 1e-12, or the script exits with an error.  Run:

    python benchmarks/bench_haar.py [--samples N] [--repeats R]
"""

import argparse
import time

import numpy as np

from valgeo.base import MC_CHUNK
from valgeo.grassmann import SeededSampler, haar_frames, signed_qr_batch

SHAPES = [(2, 1), (3, 1), (4, 1), (4, 2), (4, 3), (5, 2), (6, 3)]
TOL = 1e-12
SEED = 1234  # the suites' default seed


def best_time(fn, g: np.ndarray, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(g)
        times.append(time.perf_counter() - t0)
    return min(times)


def run(c: int, repeats: int) -> None:
    s = SeededSampler(SEED, 1)
    print(f"{c} frames per shape; best of {repeats}, milliseconds per chunk")
    print(f"{'(n, k)':<8} {'qr':>9} {'gs':>9} {'qr/gs':>7} {'max diff':>9} {'ortho':>9}")
    worst = 0.0
    for j, (n, k) in enumerate(SHAPES):
        g = s.substream(j).standard_normal((c, n, k))
        frames = haar_frames(g)
        diff = float(np.abs(frames - signed_qr_batch(g)).max())
        ortho = float(np.abs(np.swapaxes(frames, 1, 2) @ frames - np.eye(k)).max())
        t_qr = best_time(signed_qr_batch, g, repeats)
        t_gs = best_time(haar_frames, g, repeats)
        print(f"{str((n, k)):<8} {t_qr * 1e3:>9.3f} {t_gs * 1e3:>9.3f} {t_qr / t_gs:>6.1f}x "
              f"{diff:>9.1e} {ortho:>9.1e}")
        worst = max(worst, diff, ortho)
    if worst > TOL:
        raise SystemExit(f"bench_haar: disagreement or defect {worst:.1e} exceeds {TOL:.0e}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, default=MC_CHUNK, help="frames per shape")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per path")
    args = parser.parse_args()
    run(args.samples, args.repeats)
