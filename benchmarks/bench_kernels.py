"""Benchmark the compiled min-norm-point kernel against the pure-NumPy twin.

The kernel dominates the Steiner / Lambda membership loops, which evaluate
hull distances for ~1e5 points per estimate.  Run:

    python benchmarks/bench_kernels.py [--points N]
"""

import argparse
import time

import numpy as np

from valgeo._kernels import BUILD_COMMAND, load_compiled, pywolfe

try:
    compiled = load_compiled()
except (OSError, AttributeError):
    compiled = None


def workloads(n_points: int, rng: np.random.Generator):
    cube = np.array(
        [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )
    rand4 = rng.normal(size=(16, 4))
    rand4 /= np.linalg.norm(rand4, axis=1, keepdims=True)
    simplex6 = np.vstack([np.zeros(6), np.eye(6)])
    yield "cube3 (8 verts)", cube, rng.uniform(-0.5, 1.5, size=(n_points, 3))
    yield "sphere-poly4 (16 verts)", rand4, rng.uniform(-1.2, 1.2, size=(n_points, 4))
    yield "simplex6 (7 verts)", simplex6, rng.uniform(-0.5, 1.2, size=(n_points, 6))


def run(n_points: int) -> None:
    rng = np.random.default_rng(0)
    backends = [("python", pywolfe.hull_distances)]
    if compiled is not None:
        backends.insert(0, ("c", compiled))
    print(f"{'workload':<26} {'backend':<8} {'time [s]':>9} {'points/s':>12} {'speedup':>8}")
    for name, verts, pts in workloads(n_points, rng):
        results = {}
        times = {}
        for bname, fn in backends:
            t0 = time.perf_counter()
            results[bname] = fn(pts, verts)
            times[bname] = time.perf_counter() - t0
        base = times["python"]
        for bname, _ in backends:
            speed = base / times[bname]
            print(
                f"{name:<26} {bname:<8} {times[bname]:>9.3f} "
                f"{n_points / times[bname]:>12.0f} {speed:>7.1f}x"
            )
        if compiled is not None:
            gap = float(np.abs(results["c"] - results["python"]).max())
            assert gap < 1e-9, f"backend disagreement {gap:.2e} on {name}"
    if compiled is None:
        print(f"\ncompiled kernel unavailable; build it with: {BUILD_COMMAND}")
    else:
        print("\nbackends agree to 1e-9 on every workload")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=20_000)
    args = parser.parse_args()
    run(args.points)
