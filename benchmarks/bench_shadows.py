"""Benchmark the three ways of measuring planar shadows on one Monte-Carlo chunk.

For each input it times per-sample Qhull, the batched gift-wrapping helper
``shadow_area_perimeter`` and, for full-dimensional bodies in R^3, Cauchy's
formula ``cauchy_shadow_volumes``, and prints the largest relative
disagreement with Qhull.  A final sweep over sphere clouds of growing size
locates the hull size above which gift wrapping loses to Qhull.  Cauchy's
formula stays an order of magnitude ahead of both at every size, which is why
``v1_power`` takes it for full-dimensional R^3 bodies.  The script exits with
an error if either batched path disagrees with Qhull by more than 1e-12
relative.

A last table times Cauchy's formula itself on the three clouds of the
``large-bodies`` workload (1000 Gaussian points, 150 on the sphere, 300
anisotropic, drawn at ``SEED``): the one-piece expression
``0.5 * (np.abs(dirs @ normals.T) @ areas)`` against ``cauchy_shadow_volumes``,
which evaluates it in cache-sized row blocks.  The script exits with an
error unless the two are bit-identical.  That holds under one BLAS thread;
with more, the one-piece product may be split between threads off the
8-row grid and move by an ulp, so run it with ``OPENBLAS_NUM_THREADS=1``:

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_shadows.py [--samples N]
"""

import argparse
import time

import numpy as np
from scipy.spatial import ConvexHull

from valgeo.base import MC_CHUNK
from valgeo.bodies import (
    Polytope,
    cauchy_shadow_volumes,
    make_cube,
    shadow_area_perimeter,
)
from valgeo.grassmann import SeededSampler, haar_bases_batch, haar_unit_vectors

TOL = 1e-12
REPEATS = 5  # Cauchy timings are the best of this many runs
SEED = 1234  # the suites' default seed


def sphere_cloud(rng: np.random.Generator, m: int) -> np.ndarray:
    pts = rng.standard_normal((m, 3))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def clouds() -> dict[str, np.ndarray]:
    """Three R^3 clouds: few extreme points among many, all extreme, and flat-ish."""
    rng = np.random.default_rng([SEED, 7])
    return {
        "gaussian": rng.standard_normal((1000, 3)),
        "sphere": sphere_cloud(rng, 150),
        "anisotropic": rng.standard_normal((300, 3)) * np.array([3.0, 1.0, 0.3]),
    }


def line_pairs(body: Polytope, c: int, s: SeededSampler):
    """Images of the body under c pairs of Haar lines, and the pairs' normals."""
    dirs = haar_unit_vectors(3, 2 * c, s).reshape(c, 2, 3)
    shadows = np.einsum("vn,spn->svp", body.vertices, dirs)
    return shadows, np.cross(dirs[:, 0], dirs[:, 1])


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def best_of(fn):
    """(result, best seconds) over ``REPEATS`` runs."""
    runs = [timed(fn) for _ in range(REPEATS)]
    return runs[0][0], min(t for _, t in runs)


def cauchy_blocks(c: int) -> None:
    """Time the one-piece and the row-blocked Cauchy formula on the large-bodies
    clouds; exit with an error unless they agree bit for bit."""
    s = SeededSampler(SEED, 2)
    print(f"\nCauchy's formula on {c} directions: one piece against row blocks (ms)")
    print(f"{'cloud':<12} {'facets':>6} {'one piece':>10} {'blocked':>9} {'speedup':>8}")
    for j, (name, pts) in enumerate(clouds().items()):
        body = Polytope(3, pts)
        normals, areas = body.faces.normals, body.faces.areas
        dirs = haar_unit_vectors(3, c, s.substream(j))
        ref, t_ref = best_of(lambda: 0.5 * (np.abs(dirs @ normals.T) @ areas))
        blocked, t_blocked = best_of(lambda: cauchy_shadow_volumes(body, dirs))
        print(f"{name:<12} {len(areas):>6} {1e3 * t_ref:>10.2f} {1e3 * t_blocked:>9.2f} "
              f"{t_ref / t_blocked:>7.1f}x")
        if not np.array_equal(blocked, ref):
            raise SystemExit(f"bench_shadows: row-blocked Cauchy differs from the one-piece "
                             f"expression on {name} (is BLAS running one thread?)")


def measure(body: Polytope, shadows: np.ndarray, normals: np.ndarray | None):
    """Seconds per path and the largest relative gap to Qhull."""
    ref, t_qhull = timed(lambda: np.array([ConvexHull(x).volume for x in shadows]))
    (batched, _), t_batched = timed(lambda: shadow_area_perimeter(shadows))
    gap = float(np.abs(batched / ref - 1.0).max())
    t_cauchy = None
    if normals is not None:
        # The first call on a body includes the Qhull call that builds its faces.
        cauchy, t_cauchy = timed(lambda: cauchy_shadow_volumes(body, normals))
        gap = max(gap, float(np.abs(cauchy / ref - 1.0).max()))
    if gap > TOL:
        raise SystemExit(f"bench_shadows: disagreement {gap:.1e} with Qhull exceeds {TOL:.0e}")
    return t_qhull, t_batched, t_cauchy, gap


def row(name: str, verts: int, t_qhull: float, t_batched: float, t_cauchy, gap: float) -> str:
    cauchy = f"{t_cauchy:>9.3f}" if t_cauchy is not None else f"{'-':>9}"
    return (f"{name:<28} {verts:>6} {t_qhull:>9.3f} {t_batched:>9.3f} {cauchy} "
            f"{t_qhull / t_batched:>7.1f}x {gap:>9.1e}")


def run(c: int) -> None:
    s = SeededSampler(SEED, 1)
    print(f"{c} shadows per input; seconds per chunk")
    print(f"{'input':<28} {'hull v':>6} {'qhull':>9} {'batched':>9} {'cauchy':>9} "
          f"{'batch/q':>8} {'max rel':>9}")
    cube4 = make_cube(4)
    bases = haar_bases_batch(4, 2, c, s.substream(0))
    print(row("cube4 2-planes", cube4.n_vertices,
              *measure(cube4, np.einsum("vn,snk->svk", cube4.vertices, bases), None)))
    cube3 = make_cube(3)
    print(row("cube3 line pairs", cube3.n_vertices,
              *measure(cube3, *line_pairs(cube3, c, s.substream(1)))))
    for j, (name, pts) in enumerate(clouds().items()):
        body = Polytope(3, pts)
        print(row(f"{name} line pairs", body.n_vertices,
                  *measure(body, *line_pairs(body, c, s.substream(2 + j)))))

    print("\ncrossover: sphere clouds, all points extreme")
    rng = np.random.default_rng([SEED, 8])
    crossover = None
    for m in (25, 50, 100, 200, 400):
        body = Polytope(3, sphere_cloud(rng, m))
        t_qhull, t_batched, t_cauchy, gap = measure(body, *line_pairs(body, c, s.substream(10 + m)))
        print(row(f"sphere{m} line pairs", body.n_vertices, t_qhull, t_batched, t_cauchy, gap))
        if crossover is None and t_batched > t_qhull:
            crossover = body.n_vertices
    if crossover is None:
        print("gift wrapping beat Qhull at every size")
    else:
        print(f"gift wrapping first loses to Qhull at {crossover} hull vertices")
    cauchy_blocks(c)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, default=MC_CHUNK, help="shadows per input")
    args = parser.parse_args()
    run(args.samples)
