"""Benchmark the three ways of measuring planar shadows on one Monte-Carlo chunk.

For each input it times per-sample Qhull, the edge test as
``shadow_measures(..., steiner=True)`` takes it (area and perimeter, as
lambda asks for them; the body's tables are built before timing) and, for
full-dimensional bodies in R^3, Cauchy's formula ``cauchy_shadow_volumes``,
and prints the largest disagreement with Qhull.  The inputs are
full-dimensional bodies in R^3 and R^4, a polygon in R^2 and two flat
bodies, which the edge test measures in coordinates of their affine hulls.
A thin image (two nearly parallel lines in the plane, a flat body seen
nearly edge-on) loses digits in both Qhull and the edge test, about
eps span^2 / area relative, with span the image's largest coordinate
extent.  So each gap is taken, as ``tests/test_bodies.py`` takes it,
relative to the larger of Qhull's value and span^2 for an area, or span for
a perimeter.  Cauchy's formula stays an order of magnitude ahead of the
others, which is why ``shadow_measures`` takes it for full-dimensional R^3
bodies when no perimeter is wanted.  The script exits with an error if the
edge test or Cauchy's formula disagrees with Qhull by more than 1e-12 so
measured, in area or, for the edge test, in perimeter, or if the edge test
hands a row on to Qhull.

A last table times Cauchy's formula itself, the best of ``--repeats`` runs,
on the three clouds of the ``large-bodies`` workload (1000 Gaussian points,
150 on the sphere, 300 anisotropic, drawn at ``SEED``): the one-piece expression
``0.5 * (np.abs(dirs @ normals.T) @ areas)`` against ``cauchy_shadow_volumes``,
which evaluates it in cache-sized row blocks.  The script exits with an
error unless the two are bit-identical.  That holds under one BLAS thread;
with more, the one-piece product may be split between threads off the
8-row grid and move by an ulp, so run it with ``OPENBLAS_NUM_THREADS=1``:

    OPENBLAS_NUM_THREADS=1 python benchmarks/bench_shadows.py [--samples N] [--repeats R]
"""

import argparse
import time

import numpy as np
from scipy.spatial import ConvexHull

from valgeo import trace
from valgeo.base import MC_CHUNK
from valgeo.bodies import Polytope, cauchy_shadow_volumes, make_cube, shadow_measures
from valgeo.grassmann import SeededSampler, haar_bases_batch, haar_unit_vectors

TOL = 1e-12
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


def line_pairs(n: int, c: int, s: SeededSampler):
    """c pairs of Haar lines in R^n as (n, 2) maps, and in R^3 the pairs' normals."""
    dirs = haar_unit_vectors(n, 2 * c, s).reshape(c, 2, n)
    return np.swapaxes(dirs, 1, 2), np.cross(dirs[:, 0], dirs[:, 1]) if n == 3 else None


def flat_bodies() -> dict[str, Polytope]:
    """A quadrilateral in R^3 and a Gaussian cloud in a hyperplane of R^4."""
    rng = np.random.default_rng([SEED, 9])
    rotation = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    return {
        "flat quad in R^3": Polytope(3, [[0, 0, 0], [2, 0, 0], [0, 1, 0], [1.5, 1.5, 0]]),
        "flat cloud in R^4": Polytope(4, rng.standard_normal((200, 3)) @ rotation[:3]),
    }


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def best_of(fn, repeats: int):
    """(result, best seconds) over ``repeats`` runs."""
    runs = [timed(fn) for _ in range(repeats)]
    return runs[0][0], min(t for _, t in runs)


def cauchy_blocks(c: int, repeats: int) -> None:
    """Time the one-piece and the row-blocked Cauchy formula on the large-bodies
    clouds; exit with an error unless they agree bit for bit."""
    s = SeededSampler(SEED, 2)
    print(f"\nCauchy's formula on {c} directions: one piece against row blocks (ms)")
    print(f"{'cloud':<12} {'facets':>6} {'one piece':>10} {'blocked':>9} {'speedup':>8}")
    for j, (name, pts) in enumerate(clouds().items()):
        body = Polytope(3, pts)
        normals, areas = body.faces.normals, body.faces.areas
        dirs = haar_unit_vectors(3, c, s.substream(j))
        ref, t_ref = best_of(lambda: 0.5 * (np.abs(dirs @ normals.T) @ areas), repeats)
        blocked, t_blocked = best_of(lambda: cauchy_shadow_volumes(body, dirs), repeats)
        print(f"{name:<12} {len(areas):>6} {1e3 * t_ref:>10.2f} {1e3 * t_blocked:>9.2f} "
              f"{t_ref / t_blocked:>7.1f}x")
        if not np.array_equal(blocked, ref):
            raise SystemExit(f"bench_shadows: row-blocked Cauchy differs from the one-piece "
                             f"expression on {name} (is BLAS running one thread?)")


def measure(body: Polytope, maps: np.ndarray, normals: np.ndarray | None):
    """Seconds per path and the largest gap to Qhull, relative to the larger
    of Qhull's value and the image's span^2 (area) or span (perimeter)."""
    hulls, t_qhull = timed(lambda: [ConvexHull(x) for x in body.vertices @ maps])
    ref = np.array([[h.volume, h.area] for h in hulls])
    span = np.ptp(body.vertices @ maps, axis=1).max(axis=1)
    scale = np.maximum(ref, np.column_stack([span**2, span]))
    shadow_measures(body, maps[:1], steiner=True)  # builds the body's faces and edge tables
    trace.reset()
    edges, t_edges = timed(lambda: shadow_measures(body, maps, steiner=True)[:, :2])
    if trace.counters["shadow_rows_edge_ties"]:
        raise SystemExit("bench_shadows: the edge test handed rows on to Qhull")
    gap = float((np.abs(edges - ref) / scale).max())
    t_cauchy = None
    if normals is not None:
        # The first call on a body includes the Qhull call that builds its faces.
        cauchy, t_cauchy = timed(lambda: cauchy_shadow_volumes(body, normals))
        gap = max(gap, float((np.abs(cauchy - ref[:, 0]) / scale[:, 0]).max()))
    if gap > TOL:
        raise SystemExit(f"bench_shadows: disagreement {gap:.1e} with Qhull exceeds {TOL:.0e}")
    return t_qhull, t_edges, t_cauchy, gap


def row(name: str, verts: int, t_qhull: float, t_edges: float, t_cauchy, gap: float) -> str:
    cauchy = f"{t_cauchy:>9.3f}" if t_cauchy is not None else f"{'-':>9}"
    return (f"{name:<28} {verts:>6} {t_qhull:>9.3f} {t_edges:>9.3f} {cauchy} "
            f"{t_qhull / t_edges:>7.1f}x {gap:>9.1e}")


def run(c: int, repeats: int) -> None:
    s = SeededSampler(SEED, 1)
    print(f"{c} shadows per input; seconds per chunk")
    print(f"{'input':<28} {'verts':>6} {'qhull':>9} {'edges':>9} {'cauchy':>9} "
          f"{'q/edges':>8} {'max gap':>9}")
    cube4 = make_cube(4)
    print(row("cube4 2-planes", cube4.n_vertices,
              *measure(cube4, haar_bases_batch(4, 2, c, s.substream(0)), None)))
    cube3 = make_cube(3)
    print(row("cube3 line pairs", cube3.n_vertices,
              *measure(cube3, *line_pairs(3, c, s.substream(1)))))
    for j, (name, pts) in enumerate(clouds().items()):
        body = Polytope(3, pts)
        print(row(f"{name} line pairs", body.n_vertices,
                  *measure(body, *line_pairs(3, c, s.substream(2 + j)))))
    polygon = Polytope(2, sphere_cloud(np.random.default_rng([SEED, 8]), 40)[:, :2])
    print(row("R^2 polygon line pairs", polygon.n_vertices,
              *measure(polygon, *line_pairs(2, c, s.substream(5)))))
    for j, (name, body) in enumerate(flat_bodies().items()):
        maps, _ = line_pairs(body.ambient_dim, c, s.substream(6 + j))
        print(row(f"{name} line pairs", body.n_vertices, *measure(body, maps, None)))
    cauchy_blocks(c, repeats)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, default=MC_CHUNK, help="shadows per input")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs of each Cauchy path; the best one counts")
    args = parser.parse_args()
    run(args.samples, args.repeats)
