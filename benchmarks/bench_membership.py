"""Benchmark hull membership on one Monte-Carlo chunk: Wolfe on every point
against the certified helper.

For each body whose membership the suites count, it draws one chunk of points
from the box the suite samples and decides dist(x, P) <= t for the suite's
thresholds twice: with ``hull_distances`` (the pure-NumPy Wolfe kernel) on
every point, and with ``bodies._within``, which brackets each distance from
P's facets and edges (exactly in R^2 and R^3) and sends only the points it
cannot decide, plus a 1-in-64 audit sample, to
``hull_distances``.  It prints the best time of a few repeats for each, the
speedup and the certified fraction, and exits with an error if the two
membership matrices differ anywhere.  Run:

    python benchmarks/bench_membership.py [--samples N] [--repeats R] [--json FILE]

``--json FILE`` writes the results to FILE, with the git revision and the
machine.
"""

import argparse
import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import qmc

from valgeo import bodies as B, trace
from valgeo.base import MC_CHUNK
from valgeo.grassmann import SeededSampler, orthonormal_basis, coordinate_subspace

from _common import best_time, machine

SEED = 1234  # the suites' default seed, at which every BENCH_*.json row was recorded


def hadwiger_cube4() -> B.Polytope:
    """The R^4 cube the hadwiger suite embeds: coordinates in two rotated planes."""
    c4 = B.make_cube(4)
    f1, f2 = coordinate_subspace(4, [0, 1]), coordinate_subspace(4, [2, 3])
    rot_mat, rot2 = np.eye(4), np.eye(4)
    c, s = math.cos(0.5), math.sin(0.5)
    rot_mat[1, 1], rot_mat[1, 2], rot_mat[2, 1], rot_mat[2, 2] = c, -s, s, c
    c, s = math.cos(0.3), math.sin(0.3)
    rot2[0, 0], rot2[0, 3], rot2[3, 0], rot2[3, 3] = c, -s, s, c
    rot = orthonormal_basis(rot2 @ rot_mat @ f2.basis)
    return B.Polytope(4, np.hstack([c4.vertices @ f1.basis, c4.vertices @ rot.basis]))


def cases():
    """(name, body, thresholds, sampling box lower corner, box widths)."""
    contains = [("angles polygon", B.make_random_polytope(2, 12, SeededSampler(SEED, 1))),
                ("hadwiger cube4", hadwiger_cube4())]
    for name, p in contains:
        lo, hi = p.bounding_box()
        yield name, p, np.array([1e-9 * B._hull_scale(p)]), lo, hi - lo
    parallel = [("steiner square", B.make_cube(2)), ("steiner simplex2", B.make_simplex(2)),
                ("steiner cube3", B.make_cube(3)), ("steiner simplex3", B.make_simplex(3)),
                ("steiner random3", B.make_random_polytope(3, 14, SeededSampler(SEED, 31)))]
    for name, p in parallel:
        grid = B.default_epsilon_grid(p, p.ambient_dim + 4, span=0.8)  # the steiner suite's radii
        lo, hi = p.bounding_box()
        yield name, p, grid, lo - grid.max(), hi - lo + 2.0 * grid.max()


def run(c: int, repeats: int) -> dict:
    print(f"{c} points per body; best of {repeats}, milliseconds per chunk")
    print(f"{'body':<18} {'facets':>6} {'edges':>5} {'wolfe':>9} {'certified':>9} "
          f"{'speedup':>7} {'certified share':>15}")
    rows, disagreements = [], 0
    for j, (name, p, t, lo, widths) in enumerate(cases()):
        engine = qmc.Sobol(d=p.ambient_dim, scramble=True, seed=SeededSampler(SEED, j).rng)
        pts = lo + engine.random(c) * widths
        faces = p.faces
        wolfe = B.hull_distances(pts, p.vertices)[None] <= t[:, None]
        trace.reset()
        certified = B._within(p, pts, t)
        share = 1.0 - trace.counters["sent_to_wolfe"] / c
        disagreements += int(np.count_nonzero(certified != wolfe))
        t_wolfe = best_time(lambda: B.hull_distances(pts, p.vertices)[None] <= t[:, None],
                            repeats)
        t_cert = best_time(lambda: B._within(p, pts, t), repeats)
        edges = p.edges.shape[0]
        print(f"{name:<18} {faces.a.shape[0]:>6} {edges:>5} {t_wolfe * 1e3:>9.2f} "
              f"{t_cert * 1e3:>9.2f} {t_wolfe / t_cert:>6.1f}x {share:>15.3f}")
        rows.append({"body": name, "facets": int(faces.a.shape[0]), "edges": edges,
                     "thresholds": int(t.size), "wolfe_ms": round(t_wolfe * 1e3, 3),
                     "certified_ms": round(t_cert * 1e3, 3),
                     "certified_share": round(share, 4)})
    if disagreements:
        raise SystemExit(f"bench_membership: {disagreements} membership entries differ "
                         f"from Wolfe's")
    return {"points": c, "seed": SEED, "repeats": repeats, "bodies": rows}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, default=MC_CHUNK, help="points per body")
    parser.add_argument("--repeats", type=int, default=7, help="timed runs per path")
    parser.add_argument("--json", type=Path, help="store the results in this file")
    args = parser.parse_args()
    result = run(args.samples, args.repeats)
    if args.json:
        args.json.write_text(json.dumps({**machine(), **result}, indent=2) + "\n")
