"""Workload definitions and seeded input generation.

A workload is a fixed list of (suite, Monte-Carlo budget) pairs, run back to
back by one client.  ``None`` keeps the suite's default budget.  Reduced
budgets are the largest at which a pass still fits a run with the pure-NumPy
kernel and every pinned tolerance still holds with margin across seeds (see
README.md for the measurements behind each choice).
"""

from __future__ import annotations

import json
from pathlib import Path

WORKLOADS: dict[str, list[tuple[str, int | None]]] = {
    # Haar sampling, angle functionals and transforms; no hulls and no
    # kernel, so it is the control for hull and kernel changes.
    "spectral": [("claim23", None), ("lemma22", 12_500), ("lemma24", 12_500)],
    # Per-sample 2-D Qhull calls on small projected bodies; no kernel.
    "shadows": [("kubota", 25_000)],
    # Membership tests through the Wolfe min-norm-point kernel.
    "membership": [("angles", 4_096)],
    # Polytope construction from large clouds and shadows of bodies with
    # 3-30x more vertices than the built-in test bodies.
    "large-bodies": [("hadwiger", 32_768)],
}

# Seeds per pass.  Where a suite's work depends on its seed (the random
# polygons of angles, the samples of lemma22), a pass runs it for several
# seeds drawn from the benchmark seed, so that one seed's luck does not set
# the workload's time.
SEEDS_PER_PASS = {"spectral": 3, "shadows": 1, "membership": 3, "large-bodies": 1}

# Acceptance-gate wall bounds (tests/test_acceptance.py).  They hold at the
# default budget, so headroom is reported only for suites run at it.
GATE_BOUNDS_S = {"angles": 10.0, "claim23": 5.0, "kubota": 120.0, "steiner": 180.0}


def large_bodies(seed: int):
    """Three R^3 point clouds drawn from ``seed``.

    A Gaussian cloud (few extreme points among many), points on the sphere
    (all extreme), and an anisotropic Gaussian cloud.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    gauss = rng.standard_normal((1000, 3))
    sphere = rng.standard_normal((150, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    aniso = rng.standard_normal((300, 3)) * np.array([3.0, 1.0, 0.3])
    return {"gaussian": gauss, "sphere": sphere, "anisotropic": aniso}


def run_seeds(workload: str, seed: int) -> list[int]:
    """The suite seeds of one pass: the benchmark seed first, then seeds
    derived from it."""
    import numpy as np

    extra = np.random.SeedSequence([seed, 11]).generate_state(SEEDS_PER_PASS[workload] - 1)
    return [seed] + [int(s) for s in extra]


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files; return the pass's (suite seed,
    RunConfig extras) cases and a summary of the inputs."""
    seeds = run_seeds(workload, seed)
    if workload != "large-bodies":
        return {"cases": [(s, {}) for s in seeds], "summary": {}}
    from scipy.spatial import ConvexHull

    out_dir.mkdir(parents=True, exist_ok=True)
    cases, summary = [], {}
    for s in seeds:
        clouds = large_bodies(s)
        path = out_dir / f"bodies-seed{s}.json"
        payload = [{"ambient_dim": 3, "vertices": pts.tolist()} for pts in clouds.values()]
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)
        cases.append((s, {"bodies_file": str(path)}))
        for name, pts in clouds.items():
            summary[f"{name}@{s}"] = {"raw_points": len(pts),
                                      "hull_vertices": len(ConvexHull(pts).vertices)}
    return {"cases": cases, "summary": summary}
