"""Named verification suites behind the CLI.

Each suite runs a fixed set of seeded checks and returns a ``SuiteReport``
whose serialized form is byte-identical across reruns with the same
configuration (wall time is kept in memory only, never written).
"""

from __future__ import annotations

import json
import math
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import bodies as B
from . import transforms as T
from . import valuations as V
from .base import MC_CHUNK, unit_ball_volume
from .errors import PolynomialFitError
from .grassmann import (
    SeededSampler,
    Subspace,
    _check_orthonormal,
    _complement,
    coordinate_subspace,
    cos_angle,
    cos_from_products,
    haar_frames,
    haar_subspace,
    orthocomplement,
    orthonormal_basis,
    span_sum,
    zero_subspace,
)

SUITE_NAMES = (
    "angles",
    "kubota",
    "steiner",
    "claim23",
    "lemma22",
    "lemma24",
    "lefschetz",
    "hadwiger",
    "lambda",
)

_DEFAULT_SAMPLES = {
    "angles": 10_000,
    "kubota": 100_000,
    "steiner": 262_144,
    "claim23": 100,
    "lemma22": 100_000,
    "lemma24": 100_000,
    "lefschetz": 1_000_000,
    "hadwiger": 100_000,
    "lambda": 131_072,
}

# The acceptance tolerance of every check, by the name that ``tol.<name>``
# overrides.
_TOLERANCES = {
    "angle_laws": 1e-10, "angle_mc": 0.01, "kubota": 0.02, "steiner": 0.02,
    "segment_derivative": 1e-6, "claim23": 1e-9, "lemma22": 0.03, "lemma24": 0.03,
    "leakage": 1e-2, "funk_hecke": 1e-6, "hadwiger": 0.03, "product_mc": 0.02,
    "lambda": 0.03,
}

# Only these suites read --dim; the others run in fixed dimensions.
_DEFAULT_DIMENSIONS = {
    "angles": [3, 4, 5, 6],
    "claim23": [5, 6],
    "lefschetz": [3],
}


@dataclass
class RunConfig:
    """Seed, budgets and output options shared by every suite."""

    seed: int = 1234
    samples: int | None = None
    dimensions: list[int] | None = None
    dmax: int = 8
    tolerances: dict[str, float] = field(default_factory=dict)
    out_dir: str | None = None
    fmt: str = "json"
    bodies_file: str | None = None

    def budget(self, suite: str) -> int:
        return self.samples if self.samples is not None else _DEFAULT_SAMPLES[suite]

    def dims(self, suite: str) -> list[int]:
        if self.dimensions:
            return self.dimensions
        return _DEFAULT_DIMENSIONS.get(suite, [3])

    def tol(self, name: str) -> float:
        return float(self.tolerances.get(name, _TOLERANCES[name]))


def load_config_file(path: str) -> dict:
    """Parse the flat ``key = value`` config format (# starts a comment)."""
    out: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = value
    return out


_CONFIG_KEYS = ("seed", "samples", "dim", "dmax", "out", "format", "bodies")


def config_from_sources(file_values: dict | None = None, **cli_values) -> RunConfig:
    """Build a RunConfig with CLI flags taking precedence over file values.

    A key outside ``_CONFIG_KEYS`` and ``tol.<name>``, or a ``<name>`` outside
    ``_TOLERANCES``, raises ValueError.
    """
    cfg = RunConfig()
    merged: dict = {}
    tolerances: dict[str, float] = {}
    for source in (file_values or {}), cli_values:
        for key, value in source.items():
            if value is None:
                continue
            if key.startswith("tol."):
                if key[4:] not in _TOLERANCES:
                    raise ValueError(f"unknown tolerance {key!r}; known names are "
                                     f"{', '.join(_TOLERANCES)}")
                tolerances[key[4:]] = float(value)
            elif key in _CONFIG_KEYS:
                merged[key] = value
            else:
                raise ValueError(f"unknown config key {key!r}; known keys are "
                                 f"{', '.join(_CONFIG_KEYS)} and tol.<name>")
    if "seed" in merged:
        cfg.seed = int(merged["seed"])
    if "samples" in merged:
        cfg.samples = int(merged["samples"])
    if "dmax" in merged:
        cfg.dmax = int(merged["dmax"])
    if "dim" in merged:
        value = merged["dim"]
        if isinstance(value, str):
            cfg.dimensions = [int(x) for x in value.replace(",", " ").split()]
        elif isinstance(value, (list, tuple)):
            cfg.dimensions = [int(x) for x in value]
        else:
            cfg.dimensions = [int(value)]
    if "out" in merged:
        cfg.out_dir = str(merged["out"])
    if "format" in merged:
        fmt = str(merged["format"]).lower()
        if fmt not in ("json", "csv"):
            raise ValueError(f"format must be json or csv, got {fmt!r}")
        cfg.fmt = fmt
    if "bodies" in merged:
        cfg.bodies_file = str(merged["bodies"])
    cfg.tolerances = tolerances
    if cfg.samples is not None and cfg.samples < 1:
        raise ValueError("samples must be >= 1")
    if any(t <= 0 for t in cfg.tolerances.values()):
        raise ValueError("tolerances must be positive")
    return cfg


@dataclass
class SuiteReport:
    """Per-check records plus seed echo; passing means every record passes."""

    suite: str
    seed: int
    records: list[dict]
    extras: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r["pass"] for r in self.records)

    def to_json(self) -> str:
        # Wall time is volatile and deliberately excluded so that reruns with
        # the same seed are byte-identical.  Strict JSON has no NaN: a check
        # that could not be computed reads "observed": null.
        records = [{**r, "observed": r["observed"] if math.isfinite(r["observed"]) else None}
                   for r in self.records]
        payload = {
            "suite": self.suite,
            "seed": self.seed,
            "passed": self.passed,
            "records": records,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def to_csv(self) -> str:
        # csv quotes the names that hold a comma, such as funk-hecke(3,0).  Its
        # modules load here, in the one method that needs them, not on import.
        import csv
        import io

        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["name", "expected", "observed", "tolerance", "pass"])
        writer.writerows([r["name"], r["expected"], r["observed"], r["tolerance"], int(r["pass"])]
                         for r in self.records)
        return out.getvalue()


def _record(name: str, expected: float, observed: float, tolerance: float,
            passed: bool) -> dict:
    return {
        "name": name,
        "expected": float(expected),
        "observed": float(observed),
        "tolerance": float(tolerance),
        "pass": bool(passed),
    }


def check_abs(name: str, observed: float, expected: float, tol: float) -> dict:
    return _record(name, expected, observed, tol, abs(observed - expected) <= tol)


def check_rel(name: str, observed: float, expected: float, rtol: float) -> dict:
    return _record(name, expected, observed, rtol,
                   abs(observed - expected) <= rtol * abs(expected))


def check_le(name: str, observed: float, bound: float) -> dict:
    return _record(name, bound, observed, bound, observed <= bound)


def check_true(name: str, flag: bool) -> dict:
    return _record(name, 1.0, float(bool(flag)), 0.0, bool(flag))


# ---------------------------------------------------------------------------
# Suite implementations
# ---------------------------------------------------------------------------


def _angle_laws(n: int, s: SeededSampler) -> tuple[float, float, float, float]:
    """Worst symmetry, complement, branch-agreement and range deviations of
    cos and sin over 100 trials of Haar pairs (E, F) in R^n.

    Trial t draws E in Gr_i then F in Gr_j, with i = 1 + t mod (n-1) and
    j = 1 + (t div 7) mod (n-1), from the Gaussian stream that per-trial
    ``haar_subspace`` calls read.  The trials are drawn in one call.  Each
    dimension k has one stack: the E with i = k ordered by j, then the F with
    j = k ordered by i, in trial order within each, so that every (i, j)
    group is one slice of stack i and one of stack j.  A stack takes one
    ``haar_frames`` call, one ``_complement`` of the whole stack (E^perp and
    F^perp) and one of its F part (F^perp^perp, because sin(E^perp, F^perp)
    = cos(E^perp, F^perp^perp)), and each level is checked for
    orthonormality once.  The six products Q_Y^T Q_X of every group are
    pooled by their shape as formed, and each shape's pool takes one
    ``cos_from_products`` call.  Frames, complements and cosines round each
    row as they would alone, so every cosine equals ``cos_angle`` on the
    same trial bit for bit.
    """
    t = np.arange(100)
    i = 1 + t % (n - 1)
    j = 1 + (t // 7) % (n - 1)
    ends = np.cumsum(n * (i + j))
    g = s.standard_normal(int(ends[-1]))
    starts = ends - n * (i + j)
    count = np.zeros((n, n), dtype=int)
    np.add.at(count, (i, j), 1)
    by_e, by_f = np.lexsort((j, i)), np.lexsort((i, j))
    # Group (a, b) starts at at_e[a, b] in stack a and at_f[a, b] in stack b,
    # whose first n_e[b] rows are its E.
    n_e = count.sum(axis=1)
    at_e = np.cumsum(count, axis=1) - count
    at_f = n_e + np.cumsum(count, axis=0) - count

    # Every level has a dimension in 1..n-1, so no cosine is the exact 1
    # that ``_cos`` returns when either space is 0 or all of R^n.
    stacks = {}
    for k in range(1, n):
        rows_e, rows_f = by_e[i[by_e] == k], by_f[j[by_f] == k]
        offsets = np.concatenate([starts[rows_e], starts[rows_f] + n * i[rows_f]])
        frames = haar_frames(g[offsets[:, None] + np.arange(n * k)].reshape(-1, n, k))
        _check_orthonormal(frames)
        perps = _complement(frames)
        _check_orthonormal(perps)
        backs = _complement(perps[n_e[k]:])
        _check_orthonormal(backs)
        stacks[k] = frames, perps, backs

    # Row r of vals holds, in by_e's trial order, cos(E, F), cos(F, E),
    # cos(E^perp, F^perp), sin(E, F), sin(F, E) and sin(E^perp, F^perp).
    pools, squares, lo = {}, [], 0
    for a, b in zip(*np.nonzero(count)):
        c, ea, fb = count[a, b], at_e[a, b], at_f[a, b]
        (e0, e1, _), (f0, f1, f2) = stacks[a], stacks[b]
        e0, e1 = e0[ea:ea + c], e1[ea:ea + c]
        f0, f1, f2 = f0[fb:fb + c], f1[fb:fb + c], f2[fb - n_e[b]:fb - n_e[b] + c]
        pairs = ((e0, f0), (f0, e0), (e1, f1), (e0, f1), (f0, e1), (e1, f2))
        for r, (x, y) in enumerate(pairs):
            m = np.swapaxes(y, 1, 2) @ x
            pools.setdefault(m.shape[1:], []).append((m, r, lo))
            if a == b and r == 0:
                squares.append((m, lo))
        lo += c
    vals = np.empty((6, len(t)))
    for pool in pools.values():
        cosines, done = cos_from_products(np.concatenate([m for m, _, _ in pool])), 0
        for m, r, at in pool:
            vals[r, at:at + len(m)] = cosines[done:done + len(m)]
            done += len(m)

    ce, cf, cp, se, sf, sp = vals
    sym = max(np.abs(ce - cf).max(), np.abs(se - sf).max())
    perp = max(np.abs(ce - cp).max(), np.abs(se - sp).max())
    beyond = max(0.0, (-vals).max(), (vals - 1.0).max())
    branch = 0.0
    for m, at in squares:
        sv = np.linalg.svd(m, compute_uv=False)
        branch = max(branch, np.abs(np.prod(sv, axis=-1) - cp[at:at + len(m)]).max())
    return float(sym), float(perp), float(branch), float(beyond)


def _angles_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    tol = cfg.tol("angle_laws")
    mc_tol = cfg.tol("angle_mc")
    for n in cfg.dims("angles"):
        laws = _angle_laws(n, SeededSampler(cfg.seed, stream_id=n))
        for law, dev in zip(("symmetry", "complement", "branch-agreement", "range"), laws):
            records.append(check_abs(f"angles/n={n}/{law}", dev, 0.0, tol))
        # Volume-ratio definition vs the singular-value product, Monte-Carlo.
        sm = SeededSampler(cfg.seed, stream_id=1000 + n)
        e = haar_subspace(n, 2, sm)
        f = haar_subspace(n, 2, sm)
        body2 = B.make_random_polytope(2, 12, sm)
        amb = B.Polytope(n, body2.vertices @ e.basis.T)
        shadow = B.Polytope(2, amb.vertices @ f.basis)
        vol_a = B.mc_hull_volume(body2, cfg.budget("angles"), sm.substream(1), method="qmc")
        vol_p = B.mc_hull_volume(shadow, cfg.budget("angles"), sm.substream(2), method="qmc")
        ratio = vol_p.value / vol_a.value
        records.append(
            check_abs(f"angles/n={n}/mc-volume-ratio", ratio, cos_angle(e, f), mc_tol)
        )
    return records, {}


def _kubota_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    n_samples = cfg.budget("kubota")
    rtol = cfg.tol("kubota")
    cases = [(3, B.make_cube(3), (1, 2)), (4, B.make_cube(4), (1, 2, 3))]
    for n, cube, ks in cases:
        oracle = B.box_intrinsic_volumes([1.0] * n)
        for k in ks:
            est = B.kubota_estimate(cube, k, n_samples, SeededSampler(cfg.seed, 10 * n + k))
            records.append(
                check_rel(f"kubota/cube{n}/V{k}", est.value, oracle[k], rtol)
            )
        ball_oracle = B.ball_intrinsic_volumes(n)
        full = B.Ball(Subspace(n, np.eye(n)))
        for k in range(1, n):
            est = B.kubota_estimate(full, k, 128, SeededSampler(cfg.seed, 100 * n + k))
            records.append(
                check_rel(f"kubota/ball{n}/V{k}", est.value, ball_oracle[k], rtol)
            )
    # A flat disk: nontrivial variance, intrinsic oracle independent of ambient.
    l = haar_subspace(4, 2, SeededSampler(cfg.seed, 777))
    est = B.kubota_estimate(B.Ball(l), 1, n_samples, SeededSampler(cfg.seed, 778))
    records.append(check_rel("kubota/flat-disk-R4/V1", est.value, math.pi, rtol))
    # Convergence: standard error should halve per 4x samples.
    stderrs = []
    for idx, m in enumerate((n_samples // 16, n_samples // 4, n_samples)):
        est = B.kubota_estimate(B.make_cube(3), 1, max(m, 64), SeededSampler(cfg.seed, 900 + idx))
        stderrs.append(est.stderr)
    for a, b, label in ((0, 1, "16th-to-4th"), (1, 2, "4th-to-full")):
        ratio = stderrs[a] / stderrs[b]
        records.append(
            _record(f"kubota/convergence/{label}", 2.0, ratio, 0.75, abs(ratio - 2.0) <= 0.75)
        )
    extras = {
        "convergence": {
            "columns": ["samples", "stderr"],
            "rows": [
                [n_samples // 16, stderrs[0]],
                [n_samples // 4, stderrs[1]],
                [n_samples, stderrs[2]],
            ],
        }
    }
    return records, extras


def _steiner_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    n_samples = cfg.budget("steiner")
    rtol = cfg.tol("steiner")
    exact_tol = cfg.tol("segment_derivative")
    # The R^3 bodies are shared by all three case lists, so each is
    # hull-reduced and gets its face record once.
    cube3, simplex3 = B.make_cube(3), B.make_simplex(3)
    bodies = [
        ("square", B.make_cube(2)),
        ("simplex2", B.make_simplex(2)),
        ("cube3", cube3),
        ("simplex3", simplex3),
    ]
    plot_rows = []
    for idx, (name, p) in enumerate(bodies):
        n = p.ambient_dim
        oracle = B.polytope_intrinsic_volumes(p)
        sp = B.steiner_fit(p, n_samples, SeededSampler(cfg.seed, 20 + idx))
        for j in range(n + 1):
            expected = unit_ball_volume(n - j) * oracle[j]
            observed = sp.coefficients[n - j]
            records.append(check_rel(f"steiner/{name}/coeff-V{j}", observed, expected, rtol))
            plot_rows.append([name, j, observed, expected])
    # Segment-derivative law: both sides exact polytope volumes.
    deriv_bodies = [
        ("cube3", cube3, 3),
        ("simplex3", simplex3, 3),
        ("random3", B.make_random_polytope(3, 14, SeededSampler(cfg.seed, 31)), 3),
        ("cube4", B.make_cube(4), 4),
    ]
    for name, p, n in deriv_bodies:
        u = np.zeros(n)
        u[-1] = 1.0
        h = coordinate_subspace(n, range(n - 1))
        lhs = B.hull_volume(B.minkowski_segment(p, u, 1.0)) - B.hull_volume(p)
        rhs = B.hull_volume(B.project(p, h))
        records.append(check_abs(f"steiner/derivative/{name}", lhs, rhs, exact_tol))
        # Rotated direction.
        rng = SeededSampler(cfg.seed, 41).rng
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        h = orthocomplement(orthonormal_basis(u.reshape(n, 1)))
        lhs = B.hull_volume(B.minkowski_segment(p, u, 1.0)) - B.hull_volume(p)
        rhs = B.hull_volume(B.project(p, h))
        records.append(check_abs(f"steiner/derivative-rotated/{name}", lhs, rhs, exact_tol))
    # Iterated version with two orthogonal segments.
    for name, p in (("cube3", cube3), ("simplex3", simplex3)):
        e1, e2 = np.eye(3)[0], np.eye(3)[1]
        v = B.hull_volume
        p10 = B.minkowski_segment(p, e1, 1.0)
        p01 = B.minkowski_segment(p, e2, 1.0)
        p11 = B.minkowski_segment(p10, e2, 1.0)
        mixed = v(p11) - v(p10) - v(p01) + v(p)
        rhs = B.hull_volume(B.project(p, coordinate_subspace(3, [2])))
        records.append(check_abs(f"steiner/derivative-iterated/{name}", mixed, rhs, exact_tol))
    extras = {
        "steiner_coefficients": {
            "columns": ["body", "degree", "observed", "expected"],
            "rows": plot_rows,
        }
    }
    return records, extras


def _claim23_gaps(n: int, trials: int, s: SeededSampler) -> np.ndarray:
    """|lhs - rhs| / kappa_q of Claim 2.3 for each of ``trials`` Haar triples
    (E, F, L) in R^n.

    Trial t draws E in Gr_i1, F in Gr_i2 and L in Gr_q, q = i1 + i2, with
    i1 = 1 + t mod 2 and i2 = 1 + (t div 2) mod min(2, n - i1 - 1), from the
    Gaussian stream that per-trial ``haar_subspace`` calls read.  Each chunk
    of trials is drawn in one call and evaluated in stacks, one per (i1, i2).
    """
    gaps = np.empty(trials)
    for first in range(0, trials, MC_CHUNK):
        t = np.arange(first, min(first + MC_CHUNK, trials))
        i1 = 1 + t % 2
        i2 = 1 + (t // 2) % np.minimum(2, n - i1 - 1)
        ends = np.cumsum(2 * n * (i1 + i2))
        g = s.standard_normal(int(ends[-1]))
        starts = ends - 2 * n * (i1 + i2)
        for a, b in sorted(set(zip(i1.tolist(), i2.tolist()))):
            q = a + b
            rows = (i1 == a) & (i2 == b)
            block = g[starts[rows, None] + np.arange(2 * n * q)]
            e = haar_frames(block[:, :n * a].reshape(-1, n, a))
            f = haar_frames(block[:, n * a:n * q].reshape(-1, n, b))
            l = haar_frames(block[:, n * q:].reshape(-1, n, q))
            lhs, rhs = V.claim23_sides(e, f, l)
            gaps[t[rows]] = np.abs(lhs - rhs) / unit_ball_volume(q)
    return gaps


def _claim23_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    rtol = cfg.tol("claim23")
    trials = cfg.samples if cfg.samples is not None else 100
    for n in cfg.dims("claim23"):
        worst = float(_claim23_gaps(n, trials, SeededSampler(cfg.seed, stream_id=50 + n)).max())
        records.append(check_abs(f"claim23/n={n}/max-relative-gap", worst, 0.0, rtol))
        # Degenerate and orthogonal special cases are exact.
        e = coordinate_subspace(n, [0])
        f = coordinate_subspace(n, [1, 2])
        l = span_sum(e, f)
        lhs, rhs = V.claim23_check(e, f, l)
        records.append(
            check_abs(f"claim23/n={n}/orthogonal-case", lhs, unit_ball_volume(3), 1e-12)
        )
        records.append(check_abs(f"claim23/n={n}/orthogonal-rhs", rhs, lhs, 1e-12))
        # L containing a direction orthogonal to E + F: both sides vanish.
        l_zero = orthonormal_basis(
            np.eye(n)[:, [3, 0, 1]] if n > 3 else np.eye(n)[:, [0, 1, 2]]
        )
        lhs, rhs = V.claim23_check(e, f, l_zero)
        records.append(check_abs(f"claim23/n={n}/zero-cosine-case", lhs + rhs, 0.0, 1e-12))
    return records, {}


def _lemma22_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    n_samples = cfg.budget("lemma22")
    rtol = cfg.tol("lemma22")
    n, i, k = 4, 1, 1
    s = SeededSampler(cfg.seed, 60)
    f = haar_subspace(n, i, s)
    points = 20
    # Each side takes one draw for all 20 points (common random numbers).
    ls = np.stack([haar_subspace(n, k + i, SeededSampler(cfg.seed, 61 + j)).basis
                   for j in range(points)])
    direct = V.lemma22_direct(f, k, ls, n_samples, SeededSampler(cfg.seed, 161))[0]
    formula = V.lemma22_formula(f, k, ls, n_samples, SeededSampler(cfg.seed, 261))[0]
    alpha, residual = V.fit_proportionality(direct, formula)
    records.append(check_le("lemma22/fitted-scalar-residual", residual, rtol))
    # Degenerate reductions.
    l = haar_subspace(n, i, SeededSampler(cfg.seed, 62))
    (exact,), _ = V.lemma22_formula(f, 0, l.basis[None], 8, SeededSampler(cfg.seed, 63))
    records.append(check_abs("lemma22/k=0-exact-cosine", exact, cos_angle(l, f), 1e-12))
    l2 = haar_subspace(n, 2, SeededSampler(cfg.seed, 64))
    (unrestricted,), (unrestricted_se,) = V.lemma22_formula(
        zero_subspace(n), 2, l2.basis[None], n_samples, SeededSampler(cfg.seed, 65))
    reference = T.cosine_apply(
        T.constant_gfunction(n, 2), 2, l2, min(n_samples, 20000), SeededSampler(cfg.seed, 66)
    )
    joint = math.hypot(unrestricted_se, reference.stderr)
    records.append(
        check_abs("lemma22/i=0-unrestricted-mean", unrestricted, reference.value, 4.0 * joint)
    )
    extras = {
        "lemma22_profile": {
            "columns": ["point", "direct", "fitted_scalar_times_formula"],
            "rows": [[j, direct[j], alpha * formula[j]] for j in range(points)],
        }
    }
    return records, extras


def _lemma24_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    n_samples = cfg.budget("lemma24")
    rtol = cfg.tol("lemma24")
    n, i, k = 4, 1, 1
    axis = np.array([1.0, 0.5, -0.25, 0.7])
    f = T.zonal_harmonic(n, 2, axis)
    smooth = T.GFunction(n, 1, lambda bases: 1.0 + 0.5 * f.evaluator(bases), name="1+zonal/2")
    points = 20
    # Each side takes one draw for all 20 points (common random numbers).
    ls = np.stack([haar_subspace(n, k + i, SeededSampler(cfg.seed, 71 + j)).basis
                   for j in range(points)])
    direct = V.lemma24_direct(smooth, i, k, ls, n_samples, SeededSampler(cfg.seed, 171))[0]
    g = V.multiply_by_intrinsic(smooth, i, k, n_samples, SeededSampler(cfg.seed, 271))
    formula = g.eval_bases(ls)
    alpha, residual = V.fit_proportionality(direct, formula)
    records.append(check_le("lemma24/fitted-scalar-residual", residual, rtol))
    # f == 1 gives a constant function (O(n)-invariance).
    one = T.constant_gfunction(n, 1)
    g = V.multiply_by_intrinsic(one, i, k, min(n_samples, 30000), SeededSampler(cfg.seed, 72))
    vals = g.eval_bases(
        np.stack([haar_subspace(n, 2, SeededSampler(cfg.seed, 73 + j)).basis for j in range(4)])
    )
    spread = (max(vals) - min(vals)) / abs(np.mean(vals))
    records.append(check_le("lemma24/constant-function-spread", spread, 0.05))
    extras = {
        "lemma24_profile": {
            "columns": ["point", "direct", "fitted_scalar_times_formula"],
            "rows": [[j, direct[j], alpha * formula[j]] for j in range(points)],
        }
    }
    return records, extras


def _lefschetz_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    n = cfg.dims("lefschetz")[0]
    n_samples = cfg.budget("lefschetz")
    leak_tol = cfg.tol("leakage")
    quad_tol = cfg.tol("funk_hecke")
    report, op = T.lefschetz_probe(n, cfg.dmax, n_samples, SeededSampler(cfg.seed, 80))
    if n == 3:
        records.append(
            check_abs("lefschetz/funk-hecke(3,0)", T.funk_hecke_cosine_eigen(3, 0), 0.5, quad_tol)
        )
        records.append(
            check_abs("lefschetz/funk-hecke(3,2)", T.funk_hecke_cosine_eigen(3, 2), 0.125, quad_tol)
        )
    for idx, d in enumerate(report.degrees):
        scalar = report.scalars[idx]
        sigma = report.scalar_stderrs[idx]
        records.append(
            check_abs(
                f"lefschetz/scalar-vs-oracle/d={d}",
                scalar,
                report.oracle_products[idx],
                3.0 * sigma + 1e-9,
            )
        )
        records.append(
            check_true(f"lefschetz/scalar-nonzero/d={d}", abs(scalar) > 3.0 * sigma)
        )
    # The scalars come from the addition theorem, not from the basis; the
    # mean of each block's diagonal reads the basis and must agree with them.
    diag = np.diag(op.matrix)
    trace_gap = max(abs(diag[op.degrees == d].mean() - op.block_scalars[i])
                    for i, d in enumerate(op.block_degrees))
    records.append(check_le("lefschetz/block-trace-vs-scalar", trace_gap, 1e-9))
    records.append(check_le("lefschetz/leakage", report.leakage_ratio, leak_tol))
    records.append(check_true("lefschetz/injective-verdict", report.injective))
    extras = {
        "eigenvalue_vs_degree": {
            "columns": ["degree", "scalar", "stderr", "oracle_product"],
            "rows": [
                [int(d), report.scalars[i], report.scalar_stderrs[i], report.oracle_products[i]]
                for i, d in enumerate(report.degrees)
            ],
        },
        "spectrum_report": report.to_dict(),
        "operator_matrix": {
            "columns": [f"{d}:{o}" for d, o in op.labels],
            "rows": op.matrix.tolist(),
        },
    }
    return records, extras


def _read_bodies_file(path: str, n: int) -> list[dict]:
    """Parse a bodies file and check its shape without building polytopes."""
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"{path}: expected a non-empty JSON list of polytopes")
    for idx, entry in enumerate(payload):
        try:
            dim = int(entry["ambient_dim"])
            vertices = np.asarray(entry["vertices"], dtype=float)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"body {idx} is not a polytope object: {exc!r}") from exc
        if dim != n:
            raise ValueError(f"body {idx} has ambient dim {dim}, expected {n}")
        if vertices.ndim != 2 or vertices.shape[0] == 0 or vertices.shape[1] != n:
            raise ValueError(f"body {idx} needs a non-empty list of {n}-vectors as vertices")
        if not np.isfinite(vertices).all():
            raise ValueError(f"body {idx} has a non-finite vertex coordinate")
    return payload


def _load_bodies(cfg: RunConfig, n: int, fallback_seed: int) -> list[tuple[str, B.Polytope]]:
    if cfg.bodies_file:
        payload = _read_bodies_file(cfg.bodies_file, n)
        return [(f"body{idx}", B.polytope_from_json(entry)) for idx, entry in enumerate(payload)]
    return [
        ("cube", B.make_cube(n)),
        ("simplex", B.make_simplex(n)),
        ("random", B.make_random_polytope(n, 4 * n + 2, SeededSampler(fallback_seed, 90))),
    ]


def _hadwiger_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    n_samples = cfg.budget("hadwiger")
    spread_tol = cfg.tol("hadwiger")
    product_tol = cfg.tol("product_mc")
    bodies = _load_bodies(cfg, 3, cfg.seed)
    rep = V.proportionality_check(
        V.v1_power(3, 2), V.IntrinsicVolume(2), [p for _, p in bodies],
        n_samples, SeededSampler(cfg.seed, 91), tol=spread_tol,
    )
    records.append(check_le("hadwiger/V1^2-vs-V2-spread", rep.spread, spread_tol))
    records.append(check_true("hadwiger/V1^2-vs-V2-verdict", rep.proportional))
    # Two-factor product on the R^4 cube (the proposition it rests on).
    c4 = B.make_cube(4)
    f1 = coordinate_subspace(4, [0, 1])
    f2 = coordinate_subspace(4, [2, 3])
    records.append(
        check_abs("hadwiger/product-complementary-planes",
                  V.product_projection(f1, f2, c4), 1.0, 1e-12)
    )
    same = V.product_projection(f1, f1, c4)
    records.append(check_abs("hadwiger/product-diagonal-degenerate", same, 0.0, 1e-12))
    # A generic but well-conditioned rotation of the complementary plane.
    c, s_ = math.cos(0.5), math.sin(0.5)
    rot_mat = np.eye(4)
    rot_mat[1, 1], rot_mat[1, 2], rot_mat[2, 1], rot_mat[2, 2] = c, -s_, s_, c
    c2, s2 = math.cos(0.3), math.sin(0.3)
    rot2 = np.eye(4)
    rot2[0, 0], rot2[0, 3], rot2[3, 0], rot2[3, 3] = c2, -s2, s2, c2
    rot = orthonormal_basis(rot2 @ rot_mat @ f2.basis)
    exact = V.product_projection(f1, rot, c4)
    embedded = B.Polytope(4, np.hstack([c4.vertices @ f1.basis, c4.vertices @ rot.basis]))
    mc = B.mc_hull_volume(embedded, n_samples, SeededSampler(cfg.seed, 93))
    records.append(check_rel("hadwiger/product-vs-rejection-mc", mc.value, exact, product_tol))
    extras = {
        "hadwiger_ratios": {
            "columns": ["body", "ratio"],
            "rows": [[bodies[j][0], rep.ratios[j]] for j in range(len(rep.ratios))],
        }
    }
    return records, extras


def _lambda_suite(cfg: RunConfig) -> tuple[list[dict], dict]:
    records = []
    budget = cfg.budget("lambda")
    rtol = cfg.tol("lambda")
    cube = B.make_cube(3)
    try:
        est = V.lambda_apply(V.Lambda(V.IntrinsicVolume(3)), cube, budget,
                             SeededSampler(cfg.seed, 95))
        records.append(check_rel("lambda/vol3-on-cube", est.value, 6.0, rtol))
    except PolynomialFitError as exc:
        records.append(_record("lambda/vol3-on-cube", 6.0, math.nan, rtol, False))
        warnings.warn(str(exc))
    bodies = _load_bodies(cfg, 3, cfg.seed)
    rows = []
    for k in (2, 3):
        try:
            rep = V.proportionality_check(
                V.Lambda(V.IntrinsicVolume(k)), V.IntrinsicVolume(k - 1),
                [p for _, p in bodies], budget, SeededSampler(cfg.seed, 96 + k), tol=rtol,
            )
            records.append(check_le(f"lambda/V{k}-degree-lowering-spread", rep.spread, rtol))
            rows.extend([[k, name, r] for (name, _), r in zip(bodies, rep.ratios)])
        except PolynomialFitError as exc:
            records.append(_record(f"lambda/V{k}-degree-lowering-spread", 0.0, math.nan, rtol, False))
            warnings.warn(str(exc))
    # ProjectionVal route: Lambda vol_2(Pr_F K) is the perimeter of K's
    # shadow on F.  The unit cube is the sum of its three unit edges, so its
    # shadow is the zonotope with perimeter 2 sum_i |F^T e_i|.
    f = haar_subspace(3, 2, SeededSampler(cfg.seed, 99))
    expr = V.Lambda(V.ProjectionVal(f))
    est = V.lambda_apply(expr, cube, budget, SeededSampler(cfg.seed, 100))
    expected = 2.0 * float(np.linalg.norm(f.basis, axis=1).sum())
    records.append(check_rel("lambda/projection-valuation-planar", est.value, expected, 1e-9))
    extras = {
        "lambda_ratios": {"columns": ["k", "body", "ratio"], "rows": rows}
    }
    return records, extras


_SUITE_FUNCS = {
    "angles": _angles_suite,
    "kubota": _kubota_suite,
    "steiner": _steiner_suite,
    "claim23": _claim23_suite,
    "lemma22": _lemma22_suite,
    "lemma24": _lemma24_suite,
    "lefschetz": _lefschetz_suite,
    "hadwiger": _hadwiger_suite,
    "lambda": _lambda_suite,
}


def check_config(name: str, cfg: RunConfig) -> None:
    """Raise ValueError (or OSError) for settings the suite cannot run with.

    Cheap checks only, made before any numerics, so that the CLI can report
    a configuration error instead of failing part-way through a suite.
    """
    dims = cfg.dims(name)
    if cfg.dimensions and name not in _DEFAULT_DIMENSIONS:
        raise ValueError(f"suite {name} runs in fixed dimensions and takes no --dim")
    if name == "lefschetz" and len(dims) > 1:
        raise ValueError(f"suite lefschetz runs in one dimension, got {dims}")
    if name == "angles" and min(dims) < 2:
        raise ValueError(f"suite angles needs ambient dimensions >= 2, got {dims}")
    if name == "claim23" and min(dims) < 4:
        raise ValueError(f"suite claim23 needs ambient dimensions >= 4, got {dims}")
    if name == "lefschetz":
        if dims[0] not in (3, 4):
            raise ValueError(f"suite lefschetz needs ambient dimension 3 or 4, got {dims[0]}")
        if cfg.dmax % 2 or not 0 <= cfg.dmax <= 12:
            raise ValueError(f"suite lefschetz needs an even dmax in [0, 12], got {cfg.dmax}")
    if name in ("hadwiger", "lambda") and cfg.bodies_file:
        _read_bodies_file(cfg.bodies_file, 3)


def run_suite(name: str, cfg: RunConfig) -> SuiteReport:
    """Run a named suite and (if configured) write its report and plot data."""
    if name not in _SUITE_FUNCS:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    start = time.perf_counter()
    records, extras = _SUITE_FUNCS[name](cfg)
    report = SuiteReport(
        suite=name,
        seed=cfg.seed,
        records=records,
        extras=extras,
        wall_time_s=time.perf_counter() - start,
    )
    if cfg.out_dir:
        write_report(report, cfg)
        emit_plot_data(report, cfg.out_dir)
    return report


def write_report(report: SuiteReport, cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cfg.fmt == "csv":
        path = out / f"{report.suite}_report.csv"
        path.write_text(report.to_csv())
    else:
        path = out / f"{report.suite}_report.json"
        path.write_text(report.to_json())
    return path


def emit_plot_data(report: SuiteReport, out_dir: str) -> list[Path]:
    """Write plot-ready x/y column files for a suite report."""
    if not report.records:
        warnings.warn(f"suite {report.suite}: empty report, no plot data written")
        return []
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for key, table in report.extras.items():
        if not (isinstance(table, dict) and "columns" in table and "rows" in table):
            path = out / f"{key}.json"
            path.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
            written.append(path)
            continue
        path = out / f"{key}.csv"
        lines = [",".join(str(c) for c in table["columns"])]
        for row in table["rows"]:
            # float() first: a NumPy 2 scalar's repr is "np.float64(...)".
            lines.append(",".join(repr(float(x)) if isinstance(x, float) else str(x) for x in row))
        path.write_text("\n".join(lines) + "\n")
        written.append(path)
    return written
