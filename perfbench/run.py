"""valgeo suite benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each workload (see workloads.py) is a fixed
list of CLI suites run back to back by one client in a fresh process, with
BLAS limited to one thread.  The package is imported from ``src/`` exactly as
the tier-1 tests do; nothing is built, so the benchmark measures whichever
kernel backend the checkout selects, and says which.

``--trace 0`` prints the end-to-end metrics (each suite run's median over
passes, scaled to the nominal host by reference.py and summed; set-up time;
peak RSS).  ``--trace 1`` alternates traced and untraced
passes and prints the per-layer metrics taken from the median traced pass
(layers.py).  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  Every
suite check counts as one attempted operation, and so does every comparison
of a report digest against another run of the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from reference import scaled  # noqa: E402
from workloads import GATE_BOUNDS_S, WORKLOADS  # noqa: E402

SETUPS = 3          # set-up samples per run; the last one is the measuring worker
RUN_TIMEOUT_S = 170.0
SUITE_METRICS = ("lemma22", "lemma24", "kubota", "angles", "hadwiger")

END_TO_END_UNITS = {"wall_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "grassmann.self_s": "s", "grassmann.scalar_calls": "count",
    "grassmann.batch_calls": "count", "grassmann.batch_rows": "count",
    "transforms.self_s": "s", "transforms.gfunction_scalar_calls": "count",
    "transforms.gfunction_batch_rows": "count",
    "harmonics.self_s": "s", "harmonics.points": "count",
    "kernels.self_s": "s", "kernels.calls": "count", "kernels.points": "count",
    "kernels.point_vertex_pairs": "count", "kernels.points_per_s": "1/s",
    "qhull.self_s": "s", "qhull.calls": "count", "qhull.points": "count",
    "qhull.errors": "count",
    "construct.self_s": "s", "construct.calls": "count",
    "construct.points_in": "count", "construct.vertices_out": "count",
    "fit.calls": "count", "fit.max_residual": "ratio", "fit.max_cond": "ratio",
    "bodies.self_s": "s", "valuations.self_s": "s",
    "suites.unaccounted_s": "s", "trace.coverage": "ratio",
    "trace.overhead_s": "s", "trace.spans": "count",
    **{f"suite_s.{name}": "s" for name in SUITE_METRICS},
    "failed_check_share": "ratio",
    "wall_raw_s": "s", "ref_s": "s",
}


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def run_worker(args, mode: str, result: Path | None, timeout: float) -> float:
    """Run one worker to completion; return its set-up time (spawn to READY).

    The worker is always reaped, and killed first if it is still running."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if result is not None:
        cmd += ["--result", str(result)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "READY":
            raise RuntimeError(f"{mode} worker did not start")
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{mode} worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker failed with exit code {proc.returncode}")
    return ready


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def digest_key(workload: str, case: dict) -> str:
    budget = dict(WORKLOADS[workload])[case["suite"]]
    return f"{workload}/seed{case['seed']}/{case['suite']}/budget{budget or 'default'}"


def check_digests(workload: str, passes: list[dict]) -> tuple[int, list[str]]:
    """Compare every pass's report digests with the first pass and with earlier
    runs of the same seed in this checkout; record new digests.  Returns
    (comparisons made, mismatch descriptions)."""
    store_path = OUT / "digests.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    first = passes[0]["suites"]
    attempted, mismatches = 0, []
    for p in passes[1:]:
        for name, s in p["suites"].items():
            attempted += 1
            if s["digest"] != first[name]["digest"]:
                kind = "traced" if p["traced"] else "untraced"
                mismatches.append(f"{name}: {kind} pass report differs from the first pass")
    for name, s in first.items():
        key = digest_key(workload, s)
        if key in store:
            attempted += 1
            if store[key] != s["digest"]:
                mismatches.append(f"{name}: report differs from an earlier run of its seed")
        else:
            store[key] = s["digest"]
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
    tmp.replace(store_path)
    return attempted, mismatches


def case_medians(passes: list[dict], normalise: bool = False) -> dict[str, float]:
    """Each (suite, seed) case's median time over the passes; with
    ``normalise``, each time is first scaled to the nominal host by the
    reference loop timed beside it (reference.py)."""
    def seconds(case):
        return scaled(case["seconds"], case["ref_s"]) if normalise else case["seconds"]
    return {key: statistics.median(seconds(p["suites"][key]) for p in passes)
            for key in passes[0]["suites"]}


def suite_totals(passes: list[dict], medians: dict[str, float]) -> dict[str, float]:
    """Per-suite sums of the case medians, over the suite's seeds."""
    totals: dict[str, float] = {}
    for key, case in passes[0]["suites"].items():
        totals[case["suite"]] = totals.get(case["suite"], 0.0) + medians[key]
    return totals


def layer_metrics(untraced: list[dict], traced: list[dict], failed_share: float) -> dict:
    typical = sorted(traced, key=lambda p: p["wall_s"])[len(traced) // 2]
    self_s = typical["layer_self_s"]
    counters = typical["counters"]
    traced_wall = typical["wall_s"]
    covered = sum(v for layer, v in self_s.items() if layer != "suites")
    m = {f"{layer}.self_s": self_s[layer]
         for layer in ("grassmann", "transforms", "harmonics", "kernels", "qhull",
                       "construct", "bodies", "valuations")}
    m.update(counters)
    m["kernels.points_per_s"] = (counters["kernels.points"] / self_s["kernels"]
                                 if self_s["kernels"] > 0 else 0.0)
    m["fit.max_residual"] = typical["fit_max_residual"]
    m["fit.max_cond"] = typical["fit_max_cond"]
    m["suites.unaccounted_s"] = traced_wall - covered
    m["trace.coverage"] = covered / traced_wall
    m["trace.overhead_s"] = traced_wall - statistics.median(p["wall_s"] for p in untraced)
    m["trace.spans"] = typical["spans"]
    totals = suite_totals(untraced, case_medians(untraced))
    for name in SUITE_METRICS:
        m[f"suite_s.{name}"] = totals.get(name, 0.0)
    m["failed_check_share"] = failed_share
    m["wall_raw_s"] = sum(case_medians(untraced).values())
    m["ref_s"] = statistics.median(c["ref_s"] for p in untraced for c in p["suites"].values())
    return {k: {"value": m[k], "unit": unit} for k, unit in PER_LAYER_UNITS.items()}


def print_report(args, data: dict, setups: list[float], totals: dict) -> None:
    env = data["env"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(data['passes'])}")
    print(f"env: kernel_backend={env['kernel_backend']} git={data['git']} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} nproc={env['nproc']} "
          f"blas_threads={env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    if env["kernel_backend"] == "python":
        print("WARNING: kernel backend is 'python' (pure-NumPy Wolfe kernel, about 70-87x "
              "slower than the compiled one); membership-bound times reflect that backend")
    print("setup samples (s): " + " ".join(f"{s:.3f}" for s in setups))
    seeds = sorted({c["seed"] for c in data["passes"][0]["suites"].values()})
    print("suite seeds per pass: " + " ".join(str(s) for s in seeds))
    for name, budget in WORKLOADS[args.workload]:
        per_seed = totals[name] / len(seeds)
        gate = GATE_BOUNDS_S.get(name) if budget is None else None
        gate_txt = f"  gate <{gate:g}s headroom {gate - per_seed:.2f}s" if gate else ""
        print(f"suite {name:<10} budget {budget or 'default':>8}  median per seed "
              f"{per_seed:.3f}s{gate_txt}")
    for body, counts in data["inputs"].items():
        print(f"input {body}: raw_points={counts['raw_points']} "
              f"hull_vertices={counts['hull_vertices']}")
    # Seed-1234 digests of the commit that defined the benchmark; a change that
    # alters seeded numbers on purpose shows here, without failing the run.
    reference = json.loads((HERE / "reference_digests.json").read_text())
    for name, s in data["passes"][0]["suites"].items():
        ref = reference.get(digest_key(args.workload, s))
        note = "" if ref is None else (" (reference)" if ref == s["digest"]
                                       else " (differs from reference_digests.json)")
        print(f"digest {name} {s['digest']}{note}")
    if "bindings" in data:
        for label in data["bindings"]["wrapped"]:
            print(f"wrapped {label}")
        for label in data["bindings"]["absent"]:
            print(f"absent {label}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "valgeo" / "__init__.py").is_file():
        print(f"error: no valgeo source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    # A TERM signal exits through run_worker's cleanup, which kills and
    # reaps the worker, instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    try:
        setups = [run_worker(args, "setup", None, 60.0) for _ in range(SETUPS - 1)]
        setups.append(run_worker(args, "run", result_path, RUN_TIMEOUT_S))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    data = json.loads(result_path.read_text())

    passes = data["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(s["checks"] for p in passes for s in p["suites"].values())
    notes = [f"{name}: check {c}" for p in passes for name, s in p["suites"].items()
             for c in s["failed"]]
    failed = len(notes)
    compared, mismatches = check_digests(args.workload, passes)
    attempted += compared
    failed += len(mismatches)
    notes += mismatches

    data["setup_samples_s"] = setups
    data["git"] = git_sha()
    data["failed_operations"] = notes
    totals = suite_totals(untraced, case_medians(untraced))
    print_report(args, data, setups, totals)
    refs = [c["ref_s"] for p in untraced for c in p["suites"].values()]
    print(f"reference loop per suite run, ms: median {statistics.median(refs) * 1e3:.3f} "
          f"min {min(refs) * 1e3:.3f} max {max(refs) * 1e3:.3f}; raw wall "
          f"{sum(totals.values()):.4f}s")
    for note in notes:
        print(f"FAILED {note}")
    print(f"operations attempted {attempted} failed {failed} "
          f"failed_check_share {failed / attempted:.6g}")
    if args.trace:
        metrics = layer_metrics(untraced, traced, failed / attempted)
    else:
        values = {
            "wall_norm_s": sum(case_medians(untraced, normalise=True).values()),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": data["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    data["metrics"] = metrics
    result_path.write_text(json.dumps(data, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
