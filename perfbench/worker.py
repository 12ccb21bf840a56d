"""One benchmark process: import valgeo, build inputs, run passes, report.

Started by ``run.py``; not meant to be run by hand.  It prints ``READY`` on
stdout once ``import valgeo``, ``import scipy.stats`` and input generation
are done (the harness times set-up up to that line), then, unless ``--mode
setup``, runs the workload's suites back to back in a closed loop and writes
the raw results as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from reference import RunningSampler, bracket  # noqa: E402
from workloads import WORKLOADS, make_inputs  # noqa: E402

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_pass(suites, cases, tracer=None) -> dict:
    from valgeo.suites import RunConfig, run_suite

    if tracer is not None:
        tracer.reset()
        tracer.install()
    out = {}
    before = bracket()
    try:
        for run_seed, extras in cases:
            for name, budget in suites:
                cfg = RunConfig(seed=run_seed, samples=budget, **extras)
                # Traced passes are not sampled: the handler would run inside
                # layer spans, and their times are not scaled anyway.
                sampler = RunningSampler()
                start = time.perf_counter()
                with sampler if tracer is None else contextlib.nullcontext():
                    report = run_suite(name, cfg)
                seconds = time.perf_counter() - start - sampler.paused_s
                after = bracket()
                refs = before + sampler.samples + after
                text = report.to_json()
                out[f"{name}@{run_seed}"] = {
                    "suite": name,
                    "seed": run_seed,
                    "seconds": seconds,
                    "ref_s": statistics.fmean(refs),
                    "digest": hashlib.sha256(text.encode()).hexdigest(),
                    "checks": len(report.records),
                    "failed": [r["name"] for r in report.records if not r["pass"]],
                }
                before = after
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"suites": out, "wall_s": sum(s["seconds"] for s in out.values()),
              "traced": tracer is not None}
    if tracer is not None:
        result["layer_self_s"] = tracer.layer_self_seconds()
        result["counters"] = dict(tracer.counters)
        result["fit_max_residual"] = tracer.fit_max_residual
        result["fit_max_cond"] = tracer.fit_max_cond
        result["spans"] = len(tracer.span_name)
    return result


def environment() -> dict:
    import numpy
    import scipy
    import valgeo

    return {
        "kernel_backend": valgeo.KERNEL_BACKEND,
        "valgeo_file": valgeo.__file__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "machine": platform.machine(),
        "processor_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args()

    import valgeo
    import valgeo.suites  # noqa: F401  (loads every layer module before wrapping)
    # valgeo imports scipy.stats on its first quasi-Monte-Carlo estimate.
    # Importing it here puts that 0.5 s in set-up, where it is measured,
    # rather than in the first pass alone, where it skews one case's median.
    import scipy.stats  # noqa: F401

    src = (ROOT / "src").resolve()
    if Path(valgeo.__file__).resolve().parent.parent != src:
        print(f"valgeo imported from {valgeo.__file__}, not from {src}", file=sys.stderr)
        return 2
    inputs = make_inputs(args.workload, args.seed, HERE / "out" / "inputs")
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    suites = WORKLOADS[args.workload]
    passes, pass_seconds = [], []
    loop_start = time.perf_counter()
    while True:
        # Traced passes come first, so the cold first pass can only inflate
        # the reported tracing overhead, never hide it.
        traced = tracer is not None and len(passes) % 2 == 0
        start = time.perf_counter()
        passes.append(run_pass(suites, inputs["cases"], tracer if traced else None))
        pass_seconds.append(time.perf_counter() - start)
        if traced:
            tracer.save_spans(HERE / "out" / f"spans-{args.workload}-seed{args.seed}.npz")
        elapsed = time.perf_counter() - loop_start
        typical = statistics.median(pass_seconds)
        if len(passes) >= 2 and elapsed + typical > args.seconds:
            break

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "inputs": inputs["summary"],
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["bindings"] = {"wrapped": tracer.wrapped, "absent": tracer.absent}
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
