"""Time the nine verification suites in process and check that reruns write
the same bytes.

Each suite runs through ``suites.run_suite`` at ``RunConfig``'s default seed,
at its default budget or at ``--samples``, writing its report and plot files
to a fresh temporary directory each time.  It runs ``--repeats`` times, and at
least twice, so that the byte comparison below always has two runs to
compare; the time is the median of the first ``--repeats`` runs.  The script
prints each suite's median wall time, the sha256 of its ``<suite>_report.json`` (the
digest ``sha256sum`` gives for the file the command line writes) and the
``trace.counters`` values that are not zero.  It exits with an error if two
runs of a suite write different bytes in any file.  ``scipy.stats`` is
imported before the first suite, so that its one-time import is not charged
to whichever suite runs first.  The script sets OpenBLAS, OpenMP and MKL to
one thread before NumPy is imported, because the lefschetz report's bytes
depend on the BLAS thread count:

    python benchmarks/bench_suites.py [--samples N] [--repeats R] [--json FILE]

``--json FILE`` appends one row, with the git revision and the machine, to
the list of rows in FILE (a new file starts the list), so the file keeps a
trajectory of suite times.
"""

import argparse
import hashlib
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy is imported (see the docstring)

import scipy.stats  # noqa: E402,F401  (see the docstring)

from valgeo import trace  # noqa: E402
from valgeo.suites import SUITE_NAMES, RunConfig, run_suite  # noqa: E402

from _common import machine  # noqa: E402


def run_once(name: str, samples: int | None) -> tuple[float, dict, dict]:
    """(wall time, {file name: sha256}, counters) of one run of a suite."""
    with tempfile.TemporaryDirectory() as out:
        trace.reset()
        t0 = time.perf_counter()
        run_suite(name, RunConfig(samples=samples, out_dir=out))
        wall = time.perf_counter() - t0
        counters = dict(trace.counters)
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(Path(out).iterdir())}
    return wall, digests, counters


def run(samples: int | None, repeats: int) -> dict:
    seed = RunConfig().seed
    budget = "default budgets" if samples is None else f"{samples} samples"
    print(f"seed {seed}, {budget}; median of {repeats} runs, seconds")
    print(f"{'suite':<10} {'median':>8}  {'report sha256':<64}  counters (nonzero)")
    suites, unstable = {}, []
    for name in SUITE_NAMES:
        runs = [run_once(name, samples) for _ in range(max(repeats, 2))]
        digests, counters = runs[0][1], runs[0][2]
        if any(r[1] != digests for r in runs[1:]):
            unstable.append(name)
        median = statistics.median(r[0] for r in runs[:repeats])
        report = digests[f"{name}_report.json"]
        shown = " ".join(f"{k}={v}" for k, v in counters.items() if v)
        print(f"{name:<10} {median:>8.3f}  {report}  {shown}")
        suites[name] = {"median_s": round(median, 4), "report_sha256": report,
                        "files": len(digests), "counters": counters}
    print(f"total      {sum(s['median_s'] for s in suites.values()):>8.3f}")
    if unstable:
        raise SystemExit(f"bench_suites: two runs wrote different bytes for {', '.join(unstable)}")
    return {"seed": seed, "samples": samples, "repeats": repeats, "suites": suites}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--samples", type=int, help="Monte-Carlo budget for every suite "
                        "(default: each suite's own)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed runs per suite (at least two runs are made)")
    parser.add_argument("--json", type=Path, help="append the results to this file")
    args = parser.parse_args()
    result = run(args.samples, args.repeats)
    if args.json:
        rows = json.loads(args.json.read_text()) if args.json.exists() else []
        rows.append({**machine(), **result})
        args.json.write_text(json.dumps(rows, indent=2) + "\n")
