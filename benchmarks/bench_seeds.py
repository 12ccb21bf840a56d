"""Sweep the verification suites over seeds: how often each check fails, and
how close it comes to its tolerance.

Each suite runs through ``suites.run_suite`` on seeds 1 .. ``--repeats``, at
its default budget or at ``--samples``.  For every check the script counts
the seeds on which it failed and summarises the ratio r of its error to its
tolerance over the seeds, so that a check passes exactly when r <= 1:

* ``check_rel`` records: r = |observed - expected| / (tolerance |expected|),
  the relative error over the rtol that the record's ``tolerance`` holds;
* ``check_le`` records: r = observed / bound;
* ``check_true`` records: r = 0 if the flag holds, else inf;
* every other record: r = |observed - expected| / tolerance.

A check that could not be computed (observed NaN) counts as a failure with
r = inf.  The records do not say which helper made them, so the script wraps
``suites.check_rel``, ``check_le`` and ``check_true`` to note the names they
return.  It prints a Markdown table with one row per check (failures, and
the median, 90th percentile and largest r, each one of the observed values)
and the number of seeds on which each suite failed a check, and exits with
an error if a check's pass flag disagrees with r <= 1.  Run:

    python benchmarks/bench_seeds.py [--suites S ...] [--samples N] [--repeats R] [--json FILE]

``--json FILE`` writes the results to FILE, with the git revision and the
machine.
"""

import argparse
import json
import math
import os
import warnings
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # the suites' reports are recorded with one BLAS thread

import numpy as np  # noqa: E402

from valgeo import suites  # noqa: E402

from _common import machine  # noqa: E402

KINDS = {}  # record name -> "rel", "le" or "true"; other records are "abs"


def _tagged(kind: str, check):
    def wrapper(name, *args):
        KINDS[name] = kind
        return check(name, *args)
    return wrapper


for _kind in ("rel", "le", "true"):
    setattr(suites, f"check_{_kind}", _tagged(_kind, getattr(suites, f"check_{_kind}")))


def ratio(record: dict) -> float:
    """The record's error over its tolerance, as in the module docstring."""
    kind = KINDS.get(record["name"], "abs")
    observed, expected, tol = record["observed"], record["expected"], record["tolerance"]
    if kind == "true":
        return 0.0 if record["pass"] else math.inf
    if not math.isfinite(observed):
        return math.inf
    if kind == "le":
        return observed / tol
    if kind == "rel":
        return abs(observed - expected) / (tol * abs(expected))
    return abs(observed - expected) / tol


def run(names: list[str], samples: int | None, repeats: int) -> dict:
    seeds = range(1, repeats + 1)
    budget = "default budgets" if samples is None else f"{samples} samples"
    print(f"seeds 1-{repeats}, {budget}")
    table, failed_seeds, inconsistent = {}, {}, []
    for name in names:
        failed_seeds[name] = 0
        for seed in seeds:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # PolynomialFitError records warn
                report = suites.run_suite(name, suites.RunConfig(seed=seed, samples=samples))
            failed_seeds[name] += not report.passed
            for record in report.records:
                r = ratio(record)
                if record["pass"] != (r <= 1.0):
                    inconsistent.append(f"{record['name']} (seed {seed})")
                row = table.setdefault(record["name"], {"failures": 0, "ratios": []})
                row["failures"] += not record["pass"]
                row["ratios"].append(r)
    print("\n| check | failed | median r | 90% r | max r |\n|---|---|---|---|---|")
    checks = {}
    for check, row in table.items():
        q = np.quantile(row["ratios"], [0.5, 0.9, 1.0], method="higher")  # inf-safe
        checks[check] = {"failures": row["failures"], "median": q[0], "p90": q[1], "max": q[2]}
        print(f"| `{check}` | {row['failures']}/{len(row['ratios'])} | {q[0]:.3g} | "
              f"{q[1]:.3g} | {q[2]:.3g} |")
    print("\nseeds with a failed check: "
          + ", ".join(f"{name} {count}/{repeats}" for name, count in failed_seeds.items()))
    if inconsistent:
        raise SystemExit(f"bench_seeds: pass flag and r <= 1 disagree for {inconsistent[:5]}")
    return {"seeds": [1, repeats], "samples": samples, "failed_seeds": failed_seeds,
            "checks": {k: {f: (v if math.isfinite(v) else None) for f, v in row.items()}
                       for k, row in checks.items()}}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--suites", nargs="+", choices=suites.SUITE_NAMES,
                        default=list(suites.SUITE_NAMES), help="suites to sweep (default: all)")
    parser.add_argument("--samples", type=int, help="Monte-Carlo budget for every suite "
                        "(default: each suite's own)")
    parser.add_argument("--repeats", type=int, default=200,
                        help="number of seeds, swept from 1 (default 200)")
    parser.add_argument("--json", type=Path, help="store the results in this file")
    args = parser.parse_args()
    result = run(args.suites, args.samples, args.repeats)
    if args.json:
        args.json.write_text(json.dumps({**machine(), **result}, indent=2) + "\n")
