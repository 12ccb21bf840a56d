"""Command-line front end: ``valgeo <suite> [options]``.

Exit status: 0 when every check passes, 1 on a failed check, 2 on a usage
or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .suites import SUITE_NAMES, check_config, config_from_sources, load_config_file, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valgeo",
        description="Run a named integral-geometry verification suite.",
    )
    parser.add_argument("suite", choices=SUITE_NAMES, help="verification suite to run")
    parser.add_argument("--seed", type=int, help="master seed (default 1234)")
    parser.add_argument("--samples", type=int, help="Monte-Carlo budget override")
    parser.add_argument(
        "--dim", type=int, action="append",
        help="ambient dimension (repeatable; default depends on the suite)",
    )
    parser.add_argument("--dmax", type=int, help="harmonic degree cutoff (default 8)")
    parser.add_argument("--out", help="directory for reports and plot data")
    parser.add_argument("--format", choices=["csv", "json"], help="report format")
    parser.add_argument("--config", help="flat key = value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        file_values = load_config_file(args.config) if args.config else None
        cfg = config_from_sources(
            file_values,
            seed=args.seed,
            samples=args.samples,
            dim=args.dim,
            dmax=args.dmax,
            out=args.out,
            format=args.format,
        )
        check_config(args.suite, cfg)
    except (OSError, ValueError) as exc:
        print(f"valgeo: configuration error: {exc}", file=sys.stderr)
        return 2
    report = run_suite(args.suite, cfg)
    n_pass = sum(r["pass"] for r in report.records)
    print(f"suite {report.suite}  seed {report.seed}")
    for r in report.records:
        status = "PASS" if r["pass"] else "FAIL"
        print(
            f"  [{status}] {r['name']}: observed={r['observed']:.6g} "
            f"expected={r['expected']:.6g} tol={r['tolerance']:.3g}"
        )
    print(
        f"{n_pass}/{len(report.records)} checks passed "
        f"in {report.wall_time_s:.1f}s"
    )
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
