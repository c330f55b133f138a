"""Command-line driver: run verification suites, emit JSON reports.

Each catalog check runs through its algebra's suite command,
`rfactor sl2|sl3 --check NAME`, the oracle re-derivations (`oracle-r1`, ...)
and the fundamental Yang-Baxter check (`sl2 --check ybe-fundamental`)
included; `rfactor report PATH` summarizes a report written with `--out`.

Exit codes: 0 when every non-skipped check passes, 1 when any check fails,
2 for usage or IO errors and for a basis over the size limit
(RFACTOR_SIZE_LIMIT, see polyspace).
"""

from __future__ import annotations

import argparse
import json
import sys

from .exactnum import rat_from_str
from .polyspace import CapTooLarge
from .verify import SuiteConfig, parse_mutate, report_to_json, run_suite


def _add_common(sp, cap_default, trials_default):
    """The run options of a suite command."""
    sp.add_argument("--cap", type=int, default=cap_default,
                    help="height truncation of the representation spaces")
    sp.add_argument("--trials", type=int, default=trials_default,
                    help="sampled parameter points per check")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--check", action="append", metavar="NAME",
                    help="run only this check (repeatable)")
    sp.add_argument("--params", metavar="CSV",
                    help="explicit rational parameters, e.g. 1/2,1/3,0,1/5")
    sp.add_argument("--mutate", metavar="TAG",
                    help="inject an eigenvalue mutation, e.g. r1:1 or r2:b")
    sp.add_argument("--out", metavar="PATH",
                    help="write the JSON report here instead of stdout")
    sp.add_argument("--jobs", type=int, default=1)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rfactor",
        description="Exact verification of factorized rational R-operators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_common(sub.add_parser("sl2", help="two-site sl2 suite"), 8, 20)
    _add_common(sub.add_parser("sl3", help="two-site sl3 suite"), 3, 10)
    rpt = sub.add_parser("report", help="summarize an existing JSON report")
    rpt.add_argument("path")
    return parser


def _parse_params(parser, text):
    try:
        return tuple(rat_from_str(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as e:
        parser.error(f"bad --params: {e}")


def _make_config(parser, args) -> SuiteConfig:
    algebra = args.command
    checks = tuple(args.check) if args.check else ()
    if args.cap < 2:
        parser.error("--cap must be at least 2")
    if args.trials < 1:
        parser.error("--trials must be positive")
    if args.jobs < 1:
        parser.error("--jobs must be positive")
    params = _parse_params(parser, args.params) if args.params is not None else None
    if params is not None and len(checks) != 1:
        parser.error("--params requires exactly one --check")
    mutate = None
    if args.mutate:
        try:
            mutate = parse_mutate(algebra, args.mutate)
        except ValueError as e:
            parser.error(str(e))
    try:
        return SuiteConfig(
            algebra=algebra,
            cap=args.cap,
            trials=args.trials,
            seed=args.seed,
            checks=checks,
            params=params,
            mutate=mutate,
            jobs=args.jobs,
        )
    except (KeyError, ValueError) as e:
        parser.error(str(e.args[0]))


STATUS_LABELS = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}


def _well_formed(check) -> bool:
    """Whether a report entry has every field _summary_line reads."""
    if not isinstance(check, dict):
        return False
    status, params = check.get("status"), check.get("params")
    witness = check.get("witness", {"monomial": "", "value": ""})
    return (
        isinstance(status, str)
        and status in STATUS_LABELS
        and "name" in check
        and isinstance(params, list)
        and all(isinstance(p, str) for p in params)
        and isinstance(witness, dict)
        and {"monomial", "value"} <= witness.keys()
    )


def _check_shape(report):
    """Raise ValueError unless `report` has every field _print_report reads."""
    checks = report.get("checks") if isinstance(report, dict) else None
    if not isinstance(checks, list) or "suite" not in report:
        raise ValueError("expected an object with a suite and a list of checks")
    for check in checks:
        if not _well_formed(check):
            raise ValueError(f"malformed check {check!r}")


def _summary_line(check: dict) -> str:
    label = STATUS_LABELS[check["status"]]
    line = f"{label:<5} {check['name']} [{', '.join(check['params'])}]"
    if "witness" in check:
        w = check["witness"]
        line += f"  witness: {w['monomial']} -> {w['value']}"
    if check["status"] == "skipped" and check.get("reason"):
        line += f"  reason: {check['reason']}"
    return line


def _print_report(report) -> int:
    for check in report["checks"]:
        print(_summary_line(check))
    total = len(report["checks"])
    fails = sum(1 for c in report["checks"] if c["status"] == "fail")
    skips = sum(1 for c in report["checks"] if c["status"] == "skipped")
    print(
        f"{report['suite']}: {total} checks, {total - fails - skips} passed, "
        f"{fails} failed, {skips} skipped"
    )
    return 1 if fails else 0


def _cmd_report(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        _check_shape(report)
    except (OSError, ValueError, RecursionError) as e:
        print(f"rfactor: cannot read report {path}: {e}", file=sys.stderr)
        return 2
    return _print_report(report)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        return _cmd_report(args.path)
    config = _make_config(parser, args)
    try:
        report = run_suite(config)
    except CapTooLarge as e:
        print(f"rfactor: {e}", file=sys.stderr)
        return 2
    text = report_to_json(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print(f"rfactor: cannot write {args.out}: {e}", file=sys.stderr)
            return 2
    code = _print_report(report)
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
