"""Command-line entry point.

Exit codes: 0 converged/secure, 1 usage or I/O error, 2 proven
infeasibility, 3 non-convergence or failed verification.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .backend import SolverError
from .caseio import (CaseFormatError, CaseIOError, load_solution, parse_case, write_case,
                     write_report)
from .fixtures import random_case
from .orchestrator import METHODS, SolveOptions, solve, verify_schedule

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_NOT_CONVERGED = 3

_DEFAULTS = SolveOptions()


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_ERROR)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scucnr",
                     description="Day-ahead unit commitment with N-1 security "
                                 "and corrective line switching.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("solve", parents=[], help="solve a case and write reports",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    run.add_argument("--case", required=True, help="case JSON file")
    run.add_argument("--method", required=True, choices=METHODS)
    run.add_argument("--out", default="runs", help="output directory")
    run.add_argument("--cbce-size", type=int, default=_DEFAULTS.cbce_size,
                     help="how many of an outage's ranked lines a switch search may "
                          "try; 0 turns switching off, and at least the branch count "
                          "tries every reconfigurable line")
    run.add_argument("--max-iter", type=int, default=_DEFAULTS.max_iterations,
                     help="iteration cap for decomposed methods")
    run.add_argument("--milp-gap", type=float, default=_DEFAULTS.milp_gap,
                     help="relative MIP gap for master/extensive solves")
    run.add_argument("--workers", type=int, default=_DEFAULTS.workers,
                     help="subproblem worker threads, one contingency each; HiGHS "
                          "releases the GIL while it solves, so their LPs overlap")

    ver = sub.add_parser("verify", help="re-audit a written result against its case",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    ver.add_argument("--case", required=True)
    ver.add_argument("--result", required=True, help="report.json from a solve run")

    gen = sub.add_parser("gen-fixture", help="emit a random meshed test case",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="path of the case file to write")
    gen.add_argument("--buses", type=int, default=None)
    gen.add_argument("--generators", type=int, default=None)
    gen.add_argument("--horizon", type=int, default=None)
    return parser


def _cmd_solve(args) -> int:
    try:
        options = SolveOptions(
            method=args.method,
            max_iterations=args.max_iter,
            milp_gap=args.milp_gap,
            cbce_size=args.cbce_size,
            workers=args.workers,
        )
    except ValueError as exc:
        print(f"scucnr solve: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    case = parse_case(args.case)
    result = solve(case, options)
    if result.status == "infeasible":
        print(f"{args.case}: no feasible schedule exists for method {args.method}",
              file=sys.stderr)
        return EXIT_INFEASIBLE
    paths = write_report(result.report, result.schedule, args.out)
    print(f"method={result.method} status={result.status} "
          f"objective={result.schedule.objective:.2f} iterations={result.iterations}")
    print(f"report: {paths['report']}")
    if result.status != "converged":
        print(f"{args.case}: stopped after {result.iterations} iterations without "
              f"converging; unresolved pairs: {list(result.unresolved)}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_verify(args) -> int:
    case = parse_case(args.case)
    doc, schedule = load_solution(args.result)
    method = doc.get("method")
    if method not in METHODS:
        # the method decides whether the audit may rescue a pair by switching
        raise CaseFormatError(f"{args.result}: report names no known method "
                              f"(got {method!r}; expected one of {METHODS})")
    try:
        audit = verify_schedule(case, method, schedule)
    except CaseFormatError as exc:
        # the schedule does not fit the case
        raise CaseFormatError(f"{args.result}: {exc}") from None
    if audit.secure:
        print(f"secure: {audit.pairs_checked} post-contingency states verified")
        return EXIT_OK
    if audit.base_case is not None:
        print(f"violation: base case: {audit.base_case}", file=sys.stderr)
    for c, t, slack in audit.violations:
        print(f"violation: contingency {c} period {t} slack {slack:.6f}",
              file=sys.stderr)
    return EXIT_NOT_CONVERGED


def _cmd_gen_fixture(args) -> int:
    try:
        case = random_case(args.seed, n_buses=args.buses, n_generators=args.generators,
                           horizon=args.horizon)
    except ValueError as exc:
        print(f"scucnr gen-fixture: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    out = Path(args.out)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    write_case(case, out)
    print(f"wrote {out} (seed {args.seed}, {len(case.buses)} buses, "
          f"{len(case.branches)} branches, {len(case.generators)} generators, "
          f"T={case.horizon})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gen-fixture":
            return _cmd_gen_fixture(args)
    except CaseIOError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
