"""Regression ladder: solve a fixed set of cases and write comparable reports.

Usage: python tools/report_ladder.py OUT_DIR

Runs the seven built-in fixtures under every method, plus four generated
cases, through the public API (``solve``, ``write_report``,
``verify_solution``) with the ``scucnr`` package under this checkout's
``src``.  Each run gets ``OUT_DIR/<case>/<method>/`` holding
``report.json``, ``schedule.csv`` and ``verify.json`` (the audit's
verdict).  When a run raises ``SolverError`` or ``ValueError``, its
``verify.json`` holds verdict ``error`` and the message, and the ladder
carries on.  Nothing wall-clock is written, so two checkouts compare with
one ``diff -r`` of their output directories.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from scucnr import (METHODS, SolveOptions, SolverError, solve,  # noqa: E402
                    verify_solution, write_report)
from scucnr.fixtures import (corridor4_high, corridor4_low,  # noqa: E402
                             corridor4_stranded, random_case, star4, triangle3,
                             triangle3_tight)

FIXTURES = {
    "triangle3": triangle3,
    "triangle3_T2": lambda: triangle3((80.0, 60.0)),
    "triangle3_tight": triangle3_tight,
    "star4": star4,
    "corridor4_high": corridor4_high,
    "corridor4_low": corridor4_low,
    "corridor4_stranded": corridor4_stranded,
}

# (seed, buses, generators, horizon), method, workers
RANDOM_RUNS = (
    ((101, 24, 8, 4), "td_scuc", 1),
    ((101, 24, 8, 4), "td_scuc_cnr", 1),
    ((9, 40, 12, 8), "ad_scuc_cnr", 2),
    ((101, 12, 5, 4), "extensive_scuc", 1),
)


def ladder():
    """Every run of the ladder as ``(case name, case, SolveOptions)``."""
    for name, build in FIXTURES.items():
        case = build()
        for method in METHODS:
            yield name, case, SolveOptions(method=method)
    for sizes, method, workers in RANDOM_RUNS:
        name = "random_" + "_".join(map(str, sizes))
        yield name, random_case(*sizes), SolveOptions(method=method, workers=workers)


def run_one(case, options, target: Path) -> tuple[str, dict]:
    """Solve, report and audit one run; returns its status and audit verdict."""
    result = solve(case, options)
    paths = write_report(result.report, result.schedule, target)
    paths["timings"].unlink()
    if result.schedule is None:
        return result.status, {"verdict": "no schedule"}
    audit = verify_solution(case, result)
    return result.status, {"verdict": "secure" if audit.secure else "insecure",
                           "pairs_checked": audit.pairs_checked,
                           "violations": [list(v) for v in audit.violations]}


def run(out_dir: Path) -> int:
    count = 0
    for name, case, options in ladder():
        target = out_dir / name / options.method
        try:
            status, verdict = run_one(case, options, target)
        except (SolverError, ValueError) as exc:
            # keep going, so a diff of two ladders names every broken run
            status, verdict = "error", {"verdict": "error", "message": str(exc)}
            target.mkdir(parents=True, exist_ok=True)
        (target / "verify.json").write_text(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
        print(f"{name}/{options.method}: {status}, {verdict['verdict']}")
        count += 1
    return count


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 1
    print(f"{run(Path(argv[0]))} runs written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
