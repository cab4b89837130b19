"""Regression ladder: solve a fixed set of cases and write comparable reports.

Usage: python tools/report_ladder.py OUT_DIR
       python tools/report_ladder.py --compare PARENT_DIR CHANGE_DIR

Runs the seven built-in fixtures under every method, plus seven runs of
generated cases (one with a switch budget as long as its branch list, and
two stopped after their first master, whose schedules the audit finds
insecure), through the public API (``solve``, ``write_report``,
``verify_solution``) with the ``scucnr`` package under this checkout's
``src``.  Each run gets ``OUT_DIR/<case>/<method>/`` holding
``report.json``, ``schedule.csv`` and ``verify.json`` (the audit's
verdict, with ``base_case`` when the schedule breaks a base-case row).
When a run raises ``SolverError`` or ``ValueError``, its ``verify.json``
holds verdict ``error`` and the message, and the ladder carries on.
Nothing wall-clock is written, so two checkouts compare with one
``diff -r`` of their output directories.

``--compare`` checks two such directories against each other.  Every run
must make the same decisions on both sides: status, ``converged``,
iterations, ``cuts_total``, each iteration's counts in ``iteration_log``
(every field but ``muc_objective``), each pair's status and switch, the
switch list, the unresolved pairs and the audit in ``verify.json``
(verdict, pairs checked, unsurvivable pairs and ``base_case``).
Objectives must agree within ``REL_TOL`` relative.  Each run whose files
differ in any byte is printed with the largest absolute difference of
each ``solution`` array.  The exit status is 1 when some run decides
differently, and 0 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

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

REL_TOL = 1e-4

FILES = ("report.json", "schedule.csv", "verify.json")

SOLUTION_ARRAYS = ("u", "v", "p", "r", "flow", "theta")

# the floats of an iteration_log entry; every other field is a count
ITERATION_FLOATS = ("muc_objective",)

# (seed, buses, generators, horizon), method, workers, cbce_size and
# max_iterations (None: the default)
RANDOM_RUNS = (
    ((101, 24, 8, 4), "td_scuc", 1, None, None),
    ((101, 24, 8, 4), "td_scuc_cnr", 1, None, None),
    ((9, 40, 12, 8), "ad_scuc_cnr", 2, None, None),
    ((101, 12, 5, 4), "extensive_scuc", 1, None, None),
    # a budget of the case's 60 branches: the search may try every reconfigurable line
    ((9, 40, 12, 8), "ad_scuc_cnr", 2, 60, None),
    # the first master's schedule, cut by no pair yet: the audit decides
    # insecure pairs, by LP and by its search of the whole ranking
    ((9, 40, 12, 8), "td_scuc", 1, None, 1),
    ((9, 40, 12, 8), "td_scuc_cnr", 1, None, 1),
)


def ladder():
    """Every run of the ladder as ``(case name, case, SolveOptions)``."""
    for name, build in FIXTURES.items():
        case = build()
        for method in METHODS:
            yield name, case, SolveOptions(method=method)
    for sizes, method, workers, cbce_size, max_iterations in RANDOM_RUNS:
        name = "random_" + "_".join(map(str, sizes))
        options = SolveOptions(method=method, workers=workers)
        if cbce_size is not None:
            name += f"_cbce{cbce_size}"
            options = dataclasses.replace(options, cbce_size=cbce_size)
        if max_iterations is not None:
            name += f"_iter{max_iterations}"
            options = dataclasses.replace(options, max_iterations=max_iterations)
        yield name, random_case(*sizes), options


def run_one(case, options, target: Path) -> tuple[str, dict]:
    """Solve, report and audit one run; returns its status and audit verdict."""
    result = solve(case, options)
    paths = write_report(result.report, result.schedule, target)
    paths["timings"].unlink()
    if result.schedule is None:
        return result.status, {"verdict": "no schedule"}
    audit = verify_solution(case, result)
    verdict = {"verdict": "secure" if audit.secure else "insecure",
               "pairs_checked": audit.pairs_checked,
               "violations": [list(v) for v in audit.violations]}
    if audit.base_case is not None:
        # only when there is one, so the verdicts of secure runs keep their bytes
        verdict["base_case"] = audit.base_case
    return result.status, verdict


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


def _load(run_dir: Path, name: str) -> dict | None:
    path = run_dir / name
    return json.loads(path.read_text()) if path.exists() else None


def _decisions(run_dir: Path) -> dict:
    """What a run decided, as plain data: everything but its floats."""
    report = _load(run_dir, "report.json") or {}
    verify = _load(run_dir, "verify.json") or {}
    out = {key: report.get(key) for key in
           ("status", "converged", "iterations", "cuts_total", "switches", "unresolved")}
    out["iteration_log"] = [{key: value for key, value in stats.items()
                              if key not in ITERATION_FLOATS}
                             for stats in report.get("iteration_log", [])]
    out["pairs"] = [(s["contingency"], s["period"], s["status"], s["switch"])
                    for s in report.get("subproblems", [])]
    out["audit"] = {**verify, "violations": [(c, t) for c, t, _ in verify.get("violations", [])]}
    return out


def _objectives_agree(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=REL_TOL)


def _max_differences(parent: dict | None, change: dict | None) -> str:
    """Largest absolute difference of each solution array, or why there is none."""
    if parent is None and change is None:
        return "no solution on either side"
    if parent is None or change is None:
        return "solution on one side only"
    parts = []
    for name in SOLUTION_ARRAYS + ("objective",):
        a, b = np.asarray(parent[name], dtype=float), np.asarray(change[name], dtype=float)
        diff = np.abs(a - b).max(initial=0.0) if a.shape == b.shape else math.inf
        parts.append(f"{name} {diff:.3g}")
    return ", ".join(parts)


def compare(parent_dir: Path, change_dir: Path) -> int:
    """Print every run that differs between two ladders; 1 if any decides differently."""
    runs = sorted({path.parent.relative_to(root)
                   for root in (parent_dir, change_dir) for path in root.glob("*/*/verify.json")})
    failed = set()
    for run_name in runs:
        a, b = parent_dir / run_name, change_dir / run_name
        if not (a.is_dir() and b.is_dir()):
            failed.add(run_name)
            print(f"{run_name}: present on one side only")
            continue
        if _decisions(a) != _decisions(b):
            failed.add(run_name)
            print(f"{run_name}: decisions differ")
        objectives = [(_load(d, "report.json") or {}).get("objective") for d in (a, b)]
        if not _objectives_agree(*objectives):
            failed.add(run_name)
            print(f"{run_name}: objectives {objectives[0]} and {objectives[1]} differ "
                  f"by more than {REL_TOL} relative")
        changed = [name for name in FILES
                   if (a / name).exists() != (b / name).exists()
                   or ((a / name).exists() and (a / name).read_bytes() != (b / name).read_bytes())]
        if changed:
            solutions = [(_load(d, "report.json") or {}).get("solution") for d in (a, b)]
            print(f"{run_name}: bytes differ in {', '.join(changed)}; max |diff|: "
                  f"{_max_differences(*solutions)}")
    print(f"{len(runs)} runs compared, {len(failed)} decide differently")
    return 1 if failed else 0


def main(argv: list[str]) -> int:
    usage = "\n".join(__doc__.strip().splitlines()[2:4])
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) != 1 or argv[0].startswith("-"):
        print(usage, file=sys.stderr)
        return 1
    print(f"{run(Path(argv[0]))} runs written to {argv[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
