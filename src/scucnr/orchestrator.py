"""Solution drivers: extensive solves and the decomposed master/slave loops.

The decomposed loop alternates a master commitment solve with per-outage
feasibility checks.  Plain security methods cut on every unsurvivable
outage; reconfiguration methods first search for a single corrective switch
and cut only when the search fails.  Accelerated variants screen the
candidate set with distribution factors before solving any LP.  The loop
converges when an iteration adds no cuts.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .backend import DEFAULT_MILP_GAP, SolverError, solve_milp
from .caseio import IterationStats, RunReport
from .formulations import (build_extensive_scuc, build_extensive_scuc_cnr,
                           build_muc, extract_solution, extract_switching_plan)
from .model import (SLACK_TOLERANCE, FeasibilityCut, MucSolution,
                    SubproblemOutcome, SystemCase, validate_case)
from .network import NetworkSensitivities, build_sensitivities
from .subproblems import find_corrective_switch, run_csps, solve_pcfc

METHODS = ("extensive_scuc", "extensive_scuc_cnr", "td_scuc", "ad_scuc",
           "td_scuc_cnr", "ad_scuc_cnr")

_CNR_METHODS = {"extensive_scuc_cnr", "td_scuc_cnr", "ad_scuc_cnr"}
_ACCELERATED = {"ad_scuc", "ad_scuc_cnr"}


def check_tolerance(name: str, value: float) -> None:
    """Reject a tolerance that is negative, infinite or NaN."""
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0 (got {value})")


@dataclass(frozen=True)
class SolveOptions:
    method: str = "ad_scuc_cnr"
    max_iterations: int = 50
    slack_tolerance: float = SLACK_TOLERANCE
    milp_gap: float = DEFAULT_MILP_GAP
    cbce_size: int = 20
    workers: int = 1
    enumerate_reconfigurable: bool = False
    audit_screening: bool = False
    time_limit: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.cbce_size < 0:
            raise ValueError("cbce_size must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.time_limit is not None and not (math.isfinite(self.time_limit)
                                                and self.time_limit > 0):
            raise ValueError("time_limit must be None or finite and > 0 "
                             f"(got {self.time_limit})")
        check_tolerance("slack_tolerance", self.slack_tolerance)
        check_tolerance("milp_gap", self.milp_gap)

    @property
    def uses_cnr(self) -> bool:
        return self.method in _CNR_METHODS

    @property
    def accelerated(self) -> bool:
        return self.method in _ACCELERATED


@dataclass(frozen=True)
class ScheduleResult:
    method: str
    status: str                       # converged | infeasible | iteration_limit
    converged: bool
    schedule: MucSolution | None
    iterations: int
    cuts: tuple[FeasibilityCut, ...]
    switches: dict[tuple[int, int], int]
    unresolved: tuple[tuple[int, int], ...]
    report: RunReport


@dataclass(frozen=True)
class VerificationReport:
    """Independent exhaustive audit of a schedule's post-outage survivability."""

    method: str
    pairs_checked: int
    violations: tuple[tuple[int, int, float], ...]

    @property
    def secure(self) -> bool:
        return not self.violations


class _Timings:
    def __init__(self):
        self.values: dict[str, float] = {"master": 0.0, "screening": 0.0,
                                         "pcfc": 0.0, "nr_pcfc": 0.0, "total": 0.0}

    def add(self, phase: str, dt: float):
        self.values[phase] = self.values.get(phase, 0.0) + dt


def _solve_extensive(case: SystemCase, options: SolveOptions,
                     sens: NetworkSensitivities, timings: _Timings) -> ScheduleResult:
    t0 = time.perf_counter()
    build = (build_extensive_scuc if options.method == "extensive_scuc"
             else build_extensive_scuc_cnr)
    lp, switch_columns = build(case, sens)
    result = solve_milp(lp, gap=options.milp_gap, time_limit=options.time_limit)
    timings.add("master", time.perf_counter() - t0)
    timings.add("total", time.perf_counter() - t0)

    if result.status == "infeasible":
        report = RunReport(method=options.method, status="infeasible", converged=False,
                           objective=None, iterations=1, timings=timings.values)
        return ScheduleResult(method=options.method, status="infeasible",
                              converged=False, schedule=None, iterations=1,
                              cuts=(), switches={}, unresolved=(), report=report)
    if result.status != "optimal":
        raise SolverError(f"extensive solve ended with status {result.status}")

    schedule = extract_solution(case, sens, result)
    # opening a line costs nothing in the MILP, so it may open lines at
    # pairs that survive without one; report only the pairs that need it
    switches = {(c, t): j for (c, t), j in extract_switching_plan(switch_columns, result).items()
                if solve_pcfc(case, sens, schedule, c, t,
                              options.slack_tolerance).status == "infeasible"}
    report = RunReport(method=options.method, status="converged", converged=True,
                       objective=schedule.objective, iterations=1,
                       switches=[(c, t, j) for (c, t), j in sorted(switches.items())],
                       timings=timings.values)
    return ScheduleResult(method=options.method, status="converged", converged=True,
                          schedule=schedule, iterations=1, cuts=(),
                          switches=switches, unresolved=(), report=report)


def _examine_pair(case, sens, muc, c, t, options, counters: Counter) -> SubproblemOutcome:
    """PCFC one pair; for reconfiguration methods, chase a switch on failure.

    The outcome is infeasible, and carries its cut, only when the pair ends
    up with no feasible recourse.
    """
    outcome = solve_pcfc(case, sens, muc, c, t, options.slack_tolerance)
    counters["pcfc_solved"] += 1
    if outcome.status == "feasible":
        return outcome
    counters["pcfc_infeasible"] += 1
    if options.uses_cnr:
        t0 = time.perf_counter()
        found = find_corrective_switch(
            case, sens, muc, c, t,
            slack_tolerance=options.slack_tolerance,
            enumerate_all=options.enumerate_reconfigurable,
            counters=counters)
        counters["nr_seconds"] += time.perf_counter() - t0
        if found is not None:
            j, s2 = found
            counters["switches_found"] += 1
            return SubproblemOutcome(contingency=c, period=t, slack=s2,
                                     status="feasible_via_switch", switch=j)
    # the cut is the subproblem's dual objective: at the schedule that
    # produced it, it must reproduce the slack optimum
    drift = abs(outcome.cut.evaluate_solution(muc) - outcome.slack)
    if drift > 1e-6:
        raise SolverError(f"cut for pair ({c},{t}) misses its slack by {drift:.2e}")
    return outcome


def _solve_decomposed(case: SystemCase, options: SolveOptions,
                      sens: NetworkSensitivities, timings: _Timings) -> ScheduleResult:
    start = time.perf_counter()
    all_pairs = [(c, t) for t in case.periods for c in sens.contingencies]
    cuts: list[FeasibilityCut] = []
    log: list[IterationStats] = []
    schedule: MucSolution | None = None
    outcomes: dict[tuple[int, int], SubproblemOutcome] = {}
    status = "iteration_limit"
    iterations = 0
    switches: dict[tuple[int, int], int] = {}
    unresolved: tuple[tuple[int, int], ...] = ()

    for iteration in range(1, options.max_iterations + 1):
        iterations = iteration
        t0 = time.perf_counter()
        master = build_muc(case, sens, cuts)
        result = solve_milp(master, gap=options.milp_gap, time_limit=options.time_limit)
        timings.add("master", time.perf_counter() - t0)
        if result.status == "infeasible":
            status = "infeasible"
            schedule = None
            outcomes = {}
            switches = {}
            break
        if result.status != "optimal":
            raise SolverError(f"master solve ended with status {result.status}")
        schedule = extract_solution(case, sens, result)

        outcomes = {}
        audit_max: float | None = None
        if options.accelerated:
            t0 = time.perf_counter()
            screen = run_csps(case, sens, schedule, all_pairs)
            timings.add("screening", time.perf_counter() - t0)
            candidates = list(screen.critical)
            critical = set(candidates)
            screened_out = [pair for pair in all_pairs if pair not in critical]
            for c, t in screened_out:
                outcomes[(c, t)] = SubproblemOutcome(
                    contingency=c, period=t, status="screened_out", slack=0.0)
            if options.audit_screening:
                audit_max = 0.0
                for c, t in screened_out:
                    check = solve_pcfc(case, sens, schedule, c, t, options.slack_tolerance)
                    audit_max = max(audit_max, check.slack)
                    if check.slack > options.slack_tolerance:
                        raise SolverError(
                            f"screen dropped ({c},{t}) but its slack is {check.slack}")
        else:
            candidates = list(all_pairs)

        # each task gets its own counters, merged after the barrier, so
        # worker threads share only immutable inputs
        def examine(pair):
            local = Counter()
            out = _examine_pair(case, sens, schedule, pair[0], pair[1], options, local)
            return pair, out, local

        t0 = time.perf_counter()
        ordered = sorted(candidates, key=lambda ct: (ct[1], ct[0]))
        if options.workers > 1:
            with ThreadPoolExecutor(max_workers=options.workers) as pool:
                examined = list(pool.map(examine, ordered))
        else:
            examined = list(map(examine, ordered))
        counters = Counter()
        for *_, local in examined:
            counters.update(local)
        examine_seconds = time.perf_counter() - t0
        timings.add("nr_pcfc", counters["nr_seconds"])
        timings.add("pcfc", max(examine_seconds - counters["nr_seconds"], 0.0))

        new_cuts: list[FeasibilityCut] = []
        switches = {}
        for pair, out, _ in examined:
            outcomes[pair] = out
            if out.status == "feasible_via_switch":
                switches[pair] = out.switch
            if out.status == "infeasible":
                for old in cuts:
                    if old.same_coefficients(out.cut):
                        raise SolverError(
                            f"duplicate cut generated for pair {pair}; "
                            "the master should have excluded this point")
                new_cuts.append(out.cut)

        log.append(IterationStats(
            iteration=iteration,
            muc_objective=schedule.objective,
            candidates=len(all_pairs),
            screened_out=len(all_pairs) - len(candidates),
            pcfc_solved=counters["pcfc_solved"],
            pcfc_infeasible=counters["pcfc_infeasible"],
            nr_pcfc_solved=counters["nr_pcfc_solved"],
            switches_found=counters["switches_found"],
            cuts_added=len(new_cuts),
            screen_audit_max_slack=audit_max,
        ))
        if not new_cuts:
            status = "converged"
            break
        cuts.extend(new_cuts)

    unresolved = tuple(sorted(pair for pair, out in outcomes.items()
                              if out.status == "infeasible"))
    timings.add("total", time.perf_counter() - start)
    converged = status == "converged"
    report = RunReport(
        method=options.method,
        status=status,
        converged=converged,
        objective=schedule.objective if (schedule is not None and converged) else None,
        iterations=iterations,
        iteration_log=log,
        subproblems=[outcomes[pair] for pair in sorted(outcomes, key=lambda ct: (ct[1], ct[0]))],
        switches=[(c, t, j) for (c, t), j in sorted(switches.items())],
        unresolved=list(unresolved),
        cuts_total=len(cuts),
        timings=timings.values,
    )
    return ScheduleResult(method=options.method, status=status, converged=converged,
                          schedule=schedule, iterations=iterations,
                          cuts=tuple(cuts), switches=dict(switches),
                          unresolved=unresolved, report=report)


def solve(case: SystemCase, options: SolveOptions | None = None) -> ScheduleResult:
    """Solve a case with the selected method; see SolveOptions for knobs."""
    options = options or SolveOptions()
    violations = validate_case(case)
    if violations:
        raise ValueError("case failed validation: "
                         + "; ".join(str(v) for v in violations))
    timings = _Timings()
    sens = build_sensitivities(case, options.cbce_size)
    if options.method in ("extensive_scuc", "extensive_scuc_cnr"):
        return _solve_extensive(case, options, sens, timings)
    return _solve_decomposed(case, options, sens, timings)


def verify_solution(case: SystemCase, result: ScheduleResult,
                    slack_tolerance: float = SLACK_TOLERANCE) -> VerificationReport:
    """Audit a schedule against every non-radial outage in every period.

    Ignores whatever screening or search the producing run did: each pair
    gets a fresh feasibility LP, and for reconfiguration methods a failed
    pair is retried against the full reconfigurable set.  An empty
    violations list means the schedule is N-1 secure (with single-switch
    recourse where the method allows it).
    """
    check_tolerance("slack_tolerance", slack_tolerance)
    if result.schedule is None:
        raise ValueError("result carries no schedule to verify")
    # the audit enumerates every switch, so it needs no ranked candidate list
    sens = build_sensitivities(case, cbce_size=0)
    allow_switching = result.method in _CNR_METHODS
    violations: list[tuple[int, int, float]] = []
    checked = 0
    for t in case.periods:
        for c in sens.contingencies:
            checked += 1
            out = solve_pcfc(case, sens, result.schedule, c, t, slack_tolerance)
            if out.status == "feasible":
                continue
            if allow_switching and find_corrective_switch(
                    case, sens, result.schedule, c, t,
                    slack_tolerance=slack_tolerance, enumerate_all=True) is not None:
                continue
            violations.append((c, t, out.slack))
    return VerificationReport(method=result.method, pairs_checked=checked,
                              violations=tuple(violations))
