"""Solution drivers: extensive solves and the decomposed master/slave loops.

Both solve the master in one step, ``_solve_master``: an extensive solve
with every (outage, period) pair as a post-outage state, and the decomposed
loop with its cuts, alternating with one recourse decision per pair:
screened out, feasible, rescued by a corrective switch, or cut.  Plain
security methods cut on every unsurvivable outage; reconfiguration methods
first search for a single corrective switch and cut only when the search
fails.  The search walks a prefix of the outage's ranked switch list, its
budget: ``cbce_size`` lines in a solve, the whole list in the audit and
none for plain methods.  Accelerated variants screen the candidate set
with distribution factors before solving any LP.  The loop converges when
an iteration adds no cuts.  One routine, ``_examine_pair``, decides every
examined pair, for the loop, the extensive switch filter and
``verify_schedule`` alike; each iteration's counts and the run's switches,
unresolved pairs and cuts are read off its outcomes.  Pairs go one task
per contingency, its periods in order over the contingency's one
``OutageRows``.  An examination keeps one warm HiGHS engine per worker
thread, whose bases each task clears before its first LP, so every
contingency starts cold as on a new engine, and it builds the rows that do
not depend on the outage (``CaseRows``) once.  The rows are the only form
in which the pair layer takes the outage.
The task's switch LPs, each its pair LP plus one transaction column, run
over the same rows and engine (see ``subproblems``), and the pairs come
back in (period, contingency) order.  Only the loop's own examination
forms cuts, each by one cold LP per unsurvivable pair; the switch filter
and ``verify_schedule`` read the warm verdicts alone.  They and the
accelerated loop examine only the pairs the screen, ``run_csps``, keeps:
the one no-LP proof that a pair survives.
Each schedule must meet the rows of the model it came from, and the audit
holds it to the cut-free master's rows before it examines any pair.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .backend import DEFAULT_MILP_GAP, Engine, SolverError, solve_milp
from .caseio import CaseValidationError, IterationStats, RunReport, check_solution_fits
from .formulations import (build_muc, extract_solution, extract_switching_plan,
                           schedule_violation)
from .model import (FeasibilityCut, MucSolution, SubproblemOutcome, SystemCase,
                    is_real, validate_case)
from .network import NetworkSensitivities, build_sensitivities
from .subproblems import (CaseRows, OutageRows, find_corrective_switch, run_csps,
                          solve_pcfc)

METHODS = ("extensive_scuc", "extensive_scuc_cnr", "td_scuc", "ad_scuc",
           "td_scuc_cnr", "ad_scuc_cnr")

_CNR_METHODS = {"extensive_scuc_cnr", "td_scuc_cnr", "ad_scuc_cnr"}
_ACCELERATED = {"ad_scuc", "ad_scuc_cnr"}

# how many of an outage's ranked lines a switch search may try
DEFAULT_CBCE_SIZE = 20


@dataclass(frozen=True)
class SolveOptions:
    """How ``solve`` runs; every field is checked on construction.

    - ``method``: one of ``METHODS`` (``--method``).
    - ``max_iterations``: the most master solves of a decomposed method, an
      int >= 1; extensive methods solve once (``--max-iter``).
    - ``milp_gap``: the master MILP's relative optimality gap, a finite
      float >= 0 (``--milp-gap``).
    - ``cbce_size``: how many of an outage's ranked lines a CNR method's
      switch search may try, an int >= 0 (``--cbce-size``).
    - ``workers``: threads over the outages of one examination, an int
      >= 1; the outcomes do not depend on it (``--workers``).
    - ``time_limit``: seconds per master or extensive MILP, None for no
      limit, else a finite float > 0 (no flag).  A MILP that hits the limit
      ends the solve with ``SolverError``, incumbent or not, until ROADMAP
      item 6 gives it a status of its own.
    """

    method: str = "ad_scuc_cnr"
    max_iterations: int = 50
    milp_gap: float = DEFAULT_MILP_GAP
    cbce_size: int = DEFAULT_CBCE_SIZE
    workers: int = 1
    time_limit: float | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        for name, least in (("max_iterations", 1), ("cbce_size", 0), ("workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name} must be an int >= {least} (got {value!r})")
        if self.time_limit is not None and not (
                is_real(self.time_limit) and math.isfinite(self.time_limit)
                and self.time_limit > 0):
            raise ValueError("time_limit must be None or finite and > 0 "
                             f"(got {self.time_limit!r})")
        if not (is_real(self.milp_gap) and math.isfinite(self.milp_gap)
                and self.milp_gap >= 0):
            raise ValueError(f"milp_gap must be finite and >= 0 (got {self.milp_gap!r})")

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
    """Independent audit of a schedule: how it breaks the master's base-case
    rows (``base_case``, None if it does not) and its unsurvivable pairs."""

    method: str
    pairs_checked: int
    violations: tuple[tuple[int, int, float], ...]
    base_case: str | None

    @property
    def secure(self) -> bool:
        return self.base_case is None and not self.violations


def _finish(method: str, status: str, schedule: MucSolution | None, iterations: int,
            timings: dict[str, float | list], start: float, *, outcomes=(), log=(), cuts=(),
            switches: dict[tuple[int, int], int] | None = None) -> ScheduleResult:
    """Report and result of a run, built once for both solve paths and every end state.

    ``switches`` defaults to the pairs the outcomes rescue by switching."""
    timings["total"] = time.perf_counter() - start
    outcomes = sorted(outcomes, key=lambda o: (o.period, o.contingency))
    if switches is None:
        switches = {(o.contingency, o.period): o.switch for o in outcomes
                    if o.status == "feasible_via_switch"}
    unresolved = tuple(sorted((o.contingency, o.period) for o in outcomes
                              if o.status == "infeasible"))
    converged = status == "converged"
    report = RunReport(
        method=method, status=status, converged=converged,
        objective=schedule.objective if converged else None,
        iterations=iterations, iteration_log=list(log), subproblems=outcomes,
        switches=[(c, t, j) for (c, t), j in sorted(switches.items())],
        unresolved=list(unresolved), cuts_total=len(cuts), timings=timings)
    return ScheduleResult(method=method, status=status, converged=converged,
                          schedule=schedule, iterations=iterations, cuts=tuple(cuts),
                          switches=dict(switches), unresolved=unresolved, report=report)


def _every_pair(case: SystemCase, sens: NetworkSensitivities) -> list[tuple[int, int]]:
    """Every (contingency, period) pair, in (period, contingency) order."""
    return [(c, t) for t in case.periods for c in sens.contingencies]


def _solve_master(case: SystemCase, sens: NetworkSensitivities, options: SolveOptions,
                  timings: dict[str, float | list], cuts=(), states=()
                  ) -> tuple[MucSolution | None, dict[tuple[int, int], int]]:
    """The schedule of the master over ``cuts`` and ``states``, switchable
    under a CNR method, and the line opened per state; ``(None, {})`` when
    it is infeasible.  Build and solve seconds go to ``timings["master"]``
    and, one entry per master in solve order, to ``timings["master_s"]``,
    with the MILP's branch-and-bound nodes in ``timings["master_nodes"]``.
    """
    t0 = time.perf_counter()
    lp, switch_columns = build_muc(case, sens, cuts, states, switching=options.uses_cnr)
    result = solve_milp(lp, gap=options.milp_gap, time_limit=options.time_limit)
    seconds = time.perf_counter() - t0
    timings["master"] += seconds
    timings["master_s"].append(seconds)
    timings["master_nodes"].append(result.mip_nodes)
    if result.status == "infeasible":
        return None, {}
    if result.status != "optimal":
        raise SolverError(f"{options.method} master solve ended with status {result.status}")
    return (extract_solution(case, sens, lp, result),
            extract_switching_plan(switch_columns, result))


def _solve_extensive(case: SystemCase, options: SolveOptions,
                     sens: NetworkSensitivities,
                     timings: dict[str, float | list]) -> ScheduleResult:
    start = time.perf_counter()
    schedule, plan = _solve_master(case, sens, options, timings, states=_every_pair(case, sens))
    if schedule is None:
        return _finish(options.method, "infeasible", None, 1, timings, start)
    # opening a line costs nothing in the MILP, so it may open lines at
    # pairs that survive without one; report only the pairs that need it
    kept = run_csps(case, sens, schedule, plan).critical
    outcomes, _ = _examine(case, sens, schedule, kept, 0, options.workers)
    switches = {(o.contingency, o.period): plan[o.contingency, o.period]
                for o in outcomes if o.status == "infeasible"}
    return _finish(options.method, "converged", schedule, 1, timings, start,
                   switches=switches)


def _examine_pair(rows: OutageRows, muc: MucSolution, t: int, switch_budget: int | None,
                  counters: Counter, engine: Engine, cut: bool) -> SubproblemOutcome:
    """PCFC one pair on its outage's ``rows`` and warm ``engine``; on
    failure, search the first ``switch_budget`` ranked lines of the outage
    for a switch (all of them when None, none when 0), its LPs over the
    same rows and engine.

    The outcome is infeasible only when the pair ends up with no feasible
    recourse.  A warm solve carries no cut, so with ``cut`` such a pair is
    solved once more with no engine, ``solve_pcfc(rows, muc, t)``, whose
    outcome carries the cut.  ``counters`` gets the seconds of its LPs.
    """
    t0 = time.perf_counter()
    outcome = solve_pcfc(rows, muc, t, engine=engine)
    counters["pcfc_seconds"] += time.perf_counter() - t0
    if outcome.status == "feasible":
        return outcome
    if switch_budget != 0:
        t0 = time.perf_counter()
        found = find_corrective_switch(rows, muc, t, switch_budget=switch_budget,
                                       counters=counters, engine=engine)
        counters["nr_seconds"] += time.perf_counter() - t0
        if found is not None:
            return found
    if cut:
        t0 = time.perf_counter()
        outcome = solve_pcfc(rows, muc, t)
        counters["pcfc_seconds"] += time.perf_counter() - t0
    return outcome


def _examine(case, sens, muc, pairs, switch_budget: int | None, workers: int,
             cut: bool = False) -> tuple[list[SubproblemOutcome], Counter]:
    """``_examine_pair`` over ``pairs``, one task per contingency; with
    ``cut``, each unsurvivable pair's outcome carries its cut.

    The call builds the case's ``CaseRows`` once and at most ``workers``
    warm ``Engine``s, one per worker thread, kept idle between tasks and
    dropped when it returns.  A task builds its contingency's
    ``OutageRows`` over the shared ``CaseRows``, takes an idle engine (or a
    new one), clears its bases, so its first LP starts cold as on a new
    engine, and takes its periods in order, its pair and switch LPs on that
    engine.  Returns the outcomes in (period, contingency) order, the order
    of the master's cut rows, and the merged counters.  Each task has its
    own rows, engine and counters while it runs, so worker threads share
    only immutable inputs and the outcomes do not depend on ``workers``.
    scipy's HiGHS binding releases the GIL inside ``run``, so with
    ``workers > 1`` the LPs of two tasks solve at the same time; the Python
    and numpy work around them runs mostly one thread at a time.
    """
    periods: dict[int, list[int]] = {}
    for c, t in sorted(pairs):
        periods.setdefault(c, []).append(t)
    t0 = time.perf_counter()
    common = CaseRows(case)
    setup = time.perf_counter() - t0
    # list.pop and list.append are atomic, and a task builds an engine only
    # when every other one is taken by a running task, so no more than
    # ``workers`` are built
    idle: list[Engine] = []

    def examine(c):
        local = Counter()
        t0 = time.perf_counter()
        rows = OutageRows(case, sens, c, common)
        try:
            engine = idle.pop()
        except IndexError:
            engine = Engine()
        engine.bases.clear()
        local["pcfc_seconds"] += time.perf_counter() - t0
        try:
            return [_examine_pair(rows, muc, t, switch_budget, local, engine, cut)
                    for t in periods[c]], local
        finally:
            idle.append(engine)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            examined = list(pool.map(examine, periods))
    else:
        examined = list(map(examine, periods))
    counters = Counter(pcfc_seconds=setup)
    for _, local in examined:
        counters.update(local)
    outcomes = sorted((out for outs, _ in examined for out in outs),
                      key=lambda o: (o.period, o.contingency))
    return outcomes, counters


def _solve_decomposed(case: SystemCase, options: SolveOptions,
                      sens: NetworkSensitivities,
                      timings: dict[str, float | list]) -> ScheduleResult:
    start = time.perf_counter()
    all_pairs = _every_pair(case, sens)
    cuts: list[FeasibilityCut] = []
    log: list[IterationStats] = []
    status = "iteration_limit"

    for iteration in range(1, options.max_iterations + 1):
        schedule, _ = _solve_master(case, sens, options, timings, cuts)
        if schedule is None:
            status, outcomes = "infeasible", []
            break

        outcomes = []
        candidates = all_pairs
        if options.accelerated:
            t0 = time.perf_counter()
            candidates = run_csps(case, sens, schedule, all_pairs).critical
            timings["screening"] += time.perf_counter() - t0
            critical = set(candidates)
            outcomes = [SubproblemOutcome(contingency=c, period=t, status="screened_out", slack=0.0)
                        for c, t in all_pairs if (c, t) not in critical]

        examined, counters = _examine(case, sens, schedule, candidates,
                                      options.cbce_size if options.uses_cnr else 0,
                                      options.workers, cut=True)
        timings["pcfc"] += counters["pcfc_seconds"]
        timings["nr_pcfc"] += counters["nr_seconds"]

        outcomes += examined
        new_cuts = [out.cut for out in examined if out.status == "infeasible"]
        for cut in new_cuts:
            if any(old.same_coefficients(cut) for old in cuts):
                raise SolverError(
                    f"duplicate cut generated for pair {(cut.contingency, cut.period)}; "
                    "the master should have excluded this point")
        statuses = Counter(out.status for out in outcomes)
        log.append(IterationStats(
            iteration=iteration, muc_objective=schedule.objective, candidates=len(all_pairs),
            screened_out=statuses["screened_out"], pcfc_solved=len(examined),
            pcfc_infeasible=len(examined) - statuses["feasible"],
            nr_pcfc_solved=counters["nr_pcfc_solved"],
            switches_found=statuses["feasible_via_switch"], cuts_added=statuses["infeasible"]))
        if not new_cuts:
            status = "converged"
            break
        cuts.extend(new_cuts)

    return _finish(options.method, status, schedule, iteration, timings, start,
                   outcomes=outcomes, log=log, cuts=cuts)


def _check_case(case: SystemCase) -> None:
    """Raise ``CaseValidationError`` naming every invariant ``case`` breaks."""
    violations = validate_case(case)
    if violations:
        raise CaseValidationError(violations)


def solve(case: SystemCase, options: SolveOptions | None = None) -> ScheduleResult:
    """Solve a case with the selected method; see SolveOptions for knobs.
    Raises ``CaseValidationError``, a ValueError, for a case that fails
    ``validate_case``."""
    options = options or SolveOptions()
    _check_case(case)
    timings = {**dict.fromkeys(("master", "screening", "pcfc", "nr_pcfc", "total"), 0.0),
               "master_s": [], "master_nodes": []}
    sens = build_sensitivities(case)
    if options.method in ("extensive_scuc", "extensive_scuc_cnr"):
        return _solve_extensive(case, options, sens, timings)
    return _solve_decomposed(case, options, sens, timings)


def verify_schedule(case: SystemCase, method: str,
                    schedule: MucSolution) -> VerificationReport:
    """Audit a schedule of ``method``: its base case, then every outage.

    The schedule must meet every row and bound of the cut-free master.
    Then, whatever screening or search the producing run did, every
    non-radial outage in every period is screened by ``run_csps``, which
    drops only pairs the schedule's own dispatch survives.  Each pair it
    keeps goes through the loop's pair routine, for reconfiguration methods
    with no limit on the switch search: it may try every line of the
    outage's ranking.  ``pairs_checked`` counts every pair.

    Raises ValueError for an unknown ``method``, ``CaseValidationError`` (a
    ValueError) for a case that fails ``validate_case``, and
    ``CaseFormatError`` from ``check_solution_fits`` for a schedule that
    does not fit the case.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    _check_case(case)
    check_solution_fits(case, schedule)
    sens = build_sensitivities(case)
    base_case = schedule_violation(case, build_muc(case, sens)[0], schedule)
    pairs = _every_pair(case, sens)
    outcomes, _ = _examine(case, sens, schedule, run_csps(case, sens, schedule, pairs).critical,
                           None if method in _CNR_METHODS else 0, workers=1)
    return VerificationReport(method=method, pairs_checked=len(pairs),
                              violations=tuple((o.contingency, o.period, o.slack)
                                               for o in outcomes if o.status == "infeasible"),
                              base_case=base_case)


def verify_solution(case: SystemCase, result: ScheduleResult) -> VerificationReport:
    """``verify_schedule`` on the method and schedule of a run."""
    if result.schedule is None:
        raise ValueError("result carries no schedule to verify")
    return verify_schedule(case, result.method, result.schedule)
