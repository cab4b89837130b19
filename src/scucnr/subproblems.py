"""Per-(contingency, period) slave problems.

Three layers of increasing cost: an arithmetic screener that predicts
post-outage flows from distribution factors, a redispatch feasibility LP
whose proportional slack indicates whether the outage is survivable within
10-minute ramps and emergency ratings, and the same LP re-solved with one
additional line opened.  The switch search walks the ranked candidate list
and stops at the first feasible reconfiguration.

The feasibility LP is in shift-factor form and built directly in arrays:
its columns are the slack and one redispatch per generator, and branch
flows are post-outage PTDF products of the bus injections (generalised
LODFs for a switched pair), so no angle or flow variables appear.  Only
the four generator rows have a right-hand side that depends on the
schedule, so the Benders feasibility cut of an unsurvivable outage is read
straight off the LP's rhs-weighted duals: the generator rows give the
coefficients on ``u`` and ``p``, every other row the constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import LinearProgram, SolverError, solve_lp
from .model import (SLACK_TOLERANCE, FeasibilityCut, MucSolution,
                    SubproblemOutcome, SystemCase)
from .network import NetworkSensitivities

SCREEN_SLACK_MW = 1e-6

DUALITY_CHECK_TOL = 1e-6


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of the distribution-factor screen over a candidate set."""

    candidates: int
    critical: tuple[tuple[int, int], ...]
    overload_ratio: dict[tuple[int, int], float]


def run_csps(case: SystemCase, sens: NetworkSensitivities, muc: MucSolution,
             candidates) -> ScreeningResult:
    """Screen candidate (contingency, period) pairs by predicted overloads.

    Post-outage flow on each surviving branch is the base flow plus the
    distribution factor times the outaged branch's base flow; a pair stays
    critical iff some predicted magnitude exceeds that branch's emergency
    rating.  Pure arithmetic, no optimization: one branches-by-pairs
    broadcast.  The outaged branch itself predicts exactly zero
    (``LODF[c, c] = -1``), so it never raises a pair's ratio or excess.
    """
    pairs = sorted(candidates, key=lambda ct: (ct[1], ct[0]))
    for c, _ in pairs:
        if c not in sens.non_radial:
            raise ValueError(f"branch {c} is not a valid contingency")
    out = [case.branch_index[c] for c, _ in pairs]
    flow = muc.flow[:, [t - 1 for _, t in pairs]]
    predicted = np.abs(flow + sens.lodf[:, out] * flow[out, np.arange(len(pairs))])
    rate = np.array([k.rate_emergency for k in case.branches])[:, None]
    worst_ratio = (predicted / rate).max(axis=0, initial=0.0)
    worst_excess = (predicted - rate).max(axis=0, initial=-np.inf)
    critical = tuple(pair for pair, excess in zip(pairs, worst_excess)
                     if excess > SCREEN_SLACK_MW)
    return ScreeningResult(candidates=len(pairs), critical=critical,
                           overload_ratio=dict(zip(pairs, worst_ratio.tolist())))


def post_outage_flows(case: SystemCase, ptdf: np.ndarray,
                      t: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Branch flows of period ``t`` as a linear function of generator outputs.

    ``ptdf`` holds rows of ``NetworkSensitivities.outage_ptdf(removed)``.
    With ``pg`` the outputs in ``case.generators`` order, the flows are
    ``at_gens @ pg - demand_flow``; they hold when ``pg`` sums to
    ``total``, the period's demand.  The feasibility LP and the extensive
    models build every post-outage flow from these three.
    """
    demand = np.array([case.demand(n.id, t) for n in case.buses])
    at_gens = ptdf[:, [case.bus_index[g.bus] for g in case.generators]]
    return at_gens, ptdf @ demand, demand.sum()


def _slack_lp(case: SystemCase, sens: NetworkSensitivities, muc: MucSolution, t: int,
              removed: tuple[int, ...], name: str) -> LinearProgram:
    """Redispatch feasibility LP in shift-factor form.

    Columns are the slack ``s`` and one post-outage output per generator.
    Rows: four ramp/output limits per generator, the system balance, and
    the two emergency limits of every in-service branch, whose flow is the
    post-outage PTDF times the bus injections.  The slack scales each
    right-hand side towards the universally feasible all-zeros point, so
    the slack column equals the rhs column.
    """
    gens = case.generators
    n_g = len(gens)
    u = np.array([muc.commitment(g.id, t) for g in gens], dtype=float)
    p = np.array([muc.dispatch(g.id, t) for g in gens])
    ramp = np.array([g.ramp_10 for g in gens]) * u
    p_min = np.array([g.p_min for g in gens]) * u
    p_max = np.array([g.p_max for g in gens]) * u

    in_service = np.ones(len(case.branches), dtype=bool)
    in_service[[case.branch_index[k] for k in removed]] = False
    rate = np.array([k.rate_emergency for k in case.branches])[in_service]
    # branch flow is at_gens @ pg - demand_flow * (1 - s)
    at_gens, demand_flow, total = post_outage_flows(
        case, sens.outage_ptdf(removed)[in_service], t)
    n_k = len(rate)

    free = np.full(n_g, np.inf)
    free_k = np.full(n_k, np.inf)
    # rd, ru, omin, omax, upper flow limit, lower flow limit, balance
    row_lower = np.concatenate((-free, -free, p_min, -free, -free_k, demand_flow - rate,
                                [total]))
    row_upper = np.concatenate((ramp - p, ramp + p, free, p_max, rate + demand_flow, free_k,
                                [total]))
    rhs = np.where(np.isfinite(row_upper), row_upper, row_lower)
    eye = np.eye(n_g)
    coef = np.vstack((-eye, eye, eye, eye, at_gens, at_gens, np.ones(n_g)))
    return LinearProgram(
        cost=np.concatenate(([1.0], np.zeros(n_g))),
        a=np.hstack((rhs[:, None], coef)),
        row_lower=row_lower,
        row_upper=row_upper,
        lb=np.concatenate(([0.0], np.full(n_g, -np.inf))),
        ub=np.full(n_g + 1, np.inf),
        name=name,
    )


def _solve_slack_lp(lp: LinearProgram):
    name = lp.name
    result = solve_lp(lp)
    if result.status != "optimal":
        # the all-zeros redispatch with slack 1 is always feasible
        raise SolverError(f"{name} must always be solvable, engine says {result.status}")
    slack = float(result.x[0])
    if slack < -1e-9 or slack > 1.0 + 1e-6:
        raise SolverError(f"{name} slack {slack} escaped [0, 1]")
    gap = abs(result.dual_objective() - result.objective)
    if gap > DUALITY_CHECK_TOL:
        raise SolverError(f"{name} dual accounting off by {gap:.2e}")
    return result, max(slack, 0.0)


def solve_pcfc(case: SystemCase, sens: NetworkSensitivities, muc: MucSolution,
               c: int, t: int, slack_tolerance: float = SLACK_TOLERANCE) -> SubproblemOutcome:
    """Redispatch feasibility check for one outage in one period.

    Minimizes a proportional slack over the 10-minute redispatch polytope of
    the given schedule with branch ``c`` out of service.  Slack zero means
    the outage is survivable.  An infeasible outcome carries its Benders
    feasibility cut: the LP's dual objective ``row_rhs @ row_duals`` with
    the generator rows' right-hand sides (``R10 u - p``, ``R10 u + p``,
    ``p_min u``, ``p_max u``) written as functions of the master's ``u`` and
    ``p``, and every other row summed into the constant.
    """
    lp = _slack_lp(case, sens, muc, t, (c,), f"pcfc[{c},{t}]")
    result, slack = _solve_slack_lp(lp)
    if slack <= slack_tolerance:
        return SubproblemOutcome(contingency=c, period=t, status="feasible", slack=slack)

    gens = case.generators
    n_g = len(gens)
    # duals in the orientation _slack_lp writes each row in
    rd, ru, omin, omax = result.row_duals[:4 * n_g].reshape(4, n_g)
    p_min = np.array([g.p_min for g in gens])
    p_max = np.array([g.p_max for g in gens])
    ramp = np.array([g.ramp_10 for g in gens])
    coef_u = p_min * omin + p_max * omax + ramp * (rd + ru)
    coef_p = ru - rd
    cut = FeasibilityCut(
        contingency=c, period=t,
        coef_u={g.id: v for g, v in zip(gens, coef_u.tolist()) if v != 0.0},
        coef_p={g.id: v for g, v in zip(gens, coef_p.tolist()) if v != 0.0},
        constant=float(result.row_rhs[4 * n_g:] @ result.row_duals[4 * n_g:]))
    return SubproblemOutcome(contingency=c, period=t, status="infeasible",
                             slack=slack, cut=cut)


def solve_nr_pcfc(case: SystemCase, sens: NetworkSensitivities, muc: MucSolution,
                  c: int, t: int, j: int,
                  slack_tolerance: float = SLACK_TOLERANCE) -> SubproblemOutcome:
    """Feasibility check with branch ``c`` out and branch ``j`` switched open.

    Raises ValueError when opening both branches islands a bus (see
    ``NetworkSensitivities.islands``).  No cut is formed; the outcome
    only records whether this reconfiguration rescues the schedule.
    """
    if j == c:
        raise ValueError("switch candidate must differ from the contingency")
    lp = _slack_lp(case, sens, muc, t, (c, j), f"nr_pcfc[{c},{t},{j}]")
    _, slack = _solve_slack_lp(lp)
    if slack <= slack_tolerance:
        return SubproblemOutcome(contingency=c, period=t, slack=slack,
                                 status="feasible_via_switch", switch=j)
    return SubproblemOutcome(contingency=c, period=t, slack=slack,
                             status="infeasible")


def switch_candidates(case: SystemCase, sens: NetworkSensitivities, c: int,
                      enumerate_all: bool = False):
    """Lines that may open after outage ``c``, in the order they are tried.

    Walks the ranked closest-branches list of ``c`` (or, with
    ``enumerate_all``, every non-radial branch in id order) and yields each
    line that is reconfigurable, non-radial, not ``c``, and does not island
    a bus together with ``c`` by the LODF block test.  The ranked list is
    truncated before it is filtered.  Lazy, so a search that stops at its
    first rescue tests no later candidate.
    """
    ordered = sorted(sens.non_radial) if enumerate_all else sens.cbce.get(c, ())
    for j in ordered:
        if (j != c and j in sens.non_radial and case.branch(j).reconfigurable
                and not sens.islands((c, j))):
            yield j


def find_corrective_switch(case: SystemCase, sens: NetworkSensitivities,
                           muc: MucSolution, c: int, t: int,
                           slack_tolerance: float = SLACK_TOLERANCE,
                           enumerate_all: bool = False,
                           counters: dict | None = None) -> tuple[int, float] | None:
    """First switching candidate that makes the outage survivable, if any.

    Candidates come from ``switch_candidates`` (the ranked list, or with
    ``enumerate_all`` the full reconfigurable set, as the audit uses it)
    and are tried one at a time.  Returns ``(branch, slack)`` for the first
    feasible candidate, or None when the list is exhausted.
    """
    for j in switch_candidates(case, sens, c, enumerate_all):
        outcome = solve_nr_pcfc(case, sens, muc, c, t, j, slack_tolerance)
        if counters is not None:
            counters["nr_pcfc_solved"] = counters.get("nr_pcfc_solved", 0) + 1
        if outcome.status == "feasible_via_switch":
            return j, outcome.slack
    return None
