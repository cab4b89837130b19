"""Optimization models: the master unit commitment, with its feasibility
cuts and post-outage states, and the extraction of its schedule.

Every model is built straight into a ``LinearProgram`` by ``build_muc`` and
addressed by column position.  It opens with the base-case columns of
``base_columns``: per generator and period, the commitment and start-up
binaries ``u`` and ``v``, the dispatch ``p`` and the 10-minute reserve
``r`` in MW.  Each post-outage state, an (outage, period) pair, then adds
the redispatched outputs ``pc`` and, with switching, per switchable line a
binary ``z`` that keeps it in service (1) or opens it (0) and the flow
``w`` it sheds when opened.  The two extensive security-constrained models
are the master with every pair as a state, without and with switching.
Periods are 1-based.

Every model is in shift-factor form: flows are not columns but PTDF rows
over the generator outputs, from ``NetworkSensitivities.ptdf`` in the base
case.  Each post-outage state is the feasibility LP's own row block,
``subproblems.OutageRows``, and its ``w`` columns the switch LP's
transaction column, one per switchable line.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .backend import INF, CscMatrix, LinearProgram, SolveResult, SolverError, violation
from .model import FeasibilityCut, MucSolution, SystemCase
from .network import NetworkSensitivities, bus_angles, bus_injections
from .subproblems import CaseRows, OutageRows, switch_candidates

INTEGRALITY_TOL = 1e-5
# HiGHS's small_matrix_value: it drops matrix entries of this magnitude or
# less as it loads a model
_SMALL_MATRIX_VALUE = 1e-9

# ``(contingency, period) -> {switchable line: its z column}``
SwitchColumns = dict[tuple[int, int], dict[int, int]]


class _Problem:
    """A MILP under construction: columns by position, rows as COO triplets.

    Rows are appended in order and each row names a column once, so the
    triplets lower to compressed columns with one stable sort.
    Coefficients of magnitude ``_SMALL_MATRIX_VALUE`` or less are dropped
    as they come, as HiGHS would drop them on load; a NaN coefficient,
    which that test would drop too, raises ``ValueError`` naming its row.
    """

    def __init__(self):
        self.cost: list[float] = []
        self.lb: list[float] = []
        self.ub: list[float] = []
        self.integer: list[int] = []
        self.row_lower: list[float] = []
        self.row_upper: list[float] = []
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []

    def add_column(self, lb: float = -INF, ub: float = INF, cost: float = 0.0,
                   binary: bool = False) -> int:
        if binary:
            lb, ub = 0.0, 1.0
        self.cost.append(cost)
        self.lb.append(lb)
        self.ub.append(ub)
        self.integer.append(int(binary))
        return len(self.cost) - 1

    def add_row(self, terms: Iterable[tuple[int, float]], lo: float = -INF,
                hi: float = INF) -> None:
        """Append ``lo <= sum(coef * x[col]) <= hi`` over ``(col, coef)`` terms.

        Repeated columns are summed and coefficients of magnitude
        ``_SMALL_MATRIX_VALUE`` or less dropped.
        """
        merged: dict[int, float] = {}
        for col, coef in terms:
            merged[col] = merged.get(col, 0.0) + coef
        row = len(self.row_lower)
        for col, coef in merged.items():
            if abs(coef) > _SMALL_MATRIX_VALUE:
                self._rows.append(row)
                self._cols.append(col)
                self._vals.append(coef)
            elif math.isnan(coef):
                raise ValueError(f"row {row} has a NaN coefficient on column {col}")
        self.row_lower.append(float(lo))
        self.row_upper.append(float(hi))

    def add_rows(self, coef: np.ndarray, cols: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> None:
        """Append ``lo <= coef @ x[cols] <= hi`` over distinct ``cols``,
        dropping coefficients of magnitude ``_SMALL_MATRIX_VALUE`` or less."""
        nan = np.isnan(coef)
        if nan.any():
            row, at = np.argwhere(nan)[0]
            raise ValueError(f"row {len(self.row_lower) + row} has a NaN coefficient "
                             f"on column {cols[at]}")
        rows, at = np.nonzero(np.abs(coef) > _SMALL_MATRIX_VALUE)
        self._rows.extend((rows + len(self.row_lower)).tolist())
        self._cols.extend(cols[at].tolist())
        self._vals.extend(coef[rows, at].tolist())
        self.row_lower.extend(lo.tolist())
        self.row_upper.extend(hi.tolist())

    def lower(self, name: str) -> LinearProgram:
        cols = np.array(self._cols, dtype=np.int32)
        # stable, so each column keeps its rows in the increasing order they came in
        order = np.argsort(cols, kind="stable")
        start = np.zeros(len(self.cost) + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=len(self.cost)), out=start[1:])
        a = CscMatrix(shape=(len(self.row_lower), len(self.cost)), start=start,
                      index=np.array(self._rows, dtype=np.int32)[order],
                      value=np.array(self._vals, dtype=float)[order])
        return LinearProgram(
            cost=np.array(self.cost, dtype=float),
            a=a,
            row_lower=np.array(self.row_lower, dtype=float),
            row_upper=np.array(self.row_upper, dtype=float),
            lb=np.array(self.lb, dtype=float),
            ub=np.array(self.ub, dtype=float),
            integrality=np.array(self.integer) if any(self.integer) else None,
            name=name)


def base_columns(case: SystemCase) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Column positions of ``u``, ``v``, ``p`` and ``r``, each ``[generator, t - 1]``.

    Every model built here opens with these ``4 G T`` columns, interleaved
    per (generator, period) in ``case.generators`` order.
    """
    first = 4 * np.arange(len(case.generators) * case.horizon).reshape(
        len(case.generators), case.horizon)
    return first, first + 1, first + 2, first + 3


def _add_base_model(prob: _Problem, case: SystemCase, sens: NetworkSensitivities) -> None:
    """Base-case commitment, dispatch, reserve and network columns and rows."""
    T = case.horizon
    gens = case.generators
    u, v, p, r = base_columns(case)

    for g in gens:
        for t in case.periods:
            prob.add_column(binary=True, cost=g.cost_no_load)
            prob.add_column(binary=True, cost=g.cost_startup)
            prob.add_column(lb=0.0, ub=g.p_max, cost=g.cost_linear)
            prob.add_column(lb=0.0, ub=g.ramp_10)

    for gi, g in enumerate(gens):
        u0 = 1.0 if g.initial_status else 0.0
        p0 = g.initial_output
        for t in case.periods:
            ut, vt, pt, rt = u[gi, t - 1], v[gi, t - 1], p[gi, t - 1], r[gi, t - 1]

            # output above p_min and, with its reserve, below p_max; reserve below ramp_10
            prob.add_row([(pt, 1.0), (ut, -g.p_min)], lo=0.0)
            prob.add_row([(pt, 1.0), (rt, 1.0), (ut, -g.p_max)], hi=0.0)
            prob.add_row([(rt, 1.0), (ut, -g.ramp_10)], hi=0.0)
            # total 10-minute reserve must cover each unit's output plus its
            # own reserve (the unit's own contribution stays in the sum)
            prob.add_row([(q, 1.0) for q in r[:, t - 1]] + [(pt, -1.0), (rt, -1.0)], lo=0.0)

            # ramp up, ramp down and start-up, from the initial state in period 1
            if t == 1:
                prob.add_row([(pt, 1.0), (vt, -g.ramp_startup)],
                             hi=p0 + g.ramp_hourly * u0)
                prob.add_row([(pt, -1.0), (ut, -g.ramp_hourly + g.ramp_shutdown),
                              (vt, -g.ramp_shutdown)],
                             hi=-p0 + g.ramp_shutdown * u0)
                prob.add_row([(vt, 1.0), (ut, -1.0)], lo=-u0)
            else:
                pm, um = p[gi, t - 2], u[gi, t - 2]
                prob.add_row([(pt, 1.0), (pm, -1.0), (um, -g.ramp_hourly),
                              (vt, -g.ramp_startup)], hi=0.0)
                prob.add_row([(pm, 1.0), (pt, -1.0), (ut, -g.ramp_hourly + g.ramp_shutdown),
                              (vt, -g.ramp_shutdown), (um, -g.ramp_shutdown)], hi=0.0)
                prob.add_row([(vt, 1.0), (ut, -1.0), (um, 1.0)], lo=0.0)

        # minimum run / minimum rest windows, only over the in-horizon ranges
        for t in range(g.min_up, T + 1):
            window = v[gi, t - g.min_up:t]
            prob.add_row([(q, 1.0) for q in window] + [(u[gi, t - 1], -1.0)], hi=0.0)
        for t in range(1, T - g.min_down + 1):
            window = v[gi, t:t + g.min_down]
            prob.add_row([(q, 1.0) for q in window] + [(u[gi, t - 1], 1.0)], hi=1.0)

    # per branch one ranged row for both long-term limits: no MILP reads its
    # duals, and the one-finite-side rule holds only for the LPs of solve_lp
    rating = np.array([k.rate_long_term for k in case.branches])
    at_gens = sens.ptdf[:, [case.bus_index[g.bus] for g in gens]]
    for t in case.periods:
        demand = np.array([n.demand[t - 1] for n in case.buses])
        demand_flow, total = sens.ptdf @ demand, demand.sum()
        prob.add_row([(q, 1.0) for q in p[:, t - 1]], lo=total, hi=total)
        prob.add_rows(at_gens, p[:, t - 1], demand_flow - rating, demand_flow + rating)


def build_muc(case: SystemCase, sens: NetworkSensitivities,
              cuts: Iterable[FeasibilityCut] = (), states: Iterable[tuple[int, int]] = (),
              switching: bool = False) -> tuple[LinearProgram, SwitchColumns]:
    """Master unit commitment: the base case, a row per feasibility cut and
    a post-outage state per (contingency, period) of ``states``.

    With every pair as ``states`` this is the co-optimized N-1 SCUC, and
    with ``switching`` the N-1 SCUC with corrective network reconfiguration:
    each state may also open one line that ``switch_candidates`` yields over
    the outage's whole ranking, the switch search's rule (reconfigurable,
    non-radial, not the outage and not islanding with it; see
    ``_add_post_outage_state``), its ``z`` columns in id order.  States go
    in sorted ``(c, t)`` order, and each contingency builds its
    ``OutageRows``, over one ``CaseRows`` of the case, and their LODF
    shedding once.  Returns the model and, per state, the ``z`` column of
    each switchable line.  A malformed cut or a state outside
    ``sens.contingencies`` x ``case.periods`` raises ``ValueError``.
    """
    prob = _Problem()
    _add_base_model(prob, case, sens)
    u, _, p, _ = base_columns(case)
    n_g = len(case.generators)
    for cut in cuts:
        if len(cut.coef_u) != n_g or len(cut.coef_p) != n_g:
            raise ValueError(f"cut for pair ({cut.contingency},{cut.period}) needs one u and "
                             f"one p coefficient per generator; the case has {n_g} generators")
        t = cut.period - 1
        prob.add_row([*zip(u[:, t], cut.coef_u), *zip(p[:, t], cut.coef_p)], hi=-cut.constant)

    periods: dict[int, list[int]] = {}
    for c, t in sorted(states):
        if c not in sens.non_radial or t not in case.periods:
            raise ValueError(f"state ({c},{t}) is not a contingency in a period of the case")
        periods.setdefault(c, []).append(t)
    switches: SwitchColumns = {}
    common = CaseRows(case) if periods else None
    for c, ts in periods.items():
        rows = OutageRows(case, sens, c, common)
        switchable = tuple(sorted(switch_candidates(rows))) if switching else ()
        # both limit rows of every in-service branch k carry LODF_c[k] @ w
        shed = rows.shed(switchable)
        for t in ts:
            switches[(c, t)] = _add_post_outage_state(prob, case, rows, t, switchable, shed)
    return prob.lower("muc"), switches


def _add_post_outage_state(prob: _Problem, case: SystemCase, rows: OutageRows, t: int,
                           switchable: tuple[int, ...], shed: np.ndarray) -> dict[int, int]:
    """The ``rows`` of one outage in period ``t`` over a new redispatch ``pc``.

    Each state gets its own redispatch, system balance and the emergency
    limits of every branch but the outaged one, with flows from the
    post-outage PTDF the feasibility LP uses.  Each line ``j`` of
    ``switchable`` gets a binary ``z`` (1 keeps it in service) and the
    switch LP's flow-cancelling transaction ``w`` (see ``OutageRows``):
    ``|w| <= M (1 - z)`` and ``|w - f_j| <= M z``, where ``f_j`` is the
    post-outage flow on ``j`` before switching.  These rows go between the
    balance and the flow limits.  Every branch ``k`` carries its
    post-outage flow plus ``LODF_c[k, j] w`` (``shed``), so an opened line
    carries zero and the rest the flows of the switch search's LP.  At most
    one line opens per state, so the model is exact.

    ``M = sum_g |PTDF_c[j, bus g]| p_max_g + |PTDF_c[j] @ d_t|`` bounds
    ``|f_j|`` at every redispatch ``0 <= pc <= p_max``, so the big-M rows
    never cut off a feasible point.  Returns the ``z`` column of each
    switchable line.
    """
    u, _, p, _ = base_columns(case)
    a, b, lo, hi = rows.at(t)
    gen_rows = 4 * len(case.generators) + 1
    # generator rows and the balance, then the switch rows, then the flow rows
    pc = np.array([prob.add_column(lb=0.0, ub=g.p_max) for g in case.generators])
    prob.add_rows(np.hstack((a[:gen_rows], b[:gen_rows])),
                  np.concatenate((pc, u[:, t - 1], p[:, t - 1])), lo[:gen_rows], hi[:gen_rows])

    z: dict[int, int] = {}
    w: list[int] = []
    if switchable:
        at_gens, demand_flow = rows.at_gens, rows.demand_flow(t)
        p_max = np.array([g.p_max for g in case.generators])
    for j in switchable:
        i = case.branch_index[j]
        m = float(np.abs(at_gens[i]) @ p_max + abs(demand_flow[i]))
        zj = z[j] = prob.add_column(binary=True)
        wj = prob.add_column()
        w.append(wj)
        # w = 0 while j is in service (z = 1) ...
        prob.add_row([(wj, 1.0), (zj, m)], hi=m)
        prob.add_row([(wj, 1.0), (zj, -m)], lo=-m)
        # ... and w = at_gens[j] @ pc - demand_flow[j] once it is opened (z = 0)
        dev = list(zip(pc.tolist(), -at_gens[i])) + [(wj, 1.0)]
        prob.add_row(dev + [(zj, -m)], hi=-demand_flow[i])
        prob.add_row(dev + [(zj, m)], lo=-demand_flow[i])
    if switchable:
        prob.add_row([(zj, 1.0) for zj in z.values()], lo=len(z) - 1)

    prob.add_rows(np.hstack((a[gen_rows:], shed)), np.concatenate((pc, np.array(w, dtype=int))),
                  lo[gen_rows:], hi[gen_rows:])
    return z


def schedule_violation(case: SystemCase, lp: LinearProgram, schedule: MucSolution,
                       x: np.ndarray | None = None) -> str | None:
    """How ``schedule`` breaks a bound or row of ``lp`` by more than
    ``INTEGRALITY_TOL``, naming the periods of its base columns, or None.

    The schedule's ``u, v, p, r`` fill the base columns of ``x`` (zero
    without it), which holds the values of ``lp``'s other columns.
    """
    point = np.zeros(len(lp.cost)) if x is None else x.copy()
    for columns, values in zip(base_columns(case),
                               (schedule.u, schedule.v, schedule.p, schedule.r)):
        point[columns] = values
    broken = violation(lp, point, INTEGRALITY_TOL)
    if broken is None:
        return None
    kind, index, excess = broken
    columns = [index] if kind == "column" else lp.a.row_columns(index)
    n_base = 4 * len(case.generators) * case.horizon
    periods = sorted({col // 4 % case.horizon + 1 for col in columns if col < n_base})
    where = ""
    if periods:
        where = f" in period {periods[0]}" + (f"-{periods[-1]}" if len(periods) > 1 else "")
    return f"{kind} {index} of {lp.name!r}{where} is broken by {excess:.3g}"


def extract_solution(case: SystemCase, sens: NetworkSensitivities, lp: LinearProgram,
                     result: SolveResult) -> MucSolution:
    """Pull the base-case schedule out of the solve ``result`` of ``lp``.

    ``lp`` is a model of ``build_muc``.  Only ``u``, ``v`` and ``p`` are
    read from the solve.  Reserve, flows and angles are derived from the
    cleaned dispatch (see ``MucSolution``).  The cleaned schedule must still
    meet every row and bound of ``lp``, its cuts or post-outage states too.
    """
    if result.status != "optimal":
        raise SolverError(f"cannot extract a schedule from a {result.status} result")
    u_col, v_col, p_col, _ = base_columns(case)
    p_max = np.array([[g.p_max] for g in case.generators])
    ramp_10 = np.array([[g.ramp_10] for g in case.generators])
    # Scrub solver noise off the schedule: binaries at 0 or 1, offline units
    # at exactly zero and outputs inside their physical box.  Downstream
    # subproblems scale their right-hand sides by these numbers, so an
    # epsilon-negative output would otherwise masquerade as a real violation.
    u = np.round(result.x[u_col]).astype(np.int8)
    v = np.round(result.x[v_col]).astype(np.int8)
    cleaned_p = np.clip(result.x[p_col], 0.0, p_max) * u
    for name, cleaned, col in (("u", u, u_col), ("v", v, v_col), ("p", cleaned_p, p_col)):
        drift = np.abs(cleaned - result.x[col]).max(initial=0.0)
        if drift > INTEGRALITY_TOL:
            raise SolverError(f"cleaning moves {name} by {drift:.2e}")
    # Reserve has no cost, so the solver's split depends on its path.  Report
    # the largest reserve each unit can hold instead: it is at least the
    # solver's, so it meets every reserve row the solver's split met.
    reserve = np.minimum(ramp_10, p_max - cleaned_p) * u
    injections = bus_injections(case, cleaned_p)
    solution = MucSolution(
        generator_ids=tuple(g.id for g in case.generators),
        branch_ids=tuple(k.id for k in case.branches), bus_ids=tuple(b.id for b in case.buses),
        u=u, v=v, p=cleaned_p, r=reserve, flow=sens.ptdf @ injections,
        theta=bus_angles(case, injections), objective=float(result.objective))
    problem = schedule_violation(case, lp, solution, result.x)
    if problem is not None:
        raise SolverError(f"cleaned schedule fails its model: {problem}")
    return solution


def extract_switching_plan(switches: SwitchColumns,
                           result: SolveResult) -> dict[tuple[int, int], int]:
    """The line opened per (contingency, period) state by a switching master.

    ``switches`` is the map of ``z`` columns ``build_muc`` returned with the
    solved model.
    """
    return {state: j for state, columns in switches.items()
            for j, col in columns.items() if result.x[col] < 0.5}
