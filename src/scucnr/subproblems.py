"""Per-(contingency, period) slave problems.

Four layers of increasing cost: an arithmetic screener that checks the
schedule's own dispatch against a pair's rows, with post-outage flows
from distribution factors, a redispatch feasibility LP whose
proportional slack indicates whether the outage is survivable within
10-minute ramps and emergency ratings, an interval bound that proves
opening a further line hopeless from the LP's own generator box, and the
same LP re-solved with that line opened.  The switch search walks a prefix
of the ranked candidate list, the search budget, solves the LP only for
the lines the bound cannot rule out, and stops at the first feasible
reconfiguration.

The rows of a post-outage state are defined once, by ``OutageRows``, as
arrays ``lo <= a @ pc + b @ [u; p] <= hi`` over the redispatch ``pc``
and the schedule's ``u`` and ``p``, with flows from the post-outage PTDF;
the parts that do not depend on the outage are one ``CaseRows``, which
the outages of one examination share.
A switched state is the same rows plus one transaction column ``w``,
which carries the opened line's flow off the network by the outage's
LODFs, and the one row that sets it.  The feasibility LP moves
``b @ [u; p]`` to the right-hand side; the Benders feasibility cut of an
unsurvivable outage is its dual objective with ``u`` and ``p`` left free,
read straight off the duals; the extensive models append the same rows
over their own ``pc``, ``u`` and ``p`` columns.

The slack optimum of a feasibility LP is exactly 0 or 1.  Each of its rows
reads ``s r + A x <= r``, ``>= r`` or ``= r``, where ``r`` is the row's
finite side, and ``x`` (``pc``, and ``w`` with a switch) is free, so the
feasible set is a cone in ``(x, 1 - s)``: if some ``s < 1`` is feasible,
then ``x / (1 - s)`` with ``s = 0`` is too.  So an LP started from another
LP's basis (``backend.Engine``) reaches the verdict a fresh engine would,
whatever optimal vertex it lands on, with a switch or without.  For the
same reason the verdict threshold is a constant, ``SLACK_TOLERANCE``, and
every LP's slack is checked to lie within it of 0 or of 1.  An outage's
pair LPs share one shape and its switch LPs, the pair LP plus one column
and one row, another, so one engine serves both, and the switch LPs of
an outage chain across candidates and periods.

The pair layer takes each outage as its ``OutageRows``.  One routine,
``solve_pcfc(rows, muc, t, switch=None, engine=None)``, solves every LP
of a post-outage state, as it stands or with one line opened, warm on
``engine`` when given one.  The duals, and with them the cut, are not
unique, so a cut is read only off a fresh engine: an unswitched,
unsurvivable state solved with no ``engine`` carries its cut, and no
other solve does.  ``rows.hopeless(muc, t, js)`` proves lines hopeless
with no LP, and ``switch_candidates(rows)`` and
``find_corrective_switch(rows, muc, t)`` walk the ranking.  The one proof
that a pair survives with no LP is the screen, ``run_csps``, over many
pairs at once: the schedule's own dispatch meets every row of each
dropped pair's LP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .backend import Engine, LinearProgram, SolverError, solve_lp
from .model import FeasibilityCut, MucSolution, SubproblemOutcome, SystemCase
from .network import NetworkSensitivities, bus_injections, lodf_columns

# how far the schedule's own dispatch may break a row of a pair's
# feasibility LP and still let the screen drop the pair: below the engine's
# 1e-7 primal tolerance
SCREEN_TOL_MW = 1e-9

DUALITY_CHECK_TOL = 1e-6

# the verdict threshold on a feasibility LP's slack, a constant because the
# slack optimum is exactly 0 or 1 (see the module docstring), which
# ``solve_pcfc`` enforces: it raises on a slack not within this of either
SLACK_TOLERANCE = 1e-6

# how far a branch's whole flow interval over the redispatch box must clear
# its emergency rating to prove a switch hopeless (``OutageRows.hopeless``):
# ten times the engine's 1e-7 primal tolerance
HOPELESS_MARGIN_MW = 1e-6

# switch candidates bounded at once: a default search of 20 ranked lines
# takes one block, and the audit's walk of a whole ranking at 118 buses
# never holds a branches x candidates x generators array over every line
HOPELESS_BLOCK = 32


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of the distribution-factor screen over a candidate set."""

    candidates: int
    critical: tuple[tuple[int, int], ...]


def run_csps(case: SystemCase, sens: NetworkSensitivities, muc: MucSolution,
             candidates) -> ScreeningResult:
    """Screen candidate (contingency, period) pairs by the schedule's own
    dispatch: a pair is dropped only when ``s = 0, pc = p`` (no redispatch)
    meets every row of its feasibility LP within ``SCREEN_TOL_MW``, which
    proves the LP's slack optimum 0.  Pure arithmetic, no optimization.

    Flow rows: post-outage flow on each surviving branch is the base flow
    plus the distribution factor times the outaged branch's base flow, one
    branches-by-pairs broadcast; the outaged branch predicts exactly zero
    (``LODF[c, c] = -1``).  The base flows come from ``muc.p`` and the
    demand, as ``extract_solution`` computes them, never from ``muc.flow``,
    which a report read back from a file carries unchecked.  The generator
    box (``p_min u <= p <= p_max u``) and balance rows do not depend on the
    outage, so a period whose ``p`` breaks one keeps all of its pairs.  The
    ramp rows hold exactly at ``pc = p``.
    """
    pairs = sorted(candidates, key=lambda ct: (ct[1], ct[0]))
    for c, _ in pairs:
        if c not in sens.non_radial:
            raise ValueError(f"branch {c} is not a valid contingency")
    u, p = muc.u, muc.p
    p_min = np.array([g.p_min for g in case.generators])[:, None]
    p_max = np.array([g.p_max for g in case.generators])[:, None]
    demand = np.array([b.demand for b in case.buses]).sum(axis=0)
    period_excess = np.maximum(
        np.maximum(p_min * u - p, p - p_max * u).max(axis=0, initial=-np.inf),
        np.abs(p.sum(axis=0) - demand))
    out = [case.branch_index[c] for c, _ in pairs]
    periods = [t - 1 for _, t in pairs]
    flow = (sens.ptdf @ bus_injections(case, p))[:, periods]
    predicted = np.abs(flow + sens.lodf[:, out] * flow[out, np.arange(len(pairs))])
    rate = np.array([k.rate_emergency for k in case.branches])[:, None]
    worst_excess = np.maximum((predicted - rate).max(axis=0, initial=-np.inf),
                              period_excess[periods])
    # a positive condition, so that a NaN keeps its pair
    critical = tuple(pair for pair, excess in zip(pairs, worst_excess)
                     if not excess <= SCREEN_TOL_MW)
    return ScreeningResult(candidates=len(pairs), critical=critical)


# per generator, on its own pc, u and p: ramp-down, ramp-up, minimum, maximum
_GEN_PC = np.array([-1.0, 1.0, 1.0, 1.0])
_GEN_P = np.array([1.0, -1.0, 0.0, 0.0])
_GEN_LO = np.array([-np.inf, -np.inf, 0.0, -np.inf])
_GEN_HI = np.array([0.0, 0.0, np.inf, 0.0])


class CaseRows:
    """The parts of every outage's ``OutageRows`` that do not depend on the
    outage, built once per case and read-only.

    One outage takes out one branch, so every outage of a case has the same
    ``4 G + 1 + 2 (L - 1)`` rows over ``G`` generators and ``L`` branches,
    and the same ``b``, whose only nonzero rows are the generator rows.
    Held here: the generator rows of ``a`` (``gen_a``), the whole ``b``,
    the ``lo`` and ``hi`` templates (generator rows filled, flow rows open on
    their far side), each generator's bus position and ramp and output
    limits, every branch's emergency rating and each period's bus demands.
    """

    def __init__(self, case: SystemCase):
        n_g = len(case.generators)
        n_b = 4 * n_g
        n_row = n_b + 1 + 2 * (len(case.branches) - 1)
        self.gen_pos = [case.bus_index[g.bus] for g in case.generators]
        self.rate = np.array([k.rate_emergency for k in case.branches])
        # one contiguous row of bus demands per period
        self.demand = np.array([n.demand for n in case.buses]).T.copy()
        eye = np.eye(n_g)[:, None, :]
        limits = np.array([(g.ramp_10, g.ramp_10, g.p_min, g.p_max) for g in case.generators])
        self.ramp, self.p_min, self.p_max = limits[:, 1:].T
        gen = np.concatenate((eye * _GEN_PC[:, None], eye * -limits[:, :, None],
                              eye * _GEN_P[:, None]), axis=2).reshape(n_b, 3 * n_g)
        self.gen_a = gen[:, :n_g]
        self.b = np.zeros((n_row, 2 * n_g))
        self.b[:n_b] = gen[:, n_g:]
        self.lo, self.hi = np.empty((2, n_row))
        self.lo[:n_b].reshape(n_g, 4)[:], self.hi[:n_b].reshape(n_g, 4)[:] = _GEN_LO, _GEN_HI
        self.lo[n_b + 1::2], self.hi[n_b + 2::2] = -np.inf, np.inf
        for array in (self.rate, self.demand, self.ramp, self.p_min, self.p_max,
                      self.gen_a, self.b, self.lo, self.hi):
            array.setflags(write=False)


class OutageRows:
    """The rows ``lo <= a @ pc + b @ [u; p] <= hi`` of every period with
    branch ``outage`` out of service; ``at(t)`` gives ``(a, b, lo, hi)``,
    ``at(t, j)`` the same rows with line ``j`` opened too.  The pair layer
    takes an outage only as its rows, so they keep ``case``, ``sens`` and
    ``outage``.

    ``ptdf`` is ``NetworkSensitivities.outage_ptdf(outage)``, ``pc`` the
    redispatch and ``u``, ``p`` the schedule, each in ``case.generators``
    order.  Rows: per generator its ramp-down (``p - pc <= R10 u``), ramp-up
    (``pc - p <= R10 u``), minimum (``pc >= p_min u``) and maximum
    (``pc <= p_max u``) rows; the system balance; per in-service branch its
    upper, then lower emergency limit.  Each row is an equality or has one
    finite side.  Only the ``4 G`` generator rows involve the schedule, each
    its own generator's ``u`` and ``p``; the other rows of ``b`` are zero.

    The flows are ``f = at_gens @ pc - demand_flow(t)``, one per branch.
    Opening a further line ``j`` is a flow-cancelling transaction ``w = f_j``
    (Ruiz, Foster, Rudkevich & Caramanis, IEEE TPWRS 2012): each branch
    ``k`` then carries ``f_k + LODF_c[k, j] w`` (``shed``), ``j`` zero.

    Only the balance and flow bounds depend on the period.  What does not
    depend on the outage either (the generator rows, ``b``, the ratings and
    each period's demand) comes from ``common``, a ``CaseRows`` of ``case``
    that the outages of one examination share, built here when None.  The
    read-only ``a`` is built here, and each period's ``demand_flow(t)`` and
    unswitched bounds on first use, read-only, so the pair LP, ``hopeless``
    and every switch LP of that period share them.
    """

    def __init__(self, case: SystemCase, sens: NetworkSensitivities, outage: int,
                 common: CaseRows | None = None):
        self.case, self.sens, self.outage = case, sens, outage
        self._common = common = CaseRows(case) if common is None else common
        self.ptdf = ptdf = sens.outage_ptdf(outage)
        n_b = self._gen_rows = common.gen_a.shape[0]
        self._in_service = np.ones(len(case.branches), dtype=bool)
        self._in_service[case.branch_index[outage]] = False
        self._rate = common.rate[self._in_service]
        self.at_gens = ptdf[:, common.gen_pos]
        self._kept_gens = self.at_gens[self._in_service]
        self.at_gens.setflags(write=False)
        a = np.empty((common.b.shape[0], common.gen_a.shape[1]))
        a[:n_b], a[n_b] = common.gen_a, 1.0
        a[n_b + 1::2] = a[n_b + 2::2] = self._kept_gens
        a.setflags(write=False)
        self.a, self.b = a, common.b
        self._flows: dict[int, np.ndarray] = {}
        self._bounds: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def demand_flow(self, t: int) -> np.ndarray:
        """The flow of every branch in period ``t`` with every generator at
        0, read-only, computed on first use."""
        flow = self._flows.get(t)
        if flow is None:
            flow = self._flows[t] = self.ptdf @ self._common.demand[t - 1]
            flow.setflags(write=False)
        return flow

    def _lodf(self, js) -> np.ndarray:
        """``LODF_c[k, j]`` per line ``j`` of ``js`` (columns) and in-service
        branch ``k`` (rows)."""
        return lodf_columns(self.case, self.ptdf, js)[self._in_service]

    def shed(self, js) -> np.ndarray:
        """``LODF_c[k, j]`` per line ``j`` of ``js`` (columns), twice for each
        in-service branch ``k`` (rows), in the order of its two limit rows."""
        return np.repeat(self._lodf(js), 2, axis=0)

    def hopeless(self, muc: MucSolution, t: int, js) -> np.ndarray:
        """Per line ``j`` of ``js``, whether opening it as well provably
        leaves period ``t`` of ``muc`` unsurvivable, with no LP solved.

        The generator rows of the switch LP box each generator's ``pc`` in
        ``[max(p - R10 u, p_min u), min(p + R10 u, p_max u)]``; where the
        master's tolerances invert a box, it is widened to ``[min, max]`` of
        its two ends.  With ``w`` substituted, each in-service branch ``k``
        carries ``(at_gens[k] + LODF_c[k, j] at_gens[j]) @ pc - (d_k +
        LODF_c[k, j] d_j)``, ``d`` being ``demand_flow(t)``.  Over the box
        that flow lies within its value at the box's centre plus or minus
        the sign-split sum ``|coef| @ half-width``, for every ``(k, j)`` at
        once.  Line ``j`` is hopeless when some branch's interval lies wholly
        beyond its emergency rating by more than ``HOPELESS_MARGIN_MW``.
        The box drops only the balance row, so it relaxes the LP, and a
        hopeless line's LP has slack 1.  When ``js`` holds a numerically
        radial line (``lodf_columns`` raises), no line of it is proved, so
        that line's LP raises as it would without the bound.
        """
        u, p, common = muc.u[:, t - 1], muc.p[:, t - 1], self._common
        lo = np.maximum(p - common.ramp * u, common.p_min * u)
        hi = np.minimum(p + common.ramp * u, common.p_max * u)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        try:
            lodf = self._lodf(js)
        except ValueError:
            return np.zeros(len(js), dtype=bool)
        pos = [self.case.branch_index[j] for j in js]
        flow = self.at_gens @ ((lo + hi) / 2) - self.demand_flow(t)
        centre = flow[self._in_service, None] + lodf * flow[pos]
        half = (np.abs(self._kept_gens[:, None, :] + lodf[:, :, None] * self.at_gens[pos])
                @ ((hi - lo) / 2))
        excess = np.abs(centre) - half - self._rate[:, None]
        return (excess > HOPELESS_MARGIN_MW).any(axis=0)

    def at(self, t: int, switch: int | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(a, b, lo, hi)`` of period ``t``; with line ``switch`` opened,
        over one more column ``w`` and one more row ``w - at_gens[j] @ pc =
        -demand_flow(t)[j]``, ``w`` on the flow rows by ``shed``.  Without a
        switch every array is read-only and shared by each call for ``t``."""
        # the bounds come from the flows of the whole post-outage network, so
        # a branch's limits do not depend on which other rows are dropped
        flow = self.demand_flow(t)
        n_b = self._gen_rows
        if t not in self._bounds:
            demand_flow = flow[self._in_service]
            lo, hi = self._common.lo.copy(), self._common.hi.copy()
            lo[n_b] = hi[n_b] = self._common.demand[t - 1].sum()
            hi[n_b + 1::2] = demand_flow + self._rate
            lo[n_b + 2::2] = demand_flow - self._rate
            lo.setflags(write=False)
            hi.setflags(write=False)
            self._bounds[t] = lo, hi
        lo, hi = self._bounds[t]
        if switch is None:
            return self.a, self.b, lo, hi
        j = self.case.branch_index[switch]
        w = np.concatenate((np.zeros(n_b + 1), self.shed((switch,))[:, 0], [1.0]))
        a = np.column_stack((np.vstack((self.a, -self.at_gens[j])), w))
        b = np.vstack((self.b, np.zeros(self.b.shape[1])))
        return a, b, np.append(lo, -flow[j]), np.append(hi, -flow[j])


@functools.lru_cache(maxsize=16)
def _slack_columns(n_col: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost, lower and upper bounds of a slack LP's ``n_col`` columns, the
    slack first, read-only, built once per column count."""
    cost = np.zeros(n_col)
    cost[0] = 1.0
    lb = np.full(n_col, -np.inf)
    lb[0] = 0.0
    ub = np.full(n_col, np.inf)
    for array in (cost, lb, ub):
        array.setflags(write=False)
    return cost, lb, ub


def _slack_lp(rows: tuple, muc: MucSolution, t: int, name: str) -> LinearProgram:
    """Redispatch feasibility LP over the ``OutageRows.at`` block ``rows``.

    Columns are the slack ``s``, then the block's free columns: ``pc``, and
    ``w`` with a switch.  The schedule's terms move to the right-hand side,
    and the slack scales it towards the always feasible all-zeros point, so
    the slack column equals the rhs column.  The matrix ``[rhs | a]`` is
    filled in column-major order, the order the engine reads it in.
    """
    a, b, lo, hi = rows
    shift = b @ np.concatenate((muc.u[:, t - 1], muc.p[:, t - 1]))
    row_lower, row_upper = lo - shift, hi - shift
    matrix = np.empty((a.shape[0], a.shape[1] + 1), order="F")
    matrix[:, 0] = np.where(np.isfinite(row_upper), row_upper, row_lower)
    matrix[:, 1:] = a
    cost, lb, ub = _slack_columns(matrix.shape[1])
    return LinearProgram(cost=cost, a=matrix, row_lower=row_lower, row_upper=row_upper,
                         lb=lb, ub=ub, name=name)


def solve_pcfc(rows: OutageRows, muc: MucSolution, t: int, switch: int | None = None,
               engine: Engine | None = None) -> SubproblemOutcome:
    """Redispatch feasibility verdict for the outage of ``rows`` in period
    ``t``, with line ``switch`` opened too when given.

    Minimizes a proportional slack over the 10-minute redispatch polytope of
    the given schedule, over the rows of ``rows.at(t, switch)``.  Slack zero
    means the state is survivable: ``feasible``, or ``feasible_via_switch``
    with ``switch`` recorded.  Raises ValueError when ``switch`` is the
    outage or islands a bus with it (see ``NetworkSensitivities.islands``).

    The LP runs on ``engine``, from the basis of its last LP, or in a fresh
    engine when None; either way the verdict is the same.  Only an
    unswitched, unsurvivable state solved in a fresh engine carries its
    Benders feasibility cut: the LP's dual objective ``pi @ (rhs - b @ [u;
    p])`` over the rows plus the bound terms, with the master's ``u`` and
    ``p`` left free, so ``-(pi @ b)`` gives the coefficients and everything
    else the constant.  At ``muc`` it must reproduce the slack optimum.
    """
    c = rows.outage
    name = f"pcfc[{c},{t}]"
    if switch is not None:
        if switch == c:
            raise ValueError("switch candidate must differ from the contingency")
        if rows.sens.islands((c, switch)):
            raise ValueError(f"opening branches {c} and {switch} islands the network")
        name = f"pcfc[{c},{t},{switch}]"
    block = rows.at(t, switch)
    result = solve_lp(_slack_lp(block, muc, t, name), engine)
    if result.status != "optimal":
        # the all-zeros redispatch with slack 1 is always feasible
        raise SolverError(f"{name} must always be solvable, engine says {result.status}")
    slack = float(result.x[0])
    # positive conditions here and below, so that a NaN fails them
    if not (-1e-9 <= slack <= SLACK_TOLERANCE or abs(slack - 1.0) <= SLACK_TOLERANCE):
        raise SolverError(f"{name} slack {slack} is neither 0 nor 1")
    gap = abs(result.dual_objective() - result.objective)
    if not gap <= DUALITY_CHECK_TOL:
        raise SolverError(f"{name} dual accounting off by {gap:.2e}")
    slack = max(slack, 0.0)
    if slack <= SLACK_TOLERANCE:
        status = "feasible" if switch is None else "feasible_via_switch"
        return SubproblemOutcome(contingency=c, period=t, status=status, slack=slack,
                                 switch=switch)
    if switch is not None or engine is not None:
        return SubproblemOutcome(contingency=c, period=t, status="infeasible", slack=slack)

    _, b, lo, hi = block
    coef_u, coef_p = -(result.row_duals[:len(b)] @ b).reshape(2, -1)
    rhs = np.concatenate((np.where(np.isfinite(hi), hi, lo), result.row_rhs[len(b):]))
    cut = FeasibilityCut(contingency=c, period=t, coef_u=coef_u, coef_p=coef_p,
                         constant=float(rhs @ result.row_duals))
    drift = abs(cut.evaluate_solution(muc) - slack)
    if not drift <= 1e-6:
        raise SolverError(f"cut for pair ({c},{t}) misses its slack by {drift:.2e}")
    return SubproblemOutcome(contingency=c, period=t, status="infeasible",
                             slack=slack, cut=cut)


def switch_candidates(rows: OutageRows, size: int | None = None):
    """Lines that may open after the outage of ``rows``, in the order they
    are tried.

    Walks the first ``size`` entries of the outage's ranking
    ``sens.cbce[c]`` (all of them when ``size`` is None) and yields each
    line that is reconfigurable and does not island a bus together with
    ``c`` by the LODF block test.  The ranking is cut before it is
    filtered, so ``size`` bounds the lines looked at, not the lines
    yielded.  Lazy, so a search that stops at its first rescue looks at no
    line past the block of ``HOPELESS_BLOCK`` candidates that holds it.
    """
    c, case, sens = rows.outage, rows.case, rows.sens
    for j in sens.cbce[c][:size]:
        if case.branch(j).reconfigurable and not sens.islands((c, j)):
            yield j


def find_corrective_switch(rows: OutageRows, muc: MucSolution, t: int,
                           switch_budget: int | None = None, counters: dict | None = None,
                           engine: Engine | None = None) -> SubproblemOutcome | None:
    """The outcome of the first switch that makes the outage survivable, if any.

    Candidates are ``switch_candidates`` over the first ``switch_budget``
    ranked lines (every candidate when None, as the audit uses it), taken
    in blocks of ``HOPELESS_BLOCK``.  ``OutageRows.hopeless`` bounds each
    block at once; then, in ranked order, each candidate it proves hopeless
    is passed over, and each other one ``j`` is tried by
    ``solve_pcfc(rows, muc, t, j, engine=engine)``, which carries no cut.
    A hopeless candidate's LP could not rescue, so the search stops at the
    first rescuer that an LP for every candidate would.  Returns the
    ``feasible_via_switch`` outcome of that candidate, or None when the
    candidates run out.  ``counters["nr_pcfc_solved"]`` counts the
    candidates decided, by LP or by the bound.
    """
    candidates = switch_candidates(rows, switch_budget)
    while block := list(islice(candidates, HOPELESS_BLOCK)):
        for j, hopeless in zip(block, rows.hopeless(muc, t, block).tolist()):
            if counters is not None:
                counters["nr_pcfc_solved"] = counters.get("nr_pcfc_solved", 0) + 1
            if hopeless:
                continue
            outcome = solve_pcfc(rows, muc, t, j, engine=engine)
            if outcome.status == "feasible_via_switch":
                return outcome
    return None
