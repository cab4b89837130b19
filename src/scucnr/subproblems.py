"""Per-(contingency, period) slave problems.

Four layers of increasing cost: an arithmetic screener that predicts
post-outage flows from distribution factors, a redispatch feasibility LP
whose proportional slack indicates whether the outage is survivable within
10-minute ramps and emergency ratings, an interval bound that proves
opening a further line hopeless from the LP's own generator box, and the
same LP re-solved with that line opened.  The switch search walks a prefix
of the ranked candidate list, the search budget, solves the LP only for
the lines the bound cannot rule out, and stops at the first feasible
reconfiguration.

The rows of a post-outage state are defined once, by ``OutageRows``, as
arrays ``lo <= a @ pc + b @ [u; p] <= hi`` over the redispatch ``pc``
and the schedule's ``u`` and ``p``, with flows from the post-outage PTDF.
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
with no LP, ``switch_candidates(rows)`` and ``find_corrective_switch(rows,
muc, t)`` walk the ranking, and ``certify_pcfc(rows, muc, t)`` proves a
pair feasible with no LP when the schedule's own dispatch meets every
row of its LP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from .backend import Engine, LinearProgram, SolverError, solve_lp, violation
from .model import FeasibilityCut, MucSolution, SubproblemOutcome, SystemCase
from .network import NetworkSensitivities, lodf_columns

SCREEN_SLACK_MW = 1e-6

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

# how far the schedule's own dispatch may break a row of its pair LP and
# still certify the pair: below the engine's 1e-7 primal tolerance
CERTIFICATE_TOL_MW = 1e-9


@dataclass(frozen=True)
class ScreeningResult:
    """Outcome of the distribution-factor screen over a candidate set."""

    candidates: int
    critical: tuple[tuple[int, int], ...]


def run_csps(case: SystemCase, sens: NetworkSensitivities, muc: MucSolution,
             candidates) -> ScreeningResult:
    """Screen candidate (contingency, period) pairs by predicted overloads.

    Post-outage flow on each surviving branch is the base flow plus the
    distribution factor times the outaged branch's base flow; a pair stays
    critical iff some predicted magnitude exceeds that branch's emergency
    rating.  Pure arithmetic, no optimization: one branches-by-pairs
    broadcast.  The outaged branch itself predicts exactly zero
    (``LODF[c, c] = -1``), so it never raises a pair's excess.
    """
    pairs = sorted(candidates, key=lambda ct: (ct[1], ct[0]))
    for c, _ in pairs:
        if c not in sens.non_radial:
            raise ValueError(f"branch {c} is not a valid contingency")
    out = [case.branch_index[c] for c, _ in pairs]
    flow = muc.flow[:, [t - 1 for _, t in pairs]]
    predicted = np.abs(flow + sens.lodf[:, out] * flow[out, np.arange(len(pairs))])
    rate = np.array([k.rate_emergency for k in case.branches])[:, None]
    worst_excess = (predicted - rate).max(axis=0, initial=-np.inf)
    critical = tuple(pair for pair, excess in zip(pairs, worst_excess)
                     if excess > SCREEN_SLACK_MW)
    return ScreeningResult(candidates=len(pairs), critical=critical)


# per generator, on its own pc, u and p: ramp-down, ramp-up, minimum, maximum
_GEN_PC = np.array([-1.0, 1.0, 1.0, 1.0])
_GEN_P = np.array([1.0, -1.0, 0.0, 0.0])
_GEN_LO = np.array([-np.inf, -np.inf, 0.0, -np.inf])
_GEN_HI = np.array([0.0, 0.0, np.inf, 0.0])


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

    Only the balance and flow bounds depend on the period.  Everything else
    (the generator rows, the emergency ratings, the generators' bus
    positions, each period's demand and the read-only ``a`` and ``b``) is
    built once, here.
    """

    def __init__(self, case: SystemCase, sens: NetworkSensitivities, outage: int):
        self.case, self.sens, self.outage = case, sens, outage
        self.ptdf = ptdf = sens.outage_ptdf(outage)
        n_g = len(case.generators)
        n_b = self._gen_rows = 4 * n_g
        self._in_service = np.ones(len(case.branches), dtype=bool)
        self._in_service[case.branch_index[outage]] = False
        self._rate = np.array([k.rate_emergency for k in case.branches])[self._in_service]
        # one contiguous row of bus demands per period
        self._demand = np.array([n.demand for n in case.buses]).T.copy()
        self.at_gens = ptdf[:, [case.bus_index[g.bus] for g in case.generators]]
        self.at_gens.setflags(write=False)

        eye = np.eye(n_g)[:, None, :]
        limits = np.array([(g.ramp_10, g.ramp_10, g.p_min, g.p_max) for g in case.generators])
        self._ramp, self._p_min, self._p_max = limits[:, 1:].T
        gen = np.concatenate((eye * _GEN_PC[:, None], eye * -limits[:, :, None],
                              eye * _GEN_P[:, None]), axis=2).reshape(n_b, 3 * n_g)
        a = np.empty((n_b + 1 + 2 * len(self._rate), n_g))
        a[:n_b], a[n_b] = gen[:, :n_g], 1.0
        a[n_b + 1::2] = a[n_b + 2::2] = self.at_gens[self._in_service]
        b = np.zeros((len(a), 2 * n_g))
        b[:n_b] = gen[:, n_g:]
        a.setflags(write=False)
        b.setflags(write=False)
        self.a, self.b = a, b
        self._lo, self._hi = np.empty((2, len(a)))
        self._lo[:n_b].reshape(n_g, 4)[:], self._hi[:n_b].reshape(n_g, 4)[:] = _GEN_LO, _GEN_HI
        self._lo[n_b + 1::2], self._hi[n_b + 2::2] = -np.inf, np.inf

    def demand_flow(self, t: int) -> np.ndarray:
        """The flow of every branch in period ``t`` with every generator at 0."""
        return self.ptdf @ self._demand[t - 1]

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
        u, p = muc.u[:, t - 1], muc.p[:, t - 1]
        lo = np.maximum(p - self._ramp * u, self._p_min * u)
        hi = np.minimum(p + self._ramp * u, self._p_max * u)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        try:
            lodf = self._lodf(js)
        except ValueError:
            return np.zeros(len(js), dtype=bool)
        pos = [self.case.branch_index[j] for j in js]
        kept = self.at_gens[self._in_service]
        flow = self.at_gens @ ((lo + hi) / 2) - self.demand_flow(t)
        centre = flow[self._in_service, None] + lodf * flow[pos]
        half = np.abs(kept[:, None, :] + lodf[:, :, None] * self.at_gens[pos]) @ ((hi - lo) / 2)
        excess = np.abs(centre) - half - self._rate[:, None]
        return (excess > HOPELESS_MARGIN_MW).any(axis=0)

    def at(self, t: int, switch: int | None = None
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(a, b, lo, hi)`` of period ``t``; with line ``switch`` opened,
        over one more column ``w`` and one more row ``w - at_gens[j] @ pc =
        -demand_flow(t)[j]``, ``w`` on the flow rows by ``shed``."""
        demand = self._demand[t - 1]
        # the bounds come from the flows of the whole post-outage network, so
        # a branch's limits do not depend on which other rows are dropped
        flow = self.demand_flow(t)
        demand_flow = flow[self._in_service]
        n_b = self._gen_rows
        lo, hi = self._lo.copy(), self._hi.copy()
        lo[n_b] = hi[n_b] = demand.sum()
        hi[n_b + 1::2] = demand_flow + self._rate
        lo[n_b + 2::2] = demand_flow - self._rate
        if switch is None:
            return self.a, self.b, lo, hi
        j = self.case.branch_index[switch]
        w = np.concatenate((np.zeros(n_b + 1), self.shed((switch,))[:, 0], [1.0]))
        a = np.column_stack((np.vstack((self.a, -self.at_gens[j])), w))
        b = np.vstack((self.b, np.zeros(self.b.shape[1])))
        return a, b, np.append(lo, -flow[j]), np.append(hi, -flow[j])


def _slack_lp(rows: tuple, muc: MucSolution, t: int, name: str) -> LinearProgram:
    """Redispatch feasibility LP over the ``OutageRows.at`` block ``rows``.

    Columns are the slack ``s``, then the block's free columns: ``pc``, and
    ``w`` with a switch.  The schedule's terms move to the right-hand side,
    and the slack scales it towards the always feasible all-zeros point, so
    the slack column equals the rhs column.
    """
    a, b, lo, hi = rows
    n_g = a.shape[1]
    shift = b @ np.concatenate((muc.u[:, t - 1], muc.p[:, t - 1]))
    row_lower, row_upper = lo - shift, hi - shift
    rhs = np.where(np.isfinite(row_upper), row_upper, row_lower)
    return LinearProgram(
        cost=np.concatenate(([1.0], np.zeros(n_g))),
        a=np.hstack((rhs[:, None], a)),
        row_lower=row_lower,
        row_upper=row_upper,
        lb=np.concatenate(([0.0], np.full(n_g, -np.inf))),
        ub=np.full(n_g + 1, np.inf),
        name=name,
    )


def certify_pcfc(rows: OutageRows, muc: MucSolution, t: int) -> bool:
    """Whether the schedule's own dispatch proves the outage of ``rows``
    survivable in period ``t``, with no LP solved.

    The pair's feasibility LP has the point ``s = 0, pc = p_t``: no
    redispatch.  Its generator and balance rows hold there by the master's
    own rows, up to the master's tolerances, so in practice only the
    post-outage flow rows fail.  When every row and bound
    of the LP holds at that point within ``CERTIFICATE_TOL_MW``, the slack
    optimum is exactly 0.  False says only that this point fails, not
    that the pair does.
    """
    lp = _slack_lp(rows.at(t), muc, t, f"pcfc[{rows.outage},{t}]")
    point = np.concatenate(([0.0], muc.p[:, t - 1]))
    return violation(lp, point, CERTIFICATE_TOL_MW) is None


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
    # positive conditions, so that a NaN slack fails them
    if not (-1e-9 <= slack <= SLACK_TOLERANCE or abs(slack - 1.0) <= SLACK_TOLERANCE):
        raise SolverError(f"{name} slack {slack} is neither 0 nor 1")
    gap = abs(result.dual_objective() - result.objective)
    if gap > DUALITY_CHECK_TOL:
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
    if drift > 1e-6:
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
