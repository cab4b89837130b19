"""Optimization models: master unit commitment with its feasibility cuts
and the two extensive security-constrained models.

Naming scheme shared by every model built here: ``u[g,t]``/``v[g,t]`` are
commitment and start-up binaries, ``p[g,t]``/``r[g,t]`` dispatch and
10-minute reserve in MW.  Post-outage columns carry the outaged branch id
as a middle index: ``pc[g,c,t]`` is the redispatched output, and in the
switching model ``z[j,c,t]`` keeps line ``j`` in service (1) or opens it
(0), with ``w[j,c,t]`` the flow it sheds when opened.  Periods are 1-based.

Every model is in shift-factor form: flows are not columns but PTDF rows
over the generator outputs, built by ``post_outage_flows`` as in the
feasibility LP, from ``NetworkSensitivities.ptdf`` in the base case and
from ``outage_ptdf`` after an outage.
"""

from __future__ import annotations

import numpy as np

from .backend import Model, SolveResult, SolverError
from .model import (FeasibilityCut, MucSolution, SystemCase,
                    solution_invariant_violations)
from .network import NetworkSensitivities, bus_angles, compute_lodf
from .subproblems import post_outage_flows

INTEGRALITY_TOL = 1e-5

SWITCHED_RATINGS = ("emergency", "long_term")


def _add_base_model(model: Model, case: SystemCase, sens: NetworkSensitivities) -> None:
    """Base-case commitment, dispatch, reserve and network rows."""
    T = case.horizon
    gens = case.generators

    for g in gens:
        for t in case.periods:
            model.add_variable(f"u[{g.id},{t}]", binary=True, cost=g.cost_no_load)
            model.add_variable(f"v[{g.id},{t}]", binary=True, cost=g.cost_startup)
            model.add_variable(f"p[{g.id},{t}]", lb=0.0, ub=g.p_max, cost=g.cost_linear)
            model.add_variable(f"r[{g.id},{t}]", lb=0.0, ub=g.ramp_10)

    for g in gens:
        u0 = 1.0 if g.initial_status else 0.0
        p0 = g.initial_output
        for t in case.periods:
            u, v = f"u[{g.id},{t}]", f"v[{g.id},{t}]"
            p, r = f"p[{g.id},{t}]", f"r[{g.id},{t}]"

            model.add_constraint(f"gen_min[{g.id},{t}]",
                                 {p: 1.0, u: -g.p_min}, ">=", 0.0)
            model.add_constraint(f"gen_max[{g.id},{t}]",
                                 {p: 1.0, r: 1.0, u: -g.p_max}, "<=", 0.0)
            model.add_constraint(f"reserve_cap[{g.id},{t}]",
                                 {r: 1.0, u: -g.ramp_10}, "<=", 0.0)
            # total 10-minute reserve must cover each unit's output plus its
            # own reserve (the unit's own contribution stays in the sum)
            pool = {f"r[{q.id},{t}]": 1.0 for q in gens}
            pool[p] = pool.get(p, 0.0) - 1.0
            pool[r] = pool.get(r, 0.0) - 1.0
            model.add_constraint(f"reserve_pool[{g.id},{t}]", pool, ">=", 0.0)

            if t == 1:
                model.add_constraint(
                    f"ramp_up[{g.id},{t}]",
                    {p: 1.0, v: -g.ramp_startup}, "<=",
                    p0 + g.ramp_hourly * u0)
                model.add_constraint(
                    f"ramp_down[{g.id},{t}]",
                    {p: -1.0, u: -g.ramp_hourly + g.ramp_shutdown, v: -g.ramp_shutdown},
                    "<=", -p0 + g.ramp_shutdown * u0)
                model.add_constraint(f"startup[{g.id},{t}]",
                                     {v: 1.0, u: -1.0}, ">=", -u0)
            else:
                pm, um = f"p[{g.id},{t - 1}]", f"u[{g.id},{t - 1}]"
                model.add_constraint(
                    f"ramp_up[{g.id},{t}]",
                    {p: 1.0, pm: -1.0, um: -g.ramp_hourly, v: -g.ramp_startup},
                    "<=", 0.0)
                model.add_constraint(
                    f"ramp_down[{g.id},{t}]",
                    {pm: 1.0, p: -1.0, u: -g.ramp_hourly + g.ramp_shutdown,
                     v: -g.ramp_shutdown, um: -g.ramp_shutdown},
                    "<=", 0.0)
                model.add_constraint(f"startup[{g.id},{t}]",
                                     {v: 1.0, u: -1.0, um: 1.0}, ">=", 0.0)

        # minimum run / minimum rest windows, only over the in-horizon ranges
        for t in range(g.min_up, T + 1):
            terms = {f"v[{g.id},{q}]": 1.0 for q in range(t - g.min_up + 1, t + 1)}
            terms[f"u[{g.id},{t}]"] = terms.get(f"u[{g.id},{t}]", 0.0) - 1.0
            model.add_constraint(f"min_up[{g.id},{t}]", terms, "<=", 0.0)
        for t in range(1, T - g.min_down + 1):
            terms = {f"v[{g.id},{q}]": 1.0 for q in range(t + 1, t + g.min_down + 1)}
            terms[f"u[{g.id},{t}]"] = terms.get(f"u[{g.id},{t}]", 0.0) + 1.0
            model.add_constraint(f"min_down[{g.id},{t}]", terms, "<=", 1.0)

    for t in case.periods:
        at_gens, demand_flow, total = post_outage_flows(case, sens.ptdf, t)
        p = [f"p[{g.id},{t}]" for g in gens]
        model.add_constraint(f"balance[{t}]", dict.fromkeys(p, 1.0), "==", total)
        for i, k in enumerate(case.branches):
            terms = dict(zip(p, at_gens[i]))
            model.add_constraint(f"flow_hi[{k.id},{t}]", terms, "<=",
                                 demand_flow[i] + k.rate_long_term)
            model.add_constraint(f"flow_lo[{k.id},{t}]", terms, ">=",
                                 demand_flow[i] - k.rate_long_term)


def build_muc(case: SystemCase, sens: NetworkSensitivities,
              cuts: tuple[FeasibilityCut, ...] | list[FeasibilityCut] = ()) -> Model:
    """Master unit commitment: base-case rows plus accumulated feasibility cuts."""
    model = Model("muc")
    _add_base_model(model, case, sens)
    for i, cut in enumerate(cuts):
        terms: dict[str, float] = {}
        for g, coef in cut.coef_u.items():
            terms[f"u[{g},{cut.period}]"] = terms.get(f"u[{g},{cut.period}]", 0.0) + coef
        for g, coef in cut.coef_p.items():
            terms[f"p[{g},{cut.period}]"] = terms.get(f"p[{g},{cut.period}]", 0.0) + coef
        model.add_constraint(f"cut[{i}]", terms, "<=", -cut.constant)
    return model


def _add_contingency_generation(model: Model, case: SystemCase, c: int, t: int) -> None:
    for g in case.generators:
        u = f"u[{g.id},{t}]"
        p = f"p[{g.id},{t}]"
        pc = f"pc[{g.id},{c},{t}]"
        model.add_variable(pc, lb=0.0, ub=g.p_max)
        model.add_constraint(f"c_ramp_down[{g.id},{c},{t}]",
                             {p: 1.0, pc: -1.0, u: -g.ramp_10}, "<=", 0.0)
        model.add_constraint(f"c_ramp_up[{g.id},{c},{t}]",
                             {pc: 1.0, p: -1.0, u: -g.ramp_10}, "<=", 0.0)
        model.add_constraint(f"c_min[{g.id},{c},{t}]",
                             {pc: 1.0, u: -g.p_min}, ">=", 0.0)
        model.add_constraint(f"c_max[{g.id},{c},{t}]",
                             {pc: 1.0, u: -g.p_max}, "<=", 0.0)


def _add_post_outage_state(model: Model, case: SystemCase, c: int, t: int,
                           ptdf: np.ndarray, rate: np.ndarray,
                           switchable: tuple[int, ...], lodf: np.ndarray) -> None:
    """Redispatch, system balance and flow limits after outage ``c`` in period ``t``.

    ``ptdf`` is ``outage_ptdf((c,))``, so branch ``k`` carries
    ``at_gens[k] @ pc - demand_flow[k]`` as in the feasibility LP, plus
    ``lodf[k] @ w`` over the switch columns of ``switchable``.
    """
    _add_contingency_generation(model, case, c, t)
    at_gens, demand_flow, total = post_outage_flows(case, ptdf, t)
    pc = [f"pc[{g.id},{c},{t}]" for g in case.generators]
    model.add_constraint(f"c_balance[{c},{t}]", dict.fromkeys(pc, 1.0), "==", total)

    p_max = np.array([g.p_max for g in case.generators])
    w = [f"w[{j},{c},{t}]" for j in switchable]
    z = [f"z[{j},{c},{t}]" for j in switchable]
    for j, wj, zj in zip(switchable, w, z):
        i = case.branch_index[j]
        m = float(np.abs(at_gens[i]) @ p_max + abs(demand_flow[i]))
        model.add_variable(zj, binary=True)
        model.add_variable(wj)
        # w = 0 while j is in service (z = 1) ...
        model.add_constraint(f"w_off_hi[{j},{c},{t}]", {wj: 1.0, zj: m}, "<=", m)
        model.add_constraint(f"w_off_lo[{j},{c},{t}]", {wj: 1.0, zj: -m}, ">=", -m)
        # ... and w = at_gens[j] @ pc - demand_flow[j] once it is opened (z = 0)
        dev = {**dict(zip(pc, -at_gens[i])), wj: 1.0}
        model.add_constraint(f"w_on_hi[{j},{c},{t}]", {**dev, zj: -m}, "<=", -demand_flow[i])
        model.add_constraint(f"w_on_lo[{j},{c},{t}]", {**dev, zj: m}, ">=", -demand_flow[i])
    if switchable:
        model.add_constraint(f"sw_budget[{c},{t}]", dict.fromkeys(z, 1.0), ">=",
                             len(z) - 1)

    for i, k in enumerate(case.branches):
        if k.id == c:
            continue
        terms = {**dict(zip(pc, at_gens[i])), **dict(zip(w, lodf[i]))}
        model.add_constraint(f"c_flow_hi[{k.id},{c},{t}]", terms, "<=",
                             demand_flow[i] + rate[i])
        model.add_constraint(f"c_flow_lo[{k.id},{c},{t}]", terms, ">=",
                             demand_flow[i] - rate[i])


def _build_extensive(name: str, case: SystemCase, sens: NetworkSensitivities,
                     rate: np.ndarray, reconfigurable: frozenset[int]) -> Model:
    model = Model(name)
    _add_base_model(model, case, sens)
    for c in sens.contingencies:
        ptdf = sens.outage_ptdf((c,))
        switchable = tuple(j for j in sorted(reconfigurable - {c})
                           if not sens.islands((c, j)))
        positions = [case.branch_index[j] for j in switchable]
        lodf = compute_lodf(case, ptdf, frozenset(switchable))[:, positions]
        for t in case.periods:
            _add_post_outage_state(model, case, c, t, ptdf, rate, switchable, lodf)
    return model


def build_extensive_scuc(case: SystemCase, sens: NetworkSensitivities) -> Model:
    """One co-optimized MILP: base case plus redispatch for every outage.

    Each (outage, period) gets its own redispatch ``pc``, a system balance
    and the two emergency limits of every surviving branch, with flows from
    the post-outage PTDF the feasibility LP uses.
    """
    rate = np.array([k.rate_emergency for k in case.branches])
    return _build_extensive("extensive_scuc", case, sens, rate, frozenset())


def build_extensive_scuc_cnr(case: SystemCase, sens: NetworkSensitivities,
                             switched_rating: str = "emergency") -> Model:
    """Co-optimized model where each post-outage state may also open one line.

    A line ``j`` is switchable after outage ``c`` exactly when
    ``find_corrective_switch`` would try it: reconfigurable, non-radial,
    not ``c``, and not islanding together with ``c``.  It gets a binary
    ``z[j,c,t]`` (1 keeps it in service) and a flow-cancelling transaction
    ``w[j,c,t]`` (Ruiz, Foster, Rudkevich & Caramanis, IEEE TPWRS 2012):
    ``|w| <= M (1 - z)`` and ``|w - f_j| <= M z``, where ``f_j`` is the
    post-outage flow on ``j`` before switching.  Every branch carries its
    post-outage flow plus ``LODF_c[k, j] w``, with ``LODF_c`` the LODFs of
    the network without ``c`` and ``LODF_c[j, j] = -1``, so an opened line
    carries zero and the rest see the single-switch generalised LODF flow
    of the switch search's LP.  At most one line opens per state, so the
    model is exact.

    ``M = sum_g |PTDF_c[j, bus g]| p_max_g + |PTDF_c[j] @ d_t|`` bounds
    ``|f_j|`` at every redispatch ``0 <= pc <= p_max``, so the big-M rows
    never cut off a feasible point.

    ``switched_rating`` selects the limit on every branch other than the
    outaged one: "emergency" (the default, which keeps this model a strict
    relaxation of the plain one) or the stricter "long_term".
    """
    if switched_rating not in SWITCHED_RATINGS:
        raise ValueError(f"switched_rating must be one of {SWITCHED_RATINGS}")
    rate = np.array([k.rate_emergency if switched_rating == "emergency"
                     else k.rate_long_term for k in case.branches])
    reconfigurable = frozenset(
        k.id for k in case.branches if k.reconfigurable) & sens.non_radial
    return _build_extensive("extensive_scuc_cnr", case, sens, rate, reconfigurable)


def extract_solution(case: SystemCase, sens: NetworkSensitivities,
                     result: SolveResult) -> MucSolution:
    """Pull the base-case schedule out of a master or extensive solve.

    Only ``u``, ``v`` and ``p`` are read from the solve.  Reserve, flows
    and angles are derived from the cleaned dispatch (see ``MucSolution``).
    """
    if result.status != "optimal":
        raise SolverError(f"cannot extract a schedule from a {result.status} result")
    gen_ids = tuple(g.id for g in case.generators)

    def grid(prefix):
        return np.array([[result.value(f"{prefix}[{i},{t}]") for t in case.periods]
                         for i in gen_ids])

    u_raw = grid("u")
    v_raw = grid("v")
    for name, arr in (("u", u_raw), ("v", v_raw)):
        drift = np.abs(arr - np.round(arr)).max() if arr.size else 0.0
        if drift > INTEGRALITY_TOL:
            raise SolverError(f"binary variable {name} off integer by {drift:.2e}")
    u = np.round(u_raw).astype(np.int8)
    v = np.round(v_raw).astype(np.int8)

    # Scrub solver noise off dispatch: offline units sit at exactly zero and
    # outputs stay inside their physical box.  Downstream subproblems scale
    # their right-hand sides by these numbers, so an epsilon-negative output
    # would otherwise masquerade as a real violation.
    p = grid("p")
    p_max = np.array([[case.generator(g).p_max] for g in gen_ids])
    ramp_10 = np.array([[case.generator(g).ramp_10] for g in gen_ids])
    cleaned_p = np.clip(p, 0.0, p_max) * u
    drift = np.abs(cleaned_p - p).max(initial=0.0)
    if drift > INTEGRALITY_TOL:
        raise SolverError(f"dispatch violates its box by {drift:.2e}")
    # Reserve has no cost, so the solver's split depends on its path.  Report
    # the largest reserve each unit can hold instead: it is at least the
    # solver's, so it meets every reserve row the solver's split met.
    reserve = np.minimum(ramp_10, p_max - cleaned_p) * u
    injections = -np.array([b.demand for b in case.buses], dtype=float)
    np.add.at(injections, [case.bus_index[g.bus] for g in case.generators], cleaned_p)
    solution = MucSolution(
        generator_ids=gen_ids,
        branch_ids=tuple(k.id for k in case.branches),
        bus_ids=tuple(b.id for b in case.buses),
        u=u,
        v=v,
        p=cleaned_p,
        r=reserve,
        flow=sens.ptdf @ injections,
        theta=bus_angles(case, injections),
        objective=float(result.objective),
    )
    problems = solution_invariant_violations(case, solution, tol=INTEGRALITY_TOL)
    if problems:
        raise SolverError("schedule fails invariants: " + "; ".join(problems))
    return solution


def extract_switching_plan(case: SystemCase, sens: NetworkSensitivities,
                           result: SolveResult) -> dict[tuple[int, int], int]:
    """The line opened per (contingency, period) by an extensive CNR solve."""
    plan: dict[tuple[int, int], int] = {}
    for t in case.periods:
        for c in sens.contingencies:
            for k in case.branches:
                name = f"z[{k.id},{c},{t}]"
                if name in result.values and result.value(name) < 0.5:
                    plan[(c, t)] = k.id
    return plan
