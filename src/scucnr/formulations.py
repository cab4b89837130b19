"""Optimization models: master unit commitment with its feasibility cuts
and the two extensive security-constrained models.

Naming scheme shared by every model built here: ``u[g,t]``/``v[g,t]`` are
commitment and start-up binaries, ``p[g,t]``/``r[g,t]`` dispatch and
10-minute reserve in MW, ``f[k,t]`` branch flow in MW, ``theta[n,t]`` bus
angles in radians.  Post-contingency copies carry the outaged branch id as
a middle index, e.g. ``pc[g,c,t]``.  Periods are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .backend import Model, SolveResult, SolverError
from .model import (FeasibilityCut, MucSolution, SystemCase,
                    solution_invariant_violations)

DEFAULT_ANGLE_SPAN = 2.0 * math.pi

INTEGRALITY_TOL = 1e-5

SWITCHED_RATINGS = ("emergency", "long_term")


def effective_susceptance(case: SystemCase, branch_id: int) -> float:
    """Branch stiffness in MW per radian."""
    return case.branch(branch_id).susceptance * case.base_mva


@dataclass(frozen=True)
class BigMPolicy:
    """Per-branch decoupling constants for switched-line flow equations.

    ``values[k]`` must dominate the largest possible angle-difference term
    across an open branch, i.e. at least stiffness times the configured
    angle span.
    """

    values: dict[int, float]
    angle_span: float

    @classmethod
    def from_case(cls, case: SystemCase, angle_span: float = DEFAULT_ANGLE_SPAN) -> "BigMPolicy":
        if angle_span <= 0:
            raise ValueError("angle_span must be positive")
        vals = {k.id: effective_susceptance(case, k.id) * angle_span
                for k in case.branches}
        return cls(values=vals, angle_span=angle_span)


def _add_base_model(model: Model, case: SystemCase) -> None:
    """Base-case commitment, dispatch, reserve and network rows."""
    T = case.horizon
    gens = case.generators

    for g in gens:
        for t in case.periods:
            model.add_variable(f"u[{g.id},{t}]", binary=True, cost=g.cost_no_load)
            model.add_variable(f"v[{g.id},{t}]", binary=True, cost=g.cost_startup)
            model.add_variable(f"p[{g.id},{t}]", lb=0.0, ub=g.p_max, cost=g.cost_linear)
            model.add_variable(f"r[{g.id},{t}]", lb=0.0, ub=g.ramp_10)
    for k in case.branches:
        for t in case.periods:
            model.add_variable(f"f[{k.id},{t}]", lb=-k.rate_long_term, ub=k.rate_long_term)
    for n in case.buses:
        for t in case.periods:
            model.add_variable(f"theta[{n.id},{t}]")

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

    for k in case.branches:
        beff = effective_susceptance(case, k.id)
        for t in case.periods:
            model.add_constraint(
                f"flow_def[{k.id},{t}]",
                {f"f[{k.id},{t}]": 1.0,
                 f"theta[{k.from_bus},{t}]": -beff,
                 f"theta[{k.to_bus},{t}]": beff},
                "==", 0.0)

    for n in case.buses:
        for t in case.periods:
            terms = {f"p[{g.id},{t}]": 1.0 for g in case.generators_at_bus.get(n.id, ())}
            for k in case.branches:
                if k.to_bus == n.id:
                    terms[f"f[{k.id},{t}]"] = terms.get(f"f[{k.id},{t}]", 0.0) + 1.0
                if k.from_bus == n.id:
                    terms[f"f[{k.id},{t}]"] = terms.get(f"f[{k.id},{t}]", 0.0) - 1.0
            model.add_constraint(f"balance[{n.id},{t}]", terms, "==", case.demand(n.id, t))

    ref = case.reference_bus
    for t in case.periods:
        model.add_constraint(f"ref_angle[{t}]", {f"theta[{ref},{t}]": 1.0}, "==", 0.0)


def build_muc(case: SystemCase, cuts: tuple[FeasibilityCut, ...] | list[FeasibilityCut] = ()) -> Model:
    """Master unit commitment: base-case rows plus accumulated feasibility cuts."""
    model = Model("muc")
    _add_base_model(model, case)
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


def _add_contingency_balance(model: Model, case: SystemCase, c: int, t: int) -> None:
    for n in case.buses:
        terms = {f"pc[{g.id},{c},{t}]": 1.0 for g in case.generators_at_bus.get(n.id, ())}
        for k in case.branches:
            fc = f"fc[{k.id},{c},{t}]"
            if k.to_bus == n.id:
                terms[fc] = terms.get(fc, 0.0) + 1.0
            if k.from_bus == n.id:
                terms[fc] = terms.get(fc, 0.0) - 1.0
        model.add_constraint(f"c_balance[{n.id},{c},{t}]", terms, "==", case.demand(n.id, t))
    model.add_constraint(f"c_ref[{c},{t}]",
                         {f"theta_c[{case.reference_bus},{c},{t}]": 1.0}, "==", 0.0)


def build_extensive_scuc(case: SystemCase, non_radial: frozenset[int]) -> Model:
    """One co-optimized MILP: base case plus redispatch for every outage.

    Post-contingency flows obey emergency ratings; the outaged branch's flow
    is fixed to zero and its flow-definition row is dropped.
    """
    model = Model("extensive_scuc")
    _add_base_model(model, case)
    for t in case.periods:
        for c in sorted(non_radial):
            _add_contingency_generation(model, case, c, t)
            for n in case.buses:
                model.add_variable(f"theta_c[{n.id},{c},{t}]")
            for k in case.branches:
                if k.id == c:
                    model.add_variable(f"fc[{k.id},{c},{t}]", lb=0.0, ub=0.0)
                    continue
                model.add_variable(f"fc[{k.id},{c},{t}]",
                                   lb=-k.rate_emergency, ub=k.rate_emergency)
                beff = effective_susceptance(case, k.id)
                model.add_constraint(
                    f"c_flow[{k.id},{c},{t}]",
                    {f"fc[{k.id},{c},{t}]": 1.0,
                     f"theta_c[{k.from_bus},{c},{t}]": -beff,
                     f"theta_c[{k.to_bus},{c},{t}]": beff},
                    "==", 0.0)
            _add_contingency_balance(model, case, c, t)
    return model


def build_extensive_scuc_cnr(case: SystemCase, non_radial: frozenset[int],
                             z_max: int = 1,
                             angle_span: float = DEFAULT_ANGLE_SPAN,
                             switched_rating: str = "emergency") -> Model:
    """Co-optimized model where each post-contingency state may also open lines.

    ``z[k,c,t] = 1`` keeps branch ``k`` in service after outage ``c``; 0 opens
    it.  Flow definitions are big-M decoupled, switched lines carry zero flow,
    and at most ``z_max`` lines may be opened per post-contingency state (the
    outaged line itself is unavailable and does not count against the budget).

    ``switched_rating`` selects the thermal limit applied through the
    switching rows: "emergency" matches the plain security model's
    post-contingency ratings (the default, which keeps this model a strict
    relaxation of it); "long_term" applies the stricter normal ratings.
    """
    if z_max < 0:
        raise ValueError("z_max must be >= 0")
    if switched_rating not in SWITCHED_RATINGS:
        raise ValueError(f"switched_rating must be one of {SWITCHED_RATINGS}")
    reconfigurable = frozenset(
        k.id for k in case.branches if k.reconfigurable) & non_radial
    big_m = BigMPolicy.from_case(case, angle_span)

    model = Model("extensive_scuc_cnr")
    _add_base_model(model, case)
    for t in case.periods:
        for c in sorted(non_radial):
            _add_contingency_generation(model, case, c, t)
            for n in case.buses:
                model.add_variable(f"theta_c[{n.id},{c},{t}]")
            switchable = sorted((reconfigurable - {c}))
            for k in case.branches:
                fc = f"fc[{k.id},{c},{t}]"
                if k.id == c:
                    # the outaged line: unavailable, flow pinned to zero
                    model.add_variable(fc, lb=0.0, ub=0.0)
                    continue
                rate = k.rate_emergency if switched_rating == "emergency" else k.rate_long_term
                beff = effective_susceptance(case, k.id)
                angle = {f"theta_c[{k.from_bus},{c},{t}]": -beff,
                         f"theta_c[{k.to_bus},{c},{t}]": beff}
                if k.id in switchable:
                    model.add_variable(fc, lb=-rate, ub=rate)
                    z = model.add_variable(f"z[{k.id},{c},{t}]", binary=True)
                    m = big_m.values[k.id]
                    model.add_constraint(f"sw_flow_lo[{k.id},{c},{t}]",
                                         {fc: 1.0, **angle, z: -m}, ">=", -m)
                    model.add_constraint(f"sw_flow_hi[{k.id},{c},{t}]",
                                         {fc: 1.0, **angle, z: m}, "<=", m)
                    model.add_constraint(f"sw_lim_lo[{k.id},{c},{t}]",
                                         {fc: 1.0, z: rate}, ">=", 0.0)
                    model.add_constraint(f"sw_lim_hi[{k.id},{c},{t}]",
                                         {fc: 1.0, z: -rate}, "<=", 0.0)
                else:
                    # not switchable: permanently in service after this outage
                    model.add_variable(fc, lb=-rate, ub=rate)
                    model.add_constraint(f"c_flow[{k.id},{c},{t}]",
                                         {fc: 1.0, **angle}, "==", 0.0)
            if switchable:
                model.add_constraint(
                    f"sw_budget[{c},{t}]",
                    {f"z[{k},{c},{t}]": 1.0 for k in switchable},
                    ">=", len(switchable) - z_max)
            _add_contingency_balance(model, case, c, t)
    return model


def extract_solution(case: SystemCase, result: SolveResult) -> MucSolution:
    """Pull the base-case schedule out of a master or extensive solve."""
    if result.status != "optimal":
        raise SolverError(f"cannot extract a schedule from a {result.status} result")
    gen_ids = tuple(g.id for g in case.generators)
    br_ids = tuple(k.id for k in case.branches)
    bus_ids = tuple(b.id for b in case.buses)
    T = case.horizon

    def grid(prefix, ids):
        return np.array([[result.value(f"{prefix}[{i},{t}]") for t in case.periods]
                         for i in ids])

    u_raw = grid("u", gen_ids)
    v_raw = grid("v", gen_ids)
    for name, arr in (("u", u_raw), ("v", v_raw)):
        drift = np.abs(arr - np.round(arr)).max() if arr.size else 0.0
        if drift > INTEGRALITY_TOL:
            raise SolverError(f"binary variable {name} off integer by {drift:.2e}")
    u = np.round(u_raw).astype(np.int8)
    v = np.round(v_raw).astype(np.int8)

    # Scrub solver noise off dispatch and reserve: offline units sit at
    # exactly zero and outputs stay inside their physical box.  Downstream
    # subproblems scale their right-hand sides by these numbers, so an
    # epsilon-negative output would otherwise masquerade as a real violation.
    p = grid("p", gen_ids)
    r = grid("r", gen_ids)
    p_max = np.array([[case.generator(g).p_max] for g in gen_ids])
    r_max = np.array([[case.generator(g).ramp_10] for g in gen_ids])
    cleaned_p = np.clip(p, 0.0, p_max) * u
    cleaned_r = np.clip(r, 0.0, r_max) * u
    drift = max(np.abs(cleaned_p - p).max(initial=0.0),
                np.abs(cleaned_r - r).max(initial=0.0))
    if drift > INTEGRALITY_TOL:
        raise SolverError(f"dispatch violates its box by {drift:.2e}")
    solution = MucSolution(
        generator_ids=gen_ids,
        branch_ids=br_ids,
        bus_ids=bus_ids,
        u=u,
        v=v,
        p=cleaned_p,
        r=cleaned_r,
        flow=grid("f", br_ids),
        theta=grid("theta", bus_ids),
        objective=float(result.objective),
    )
    problems = solution_invariant_violations(case, solution, tol=INTEGRALITY_TOL)
    if problems:
        raise SolverError("schedule fails invariants: " + "; ".join(problems))
    return solution


def extract_switching_plan(case: SystemCase, non_radial: frozenset[int],
                           result: SolveResult) -> dict[tuple[int, int], tuple[int, ...]]:
    """Opened lines per (contingency, period) from an extensive CNR solve."""
    plan: dict[tuple[int, int], tuple[int, ...]] = {}
    for t in case.periods:
        for c in sorted(non_radial):
            opened = []
            for k in case.branches:
                name = f"z[{k.id},{c},{t}]"
                if name in result.values and result.value(name) < 0.5:
                    opened.append(k.id)
            if opened:
                plan[(c, t)] = tuple(opened)
    return plan


def check_big_m_slack(case: SystemCase, non_radial: frozenset[int],
                      result: SolveResult,
                      angle_span: float = DEFAULT_ANGLE_SPAN,
                      fraction: float = 1e-4) -> list[str]:
    """Guard that no big-M row is close to binding on a switched-out line.

    For every row whose line is opened (z = 0) the decoupled flow equation
    must retain slack of at least ``fraction`` of that line's M, otherwise M
    was chosen too small and may have cut off genuine angle differences.
    """
    big_m = BigMPolicy.from_case(case, angle_span)
    problems = []
    for t in case.periods:
        for c in sorted(non_radial):
            for k in case.branches:
                zname = f"z[{k.id},{c},{t}]"
                if zname not in result.values or result.value(zname) >= 0.5:
                    continue
                beff = effective_susceptance(case, k.id)
                gap = (result.value(f"fc[{k.id},{c},{t}]")
                       - beff * (result.value(f"theta_c[{k.from_bus},{c},{t}]")
                                 - result.value(f"theta_c[{k.to_bus},{c},{t}]")))
                m = big_m.values[k.id]
                if m - abs(gap) < fraction * m:
                    problems.append(
                        f"branch {k.id} outage {c} t={t}: big-M slack "
                        f"{m - abs(gap):.3e} below {fraction:.0e} * M")
    return problems
