"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's model builders: flows are
expressed through injection sensitivities obtained from a pseudo-inverse of
the network Laplacian, dispatch feasibility goes through scipy.linprog
directly, and commitments are enumerated exhaustively.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from scucnr.backend import CscMatrix
from scucnr.model import SystemCase


def csc(a) -> CscMatrix:
    """``a``, a dense array or a scipy sparse matrix, as a ``CscMatrix`` of
    its stored entries."""
    mat = sp.csc_array(a)
    mat.sort_indices()
    return CscMatrix(mat.shape, mat.indptr.astype(np.int32), mat.indices.astype(np.int32),
                     mat.data.astype(float))


def scipy_csc(a: CscMatrix) -> sp.csc_array:
    """The scipy matrix of the same compressed columns as ``a``."""
    return sp.csc_array((a.value, a.index, a.start), shape=a.shape)


def dense(a: np.ndarray | CscMatrix) -> np.ndarray:
    """``LinearProgram.a`` as a dense array."""
    return scipy_csc(a).toarray() if isinstance(a, CscMatrix) else a


def ptdf_pinv(case: SystemCase, removed: frozenset[int] = frozenset()) -> np.ndarray:
    """Branch-by-bus injection sensitivities via the Laplacian pseudo-inverse."""
    buses = [b.id for b in case.buses]
    pos = {n: i for i, n in enumerate(buses)}
    branches = [k for k in case.branches if k.id not in removed]
    n = len(buses)
    lap = np.zeros((n, n))
    for k in branches:
        beff = k.susceptance * case.base_mva
        i, j = pos[k.from_bus], pos[k.to_bus]
        lap[i, i] += beff
        lap[j, j] += beff
        lap[i, j] -= beff
        lap[j, i] -= beff
    lap_pinv = np.linalg.pinv(lap)
    out = np.zeros((len(case.branches), n))
    for row, k in enumerate(case.branches):
        if k.id in removed:
            continue
        beff = k.susceptance * case.base_mva
        out[row, :] = beff * (lap_pinv[pos[k.from_bus], :] - lap_pinv[pos[k.to_bus], :])
    return out


def dc_flows(case: SystemCase, injections: dict[int, float],
             removed: frozenset[int] = frozenset()) -> dict[int, float]:
    """Balanced-injection DC flows on the (possibly reduced) network."""
    total = sum(injections.values())
    if abs(total) > 1e-6:
        raise ValueError(f"injections must balance to zero, off by {total}")
    sens = ptdf_pinv(case, removed)
    pos = {b.id: i for i, b in enumerate(case.buses)}
    vec = np.zeros(len(case.buses))
    for bus, inj in injections.items():
        vec[pos[bus]] = inj
    flows = sens @ vec
    return {k.id: float(flows[i]) for i, k in enumerate(case.branches)
            if k.id not in removed}


def redispatch_slack(case: SystemCase, sol, t: int,
                     removed: frozenset[int]) -> float:
    """Proportional slack of the 10-minute redispatch with ``removed`` open.

    Maximises the fraction ``w`` of the schedule's operating point (demand,
    ramp window and output range all scaled by ``w``) that some redispatch
    serves within emergency ratings; the slack is ``1 - w``.  Flows are
    pseudo-inverse PTDF products on the reduced network.
    """
    gens = list(case.generators)
    n_g = len(gens)
    bus_pos = {b.id: i for i, b in enumerate(case.buses)}
    sens = ptdf_pinv(case, removed)
    demand = np.array([case.demand(b.id, t) for b in case.buses])
    # columns: pc[g] for every generator, then w
    a_ub, b_ub = [], []
    for gi, g in enumerate(gens):
        u = sol.u[gi, t - 1]
        p = sol.p[gi, t - 1]
        lo = max(p - g.ramp_10 * u, g.p_min * u)
        hi = min(p + g.ramp_10 * u, g.p_max * u)
        for side, bound in ((1.0, hi), (-1.0, -lo)):
            row = np.zeros(n_g + 1)
            row[gi] = side
            row[n_g] = -bound
            a_ub.append(row)
            b_ub.append(0.0)
    for ki, k in enumerate(case.branches):
        if k.id in removed:
            continue
        gen_part = np.array([sens[ki, bus_pos[g.bus]] for g in gens])
        load_part = float(sens[ki] @ demand)
        for side in (1.0, -1.0):
            # side * (gen_part @ pc - w * load_part) <= w * rate
            a_ub.append(np.concatenate((side * gen_part,
                                        [-side * load_part - k.rate_emergency])))
            b_ub.append(0.0)
    a_eq = [np.concatenate((np.ones(n_g), [-demand.sum()]))]
    cost = np.zeros(n_g + 1)
    cost[n_g] = -1.0
    res = linprog(cost, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=[0.0],
                  bounds=[(None, None)] * n_g + [(0.0, 1.0)], method="highs")
    if res.status != 0:
        raise AssertionError(f"oracle redispatch LP failed: {res.message}")
    return 1.0 - float(res.x[n_g])


def net_injections(case: SystemCase, dispatch: dict[int, float], t: int) -> dict[int, float]:
    """Bus injections (generation minus demand) for one period."""
    inj = {b.id: -case.demand(b.id, t) for b in case.buses}
    bus_of = {g.id: g.bus for g in case.generators}
    for gid, p in dispatch.items():
        inj[bus_of[gid]] += p
    return inj


def power_balance_residuals(case: SystemCase, sol) -> np.ndarray:
    """Per-(bus, period) residual of generation + net inflow - demand, MW."""
    bus_pos = {n: i for i, n in enumerate(sol.bus_ids)}
    res = np.zeros((len(sol.bus_ids), case.horizon))
    for ni, nid in enumerate(sol.bus_ids):
        for t in case.periods:
            res[ni, t - 1] -= case.demand(nid, t)
    bus_of = {g.id: g.bus for g in case.generators}
    for gi, gid in enumerate(sol.generator_ids):
        res[bus_pos[bus_of[gid]], :] += sol.p[gi, :]
    for ki, kid in enumerate(sol.branch_ids):
        k = case.branch(kid)
        res[bus_pos[k.to_bus], :] += sol.flow[ki, :]
        res[bus_pos[k.from_bus], :] -= sol.flow[ki, :]
    return res


def operating_cost(case: SystemCase, u: np.ndarray, v: np.ndarray, p: np.ndarray,
                   generator_ids: tuple[int, ...]) -> float:
    """Total cost of a schedule: energy plus no-load plus start-up."""
    total = 0.0
    by_id = {g.id: g for g in case.generators}
    for gi, gid in enumerate(generator_ids):
        g = by_id[gid]
        total += float(np.sum(g.cost_linear * p[gi, :]
                              + g.cost_no_load * u[gi, :]
                              + g.cost_startup * v[gi, :]))
    return total


def _startup_pattern(case: SystemCase, u: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    v = {}
    for g in case.generators:
        prev = 1 if g.initial_status else 0
        for t in case.periods:
            v[(g.id, t)] = max(0, u[(g.id, t)] - prev)
            prev = u[(g.id, t)]
    return v


def _commitment_ok(case: SystemCase, u, v) -> bool:
    T = case.horizon
    for g in case.generators:
        for t in range(g.min_up, T + 1):
            if sum(v[(g.id, q)] for q in range(t - g.min_up + 1, t + 1)) > u[(g.id, t)]:
                return False
        for t in range(1, T - g.min_down + 1):
            if sum(v[(g.id, q)] for q in range(t + 1, t + g.min_down + 1)) > 1 - u[(g.id, t)]:
                return False
    return True


def dispatch_lp(case: SystemCase, u, v, security: bool,
                contingencies: tuple[int, ...] = ()) -> float | None:
    """Least-cost dispatch for a fixed commitment, or None when infeasible.

    Flows are PTDF products of bus injections; the security variant adds a
    full redispatch block per (outage, period) limited by emergency ratings
    and 10-minute ramps.
    """
    gens = list(case.generators)
    T = case.horizon
    gpos = {g.id: i for i, g in enumerate(gens)}
    nG = len(gens)

    blocks = [("base", None, t) for t in case.periods]
    if security:
        blocks += [("cont", c, t) for t in case.periods for c in contingencies]

    # variable layout: p[g,t], r[g,t], then pc[g, (c,t)] per contingency block
    n_base = 2 * nG * T
    cont_blocks = [(c, t) for kind, c, t in blocks if kind == "cont"]
    n_vars = n_base + nG * len(cont_blocks)

    def ip(g, t):
        return gpos[g] * T + (t - 1)

    def ir(g, t):
        return nG * T + gpos[g] * T + (t - 1)

    def ic(g, bi):
        return n_base + bi * nG + gpos[g]

    cost = np.zeros(n_vars)
    for g in gens:
        for t in case.periods:
            cost[ip(g.id, t)] = g.cost_linear

    a_ub, b_ub, a_eq, b_eq = [], [], [], []

    def row_ub(entries, rhs):
        r = np.zeros(n_vars)
        for idx, coef in entries:
            r[idx] += coef
        a_ub.append(r)
        b_ub.append(rhs)

    def row_eq(entries, rhs):
        r = np.zeros(n_vars)
        for idx, coef in entries:
            r[idx] += coef
        a_eq.append(r)
        b_eq.append(rhs)

    base_sens = ptdf_pinv(case)
    bus_pos = {b.id: i for i, b in enumerate(case.buses)}
    cont_sens = {c: ptdf_pinv(case, frozenset({c})) for c in contingencies}

    for t in case.periods:
        total_d = sum(case.demand(b.id, t) for b in case.buses)
        row_eq([(ip(g.id, t), 1.0) for g in gens], total_d)
        for g in gens:
            ut = u[(g.id, t)]
            row_ub([(ip(g.id, t), -1.0)], -g.p_min * ut)
            row_ub([(ip(g.id, t), 1.0), (ir(g.id, t), 1.0)], g.p_max * ut)
            row_ub([(ir(g.id, t), 1.0)], g.ramp_10 * ut)
            row_ub([(ir(g.id, t), -1.0)], 0.0)
            pool = [(ir(q.id, t), 1.0) for q in gens]
            row_ub([(ip(g.id, t), 1.0), (ir(g.id, t), 1.0)] + [(i, -c) for i, c in pool],
                   0.0)
            u_prev = (1 if g.initial_status else 0) if t == 1 else u[(g.id, t - 1)]
            p_prev_fixed = g.initial_output if t == 1 else None
            vt = v[(g.id, t)]
            rhs_up = g.ramp_hourly * u_prev + g.ramp_startup * vt
            rhs_dn = g.ramp_hourly * ut + g.ramp_shutdown * (vt - ut + u_prev)
            if t == 1:
                row_ub([(ip(g.id, 1), 1.0)], p_prev_fixed + rhs_up)
                row_ub([(ip(g.id, 1), -1.0)], -p_prev_fixed + rhs_dn)
            else:
                row_ub([(ip(g.id, t), 1.0), (ip(g.id, t - 1), -1.0)], rhs_up)
                row_ub([(ip(g.id, t - 1), 1.0), (ip(g.id, t), -1.0)], rhs_dn)

        for ki, k in enumerate(case.branches):
            entries = [(ip(g.id, t), base_sens[ki, bus_pos[g.bus]]) for g in gens]
            base_load = sum(base_sens[ki, bus_pos[b.id]] * (-case.demand(b.id, t))
                            for b in case.buses)
            row_ub(entries, k.rate_long_term - base_load)
            row_ub([(i, -c) for i, c in entries], k.rate_long_term + base_load)

    for bi, (c, t) in enumerate(cont_blocks):
        row_eq([(ic(g.id, bi), 1.0) for g in gens],
               sum(case.demand(b.id, t) for b in case.buses))
        for g in gens:
            ut = u[(g.id, t)]
            row_ub([(ic(g.id, bi), -1.0)], -g.p_min * ut)
            row_ub([(ic(g.id, bi), 1.0)], g.p_max * ut)
            row_ub([(ic(g.id, bi), 1.0), (ip(g.id, t), -1.0)], g.ramp_10 * ut)
            row_ub([(ip(g.id, t), 1.0), (ic(g.id, bi), -1.0)], g.ramp_10 * ut)
        sens = cont_sens[c]
        for ki, k in enumerate(case.branches):
            if k.id == c:
                continue
            entries = [(ic(g.id, bi), sens[ki, bus_pos[g.bus]]) for g in gens]
            base_load = sum(sens[ki, bus_pos[b.id]] * (-case.demand(b.id, t))
                            for b in case.buses)
            row_ub(entries, k.rate_emergency - base_load)
            row_ub([(i, -c2) for i, c2 in entries], k.rate_emergency + base_load)

    res = linprog(cost, A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                  A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=[(None, None)] * n_vars, method="highs")
    if res.status != 0:
        return None
    fixed = sum(g.cost_no_load * u[(g.id, t)] + g.cost_startup * v[(g.id, t)]
                for g in gens for t in case.periods)
    return float(res.fun) + fixed


def manual_schedule(case: SystemCase, dispatch: dict[int, dict[int, float]],
                    committed: dict[int, set[int]] | None = None):
    """Hand-built schedule with DC-consistent flows (angles are placeholders).

    ``dispatch[t][g]`` is the MW output; units default to committed iff
    dispatching or listed in ``committed[t]``.
    """
    from scucnr.model import MucSolution

    gen_ids = tuple(g.id for g in case.generators)
    br_ids = tuple(k.id for k in case.branches)
    bus_ids = tuple(b.id for b in case.buses)
    T = case.horizon
    u = np.zeros((len(gen_ids), T), dtype=np.int8)
    p = np.zeros((len(gen_ids), T))
    flow = np.zeros((len(br_ids), T))
    for t in case.periods:
        disp = dispatch.get(t, {})
        on = set(committed.get(t, set())) if committed else set()
        for gi, gid in enumerate(gen_ids):
            out = float(disp.get(gid, 0.0))
            p[gi, t - 1] = out
            u[gi, t - 1] = 1 if (gid in on or out > 0) else 0
        injections = net_injections(case, disp, t)
        if abs(sum(injections.values())) <= 1e-6:
            flows = dc_flows(case, injections)
            for ki, kid in enumerate(br_ids):
                flow[ki, t - 1] = flows[kid]
        # otherwise: deliberately unbalanced schedule, flows stay zero
    zeros_g = np.zeros((len(gen_ids), T))
    return MucSolution(generator_ids=gen_ids, branch_ids=br_ids, bus_ids=bus_ids,
                       u=u, v=np.zeros_like(u), p=p, r=zeros_g, flow=flow,
                       theta=np.zeros((len(bus_ids), T)), objective=0.0)


def brute_force_commitment(case: SystemCase, security: bool = False,
                           contingencies: tuple[int, ...] = ()) -> float | None:
    """Exhaustive search over commitments; returns the optimal cost or None."""
    gens = list(case.generators)
    T = case.horizon
    best = None
    for bits in itertools.product((0, 1), repeat=len(gens) * T):
        u = {(g.id, t): bits[i * T + (t - 1)]
             for i, g in enumerate(gens) for t in case.periods}
        v = _startup_pattern(case, u)
        if not _commitment_ok(case, u, v):
            continue
        cost = dispatch_lp(case, u, v, security, contingencies)
        if cost is not None and (best is None or cost < best):
            best = cost
    return best


def linprog_solution(lp, feasibility_tol: float = 1e-7):
    """A ``LinearProgram`` solved by ``linprog(method="highs")``.

    Equality rows go to ``A_eq``; every other row goes to ``A_ub`` as it is
    when its upper side is finite and negated when its lower side is.
    Returns ``x``, the objective and the duals in ``solve_lp``'s order and
    orientation: rows (negated ones flipped back), then finite lower and
    finite upper bounds.
    """
    lo, hi = lp.row_lower, lp.row_upper
    eq = np.flatnonzero(lo == hi)
    ineq = np.flatnonzero(lo != hi)
    if not np.all(np.isinf(lo[ineq]) ^ np.isinf(hi[ineq])):
        raise ValueError("every inequality row must have exactly one finite side")
    sign = np.where(np.isinf(hi[ineq]), -1.0, 1.0)
    a = dense(lp.a)
    res = linprog(lp.cost, A_ub=sign[:, None] * a[ineq],
                  b_ub=sign * np.where(sign > 0, hi[ineq], lo[ineq]),
                  A_eq=a[eq], b_eq=hi[eq],
                  bounds=np.column_stack((lp.lb, lp.ub)), method="highs",
                  options={"primal_feasibility_tolerance": feasibility_tol,
                           "dual_feasibility_tolerance": feasibility_tol})
    if res.status != 0:
        raise AssertionError(f"reference LP failed: {res.message}")
    row_duals = np.empty(len(lo))
    row_duals[ineq] = sign * res.ineqlin.marginals
    row_duals[eq] = res.eqlin.marginals
    duals = np.concatenate((row_duals, res.lower.marginals[np.isfinite(lp.lb)],
                            res.upper.marginals[np.isfinite(lp.ub)]))
    return res.x, float(res.fun), duals
