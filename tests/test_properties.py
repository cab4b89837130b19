"""Property tests over generated cases."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import manual_schedule, ptdf_pinv
from scucnr.backend import solve_milp
from scucnr.fixtures import corridor4_high, corridor4_stranded, random_case
from scucnr.formulations import build_muc, extract_solution
from scucnr.network import build_sensitivities, check_connectivity
from scucnr.orchestrator import SolveOptions, solve
from scucnr.subproblems import OutageRows, run_csps, solve_pcfc, switch_candidates

CASES = st.builds(random_case, seed=st.integers(0, 2**16), n_buses=st.integers(3, 30),
                  n_generators=st.integers(1, 8), horizon=st.just(2))


def switchable_pairs(case, sens):
    """Every contingency with each other line whose opening with it islands
    a bus (True) or not (False), by a graph search."""
    return [(c, k.id, not check_connectivity(case, {c, k.id}))
            for c in sens.contingencies for k in case.branches if k.id != c]


@settings(max_examples=12, deadline=None)
@example(case=corridor4_high(), seed=0)
@given(case=CASES, seed=st.integers(0, 2**32 - 1))
def test_transaction_column_gives_the_flows_without_both_lines(case, seed):
    # at_gens @ pc - demand_flow(t) + shed(j) f_j, with f_j the flow on j
    # before it opens, is the DC flow of the network without c and j
    sens = build_sensitivities(case)
    rng = np.random.default_rng(seed)
    t = int(rng.integers(1, case.horizon + 1))
    demand = np.array([n.demand[t - 1] for n in case.buses])
    pc = rng.dirichlet(np.ones(len(case.generators))) * demand.sum()
    injection = -demand
    np.add.at(injection, [case.bus_index[g.bus] for g in case.generators], pc)
    pairs = switchable_pairs(case, sens)
    for c in sens.contingencies:
        js = [j for c_, j, islands in pairs if c_ == c and not islands]
        if not js:
            continue
        rows = OutageRows(case, sens, c)
        flow = rows.at_gens @ pc - rows.demand_flow(t)
        kept = np.arange(len(case.branches)) != case.branch_index[c]
        f_j = flow[[case.branch_index[j] for j in js]]
        switched = flow[kept, None] + rows.shed(js)[::2] * f_j
        oracle = np.column_stack([ptdf_pinv(case, frozenset({c, j}))[kept] @ injection
                                  for j in js])
        scale = max(1.0, np.abs(injection).sum())
        np.testing.assert_allclose(switched, oracle, rtol=0, atol=1e-9 * scale, err_msg=str(c))


@settings(max_examples=12, deadline=None)
@example(case=corridor4_high())
@given(case=CASES)
def test_switch_lp_of_an_islanding_pair_raises(case):
    # as does a switch LP that opens the outaged line itself
    sens = build_sensitivities(case)
    nothing_on = manual_schedule(case, {})
    for c, j, islands in switchable_pairs(case, sens):
        if islands:
            with pytest.raises(ValueError, match="islands"):
                solve_pcfc(OutageRows(case, sens, c), nothing_on, 1, j)
    for c in sens.contingencies:
        with pytest.raises(ValueError, match="differ"):
            solve_pcfc(OutageRows(case, sens, c), nothing_on, 1, c)


@settings(max_examples=30, deadline=None)
@example(case=corridor4_high())
@example(case=random_case(9, 40, 12, 8))
@given(case=st.builds(random_case, seed=st.integers(0, 2**16), n_buses=st.integers(3, 30),
                      n_generators=st.integers(1, 8), horizon=st.integers(1, 4)))
def test_screen_drops_only_survivable_pairs(case):
    # every pair the distribution-factor screen drops at the cut-free
    # master's schedule is feasible by its own redispatch LP
    sens = build_sensitivities(case)
    lp, _ = build_muc(case, sens)
    res = solve_milp(lp)
    assume(res.status == "optimal")
    muc = extract_solution(case, sens, lp, res)
    pairs = [(c, t) for t in case.periods for c in sens.contingencies]
    critical = set(run_csps(case, sens, muc, pairs).critical)
    rows = {c: OutageRows(case, sens, c) for c in sens.contingencies}
    for c, t in pairs:
        if (c, t) not in critical:
            out = solve_pcfc(rows[c], muc, t)
            assert out.status == "feasible", (c, t, out.slack)


@settings(max_examples=20, deadline=None)
@example(case=corridor4_high())
@example(case=corridor4_stranded())
@example(case=random_case(9, 40, 12, 8))
@given(case=st.builds(random_case, seed=st.integers(0, 2**16), n_buses=st.integers(3, 30),
                      n_generators=st.integers(1, 8), horizon=st.integers(1, 4)))
def test_box_bound_proves_only_hopeless_switches(case):
    # every line the box bound calls hopeless at the cut-free master's
    # schedule leaves its pair unsurvivable by a cold switch LP
    sens = build_sensitivities(case)
    lp, _ = build_muc(case, sens)
    res = solve_milp(lp)
    assume(res.status == "optimal")
    muc = extract_solution(case, sens, lp, res)
    for c in sens.contingencies:
        rows = OutageRows(case, sens, c)
        js = list(switch_candidates(rows))
        for t in case.periods:
            for j, hopeless in zip(js, rows.hopeless(muc, t, js)):
                if hopeless:
                    out = solve_pcfc(rows, muc, t, j)
                    assert out.status == "infeasible", (c, t, j, out.slack)


@settings(max_examples=20, deadline=None)
@example(case=corridor4_high(), seed=0)
@given(case=CASES, seed=st.integers(0, 2**32 - 1))
def test_lodf_columns_give_the_post_outage_flows(case, seed):
    # base flow plus LODF[:, c] times the outaged line's base flow is the DC
    # flow of the network without c, for any balanced injection
    sens = build_sensitivities(case)
    injection = np.random.default_rng(seed).uniform(-100.0, 100.0, len(case.buses))
    injection -= injection.mean()
    base = sens.ptdf @ injection
    scale = max(1.0, np.abs(injection).sum())
    for c in sens.contingencies:
        ci = case.branch_index[c]
        post = base + sens.lodf[:, ci] * base[ci]
        oracle = ptdf_pinv(case, frozenset({c})) @ injection
        np.testing.assert_allclose(post, oracle, rtol=0, atol=1e-9 * scale, err_msg=str(c))


@settings(max_examples=6, deadline=None)
@example(case=corridor4_high())
@example(case=random_case(14, 20, 6, 3))      # converges with 2 cuts and a switch
@given(case=st.builds(random_case, seed=st.integers(0, 2**16), n_buses=st.integers(3, 20),
                      n_generators=st.integers(1, 6), horizon=st.integers(1, 3)))
def test_outcomes_do_not_depend_on_workers(case):
    # worker threads run their contingencies' LPs at the same time, and the
    # run must still decide every pair and form every cut as one thread does
    one, two = (solve(case, SolveOptions(method="ad_scuc_cnr", workers=workers))
                for workers in (1, 2))
    assert one.status == two.status
    assert one.report.iteration_log == two.report.iteration_log
    assert one.report.subproblems == two.report.subproblems
    assert one.cuts == two.cuts
