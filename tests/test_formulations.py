import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import fixture_family
from oracles import brute_force_commitment, csc, dense, net_injections, ptdf_pinv, scipy_csc
from scucnr.backend import INF, SolverError, solve_milp
from scucnr.fixtures import (corridor4_high, corridor4_low, corridor4_stranded,
                             random_case, star4, triangle3, triangle3_tight)
from scucnr.formulations import (_Problem, base_columns, build_muc, extract_solution,
                                 extract_switching_plan, schedule_violation)
from scucnr.model import FeasibilityCut, validate_case
from scucnr.network import build_sensitivities, check_connectivity
from scucnr.orchestrator import SolveOptions, _every_pair, solve
from scucnr.subproblems import OutageRows, solve_pcfc

GAP = 1e-9


def scale_emergency(case, factor):
    return dataclasses.replace(
        case, branches=tuple(
            dataclasses.replace(k, rate_emergency=k.rate_emergency * factor)
            for k in case.branches))


def solve_model(lp, gap=GAP):
    res = solve_milp(lp, gap=gap)
    assert res.status == "optimal"
    return res


def master_schedule(case, sens):
    """The schedule extracted from the solved cut-free master."""
    lp, _ = build_muc(case, sens)
    return extract_solution(case, sens, lp, solve_model(lp))


def build_extensive(case, sens, switching=False):
    """The master with every (contingency, period) pair as a post-outage state."""
    return build_muc(case, sens, states=_every_pair(case, sens), switching=switching)


def extensive(case, sens, switching=False):
    """The solved extensive model and its switch columns."""
    lp, switches = build_extensive(case, sens, switching)
    return solve_model(lp), switches


# --- master unit commitment --------------------------------------------------

def test_muc_matches_commitment_enumeration(tri3):
    oracle = brute_force_commitment(tri3, security=False)
    res = solve_model(build_muc(tri3, build_sensitivities(tri3))[0])
    assert res.objective == pytest.approx(oracle, rel=1e-7)


def test_muc_matches_enumeration_over_two_periods():
    case = triangle3((80.0, 60.0))
    oracle = brute_force_commitment(case, security=False)
    res = solve_model(build_muc(case, build_sensitivities(case))[0])
    assert res.objective == pytest.approx(oracle, rel=1e-7)


def test_reserve_pool_forces_backup_commitment(tri3):
    # with one unit alone, total reserve cannot cover its own output, so the
    # costly unit must be committed purely as backup
    sens = build_sensitivities(tri3)
    sched = master_schedule(tri3, sens)
    ids = [g.id for g in tri3.generators]
    g1, g2 = ids.index(1), ids.index(2)
    assert sched.u[g1, 0] == 1
    assert sched.u[g2, 0] == 1
    assert sched.p[g2, 0] == pytest.approx(0.0, abs=1e-7)
    assert sched.r[g2, 0] >= sched.p[g1, 0] - 1e-6


def test_master_has_no_angle_or_flow_columns(c4_low):
    lp, _ = build_muc(c4_low, build_sensitivities(c4_low))
    # u, v, p and r cover every column once: there is no angle or flow column
    layout = np.concatenate([cols.ravel() for cols in base_columns(c4_low)])
    assert np.array_equal(np.sort(layout), np.arange(len(lp.cost)))
    assert len(lp.cost) == 4 * len(c4_low.generators) * c4_low.horizon


def test_problem_lowers_its_triplets_to_sorted_compressed_columns():
    # rows of single terms and of blocks, repeated and tiny coefficients,
    # and columns no row touches at the end
    rng = np.random.default_rng(3)
    for n_rows, n_cols in ((0, 0), (0, 4), (3, 0), (40, 25), (200, 60)):
        prob, full = _Problem(), np.zeros((n_rows, n_cols))
        for _ in range(n_cols):
            prob.add_column()
        used = max(n_cols - 5, 0)
        row = 0
        while row < n_rows:
            if row % 3 or not used:
                cols = rng.choice(used, size=rng.integers(0, used + 1), replace=False)
                coef = rng.normal(size=len(cols)) * rng.choice([1.0, 1e-12, 0.0], len(cols))
                # a repeated column is summed before the drop
                terms = [*zip(cols.tolist(), coef), *zip(cols[:1].tolist(), coef[:1])]
                prob.add_row(terms, lo=-1.0)
                full[row, cols] = coef
                full[row, cols[:1]] += coef[:1]
                row += 1
            else:
                k = min(int(rng.integers(1, 4)), n_rows - row)
                cols = rng.choice(used, size=used // 2, replace=False)
                coef = rng.normal(size=(k, len(cols))) * rng.choice([1.0, 1e-12], (k, len(cols)))
                prob.add_rows(coef, cols, np.full(k, -INF), np.ones(k))
                full[row:row + k, cols] = coef
                row += k
        a = prob.lower("random").a
        expected = csc(np.where(np.abs(full) > 1e-9, full, 0.0))
        assert a.shape == (n_rows, n_cols)
        assert (a.start.dtype, a.index.dtype, a.value.dtype) == (np.int32, np.int32, np.float64)
        for mine, theirs in ((a.start, expected.start), (a.index, expected.index),
                             (a.value, expected.value)):
            assert np.array_equal(mine, theirs), (n_rows, n_cols)


def test_problem_rejects_a_nan_coefficient_naming_its_row():
    # abs(nan) > 1e-9 is False, so the drop of tiny coefficients would let a
    # NaN term vanish from the model
    prob = _Problem()
    a, b = prob.add_column(), prob.add_column()
    prob.add_row([(a, 1.0), (b, 1e-12)], lo=0.0)
    with pytest.raises(ValueError, match=f"row 1 has a NaN coefficient on column {b}"):
        prob.add_row([(a, 1.0), (b, np.nan)], lo=0.0)
    prob = _Problem()
    cols = np.array([prob.add_column(), prob.add_column()])
    prob.add_row([(cols[0], 1.0)], hi=1.0)
    coef = np.array([[1.0, 2.0], [3.0, np.nan]])
    with pytest.raises(ValueError, match=f"row 2 has a NaN coefficient on column {cols[1]}"):
        prob.add_rows(coef, cols, np.full(2, -INF), np.ones(2))


def test_master_size_is_pinned():
    # counts that do not depend on the machine: a change to the master's
    # column or row layout shows up here
    case = random_case(101, 24, 8, 4)
    sens = build_sensitivities(case)
    coef_u, coef_p = np.zeros(len(case.generators)), np.zeros(len(case.generators))
    coef_u[:2], coef_p[0] = (1.0, -3.0), 0.5
    cut = FeasibilityCut(contingency=sens.contingencies[0], period=2,
                         coef_u=coef_u, coef_p=coef_p, constant=-2.0)
    sizes = [(len(lp.cost), len(lp.row_lower), len(lp.a.value))
             for lp in (build_muc(case, sens)[0], build_muc(case, sens, [cut])[0])]
    assert sizes == [(128, 407, 1819), (128, 408, 1822)]


def test_one_ranged_row_catches_a_branch_overload_both_ways():
    case = random_case(101, 24, 8, 4)
    sens = build_sensitivities(case)
    lp, _ = build_muc(case, sens)
    a = dense(lp.a)
    u, v, p, _ = base_columns(case)
    at_gens = sens.ptdf[:, [case.bus_index[g.bus] for g in case.generators]]
    rating = np.array([k.rate_long_term for k in case.branches])
    # per period one row per branch carries its PTDF coefficients, with both
    # long-term limits as its sides; it is the only kind of ranged row
    expected, row_of = [], {}
    for t in case.periods:
        demand_flow = sens.ptdf @ np.array([n.demand[t - 1] for n in case.buses])
        for k, rate in enumerate(rating):
            coef = np.zeros(len(lp.cost))
            coef[p[:, t - 1]] = np.where(np.abs(at_gens[k]) > 1e-9, at_gens[k], 0.0)
            same = np.flatnonzero((a == coef).all(axis=1))
            if coef.any():
                assert len(same) == 1, (t, k)
                row_of[t, k] = int(same[0])
            expected.append((*coef, demand_flow[k] - rate, demand_flow[k] + rate))
    ranged = np.flatnonzero(np.isfinite(lp.row_lower) & np.isfinite(lp.row_upper)
                            & (lp.row_lower < lp.row_upper))
    assert sorted((*a[i], lp.row_lower[i], lp.row_upper[i]) for i in ranged) == sorted(expected)

    # the master's optimum with branch 15's row in period 2 pinned at a flow
    # target: every other row holds, the balance row too; with a commitment
    # given, u and v are fixed to it, so only the dispatch moves
    t = 2
    row = row_of[t, case.branch_index[15]]
    demand = sum(n.demand[t - 1] for n in case.buses)

    def pinned(target, commitment=None):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        if commitment is not None:
            fixed = np.concatenate((u.ravel(), v.ravel()))
            lb[fixed] = ub[fixed] = np.round(commitment[fixed])
        lower, upper = lp.row_lower.copy(), lp.row_upper.copy()
        lower[row] = upper[row] = target
        model = dataclasses.replace(lp, lb=lb, ub=ub, row_lower=lower, row_upper=upper)
        res = solve_model(model)
        sched = extract_solution(case, sens, model, res)
        assert sched.p[:, t - 1].sum() == pytest.approx(demand)
        return sched, res.x

    # forward at the row's upper side, then in reverse at its lower side
    for sign, limit in ((1.0, lp.row_upper[row]), (-1.0, lp.row_lower[row])):
        at_rating, x = pinned(limit)
        assert schedule_violation(case, lp, at_rating) is None
        past, _ = pinned(limit + sign * 2e-5, x)
        assert np.array_equal(past.u, at_rating.u)
        problem = schedule_violation(case, lp, past)
        assert problem.startswith(f"row {row} of 'muc' in period {t} is broken by ")
        assert float(problem.rsplit(" ", 1)[1]) == pytest.approx(2e-5, rel=1e-3)


NETWORK_CASES = {
    "triangle3": triangle3,
    "triangle3_tight": triangle3_tight,
    "star4": star4,
    "corridor4_high": corridor4_high,
    "corridor4_low": corridor4_low,
    "corridor4_stranded": corridor4_stranded,
    "random_101_24_8_4": lambda: random_case(101, 24, 8, 4),
}


@pytest.mark.parametrize("name", sorted(NETWORK_CASES))
def test_schedule_flows_and_angles_follow_the_dispatch(name):
    case = NETWORK_CASES[name]()
    sens = build_sensitivities(case)
    sched = master_schedule(case, sens)
    injections = np.array([
        [net_injections(case, dict(zip(sched.generator_ids, sched.p[:, t - 1])), t)[b.id]
         for t in case.periods] for b in case.buses])
    assert np.abs(sched.flow - ptdf_pinv(case) @ injections).max() <= 1e-9

    beff = np.array([[k.susceptance * case.base_mva] for k in case.branches])
    frm = [case.bus_index[k.from_bus] for k in case.branches]
    to = [case.bus_index[k.to_bus] for k in case.branches]
    assert np.abs(beff * (sched.theta[frm] - sched.theta[to]) - sched.flow).max() <= 1e-9
    assert (sched.theta[case.bus_index[case.reference_bus]] == 0.0).all()


def test_integer_demands_keep_fractional_flows():
    # Bus.demand may hold ints when a case is built in code; the flows must
    # still carry the fractional dispatch rather than a truncated one.
    base = random_case(101, 24, 8, 4)
    case = dataclasses.replace(base, buses=tuple(
        dataclasses.replace(b, demand=tuple(int(round(d)) for d in b.demand))
        for b in base.buses))
    sens = build_sensitivities(case)
    sched = master_schedule(case, sens)
    assert np.abs(sched.p - np.round(sched.p)).max() > 0.1
    injections = np.array([
        [net_injections(case, dict(zip(sched.generator_ids, sched.p[:, t - 1])), t)[b.id]
         for t in case.periods] for b in case.buses])
    assert np.abs(sched.flow - ptdf_pinv(case) @ injections).max() <= 1e-9


def test_extraction_rejects_an_answer_that_breaks_its_model(tri3):
    sens = build_sensitivities(tri3)
    lp, _ = build_muc(tri3, sens)
    res = solve_model(lp)
    assert extract_solution(tri3, sens, lp, res).p.sum() == pytest.approx(80.0)
    # the balance row asks for one MW less than the answer serves
    balance = int(np.flatnonzero(lp.row_lower == lp.row_upper)[0])
    tight = dataclasses.replace(lp, row_upper=lp.row_upper.copy())
    tight.row_upper[balance] -= 1.0
    with pytest.raises(SolverError, match=f"row {balance} of 'muc' in period 1 is broken by 1"):
        extract_solution(tri3, sens, tight, res)


def test_one_cut_adds_exactly_one_row(tri3):
    sens = build_sensitivities(tri3)
    base, _ = build_muc(tri3, sens)
    cut = FeasibilityCut(contingency=1, period=1, coef_u=[1.0, 0.0], coef_p=[0.0, 0.5],
                         constant=-2.0)
    with_cut, _ = build_muc(tri3, sens, [cut])
    assert len(with_cut.row_lower) == len(base.row_lower) + 1


def test_cut_needs_one_coefficient_per_generator(tri3):
    # zip would pair a short vector with the first generators without a word
    sens = build_sensitivities(tri3)
    for coef_u, coef_p in (([1.0], [0.0, 0.5]), ([1.0, 0.0], [0.5]), ([1.0, 0.0, 2.0],) * 2):
        cut = FeasibilityCut(contingency=1, period=1, coef_u=coef_u, coef_p=coef_p,
                             constant=-2.0)
        with pytest.raises(ValueError, match="the case has 2 generators"):
            build_muc(tri3, sens, [cut])


def test_zero_ten_minute_ramp_kills_dispatch():
    # reserve rows force every unit's output below the total reserve pool,
    # which is zero when no unit can ramp: only a zero-demand system solves
    base = triangle3((0.0,))
    dead = dataclasses.replace(
        base, generators=tuple(dataclasses.replace(g, ramp_10=0.0, p_min=0.0,
                                                   initial_output=0.0)
                               for g in base.generators))
    sens = build_sensitivities(dead)
    sched = master_schedule(dead, sens)
    assert np.abs(sched.p).max() == pytest.approx(0.0, abs=1e-9)

    loaded = triangle3((10.0,))
    dead_loaded = dataclasses.replace(
        loaded, generators=tuple(dataclasses.replace(g, ramp_10=0.0, p_min=0.0,
                                                     initial_output=0.0)
                                 for g in loaded.generators))
    lp, _ = build_muc(dead_loaded, build_sensitivities(dead_loaded))
    assert solve_milp(lp).status == "infeasible"


@pytest.mark.parametrize("build", [triangle3, lambda: random_case(101, 12, 5, 4)],
                         ids=["triangle3", "random_101_12_5_4"])
def test_reported_reserve_is_the_largest_each_unit_can_hold(build):
    # reserve has no cost, so the schedule reports a canonical value instead
    # of whatever split the MILP returned
    case = build()
    sched = solve(case, SolveOptions(method="extensive_scuc")).schedule
    p_max = np.array([[g.p_max] for g in case.generators])
    ramp_10 = np.array([[g.ramp_10] for g in case.generators])
    assert np.array_equal(sched.r, np.minimum(ramp_10, p_max - sched.p) * sched.u)
    others = sched.r.sum(axis=0) - sched.r
    assert (others >= sched.p - 1e-6).all()


# --- extensive models --------------------------------------------------------

def test_huge_emergency_ratings_make_extensive_equal_muc(tri3):
    relaxed = scale_emergency(tri3, 100.0)
    sens = build_sensitivities(relaxed)
    muc = solve_model(build_muc(relaxed, sens)[0])
    ext, _ = extensive(relaxed, sens)
    assert ext.objective == pytest.approx(muc.objective, rel=1e-9)


def test_extensive_dominates_muc(c4_low):
    sens = build_sensitivities(c4_low)
    muc = solve_model(build_muc(c4_low, sens)[0])
    ext, _ = extensive(c4_low, sens)
    assert ext.objective >= muc.objective - 1e-6


def test_security_constrained_optimum_matches_enumeration(tri3_tight):
    sens = build_sensitivities(tri3_tight)
    oracle = brute_force_commitment(tri3_tight, security=True,
                                    contingencies=tuple(sens.contingencies))
    ext, _ = extensive(tri3_tight, sens)
    assert ext.objective == pytest.approx(oracle, rel=1e-7)


def test_switching_budget_zero_reduces_to_plain_model(tri3_tight, c4_low):
    for case in (tri3_tight, c4_low):
        pinned_case = dataclasses.replace(
            case, branches=tuple(dataclasses.replace(k, reconfigurable=False)
                                 for k in case.branches))
        sens = build_sensitivities(pinned_case)
        plain, _ = extensive(pinned_case, sens)
        pinned, switches = extensive(pinned_case, sens, switching=True)
        assert not any(switches.values())
        assert pinned.objective == pytest.approx(plain.objective, rel=1e-6)


def test_switching_budget_one_is_a_relaxation(c4_low):
    sens = build_sensitivities(c4_low)
    plain, _ = extensive(c4_low, sens)
    cnr, _ = extensive(c4_low, sens, switching=True)
    assert cnr.objective <= plain.objective + 1e-6


@pytest.mark.parametrize("name, switching, size", [
    ("random_101_12_5_4", False, (3299, 380, 10259, 0)),
    ("random_101_12_5_4", True, (6559, 1980, 45267, 800)),
    ("corridor4_high", False, (273, 54, 503, 0)),
    ("corridor4_high", True, (411, 118, 1063, 32)),
], ids=["random_101_12_5_4-plain", "random_101_12_5_4-cnr", "corridor4_high-plain",
        "corridor4_high-cnr"])
def test_extensive_size_is_pinned(name, switching, size):
    # rows, columns, nonzeros and z columns do not depend on the machine: a
    # change to the extensive layout shows up here
    case = {"random_101_12_5_4": lambda: random_case(101, 12, 5, 4),
            "corridor4_high": corridor4_high}[name]()
    lp, switches = build_extensive(case, build_sensitivities(case), switching)
    assert (len(lp.row_lower), len(lp.cost), len(lp.a.value),
            sum(len(z) for z in switches.values())) == size


def test_switching_rescues_an_insecure_system(c4_high):
    sens = build_sensitivities(c4_high)
    assert solve_milp(build_extensive(c4_high, sens)[0]).status == "infeasible"
    cnr, switches = extensive(c4_high, sens, switching=True)
    plan = extract_switching_plan(switches, cnr)
    assert any(c == 3 for (c, t) in plan)  # losing the direct line needs a switch


def test_a_state_is_a_contingency_in_a_period(c4_high, star):
    # period 0 would read the columns of period T through index -1
    sens = build_sensitivities(c4_high)
    for state in ((3, 0), (3, c4_high.horizon + 1), (1, 1)):
        with pytest.raises(ValueError, match=rf"state \({state[0]},{state[1]}\)"):
            build_muc(c4_high, sens, states=[state])
    with pytest.raises(ValueError, match=r"state \(1,1\)"):  # a radial line
        build_muc(star, build_sensitivities(star), states=[(1, 1)])


def test_one_state_models_its_own_pair(c4_high):
    # losing the direct line needs a switch in period 2 only
    sens = build_sensitivities(c4_high)
    assert solve_milp(build_muc(c4_high, sens, states=[(3, 2)])[0]).status == "infeasible"
    for states, switching in (([(3, 2)], True), ([(3, 1)], False)):
        lp, _ = build_muc(c4_high, sens, states=states, switching=switching)
        assert solve_model(lp).objective == pytest.approx(4340.0, rel=1e-9)


def fix_schedule(case, lp, schedule):
    """``lp`` with its ``u``, ``v`` and ``p`` columns fixed at ``schedule``."""
    lb, ub = lp.lb.copy(), lp.ub.copy()
    u, v, p, _ = base_columns(case)
    for columns, values in ((u, schedule.u), (v, schedule.v), (p, schedule.p)):
        lb[columns] = ub[columns] = values
    return dataclasses.replace(lp, lb=lb, ub=ub)


def test_restricted_model_agrees_with_the_switch_search():
    # the loop rescues (27, 2) by opening line 10: at its schedule, the model
    # of that one state is infeasible without switches, and the big-M switch
    # rows keep a feasible point
    case = random_case(101, 24, 8, 4)
    res = solve(case, SolveOptions(method="td_scuc_cnr"))
    assert res.switches[(27, 2)] == 10
    sens = build_sensitivities(case)
    lp, _ = build_muc(case, sens, states=[(27, 2)])
    assert solve_milp(fix_schedule(case, lp, res.schedule)).status == "infeasible"
    lp, switches = build_muc(case, sens, states=[(27, 2)], switching=True)
    rescued = solve_milp(fix_schedule(case, lp, res.schedule))
    assert rescued.status == "optimal"
    assert (27, 2) in extract_switching_plan(switches, rescued)


SWITCH_CASES ={**fixture_family(), "random_101_12_5_4": random_case(101, 12, 5, 4)}
# no generated or fixture line is pinned, so pin every odd one of a copy
SWITCH_CASES["random_101_12_5_4_pinned"] = dataclasses.replace(
    SWITCH_CASES["random_101_12_5_4"],
    branches=tuple(dataclasses.replace(k, reconfigurable=k.id % 2 == 0)
                   for k in SWITCH_CASES["random_101_12_5_4"].branches))


@pytest.mark.parametrize("name", sorted(SWITCH_CASES))
def test_switchable_lines_are_the_connectivity_brute_force(name):
    # after outage c, line j may open iff it is reconfigurable, is not c, and
    # opening both keeps every bus connected
    case = SWITCH_CASES[name]
    sens = build_sensitivities(case)
    _, switches = build_extensive(case, sens, switching=True)
    assert set(switches) == {(c, t) for c in sens.contingencies for t in case.periods}
    for (c, t), z in switches.items():
        expected = [k.id for k in sorted(case.branches, key=lambda k: k.id)
                    if k.reconfigurable and k.id != c and check_connectivity(case, {c, k.id})]
        assert list(z) == expected, (c, t)


def test_relaxation_chain(tri3, tri3_tight, star, c4_low):
    for case in (tri3, tri3_tight, star, c4_low):
        sens = build_sensitivities(case)
        muc = solve_model(build_muc(case, sens)[0]).objective
        cnr = extensive(case, sens, switching=True)[0].objective
        scuc = extensive(case, sens)[0].objective
        slack = 1e-6 * max(1.0, abs(scuc))
        assert muc <= cnr + slack
        assert cnr <= scuc + slack


def test_binaries_are_integral(c4_low):
    lp, _ = build_muc(c4_low, build_sensitivities(c4_low))
    res = solve_model(lp)
    u, v, _, _ = base_columns(c4_low)
    binary = np.concatenate((u.ravel(), v.ravel()))
    assert np.flatnonzero(lp.integrality).tolist() == sorted(binary.tolist())
    assert np.abs(res.x[binary] - np.round(res.x[binary])).max() <= 1e-6


# --- feasibility cuts --------------------------------------------------------

def first_violated_pair(case, method="td_scuc"):
    """Schedule from a cut-free master plus its first unsurvivable pair."""
    sens = build_sensitivities(case)
    sched = master_schedule(case, sens)
    for t in case.periods:
        for c in sens.contingencies:
            out = solve_pcfc(OutageRows(case, sens, c), sched, t)
            if out.status == "infeasible":
                return sched, out
    raise AssertionError("fixture produced no violated subproblem")


def test_cut_reproduces_slack_at_generating_point(tri3_tight):
    sched, out = first_violated_pair(tri3_tight)
    cut = out.cut
    assert cut.evaluate_solution(sched) == pytest.approx(out.slack, abs=1e-6)
    assert out.slack > 1e-6  # i.e. the cut separates this schedule


def test_cut_is_satisfied_by_secure_schedules(c4_low):
    """Sampled validity: feasible-here master points land on the cut's good side."""
    sched, out = first_violated_pair(c4_low)
    c, t = out.contingency, out.period
    cut = out.cut
    sens = build_sensitivities(c4_low)
    u, _, p, _ = base_columns(c4_low)
    g2 = [g.id for g in c4_low.generators].index(2)
    lp, _ = build_muc(c4_low, sens)

    rng = np.random.default_rng(11)
    checked_feasible = 0
    trials = 0
    while checked_feasible < 20 and trials < 200:
        trials += 1
        # pin a random commitment pattern and a random dispatch floor to
        # scatter master points across the feasible region
        lb, ub = lp.lb.copy(), lp.ub.copy()
        for gi, g in enumerate(c4_low.generators):
            for tt in c4_low.periods:
                must_run = g.initial_status or rng.random() < 0.7
                lb[u[gi, tt - 1]] = ub[u[gi, tt - 1]] = 1.0 if must_run else 0.0
        floor = float(rng.uniform(0.0, 40.0))
        push = np.zeros((1, len(lp.cost)))
        push[0, p[g2, t - 1]], push[0, u[g2, t - 1]] = 1.0, -floor
        pinned = dataclasses.replace(
            lp, lb=lb, ub=ub, a=csc(sp.vstack((scipy_csc(lp.a), push))),
            row_lower=np.append(lp.row_lower, 0.0), row_upper=np.append(lp.row_upper, INF))
        res = solve_milp(pinned, gap=GAP)
        if res.status != "optimal":
            continue
        point = extract_solution(c4_low, sens, pinned, res)
        check = solve_pcfc(OutageRows(c4_low, sens, c), point, t)
        if check.status == "feasible":
            checked_feasible += 1
            # a valid feasibility cut never excludes a schedule whose
            # subproblem is survivable
            assert cut.evaluate_solution(point) <= 1e-6
    assert checked_feasible >= 20


def test_cut_touches_only_its_own_period():
    case = corridor4_low()
    sched, out = first_violated_pair(case)
    cut = out.cut
    assert out.period == 2
    muc, _ = build_muc(case, build_sensitivities(case), [cut])
    # the cut row, the last one, may only touch period-2 u and p columns
    u, _, p, _ = base_columns(case)
    touched = scipy_csc(muc.a).tocsr()[[-1]].indices
    assert len(touched) > 0
    own = u[:, out.period - 1].tolist() + p[:, out.period - 1].tolist()
    assert set(touched.tolist()) <= set(own)


def test_adding_cut_changes_next_master(c4_low):
    sched, out = first_violated_pair(c4_low)
    cut = out.cut
    sens = build_sensitivities(c4_low)
    first = solve_model(build_muc(c4_low, sens)[0])
    cut_master, _ = build_muc(c4_low, sens, [cut])
    second = solve_model(cut_master)
    assert second.objective >= first.objective - 1e-9
    point = extract_solution(c4_low, sens, cut_master, second)
    assert cut.evaluate_solution(point) <= 1e-6


def test_validate_all_fixture_cases(tri3, tri3_tight, star, c4_high, c4_low, c4_stranded):
    for case in (tri3, tri3_tight, star, c4_high, c4_low, c4_stranded):
        assert validate_case(case) == []
