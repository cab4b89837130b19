import dataclasses

import numpy as np
import pytest

import scucnr.backend
import scucnr.subproblems
from conftest import fixture_family
from oracles import dc_flows, manual_schedule, net_injections, redispatch_slack
from scucnr.backend import Engine, SolverError, solve_lp, solve_milp
from scucnr.fixtures import (corridor4_high, corridor4_low, corridor4_stranded, random_case,
                             triangle3, triangle3_tight)
from scucnr.formulations import build_muc, extract_solution
from scucnr.network import build_sensitivities, check_connectivity
from scucnr.orchestrator import SolveOptions, solve
from scucnr.subproblems import (HOPELESS_MARGIN_MW, OutageRows, _slack_lp,
                                find_corrective_switch, run_csps, solve_pcfc,
                                switch_candidates)


def cheap_point(case):
    """Schedule from the cut-free master (no security pressure yet)."""
    sens = build_sensitivities(case)
    lp, _ = build_muc(case, sens)
    res = solve_milp(lp, gap=1e-9)
    assert res.status == "optimal"
    return extract_solution(case, sens, lp, res)


def all_pairs(case, sens):
    return [(c, t) for t in case.periods for c in sens.contingencies]


def rerated(case, ratings):
    """``case`` with branch ``k``'s emergency rating ``ratings[k]``."""
    return dataclasses.replace(case, branches=tuple(
        dataclasses.replace(k, rate_emergency=ratings.get(k.id, k.rate_emergency))
        for k in case.branches))


# --- screening ---------------------------------------------------------------

def test_huge_ratings_screen_everything_out(tri3):
    relaxed = dataclasses.replace(
        tri3, branches=tuple(dataclasses.replace(k, rate_emergency=k.rate_emergency * 10)
                             for k in tri3.branches))
    sens = build_sensitivities(relaxed)
    muc = cheap_point(relaxed)
    screen = run_csps(relaxed, sens, muc, all_pairs(relaxed, sens))
    assert screen.critical == ()
    assert screen.candidates == 3


def test_triangle_overload_is_flagged(tri3):
    # base split puts 2/3 of the 80 MW on branch 1; losing branch 2 diverts
    # its 1/3 share fully onto branch 1: predicted 80 MW against a 75 MW
    # emergency rating -> critical
    tight = dataclasses.replace(
        tri3, branches=(dataclasses.replace(tri3.branches[0], rate_long_term=70.0,
                                            rate_emergency=75.0),)
        + tri3.branches[1:])
    sens = build_sensitivities(tight)
    muc = manual_schedule(tight, {1: {1: 80.0}}, committed={1: {1, 2}})
    assert muc.flow[tight.branch_index[1], 0] == pytest.approx(2.0 / 3.0 * 80.0, abs=1e-9)
    screen = run_csps(tight, sens, muc, all_pairs(tight, sens))
    assert (2, 1) in screen.critical
    # the prediction is 80 MW: a rating just above it clears the pair
    for rating, flagged in ((80.0 - 1e-3, True), (80.0 + 1e-3, False)):
        screen = run_csps(rerated(tight, {1: rating}), sens, muc, all_pairs(tight, sens))
        assert ((2, 1) in screen.critical) == flagged, rating


def test_candidate_list_restricted_to_one_period(c4_high):
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    screen = run_csps(c4_high, sens, muc, [(c, 2) for c in sens.contingencies])
    assert screen.candidates == len(sens.contingencies)
    assert all(t == 2 for _, t in screen.critical)


def test_corridor_screen_flags_only_direct_line_peak(c4_high):
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    screen = run_csps(c4_high, sens, muc, all_pairs(c4_high, sens))
    # at 130 MW the direct-line outage predicts 104 MW on the 66 MW leg
    assert screen.critical == ((3, 2),)
    # the 1-2-4 legs carry 80% of each period's transfer, 64 and 104 MW
    for t, peak in ((1, 0.8 * 80.0), (2, 0.8 * 130.0)):
        for rating, flagged in ((peak - 1e-3, True), (peak + 1e-3, False)):
            screen = run_csps(rerated(c4_high, {2: rating, 4: rating}), sens, muc, [(3, t)])
            assert screen.critical == (((3, t),) if flagged else ()), (t, rating)


def test_rejects_bridge_candidates(star):
    sens = build_sensitivities(star)
    muc = cheap_point(star)
    with pytest.raises(ValueError):
        run_csps(star, sens, muc, [(1, 1)])


# --- screen soundness --------------------------------------------------------

@pytest.mark.parametrize("build, least_critical", [
    (triangle3, 0), (triangle3_tight, 1), (corridor4_high, 1), (corridor4_low, 1),
    (lambda: random_case(9, 40, 12, 8), 14), (lambda: random_case(101, 24, 8, 4), 1),
], ids=["tri3", "tri3_tight", "c4_high", "c4_low", "random_9_40_12_8", "random_101_24_8_4"])
def test_screened_out_pairs_are_survivable(build, least_critical):
    # a pair the screen drops is feasible with slack exactly 0 by a cold LP,
    # at the cut-free master's schedule and at a converged one; a pair it
    # keeps may go either way
    case = build()
    sens = build_sensitivities(case)
    rows = {c: OutageRows(case, sens, c) for c in sens.contingencies}
    converged = solve(case, SolveOptions(method="ad_scuc_cnr"))
    assert converged.converged
    for muc in (cheap_point(case), converged.schedule):
        critical = set(run_csps(case, sens, muc, all_pairs(case, sens)).critical)
        dropped = [pair for pair in all_pairs(case, sens) if pair not in critical]
        assert len(dropped) > len(critical) >= least_critical
        for c, t in dropped:
            out = solve_pcfc(rows[c], muc, t)
            assert (out.status, out.slack) == ("feasible", 0.0), (c, t)


# --- redispatch feasibility ----------------------------------------------------

def test_no_ramp_no_rescue(tri3_tight):
    frozen = dataclasses.replace(
        tri3_tight,
        generators=tuple(dataclasses.replace(g, ramp_10=0.0) for g in tri3_tight.generators))
    muc = manual_schedule(frozen, {1: {1: 80.0}}, committed={1: {1, 2}})
    # hand check: with branch 1 gone, the 1-3 corridor must carry the full
    # cheap-unit output 80 MW against its 45 MW emergency rating, and zero
    # 10-minute ramp freezes every unit at its schedule
    out = solve_pcfc(OutageRows(frozen, build_sensitivities(frozen), 1), muc, 1)
    assert out.status == "infeasible"
    assert out.slack == pytest.approx(1.0, abs=1e-6)


def test_redispatch_interval_decides_feasibility(tri3_tight):
    # one degree of freedom: the bus-3 unit's contingency output x. The
    # 1-2 outage forces the 1-3 corridor flow (80 - x) under its 45 MW
    # emergency rating, the cheap unit can shed at most its 20 MW ramp.
    def interval(p1, p2):
        lo = max(80.0 - 45.0, 80.0 - p1 - 20.0, p2 - 100.0, 0.0)
        hi = min(80.0 - p1 + 20.0, p2 + 100.0, 100.0, 80.0 - 10.0)
        return lo, hi

    secure = manual_schedule(tri3_tight, {1: {1: 65.0, 2: 15.0}})
    lo, hi = interval(65.0, 15.0)
    assert lo <= hi  # hand oracle says survivable (exactly at x = 35)
    out = solve_pcfc(OutageRows(tri3_tight, build_sensitivities(tri3_tight), 1), secure, 1)
    assert out.status == "feasible"
    assert out.slack <= 1e-6

    exposed = manual_schedule(tri3_tight, {1: {1: 80.0}}, committed={1: {1, 2}})
    lo, hi = interval(80.0, 0.0)
    assert lo > hi  # hand oracle says unsurvivable
    out = solve_pcfc(OutageRows(tri3_tight, build_sensitivities(tri3_tight), 1), exposed, 1)
    assert out.status == "infeasible"


def test_slack_lp_never_infeasible_even_for_absurd_inputs(c4_high):
    nothing_on = manual_schedule(c4_high, {1: {}, 2: {}})
    for c in (2, 3, 4):
        out = solve_pcfc(OutageRows(c4_high, build_sensitivities(c4_high), c), nothing_on, 2)
        # no committed unit can serve load: the slack lands exactly on 1
        assert out.status == "infeasible"
        assert out.slack == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("t, x0, status", [
    (1, 0.0, "feasible"), (2, 1.0 - 1e-11, "infeasible"), (2, 1.0 + 1e-11, "infeasible"),
    (2, 0.5, None), (2, float("nan"), None)])
def test_slack_must_be_zero_or_one(c4_high, monkeypatch, t, x0, status):
    # the engine's slack replaced by x0: a slack that is neither 0 nor 1
    # within SLACK_TOLERANCE, NaN included, raises and names its LP
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)

    def replaced(lp, *args, **kwargs):
        result = solve_lp(lp, *args, **kwargs)
        return dataclasses.replace(result, x=np.concatenate(([x0], result.x[1:])))

    monkeypatch.setattr(scucnr.subproblems, "solve_lp", replaced)
    rows = OutageRows(c4_high, sens, 3)
    if status is None:
        with pytest.raises(SolverError, match=rf"pcfc\[3,{t}\] slack {x0}"):
            solve_pcfc(rows, muc, t)
    else:
        out = solve_pcfc(rows, muc, t)
        assert (out.status, out.slack) == (status, x0)


def test_nan_duals_fail_the_dual_accounting_naming_the_pair(c4_high, monkeypatch):
    # gap > tol is False for a NaN gap; the check must be a positive one
    def nan_duals(lp, *args, **kwargs):
        result = solve_lp(lp, *args, **kwargs)
        return dataclasses.replace(result, row_duals=np.full_like(result.row_duals, np.nan))

    monkeypatch.setattr(scucnr.subproblems, "solve_lp", nan_duals)
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    for c, t in all_pairs(c4_high, sens):
        with pytest.raises(SolverError, match=rf"pcfc\[{c},{t}\] dual accounting off by nan"):
            solve_pcfc(OutageRows(c4_high, sens, c), muc, t)


def test_cached_constants_are_read_only():
    # the pattern, the slack columns and a period's block are shared by
    # every later LP, so a caller must not be able to write to them
    case = random_case(101, 24, 8, 4)
    sens = build_sensitivities(case)
    rows = OutageRows(case, sens, sens.contingencies[0])
    block = rows.at(2)
    assert all(x is y for x, y in zip(block, rows.at(2), strict=True))
    lp = _slack_lp(block, cheap_point(case), 2, "pair")
    for array in (*scucnr.backend._dense_pattern(*lp.a.shape), lp.cost, lp.lb, lp.ub, *block,
                  rows.demand_flow(2), rows.at_gens):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 7.0


def test_duals_satisfy_strong_duality_everywhere(tri3_tight, c4_high):
    for case in (tri3_tight, c4_high):
        sens = build_sensitivities(case)
        muc = cheap_point(case)
        for c, t in all_pairs(case, sens):
            out = solve_pcfc(OutageRows(case, sens, c), muc, t)  # raises internally on a gap
            assert 0.0 <= out.slack <= 1.0 + 1e-6
            assert (out.cut is not None) == (out.status == "infeasible")


def test_a_cut_comes_only_from_a_cold_unswitched_solve():
    # one routine solves every post-outage LP: warm on an engine it decides
    # as a cold solve does, with no cut; cold and unswitched it carries the
    # cut of each unsurvivable pair; switched, warm or cold, it never does
    case = random_case(9, 40, 12, 8)
    sens = build_sensitivities(case)
    muc = cheap_point(case)
    cuts = switched_infeasible = 0
    for c in sens.contingencies:
        rows, engine = OutageRows(case, sens, c), Engine()
        for t in case.periods:
            warm, cold = solve_pcfc(rows, muc, t, engine=engine), solve_pcfc(rows, muc, t)
            assert warm.status == cold.status, (c, t)
            assert warm.slack == pytest.approx(cold.slack, abs=1e-9), (c, t)
            assert warm.cut is None
            assert (cold.cut is not None) == (cold.status == "infeasible"), (c, t)
            cuts += cold.cut is not None
            if cold.status == "feasible":
                continue
            for j in switch_candidates(rows, 5):
                warm = solve_pcfc(rows, muc, t, j, engine=engine)
                cold = solve_pcfc(rows, muc, t, j)
                assert (warm.status, warm.switch) == (cold.status, cold.switch), (c, t, j)
                assert warm.slack == pytest.approx(cold.slack, abs=1e-9), (c, t, j)
                assert warm.cut is None and cold.cut is None, (c, t, j)
                switched_infeasible += cold.status == "infeasible"
    assert cuts == 13
    assert switched_infeasible > 0


def _row_rhs(lp):
    """Right-hand sides of an LP in the order of ``row_rhs``: each row's finite
    side, then the finite bounds."""
    side = np.where(np.isfinite(lp.row_upper), lp.row_upper, lp.row_lower)
    return np.concatenate((side, lp.lb[np.isfinite(lp.lb)], lp.ub[np.isfinite(lp.ub)]))


def _check_cuts_off_their_point(case, points=20):
    """Each cut of the cut-free schedule equals the slave LP's rhs . duals at
    random other schedules; returns the number of cuts checked."""
    sens = build_sensitivities(case)
    muc = cheap_point(case)
    p_max = np.array([[g.p_max] for g in case.generators])
    rng = np.random.default_rng(17)
    checked = 0
    for c, t in all_pairs(case, sens):
        outage = OutageRows(case, sens, c)
        out = solve_pcfc(outage, muc, t)
        if out.status != "infeasible":
            continue
        rows = outage.at(t)
        lp = _slack_lp(rows, muc, t, "at_point")
        duals = solve_lp(lp).row_duals
        assert _row_rhs(lp) @ duals == pytest.approx(out.slack, abs=1e-6)
        for _ in range(points):
            other = dataclasses.replace(muc, u=rng.integers(0, 2, size=muc.u.shape),
                                        p=rng.uniform(0.0, 1.0, size=muc.p.shape) * p_max)
            terms = _row_rhs(_slack_lp(rows, other, t, "away")) * duals
            scale = max(1.0, np.abs(terms).sum())
            assert abs(out.cut.evaluate_solution(other) - terms.sum()) <= 1e-9 * scale
        checked += 1
    return checked


def test_cut_matches_slave_lp_away_from_its_point_on_fixtures():
    assert sum(_check_cuts_off_their_point(case)
               for case in fixture_family().values()) >= 2


def test_cut_matches_slave_lp_away_from_its_point_on_random_case():
    assert _check_cuts_off_their_point(random_case(101, 24, 8, 4)) >= 1


def test_slack_optimum_is_zero_or_one():
    # every row is s r + A pc <= r, >= r or = r with pc free, so the feasible
    # set is a cone in (pc, 1 - s): any s < 1 scales to s = 0
    cases = [*fixture_family().values(), corridor4_high(), corridor4_stranded(),
             random_case(9, 40, 12, 8)]
    for case in cases:
        sens = build_sensitivities(case)
        muc = cheap_point(case)
        slacks = np.array([solve_pcfc(OutageRows(case, sens, c), muc, t).slack
                           for c, t in all_pairs(case, sens)])
        assert np.minimum(slacks, np.abs(1.0 - slacks)).max(initial=0.0) <= 1e-9
    # the 40-bus schedule has pairs on both sides
    assert ((slacks < 0.5).sum(), (slacks > 0.5).sum()) == (427, 13)


# --- switched feasibility ------------------------------------------------------

def test_companion_switch_rescues_direct_outage(c4_high):
    muc = cheap_point(c4_high)
    out = solve_pcfc(OutageRows(c4_high, build_sensitivities(c4_high), 3), muc, 2, 2)
    assert out.status == "feasible_via_switch"
    assert out.switch == 2
    assert out.slack <= 1e-6
    # independent check: with branches 3 and 2 gone, the full 130 MW rides
    # the external corridor, inside its 165 MW emergency rating
    disp = dict(zip(muc.generator_ids, muc.p[:, 1]))
    flows = dc_flows(c4_high, net_injections(c4_high, disp, 2), removed=frozenset({3, 2}))
    for k in c4_high.branches:
        if k.id in (3, 2):
            continue
        assert abs(flows[k.id]) <= k.rate_emergency + 1e-9


def test_unrelated_switch_does_not_help(c4_high):
    muc = cheap_point(c4_high)
    # opening one external leg strands the corridor: everything must squeeze
    # through the 66 MW internal leg again
    out = solve_pcfc(OutageRows(c4_high, build_sensitivities(c4_high), 3), muc, 2, 5)
    assert out.status == "infeasible"
    assert out.slack == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        solve_pcfc(OutageRows(c4_high, build_sensitivities(c4_high), 3), muc, 2, 3)


def test_switch_search_returns_first_ranked_feasible(c4_high):
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    counters = {}
    found = find_corrective_switch(OutageRows(c4_high, sens, 3), muc, 2, counters=counters)
    assert found == solve_pcfc(OutageRows(c4_high, sens, 3), muc, 2, 2)
    assert (found.status, found.switch) == ("feasible_via_switch", 2)
    assert found.slack <= 1e-6
    assert counters["nr_pcfc_solved"] == 1  # first candidate already works

    # benchmark enumeration agrees and the feasible set contains the pick
    feasible = []
    for cand in sorted(sens.non_radial - {3}):
        from scucnr.network import check_connectivity
        if not check_connectivity(c4_high, {3, cand}):
            continue
        alt = solve_pcfc(OutageRows(c4_high, sens, 3), muc, 2, cand)
        if alt.status == "feasible_via_switch":
            feasible.append(cand)
    assert feasible == [2, 4]
    assert found.switch in feasible
    # a budget of one line holds the pick, since it ranks first
    assert find_corrective_switch(OutageRows(c4_high, sens, 3), muc, 2, switch_budget=1) == found


def test_islanding_candidates_are_skipped_without_solving(c4_high):
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    # contingency on the 2-4 leg ranks the 1-2 leg first, but opening both
    # would island bus 2; the search must skip it and pick the direct line
    assert sens.cbce[4][0] == 2
    counters = {}
    found = find_corrective_switch(OutageRows(c4_high, sens, 4), muc, 2, counters=counters)
    assert found is not None
    assert found.switch == 3
    assert counters["nr_pcfc_solved"] == 1


def test_empty_candidate_list_means_no_switch(c4_high):
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    counters = {}
    assert find_corrective_switch(OutageRows(c4_high, sens, 3), muc, 2, switch_budget=0,
                                  counters=counters) is None
    assert counters == {}


SWITCH_CASES = {**fixture_family(), "corridor4_high": corridor4_high(),
                "random_9_40_12_8": random_case(9, 40, 12, 8)}
# no generated or fixture line is pinned, so pin every odd one of a copy
SWITCH_CASES["corridor4_high_pinned"] = dataclasses.replace(
    SWITCH_CASES["corridor4_high"],
    branches=tuple(dataclasses.replace(k, reconfigurable=k.id % 2 == 0)
                   for k in SWITCH_CASES["corridor4_high"].branches))


@pytest.mark.parametrize("name", sorted(SWITCH_CASES))
def test_switch_candidates_filter_a_prefix_of_the_ranking(name):
    # a budget looks at that many ranked lines and keeps those that are
    # reconfigurable and leave every bus connected when opened with c
    case = SWITCH_CASES[name]
    sens = build_sensitivities(case)
    for c in sens.contingencies:
        def allowed(j):
            return case.branch(j).reconfigurable and check_connectivity(case, {c, j})
        for size in (0, 1, 3, None):
            assert list(switch_candidates(OutageRows(case, sens, c), size)) == \
                [j for j in sens.cbce[c][:size] if allowed(j)], (c, size)
        # the whole ranking holds every line the brute force allows
        assert sorted(switch_candidates(OutageRows(case, sens, c))) == \
            [k.id for k in sorted(case.branches, key=lambda k: k.id)
             if k.id != c and allowed(k.id)], c


def test_stranded_corridor_defeats_every_switch(c4_stranded):
    sens = build_sensitivities(c4_stranded)
    muc = cheap_point(c4_stranded)
    rows = OutageRows(c4_stranded, sens, 3)
    assert find_corrective_switch(rows, muc, 2, switch_budget=2) is None
    assert find_corrective_switch(rows, muc, 2) is None


def test_non_reconfigurable_lines_are_not_tried(c4_high):
    locked = dataclasses.replace(
        c4_high, branches=tuple(
            dataclasses.replace(k, reconfigurable=(k.id not in (2, 4)))
            for k in c4_high.branches))
    sens = build_sensitivities(locked)
    muc = cheap_point(locked)
    found = find_corrective_switch(OutageRows(locked, sens, 3), muc, 2)
    assert found is None  # the only helpful switches are locked out


def test_determinism_of_screen_and_search(c4_high):
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    s1 = run_csps(c4_high, sens, muc, all_pairs(c4_high, sens))
    s2 = run_csps(c4_high, sens, muc, all_pairs(c4_high, sens))
    assert s1 == s2
    assert (find_corrective_switch(OutageRows(c4_high, sens, 3), muc, 2)
            == find_corrective_switch(OutageRows(c4_high, sens, 3), muc, 2))


def without_ramp(case, ratings=None):
    """``case`` with no 10-minute ramp, so the box of a committed unit is
    its own dispatch, and branch ``k``'s emergency rating ``ratings[k]``
    where given."""
    ratings = ratings or {}
    return dataclasses.replace(
        case,
        generators=tuple(dataclasses.replace(g, ramp_10=0.0) for g in case.generators),
        branches=tuple(dataclasses.replace(k, rate_emergency=ratings.get(k.id, k.rate_emergency))
                       for k in case.branches))


def test_box_bound_needs_the_whole_margin(c4_high):
    # with lines 3 and 2 open the whole load flows over branch 5; a rating
    # that this one flow clears by less than the margin proves nothing
    flow = dc_flows(c4_high, {1: 130.0, 4: -130.0}, frozenset({2, 3}))[5]
    muc = manual_schedule(c4_high, {1: {1: 80.0}, 2: {1: 130.0}})
    verdicts = []
    for clearance in (HOPELESS_MARGIN_MW / 2, 2 * HOPELESS_MARGIN_MW):
        case = without_ramp(c4_high, {5: abs(flow) - clearance})
        rows = OutageRows(case, build_sensitivities(case), 3)
        verdicts.append(rows.hopeless(muc, 2, [2]).tolist())
    assert verdicts == [[False], [True]]


def test_box_bound_widens_an_inverted_box(c4_stranded):
    # unit 2, off but at 45 MW, has the inverted box [45, 0]; widened to
    # [0, 45] it holds the box of the same unit on at 45 MW, so it proves
    # no line that one does not
    case = without_ramp(c4_stranded)
    sens = build_sensitivities(case)
    on = manual_schedule(case, {1: {1: 80.0}, 2: {1: 85.0, 2: 45.0}})
    u = on.u.copy()
    u[1, 1] = 0
    off = dataclasses.replace(on, u=u)
    for c in sens.contingencies:
        rows = OutageRows(case, sens, c)
        js = list(switch_candidates(rows))
        inverted, inside = rows.hopeless(off, 2, js), rows.hopeless(on, 2, js)
        assert inverted.dtype == bool and inverted.shape == (len(js),)
        assert not (inverted & ~inside).any(), c


def test_numerically_radial_line_past_the_rescuer_does_not_raise(c4_high, monkeypatch):
    # line 2 rescues outage 3 and ranks first; a block of the bound that
    # also holds a numerically radial line 6 proves nothing, so the search
    # stops at 2 without raising, as a walk of one line at a time does
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    rows = OutageRows(c4_high, sens, 3)
    lodf_columns = scucnr.subproblems.lodf_columns

    def radial_6(case, ptdf, outages):
        if 6 in outages:
            raise ValueError("branch 6 is numerically radial")
        return lodf_columns(case, ptdf, outages)

    monkeypatch.setattr(scucnr.subproblems, "lodf_columns", radial_6)
    assert list(switch_candidates(rows)) == [2, 4, 5, 6]
    assert not rows.hopeless(muc, 2, [2, 4, 5, 6]).any()
    found = find_corrective_switch(rows, muc, 2)
    assert (found.status, found.switch) == ("feasible_via_switch", 2)
    with pytest.raises(ValueError, match="radial"):
        solve_pcfc(rows, muc, 2, 6)


# --- shift-factor LP against an independent oracle -----------------------------

def test_slacks_match_pseudo_inverse_oracle():
    cases = dict(fixture_family())
    cases["random101"] = random_case(101, n_buses=24, n_generators=8, horizon=4)
    infeasible = switched = 0
    for name, case in cases.items():
        sens = build_sensitivities(case)
        converged = solve(case, SolveOptions(method="ad_scuc_cnr")).schedule
        for muc in (cheap_point(case), converged):
            for c, t in all_pairs(case, sens):
                out = solve_pcfc(OutageRows(case, sens, c), muc, t)
                assert out.slack == pytest.approx(
                    redispatch_slack(case, muc, t, frozenset({c})), abs=1e-7), (name, c, t)
                infeasible += out.status == "infeasible"
                # every switch for a failed pair, the head of the ranked list otherwise
                switches = (sorted(sens.non_radial - {c}) if out.status == "infeasible"
                            else sens.cbce[c][:3])
                for j in switches:
                    if not check_connectivity(case, {c, j}):
                        continue
                    alt = solve_pcfc(OutageRows(case, sens, c), muc, t, j)
                    assert alt.slack == pytest.approx(
                        redispatch_slack(case, muc, t, frozenset({c, j})),
                        abs=1e-7), (name, c, t, j)
                    switched += 1
    assert infeasible >= 5 and switched >= 500


def test_slave_lp_size_is_generators_plus_one(c4_high, monkeypatch):
    sens = build_sensitivities(c4_high)
    muc = cheap_point(c4_high)
    seen = []

    def spy(lp, *args, **kwargs):
        seen.append((len(lp.cost), len(lp.row_lower)))
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(scucnr.subproblems, "solve_lp", spy)
    n_g, n_k = len(c4_high.generators), len(c4_high.branches)
    pairs = all_pairs(c4_high, sens)
    for c, t in pairs:
        solve_pcfc(OutageRows(c4_high, sens, c), muc, t)
    assert seen == [(n_g + 1, 4 * n_g + 1 + 2 * (n_k - 1))] * len(pairs)
    # a switch LP is its outage's pair LP plus the transaction column w and
    # its row, one shape for every candidate and period of the outage
    for c in sens.contingencies:
        seen.clear()
        rows = OutageRows(c4_high, sens, c)
        switched = [(t, j) for t in c4_high.periods for j in switch_candidates(rows)]
        for t, j in switched:
            solve_pcfc(rows, muc, t, j)
        assert seen == [(n_g + 2, 4 * n_g + 1 + 2 * (n_k - 1) + 1)] * len(switched) != [], c
