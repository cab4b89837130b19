import dataclasses

import numpy as np
import pytest

from oracles import brute_force_commitment
from scucnr.backend import solve_milp
from scucnr.fixtures import corridor4_low, triangle3
from scucnr.formulations import (build_extensive_scuc,
                                 build_extensive_scuc_cnr, build_muc,
                                 extract_solution, extract_switching_plan)
from scucnr.model import validate_case
from scucnr.network import build_sensitivities, classify_radial
from scucnr.subproblems import solve_pcfc

GAP = 1e-9


def scale_emergency(case, factor):
    return dataclasses.replace(
        case, branches=tuple(
            dataclasses.replace(k, rate_emergency=k.rate_emergency * factor)
            for k in case.branches))


def solve_model(model, gap=GAP):
    res = solve_milp(model, gap=gap)
    assert res.status == "optimal"
    return res


# --- master unit commitment --------------------------------------------------

def test_muc_matches_commitment_enumeration(tri3):
    oracle = brute_force_commitment(tri3, security=False)
    res = solve_model(build_muc(tri3))
    assert res.objective == pytest.approx(oracle, rel=1e-7)


def test_muc_matches_enumeration_over_two_periods():
    case = triangle3((80.0, 60.0))
    oracle = brute_force_commitment(case, security=False)
    res = solve_model(build_muc(case))
    assert res.objective == pytest.approx(oracle, rel=1e-7)


def test_reserve_pool_forces_backup_commitment(tri3):
    # with one unit alone, total reserve cannot cover its own output, so the
    # costly unit must be committed purely as backup
    res = solve_model(build_muc(tri3))
    sched = extract_solution(tri3, res)
    assert sched.commitment(1, 1) == 1
    assert sched.commitment(2, 1) == 1
    assert sched.dispatch(2, 1) == pytest.approx(0.0, abs=1e-7)
    assert sched.reserve(2, 1) >= sched.dispatch(1, 1) - 1e-6


def test_one_cut_adds_exactly_one_row(tri3):
    from scucnr.model import FeasibilityCut
    base = build_muc(tri3)
    cut = FeasibilityCut(contingency=1, period=1, coef_u={1: 1.0}, coef_p={2: 0.5},
                         constant=-2.0)
    with_cut = build_muc(tri3, [cut])
    assert with_cut.num_constraints == base.num_constraints + 1


def test_zero_ten_minute_ramp_kills_dispatch():
    # reserve rows force every unit's output below the total reserve pool,
    # which is zero when no unit can ramp: only a zero-demand system solves
    base = triangle3((0.0,))
    dead = dataclasses.replace(
        base, generators=tuple(dataclasses.replace(g, ramp_10=0.0, p_min=0.0,
                                                   initial_output=0.0)
                               for g in base.generators))
    res = solve_model(build_muc(dead))
    sched = extract_solution(dead, res)
    assert np.abs(sched.p).max() == pytest.approx(0.0, abs=1e-9)

    loaded = triangle3((10.0,))
    dead_loaded = dataclasses.replace(
        loaded, generators=tuple(dataclasses.replace(g, ramp_10=0.0, p_min=0.0,
                                                     initial_output=0.0)
                                 for g in loaded.generators))
    assert solve_milp(build_muc(dead_loaded)).status == "infeasible"


# --- extensive models --------------------------------------------------------

def test_huge_emergency_ratings_make_extensive_equal_muc(tri3):
    relaxed = scale_emergency(tri3, 100.0)
    sens = build_sensitivities(relaxed)
    muc = solve_model(build_muc(relaxed))
    ext = solve_model(build_extensive_scuc(relaxed, sens))
    assert ext.objective == pytest.approx(muc.objective, rel=1e-9)


def test_extensive_dominates_muc(c4_low):
    sens = build_sensitivities(c4_low)
    muc = solve_model(build_muc(c4_low))
    ext = solve_model(build_extensive_scuc(c4_low, sens))
    assert ext.objective >= muc.objective - 1e-6


def test_security_constrained_optimum_matches_enumeration(tri3_tight):
    sens = build_sensitivities(tri3_tight)
    oracle = brute_force_commitment(tri3_tight, security=True,
                                    contingencies=tuple(sens.contingencies))
    ext = solve_model(build_extensive_scuc(tri3_tight, sens))
    assert ext.objective == pytest.approx(oracle, rel=1e-7)


def test_switching_budget_zero_reduces_to_plain_model(tri3_tight, c4_low):
    for case in (tri3_tight, c4_low):
        sens = build_sensitivities(case)
        plain = solve_model(build_extensive_scuc(case, sens))
        pinned = solve_model(build_extensive_scuc_cnr(case, sens, z_max=0))
        assert pinned.objective == pytest.approx(plain.objective, rel=1e-6)


def test_switching_budget_one_is_a_relaxation(c4_low):
    sens = build_sensitivities(c4_low)
    plain = solve_model(build_extensive_scuc(c4_low, sens))
    cnr = solve_model(build_extensive_scuc_cnr(c4_low, sens, z_max=1))
    assert cnr.objective <= plain.objective + 1e-6


def test_switching_rescues_an_insecure_system(c4_high):
    sens = build_sensitivities(c4_high)
    assert solve_milp(build_extensive_scuc(c4_high, sens)).status == "infeasible"
    cnr = solve_model(build_extensive_scuc_cnr(c4_high, sens, z_max=1))
    assert cnr.status == "optimal"
    plan = extract_switching_plan(c4_high, sens, cnr)
    assert any(c == 3 for (c, t) in plan)  # losing the direct line needs a switch


def test_relaxation_chain(tri3, tri3_tight, star, c4_low):
    for case in (tri3, tri3_tight, star, c4_low):
        sens = build_sensitivities(case)
        muc = solve_model(build_muc(case)).objective
        cnr = solve_model(build_extensive_scuc_cnr(case, sens, z_max=1)).objective
        scuc = solve_model(build_extensive_scuc(case, sens)).objective
        slack = 1e-6 * max(1.0, abs(scuc))
        assert muc <= cnr + slack
        assert cnr <= scuc + slack


def test_binaries_are_integral(c4_low):
    res = solve_model(build_muc(c4_low))
    for name, val in res.values.items():
        if name.startswith(("u[", "v[")):
            assert min(abs(val), abs(val - 1.0)) <= 1e-6


def test_long_term_switched_rating_is_tighter(c4_low):
    sens = build_sensitivities(c4_low)
    emergency = solve_model(build_extensive_scuc_cnr(
        c4_low, sens, z_max=1, switched_rating="emergency")).objective
    printed = solve_milp(build_extensive_scuc_cnr(
        c4_low, sens, z_max=1, switched_rating="long_term"))
    if printed.status == "optimal":
        assert printed.objective >= emergency - 1e-6
    else:
        assert printed.status == "infeasible"


# --- feasibility cuts --------------------------------------------------------

def first_violated_pair(case, method="td_scuc"):
    """Schedule from a cut-free master plus its first unsurvivable pair."""
    res = solve_model(build_muc(case))
    sched = extract_solution(case, res)
    _, non_radial = classify_radial(case)
    for t in case.periods:
        for c in sorted(non_radial):
            out = solve_pcfc(case, build_sensitivities(case), sched, c, t)
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

    rng = np.random.default_rng(11)
    checked_feasible = 0
    trials = 0
    while checked_feasible < 20 and trials < 200:
        trials += 1
        model = build_muc(c4_low)
        # pin a random commitment pattern and a random dispatch floor to
        # scatter master points across the feasible region
        for g in c4_low.generators:
            for tt in c4_low.periods:
                must_run = g.initial_status or rng.random() < 0.7
                model.add_constraint(f"pin_u[{g.id},{tt}]",
                                     {f"u[{g.id},{tt}]": 1.0}, "==",
                                     1.0 if must_run else 0.0)
        floor = float(rng.uniform(0.0, 40.0))
        model.add_constraint("push", {f"p[2,{t}]": 1.0, f"u[2,{t}]": -floor}, ">=", 0.0)
        res = solve_milp(model, gap=GAP)
        if res.status != "optimal":
            continue
        point = extract_solution(c4_low, res)
        check = solve_pcfc(c4_low, build_sensitivities(c4_low), point, c, t)
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
    muc = build_muc(case, [cut])
    # the cut row may only reference period-2 variables
    row = muc._rows[muc._row_index["cut[0]"]]
    names = [muc.variable_names[i] for i in row.terms]
    assert all(name.endswith(f",{out.period}]") for name in names)


def test_adding_cut_changes_next_master(c4_low):
    sched, out = first_violated_pair(c4_low)
    cut = out.cut
    first = solve_model(build_muc(c4_low))
    second = solve_model(build_muc(c4_low, [cut]))
    assert second.objective >= first.objective - 1e-9
    point = extract_solution(c4_low, second)
    assert cut.evaluate_solution(point) <= 1e-6


def test_validate_all_fixture_cases(tri3, tri3_tight, star, c4_high, c4_low, c4_stranded):
    for case in (tri3, tri3_tight, star, c4_high, c4_low, c4_stranded):
        assert validate_case(case) == []
