import dataclasses

import numpy as np
import pytest

from oracles import manual_schedule, operating_cost, power_balance_residuals
from scucnr.formulations import build_muc, schedule_violation
from scucnr.model import FeasibilityCut, SubproblemOutcome, validate_case
from scucnr.network import build_sensitivities
from scucnr.orchestrator import SolveOptions, solve


def kinds(violations):
    return {v.kind for v in violations}


def test_valid_fixture_has_empty_report(tri3):
    assert validate_case(tri3) == []


def test_emergency_below_long_term_names_branch(tri3):
    bad = dataclasses.replace(
        tri3, branches=(dataclasses.replace(tri3.branches[0], rate_emergency=50.0),)
        + tri3.branches[1:])
    report = validate_case(bad)
    assert len(report) == 1
    assert report[0].kind == "rating"
    assert "branch 1" in report[0].entity


def test_disconnected_case_reported(tri3):
    # dropping branches 1 and 2 isolates bus 1
    bad = dataclasses.replace(tri3, branches=tri3.branches[2:])
    assert "connectivity" in kinds(validate_case(bad))


def test_duplicate_ids_detected(tri3):
    bad = dataclasses.replace(tri3, buses=tri3.buses + (tri3.buses[0],))
    assert "duplicate_id" in kinds(validate_case(bad))


def test_generator_on_missing_bus(tri3):
    bad = dataclasses.replace(
        tri3, generators=(dataclasses.replace(tri3.generators[0], bus=99),)
        + tri3.generators[1:])
    report = validate_case(bad)
    assert any(v.kind == "missing_bus" and "generator 1" in v.entity
               and "99" in v.message for v in report)


def test_demand_length_mismatch(tri3):
    bad = dataclasses.replace(
        tri3, buses=(dataclasses.replace(tri3.buses[1], demand=(80.0, 70.0)),)
        + tuple(b for b in tri3.buses if b.id != 2))
    report = validate_case(bad)
    assert any(v.kind == "demand_length" and "bus 2" in v.entity for v in report)


def test_initial_output_rules(tri3):
    on_bad = dataclasses.replace(tri3.generators[0], initial_output=5.0)  # below p_min 10
    off_bad = dataclasses.replace(tri3.generators[1], initial_status=False,
                                  initial_output=3.0)
    bad = dataclasses.replace(tri3, generators=(on_bad, off_bad))
    report = validate_case(bad)
    assert sum(v.kind == "initial_output" for v in report) == 2


def test_reference_bus_must_be_unique(tri3):
    no_ref = dataclasses.replace(
        tri3, buses=tuple(dataclasses.replace(b, is_reference=False) for b in tri3.buses))
    assert "reference" in kinds(validate_case(no_ref))


def test_power_balance_residuals_tiny_on_solved_schedule(tri3_tight):
    result = solve(tri3_tight, SolveOptions(method="td_scuc"))
    res = power_balance_residuals(tri3_tight, result.schedule)
    assert np.abs(res).max() <= 1e-6


def test_operating_cost_matches_solver_objective(tri3):
    result = solve(tri3, SolveOptions(method="td_scuc"))
    sched = result.schedule
    recomputed = operating_cost(tri3, sched.u, sched.v, sched.p, sched.generator_ids)
    assert recomputed == pytest.approx(sched.objective, abs=1e-6)


def test_invariants_flag_output_the_other_units_cannot_cover(tri3):
    # the schedule is checked against the master's own rows: the reserve
    # pool row of unit 1 breaks by its whole 80 MW output
    muc, _ = build_muc(tri3, build_sensitivities(tri3))
    sched = manual_schedule(tri3, {1: {1: 80.0}}, committed={1: {1, 2}})
    problem = schedule_violation(tri3, muc, sched)
    assert problem is not None and problem.endswith("in period 1 is broken by 80")
    # unit 2 holds 80 MW of reserve and records its start-up: nothing breaks
    covered = dataclasses.replace(sched, r=np.array([[0.0], [80.0]]),
                                  v=np.array([[0], [1]], dtype=np.int8))
    assert schedule_violation(tri3, muc, covered) is None


def test_outcome_invariants():
    with pytest.raises(ValueError):
        SubproblemOutcome(contingency=1, period=1, status="feasible", slack=0.0, switch=7)
    with pytest.raises(ValueError):
        SubproblemOutcome(contingency=1, period=1, status="nonsense", slack=0.0)
    with pytest.raises(ValueError):
        SubproblemOutcome(contingency=1, period=1, status="feasible", slack=-0.1)
    ok = SubproblemOutcome(contingency=1, period=1, status="feasible_via_switch",
                           slack=0.0, switch=7)
    assert ok.switch == 7


def test_outcome_carries_a_cut_only_when_infeasible():
    cut = FeasibilityCut(contingency=1, period=1, coef_u=[], coef_p=[], constant=0.5)
    for status in ("screened_out", "feasible", "feasible_via_switch"):
        with pytest.raises(ValueError, match="cut"):
            SubproblemOutcome(contingency=1, period=1, status=status, slack=0.0, cut=cut)
    out = SubproblemOutcome(contingency=1, period=1, status="infeasible", slack=0.5, cut=cut)
    assert out.cut is cut


def test_cut_evaluation_and_comparison(tri3):
    cut = FeasibilityCut(contingency=3, period=1, coef_u=[2.0, 0.0], coef_p=[-0.5, 0.0],
                         constant=1.0)
    # unit 1 committed at 4 MW: 2 * 1 - 0.5 * 4 + 1
    sched = manual_schedule(tri3, {1: {1: 4.0}})
    assert cut.evaluate_solution(sched) == pytest.approx(1.0)
    twin = FeasibilityCut(contingency=3, period=1, coef_u=[2.0, 0.0], coef_p=[-0.5, 0.0],
                          constant=1.0 + 1e-12)
    other = FeasibilityCut(contingency=3, period=1, coef_u=[2.1, 0.0], coef_p=[-0.5, 0.0],
                           constant=1.0)
    assert cut.same_coefficients(twin)
    assert not cut.same_coefficients(other)
    assert not cut.same_coefficients(dataclasses.replace(twin, period=2))
    assert cut == dataclasses.replace(cut) and cut != twin


def test_cut_holds_read_only_float_vectors():
    cut = FeasibilityCut(contingency=3, period=1, coef_u=[2, 0], coef_p=(-0.5, 0.0),
                         constant=1.0)
    assert cut.coef_u.dtype == float and cut.coef_p.dtype == float
    with pytest.raises(ValueError, match="read-only"):
        cut.coef_u[0] = 5.0
    # a dict would zip its keys, the generator ids, as coefficients
    with pytest.raises(TypeError):
        FeasibilityCut(contingency=3, period=1, coef_u={1: 2.0}, coef_p={1: -0.5},
                       constant=1.0)
