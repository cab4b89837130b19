import dataclasses

import numpy as np
import pytest

import scucnr.subproblems
from oracles import linprog_solution
from scucnr.backend import Model, SolverError, _check_solution, solve_lp, solve_milp
from scucnr.fixtures import random_case
from scucnr.formulations import build_muc, extract_solution
from scucnr.network import build_sensitivities


def test_simple_lp_via_milp_path():
    m = Model()
    m.add_variable("x", lb=0.0, ub=10.0, cost=1.0)
    m.add_constraint("floor", {"x": 1.0}, ">=", 3.0)
    res = solve_milp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    # binary-free models fall through to the LP path and carry duals
    assert res.duals is not None
    assert res.dual("floor") == pytest.approx(1.0, abs=1e-9)


def test_infeasible_pair():
    m = Model()
    m.add_variable("x")
    m.add_constraint("hi", {"x": 1.0}, "<=", 1.0)
    m.add_constraint("lo", {"x": 1.0}, ">=", 2.0)
    assert solve_milp(m).status == "infeasible"


def test_unbounded():
    m = Model()
    m.add_variable("x", cost=-1.0)
    assert solve_lp(m).status == "unbounded"


def test_binding_row_dual_and_identity():
    m = Model()
    m.add_variable("s", lb=0.0, cost=1.0)
    m.add_constraint("need", {"s": 1.0}, ">=", 0.4)
    res = solve_lp(m)
    assert res.objective == pytest.approx(0.4, abs=1e-12)
    assert res.dual("need") == pytest.approx(1.0, abs=1e-9)
    assert res.dual_objective() == pytest.approx(res.objective, abs=1e-9)


def test_degenerate_lp_duals_satisfy_identity():
    # three copies of the same binding row: dual mass may split arbitrarily,
    # but the rhs-weighted sum must still equal the optimum
    m = Model()
    m.add_variable("x", cost=1.0)
    m.add_variable("y", lb=0.0, cost=0.0)
    for i in range(3):
        m.add_constraint(f"floor{i}", {"x": 1.0}, ">=", 1.0)
    m.add_constraint("tie", {"x": 1.0, "y": 1.0}, ">=", 1.0)
    res = solve_lp(m)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.dual_objective() == pytest.approx(1.0, abs=1e-9)


def test_identity_on_random_lps():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        m = Model(f"rand{trial}")
        xs = [m.add_variable(f"x{i}", cost=float(rng.uniform(0.1, 2.0))) for i in range(n)]
        x0 = rng.uniform(-1, 1, size=n)  # a known feasible point
        for r in range(int(rng.integers(2, 7))):
            coefs = {xs[i]: float(rng.normal()) for i in range(n)}
            val = sum(coefs[xs[i]] * x0[i] for i in range(n))
            m.add_constraint(f"ge{r}", coefs, ">=", val - abs(rng.normal()))
        for i in range(n):
            m.add_constraint(f"box_lo{i}", {xs[i]: 1.0}, ">=", float(x0[i] - 3))
            m.add_constraint(f"box_hi{i}", {xs[i]: 1.0}, "<=", float(x0[i] + 3))
        res = solve_lp(m)
        assert res.status == "optimal"
        assert res.dual_objective() == pytest.approx(res.objective, abs=1e-6)


def test_bounds_become_rows_in_lp_mode():
    m = Model()
    m.add_variable("x", lb=2.0, ub=5.0, cost=1.0)
    res = solve_lp(m)
    assert res.objective == pytest.approx(2.0)
    assert "_lb[x]" in res.duals
    assert res.dual_objective() == pytest.approx(2.0, abs=1e-9)


def test_milp_binaries_and_no_duals():
    m = Model()
    m.add_variable("a", binary=True, cost=-1.0)
    m.add_variable("b", binary=True, cost=-2.0)
    m.add_constraint("pick", {"a": 1.0, "b": 1.0}, "<=", 1.0)
    res = solve_milp(m, gap=1e-9)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)
    assert res.values["b"] == pytest.approx(1.0)
    assert res.duals is None
    assert res.mip_gap is not None
    with pytest.raises(ValueError):
        solve_lp(m)


def test_resolve_is_deterministic():
    def build():
        m = Model()
        for i in range(6):
            m.add_variable(f"x{i}", binary=(i % 2 == 0), cost=((-1) ** i) * (i + 1) * 0.7)
        m.add_constraint("cap", {f"x{i}": 1.0 for i in range(6)}, "<=", 3.0)
        for i in range(6):
            if i % 2:
                m.add_constraint(f"box{i}", {f"x{i}": 1.0}, "<=", 1.0)
                m.add_constraint(f"nn{i}", {f"x{i}": 1.0}, ">=", 0.0)
        return m

    first = solve_milp(build())
    second = solve_milp(build())
    assert first.status == second.status == "optimal"
    assert abs(first.objective - second.objective) <= 1e-9
    assert first.values == second.values


def test_duplicate_names_rejected():
    m = Model()
    m.add_variable("x")
    with pytest.raises(ValueError):
        m.add_variable("x")
    m.add_constraint("row", {"x": 1.0}, "<=", 1.0)
    with pytest.raises(ValueError):
        m.add_constraint("row", {"x": 1.0}, "<=", 2.0)
    with pytest.raises(ValueError):
        m.add_constraint("bad", {"nope": 1.0}, "<=", 0.0)
    with pytest.raises(ValueError):
        m.add_constraint("sense", {"x": 1.0}, "<", 0.0)


def mixed_model():
    """Named rows of every sense and columns with finite lower and upper bounds."""
    m = Model("mixed")
    m.add_variable("x", lb=0.0, ub=4.0, cost=1.0)
    m.add_variable("y", lb=-2.0, ub=3.0, cost=-2.0)
    m.add_variable("z", lb=1.0, cost=0.5)
    m.add_variable("w", cost=0.1)
    m.add_constraint("cap", {"x": 1.0, "y": 1.0}, "<=", 5.0)
    m.add_constraint("floor", {"x": 1.0, "z": 2.0}, ">=", 5.0)
    m.add_constraint("tie", {"x": 1.0, "y": -1.0, "w": 1.0}, "==", 1.0)
    m.add_constraint("wcap", {"w": 1.0, "z": -1.0}, "<=", 2.0)
    return m


def test_adapter_matches_linprog(monkeypatch):
    case = random_case(101, n_buses=24, n_generators=8, horizon=4)
    sens = build_sensitivities(case)
    muc = extract_solution(case, solve_milp(build_muc(case)))
    lps = []

    def spy(lp, *args, **kwargs):
        lps.append(lp)
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(scucnr.subproblems, "solve_lp", spy)
    for t in case.periods:
        for c in sens.contingencies:
            scucnr.subproblems.solve_pcfc(case, sens, muc, c, t)
    assert len(lps) == len(case.periods) * len(sens.contingencies)
    mixed = mixed_model()
    lps.append(mixed.lower())
    for lp in lps:
        res = solve_lp(lp)
        x, objective, duals = linprog_solution(lp)
        assert res.status == "optimal", lp.name
        assert np.abs(res.x - x).max() <= 1e-9, lp.name
        assert abs(res.objective - objective) <= 1e-9, lp.name
        assert res.row_duals.shape == duals.shape
        assert np.abs(res.row_duals - duals).max() <= 1e-9, lp.name
    # the mixed model's optimum prices a >= row, the == row and both kinds of bound
    duals = solve_lp(mixed).duals
    assert all(duals[name] != 0.0 for name in ("floor", "tie", "_lb[x]", "_ub[y]"))


def test_engine_effort_is_reported():
    res = solve_lp(mixed_model())
    assert res.simplex_iterations is not None and res.simplex_iterations >= 0
    assert res.mip_nodes is None
    m = Model()
    for i in range(4):
        m.add_variable(f"b{i}", binary=True, cost=-(i + 1.0))
    m.add_constraint("pick", {f"b{i}": 1.0 for i in range(4)}, "<=", 2.0)
    milp = solve_milp(m)
    assert milp.mip_nodes is not None and milp.mip_nodes >= 0
    assert milp.simplex_iterations is None


def test_limit_and_failure_statuses():
    assert solve_lp(mixed_model(), time_limit=0.0).status == "limit"
    # an unbounded direction over an infeasible row set: infeasible, as linprog says
    m = Model("both")
    m.add_variable("x", cost=-1.0)
    m.add_variable("y")
    m.add_constraint("hi", {"y": 1.0}, "<=", 0.0)
    m.add_constraint("lo", {"y": 1.0}, ">=", 1.0)
    assert solve_lp(m).status == "infeasible"
    lp = mixed_model().lower()
    with pytest.raises(SolverError, match="could not load LP 'mixed'"):
        solve_lp(dataclasses.replace(lp, b_ub=np.full(len(lp.b_ub), np.nan)))
    with pytest.raises(SolverError, match="'mixed'.*NaN"):
        solve_lp(dataclasses.replace(lp, cost=np.full(len(lp.cost), np.nan)))


def test_residual_check_rejects_a_bad_optimum():
    lp = mixed_model().lower()
    res = solve_lp(lp)
    row_value = np.concatenate((lp.a_ub @ res.x, lp.a_eq @ res.x))
    _check_solution(lp, res.x, res.objective, row_value)
    for x in (res.x + np.array([-1e-3, 0, 0, 0]), np.full(4, np.nan)):
        with pytest.raises(SolverError, match="mixed"):
            _check_solution(lp, x, res.objective, np.concatenate((lp.a_ub @ x, lp.a_eq @ x)))
