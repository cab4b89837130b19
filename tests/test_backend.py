import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import scucnr.backend
import scucnr.orchestrator
import scucnr.subproblems
from oracles import csc, dense, linprog_solution, scipy_csc
from scucnr.backend import (_RESIDUAL_TOL, DEFAULT_MILP_GAP, INF, CscMatrix, Engine,
                            LinearProgram, SolverError, solve_lp, solve_milp, violation)
from scucnr.caseio import write_case
from scucnr.fixtures import corridor4_high, corridor4_low, random_case
from scucnr.formulations import build_muc, extract_solution
from scucnr.network import build_sensitivities
from scucnr.orchestrator import SolveOptions, solve


def make_lp(cost, a, row_lower, row_upper, lb=None, ub=None, integrality=None, name="lp"):
    """A ``LinearProgram`` from lists; columns are free unless bounded."""
    n = len(cost)
    return LinearProgram(
        cost=np.array(cost, dtype=float), a=np.array(a, dtype=float).reshape(-1, n),
        row_lower=np.array(row_lower, dtype=float), row_upper=np.array(row_upper, dtype=float),
        lb=np.full(n, -INF) if lb is None else np.array(lb, dtype=float),
        ub=np.full(n, INF) if ub is None else np.array(ub, dtype=float),
        integrality=None if integrality is None else np.array(integrality), name=name)


def binaries(cost, a, row_lower, row_upper, name="lp"):
    """A pure 0/1 program from lists."""
    n = len(cost)
    return make_lp(cost, a, row_lower, row_upper, lb=[0.0] * n, ub=[1.0] * n,
                   integrality=[1] * n, name=name)


def test_simple_lp_via_milp_path():
    lp = make_lp([1.0], [[1.0]], [3.0], [INF], lb=[0.0], ub=[10.0])
    res = solve_milp(lp)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.x[0] == pytest.approx(3.0, abs=1e-9)
    # the MILP path returns primal values only; duals come from solve_lp
    assert res.row_duals is None
    res = solve_lp(lp)
    assert res.objective == pytest.approx(3.0, abs=1e-9)
    assert res.row_duals[0] == pytest.approx(1.0, abs=1e-9)


def test_infeasible_pair():
    assert solve_milp(make_lp([0.0], [[1.0], [1.0]], [-INF, 2.0], [1.0, INF])).status \
        == "infeasible"


def test_unbounded():
    assert solve_lp(make_lp([-1.0], [], [], [])).status == "unbounded"


def test_binding_row_dual_and_identity():
    res = solve_lp(make_lp([1.0], [[1.0]], [0.4], [INF], lb=[0.0]))
    assert res.objective == pytest.approx(0.4, abs=1e-12)
    assert res.row_duals[0] == pytest.approx(1.0, abs=1e-9)
    assert res.row_rhs[0] == 0.4
    assert res.dual_objective() == pytest.approx(res.objective, abs=1e-9)


def test_degenerate_lp_duals_satisfy_identity():
    # three copies of the same binding row: dual mass may split arbitrarily,
    # but the rhs-weighted sum must still equal the optimum
    res = solve_lp(make_lp([1.0, 0.0], [[1, 0], [1, 0], [1, 0], [1, 1]],
                           [1.0] * 4, [INF] * 4, lb=[-INF, 0.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(1.0, abs=1e-9)
    assert res.dual_objective() == pytest.approx(1.0, abs=1e-9)


def test_identity_on_random_lps():
    rng = np.random.default_rng(7)
    for trial in range(25):
        n = int(rng.integers(2, 6))
        cost = rng.uniform(0.1, 2.0, size=n)
        x0 = rng.uniform(-1, 1, size=n)  # a known feasible point
        ge = rng.normal(size=(int(rng.integers(2, 7)), n))
        a = np.vstack((ge, np.eye(n), np.eye(n)))
        row_lower = np.concatenate((ge @ x0 - np.abs(rng.normal(size=len(ge))), x0 - 3,
                                    np.full(n, -INF)))
        row_upper = np.concatenate((np.full(len(ge) + n, INF), x0 + 3))
        res = solve_lp(make_lp(cost, a, row_lower, row_upper, name=f"rand{trial}"))
        assert res.status == "optimal"
        assert res.dual_objective() == pytest.approx(res.objective, abs=1e-6)


def test_bounds_become_rows_in_lp_mode():
    res = solve_lp(make_lp([1.0], [], [], [], lb=[2.0], ub=[5.0]))
    assert res.objective == pytest.approx(2.0)
    # one dual per finite bound, after the (absent) rows: x >= 2, then x <= 5
    assert res.row_rhs.tolist() == [2.0, 5.0]
    assert res.row_duals == pytest.approx([1.0, 0.0], abs=1e-9)
    assert res.dual_objective() == pytest.approx(2.0, abs=1e-9)


def test_milp_binaries_and_no_duals():
    lp = binaries([-1.0, -2.0], [[1.0, 1.0]], [-INF], [1.0])
    res = solve_milp(lp, gap=1e-9)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-2.0)
    assert res.x[1] == pytest.approx(1.0)
    assert res.row_duals is None
    assert res.mip_gap is not None
    with pytest.raises(ValueError):
        solve_lp(lp)


def test_infeasible_binary_milp():
    res = solve_milp(binaries([1.0, 1.0], [[1.0, 1.0]], [3.0], [INF], name="too_few"))
    assert res.status == "infeasible"
    assert res.objective is None and res.x is None


def test_resolve_is_deterministic():
    def build():
        # binaries at even positions, continuous columns in [0, 1] at odd ones
        return make_lp([((-1) ** i) * (i + 1) * 0.7 for i in range(6)], [[1.0] * 6],
                       [-INF], [3.0], lb=[0.0] * 6, ub=[1.0] * 6,
                       integrality=[1 - i % 2 for i in range(6)])

    first = solve_milp(build())
    second = solve_milp(build())
    assert first.status == second.status == "optimal"
    assert abs(first.objective - second.objective) <= 1e-9
    assert np.array_equal(first.x, second.x)


def mixed_lp():
    """Rows of every sense and columns with finite lower and upper bounds.

    Columns x in [0, 4], y in [-2, 3], z >= 1, w free; rows
    ``cap: x + y <= 5``, ``floor: x + 2z >= 5``, ``tie: x - y + w == 1``,
    ``wcap: w - z <= 2``.
    """
    return LinearProgram(
        cost=np.array([1.0, -2.0, 0.5, 0.1]),
        a=csc(np.array([[1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 2.0, 0.0],
                        [1.0, -1.0, 0.0, 1.0], [0.0, 0.0, -1.0, 1.0]])),
        row_lower=np.array([-INF, 5.0, 1.0, -INF]),
        row_upper=np.array([5.0, INF, 1.0, 2.0]),
        lb=np.array([0.0, -2.0, 1.0, -INF]),
        ub=np.array([4.0, 3.0, INF, INF]),
        name="mixed")


def test_adapter_matches_linprog(monkeypatch):
    case = random_case(101, n_buses=24, n_generators=8, horizon=4)
    sens = build_sensitivities(case)
    lp, _ = build_muc(case, sens)
    muc = extract_solution(case, sens, lp, solve_milp(lp))
    lps = []

    def spy(lp, *args, **kwargs):
        lps.append(lp)
        return solve_lp(lp, *args, **kwargs)

    monkeypatch.setattr(scucnr.subproblems, "solve_lp", spy)
    for t in case.periods:
        for c in sens.contingencies:
            scucnr.subproblems.solve_pcfc(scucnr.subproblems.OutageRows(case, sens, c),
                                          muc, t)
    assert len(lps) == len(case.periods) * len(sens.contingencies)
    mixed = mixed_lp()
    lps.append(mixed)
    for lp in lps:
        res = solve_lp(lp)
        x, objective, duals = linprog_solution(lp)
        assert res.status == "optimal", lp.name
        assert np.abs(res.x - x).max() <= 1e-9, lp.name
        assert abs(res.objective - objective) <= 1e-9, lp.name
        assert res.row_duals.shape == duals.shape
        assert np.abs(res.row_duals - duals).max() <= 1e-9, lp.name
    # the mixed optimum prices the >= row (1), the == row (2), x >= 0 (the
    # first finite lower bound, 4) and y <= 3 (the second finite upper bound, 8)
    duals = solve_lp(mixed).row_duals
    assert len(duals) == 4 + 3 + 2
    assert np.all(duals[[1, 2, 4, 8]] != 0.0)


def test_engine_effort_is_reported():
    res = solve_lp(mixed_lp())
    assert res.simplex_iterations is not None and res.simplex_iterations >= 0
    assert res.mip_nodes is None
    milp = solve_milp(binaries([-1.0, -2.0, -3.0, -4.0], [[1.0] * 4], [-INF], [2.0]))
    assert milp.mip_nodes is not None and milp.mip_nodes >= 0
    assert milp.simplex_iterations is None


def test_engine_keeps_one_optimal_basis_per_shape():
    rng = np.random.default_rng(3)
    cost, x0, ge = rng.uniform(0.1, 2.0, 12), rng.uniform(-1, 1, 12), rng.normal(size=(20, 12))
    lp = make_lp(cost, ge, ge @ x0 - np.abs(rng.normal(size=20)), np.full(20, INF))
    other = make_lp([1.0], [[1.0]], [0.4], [INF], lb=[0.0])
    cold = solve_lp(lp)
    engine = Engine()
    first = solve_lp(lp, engine)
    again = solve_lp(lp, engine)
    # the chained engine runs without presolve or scaling, so its first
    # solve takes its own path to the cold optimum
    assert first.simplex_iterations > 0
    assert first.objective == pytest.approx(cold.objective, abs=1e-9)
    assert again.simplex_iterations == 0
    assert again.objective == pytest.approx(cold.objective, abs=1e-9)
    # an LP of another shape starts cold and keeps its own basis beside the first
    assert solve_lp(other, engine).objective == pytest.approx(0.4)
    assert set(engine.bases) == {(20, 12), (1, 1)}
    assert solve_lp(lp, engine).simplex_iterations == 0
    assert solve_lp(other, engine).simplex_iterations == 0


def test_chained_engines_skip_presolve_and_scaling_and_cold_solves_do_not(monkeypatch):
    def options(highs):
        return {key: highs.getOptionValue(key)[1]
                for key in ("presolve", "simplex_scale_strategy")}

    run, used = scucnr.backend._run, []

    def spy(lp, highs, *args):
        used.append(options(highs))
        return run(lp, highs, *args)

    monkeypatch.setattr(scucnr.backend, "_run", spy)
    linprog_like = options(scucnr.backend._hc._Highs())
    assert linprog_like == {"presolve": "choose", "simplex_scale_strategy": 2}
    engine = Engine()
    assert options(engine.highs) == {"presolve": "off", "simplex_scale_strategy": 0}
    lp = make_lp([1.0], [[1.0]], [0.4], [INF], lb=[0.0])
    solve_lp(lp, engine)
    solve_lp(lp)
    solve_milp(binaries([1.0], [[1.0]], [1.0], [INF]))
    assert used == [{"presolve": "off", "simplex_scale_strategy": 0},
                    {"presolve": "on", "simplex_scale_strategy": 2},
                    linprog_like]


def test_milp_engines_skip_only_the_root_reduced_cost_heuristic(monkeypatch):
    def options(highs):
        return {key: highs.getOptionValue(key)[1]
                for key in ("mip_heuristic_run_root_reduced_cost", "mip_rel_gap", "presolve",
                            "mip_heuristic_effort", "mip_heuristic_run_rins",
                            "mip_heuristic_run_rens", "mip_heuristic_run_feasibility_jump")}

    run, used = scucnr.backend._run, []

    def spy(lp, highs, *args):
        used.append(options(highs))
        return run(lp, highs, *args)

    monkeypatch.setattr(scucnr.backend, "_run", spy)
    default = options(scucnr.backend._hc._Highs())
    assert default["mip_heuristic_run_root_reduced_cost"] is True
    solve_milp(binaries([1.0], [[1.0]], [1.0], [INF]), gap=3e-3)
    lp = make_lp([1.0], [[1.0]], [0.4], [INF], lb=[0.0])
    solve_lp(lp)
    solve_lp(lp, Engine())
    milp, cold, chained = used
    assert milp == {**default, "mip_heuristic_run_root_reduced_cost": False, "mip_rel_gap": 3e-3}
    # the LP engines, cold and chained, leave the MILP heuristic at its default
    assert cold["mip_heuristic_run_root_reduced_cost"] is True
    assert chained["mip_heuristic_run_root_reduced_cost"] is True


@pytest.mark.parametrize("size", [(101, 12, 5, 4), (101, 24, 8, 4), (5, 24, 8, 6), (9, 40, 12, 8)])
def test_milp_options_change_the_search_not_the_answer(size):
    # a cut-free master solved with solve_milp and on an engine with HiGHS's
    # own MILP heuristics: both optimal, within the gap of each other
    case = random_case(*size)
    lp, _ = build_muc(case, build_sensitivities(case))
    ours = solve_milp(lp)
    highs = scucnr.backend._new_engine({"log_to_console": False,
                                        "mip_rel_gap": DEFAULT_MILP_GAP})
    status, info, *_ = scucnr.backend._run(lp, highs)
    assert ours.status == status == "optimal"
    assert ours.objective == pytest.approx(info.objective_function_value, rel=DEFAULT_MILP_GAP)


def test_dense_matrices_load_as_their_nonzeros():
    # a dense matrix goes in as its full pattern; HiGHS must hold what the
    # nonzero-only compressed columns of the same matrix give
    def held(a):
        m, n = a.shape
        lp = LinearProgram(cost=np.ones(n), a=a, row_lower=np.full(m, -1.0),
                           row_upper=np.full(m, 1.0), lb=np.zeros(n), ub=np.ones(n))
        highs = scucnr.backend._new_engine(scucnr.backend._LP_OPTIONS)
        scucnr.backend._run(lp, highs)
        mat = highs.getLp().a_matrix_
        return [list(mat.start_), list(mat.index_), list(mat.value_)]

    a = np.array([[1.0, 0.0, -2.5], [0.0, 0.0, 3.0], [1e-12, 0.0, 4.0], [0.5, -0.0, 0.0]])
    for full in (a, np.zeros((0, 3)), np.zeros((4, 0)), np.zeros((0, 0))):
        mine = held(full)
        nonzero = csc(np.where(np.abs(full) > 1e-9, full, 0.0))
        assert mine == held(nonzero) == [nonzero.start.tolist(), nonzero.index.tolist(),
                                         nonzero.value.tolist()], full.shape


def test_compressed_columns_multiply_and_list_a_row_as_the_dense_matrix_does():
    rng = np.random.default_rng(5)
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1)] + [tuple(rng.integers(1, 12, 2)) for _ in range(20)]
    for m, n in shapes:
        full = np.where(rng.random((m, n)) < 0.3, rng.normal(size=(m, n)), 0.0)
        full[:, n - n // 3:] = 0.0  # trailing empty columns
        a = csc(full)
        x = rng.normal(size=n)
        product = a @ x
        assert product.dtype == np.float64 and product.shape == (m,)
        assert np.allclose(product, full @ x, rtol=1e-12, atol=1e-12), (m, n)
        for row in range(m):
            columns = a.row_columns(row)
            assert np.array_equal(columns, np.nonzero(full[row])[0]), (m, n, row)


def test_lp_without_columns_is_decided_by_its_row_sides():
    # HiGHS runs no model without columns; x = [] puts 0 in every row
    def no_columns(lower, upper):
        return LinearProgram(cost=np.zeros(0), a=np.zeros((len(lower), 0)),
                             row_lower=np.array(lower), row_upper=np.array(upper),
                             lb=np.zeros(0), ub=np.zeros(0))

    def compressed(lp):
        return dataclasses.replace(lp, a=csc(lp.a))

    engine = Engine()
    # solve_lp rejects a ranged row, whose dual would price one side only
    for lower, upper in (([-1.0], [1.0]), ([1.0], [2.0]), ([-1.0, -INF], [1.0, -0.5])):
        lp = no_columns(lower, upper)
        for solve in (lambda: solve_lp(lp), lambda: solve_lp(lp, engine),
                      lambda: solve_lp(compressed(lp))):
            with pytest.raises(ValueError, match="'lp' has a ranged row"):
                solve()
    for lower, upper in (([0.0, -INF], [0.0, 2.0]), ([], [])):
        lp = no_columns(lower, upper)
        assert compressed(lp).a.shape == lp.a.shape
        for res in (solve_lp(lp), solve_lp(lp, engine), solve_lp(lp, engine),
                    solve_lp(compressed(lp))):
            assert res.status == "optimal" and res.objective == 0.0
            assert res.x.shape == (0,) and not res.row_duals.any()
            assert res.row_duals.shape == (len(lower),) and res.dual_objective() == 0.0
            assert res.simplex_iterations == 0
    lp = no_columns([1.0, -INF], [INF, -0.5])
    for res in (solve_lp(lp), solve_lp(lp, engine), solve_lp(compressed(lp))):
        assert (res.status, res.simplex_iterations) == ("infeasible", 0)
    # solve_milp reads no duals and takes ranged rows
    for lower, upper in (([-1.0], [1.0]), ([0.0, -INF], [0.0, 2.0]), ([], [])):
        res = solve_milp(no_columns(lower, upper))
        assert (res.status, res.mip_nodes, res.mip_gap) == ("optimal", 0, 0.0)
    for lower, upper in (([1.0], [2.0]), ([-1.0, -INF], [1.0, -0.5]),
                         ([1.0, -INF], [INF, -0.5])):
        res = solve_milp(no_columns(lower, upper))
        assert (res.status, res.mip_nodes) == ("infeasible", 0)


def test_a_ranged_row_goes_to_solve_milp_not_solve_lp():
    # min x over 1 <= x <= 3: solve_lp's duals price one side of each row, so
    # it rejects the ranged row before it loads anything; split into two
    # one-sided rows, the same LP prices its lower side
    ranged = make_lp([1.0], [[1.0]], [1.0], [3.0], name="ranged")
    engine = Engine()
    with pytest.raises(ValueError, match=r"'ranged' has a ranged row \(0\)"):
        solve_lp(ranged, engine)
    assert engine.highs.getLp().num_col_ == 0 and engine.bases == {}
    assert solve_milp(ranged).objective == pytest.approx(1.0)
    split = solve_lp(make_lp([1.0], [[1.0], [1.0]], [-INF, 1.0], [3.0, INF]))
    assert split.objective == pytest.approx(1.0) and split.dual_objective() == pytest.approx(1.0)


def test_engine_holds_the_program_it_was_loaded_with(monkeypatch):
    # the array overload of passModel is private binding surface: pin what
    # it loads, for an LP and a MILP
    run, loaded = scucnr.backend._run, []

    def spy(lp, highs, *args):
        out = run(lp, highs, *args)
        loaded.append((lp, highs.getLp()))
        return out

    monkeypatch.setattr(scucnr.backend, "_run", spy)
    case = random_case(101, n_buses=24, n_generators=8, horizon=4)
    sens = build_sensitivities(case)
    master, _ = build_muc(case, sens)
    muc = extract_solution(case, sens, master, solve_milp(master))
    rows = scucnr.subproblems.OutageRows(case, sens, sens.contingencies[0])
    scucnr.subproblems.solve_pcfc(rows, muc, 1)
    tiny = mixed_lp()
    a = dense(tiny.a)
    a[0, 2] = 1e-12
    solve_lp(dataclasses.replace(tiny, a=a))
    assert [lp.integrality is None for lp, _ in loaded] == [False, True, True]
    for lp, held in loaded:
        assert (held.num_col_, held.num_row_) == (len(lp.cost), len(lp.row_lower)), lp.name
        for mine, theirs in ((lp.cost, held.col_cost_), (lp.lb, held.col_lower_),
                             (lp.ub, held.col_upper_), (lp.row_lower, held.row_lower_),
                             (lp.row_upper, held.row_upper_)):
            assert np.array_equal(mine, theirs), lp.name
        mat = held.a_matrix_
        assert mat.format_ == scucnr.backend._hc.MatrixFormat.kColwise
        full = dense(lp.a)
        # HiGHS drops entries of magnitude 1e-9 or less as it loads them
        held_a = CscMatrix(full.shape, np.array(mat.start_), np.array(mat.index_),
                           np.array(mat.value_))
        assert np.array_equal(dense(held_a), np.where(np.abs(full) > 1e-9, full, 0.0)), lp.name
        kinds = [int(v) for v in held.integrality_]
        if lp.integrality is None:
            assert not any(kinds), lp.name
        else:
            assert kinds == lp.integrality.tolist() and any(kinds), lp.name


def held_matrix(lp):
    """The compressed columns a HiGHS engine holds once ``lp`` is loaded."""
    highs = scucnr.backend._hc._Highs()
    scucnr.backend._load(lp, highs)
    mat = highs.getLp().a_matrix_
    return np.array(mat.start_), np.array(mat.index_), np.array(mat.value_)


def test_highs_holds_the_compressed_columns_of_build_muc_as_they_are(monkeypatch):
    # the 40-bus master with cuts and the extensive CNR model of
    # corridor4_high: HiGHS must neither sort, convert nor drop an entry
    masters = []

    def spy(*args, **kwargs):
        masters.append(build_muc(*args, **kwargs))
        return masters[-1]

    monkeypatch.setattr(scucnr.orchestrator, "build_muc", spy)
    solve(random_case(9, 40, 12, 8), SolveOptions(method="ad_scuc_cnr"))
    with_cuts = masters[-1][0]
    assert len(with_cuts.row_lower) > len(masters[0][0].row_lower)
    case = corridor4_high()
    sens = build_sensitivities(case)
    extensive, switches = build_muc(case, sens, states=scucnr.orchestrator._every_pair(case, sens),
                                    switching=True)
    assert switches
    for lp in (with_cuts, extensive):
        a = lp.a
        assert isinstance(a, CscMatrix)
        assert (a.start.dtype, a.index.dtype, a.value.dtype) == (np.int32, np.int32, np.float64)
        assert np.abs(a.value).min() > 1e-9
        # strictly increasing rows within each column
        column = np.repeat(np.arange(a.shape[1]), np.diff(a.start))
        assert (np.diff(a.index)[column[1:] == column[:-1]] > 0).all()
        for mine, theirs in zip((a.start, a.index, a.value), held_matrix(lp)):
            assert np.array_equal(mine, theirs)


def test_limit_and_failure_statuses():
    # a MILP stopped before its first incumbent has no answer to return
    case = random_case(101, n_buses=24, n_generators=8, horizon=4)
    res = solve_milp(build_muc(case, build_sensitivities(case))[0], time_limit=0.0)
    assert res.status == "limit"
    assert res.objective is None and res.x is None
    # an unbounded direction over an infeasible row set: infeasible, as linprog says
    both = make_lp([-1.0, 0.0], [[0, 1], [0, 1]], [-INF, 1.0], [0.0, INF])
    assert solve_lp(both).status == "infeasible"
    lp = mixed_lp()
    with pytest.raises(SolverError, match="could not load 'mixed'"):
        solve_lp(dataclasses.replace(lp, row_upper=np.full(len(lp.row_upper), np.nan)))
    with pytest.raises(SolverError, match="could not load 'mixed'"):
        solve_lp(dataclasses.replace(lp, lb=lp.lb[:-1]))
    with pytest.raises(SolverError, match="could not load 'mixed': its matrix is a csc_array"):
        solve_lp(dataclasses.replace(lp, a=scipy_csc(lp.a)))
    with pytest.raises(SolverError, match="'mixed'.*NaN"):
        solve_lp(dataclasses.replace(lp, cost=np.full(len(lp.cost), np.nan)))


def test_residual_check_rejects_a_bad_optimum(monkeypatch):
    lp = mixed_lp()
    res = solve_lp(lp)
    assert violation(lp, res.x, _RESIDUAL_TOL) is None
    # x >= 0 breaks, then the == row 2 alone; a NaN breaks its bound by infinity
    assert violation(lp, res.x + [-1e-3, 0, 0, 0], _RESIDUAL_TOL)[:2] == ("column", 0)
    assert violation(lp, res.x + [0, 0, 0, 1e-3], _RESIDUAL_TOL)[:2] == ("row", 2)
    assert violation(lp, np.full(4, np.nan), _RESIDUAL_TOL) == ("column", 0, INF)
    # the runner raises on whatever the check finds in an optimum
    monkeypatch.setattr(scucnr.backend, "_RESIDUAL_TOL", -1.0)
    with pytest.raises(SolverError, match="optimal on 'mixed', but its solution breaks"):
        solve_lp(lp)


BINDING = "scipy.optimize._highspy._core"


def fresh_python(code: str, *args: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports this scucnr."""
    src = str(Path(scucnr.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_import_and_parse_load_only_the_binding_from_scipy_optimize(tmp_path):
    write_case(corridor4_low(), tmp_path / "case.json")
    # pybind11 registers the binding's own submodules, such as simplex_constants
    out = fresh_python(f"""
import sys, scucnr
scucnr.parse_case(sys.argv[1])
print("{BINDING}" in sys.modules,
      [m for m in sys.modules if m.startswith("scipy.optimize") and not m.startswith("{BINDING}")],
      "scipy.sparse" in sys.modules)
""", str(tmp_path / "case.json"))
    assert out == "True [] False"


def test_solves_and_audits_do_not_import_scipy_sparse(tmp_path):
    # scipy.sparse costs about as much as the rest of import scucnr together
    write_case(corridor4_low(), tmp_path / "case.json")
    out = fresh_python("""
import sys, scucnr
case = scucnr.parse_case(sys.argv[1])
for method in ("td_scuc_cnr", "extensive_scuc_cnr"):
    run = scucnr.solve(case, scucnr.SolveOptions(method=method))
    audit = scucnr.verify_solution(case, run)
    print(run.status, audit.secure, "scipy.sparse" in sys.modules)
""", str(tmp_path / "case.json"))
    assert out.splitlines() == ["converged True False"] * 2


def test_scipy_optimize_imported_later_shares_the_binding():
    out = fresh_python(f"""
import sys, numpy as np, scucnr
assert "scipy.optimize" not in sys.modules
from scipy.optimize import Bounds, LinearConstraint, linprog, milp
assert sys.modules["{BINDING}"] is scucnr.backend._hc
lp = linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1], bounds=(0, None))
mip = milp([1, 2], constraints=LinearConstraint([[1, 1]], 1.5, np.inf), integrality=[1, 1],
           bounds=Bounds(0, 5))
print(lp.status, lp.fun, mip.status, mip.fun)
""")
    assert out == "0 1.0 0 2.0"


def test_binding_imported_first_is_reused():
    # the loader takes a registered binding without looking for its file
    out = fresh_python(f"""
import sys, scipy.optimize, scucnr.backend
core = sys.modules["{BINDING}"]
print(scucnr.backend._hc is core, scucnr.backend._load_binding("no such folder") is core)
""")
    assert out == "True True"


def test_missing_binding_file_names_the_scipy_pin(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, BINDING)
    with pytest.raises(ImportError, match=r"scipy .* needs scipy>=1\.17,<1\.18") as err:
        scucnr.backend._load_binding(str(tmp_path))
    assert scipy.__version__ in str(err.value)
