"""LP/MILP solving on top of the HiGHS engine bundled with scipy.

Every LP and MILP arrives as a ``LinearProgram``, HiGHS's own form:
``row_lower <= a @ x <= row_upper`` with column bounds and optional
integrality.  Its ``a`` is either a dense array or a ``CscMatrix``, HiGHS's
compressed columns as three numpy arrays, which go to the engine as they
are; ``scipy.sparse`` is not imported.  One private runner loads each one
into an engine of scipy's private binding
``scipy.optimize._highspy._core._Highs`` with one call, the array overload
of ``passModel``, maps the model status through one table and applies the
post-solve residual check of ``linprog(method="highs")`` to every optimal
answer, without linprog's or ``milp``'s per-call input checking and option
validation.  The compiled module is loaded straight from its file,
``optimize/_highspy/_core<suffix>`` in scipy's folder, and registered under
its dotted name, so ``import scucnr`` does not run ``scipy.optimize``'s
``__init__`` (about 0.25 s per process); a binding already imported is
reused, and a later ``import scipy.optimize`` shares it.  That module and
its location are not public API, so ``pyproject.toml`` pins scipy to the
1.17 series it was checked on.
``solve_lp`` runs with linprog's options and adds one dual per row and per
finite variable bound; ``solve_milp`` runs with ``scipy.optimize.milp``'s
options less one heuristic, HiGHS's root reduced-cost sub-MIP, which it
turns off, and returns primal values only.  Duals are normalised so that
``sum(rhs * dual)`` over rows and bounds equals the optimal objective of
the minimisation problem: a row's rhs is its finite side, and a bound
counts as the row ``x >= lb`` or ``x <= ub``.  So ``solve_lp`` rejects a
ranged row, one with two finite sides; ``solve_milp`` reads no duals and
takes one, as the master's branch limits are.

Every solve gets a fresh engine, so concurrent calls share no state,
unless ``solve_lp`` is given an ``Engine``: one engine kept for a chain of
LPs on one thread, which keeps one optimal basis per LP shape it has
solved and starts each LP from the basis of its shape.  A chained engine
runs linprog's options with presolve and scaling off, since dual simplex
from a kept basis has no use for either; every cold LP keeps linprog's
options exactly.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_BINDING = "scipy.optimize._highspy._core"


def _load_binding(scipy_dir: str):
    """scipy's compiled HiGHS module, loaded from its file under ``scipy_dir``.

    Importing it by name would first run ``scipy.optimize``'s ``__init__``
    (linprog, milp, minimize, ``scipy.linalg``, ``scipy.special``), none of
    which is used here.  A module already imported is reused, as ``import``
    would; a new one is registered under its dotted name, so a later
    ``import scipy.optimize`` shares it.
    """
    if _BINDING in sys.modules:
        return sys.modules[_BINDING]
    folder = os.path.join(scipy_dir, "optimize", "_highspy")
    paths = [os.path.join(folder, "_core" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no HiGHS binding _core in {folder}; "
                          "scucnr needs scipy>=1.17,<1.18")
    loader = importlib.machinery.ExtensionFileLoader(_BINDING, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(_BINDING, path, loader=loader))
    loader.exec_module(module)
    sys.modules[_BINDING] = module
    return module


_hc = _load_binding(importlib.util.find_spec("scipy").submodule_search_locations[0])

INF = math.inf

DEFAULT_MILP_GAP = 1e-4

# HiGHS model statuses a solve may end in; any other one is an engine failure.
_STATUS = {
    _hc.HighsModelStatus.kOptimal: "optimal",
    _hc.HighsModelStatus.kTimeLimit: "limit",
    _hc.HighsModelStatus.kIterationLimit: "limit",
    _hc.HighsModelStatus.kInfeasible: "infeasible",
    _hc.HighsModelStatus.kUnbounded: "unbounded",
}
# The options ``linprog(method="highs")`` sets for an LP at feasibility
# tolerances of 1e-7 and no time limit.
_LP_OPTIONS = {
    "presolve": "on",
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": 0,
    "simplex_strategy": int(_hc.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
    "primal_feasibility_tolerance": 1e-7,
    "dual_feasibility_tolerance": 1e-7,
}
# An ``Engine``'s options: linprog's, without presolve or scaling.  A warm
# start skips presolve anyway; the first LP of each shape runs without it.
_CHAINED_OPTIONS = {**_LP_OPTIONS, "presolve": "off", "simplex_scale_strategy": 0}
# The options ``scipy.optimize.milp`` sets, with HiGHS's root reduced-cost
# sub-MIP heuristic off; ``solve_milp`` says why.
_MILP_OPTIONS = {"log_to_console": False, "mip_heuristic_run_root_reduced_cost": False}
_COLWISE = int(_hc.MatrixFormat.kColwise)
_MINIMIZE = int(_hc.ObjSense.kMinimize)
_AT_LOWER = int(_hc.HighsBasisStatus.kLower)
_AT_UPPER = int(_hc.HighsBasisStatus.kUpper)
# linprog's acceptance bound on the residuals of an optimal answer: 10*sqrt(tol)
# at its default tol of 1e-9.
_RESIDUAL_TOL = 10 * math.sqrt(1e-9)


class SolverError(RuntimeError):
    """Engine-level failure (numerical trouble, unexpected status)."""


@dataclass(frozen=True)
class CscMatrix:
    """A sparse matrix in HiGHS's compressed-column form.

    Column ``j`` holds the entries ``value[start[j]:start[j + 1]]`` in the
    rows ``index[start[j]:start[j + 1]]``, in increasing row order.
    ``start`` and ``index`` are int32 and ``value`` float64, so the three
    arrays go to HiGHS as they are.
    """

    shape: tuple[int, int]
    start: np.ndarray
    index: np.ndarray
    value: np.ndarray

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        weights = self.value * np.repeat(x, np.diff(self.start))
        # bincount answers integer zeros when it has no entries to count
        return np.bincount(self.index, weights, self.shape[0]).astype(float, copy=False)

    def row_columns(self, row: int) -> np.ndarray:
        """The columns with an entry in ``row``, in increasing order."""
        return np.searchsorted(self.start, np.flatnonzero(self.index == row), "right") - 1


@dataclass(frozen=True)
class LinearProgram:
    """``min cost @ x`` s.t. ``row_lower <= a @ x <= row_upper``,
    ``lb <= x <= ub``, in HiGHS's own shape.

    A row may be ranged, with two finite sides, as the master's branch
    limits are.  Every LP that ``solve_lp`` solves has none: each of its
    rows is an equality or has exactly one finite side, and its dual prices
    that side.  ``a`` is a dense array (the feasibility and switch LPs) or
    a ``CscMatrix`` (the models of ``formulations.build_muc``).
    ``integrality`` marks integer columns with 1; without it every column
    is continuous.
    """

    cost: np.ndarray
    a: np.ndarray | CscMatrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray | None = None
    name: str = "lp"


@dataclass
class SolveResult:
    """Outcome of one solve.

    ``x`` holds the primal values in column order.  For LP solves,
    ``row_duals`` holds one normalised dual per row and per finite lower,
    then finite upper, variable bound, and ``row_rhs`` the matching
    right-hand sides, so the dual objective can be recomputed exactly.
    ``simplex_iterations`` (LP solves) and ``mip_nodes`` (MILP solves) say
    how hard the engine worked.
    """

    status: str
    objective: float | None
    x: np.ndarray | None = None
    row_duals: np.ndarray | None = None
    row_rhs: np.ndarray | None = None
    mip_gap: float | None = None
    simplex_iterations: int | None = None
    mip_nodes: int | None = None

    def dual_objective(self) -> float:
        """Sum of rhs * dual over every row and bound; equals the LP optimum."""
        if self.row_duals is None:
            raise ValueError("duals are only available for LP solves")
        return float(self.row_rhs @ self.row_duals)


def _csc(a: np.ndarray | CscMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a`` in compressed-column form: starts, row indices, values.

    A dense ``a`` goes as its full column-major pattern, zeros included:
    HiGHS drops entries of magnitude 1e-9 or less as it loads them, so the
    model it holds is the one a nonzero-only pattern gives.
    """
    if isinstance(a, CscMatrix):
        return a.start, a.index, a.value
    n_row, n_col = a.shape
    start = np.arange(n_col + 1, dtype=np.int32) * n_row
    return start, np.tile(np.arange(n_row, dtype=np.int32), n_col), a.T.ravel()


def violation(lp: LinearProgram, x: np.ndarray, tol: float) -> tuple[str, int, float] | None:
    """The worst way ``x`` breaks ``lp`` by more than ``tol``, or None.

    Column bounds come first, as ``("column", j, excess)``, then rows, as
    ``("row", i, excess)``.  A NaN breaks its bound by infinity.
    """
    for kind, value, lower, upper in (("column", x, lp.lb, lp.ub),
                                      ("row", lp.a @ x, lp.row_lower, lp.row_upper)):
        if not value.size:
            continue
        excess = np.maximum(lower - value, value - upper)
        # argmax takes the first NaN over any number, and a NaN fails every comparison
        worst = int(excess.argmax())
        amount = float(excess[worst])
        if not amount <= tol:
            return kind, worst, INF if math.isnan(amount) else amount
    return None


def _new_engine(options: dict):
    """A HiGHS engine with ``options`` set."""
    highs = _hc._Highs()
    for key, val in options.items():
        if highs.setOptionValue(key, val) == _hc.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected option {key}={val!r}")
    return highs


class Engine:
    """One HiGHS engine for a chain of LPs, with linprog's options but
    presolve and scaling off.

    ``solve_lp(lp, engine)`` loads each LP into it and starts from the
    last optimal basis of an LP of the same (rows, columns) shape, if the
    engine has solved one: ``bases`` keeps one per shape, so LPs of
    several shapes can interleave on one engine without evicting each
    other's starts.  Dual simplex from a kept basis has no use for presolve
    or scaling, so the engine runs neither, not even on the first LP of a
    shape.  The optimum is the same as a fresh engine's, up to the
    feasibility tolerances, but where the optimal vertex or the duals are
    not unique it may return other ones.  The HiGHS engine itself is made
    on the first LP, so an ``Engine`` that solves none costs nothing.  An
    engine holds state: use it from one thread.
    """

    def __init__(self):
        self.bases: dict[tuple[int, int], _hc.HighsBasis] = {}

    @cached_property
    def highs(self):
        return _new_engine(_CHAINED_OPTIONS)


def _load(lp: LinearProgram, highs) -> None:
    """Load ``lp`` into ``highs`` through one array call.

    HiGHS drops matrix entries of magnitude 1e-9 or less as it loads them
    and answers with a warning, so only a load error raises.
    """
    n_col, n_row = lp.cost.shape[0], lp.row_lower.shape[0]
    # the overload reads one integrality entry per column, so an LP passes zeros
    integrality = np.zeros(n_col, np.int32) if lp.integrality is None else lp.integrality
    if not isinstance(lp.a, (np.ndarray, CscMatrix)):
        raise SolverError(f"HiGHS could not load {lp.name!r}: its matrix is a "
                          f"{type(lp.a).__name__}, not a numpy array or a CscMatrix")
    # it reads n_col or n_row entries of each array without checking their sizes
    if not (lp.lb.shape == lp.ub.shape == integrality.shape == (n_col,)
            and lp.row_upper.shape == (n_row,) and lp.a.shape == (n_row, n_col)):
        raise SolverError(f"HiGHS could not load {lp.name!r}: its arrays disagree in size")
    start, index, value = _csc(lp.a)
    # kHighsInf is IEEE infinity in the pinned HiGHS, so infinite sides pass as they are
    if highs.passModel(n_col, n_row, value.shape[0], _COLWISE, _MINIMIZE, 0.0,
                       lp.cost, lp.lb, lp.ub, lp.row_lower, lp.row_upper,
                       start, index, value, integrality) == _hc.HighsStatus.kError:
        raise SolverError(f"HiGHS could not load {lp.name!r}")


def _run(lp: LinearProgram, highs, basis=None):
    """Solve ``lp`` in ``highs``, from ``basis`` when one is given.

    The problem goes in through ``_load``.  Returns the status, the
    engine's info and its solution.  The solution is None unless the
    engine holds an answer: an optimum, which must pass linprog's residual
    check, or a MILP incumbent found before a limit.  A model without
    columns, which HiGHS does not run, is optimal when every row range
    holds 0 and infeasible otherwise; its info reports 0 iterations and 0
    nodes, and a gap of 0 when it is optimal.
    """
    _load(lp, highs)
    if basis is not None and highs.setBasis(basis) == _hc.HighsStatus.kError:
        raise SolverError(f"HiGHS rejected the starting basis of {lp.name!r}")
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    if model_status == _hc.HighsModelStatus.kModelEmpty:
        # HiGHS runs no model without columns; its one point, x = [], puts 0 in every row
        holds = (lp.row_lower <= 0).all() and (lp.row_upper >= 0).all()
        status = "optimal" if holds else "infeasible"
        # in place of HiGHS's "not run" values: -1 iterations and nodes, an infinite gap
        info.simplex_iteration_count = info.mip_node_count = 0
        info.mip_gap = 0.0 if holds else INF
    else:
        status = _STATUS.get(model_status)
    if status is None:
        raise SolverError(f"engine failure on {lp.name!r}: HiGHS status "
                          f"{highs.modelStatusToString(model_status)}")
    incumbent = (lp.integrality is not None and status == "limit"
                 and info.objective_function_value < _hc.kHighsInf)
    if status != "optimal" and not incumbent:
        return status, info, None
    solution = highs.getSolution()
    if status == "optimal":
        broken = violation(lp, np.array(solution.col_value), _RESIDUAL_TOL)
        if broken is not None or math.isnan(info.objective_function_value):
            problem = "breaks {} {} by {:.2e}".format(*broken) if broken else "has a NaN objective"
            raise SolverError(f"HiGHS reported optimal on {lp.name!r}, but its solution {problem}")
    return status, info, solution


def solve_lp(lp: LinearProgram, engine: Engine | None = None) -> SolveResult:
    """Solve a pure LP with HiGHS and return primal values plus normalised duals.

    Without ``engine`` the LP gets a fresh engine with linprog's options;
    with one, see ``Engine``.  A ranged row raises ``ValueError``: its dual
    would price only one of its sides.
    """
    if lp.integrality is not None and lp.integrality.any():
        raise ValueError(f"{lp.name!r} has integer columns; solve it with solve_milp")
    lower, upper = lp.row_lower, lp.row_upper
    ranged = np.isfinite(lower) & np.isfinite(upper) & (lower != upper)
    if ranged.any():
        raise ValueError(f"{lp.name!r} has a ranged row ({int(ranged.argmax())}); each row of "
                         "an LP must be an equality or have one finite side")
    shape = (lp.row_lower.shape[0], lp.cost.shape[0])
    if engine is None:
        highs, start = _new_engine(_LP_OPTIONS), None
    else:
        highs, start = engine.highs, engine.bases.get(shape)
    status, info, solution = _run(lp, highs, start)
    iterations = int(info.simplex_iteration_count)
    if solution is None:
        return SolveResult(status=status, objective=None, simplex_iterations=iterations)

    # A bound's dual is the column dual where the basis holds the column at
    # that bound, as linprog reports it.  Row duals are sensitivities of the
    # optimum to each row's finite side, which is their normalised form.
    basis = highs.getBasis()
    if engine is not None:
        engine.bases[shape] = basis
    col_status = np.array([int(s) for s in basis.col_status])
    col_dual = np.array(solution.col_dual)
    lower_duals = np.where(col_status == _AT_LOWER, col_dual, 0.0)
    upper_duals = np.where(col_status == _AT_UPPER, col_dual, 0.0)
    finite_lb = np.isfinite(lp.lb)
    finite_ub = np.isfinite(lp.ub)
    side = np.where(np.isfinite(lp.row_upper), lp.row_upper, lp.row_lower)
    duals = np.concatenate((np.array(solution.row_dual),
                            lower_duals[finite_lb], upper_duals[finite_ub]))
    rhs = np.concatenate((side, lp.lb[finite_lb], lp.ub[finite_ub]))
    return SolveResult(status=status, objective=float(info.objective_function_value),
                       x=np.array(solution.col_value), row_duals=duals, row_rhs=rhs,
                       simplex_iterations=iterations)


def solve_milp(lp: LinearProgram, gap: float = DEFAULT_MILP_GAP,
               time_limit: float | None = None) -> SolveResult:
    """Solve a MILP; ``x`` and the objective are set only when an incumbent exists.

    The engine runs ``_MILP_OPTIONS``: ``scipy.optimize.milp``'s options
    with HiGHS's root reduced-cost sub-MIP heuristic
    (``mip_heuristic_run_root_reduced_cost``) off.  On the masters HiGHS
    spends most of its time on heuristics hunting an incumbent, not on the
    bound, and this one was most of that.  Without it the benchmark's
    ``rts24-td`` ``solve_s`` fell from 0.553 to 0.400 s, and whole
    118-bus ``ad_scuc_cnr`` solves (``random_case(s, 118, 30, 24)``,
    ``workers=2``, medians of 3 runs) spent 9.8 → 3.6 s (seed 5),
    23.2 → 14.4 s (seed 6) and 7.3 → 2.8 s (seed 7) in their masters, with
    the same statuses, masters, cuts and objectives.  It changes the
    search, not the answer: every optimum still meets ``mip_rel_gap``.
    """
    options: dict[str, object] = {**_MILP_OPTIONS, "mip_rel_gap": float(gap)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    status, info, solution = _run(lp, _new_engine(options))
    found = solution is not None
    return SolveResult(status=status,
                       objective=float(info.objective_function_value) if found else None,
                       x=np.array(solution.col_value) if found else None,
                       mip_gap=float(info.mip_gap), mip_nodes=int(info.mip_node_count))
