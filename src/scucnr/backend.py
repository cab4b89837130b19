"""LP/MILP solving on top of the HiGHS engines bundled with scipy.

Models are assembled row by row with named constraints (``Model``), or
directly in arrays (``LinearProgram``).  ``solve_lp`` is the one LP adapter:
a ``Model`` is lowered to a ``LinearProgram`` before it reaches the engine.
It drives HiGHS through scipy's private binding
``scipy.optimize._highspy._core._Highs`` with the options, status mapping,
bound duals and post-solve residual check of ``linprog(method="highs")``,
without linprog's per-call input checking and option validation.  That
module is not public API, so ``pyproject.toml`` pins scipy to the 1.17
series it was checked on.  MILPs go through ``scipy.optimize.milp``.
Results expose primal values and, for pure LPs, one dual value per row and
per finite variable bound.  Duals are normalised so that ``sum(rhs * dual)``
over rows and bounds equals the optimal objective of the minimisation
problem, regardless of the engine's native sign convention; a bound counts
as the row ``x >= lb`` (named ``_lb[var]``) or ``x <= ub`` (``_ub[var]``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core as _hc

INF = math.inf

SENSES = ("<=", ">=", "==")

DEFAULT_MILP_GAP = 1e-4
DEFAULT_LP_FEASIBILITY_TOL = 1e-7

_MILP_STATUS = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}

# HiGHS model statuses an LP solve may end in; any other one is an engine failure.
_LP_STATUS = {
    _hc.HighsModelStatus.kOptimal: "optimal",
    _hc.HighsModelStatus.kTimeLimit: "limit",
    _hc.HighsModelStatus.kIterationLimit: "limit",
    _hc.HighsModelStatus.kInfeasible: "infeasible",
    _hc.HighsModelStatus.kUnbounded: "unbounded",
}
# The options ``linprog(method="highs")`` sets for an LP, besides the
# feasibility tolerances and the time limit.
_LP_OPTIONS = {
    "presolve": "on",
    "output_flag": False,
    "log_to_console": False,
    "highs_debug_level": 0,
    "simplex_strategy": int(_hc.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
}
_AT_LOWER = int(_hc.HighsBasisStatus.kLower)
_AT_UPPER = int(_hc.HighsBasisStatus.kUpper)
# linprog's acceptance bound on the residuals of an optimal answer: 10*sqrt(tol)
# at its default tol of 1e-9.
_RESIDUAL_TOL = 10 * math.sqrt(1e-9)


class SolverError(RuntimeError):
    """Engine-level failure (numerical trouble, unexpected status)."""


@dataclass
class _Variable:
    name: str
    lb: float
    ub: float
    cost: float
    binary: bool


@dataclass
class _Row:
    name: str
    terms: dict[int, float]
    sense: str
    rhs: float


@dataclass(frozen=True)
class LinearProgram:
    """``min cost @ x`` s.t. ``a_ub @ x <= b_ub``, ``a_eq @ x == b_eq``,
    ``lb <= x <= ub``.

    ``ub_sign`` gives the orientation each inequality was written in: -1
    marks a ``>=`` row stored negated, whose dual and rhs are reported
    flipped back.  ``col_names`` and ``row_names`` (inequalities, then
    equalities, then finite bounds) are optional and only key the result.
    """

    cost: np.ndarray
    a_ub: np.ndarray | sp.csr_matrix
    b_ub: np.ndarray
    a_eq: np.ndarray | sp.csr_matrix
    b_eq: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    ub_sign: np.ndarray | None = None
    name: str = "lp"
    col_names: tuple[str, ...] = ()
    row_names: tuple[str, ...] = ()


class Model:
    """A linear model under construction: variables, named rows, min objective."""

    def __init__(self, name: str = "model"):
        self.name = name
        self._vars: list[_Variable] = []
        self._var_index: dict[str, int] = {}
        self._rows: list[_Row] = []
        self._row_index: dict[str, int] = {}

    def add_variable(self, name: str, lb: float = -INF, ub: float = INF,
                     cost: float = 0.0, binary: bool = False) -> str:
        if name in self._var_index:
            raise ValueError(f"duplicate variable name {name!r}")
        if binary:
            lb, ub = 0.0, 1.0
        if lb > ub:
            raise ValueError(f"variable {name!r} has empty bound range [{lb}, {ub}]")
        self._var_index[name] = len(self._vars)
        self._vars.append(_Variable(name, lb, ub, cost, binary))
        return name

    def add_constraint(self, name: str, terms: dict[str, float], sense: str,
                       rhs: float) -> str:
        if name in self._row_index:
            raise ValueError(f"duplicate constraint name {name!r}")
        if sense not in SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        indexed: dict[int, float] = {}
        for var, coef in terms.items():
            if var not in self._var_index:
                raise ValueError(f"constraint {name!r} references unknown variable {var!r}")
            if coef != 0.0:
                indexed[self._var_index[var]] = indexed.get(self._var_index[var], 0.0) + coef
        self._row_index[name] = len(self._rows)
        self._rows.append(_Row(name, indexed, sense, float(rhs)))
        return name

    @property
    def variable_names(self) -> list[str]:
        return [v.name for v in self._vars]

    @property
    def num_variables(self) -> int:
        return len(self._vars)

    @property
    def num_constraints(self) -> int:
        return len(self._rows)

    @property
    def has_binaries(self) -> bool:
        return any(v.binary for v in self._vars)

    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        cost = np.array([v.cost for v in self._vars], dtype=float)
        lb = np.array([v.lb for v in self._vars], dtype=float)
        ub = np.array([v.ub for v in self._vars], dtype=float)
        return cost, lb, ub

    def _matrix(self) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
        """Every row in one CSR matrix, with its sense and rhs."""
        data: list[float] = []
        ri: list[int] = []
        ci: list[int] = []
        for r, row in enumerate(self._rows):
            ri.extend([r] * len(row.terms))
            ci.extend(row.terms.keys())
            data.extend(row.terms.values())
        mat = sp.csr_matrix((data, (ri, ci)), shape=(len(self._rows), len(self._vars)))
        sense = np.array([row.sense for row in self._rows], dtype=object)
        rhs = np.array([row.rhs for row in self._rows], dtype=float)
        return mat, sense, rhs

    def lower(self) -> LinearProgram:
        """The model as arrays; ``>=`` rows are stored negated."""
        if self.has_binaries:
            raise ValueError("only a model without binary variables lowers to an LP")
        mat, sense, rhs = self._matrix()
        ineq = np.flatnonzero(sense != "==")
        eq = np.flatnonzero(sense == "==")
        sign = np.where(sense[ineq] == ">=", -1.0, 1.0)
        cost, lb, ub = self._columns()
        names = [self._rows[i].name for i in ineq] + [self._rows[i].name for i in eq]
        names += [f"_lb[{v.name}]" for v in self._vars if v.lb > -INF]
        names += [f"_ub[{v.name}]" for v in self._vars if v.ub < INF]
        return LinearProgram(
            cost=cost, a_ub=sp.diags(sign) @ mat[ineq], b_ub=sign * rhs[ineq],
            a_eq=mat[eq], b_eq=rhs[eq], lb=lb, ub=ub, ub_sign=sign, name=self.name,
            col_names=tuple(self.variable_names), row_names=tuple(names))


@dataclass
class SolveResult:
    """Outcome of one solve.

    ``x`` holds the primal values in column order.  For LP solves,
    ``row_duals`` holds one normalised dual per inequality row, equality row
    and finite variable bound, in that order, and ``row_rhs`` the matching
    right-hand sides, so the dual objective can be recomputed exactly.
    ``simplex_iterations`` (LP solves) and ``mip_nodes`` (MILP solves) say
    how hard the engine worked.  ``values`` and ``duals`` key the same
    numbers by name when the solved model had names.
    """

    status: str
    objective: float | None
    x: np.ndarray | None = None
    row_duals: np.ndarray | None = None
    row_rhs: np.ndarray | None = None
    mip_gap: float | None = None
    simplex_iterations: int | None = None
    mip_nodes: int | None = None
    col_names: tuple[str, ...] = field(default=(), repr=False)
    row_names: tuple[str, ...] = field(default=(), repr=False)

    @cached_property
    def values(self) -> dict[str, float]:
        if self.x is None:
            return {}
        return dict(zip(self.col_names, self.x.tolist()))

    @cached_property
    def duals(self) -> dict[str, float] | None:
        """Row name to normalised dual; present only for LP solves."""
        if self.row_duals is None:
            return None
        return dict(zip(self.row_names, self.row_duals.tolist()))

    def value(self, name: str) -> float:
        return self.values[name]

    def dual(self, name: str) -> float:
        if self.duals is None:
            raise ValueError("duals are only available for LP solves")
        return self.duals[name]

    def dual_objective(self) -> float:
        """Sum of rhs * dual over every row and bound; equals the LP optimum."""
        if self.row_duals is None:
            raise ValueError("duals are only available for LP solves")
        return float(self.row_rhs @ self.row_duals)


def _csc(a_ub, a_eq) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``[a_ub; a_eq]`` in compressed-column form: starts, row indices, values."""
    if sp.issparse(a_ub) or sp.issparse(a_eq):
        mat = sp.csc_array(sp.vstack((a_ub, a_eq)))
        return mat.indptr, mat.indices, mat.data
    dense = np.vstack((a_ub, a_eq))
    cols, rows = np.nonzero(dense.T)
    start = np.searchsorted(cols, np.arange(dense.shape[1] + 1))
    return start, rows, dense[rows, cols]


def _highs_options(highs, feasibility_tol: float, time_limit: float | None) -> None:
    options = dict(_LP_OPTIONS, primal_feasibility_tolerance=float(feasibility_tol),
                   dual_feasibility_tolerance=float(feasibility_tol))
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    for key, value in options.items():
        if highs.setOptionValue(key, value) == _hc.HighsStatus.kError:
            raise SolverError(f"HiGHS rejected option {key}={value!r}")


def _check_solution(lp: LinearProgram, x: np.ndarray, objective: float,
                    row_value: np.ndarray) -> None:
    """linprog's post-solve check: no NaN, bounds and rows hold to 10*sqrt(1e-9)."""
    tol = _RESIDUAL_TOL
    n_ub = lp.b_ub.shape[0]
    slack = lp.b_ub - row_value[:n_ub]
    con = lp.b_eq - row_value[n_ub:]
    if (np.isnan(x).any() or math.isnan(objective) or np.isnan(slack).any()
            or np.isnan(con).any()):
        problem = "holds NaN"
    elif not np.all((x >= lp.lb - tol) & (x <= lp.ub + tol)):
        problem = f"breaks a variable bound by more than {tol:.2e}"
    elif (slack < -tol).any():
        problem = f"breaks an inequality row by more than {tol:.2e}"
    elif (np.abs(con) > tol).any():
        problem = f"breaks an equality row by more than {tol:.2e}"
    else:
        return
    raise SolverError(f"LP engine reported optimal on {lp.name!r}, but its solution {problem}")


def solve_lp(problem: LinearProgram | Model,
             feasibility_tol: float = DEFAULT_LP_FEASIBILITY_TOL,
             time_limit: float | None = None) -> SolveResult:
    """Solve a pure LP with HiGHS and return primal values plus normalised duals.

    One fresh engine per call, so concurrent calls share no state.
    """
    lp = problem.lower() if isinstance(problem, Model) else problem
    n_col = lp.cost.shape[0]
    start, index, value = _csc(lp.a_ub, lp.a_eq)
    # kHighsInf is IEEE infinity in the pinned HiGHS, so infinite bounds pass as they are
    row_lower = np.concatenate((np.full(lp.b_ub.shape[0], -_hc.kHighsInf), lp.b_eq))
    row_upper = np.concatenate((lp.b_ub, lp.b_eq))

    model = _hc.HighsLp()
    model.num_col_ = n_col
    model.num_row_ = row_upper.shape[0]
    model.col_cost_ = lp.cost
    model.col_lower_ = lp.lb
    model.col_upper_ = lp.ub
    model.row_lower_ = row_lower
    model.row_upper_ = row_upper
    model.a_matrix_.format_ = _hc.MatrixFormat.kColwise
    model.a_matrix_.num_col_ = n_col
    model.a_matrix_.num_row_ = row_upper.shape[0]
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = index
    model.a_matrix_.value_ = value

    highs = _hc._Highs()
    _highs_options(highs, feasibility_tol, time_limit)
    if highs.passModel(model) == _hc.HighsStatus.kError:
        raise SolverError(f"HiGHS could not load LP {lp.name!r}")
    highs.run()
    model_status = highs.getModelStatus()
    info = highs.getInfo()
    iterations = int(info.simplex_iteration_count)
    status = _LP_STATUS.get(model_status)
    if status is None:
        raise SolverError(f"LP engine failure on {lp.name!r}: HiGHS status "
                          f"{highs.modelStatusToString(model_status)}")
    if status != "optimal":
        return SolveResult(status=status, objective=None, simplex_iterations=iterations,
                           col_names=lp.col_names, row_names=lp.row_names)

    solution = highs.getSolution()
    x = np.array(solution.col_value)
    objective = float(info.objective_function_value)
    row_dual = np.array(solution.row_dual)
    _check_solution(lp, x, objective, np.array(solution.row_value))

    # A bound's dual is the column dual where the basis holds the column at
    # that bound, as linprog reports it.
    col_status = np.array([int(s) for s in highs.getBasis().col_status])
    col_dual = np.array(solution.col_dual)
    lower_duals = np.where(col_status == _AT_LOWER, col_dual, 0.0)
    upper_duals = np.where(col_status == _AT_UPPER, col_dual, 0.0)

    # Row duals are sensitivities of the optimum to each rhs, which is the
    # normalised dual of a row in the orientation it was shipped in.
    n_ub = lp.b_ub.shape[0]
    ub_duals = row_dual[:n_ub]
    ub_rhs = lp.b_ub
    if lp.ub_sign is not None:
        ub_duals = lp.ub_sign * ub_duals
        ub_rhs = lp.ub_sign * ub_rhs
    finite_lb = np.isfinite(lp.lb)
    finite_ub = np.isfinite(lp.ub)
    duals = np.concatenate((ub_duals, row_dual[n_ub:],
                            lower_duals[finite_lb], upper_duals[finite_ub]))
    rhs = np.concatenate((ub_rhs, lp.b_eq, lp.lb[finite_lb], lp.ub[finite_ub]))
    return SolveResult(status=status, objective=objective, x=x,
                       row_duals=duals, row_rhs=rhs, simplex_iterations=iterations,
                       col_names=lp.col_names, row_names=lp.row_names)


def solve_milp(model: Model, gap: float = DEFAULT_MILP_GAP,
               time_limit: float | None = None) -> SolveResult:
    """Solve a MILP; binary-free models fall through to the LP path (with duals)."""
    if not model.has_binaries:
        return solve_lp(model, time_limit=time_limit)

    cost, lb, ub = model._columns()
    integrality = np.array([1 if v.binary else 0 for v in model._vars], dtype=int)

    constraints = []
    if model._rows:
        mat, sense, rhs = model._matrix()
        lo = np.where(sense == "<=", -INF, rhs)
        hi = np.where(sense == ">=", INF, rhs)
        constraints.append(LinearConstraint(mat, lo, hi))

    options: dict[str, object] = {"mip_rel_gap": float(gap)}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)

    res = milp(c=cost, constraints=constraints, integrality=integrality,
               bounds=Bounds(lb, ub), options=options)
    if res.status not in _MILP_STATUS:
        raise SolverError(f"MILP engine failure on {model.name!r}: {res.message}")
    status = _MILP_STATUS[res.status]

    objective = None
    if res.x is not None:
        objective = float(res.fun)
    elif status == "optimal":
        raise SolverError(f"MILP engine returned optimal without a solution on {model.name!r}")
    gap_out = getattr(res, "mip_gap", None)
    nodes = getattr(res, "mip_node_count", None)
    return SolveResult(status=status, objective=objective, x=res.x,
                       mip_gap=None if gap_out is None else float(gap_out),
                       mip_nodes=None if nodes is None else int(nodes),
                       col_names=tuple(model.variable_names))
