"""LP/MILP solving on top of the HiGHS engines bundled with scipy.

Models are assembled row by row with named constraints (``Model``), or
directly in arrays (``LinearProgram``).  ``solve_lp`` is the one LP adapter:
a ``Model`` is lowered to a ``LinearProgram`` before it reaches the engine.
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
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

INF = math.inf

SENSES = ("<=", ">=", "==")

DEFAULT_MILP_GAP = 1e-4
DEFAULT_LP_FEASIBILITY_TOL = 1e-7

_STATUS_MAP = {0: "optimal", 1: "limit", 2: "infeasible", 3: "unbounded"}


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
    ``values`` and ``duals`` key the same numbers by name when the solved
    model had names.
    """

    status: str
    objective: float | None
    x: np.ndarray | None = None
    row_duals: np.ndarray | None = None
    row_rhs: np.ndarray | None = None
    mip_gap: float | None = None
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


def solve_lp(problem: LinearProgram | Model,
             feasibility_tol: float = DEFAULT_LP_FEASIBILITY_TOL,
             time_limit: float | None = None) -> SolveResult:
    """Solve a pure LP and return primal values plus normalised duals."""
    lp = problem.lower() if isinstance(problem, Model) else problem
    options = {
        "primal_feasibility_tolerance": feasibility_tol,
        "dual_feasibility_tolerance": feasibility_tol,
    }
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    has_ub = lp.b_ub.shape[0] > 0
    has_eq = lp.b_eq.shape[0] > 0
    res = linprog(
        c=lp.cost,
        A_ub=lp.a_ub if has_ub else None,
        b_ub=lp.b_ub if has_ub else None,
        A_eq=lp.a_eq if has_eq else None,
        b_eq=lp.b_eq if has_eq else None,
        bounds=np.column_stack((lp.lb, lp.ub)),
        method="highs",
        options=options,
    )
    if res.status not in _STATUS_MAP:
        raise SolverError(f"LP engine failure on {lp.name!r}: {res.message}")
    status = _STATUS_MAP[res.status]
    if status != "optimal":
        return SolveResult(status=status, objective=None,
                           col_names=lp.col_names, row_names=lp.row_names)

    # Marginals are sensitivities of the optimum to each rhs, which is the
    # normalised dual of a row in the orientation it was shipped in.
    ub_duals = res.ineqlin.marginals if has_ub else np.zeros(0)
    ub_rhs = lp.b_ub
    if lp.ub_sign is not None:
        ub_duals = lp.ub_sign * ub_duals
        ub_rhs = lp.ub_sign * ub_rhs
    finite_lb = np.isfinite(lp.lb)
    finite_ub = np.isfinite(lp.ub)
    duals = np.concatenate((ub_duals, res.eqlin.marginals if has_eq else np.zeros(0),
                            res.lower.marginals[finite_lb], res.upper.marginals[finite_ub]))
    rhs = np.concatenate((ub_rhs, lp.b_eq, lp.lb[finite_lb], lp.ub[finite_ub]))
    return SolveResult(status=status, objective=float(res.fun), x=res.x,
                       row_duals=duals, row_rhs=rhs,
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
    if res.status not in _STATUS_MAP:
        raise SolverError(f"MILP engine failure on {model.name!r}: {res.message}")
    status = _STATUS_MAP[res.status]

    objective = None
    if res.x is not None:
        objective = float(res.fun)
    elif status == "optimal":
        raise SolverError(f"MILP engine returned optimal without a solution on {model.name!r}")
    gap_out = getattr(res, "mip_gap", None)
    return SolveResult(status=status, objective=objective, x=res.x,
                       mip_gap=None if gap_out is None else float(gap_out),
                       col_names=tuple(model.variable_names))
