"""Domain types for the power-system instance and solution artifacts.

All quantities are in MW and hours except branch susceptance (per-unit on
``base_mva``) and bus angles (radians).  Instances are frozen after
construction and safe to share across worker threads.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from numbers import Real

import numpy as np

OUTCOME_STATUSES = ("screened_out", "feasible", "feasible_via_switch", "infeasible")


def is_real(value) -> bool:
    """A real number that is not a bool, which would pass as 0 or 1."""
    return isinstance(value, Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class Bus:
    id: int
    demand: tuple[float, ...]
    is_reference: bool = False


@dataclass(frozen=True)
class Branch:
    id: int
    from_bus: int
    to_bus: int
    susceptance: float
    rate_long_term: float
    rate_emergency: float
    reconfigurable: bool = True


@dataclass(frozen=True)
class Generator:
    id: int
    bus: int
    p_min: float
    p_max: float
    cost_linear: float
    cost_no_load: float
    cost_startup: float
    ramp_hourly: float
    ramp_startup: float
    ramp_shutdown: float
    ramp_10: float
    min_up: int = 1
    min_down: int = 1
    initial_status: bool = False
    initial_output: float = 0.0


@dataclass(frozen=True)
class SystemCase:
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    generators: tuple[Generator, ...]
    horizon: int
    base_mva: float = 100.0

    @cached_property
    def bus_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.buses)}

    @cached_property
    def branch_index(self) -> dict[int, int]:
        return {b.id: i for i, b in enumerate(self.branches)}

    @cached_property
    def reference_bus(self) -> int:
        refs = [b.id for b in self.buses if b.is_reference]
        if len(refs) != 1:
            raise ValueError(f"case must have exactly one reference bus, found {len(refs)}")
        return refs[0]

    def branch(self, branch_id: int) -> Branch:
        return self.branches[self.branch_index[branch_id]]

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index[bus_id]]

    def demand(self, bus_id: int, t: int) -> float:
        """Demand at ``bus_id`` in period ``t`` (1-based)."""
        return self.bus(bus_id).demand[t - 1]

    @property
    def periods(self) -> range:
        return range(1, self.horizon + 1)


@dataclass(frozen=True)
class Violation:
    kind: str
    entity: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.entity}: {self.message}"


def _adjacency(bus_ids, branches) -> dict[int, list[tuple[int, int]]]:
    """Each bus's incident branches as ``(branch id, neighbour)`` pairs."""
    adjacency: dict[int, list[tuple[int, int]]] = {n: [] for n in bus_ids}
    for k in branches:
        adjacency[k.from_bus].append((k.id, k.to_bus))
        adjacency[k.to_bus].append((k.id, k.from_bus))
    return adjacency


def _bfs(adjacency, sources) -> tuple[dict[int, int], dict[int, tuple[int, int]]]:
    """Breadth-first search from every bus in ``sources`` at once.

    Returns the hop depth of each reached bus (0 at a source) and, for each
    reached bus other than a source, ``up[bus] = (tree branch id, parent)``.
    """
    depth = dict.fromkeys(sources, 0)
    up: dict[int, tuple[int, int]] = {}
    queue = deque(depth)
    while queue:
        n = queue.popleft()
        for kid, m in adjacency[n]:
            if m not in depth:
                depth[m] = depth[n] + 1
                up[m] = (kid, n)
                queue.append(m)
    return depth, up


def validate_case(case: SystemCase) -> list[Violation]:
    """Check every structural invariant; returns an empty list for a valid case."""
    issues: list[Violation] = []

    def add(kind, entity, message):
        issues.append(Violation(kind, entity, message))

    def require_finite(entity, fields):
        for label, val in fields:
            if not math.isfinite(val):
                add("non_finite", entity, f"{label} must be a finite number, got {val}")

    if case.horizon < 1:
        add("horizon", "case", f"horizon must be >= 1, got {case.horizon}")
    require_finite("case", [("base_mva", case.base_mva)])
    if case.base_mva <= 0:
        add("base_mva", "case", f"base_mva must be positive, got {case.base_mva}")

    for coll, name in ((case.buses, "bus"), (case.branches, "branch"),
                       (case.generators, "generator")):
        seen: set[int] = set()
        for item in coll:
            if item.id in seen:
                add("duplicate_id", f"{name} {item.id}", "id appears more than once")
            seen.add(item.id)

    refs = [b.id for b in case.buses if b.is_reference]
    if len(refs) != 1:
        add("reference", "case", f"exactly one reference bus required, found {len(refs)}")

    bus_ids = {b.id for b in case.buses}
    for b in case.buses:
        require_finite(f"bus {b.id}", [(f"demand[{t}]", d) for t, d in enumerate(b.demand, 1)])
        if len(b.demand) != case.horizon:
            add("demand_length", f"bus {b.id}",
                f"demand array has length {len(b.demand)}, expected horizon {case.horizon}")
        if any(d < 0 for d in b.demand):
            add("demand_sign", f"bus {b.id}", "demand values must be >= 0")

    for k in case.branches:
        require_finite(f"branch {k.id}", [("susceptance", k.susceptance),
                                          ("rate_long_term", k.rate_long_term),
                                          ("rate_emergency", k.rate_emergency)])
        if k.from_bus == k.to_bus:
            add("self_loop", f"branch {k.id}", "from_bus equals to_bus")
        for end in (k.from_bus, k.to_bus):
            if end not in bus_ids:
                add("missing_bus", f"branch {k.id}", f"references nonexistent bus {end}")
        if k.susceptance <= 0:
            add("susceptance", f"branch {k.id}",
                f"susceptance must be > 0, got {k.susceptance}")
        if k.rate_long_term <= 0:
            add("rating", f"branch {k.id}",
                f"rate_long_term must be > 0, got {k.rate_long_term}")
        if k.rate_emergency < k.rate_long_term:
            add("rating", f"branch {k.id}",
                f"rate_emergency {k.rate_emergency} is below rate_long_term "
                f"{k.rate_long_term}")

    for g in case.generators:
        require_finite(f"generator {g.id}", [
            ("p_min", g.p_min), ("p_max", g.p_max), ("cost_linear", g.cost_linear),
            ("cost_no_load", g.cost_no_load), ("cost_startup", g.cost_startup),
            ("ramp_hourly", g.ramp_hourly), ("ramp_startup", g.ramp_startup),
            ("ramp_shutdown", g.ramp_shutdown), ("ramp_10", g.ramp_10)])
        if g.bus not in bus_ids:
            add("missing_bus", f"generator {g.id}", f"references nonexistent bus {g.bus}")
        if not (0 <= g.p_min <= g.p_max):
            add("capacity", f"generator {g.id}",
                f"need 0 <= p_min <= p_max, got [{g.p_min}, {g.p_max}]")
        for label, val in (("ramp_hourly", g.ramp_hourly), ("ramp_startup", g.ramp_startup),
                           ("ramp_shutdown", g.ramp_shutdown), ("ramp_10", g.ramp_10)):
            if val < 0:
                add("ramp", f"generator {g.id}", f"{label} must be >= 0, got {val}")
        if g.min_up < 1 or g.min_down < 1:
            add("min_time", f"generator {g.id}",
                f"min_up/min_down must be >= 1, got {g.min_up}/{g.min_down}")
        if g.initial_status:
            if not (g.p_min <= g.initial_output <= g.p_max):
                add("initial_output", f"generator {g.id}",
                    f"initial_output {g.initial_output} outside [{g.p_min}, {g.p_max}]")
        elif g.initial_output != 0:
            add("initial_output", f"generator {g.id}",
                "offline unit must have initial_output 0")

    adjacency = _adjacency(bus_ids, [k for k in case.branches
                                     if k.from_bus in bus_ids and k.to_bus in bus_ids])
    comps: list[dict[int, int]] = []
    for start in sorted(bus_ids):
        if not any(start in comp for comp in comps):
            comps.append(_bfs(adjacency, [start])[0])
    if len(comps) > 1:
        isolated = sorted(min(comps[1:], key=len))
        add("connectivity", "case",
            f"network splits into {len(comps)} components; e.g. buses {isolated} "
            "are separated from the rest")

    return issues


@dataclass(frozen=True)
class MucSolution:
    """Commitment/dispatch schedule produced by a master or extensive solve.

    Arrays are indexed ``[entity_position, t - 1]`` following the id tuples.
    ``u``, ``v`` and ``p`` come from the solve; the rest follows from them.
    ``r`` is the largest reserve each unit can hold,
    ``min(ramp_10, p_max - p) * u``, because reserve has no cost and the
    solver's own split is arbitrary.  ``flow`` is ``PTDF @ injections``
    with the bus injections (generation minus demand) of ``p``, and
    ``theta`` the angles in radians that carry those injections with the
    reference bus at exactly 0, so ``flow`` on branch ``k`` is
    ``b_k * base_mva * (theta[from] - theta[to])``.
    """

    generator_ids: tuple[int, ...]
    branch_ids: tuple[int, ...]
    bus_ids: tuple[int, ...]
    u: np.ndarray
    v: np.ndarray
    p: np.ndarray
    r: np.ndarray
    flow: np.ndarray
    theta: np.ndarray
    objective: float

    def __post_init__(self):
        for arr in (self.u, self.v, self.p, self.r, self.flow, self.theta):
            arr.setflags(write=False)


@dataclass(frozen=True)
class SubproblemOutcome:
    contingency: int
    period: int
    status: str
    slack: float
    cut: FeasibilityCut | None = None
    switch: int | None = None

    def __post_init__(self):
        if self.status not in OUTCOME_STATUSES:
            raise ValueError(f"unknown outcome status {self.status!r}")
        if self.switch is not None and self.status != "feasible_via_switch":
            raise ValueError("a recorded switch requires status feasible_via_switch")
        if self.cut is not None and self.status != "infeasible":
            raise ValueError("a feasibility cut requires status infeasible")
        # a positive condition, so that a NaN slack fails it
        if not self.slack >= 0:
            raise ValueError(f"slack must be >= 0 (got {self.slack!r})")


@dataclass(frozen=True, eq=False)
class FeasibilityCut:
    """Linear inequality over the master's ``u`` and ``p`` of one period.

    ``coef_u`` and ``coef_p`` hold one coefficient per generator, in
    ``case.generators`` order, as read-only float vectors.  The master must
    keep ``coef_u @ u + coef_p @ p + constant <= 0``.  Every coefficient and
    the constant must be finite.
    """

    contingency: int
    period: int
    coef_u: np.ndarray
    coef_p: np.ndarray
    constant: float

    def __post_init__(self):
        for name in ("coef_u", "coef_p"):
            vec = np.array(getattr(self, name), dtype=float)
            if not np.isfinite(vec).all():
                raise ValueError(f"cut for pair ({self.contingency},{self.period}) has a "
                                 f"non-finite {name}: {vec.tolist()}")
            vec.setflags(write=False)
            object.__setattr__(self, name, vec)
        if not math.isfinite(self.constant):
            raise ValueError(f"cut for pair ({self.contingency},{self.period}) has a "
                             f"non-finite constant: {self.constant!r}")

    def __eq__(self, other) -> bool:
        fields = ("contingency", "period", "coef_u", "coef_p", "constant")
        return isinstance(other, FeasibilityCut) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in fields)

    def evaluate_solution(self, sol: MucSolution) -> float:
        t = self.period - 1
        return float(self.coef_u @ sol.u[:, t] + self.coef_p @ sol.p[:, t] + self.constant)

    def same_coefficients(self, other: "FeasibilityCut", tol: float = 1e-9) -> bool:
        mine = np.concatenate((self.coef_u, self.coef_p, [self.constant]))
        theirs = np.concatenate((other.coef_u, other.coef_p, [other.constant]))
        return ((self.contingency, self.period) == (other.contingency, other.period)
                and mine.shape == theirs.shape and np.abs(mine - theirs).max() <= tol)
