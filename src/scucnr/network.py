"""Graph and DC-sensitivity analysis for a system case.

Provides bridge classification (which fixes the contingency set to the
non-radial branches), the bus angles that carry given injections, the
injection-to-flow PTDF matrix built from the same reduced susceptance
solve, the line outage distribution factors derived from it (whose pair
blocks decide whether a switching action islands a bus), and each
contingency's switch candidates, ranked closest first.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SystemCase, _adjacency, _bfs

RADIAL_DENOMINATOR_TOL = 1e-8


def check_connectivity(case: SystemCase, removed: set[int] | frozenset[int] = frozenset()) -> bool:
    """True iff all buses stay in one component after removing the given branches."""
    kept = [k for k in case.branches if k.id not in removed]
    depth, _ = _bfs(_adjacency([b.id for b in case.buses], kept), [case.buses[0].id])
    return len(depth) == len(case.buses)


def classify_radial(case: SystemCase) -> tuple[frozenset[int], frozenset[int]]:
    """Split branches into bridges and non-radial (on-cycle) branches.

    A branch is a bridge iff its removal disconnects the network.  Every
    branch off the BFS tree of the first bus closes a cycle with the tree
    path between its ends; walking both ends up by depth until they meet
    marks each tree branch on that cycle as covered.  The bridges are the
    tree branches no cycle covers.  A parallel twin of a tree branch is off
    the tree, so it covers its twin and neither is a bridge.
    """
    depth, up = _bfs(_adjacency([b.id for b in case.buses], case.branches),
                     [case.buses[0].id])
    if len(depth) < len(case.buses):
        raise ValueError("classify_radial requires a connected case")
    tree = {kid for kid, _ in up.values()}
    covered: set[int] = set()
    for k in case.branches:
        if k.id in tree:
            continue
        a, b = k.from_bus, k.to_bus
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            kid, a = up[a]
            covered.add(kid)
    bridges = frozenset(tree - covered)
    return bridges, frozenset(k.id for k in case.branches) - bridges


def _branch_incidence(case: SystemCase) -> tuple[np.ndarray, np.ndarray]:
    """Branch-by-bus incidence (+1 at the from bus) and stiffness in MW/rad."""
    incidence = np.zeros((len(case.branches), len(case.buses)))
    beff = np.zeros(len(case.branches))
    for i, k in enumerate(case.branches):
        incidence[i, case.bus_index[k.from_bus]] = 1.0
        incidence[i, case.bus_index[k.to_bus]] = -1.0
        beff[i] = k.susceptance * case.base_mva
    return incidence, beff


def bus_injections(case: SystemCase, p: np.ndarray) -> np.ndarray:
    """Generation ``p`` (generators x periods) minus demand, in MW per bus
    and period."""
    injections = -np.array([b.demand for b in case.buses], dtype=float)
    np.add.at(injections, [case.bus_index[g.bus] for g in case.generators], p)
    return injections


def bus_angles(case: SystemCase, injections: np.ndarray) -> np.ndarray:
    """Bus angles in radians that carry ``injections`` with the reference at 0.

    ``injections`` is MW per bus in ``case.buses`` order, one column per
    pattern; the reference bus absorbs whatever the other buses inject.
    Solves the susceptance Laplacian of a connected case with the
    reference row and column removed, so the reference angle is exactly 0.
    """
    incidence, beff = _branch_incidence(case)
    laplacian = incidence.T @ (beff[:, None] * incidence)
    keep = [i for i in range(len(case.buses)) if i != case.bus_index[case.reference_bus]]
    theta = np.zeros(injections.shape)
    try:
        theta[keep] = np.linalg.solve(laplacian[np.ix_(keep, keep)], injections[keep])
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular susceptance matrix: {exc}") from None
    return theta


def compute_ptdf(case: SystemCase) -> np.ndarray:
    """Injection sensitivities: MW on each branch per MW injected at each bus.

    Row order follows ``case.branches``, column order ``case.buses``.  Column
    ``n`` gives the flow change for 1 MW injected at bus ``n`` and withdrawn
    at the reference; the reference column is identically zero.
    """
    if not check_connectivity(case):
        raise ValueError("compute_ptdf requires a connected case")
    incidence, beff = _branch_incidence(case)
    unit = np.eye(len(case.buses))
    return (beff[:, None] * incidence) @ bus_angles(case, unit)


def lodf_columns(case: SystemCase, ptdf: np.ndarray, outages) -> np.ndarray:
    """The LODF column of each branch of ``outages`` in the network whose
    PTDF is ``ptdf``: the base case's, or an ``outage_ptdf`` for a line
    opened after an outage.  Raises when a branch is numerically radial."""
    pos = [case.branch_index[j] for j in outages]
    lines = [case.branches[i] for i in pos]
    # flow sensitivity to a unit transfer across each branch's own terminals
    transfer = (ptdf[:, [case.bus_index[k.from_bus] for k in lines]]
                - ptdf[:, [case.bus_index[k.to_bus] for k in lines]])
    at = (pos, range(len(pos)))
    denom = 1.0 - transfer[at]
    for k, d in zip(lines, denom):
        if abs(d) < RADIAL_DENOMINATOR_TOL:
            raise ValueError(
                f"branch {k.id} is numerically radial (1 - self-sensitivity = {d:.2e}) "
                "but was not classified as a bridge; check the case data")
    lodf = transfer / denom
    lodf[at] = -1.0
    return lodf


def compute_lodf(case: SystemCase, ptdf: np.ndarray,
                 non_radial: frozenset[int]) -> np.ndarray:
    """Line outage distribution factors for every non-radial outage.

    Returns a dense branches-by-branches matrix; column ``c`` predicts the
    flow change on each monitored branch per MW of pre-outage flow on ``c``.
    Columns for bridges are NaN (a bridge outage islands the network and has
    no distribution factor).  The diagonal of every valid column is -1.
    """
    lodf = np.full((len(case.branches), len(case.branches)), np.nan)
    outages = [k.id for k in case.branches if k.id in non_radial]
    lodf[:, [case.branch_index[c] for c in outages]] = lodf_columns(case, ptdf, outages)
    return lodf


def rank_cbce(case: SystemCase,
              bridges: frozenset[int] | None = None) -> dict[int, tuple[int, ...]]:
    """Candidate switching branches of each contingency, closest first.

    Every non-radial branch is a contingency.  Its ranking holds every
    other non-radial branch, scored by the minimum bus-hop distance from
    either of their endpoints to either endpoint of the contingency (0 =
    shares a bus), ties broken by ascending branch id.  A switch search
    walks a prefix of it (``subproblems.switch_candidates``).  One
    adjacency serves the searches of every contingency.
    """
    if bridges is None:
        bridges, _ = classify_radial(case)
    non_radial = sorted((k for k in case.branches if k.id not in bridges), key=lambda k: k.id)
    adjacency = _adjacency([b.id for b in case.buses], case.branches)
    ranked = {}
    for c in non_radial:
        depth, _ = _bfs(adjacency, [c.from_bus, c.to_bus])
        scored = sorted((min(depth[k.from_bus], depth[k.to_bus]), k.id)
                        for k in non_radial if k.id != c.id)
        ranked[c.id] = tuple(kid for _, kid in scored)
    return ranked


@dataclass(frozen=True)
class NetworkSensitivities:
    """Precomputed topology/sensitivity bundle, shared read-only by workers."""

    branch_ids: tuple[int, ...]
    bridges: frozenset[int]
    non_radial: frozenset[int]
    ptdf: np.ndarray
    lodf: np.ndarray
    cbce: dict[int, tuple[int, ...]]

    def __post_init__(self):
        self.ptdf.setflags(write=False)
        self.lodf.setflags(write=False)

    @cached_property
    def _branch_pos(self) -> dict[int, int]:
        return {k: i for i, k in enumerate(self.branch_ids)}

    def islands(self, removed: tuple[int, ...]) -> bool:
        """True iff opening every branch in ``removed`` splits the network.

        The LODF block ``LODF[O, O]`` of the removed positions ``O`` is
        singular exactly when the removal islands a bus (Guler, Gross & Liu,
        IEEE TPWRS 2007); for a pair ``(c, j)`` its determinant is
        ``1 - LODF[c, j] LODF[j, c]``.  A bridge has a NaN column and always
        islands.
        """
        pos = [self._branch_pos[k] for k in removed]
        block = self.lodf[np.ix_(pos, pos)]
        if not np.isfinite(block).all():
            return True
        return abs(np.linalg.det(block)) < RADIAL_DENOMINATOR_TOL

    def outage_ptdf(self, c: int) -> np.ndarray:
        """Injection sensitivities of the network with branch ``c`` open.

        ``PTDF + LODF[:, c] PTDF[c, :]``; the row of ``c`` comes out zero.
        Raises when ``c`` is a bridge.  A further opened line ``j`` is not
        a new matrix but a transaction on ``LODF_c[:, j]``
        (``subproblems.OutageRows.shed``).
        """
        if c not in self.non_radial:
            raise ValueError(f"opening branch {c} islands the network")
        pos = self._branch_pos[c]
        return self.ptdf + self.lodf[:, pos, None] * self.ptdf[pos]

    @property
    def contingencies(self) -> list[int]:
        return sorted(self.non_radial)


def build_sensitivities(case: SystemCase) -> NetworkSensitivities:
    """Bridges, PTDF, LODF and each contingency's full switch ranking."""
    bridges, non_radial = classify_radial(case)
    ptdf = compute_ptdf(case)
    lodf = compute_lodf(case, ptdf, non_radial)
    cbce = rank_cbce(case, bridges)
    return NetworkSensitivities(
        branch_ids=tuple(k.id for k in case.branches),
        bridges=bridges,
        non_radial=non_radial,
        ptdf=ptdf,
        lodf=lodf,
        cbce=cbce,
    )
