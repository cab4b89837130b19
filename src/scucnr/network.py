"""Graph and DC-sensitivity analysis for a system case.

Provides bridge classification (which fixes the contingency set to the
non-radial branches), the bus angles that carry given injections, the
injection-to-flow PTDF matrix built from the same reduced susceptance
solve, the line outage distribution factors derived from it (whose pair
blocks decide whether a switching action islands a bus), and the ranked
candidate list of branches closest to a contingency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import SystemCase, _connected_components

RADIAL_DENOMINATOR_TOL = 1e-8

DEFAULT_CBCE_SIZE = 20


def _adjacency(case: SystemCase) -> dict[int, list[tuple[int, int]]]:
    adj: dict[int, list[tuple[int, int]]] = {b.id: [] for b in case.buses}
    for k in case.branches:
        adj[k.from_bus].append((k.id, k.to_bus))
        adj[k.to_bus].append((k.id, k.from_bus))
    return adj


def check_connectivity(case: SystemCase, removed: set[int] | frozenset[int] = frozenset()) -> bool:
    """True iff all buses stay in one component after removing the given branches."""
    edges = [(k.from_bus, k.to_bus) for k in case.branches if k.id not in removed]
    return len(_connected_components([b.id for b in case.buses], edges)) == 1


def classify_radial(case: SystemCase) -> tuple[frozenset[int], frozenset[int]]:
    """Split branches into bridges and non-radial (on-cycle) branches.

    A branch is a bridge iff its removal disconnects the network.  Parallel
    branches between the same bus pair are never bridges: the DFS skips only
    the tree edge itself, by branch id, so a parallel twin acts as a back
    edge.
    """
    if not check_connectivity(case):
        raise ValueError("classify_radial requires a connected case")

    adj = _adjacency(case)
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    bridges: set[int] = set()
    counter = 0

    root = case.buses[0].id
    # Iterative DFS; each stack frame tracks the edge used to enter the node.
    stack: list[tuple[int, int | None]] = [(root, None)]
    iterators = {root: iter(adj[root])}
    disc[root] = low[root] = counter
    counter += 1
    while stack:
        node, entry_edge = stack[-1]
        advanced = False
        for edge_id, nbr in iterators[node]:
            if edge_id == entry_edge:
                continue
            if nbr not in disc:
                disc[nbr] = low[nbr] = counter
                counter += 1
                iterators[nbr] = iter(adj[nbr])
                stack.append((nbr, edge_id))
                advanced = True
                break
            low[node] = min(low[node], disc[nbr])
        if not advanced:
            stack.pop()
            if stack:
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[node])
                if low[node] > disc[parent]:
                    bridges.add(entry_edge)

    non_radial = frozenset(k.id for k in case.branches) - bridges
    return frozenset(bridges), frozenset(non_radial)


def _branch_incidence(case: SystemCase) -> tuple[np.ndarray, np.ndarray]:
    """Branch-by-bus incidence (+1 at the from bus) and stiffness in MW/rad."""
    incidence = np.zeros((len(case.branches), len(case.buses)))
    beff = np.zeros(len(case.branches))
    for i, k in enumerate(case.branches):
        incidence[i, case.bus_index[k.from_bus]] = 1.0
        incidence[i, case.bus_index[k.to_bus]] = -1.0
        beff[i] = k.susceptance * case.base_mva
    return incidence, beff


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


def compute_lodf(case: SystemCase, ptdf: np.ndarray,
                 non_radial: frozenset[int]) -> np.ndarray:
    """Line outage distribution factors for every non-radial outage.

    Returns a dense branches-by-branches matrix; column ``c`` predicts the
    flow change on each monitored branch per MW of pre-outage flow on ``c``.
    Columns for bridges are NaN (a bridge outage islands the network and has
    no distribution factor).  The diagonal of every valid column is -1.
    """
    bus_pos = case.bus_index
    br_pos = case.branch_index
    n_br = len(case.branches)
    lodf = np.full((n_br, n_br), np.nan)
    # Flow sensitivity to a unit transfer across each branch's own terminals.
    transfer = np.zeros((n_br, n_br))
    for j, k in enumerate(case.branches):
        transfer[:, j] = ptdf[:, bus_pos[k.from_bus]] - ptdf[:, bus_pos[k.to_bus]]

    for k in case.branches:
        c = br_pos[k.id]
        if k.id not in non_radial:
            continue
        denom = 1.0 - transfer[c, c]
        if abs(denom) < RADIAL_DENOMINATOR_TOL:
            raise ValueError(
                f"branch {k.id} is numerically radial (1 - self-sensitivity = {denom:.2e}) "
                "but was not classified as a bridge; check the case data")
        lodf[:, c] = transfer[:, c] / denom
        lodf[c, c] = -1.0
    return lodf


def rank_cbce(case: SystemCase, contingency: int, size: int = DEFAULT_CBCE_SIZE,
              bridges: frozenset[int] | None = None) -> list[int]:
    """Candidate switching branches nearest to a contingency, closest first.

    Candidates are the non-radial branches other than the contingency,
    scored by the minimum bus-hop distance from either of their endpoints to
    either endpoint of the contingency (0 = shares a bus).  Ties break by
    ascending branch id; the list is truncated to ``size``.
    """
    if bridges is None:
        bridges, _ = classify_radial(case)
    if contingency in bridges:
        raise ValueError(f"branch {contingency} is a bridge and not a valid contingency")
    if size <= 0:
        return []

    target = case.branch(contingency)
    dist: dict[int, float] = {b.id: np.inf for b in case.buses}
    queue = deque()
    for src in (target.from_bus, target.to_bus):
        dist[src] = 0
        queue.append(src)
    adj = _adjacency(case)
    while queue:
        n = queue.popleft()
        for _, m in adj[n]:
            if dist[m] == np.inf:
                dist[m] = dist[n] + 1
                queue.append(m)

    scored = []
    for k in case.branches:
        if k.id == contingency or k.id in bridges:
            continue
        score = min(dist[k.from_bus], dist[k.to_bus])
        scored.append((score, k.id))
    scored.sort()
    return [kid for _, kid in scored[:size]]


@dataclass(frozen=True)
class NetworkSensitivities:
    """Precomputed topology/sensitivity bundle, shared read-only by workers."""

    bus_ids: tuple[int, ...]
    branch_ids: tuple[int, ...]
    bridges: frozenset[int]
    non_radial: frozenset[int]
    ptdf: np.ndarray
    lodf: np.ndarray
    cbce: dict[int, tuple[int, ...]]
    cbce_size: int

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

    def outage_ptdf(self, removed: tuple[int, ...]) -> np.ndarray:
        """Injection sensitivities of the network with ``removed`` open.

        Generalised LODFs (Guler, Gross & Liu, IEEE TPWRS 2007): with ``O``
        the removed positions, ``PTDF - LODF[:, O] LODF[O, O]^-1 PTDF[O, :]``.
        For one outage ``c`` this is ``PTDF + LODF[:, c] PTDF[c, :]``; the
        rows of the removed branches come out zero.  Raises when the removal
        islands a bus (see ``islands``).
        """
        if self.islands(removed):
            raise ValueError(f"opening branches {sorted(removed)} islands the network")
        pos = [self._branch_pos[k] for k in removed]
        block = self.lodf[np.ix_(pos, pos)]
        return self.ptdf - self.lodf[:, pos] @ np.linalg.solve(block, self.ptdf[pos])

    @property
    def contingencies(self) -> list[int]:
        return sorted(self.non_radial)


def build_sensitivities(case: SystemCase, cbce_size: int = DEFAULT_CBCE_SIZE) -> NetworkSensitivities:
    bridges, non_radial = classify_radial(case)
    ptdf = compute_ptdf(case)
    lodf = compute_lodf(case, ptdf, non_radial)
    cbce = {c: tuple(rank_cbce(case, c, cbce_size, bridges))
            for c in sorted(non_radial)}
    return NetworkSensitivities(
        bus_ids=tuple(b.id for b in case.buses),
        branch_ids=tuple(k.id for k in case.branches),
        bridges=bridges,
        non_radial=non_radial,
        ptdf=ptdf,
        lodf=lodf,
        cbce=cbce,
        cbce_size=cbce_size,
    )
