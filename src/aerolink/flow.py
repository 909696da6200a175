"""Max flow and min cut on small dense capacity networks.

The relayed end-to-end throughput is the maximum s-d flow of a directed
network whose arc capacities are the link rates.  Networks here are tiny
(one node per radio), so everything works on dense matrices with
shortest-augmenting-path search.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# capacities below this are treated as absent arcs
CAPACITY_FLOOR = 1.0e-12


@dataclass(frozen=True)
class FlowNetwork:
    capacity: np.ndarray     # (n, n) directed arc capacities, zero diagonal
    source: int
    sink: int

    def __post_init__(self):
        cap = np.array(self.capacity, dtype=float)
        if cap.ndim != 2 or cap.shape[0] != cap.shape[1]:
            raise ValueError("capacity matrix must be square")
        if np.any(cap < 0.0) or not np.all(np.isfinite(cap)):
            raise ValueError("capacities must be finite and non-negative")
        cap[cap < CAPACITY_FLOOR] = 0.0
        np.fill_diagonal(cap, 0.0)
        object.__setattr__(self, "capacity", cap)
        n = cap.shape[0]
        if not (0 <= self.source < n and 0 <= self.sink < n):
            raise ValueError("source and sink must be valid node indices")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")

    @property
    def n(self) -> int:
        return self.capacity.shape[0]


@dataclass(frozen=True)
class CutResult:
    value: float
    source_side: frozenset


def from_adjacency(matrices_or_adjacency, source: int, sink: int) -> FlowNetwork:
    """Flow network from a symmetric rate matrix: one arc each way per edge.

    Rejects meaningfully asymmetric input; link rates are symmetric by
    construction, so asymmetry signals an upstream bug.
    """
    adj = np.asarray(getattr(matrices_or_adjacency, "adjacency", matrices_or_adjacency),
                     dtype=float)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    scale = max(1.0, float(np.abs(adj).max()))
    if float(np.abs(adj - adj.T).max()) > 1.0e-9 * scale:
        raise ValueError("adjacency must be symmetric")
    return FlowNetwork(capacity=adj, source=source, sink=sink)


def max_flow(network: FlowNetwork) -> tuple:
    """Maximum s-d flow via shortest augmenting paths.

    Returns (value, flow) where flow[i, j] is the net flow pushed on arc
    (i, j); it satisfies capacity limits and conservation at every node other
    than source and sink.  Runs in O(V * E^2), plenty for radio-sized graphs.
    """
    cap = network.capacity
    n = network.n
    s, t = network.source, network.sink
    # Python lists: the graphs are a handful of nodes, where per-element
    # numpy indexing costs more than the search itself
    residual = cap.tolist()

    total = 0.0
    while True:
        parent = [-1] * n
        parent[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for v, r in enumerate(residual[u]):
                if r > 0.0 and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            break
        # bottleneck along the found path
        push = math.inf
        v = t
        while v != s:
            u = parent[v]
            push = min(push, residual[u][v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u][v] -= push
            residual[v][u] += push
            v = u
        total += push

    flow = np.maximum(cap - np.array(residual), 0.0)
    return float(total), flow


def min_cut(network: FlowNetwork) -> CutResult:
    """Minimum s-d cut from the max-flow residual graph.

    The source side is the set of nodes residual-reachable from s, which is
    the smallest minimum cut; its value equals the max flow.
    """
    value, flow = max_flow(network)
    residual = network.capacity - flow + flow.T
    n = network.n
    seen = np.zeros(n, dtype=bool)
    seen[network.source] = True
    stack = [network.source]
    while stack:
        u = stack.pop()
        for v in np.flatnonzero(residual[u] > 0.0):
            if not seen[v]:
                seen[v] = True
                stack.append(v)
    return CutResult(value=float(value), source_side=frozenset(np.flatnonzero(seen).tolist()))


def brute_force_min_cut(network: FlowNetwork) -> CutResult:
    """Exhaustive min cut over all s-side subsets; oracle for small networks."""
    n = network.n
    if n > 16:
        raise ValueError("brute force capped at 16 nodes")
    cap = network.capacity
    s, t = network.source, network.sink
    others = [v for v in range(n) if v not in (s, t)]
    best = np.inf
    best_side = frozenset([s])
    for k in range(len(others) + 1):
        for extra in combinations(others, k):
            mask = np.zeros(n, dtype=bool)
            mask[s] = True
            mask[list(extra)] = True
            value = float(cap[mask][:, ~mask].sum())
            if value < best - 1.0e-15:
                best = value
                best_side = frozenset(np.flatnonzero(mask).tolist())
    return CutResult(value=float(best), source_side=best_side)
