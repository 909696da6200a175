"""Array-indexed max flow: the reference the list-based one must match.

This is the body ``aerolink.flow.max_flow`` had before its search and
augmentation ran over Python lists, kept verbatim: the same breadth-first
search, visiting neighbours in ascending order, over a numpy residual.
"""

from collections import deque

import numpy as np


def max_flow(network):
    cap = network.capacity
    n = network.n
    s, t = network.source, network.sink
    residual = cap.copy()
    parent = np.empty(n, dtype=np.int64)

    total = 0.0
    while True:
        parent.fill(-1)
        parent[s] = s
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if u == t:
                break
            for v in np.flatnonzero(residual[u] > 0.0):
                if parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[t] < 0:
            break
        # bottleneck along the found path
        push = np.inf
        v = t
        while v != s:
            u = parent[v]
            push = min(push, residual[u, v])
            v = u
        v = t
        while v != s:
            u = parent[v]
            residual[u, v] -= push
            residual[v, u] += push
            v = u
        total += push

    flow = np.maximum(cap - residual, 0.0)
    return float(total), flow
