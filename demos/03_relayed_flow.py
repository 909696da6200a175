"""
End-to-end throughput as a max-flow problem
===========================================

The relayed bs-to-ue throughput is the maximum flow of a network whose arc
capacities are the link rates.  On a pure chain that is just the weakest
link, so this script also adds a shortcut edge to show the flow routing
around a bottleneck, and verifies the min cut both ways.
"""

import numpy as np

from aerolink import (brute_force_min_cut, build_default_scenario,
                      build_matrices, build_state, from_adjacency, max_flow, min_cut)

s = build_default_scenario()
m = build_matrices(build_state(s))
net = from_adjacency(m, s.source, s.destination)

value, flow = max_flow(net)
cut = min_cut(net)
print(f"chain max flow: {value:.2f} bit/s")
print(f"weakest link:   {min(m.adjacency[i, j] for i, j in s.topology):.2f} bit/s")
print(f"min cut keeps {sorted(cut.source_side)} with the source")

# the exhaustive oracle agrees
brute = brute_force_min_cut(net)
print(f"exhaustive min cut: {brute.value:.2f} bit/s across "
      f"{sorted(brute.source_side)}")

# give the chain a shortcut around its bottleneck and watch the flow grow
a = m.adjacency.copy()
bottleneck = min(s.topology, key=lambda e: a[e])
i, j = bottleneck
lo = max(0, i - 1)
hi = min(s.n_primary - 1, j + 1)
a[lo, hi] = a[hi, lo] = a[i, j]  # parallel detour with the same capacity
more, _ = max_flow(from_adjacency(a, s.source, s.destination))
print()
print(f"bottleneck edge {i}-{j} bypassed by a {lo}-{hi} detour:")
print(f"  flow {value:.2f} -> {more:.2f} bit/s")

# conservation audit of the flow assignment on the modified network
_, assignment = max_flow(from_adjacency(a, s.source, s.destination))
divergence = assignment.sum(axis=1) - assignment.sum(axis=0)
print()
print("per-node net outflow (source +, sink -, relays 0):")
print("  " + np.array2string(divergence, precision=2, suppress_small=True))
