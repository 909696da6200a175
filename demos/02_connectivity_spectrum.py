"""
Connectivity spectra: weighted Laplacians, Fiedler pairs, Cheeger cuts
======================================================================

The chain's robustness is the second-smallest eigenvalue (lambda2) of a
node-weighted Laplacian over the link rates.  This script prints the
spectrum in both weighting modes, shows where the Fiedler vector says the
chain is weakest, and brackets the cheapest cut with the Cheeger bounds.
"""

import numpy as np

from aerolink import (LaplacianMode, build_default_scenario, build_matrices,
                      build_state, cheeger_bruteforce, connectivity_bundle, eig_sym,
                      weighted_laplacian)

s = build_default_scenario()
st = build_state(s)
m = build_matrices(st)

print("rate-weighted adjacency (kbit/s), chain edges only:")
for i, j in s.topology:
    print(f"  {i}-{j}: {m.adjacency[i, j] / 1e3:8.3f}")

# node weights downplay the relays: endpoints weigh 1, relays 0.01
print()
print("node weights:", np.array2string(s.weights, precision=2))

for mode in LaplacianMode:
    lw = weighted_laplacian(m, s.weights, mode)
    vals, _ = eig_sym(lw)
    print()
    print(f"{mode.value} spectrum (first five):")
    print("  " + np.array2string(vals[:5], precision=4))

# the Fiedler vector changes sign where the graph tears apart most easily
b = connectivity_bundle(st)
print()
print(f"lambda2 = {b.lambda2:.4f}, spectral gap = {b.spectral_gap:.4f}, "
      f"degenerate = {b.degenerate}")
signs = "".join("+" if v >= 0 else "-" for v in b.fiedler)
print(f"Fiedler sign pattern along the chain: {signs}")

# exhaustive weighted Cheeger constant, bracketed by the spectral bounds
rep = cheeger_bruteforce(m, weights=s.weights)
print()
print(f"cheapest cut leaves {sorted(rep.argmin_side)} on the source side")
print(f"lower bound lambda2/2        = {rep.lower_bound:12.4f}")
print(f"Cheeger constant             = {rep.constant:12.4f}")
print(f"upper bound (degree-scaled)  = {rep.upper_bound:12.4f}")
