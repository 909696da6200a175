"""
Max-min fair powers under interference protection
=================================================

Every transmitter must keep the power it lands on every fixed source below
that source's threshold, which caps its transmit power.  The max-min solve
pushes everyone to their cap; the common achievable rate is the bottleneck
edge rate there.  This script tightens the threshold and watches caps,
bottleneck rate, and margins respond.
"""

import numpy as np

from aerolink import (build_default_scenario, build_state, power_caps, solve_maxmin,
                      verify_interference, watts_to_dbm)

s = build_default_scenario()  # thresholds at -30 dBm: generous

for threshold_dbm in (-30.0, -50.0, -60.0):
    t = s.with_i_max_dbm(threshold_dbm)
    st = build_state(t)
    caps = power_caps(st)
    sol = solve_maxmin(st)
    report = verify_interference(st, sol.powers_w)
    bound = [kind.value for kind, _ in sol.binding]
    n_capped = sum(1 for b in bound if b == "interference-cap")
    print(f"threshold {threshold_dbm:6.1f} dBm: "
          f"{n_capped}/{t.n_primary} nodes capped below budget, "
          f"eta = {sol.eta:9.2f} bit/s, "
          f"margins ok = {report.passed}")
    row = ", ".join(f"{watts_to_dbm(c):6.2f}" for c in caps)
    print(f"  caps (dBm): {row}")

# at full budget the tight thresholds would be violated
tight = build_state(s.with_i_max_dbm(-60.0))
full = verify_interference(tight, np.full(s.n_primary, s.p_max_w))
print()
print(f"running everyone at the full budget under -60 dBm thresholds: "
      f"passed = {full.passed}, worst margin = {full.min_margin_w:.2e} W")

# the solution sits exactly on the tightest constraint
sol = solve_maxmin(tight)
at_solution = verify_interference(tight, sol.powers_w)
print(f"at the solved powers:                                   "
      f"passed = {at_solution.passed}, worst margin = "
      f"{at_solution.min_margin_w:.2e} W")
