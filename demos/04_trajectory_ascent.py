"""
Moving the relays: gradient ascent on algebraic connectivity
============================================================

Each trajectory step pushes every UAV along the gradient of lambda2, with
per-step clipping, altitude flooring, optional axis masking, and a
backtracking line search that never accepts a decrease.  This script takes
twenty steps and prints the climb, then repeats it with the z axis frozen.
"""

import numpy as np

from aerolink import (AxisMask, TrajectoryConfig, build_default_scenario, build_state,
                      connectivity_bundle, lambda2_gradient, step)

s0 = build_default_scenario()


def climb(scenario, config, steps=20):
    out = []
    for _ in range(steps):
        state = build_state(scenario)
        bundle = connectivity_bundle(state)
        res = step(state, bundle, lambda2_gradient(state, bundle), config)
        scenario = scenario.with_uav_positions(res.positions)
        out.append(res)
    return scenario, out


print("free 3D ascent:")
s, trace = climb(s0, TrajectoryConfig())
for k, r in enumerate(trace):
    if k % 5 == 0 or k == len(trace) - 1:
        print(f"  step {k:>2}: lambda2 {r.lambda2_before:9.3f} -> "
              f"{r.lambda2_after:9.3f}  (halvings {r.halvings})")

moved = np.linalg.norm(s.uav_positions - s0.uav_positions, axis=1)
print("per-UAV displacement after 20 steps (m):")
print("  " + np.array2string(moved, precision=2))

# altitude frozen: the ascent must make do in the horizontal plane
print()
print("same ascent with the xy mask (altitudes untouched):")
s_xy, trace_xy = climb(s0, TrajectoryConfig(mask=AxisMask.XY))
print(f"  lambda2 {trace_xy[0].lambda2_before:9.3f} -> "
      f"{trace_xy[-1].lambda2_after:9.3f}")
print(f"  altitudes unchanged: "
      f"{bool(np.array_equal(s_xy.uav_positions[:, 2], s0.uav_positions[:, 2]))}")

# the two gradient modes agree where the analytic form is exact
from aerolink import GradientMode

st0 = build_state(s0)
b0 = connectivity_bundle(st0)
g_a = lambda2_gradient(st0, b0, GradientMode.ANALYTIC)
g_f = lambda2_gradient(st0, b0, GradientMode.FINITE_DIFFERENCE)
gap = np.abs(g_a.d_lambda2 - g_f.d_lambda2).max()
scale = np.abs(g_a.d_lambda2).max()
print()
print(f"analytic vs finite-difference gradient: max |diff| = {gap:.2e} "
      f"at field scale {scale:.2e}")
