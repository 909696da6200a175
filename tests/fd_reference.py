"""Per-bump finite-difference gradient: the reference the stacked one must match.

This is the body ``aerolink.trajectory._fd_gradient`` had before it
evaluated every bump in one stacked pass, kept verbatim: each of the
2 * 3 * n_uavs bumped geometries is a fresh scenario and a fresh
``connectivity_bundle``, one at a time, in (UAV, axis, +h then -h) order.
"""

import numpy as np

from aerolink.channel import build_state
from aerolink.spectral import connectivity_bundle


def fd_gradient(scenario, fading, weights, mode, h):
    base = scenario.uav_positions
    grad = np.zeros_like(base)
    for uidx in range(base.shape[0]):
        for axis in range(3):
            bumped = base.copy()
            bumped[uidx, axis] += h
            hi = connectivity_bundle(build_state(scenario.with_uav_positions(bumped), fading),
                                     weights, mode).lambda2
            bumped[uidx, axis] -= 2.0 * h
            lo = connectivity_bundle(build_state(scenario.with_uav_positions(bumped), fading),
                                     weights, mode).lambda2
            grad[uidx, axis] = (hi - lo) / (2.0 * h)
    return grad
