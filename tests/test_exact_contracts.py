"""Exact closed forms the solver and the flow scoring rely on.

Every link rate is non-decreasing in every primary power, so the max-min
rate is the bottleneck edge rate with all transmitters at their caps; and on
a chain the max s-d flow is the smallest edge rate.  Both are compared with
``==``: the program computes them along these very paths, so any difference
means one of them changed.
"""

import numpy as np
import pytest

from aerolink.channel import build_state, edge_rate
from aerolink.optimizer import OptimizerConfig, run
from aerolink.power import power_caps, solve_maxmin

from conftest import make_line_scenario

THRESHOLDS_DBM = (-90.0, -70.0, -50.0, -30.0, -10.0)


def _min_edge_rate(scenario):
    state = build_state(scenario)
    return min(edge_rate(i, j, state) for i, j in scenario.topology)


@pytest.mark.parametrize("p_max_dbm", [20.0, 40.0, 70.0])
def test_eta_equals_the_bottleneck_rate_at_caps_exactly(p_max_dbm):
    rng = np.random.default_rng(300 + int(p_max_dbm))
    for _ in range(4):
        base = make_line_scenario(rng, p_max_dbm=p_max_dbm)
        for threshold in THRESHOLDS_DBM:
            s = base.with_i_max_dbm(threshold)
            state = build_state(s)
            sol = solve_maxmin(state)
            assert sol.feasible
            assert sol.eta == _min_edge_rate(s.with_node_powers(power_caps(state)))


@pytest.mark.parametrize("p_max_dbm", [20.0, 70.0])
def test_chain_flow_equals_the_smallest_edge_rate_exactly(p_max_dbm):
    rng = np.random.default_rng(310 + int(p_max_dbm))
    config = OptimizerConfig(epsilon=1e-12, max_iterations=3)
    for threshold in THRESHOLDS_DBM:
        s = make_line_scenario(rng, p_max_dbm=p_max_dbm).with_i_max_dbm(threshold)
        for rec in run(s, config).records:
            at = s.with_uav_positions(rec.uav_positions).with_node_powers(rec.powers_w)
            assert rec.flow_bits_per_s == _min_edge_rate(at)
