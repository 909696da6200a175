"""Runs that must not change under a relabelling of the same deployment.

Reversing every edge of the chain, (p, q) -> (q, p), names the same
undirected links; swapping x and y for every node mirrors the whole
deployment in the line x = y.  Neither changes a distance, a rate or a
lambda2, so a run must give the same flows, bit for bit, and the same UAV
positions (mirrored back where the transform mirrored them).
"""

import dataclasses

import numpy as np
import pytest

from aerolink.channel import FadingModel
from aerolink.optimizer import OptimizerConfig, run
from aerolink.scenario import build_default_scenario
from aerolink.spectral import LaplacianMode
from aerolink.trajectory import GradientMode, TrajectoryConfig

_SWAP = [1, 0, 2]

# the runs each transform is checked on: gradient mode, fading, Laplacian
# mode; a tiny epsilon, so each takes all its iterations unless it stalls
_RUNS = {
    "analytic": OptimizerConfig(epsilon=1.0e-12, max_iterations=100),
    "finite-difference": OptimizerConfig(
        epsilon=1.0e-12, max_iterations=40,
        trajectory=TrajectoryConfig(gradient_mode=GradientMode.FINITE_DIFFERENCE)),
    "rayleigh": OptimizerConfig(epsilon=1.0e-12, max_iterations=100,
                                fading=FadingModel.rayleigh(3)),
    "normalized": OptimizerConfig(epsilon=1.0e-12, max_iterations=40,
                                  laplacian_mode=LaplacianMode.NORMALIZED_WEIGHTED),
}


def _words(values):
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


def _assert_same_run(got, want, axes=(0, 1, 2)):
    assert got.termination is want.termination
    assert len(got.records) == len(want.records)
    assert np.array_equal(_words(got.flows), _words(want.flows))
    for a, b in zip(got.records, want.records):
        assert np.array_equal(_words(a.uav_positions[:, axes]), _words(b.uav_positions))


@pytest.mark.parametrize("name", list(_RUNS))
@pytest.mark.parametrize("seed", [7, 23])
def test_a_run_is_the_same_with_every_edge_reversed(seed, name):
    s = build_default_scenario(seed)
    reversed_edges = dataclasses.replace(s, topology=tuple((q, p) for p, q in s.topology))
    _assert_same_run(run(reversed_edges, _RUNS[name]), run(s, _RUNS[name]))


@pytest.mark.parametrize("name", list(_RUNS))
@pytest.mark.parametrize("seed", [7, 23])
def test_a_run_is_the_same_with_x_and_y_swapped(seed, name):
    s = build_default_scenario(seed)
    mirrored = dataclasses.replace(s, positions=s.positions[:, _SWAP])
    _assert_same_run(run(mirrored, _RUNS[name]), run(s, _RUNS[name]), axes=_SWAP)
