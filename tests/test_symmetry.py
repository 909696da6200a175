"""Runs that must not change under a relabelling of the same deployment.

Reversing every edge of the chain, (p, q) -> (q, p), names the same
undirected links; swapping x and y for every node mirrors the whole
deployment in the line x = y, and negating y mirrors it in the plane y = 0.
None changes a distance, a rate or a lambda2, so a run must give the same
flows, bit for bit, and the same UAV positions (mirrored back where the
transform mirrored them).  A swap also swaps the axes a mask moves: the
swapped run under mask yz is the original under mask xz.
"""

import dataclasses

import numpy as np
import pytest

from aerolink.channel import FadingModel
from aerolink.optimizer import OptimizerConfig, run
from aerolink.scenario import build_default_scenario
from aerolink.spectral import LaplacianMode
from aerolink.trajectory import AxisMask, GradientMode, TrajectoryConfig

_SWAP = [1, 0, 2]
_MIRROR_Y = np.array([1.0, -1.0, 1.0])

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


def _assert_same_run(got, want, axes=(0, 1, 2), signs=1.0):
    assert got.termination is want.termination
    assert len(got.records) == len(want.records)
    assert np.array_equal(_words(got.flows), _words(want.flows))
    for a, b in zip(got.records, want.records):
        assert np.array_equal(_words(a.uav_positions[:, axes] * signs), _words(b.uav_positions))


def _masked(config, mask):
    return dataclasses.replace(config, trajectory=dataclasses.replace(config.trajectory,
                                                                      mask=mask))


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


@pytest.mark.parametrize("name", list(_RUNS))
@pytest.mark.parametrize("seed", [7, 23])
def test_a_swapped_run_under_mask_yz_is_the_run_under_mask_xz(seed, name):
    s = build_default_scenario(seed)
    swapped = dataclasses.replace(s, positions=s.positions[:, _SWAP])
    _assert_same_run(run(swapped, _masked(_RUNS[name], AxisMask.YZ)),
                     run(s, _masked(_RUNS[name], AxisMask.XZ)), axes=_SWAP)


@pytest.mark.parametrize("name", ["analytic", "rayleigh", "normalized"])
@pytest.mark.parametrize("seed", [7, 23])
def test_a_run_is_the_same_with_y_mirrored(seed, name):
    # not the finite-difference run: its -h bump is hi - 2h with hi = p + h,
    # so a mirrored coordinate is bumped at other offsets, and its flows
    # differ in the last digits
    s = build_default_scenario(seed)
    mirrored = dataclasses.replace(s, positions=s.positions * _MIRROR_Y)
    _assert_same_run(run(mirrored, _RUNS[name]), run(s, _RUNS[name]), signs=_MIRROR_Y)
