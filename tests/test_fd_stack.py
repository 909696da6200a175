"""The stacked finite-difference gradient against the per-bump loop, bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aerolink.trajectory as tj
import fd_reference as ref
from aerolink import channel as ch
from aerolink.spectral import (LaplacianMode, build_matrices, connectivity_bundle, eig_sym,
                               lambda2_stack, weighted_laplacian)
from conftest import make_line_scenario
from test_channel_arrays import _same_bits, _same_error, deployments


def _stacked_gradient(s, fading, weights, mode, h):
    """The stacked gradient at the scenario's own geometry, with the
    reference's arguments."""
    return tj._fd_gradients(ch.build_state(s, fading), weights, mode, h)


@pytest.mark.parametrize("mode", list(LaplacianMode))
@pytest.mark.parametrize("fading_kind", ["unit", "rayleigh"])
def test_stacked_gradient_is_bit_identical_on_random_chains(mode, fading_kind):
    rng = np.random.default_rng(61)
    for k in range(32):
        # chi 0 and 1, with and without sources, half of them unjittered
        s = make_line_scenario(rng, chi=float(k % 2), n_si=0 if k % 4 < 2 else None,
                               jitter=k % 3 != 0)
        fading = ch.FadingModel(fading_kind, k)
        h = [1.0e-3, 0.25, 1.0e-6][k % 3]
        args = (s, fading, s.weights, mode, h)
        assert _same_bits(_stacked_gradient(*args), ref.fd_gradient(*args))


@pytest.mark.parametrize("fading_kind", ["unit", "rayleigh"])
def test_every_stacked_layer_equals_the_single_geometry_one(fading_kind):
    # the layers a stack passes through, geometry by geometry, signed zeros included
    # 8 or more proximity terms per receiver: long sums are where a strided
    # gather would be reduced in another order
    rng = np.random.default_rng(60)
    for k in range(12):
        s = make_line_scenario(rng, n_uavs=6 + k % 3, chi=float(k % 4 != 3),
                               n_si=0 if k % 2 else None, jitter=k % 5 != 0)
        fading = ch.FadingModel(fading_kind, k)
        stack = s.positions + rng.uniform(-2.0, 2.0, size=(2, 3) + s.positions.shape)
        stacked = ch.ChannelState(s, fading, stack)
        matrices = build_matrices(stacked)
        for g in np.ndindex(stack.shape[:-2]):
            alone = dataclasses.replace(s, positions=stack[g])
            state = ch.build_state(alone, fading)
            for table in ("dist", "gain_sq", "interference_w", "safety_u", "link_denominators"):
                assert _same_bits(getattr(stacked, table)[g], getattr(state, table)), table
            assert _same_bits(ch._link_sirs(stacked)[g], ch._link_sirs(state))
            assert _same_bits(ch.edge_rates(stacked)[g], ch.edge_rates(state))
            own = build_matrices(state)
            for field in ("adjacency", "degree", "laplacian"):
                assert _same_bits(getattr(matrices, field)[g], getattr(own, field)), field
            for mode in LaplacianMode:
                lw = weighted_laplacian(matrices, s.weights, mode)
                assert _same_bits(lw[g], weighted_laplacian(own, s.weights, mode))
                assert _same_bits(eig_sym(lw)[0][g], eig_sym(lw[g])[0])


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deployments(), st.sampled_from(list(LaplacianMode)),
       st.floats(1.0e-6, 0.5), st.data())
def test_stacked_gradient_matches_the_per_bump_loop(case, mode, h, data):
    s, fading = case
    weights = np.array([data.draw(st.floats(0.005, 2.0)) for _ in range(s.n_primary)])
    args = (s, fading, weights, mode, h)
    try:
        expected = ref.fd_gradient(*args)
    except ValueError:
        _same_error(_stacked_gradient, ref.fd_gradient, *args)
        return
    assert _same_bits(_stacked_gradient(*args), expected)


def test_a_bump_onto_another_node_raises_the_reference_error():
    # the second UAV's +x bump lands exactly on the third UAV; every bump
    # before it in (UAV, axis, +h then -h) order is a valid geometry
    s = make_line_scenario(np.random.default_rng(62), n_uavs=4, chi=1.0, jitter=False)
    pos = s.positions.copy()
    pos[3] = pos[2] + np.array([1.0, 0.0, 0.0])
    s = dataclasses.replace(s, positions=pos)
    connectivity_bundle(ch.build_state(s))
    args = (s, ch.FadingModel.unit_gain(), s.weights,
            LaplacianMode.COMBINATORIAL_WEIGHTED, 1.0)
    # the stack's state over positions refuses the bump; the reference's
    # bumped scenario refuses it when it is built
    with pytest.raises(ValueError) as stacked:
        _stacked_gradient(*args)
    assert str(stacked.value) == "two nodes share a position; link gain undefined"
    with pytest.raises(ValueError) as per_bump:
        ref.fd_gradient(*args)
    assert str(per_bump.value) == ("invalid scenario: two nodes share a position; "
                                   "links would be degenerate")


@pytest.mark.parametrize("mode", list(LaplacianMode))
def test_a_vanishing_sir_denominator_raises_the_reference_error(mode):
    # proximity only, 400 m apart: every proximity term is denormal or zero
    s = make_line_scenario(np.random.default_rng(63), n_uavs=3, n_si=0, chi=1.0,
                           jitter=False)
    n = s.n_primary
    pos = np.column_stack([400.0 * np.arange(n), np.zeros(n), np.full(n, 30.0)])
    s = dataclasses.replace(s, positions=pos)
    args = (s, ch.FadingModel.unit_gain(), s.weights, mode, 1.0e-3)
    assert _same_error(_stacked_gradient, ref.fd_gradient, *args).startswith("zero SIR denominator")


def test_a_failing_stack_raises_what_its_first_failing_geometry_raises():
    s = make_line_scenario(np.random.default_rng(64), n_uavs=3, n_si=0, chi=1.0)
    good = s.positions
    coincident = good.copy()
    coincident[2] = coincident[1]
    n = s.n_primary
    decayed = good.copy()
    decayed[:n] = np.column_stack([400.0 * np.arange(n), np.zeros(n), np.full(n, 30.0)])
    for order, message in (((good, decayed, coincident), "zero SIR denominator"),
                           ((good, coincident, decayed), "two nodes share a position")):
        with pytest.raises(ValueError, match=message):
            lambda2_stack(ch.build_state(s), np.stack(order))
    lam = lambda2_stack(ch.build_state(s), np.stack([good, good]))
    assert lam[0] == lam[1] == connectivity_bundle(ch.build_state(s)).lambda2
