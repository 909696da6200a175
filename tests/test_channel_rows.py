"""A stacked state recomputes only the rows of the nodes each geometry moves,
and every table still equals that of a state built for the geometry alone."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aerolink.trajectory as tj
from aerolink import channel as ch
from aerolink.scenario import ChannelParams, build_default_scenario, partition
from aerolink.spectral import LaplacianMode
from conftest import make_line_scenario
from test_channel_arrays import _same_bits, deployments

TABLES = ("dist", "gain_sq", "interference_w", "safety_u", "sir_denominators")


def _assert_every_geometry_matches(s, fading, stack):
    stacked = ch.ChannelState(s, fading, stack)
    for g in np.ndindex(stack.shape[:-2]):
        alone = ch.build_state(dataclasses.replace(s, positions=stack[g]), fading)
        for table in TABLES:
            assert _same_bits(getattr(stacked, table)[g], getattr(alone, table)), (table, g)


def _fd_stack(s, h):
    # the stack ``_fd_gradients`` evaluates: one UAV coordinate bumped per geometry
    n_uavs = s.n_uavs
    stack = np.tile(s.positions, (n_uavs, 3, 2, 1, 1))
    uav, axis = np.arange(n_uavs)[:, None], np.arange(3)[None, :]
    node = np.array(s.uav_indices)[:, None]
    hi = s.uav_positions + h
    stack[uav, axis, 0, node, axis] = hi
    stack[uav, axis, 1, node, axis] = hi - 2.0 * h
    return stack


@pytest.mark.parametrize("fading_kind", ["unit", "rayleigh"])
@pytest.mark.parametrize("ue_aerial", [False, True])
def test_fd_shaped_stacks_match_states_built_alone(fading_kind, ue_aerial):
    rng = np.random.default_rng(70)
    for k in range(8):
        # chi 0 and 1, with and without sources, half of them unjittered
        s = make_line_scenario(rng, chi=float(k % 2), n_si=0 if k % 4 < 2 else None,
                               ue_aerial=ue_aerial, jitter=k % 2 == 0)
        fading = ch.FadingModel(fading_kind, k)
        _assert_every_geometry_matches(s, fading, _fd_stack(s, [1.0e-3, 0.25][k % 2]))


@pytest.mark.parametrize("fading_kind", ["unit", "rayleigh"])
def test_moved_terminals_sources_and_unmoved_geometries(fading_kind):
    rng = np.random.default_rng(71)
    for k in range(8):
        s = make_line_scenario(rng, chi=float(k % 2), n_si=0 if k % 4 == 1 else None,
                               ue_aerial=k % 4 == 2, jitter=k % 3 != 0)
        fading = ch.FadingModel(fading_kind, k)
        base = s.positions
        shift = rng.uniform(-3.0, 3.0, size=3)
        geometries = [base.copy() for _ in range(7)]
        geometries[1][s.destination] += shift                       # the UE
        geometries[2][s.source] += shift                            # the base station
        geometries[3][-1] += shift                                  # a source (or the UE)
        geometries[4][[s.source, s.uav_indices[0], s.destination]] += shift
        geometries[5] += rng.uniform(-3.0, 3.0, size=base.shape)    # every node
        # -0.0 for +0.0 is no move: the distances square it away
        geometries[6][base == 0.0] = -0.0
        stack = np.stack(geometries)                                # [0]: the base itself
        _assert_every_geometry_matches(s, fading, stack)
        _assert_every_geometry_matches(s, fading, stack[4])        # one unstacked geometry


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deployments(), st.data())
def test_random_moves_match_states_built_alone(case, data):
    s, fading = case
    # 25 m slots with 10 m jitter: moves under 2.5 m keep every pair apart
    moves = data.draw(st.lists(st.lists(st.booleans(), min_size=s.n_total, max_size=s.n_total),
                               min_size=1, max_size=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    stack = s.positions + (rng.uniform(-2.5, 2.5, size=(len(moves),) + s.positions.shape)
                           * np.array(moves)[..., None])
    _assert_every_geometry_matches(s, fading, stack)


def test_link_tables_are_cached_per_layout_channel_and_fading():
    # scenarios that differ only in one of these get tables of their own,
    # whichever was built first
    s = make_line_scenario(np.random.default_rng(72), n_uavs=4, chi=1.0)
    variants = [
        (s, ch.FadingModel.rayleigh(3)),
        (dataclasses.replace(s, ue_aerial=True), ch.FadingModel.rayleigh(3)),
        (dataclasses.replace(s, channel=ChannelParams(alpha_a2a=2.4)),
         ch.FadingModel.rayleigh(3)),
        (s, ch.FadingModel.rayleigh(4)),
    ]
    warm = [ch.build_state(v, fading) for v, fading in variants]
    for (v, fading), state in zip(variants, warm):
        ch._link_layout.cache_clear()
        fresh = ch.build_state(v, fading)
        for table in ("alpha", "a2a") + TABLES:
            assert _same_bits(getattr(state, table), getattr(fresh, table)), table
        aerial = np.array([i in partition(v).aerial for i in range(v.n_total)])
        assert np.array_equal(state.a2a, aerial[:, None] & aerial[None, :])
        # the cached tables are shared between states, so nobody may write them
        assert not state.alpha.flags.writeable and not state.a2a.flags.writeable
    for i, a in enumerate(warm):
        for b in warm[i + 1:]:
            assert not np.array_equal(a.gain_sq, b.gain_sq)


def test_the_fd_stack_computes_proximity_rows_only(monkeypatch):
    # one full table for the base geometry, then one row per bump: each of
    # the 48 bumps of the default scenario moves one primary node
    s = build_default_scenario(7)
    n = s.n_primary
    sizes = []
    step = ch.smoothed_step

    def recording(y, safety):
        sizes.append(np.size(y))
        return step(y, safety)

    monkeypatch.setattr(ch, "smoothed_step", recording)
    # the base state is built under the patch, so its full table counts too
    tj._fd_gradients(ch.build_state(s), s.weights, LaplacianMode.COMBINATORIAL_WEIGHTED,
                     1.0e-3)
    n_bumps = 2 * 3 * s.n_uavs
    assert n_bumps == 48
    assert 0 < sum(sizes) <= n * n + n_bumps * n


GRADIENT_TABLES = ("si_interference_grad", "safety_sum_gradients")


def _assert_override_matches_a_moved_scenario(s, fading, positions):
    # a state over positions must build its gradient tables from those
    # positions, not from the scenario it takes its layout from
    moved = dataclasses.replace(s, positions=positions)
    over = ch.ChannelState(s, fading, positions)
    alone = ch.build_state(moved, fading)
    for table in TABLES + GRADIENT_TABLES:
        assert _same_bits(getattr(over, table), getattr(alone, table)), table
    assert _same_bits(ch.sir_jacobian(over), ch.sir_jacobian(alone))
    assert _same_bits(ch.rate_jacobian(over), ch.rate_jacobian(alone))


def test_a_state_over_moved_uavs_has_the_gradient_tables_of_the_moved_scenario():
    s = build_default_scenario(7)
    moved = s.with_uav_positions(s.uav_positions + np.array([3.0, -2.0, 1.5]))
    _assert_override_matches_a_moved_scenario(s, ch.FadingModel.unit_gain(), moved.positions)
    # the parent scenario's own tables differ: the check can tell them apart
    own = ch.rate_jacobian(ch.build_state(s))
    assert not np.array_equal(own, ch.rate_jacobian(ch.build_state(moved)))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deployments(), st.data())
def test_a_state_over_any_moved_geometry_has_its_gradient_tables(case, data):
    s, fading = case
    # 25 m slots with 10 m jitter: moves under 2.5 m keep every pair apart
    move = np.array(data.draw(st.lists(st.booleans(), min_size=s.n_total,
                                       max_size=s.n_total)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    positions = s.positions + rng.uniform(-2.5, 2.5, size=s.positions.shape) * move[:, None]
    _assert_override_matches_a_moved_scenario(s, fading, positions)
