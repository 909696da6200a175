"""The array channel core against the per-pair scalar reference, bit for bit."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import channel_reference as ref
from aerolink import channel as ch
from aerolink import scenario as sc
from aerolink.spectral import build_matrices, connectivity_bundle
from aerolink.trajectory import _analytic_gradient
from conftest import make_line_scenario


def _same_bits(a, b):
    """Equal to the bit: np.array_equal that also tells -0.0 from +0.0."""
    a, b = np.ascontiguousarray(a, dtype=float), np.ascontiguousarray(b, dtype=float)
    return np.array_equal(a, b) and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _link_index(s, i, j):
    """The index of directed link i -> j in ``ch._links`` order."""
    transmitters, receivers = ch._links(s.topology)
    return int(np.flatnonzero((transmitters == i) & (receivers == j))[0])


def _assert_links_match_reference(s, state):
    """The tables a single-geometry state keeps per directed link, and the
    SIRs and their derivatives over them, entry by entry against the
    reference; ``s`` carries the state's positions and powers."""
    links = list(zip(*(k.tolist() for k in ch._links(s.topology))))
    assert _same_bits(state.link_denominators,
                      [ref.sir_denominator(state, i, j) for i, j in links])
    assert _same_bits(ch._link_sirs(state), [ref.sir(i, j, s, state=state) for i, j in links])
    assert _same_bits(state.link_sum_gradients,
                      [[ref.safety_sum_gradient(state, i, j, axis) for axis in range(3)]
                       for i, j in links])
    assert _same_bits(ch._link_jacobian(state),
                      [[[ref.sir_spatial_gradient(i, j, (t, axis), s, state=state)
                         for axis in range(3)] for t in s.uav_indices] for i, j in links])


def _assert_core_matches_reference(s, state):
    _assert_links_match_reference(s, state)
    assert _same_bits(ch.edge_rates(state), ref.edge_rate_table(s, state))
    assert _same_bits(ch.rate_jacobian(state), ref.rate_gradient_table(s, state))
    for i in range(s.n_primary):
        for j in range(s.n_primary):
            if i != j:
                assert _same_bits(ch.sir(i, j, state), ref.sir(i, j, s, state=state)), (i, j)


@pytest.mark.parametrize("chi", [0.0, 1.0])
@pytest.mark.parametrize("fading_kind", ["unit", "rayleigh"])
def test_array_core_is_bit_identical_on_random_chains(chi, fading_kind):
    rng = np.random.default_rng(31)
    for seed in range(8):
        # unjittered chains sit on y = 0, where many derivative terms are signed zeros
        s = make_line_scenario(rng, chi=chi, jitter=seed % 2 == 0)
        fading = ch.FadingModel(fading_kind, seed)
        state = ch.build_state(s, fading)
        _assert_core_matches_reference(s, state)
        bundle = connectivity_bundle(state)
        assert _same_bits(_analytic_gradient(bundle, state),
                          ref.analytic_gradient(s, bundle, state))


def test_proximity_sum_gradients_are_bit_identical():
    rng = np.random.default_rng(32)
    for _ in range(6):
        s = make_line_scenario(rng, chi=1.0)
        state = ch.build_state(s)
        expected = [[ref.safety_sum_gradient(state, i, j, axis) for axis in range(3)]
                    for i, j in zip(*ch._links(s.topology))]
        assert _same_bits(state.link_sum_gradients, expected)


def test_rates_use_the_passed_scenario_powers():
    # a state at powers other than its scenario's evaluates at them: only
    # the denominators are tables, and they do not depend on primary powers
    s = make_line_scenario(np.random.default_rng(33), chi=1.0)
    halved = s.with_node_powers(s.node_powers_w * np.linspace(0.2, 0.9, s.n_primary))
    state = ch.ChannelState(s, ch.FadingModel.unit_gain(), powers=halved.node_powers_w)
    assert _same_bits(ch.edge_rates(state), ref.edge_rate_table(halved, state))
    adjacency = build_matrices(state).adjacency
    for (p, q), rate in zip(halved.topology, ref.edge_rate_table(halved, state)):
        assert adjacency[p, q] == adjacency[q, p] == rate


def _split_pairs_scenario():
    # two tight pairs 1 km apart, no sources: a receiver's proximity sum is
    # fully decayed exactly when its only near neighbour is the transmitter
    s = make_line_scenario(np.random.default_rng(34), n_uavs=2, n_si=0, chi=1.0,
                           jitter=False)
    pos = np.array([[0.0, 0.0, 15.0], [3.0, 0.0, 30.0],
                    [1000.0, 0.0, 30.0], [1003.0, 0.0, 25.0]])
    return dataclasses.replace(s, positions=pos)


def test_scalar_lookups_raise_only_for_the_pair_asked_about():
    s = _split_pairs_scenario()
    state = ch.build_state(s)
    dead, healthy = _link_index(s, 0, 1), _link_index(s, 1, 2)
    assert state.link_denominators[dead] == 0.0 and state.link_denominators[healthy] > 0.0
    for fn in (ch.edge_rates, ch.rate_jacobian):
        with pytest.raises(ValueError, match="zero SIR denominator"):
            fn(state)
    assert ch.sir(1, 2, state) == ref.sir(1, 2, s, state=state)
    assert ch.edge_rate(1, 2, state) == ref.edge_rate(1, 2, s, state=state)
    # the unchecked derivative table still has the healthy link's entries
    jac = ch._link_jacobian(state)[_link_index(s, 2, 1)]
    for t, axis in ((1, 0), (2, 2)):
        assert (jac[s.uav_indices.index(t), axis]
                == ref.sir_spatial_gradient(2, 1, (t, axis), s, state=state))


def _same_error(fn_new, fn_ref, *args, **kwargs):
    with pytest.raises(ValueError) as new:
        fn_new(*args, **kwargs)
    with pytest.raises(ValueError) as old:
        fn_ref(*args, **kwargs)
    assert str(new.value) == str(old.value)
    return str(new.value)


def _same_lookup_error(name, i, j, s, state):
    """``_same_error`` of the library's lookup ``name`` of pair (i, j) and
    the reference's, which reads the powers from ``s``."""
    return _same_error(lambda: getattr(ch, name)(i, j, state),
                       lambda: getattr(ref, name)(i, j, s, state=state))


def test_a_dead_reverse_direction_fails_the_edge():
    # the base station sits 1 km from a tight triple: 1 -> 0 has no proximity
    # term left at the receiver, while 0 -> 1 does
    s = make_line_scenario(np.random.default_rng(36), n_uavs=2, n_si=0, chi=1.0,
                           jitter=False)
    pos = np.array([[0.0, 0.0, 15.0], [1000.0, 0.0, 30.0],
                    [1003.0, 0.0, 30.0], [1006.0, 0.0, 25.0]])
    s = dataclasses.replace(s, positions=pos)
    state = ch.build_state(s)
    assert ch.sir(0, 1, state) == ref.sir(0, 1, s, state=state)
    _same_lookup_error("sir", 1, 0, s, state)
    _same_lookup_error("edge_rate", 0, 1, s, state)
    for fn in (ch.edge_rates, ch.rate_jacobian):
        with pytest.raises(ValueError, match="zero SIR denominator"):
            fn(state)
    assert ch.edge_rate(1, 2, state) == ref.edge_rate(1, 2, s, state=state)


def test_scalar_lookups_keep_their_error_messages():
    s = _split_pairs_scenario()
    state = ch.build_state(s)
    for i, j in ((0, 1), (1, 1), (0, s.n_primary)):
        _same_lookup_error("sir", i, j, s, state)
    _same_lookup_error("edge_rate", 0, 2, s, state)
    _same_lookup_error("edge_rate", 0, 1, s, state)


# -- property tests ------------------------------------------------------------


@st.composite
def deployments(draw):
    """Jittered positions, random powers, chi and proximity radius, any
    connected topology over the primary nodes (chains are the rare case)."""
    n_uavs = draw(st.integers(1, 5))
    chi = draw(st.sampled_from([0.0, 0.5, 1.0, 4.0]))
    n_si = draw(st.integers(1 if chi == 0.0 else 0, 4))
    n = n_uavs + 2
    jitter = st.floats(-10.0, 10.0, allow_nan=False)
    # 25 m slots keep every pair of nodes at least 5 m apart
    primary = [[25.0 * k + draw(jitter), draw(jitter), 30.0 + draw(jitter)]
               for k in range(n)]
    sources = [[25.0 * m + 12.5 + draw(jitter), 60.0 + draw(jitter), 20.0]
               for m in range(n_si)]
    edges = {(draw(st.integers(0, k - 1)), k) for k in range(1, n)}
    for _ in range(draw(st.integers(0, n))):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                    unique=True)))
        edges.add((i, j))
    power = st.floats(1.0e-4, 1.0, allow_nan=False)
    s = sc.Scenario(
        classes=((sc.NodeClass.BASE_STATION,) + (sc.NodeClass.RELAY_UAV,) * n_uavs
                 + (sc.NodeClass.USER_EQUIPMENT,)
                 + (sc.NodeClass.INTERFERENCE_SOURCE,) * n_si),
        positions=np.array(primary + sources).reshape(-1, 3),
        node_powers_w=np.array([draw(power) for _ in range(n)]),
        si_powers_w=np.array([draw(power) for _ in range(n_si)]),
        p_max_w=1.0,
        i_max_w=np.full(n_si, 1.0e-6),
        channel=sc.ChannelParams(),
        safety=sc.SafetyParams(chi=chi, r_int_m=draw(st.sampled_from([5.0, 20.0, 60.0]))),
        weights=np.ones(n),
        topology=tuple(e[::-1] if draw(st.booleans()) else e
                       for e in draw(st.permutations(sorted(edges)))),
    )
    kind = draw(st.sampled_from(["unit", "rayleigh"]))
    return s, ch.FadingModel(kind, draw(st.integers(0, 10_000)))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deployments())
def test_array_core_matches_the_scalar_reference(case):
    s, fading = case
    state = ch.build_state(s, fading)
    _assert_core_matches_reference(s, state)
    for p, q in s.topology[:2]:
        assert ch.edge_rate(q, p, state) == ref.edge_rate(q, p, s, state=state)


@settings(max_examples=30, deadline=None)
@given(spacing=st.floats(375.0, 3000.0), n_uavs=st.integers(1, 4),
       edge=st.integers(0, 4), data=st.data())
def test_decayed_proximity_only_geometry_raises_the_same_error(spacing, n_uavs, edge, data):
    # past ~375 m with r_int 5 m every proximity term is denormal or zero
    s = make_line_scenario(np.random.default_rng(35), n_uavs=n_uavs, n_si=0, chi=1.0,
                           jitter=False)
    n = s.n_primary
    pos = np.column_stack([spacing * np.arange(n), np.zeros(n), np.full(n, 30.0)])
    s = dataclasses.replace(s, positions=pos)
    state = ch.build_state(s)
    p, q = s.topology[edge % len(s.topology)]
    t = data.draw(st.sampled_from(s.uav_indices))
    message = _same_lookup_error("sir", p, q, s, state)
    assert message.startswith("zero SIR denominator")
    _same_lookup_error("edge_rate", p, q, s, state)
    # the derivative table is unchecked: where the reference rejects an
    # exactly zero denominator its entry is not finite, and a denormal one
    # overflows to inf or nan in both paths
    link = _link_index(s, q, p)
    entry = ch._link_jacobian(state)[link, s.uav_indices.index(t), 1]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            expected = ref.sir_spatial_gradient(q, p, (t, 1), s, state=state)
    except ValueError:
        assert state.link_denominators[link] == 0.0 and not np.isfinite(entry)
    else:
        assert np.array_equal(entry, expected, equal_nan=True)
    for fn in (ch.edge_rates, ch.rate_jacobian):
        with pytest.raises(ValueError) as exc:
            fn(state)
        assert str(exc.value) == message
