"""Link budget, proximity step, SIR, rates, and gradient fidelity."""

import dataclasses
import math
import re

import numpy as np
import pytest

from aerolink import channel as ch
from aerolink import scenario as sc
from conftest import make_line_scenario
from test_channel_arrays import _link_index


def _free_space_db(carrier_hz=2.0e9):
    return 10.0 * math.log10((4.0 * math.pi * carrier_hz / 3.0e8) ** 2)


# -- path loss -----------------------------------------------------------


def test_path_loss_unit_distance_is_offset():
    params = sc.ChannelParams(eta_a2a_db=40.0, eta_a2g_db=47.0)
    assert ch.path_loss_db(True, 1.0, params) == pytest.approx(40.0, abs=1e-12)
    assert ch.path_loss_db(False, 1.0, params) == pytest.approx(47.0, abs=1e-12)


def test_path_loss_free_space_default():
    params = sc.ChannelParams()
    assert ch.path_loss_db(True, 1.0, params) == pytest.approx(_free_space_db(), rel=1e-12)
    assert ch.path_loss_db(True, 1.0, params) == pytest.approx(38.4620, abs=5e-4)


def test_path_loss_alpha_two_adds_20db_per_decade():
    params = sc.ChannelParams(alpha_a2a=2.0)
    base = ch.path_loss_db(True, 1.0, params)
    assert ch.path_loss_db(True, 10.0, params) == pytest.approx(base + 20.0, abs=1e-9)


def test_path_loss_zero_distance_rejected():
    with pytest.raises(ValueError):
        ch.path_loss_db(True, 0.0, sc.ChannelParams())


# -- link gain ------------------------------------------------------------


def test_link_gain_reference_distance():
    s = make_line_scenario(np.random.default_rng(0), n_uavs=2, n_si=1, chi=1.0,
                           jitter=False)
    # put uav1 exactly 1 m from uav2 along x
    pos = s.positions.copy()
    pos[2] = pos[1] + np.array([1.0, 0.0, 0.0])
    s = dataclasses.replace(s, positions=pos)
    lg = ch.link_gain(1, 2, ch.build_state(s))
    assert lg.a2a
    assert lg.distance_m == pytest.approx(1.0, abs=1e-12)
    assert lg.gain_sq == pytest.approx(10.0 ** (-_free_space_db() / 10.0), rel=1e-12)


def test_link_gain_100m_free_space_alpha_two():
    s = make_line_scenario(np.random.default_rng(1), n_uavs=2, n_si=1, jitter=False)
    s = dataclasses.replace(s, channel=sc.ChannelParams(alpha_a2a=2.0))
    pos = s.positions.copy()
    pos[2] = pos[1] + np.array([100.0, 0.0, 0.0])
    s = dataclasses.replace(s, positions=pos)
    lg = ch.link_gain(1, 2, ch.build_state(s))
    # compose with the path loss oracle: offset + 20 dB/decade over two decades
    expected_db = ch.path_loss_db(True, 100.0, s.channel)
    assert expected_db == pytest.approx(_free_space_db() + 40.0, abs=1e-9)
    assert lg.gain_sq == pytest.approx(10.0 ** (-expected_db / 10.0), rel=1e-12)


def test_link_gain_reciprocity_unit_and_rayleigh():
    rng = np.random.default_rng(2)
    for seed in range(5):
        s = make_line_scenario(rng)
        for fading in (ch.FadingModel.unit_gain(), ch.FadingModel.rayleigh(seed)):
            st = ch.build_state(s, fading)
            for i in range(s.n_primary):
                for j in range(i + 1, s.n_primary):
                    a = ch.link_gain(i, j, st)
                    b = ch.link_gain(j, i, st)
                    assert a.gain_sq == b.gain_sq
                    assert a.path_loss_db == b.path_loss_db


def test_rayleigh_draw_is_seed_stable_and_order_free():
    g1 = ch.FadingModel.rayleigh(9).gain_sq_matrix(6)
    g2 = ch.FadingModel.rayleigh(9).gain_sq_matrix(6)
    assert np.array_equal(g1, g2)
    assert np.array_equal(g1, g1.T)
    assert not np.array_equal(g1, ch.FadingModel.rayleigh(10).gain_sq_matrix(6))


def test_link_gain_rejects_self_link():
    s = make_line_scenario(np.random.default_rng(3))
    with pytest.raises(ValueError):
        ch.link_gain(1, 1, ch.build_state(s))


def test_coincident_nodes_rejected():
    # a Scenario refuses coincident nodes itself; a state over positions checks them
    s = make_line_scenario(np.random.default_rng(4), n_uavs=2, n_si=1, jitter=False)
    pos = s.positions.copy()
    pos[2] = pos[1]
    with pytest.raises(ValueError, match="^two nodes share a position; link gain undefined$"):
        ch.ChannelState(s, ch.FadingModel.unit_gain(), pos)


# -- smoothed proximity step ----------------------------------------------


def _edge_values(rng):
    # wide magnitudes, both signs, exact zeros of either sign, subnormals
    values = rng.standard_normal(4000) * 10.0 ** rng.uniform(-300.0, 150.0, 4000)
    return np.concatenate([values, [0.0, -0.0, 5e-324, -5e-324, 1e-160, 1e154, -1e154]])


def test_inline_norms_are_np_linalg_norms_to_the_bit():
    rng = np.random.default_rng(90)
    values = _edge_values(rng)
    vectors = rng.choice(values, size=(3000, 3))
    for v in (vectors, vectors.reshape(10, 300, 3), rng.uniform(-300.0, 300.0, (5, 17, 17, 3))):
        expected = np.linalg.norm(v, axis=-1)
        assert np.array_equal(ch._norms(v).view(np.uint64), expected.view(np.uint64))


def _masked_sigmoid(z):
    # the two-branch form the sigmoid had, each branch evaluated on its own
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_equals_its_masked_two_branch_form_to_the_bit():
    rng = np.random.default_rng(91)
    z = np.concatenate([rng.uniform(-800.0, 800.0, 5000), rng.uniform(-40.0, 40.0, 5000),
                        [0.0, -0.0, 709.0, -709.0, 746.0, -746.0, 5e-324]])
    for shape in ((-1,), (100, -1)):
        zs = z[:10000].reshape(shape) if shape != (-1,) else z
        got = ch._sigmoid(zs)
        assert np.array_equal(got.view(np.uint64), _masked_sigmoid(zs).view(np.uint64))
    assert ch._sigmoid(-3.5) == float(_masked_sigmoid(np.array([-3.5]))[0])


def test_smoothed_step_reference_points():
    saf = sc.SafetyParams()
    # y = 0: zeta / (1 + y0)
    assert ch.smoothed_step(0.0, saf) == pytest.approx(1000.0 / 1001.0, rel=1e-12)
    # crossing point y = -ln(y0)/kappa gives zeta/2
    y_half = -math.log(saf.y0) / saf.kappa
    assert ch.smoothed_step(y_half, saf) == pytest.approx(0.5, rel=1e-12)
    # far tail: evaluate the closed form independently at y = 10
    expected = saf.zeta / (1.0 + math.exp(10.0 * saf.kappa) * saf.y0)
    got = ch.smoothed_step(10.0, saf)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got < 1.0e-40
    # effectively zero far out
    assert ch.smoothed_step(1.0e3, saf) < 1.0e-300


def test_smoothed_step_scaling_and_monotonicity():
    saf = sc.SafetyParams(zeta=2.5, kappa=4.0, y0=1e-2)
    ys = np.linspace(0.0, 30.0, 400)
    vals = ch.smoothed_step(ys, saf)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0) and np.all(vals < saf.zeta)
    assert ch.smoothed_step(0.0, saf) == pytest.approx(2.5 / 1.01, rel=1e-12)


def test_smoothed_step_slope_matches_fd():
    saf = sc.SafetyParams(zeta=1.3, kappa=7.0, y0=1e-3)
    h = 1e-6
    for y in (0.0, 0.3, 0.7, 0.99, 1.5, 3.0):
        fd = (ch.smoothed_step(y + h, saf) - ch.smoothed_step(y - h, saf)) / (2.0 * h)
        got = ch.smoothed_step_slope(y, saf)
        assert got == pytest.approx(fd, rel=1e-6)
        assert got < 0.0


# -- SIR -------------------------------------------------------------------


def test_sir_zero_denominator_is_an_error():
    # no sources and chi = 0 leaves every denominator zero: the scenario is
    # refused where it is built, before any SIR is asked for
    s = make_line_scenario(np.random.default_rng(5), n_uavs=2, n_si=0, chi=1.0,
                           jitter=False)
    with pytest.raises(ValueError, match="without interference sources needs chi > 0"):
        dataclasses.replace(s, safety=sc.SafetyParams(chi=0.0))


def test_sir_underflowed_denominator_is_the_same_error():
    # proximity terms decay double-exponentially fast; spread the chain far
    # enough and the denormal denominator would overflow the quotient
    s = make_line_scenario(np.random.default_rng(93), n_uavs=2, n_si=0, chi=1.0,
                           jitter=False)
    spread = np.array([[0.0, 0.0, 15.0], [385.0, 0.0, 30.0],
                       [770.0, 0.0, 30.0], [1155.0, 0.0, 25.0]])
    s = dataclasses.replace(s, positions=spread)
    with pytest.raises(ValueError, match="zero SIR denominator"):
        ch.sir(0, 1, ch.build_state(s))


def test_sir_requires_primary_pair():
    s = make_line_scenario(np.random.default_rng(6), n_si=2)
    with pytest.raises(ValueError):
        ch.sir(1, 1, ch.build_state(s))
    with pytest.raises(ValueError):
        ch.sir(0, s.n_primary, ch.build_state(s))  # an interference source index


def test_sir_halves_when_si_power_doubles():
    s = make_line_scenario(np.random.default_rng(7), n_uavs=3, n_si=1, chi=0.0)
    base = ch.sir(1, 2, ch.build_state(s))
    doubled = dataclasses.replace(s, si_powers_w=s.si_powers_w * 2.0)
    assert ch.sir(1, 2, ch.build_state(doubled)) == pytest.approx(base / 2.0, rel=1e-12)


def test_sir_safety_only_denominator():
    # no sources, chi = 1, all third parties beyond 10 r_int from the receiver
    s = make_line_scenario(np.random.default_rng(8), n_uavs=2, n_si=0, chi=1.0,
                           jitter=False)
    st = ch.build_state(s)
    saf = s.safety
    i, j = 1, 2
    others = [k for k in range(s.n_primary) if k not in (i, j)]
    dists = st.dist[j, others]
    assert np.all(dists > 10.0 * saf.r_int_m)
    u_terms = ch.smoothed_step(dists / saf.r_int_m, saf)
    assert np.all(u_terms < 1.0e-40)
    expected = s.node_powers_w[i] * st.gain_sq[i, j] / (saf.chi * u_terms.sum())
    assert ch.sir(i, j, ch.build_state(s)) == pytest.approx(expected, rel=1e-12)
    # dominated by the largest term
    assert u_terms.sum() <= 2.0 * u_terms.max()


# -- edge rate --------------------------------------------------------------


def test_edge_rate_of_a_self_pair_is_not_a_topology_edge():
    s = make_line_scenario(np.random.default_rng(9))
    with pytest.raises(ValueError, match=re.escape("(1, 1) is not a topology edge")):
        ch.edge_rate(1, 1, ch.build_state(s))


def test_edge_rate_symmetric_exactly():
    rng = np.random.default_rng(10)
    for _ in range(5):
        s = make_line_scenario(rng)
        st = ch.build_state(s)
        for i, j in s.topology:
            assert ch.edge_rate(i, j, st) == ch.edge_rate(j, i, st)


def test_edge_rate_unit_sir_gives_full_bandwidth():
    # choose both transmit powers so each directed SIR is exactly 1
    s = make_line_scenario(np.random.default_rng(11), n_uavs=1, n_si=2, chi=1.0,
                           p_max_dbm=60.0, jitter=False)
    st = ch.build_state(s)
    i, j = 0, 1
    p = s.node_powers_w.copy()
    p[i] = st.link_denominators[_link_index(s, i, j)] / st.gain_sq[i, j]
    p[j] = st.link_denominators[_link_index(s, j, i)] / st.gain_sq[j, i]
    s = s.with_node_powers(p)
    assert ch.sir(i, j, ch.build_state(s)) == pytest.approx(1.0, rel=1e-12)
    assert ch.sir(j, i, ch.build_state(s)) == pytest.approx(1.0, rel=1e-12)
    # B/2 * (log2(2) + log2(2)) = B
    assert ch.edge_rate(i, j, ch.build_state(s)) == pytest.approx(s.channel.bandwidth_hz, rel=1e-9)


def test_edge_rate_matches_sir_composition():
    rng = np.random.default_rng(12)
    for _ in range(5):
        s = make_line_scenario(rng)
        st = ch.build_state(s)
        b = s.channel.bandwidth_hz
        for i, j in s.topology:
            expected = 0.5 * b * (np.log2(1.0 + ch.sir(i, j, st))
                                  + np.log2(1.0 + ch.sir(j, i, st)))
            assert ch.edge_rate(i, j, st) == pytest.approx(expected, rel=1e-12)


def test_edge_rate_rejects_non_edges():
    s = make_line_scenario(np.random.default_rng(13), n_uavs=3)
    with pytest.raises(ValueError, match="not a topology edge"):
        ch.edge_rate(0, 2, ch.build_state(s))


# -- spatial gradients -------------------------------------------------------
# every derivative is an entry of ``_link_jacobian`` (directed link in
# ``_links`` order, UAV slot, axis) or ``rate_jacobian`` (edge in topology
# order, UAV slot, axis)


def _slot(s, t):
    return s.uav_indices.index(t)


def _fd_sir(i, j, t, axis, s, h=1e-4):
    uav_slot = list(s.uav_indices).index(t)
    base = s.uav_positions

    def at(delta):
        bumped = base.copy()
        bumped[uav_slot, axis] += delta
        return ch.sir(i, j, ch.build_state(s.with_uav_positions(bumped)))

    return (at(h) - at(-h)) / (2.0 * h)


def test_sir_gradient_zero_for_uninvolved_uav_without_safety():
    s = make_line_scenario(np.random.default_rng(14), n_uavs=3, n_si=2, chi=0.0)
    # uav 3 appears nowhere in sir(1, 2) once the proximity term is off
    jac = ch._link_jacobian(ch.build_state(s))
    assert np.all(jac[_link_index(s, 1, 2), _slot(s, 3)] == 0.0)


def test_sir_gradient_sign_moving_toward_receiver():
    s = make_line_scenario(np.random.default_rng(15), n_uavs=2, n_si=1, chi=0.0,
                           jitter=False)
    # transmitter uav1 at smaller x than receiver uav2: moving +x shrinks d
    g = ch._link_jacobian(ch.build_state(s))[_link_index(s, 1, 2), _slot(s, 1), 0]
    assert g > 0.0


def test_sir_gradient_matches_finite_differences():
    rng = np.random.default_rng(16)
    h = 1e-4
    checked = 0
    for _ in range(20):
        s = make_line_scenario(rng)
        st = ch.build_state(s)
        i, j = s.topology[int(rng.integers(0, len(s.topology)))]
        got = ch._link_jacobian(st)[_link_index(s, i, j)]
        ref = np.array([[_fd_sir(i, j, t, axis, s, h=h)
                         for axis in range(3)] for t in s.uav_indices])
        # the FD oracle itself carries roundoff of order ulp(SIR)/2h, which
        # dominates for components many orders below the leading one
        noise = 20.0 * ch.sir(i, j, st) * np.finfo(float).eps / (2.0 * h)
        err = np.abs(got - ref) - 1e-6 * np.maximum(np.abs(got), np.abs(ref))
        assert err.max() <= noise, (i, j, err.max(), noise)
        checked += got.size
    assert checked > 100


def test_rate_gradient_zero_for_third_party_without_safety():
    s = make_line_scenario(np.random.default_rng(19), n_uavs=3, n_si=2, chi=0.0)
    jac = ch.rate_jacobian(ch.build_state(s))
    assert np.all(jac[s.topology.index((1, 2)), _slot(s, 3)] == 0.0)


def test_rate_gradient_matches_finite_differences():
    rng = np.random.default_rng(20)

    def fd_rate(p, q, t, axis, s, h=1e-4):
        uav_slot = list(s.uav_indices).index(t)
        base = s.uav_positions

        def at(delta):
            bumped = base.copy()
            bumped[uav_slot, axis] += delta
            return ch.edge_rate(p, q, ch.build_state(s.with_uav_positions(bumped)))

        return (at(h) - at(-h)) / (2.0 * h)

    h = 1e-4
    checked = 0
    for _ in range(12):
        s = make_line_scenario(rng)
        st = ch.build_state(s)
        p, q = s.topology[int(rng.integers(0, len(s.topology)))]
        got = ch.rate_jacobian(st)[s.topology.index((p, q))]
        ref = np.array([[fd_rate(p, q, t, axis, s, h=h)
                         for axis in range(3)] for t in s.uav_indices])
        noise = 20.0 * ch.edge_rate(p, q, st) * np.finfo(float).eps / (2.0 * h)
        err = np.abs(got - ref) - 1e-6 * np.maximum(np.abs(got), np.abs(ref))
        assert err.max() <= noise, (p, q, err.max(), noise)
        checked += got.size
    assert checked > 100
