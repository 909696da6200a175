"""Power caps, max-min allocation, and interference verification."""

import dataclasses

import numpy as np
import pytest

import aerolink.channel as ch
import aerolink.power as pw
from aerolink.power import BindingConstraint
from aerolink.scenario import dbm_to_watts

from conftest import make_line_scenario


def _min_edge_rate(scenario, powers):
    st = ch.build_state(scenario.with_node_powers(powers))
    return min(ch.edge_rate(i, j, st) for i, j in scenario.topology)


# --------------------------------------------------------------------- caps


def test_caps_without_sources_equal_budget():
    s = make_line_scenario(np.random.default_rng(60), n_si=0, chi=1.0)
    caps = pw.power_caps(ch.build_state(s))
    assert np.array_equal(caps, np.full(s.n_primary, s.p_max_w))


def test_caps_follow_threshold_over_gain():
    rng = np.random.default_rng(61)
    s = make_line_scenario(rng, n_si=3).with_i_max_dbm(-60.0)
    st = ch.build_state(s)
    caps = pw.power_caps(st)
    for i in range(s.n_primary):
        limits = [s.i_max_w[k] / st.gain_sq[i, m]
                  for k, m in enumerate(s.si_indices)]
        assert caps[i] == min([s.p_max_w] + limits)


def test_caps_scale_linearly_with_thresholds():
    rng = np.random.default_rng(62)
    s = make_line_scenario(rng, n_si=4, p_max_dbm=70.0).with_i_max_dbm(-60.0)
    tight = pw.power_caps(ch.build_state(s))
    loose = pw.power_caps(ch.build_state(s.with_i_max_dbm(-50.0)))
    assert np.all(tight < s.p_max_w)  # thresholds bind everywhere
    assert loose == pytest.approx(10.0 * tight, rel=1e-12)


# ------------------------------------------------------------------ max-min


def test_solution_runs_every_node_at_its_cap():
    rng = np.random.default_rng(63)
    for _ in range(8):
        s = make_line_scenario(rng)
        sol = pw.solve_maxmin(ch.build_state(s))
        assert sol.feasible
        assert np.array_equal(sol.powers_w, pw.power_caps(ch.build_state(s)))


def test_eta_is_the_bottleneck_rate_at_caps():
    rng = np.random.default_rng(64)
    for _ in range(8):
        s = make_line_scenario(rng)
        sol = pw.solve_maxmin(ch.build_state(s))
        want = _min_edge_rate(s, pw.power_caps(ch.build_state(s)))
        assert sol.eta == pytest.approx(want, rel=1e-9)


def test_eta_without_sources_uses_full_budget():
    s = make_line_scenario(np.random.default_rng(65), n_si=0, chi=1.0)
    sol = pw.solve_maxmin(ch.build_state(s))
    assert np.array_equal(sol.powers_w, np.full(s.n_primary, s.p_max_w))
    assert sol.eta == pytest.approx(_min_edge_rate(s, sol.powers_w), rel=1e-9)


def test_tighter_thresholds_never_raise_eta():
    rng = np.random.default_rng(66)
    for _ in range(6):
        s = make_line_scenario(rng, n_si=4)
        loose = pw.solve_maxmin(ch.build_state(s.with_i_max_dbm(-30.0)))
        tight = pw.solve_maxmin(ch.build_state(s.with_i_max_dbm(-45.0)))
        assert tight.eta <= loose.eta * (1.0 + 1e-12)


def test_binding_labels():
    rng = np.random.default_rng(67)
    s = make_line_scenario(rng, n_si=2, p_max_dbm=70.0).with_i_max_dbm(-60.0)
    st = ch.build_state(s)
    caps = pw.power_caps(st)
    sol = pw.solve_maxmin(st)
    assert np.all(caps < s.p_max_w)
    for i, (kind, which) in enumerate(sol.binding):
        assert kind is BindingConstraint.INTERFERENCE_CAP
        limits = s.i_max_w / st.gain_sq[i, list(s.si_indices)]
        assert which == int(np.argmin(limits))

    free = make_line_scenario(np.random.default_rng(68), n_si=0, chi=1.0)
    for kind, which in pw.solve_maxmin(ch.build_state(free)).binding:
        assert kind is BindingConstraint.P_MAX
        assert which is None


def test_non_chain_topology_is_rejected():
    s = make_line_scenario(np.random.default_rng(69), n_uavs=2)
    star = dataclasses.replace(s, topology=((0, 2), (1, 2), (2, 3)))
    with pytest.raises(ValueError, match="chain"):
        pw.solve_maxmin(ch.build_state(star))


def test_min_rate_is_concave_in_the_powers():
    rng = np.random.default_rng(70)
    for _ in range(10):
        s = make_line_scenario(rng)
        caps = pw.power_caps(ch.build_state(s))
        p1 = caps * rng.uniform(0.05, 1.0, size=caps.shape)
        p2 = caps * rng.uniform(0.05, 1.0, size=caps.shape)
        mid = _min_edge_rate(s, 0.5 * (p1 + p2))
        avg = 0.5 * (_min_edge_rate(s, p1) + _min_edge_rate(s, p2))
        assert mid >= avg * (1.0 - 1e-10)


# ------------------------------------------------------------- verification


def test_solution_passes_verification():
    rng = np.random.default_rng(71)
    for _ in range(8):
        s = make_line_scenario(rng)
        sol = pw.solve_maxmin(ch.build_state(s))
        report = pw.verify_interference(ch.build_state(s), sol.powers_w)
        assert report.passed
        assert report.received_w.shape == (s.n_primary, s.n_si)


def test_full_budget_can_violate_tight_thresholds():
    rng = np.random.default_rng(72)
    s = make_line_scenario(rng, n_si=3).with_i_max_dbm(-80.0)
    assert np.any(pw.power_caps(ch.build_state(s)) < s.p_max_w)
    report = pw.verify_interference(ch.build_state(s), np.full(s.n_primary, s.p_max_w))
    assert not report.passed
    assert report.min_margin_w < 0.0


def test_zero_powers_leave_full_margins():
    rng = np.random.default_rng(73)
    s = make_line_scenario(rng, n_si=2)
    report = pw.verify_interference(ch.build_state(s), np.zeros(s.n_primary))
    assert np.array_equal(report.received_w, np.zeros((s.n_primary, 2)))
    assert np.array_equal(report.margins_w, np.broadcast_to(s.i_max_w, (s.n_primary, 2)))
    assert report.passed


def test_report_without_sources():
    s = make_line_scenario(np.random.default_rng(74), n_si=0, chi=1.0)
    report = pw.verify_interference(ch.build_state(s), np.full(s.n_primary, s.p_max_w))
    assert report.received_w.shape == (s.n_primary, 0)
    assert report.min_margin_w == np.inf
    assert report.passed


def test_verification_checks_power_vector_shape():
    s = make_line_scenario(np.random.default_rng(75), n_uavs=3)
    with pytest.raises(ValueError, match="one power per"):
        pw.verify_interference(ch.build_state(s), np.ones(2))


def test_received_power_reference_value():
    # one transmitter at 0.1 W, one source 50 m above it on the ground path
    # (the link class comes from the partition, not the altitude):
    # received = P * 10^(-PL/10), PL = 23.2 log10(50) + eta_free_space
    s = make_line_scenario(np.random.default_rng(76), n_uavs=1, n_si=1, jitter=False)
    si = np.array([[s.positions[1, 0], s.positions[1, 1], s.positions[1, 2] + 50.0]])
    s = dataclasses.replace(s, positions=np.vstack([s.positions[:3], si]))
    report = pw.verify_interference(ch.build_state(s), np.array([0.0, 0.1, 0.0]))
    eta_db = 20.0 * np.log10(4.0 * np.pi * 2.0e9 / 3.0e8)
    pl_db = 23.2 * np.log10(50.0) + eta_db
    assert report.received_w[1, 0] == pytest.approx(0.1 * 10.0 ** (-pl_db / 10.0),
                                                    rel=1e-12)
