"""Max flow / min cut against hand-built networks and the exhaustive oracle."""

import numpy as np
import pytest

import aerolink.flow as fl
from aerolink.flow import FlowNetwork

from conftest import make_capacity_network_adjacency, make_connected_graph


def _line_network(caps, source=0, sink=None):
    n = len(caps) + 1
    a = np.zeros((n, n))
    for i, c in enumerate(caps):
        a[i, i + 1] = a[i + 1, i] = c
    return fl.from_adjacency(a, source, n - 1 if sink is None else sink)


# ------------------------------------------------------------- construction


def test_from_adjacency_builds_arcs_both_ways():
    net = _line_network([5.0, 3.0])
    assert net.n == 3
    assert np.count_nonzero(net.capacity) == 4
    assert net.capacity[0, 1] == net.capacity[1, 0] == 5.0


def test_from_adjacency_accepts_graph_matrices():
    rng = np.random.default_rng(50)
    m = make_connected_graph(rng, n=5)
    net = fl.from_adjacency(m, 0, 4)
    assert np.array_equal(net.capacity, m.adjacency)


def test_from_adjacency_rejects_asymmetry():
    a = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        fl.from_adjacency(a, 0, 1)


def test_network_guards():
    with pytest.raises(ValueError, match="square"):
        FlowNetwork(np.zeros((2, 3)), 0, 1)
    with pytest.raises(ValueError, match="non-negative"):
        FlowNetwork(np.array([[0.0, -1.0], [0.0, 0.0]]), 0, 1)
    with pytest.raises(ValueError, match="finite"):
        FlowNetwork(np.array([[0.0, np.inf], [0.0, 0.0]]), 0, 1)
    with pytest.raises(ValueError, match="differ"):
        FlowNetwork(np.zeros((2, 2)), 1, 1)
    with pytest.raises(ValueError, match="indices"):
        FlowNetwork(np.zeros((2, 2)), 0, 2)


def test_tiny_capacities_and_diagonal_are_dropped():
    a = np.array([[0.5, 1e-13], [1e-13, 0.0]])
    net = FlowNetwork(a, 0, 1)
    assert np.array_equal(net.capacity, np.zeros((2, 2)))
    assert fl.max_flow(net)[0] == 0.0


# ----------------------------------------------------------------- max flow


def test_two_node_flow_equals_capacity():
    net = _line_network([4.25])
    value, flow = fl.max_flow(net)
    assert value == 4.25
    assert flow[0, 1] == 4.25
    assert fl.min_cut(net).source_side == frozenset({0})


def test_line_bottleneck():
    net = _line_network([5.0, 3.0, 7.0])
    value, _ = fl.max_flow(net)
    assert value == 3.0
    cut = fl.min_cut(net)
    assert cut.value == 3.0
    # residual reachability stops at the saturated middle edge
    assert cut.source_side == frozenset({0, 1})


def test_equal_capacity_line_cuts_at_source():
    net = _line_network([2.0, 2.0, 2.0])
    assert fl.max_flow(net)[0] == 2.0
    assert fl.min_cut(net).source_side == frozenset({0})


def test_diamond_with_cross_edge():
    a = np.zeros((4, 4))
    for (i, j), c in {(0, 1): 2.0, (0, 2): 1.0, (1, 3): 1.0,
                      (2, 3): 2.0, (1, 2): 5.0}.items():
        a[i, j] = a[j, i] = c
    net = fl.from_adjacency(a, 0, 3)
    value, _ = fl.max_flow(net)
    assert value == pytest.approx(3.0, rel=1e-12)
    brute = fl.brute_force_min_cut(net)
    assert brute.value == pytest.approx(3.0, rel=1e-12)
    assert fl.min_cut(net).source_side == brute.source_side == frozenset({0})


def test_disconnected_terminals_give_zero_flow():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 3.0
    a[2, 3] = a[3, 2] = 3.0
    net = fl.from_adjacency(a, 0, 3)
    value, flow = fl.max_flow(net)
    assert value == 0.0
    assert np.array_equal(flow, np.zeros((4, 4)))
    assert fl.min_cut(net).source_side == frozenset({0, 1})


def test_flow_assignment_is_feasible_and_conserving():
    rng = np.random.default_rng(51)
    for _ in range(25):
        a = make_capacity_network_adjacency(rng)
        n = a.shape[0]
        net = fl.from_adjacency(a, 0, n - 1)
        value, flow = fl.max_flow(net)
        assert np.all(flow <= net.capacity + 1e-12)
        assert np.all(flow >= 0.0)
        net_out = flow.sum(axis=1) - flow.sum(axis=0)
        assert net_out[0] == pytest.approx(value, rel=1e-12, abs=1e-12)
        assert net_out[n - 1] == pytest.approx(-value, rel=1e-12, abs=1e-12)
        interior = np.delete(net_out, [0, n - 1])
        assert np.abs(interior).max() < 1e-9


def test_max_flow_equals_brute_force_min_cut():
    rng = np.random.default_rng(52)
    for _ in range(25):
        a = make_capacity_network_adjacency(rng, n=int(rng.integers(4, 9)))
        n = a.shape[0]
        net = fl.from_adjacency(a, 0, n - 1)
        value, _ = fl.max_flow(net)
        brute = fl.brute_force_min_cut(net)
        assert value == pytest.approx(brute.value, rel=1e-12, abs=1e-12)

        cut = fl.min_cut(net)
        assert cut.value == pytest.approx(brute.value, rel=1e-12, abs=1e-12)
        side = np.zeros(n, dtype=bool)
        side[list(cut.source_side)] = True
        assert side[0] and not side[n - 1]
        assert net.capacity[side][:, ~side].sum() == pytest.approx(
            value, rel=1e-12, abs=1e-12)


def test_raising_a_capacity_never_lowers_flow():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = make_capacity_network_adjacency(rng, n=6)
        net = fl.from_adjacency(a, 0, 5)
        base, _ = fl.max_flow(net)
        i, j = 0, 1
        bumped = a.copy()
        bumped[i, j] = bumped[j, i] = a[i, j] + 1.0
        more, _ = fl.max_flow(fl.from_adjacency(bumped, 0, 5))
        assert more >= base - 1e-12


def test_brute_force_size_guard():
    a = np.zeros((17, 17))
    a[0, 16] = a[16, 0] = 1.0
    with pytest.raises(ValueError, match="16"):
        fl.brute_force_min_cut(fl.from_adjacency(a, 0, 16))


def test_max_flow_is_bit_identical_to_the_array_reference():
    # value and flow to the bit, against the numpy-indexed body the list-based
    # search replaced; random terminals exercise searches that end early
    import flow_reference as ref

    rng = np.random.default_rng(54)
    for k in range(400):
        a = make_capacity_network_adjacency(rng)
        n = a.shape[0]
        s, t = (0, n - 1) if k % 2 else rng.choice(n, size=2, replace=False)
        net = fl.from_adjacency(a, int(s), int(t))
        value, flow = fl.max_flow(net)
        expected_value, expected_flow = ref.max_flow(net)
        assert type(value) is float
        assert np.array([value]).view(np.uint64) == np.array([expected_value]).view(np.uint64)
        assert flow.dtype == expected_flow.dtype
        assert np.array_equal(flow.view(np.uint64), expected_flow.view(np.uint64))
