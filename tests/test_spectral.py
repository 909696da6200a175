"""Weighted Laplacians, Fiedler pairs, and brute-force Cheeger cuts."""

import numpy as np
import pytest

import aerolink.channel as ch
import aerolink.spectral as sp
from aerolink.spectral import GraphMatrices, LaplacianMode

from conftest import make_connected_graph, make_line_scenario


def _components(adjacency):
    """Connected-component count via union-find, independent of the package."""
    n = adjacency.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if adjacency[i, j] > 0.0:
                parent[find(i)] = find(j)
    return len({find(i) for i in range(n)})


# ---------------------------------------------------------------- matrices


def test_unit_path_laplacian_exact():
    a = np.zeros((4, 4))
    for i in range(3):
        a[i, i + 1] = a[i + 1, i] = 1.0
    m = GraphMatrices.from_adjacency(a)
    expected = np.array([
        [1.0, -1.0, 0.0, 0.0],
        [-1.0, 2.0, -1.0, 0.0],
        [0.0, -1.0, 2.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ])
    assert np.array_equal(m.laplacian, expected)
    assert np.array_equal(np.diag(m.degree), np.array([1.0, 2.0, 2.0, 1.0]))


def test_laplacian_row_sums_vanish():
    rng = np.random.default_rng(30)
    for _ in range(20):
        m = make_connected_graph(rng)
        assert np.abs(m.laplacian.sum(axis=1)).max() < 1e-12


def test_build_matrices_matches_edge_rates():
    rng = np.random.default_rng(31)
    s = make_line_scenario(rng)
    st = ch.build_state(s)
    m = sp.build_matrices(st)
    k_edges = len(s.topology)
    assert np.count_nonzero(m.adjacency) == 2 * k_edges
    for i, j in s.topology:
        r = ch.edge_rate(i, j, st)
        assert m.adjacency[i, j] == r
        assert m.adjacency[j, i] == r
    assert np.array_equal(m.laplacian, m.degree - m.adjacency)


def test_from_adjacency_guards():
    with pytest.raises(ValueError, match="square"):
        GraphMatrices.from_adjacency(np.ones((2, 3)))
    bad = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        GraphMatrices.from_adjacency(bad)
    with pytest.raises(ValueError, match="non-negative"):
        GraphMatrices.from_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="loops"):
        GraphMatrices.from_adjacency(np.array([[1.0, 1.0], [1.0, 0.0]]))


def _rate_matrix(state):
    # the rates' adjacency, as build_matrices fills it before any check
    rates = ch.edge_rates(state)
    a = np.zeros(rates.shape[:-1] + (state.scenario.n_primary,) * 2)
    p, q = np.array(state.scenario.topology).T
    a[..., p, q] = a[..., q, p] = rates
    return a


def _message(fn, *args):
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


@pytest.mark.parametrize("stacked", [False, True])
def test_bad_rates_raise_what_from_adjacency_raises_through_the_bundle(stacked):
    # negative powers: -1e-9 W makes every SIR slightly negative and so every
    # rate; -1e9 W takes 1 + SIR below zero, whose log2 is nan
    s = make_line_scenario(np.random.default_rng(41), chi=1.0)
    positions = np.stack([s.positions, s.positions + 0.5]) if stacked else s.positions

    def at(powers):
        return ch.ChannelState(s, ch.FadingModel.unit_gain(), positions, powers=powers)

    tiny, huge = np.full(s.n_primary, -1.0e-9), np.full(s.n_primary, -1.0e9)
    message = "edge weights must be non-negative"
    assert _message(sp.connectivity_bundle, at(tiny)) == message
    assert _message(GraphMatrices.from_adjacency, _rate_matrix(at(tiny))) == message
    # a nan rate anywhere in a stack is reported before a negative one
    cases = [huge, np.stack([tiny, huge])] if stacked else [huge]
    for powers in cases:
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log2"):
            got = _message(sp.connectivity_bundle, at(powers), None,
                           LaplacianMode.NORMALIZED_WEIGHTED)
        assert got == "adjacency must be symmetric"
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log2"):
            a = _rate_matrix(at(powers))
        assert _message(GraphMatrices.from_adjacency, a) == got


# ------------------------------------------------------- weighted Laplacian


def test_unit_weights_leave_combinatorial_laplacian_unchanged():
    rng = np.random.default_rng(32)
    m = make_connected_graph(rng, n=6)
    lw = sp.weighted_laplacian(m, np.ones(6), LaplacianMode.COMBINATORIAL_WEIGHTED)
    assert np.array_equal(lw, m.laplacian)


def test_normalized_unit_path_has_known_spectrum():
    # D^(-1/2) L D^(-1/2) of the unit 3-path has eigenvalues {0, 1, 2}
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    m = GraphMatrices.from_adjacency(a)
    lw = sp.weighted_laplacian(m, np.ones(3), LaplacianMode.NORMALIZED_WEIGHTED)
    vals, _ = sp.eig_sym(lw)
    assert vals == pytest.approx([0.0, 1.0, 2.0], abs=1e-12)


def test_weight_scaling_rescales_eigenvalues():
    rng = np.random.default_rng(33)
    m = make_connected_graph(rng, n=7)
    w = rng.uniform(0.2, 2.0, size=7)
    for mode in LaplacianMode:
        base, _ = sp.eig_sym(sp.weighted_laplacian(m, w, mode))
        scaled, _ = sp.eig_sym(sp.weighted_laplacian(m, 4.0 * w, mode))
        assert scaled == pytest.approx(base / 4.0, rel=1e-10, abs=1e-13)


def test_weighted_laplacian_guards():
    rng = np.random.default_rng(34)
    m = make_connected_graph(rng, n=4)
    with pytest.raises(ValueError, match="per node"):
        sp.weighted_laplacian(m, np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        sp.weighted_laplacian(m, np.array([1.0, 1.0, 0.0, 1.0]))
    isolated = GraphMatrices.from_adjacency(
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="isolated"):
        sp.weighted_laplacian(isolated, np.ones(3), LaplacianMode.NORMALIZED_WEIGHTED)


# ------------------------------------------------------------------ eig_sym


def test_eig_sym_identity_and_diag():
    vals, vecs = sp.eig_sym(np.eye(5))
    assert vals == pytest.approx(np.ones(5), abs=1e-14)
    d = np.diag([3.0, -1.0, 2.0])
    vals, vecs = sp.eig_sym(d)
    assert vals == pytest.approx([-1.0, 2.0, 3.0], abs=1e-14)
    assert np.abs(vecs.T @ vecs - np.eye(3)).max() < 1e-12


def test_eig_sym_residual_and_orthonormality():
    rng = np.random.default_rng(35)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        g = rng.normal(size=(n, n))
        m = g + g.T
        vals, vecs = sp.eig_sym(m)
        scale = max(1.0, np.abs(vals).max())
        assert np.abs(m @ vecs - vecs * vals[None, :]).max() < 1e-12 * scale
        assert np.abs(vecs.T @ vecs - np.eye(n)).max() < 1e-12
        assert np.all(np.diff(vals) >= 0.0)


def test_eig_sym_matches_characteristic_polynomial():
    rng = np.random.default_rng(36)
    for _ in range(10):
        g = rng.normal(size=(3, 3))
        m = g + g.T
        # char poly of a 3x3: x^3 - tr x^2 + (sum principal 2-minors) x - det
        tr = np.trace(m)
        minors = sum(np.linalg.det(m[np.ix_(p, p)])
                     for p in [(0, 1), (0, 2), (1, 2)])
        det = np.linalg.det(m)
        roots = np.sort(np.roots([1.0, -tr, minors, -det]).real)
        vals, _ = sp.eig_sym(m)
        assert vals == pytest.approx(roots, rel=1e-8, abs=1e-8)


def test_eig_sym_rejects_asymmetric_input():
    with pytest.raises(ValueError, match="not symmetric"):
        sp.eig_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        sp.eig_sym(np.ones((2, 3)))


# ------------------------------------------------------------- Fiedler pair


def test_fiedler_of_unit_path():
    n = 5
    a = np.zeros((n, n))
    for i in range(n - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    m = GraphMatrices.from_adjacency(a)
    fr = sp.fiedler_pair(m.laplacian)
    assert fr.lambda2 == pytest.approx(2.0 * (1.0 - np.cos(np.pi / n)), rel=1e-12)
    assert not fr.degenerate
    assert np.linalg.norm(fr.vector) == pytest.approx(1.0, abs=1e-12)


def test_fiedler_of_complete_graph_is_degenerate():
    n = 4
    a = np.ones((n, n)) - np.eye(n)
    m = GraphMatrices.from_adjacency(a)
    fr = sp.fiedler_pair(m.laplacian)
    assert fr.lambda2 == pytest.approx(float(n), rel=1e-12)
    assert fr.spectral_gap == pytest.approx(0.0, abs=1e-12)
    assert fr.degenerate


def test_fiedler_of_disconnected_graph():
    a = np.zeros((4, 4))
    a[0, 1] = a[1, 0] = 1.0
    a[2, 3] = a[3, 2] = 1.0
    m = GraphMatrices.from_adjacency(a)
    fr = sp.fiedler_pair(m.laplacian)
    assert fr.lambda2 == pytest.approx(0.0, abs=1e-12)
    assert fr.degenerate


def test_fiedler_two_node_gap_is_infinite():
    m = GraphMatrices.from_adjacency(np.array([[0.0, 2.5], [2.5, 0.0]]))
    fr = sp.fiedler_pair(m.laplacian)
    assert fr.lambda2 == pytest.approx(5.0, rel=1e-12)
    assert fr.spectral_gap == np.inf
    assert not fr.degenerate


def test_fiedler_guards():
    with pytest.raises(ValueError, match="two nodes"):
        sp.fiedler_pair(np.zeros((1, 1)))
    with pytest.raises(ValueError, match="semidefinite"):
        sp.fiedler_pair(-np.eye(3))


def test_laplacian_kernel_counts_components():
    rng = np.random.default_rng(37)
    for _ in range(15):
        # two independent blocks glued occasionally
        m1 = make_connected_graph(rng, n=int(rng.integers(2, 5)))
        m2 = make_connected_graph(rng, n=int(rng.integers(2, 5)))
        n1, n2 = m1.n, m2.n
        a = np.zeros((n1 + n2, n1 + n2))
        a[:n1, :n1] = m1.adjacency
        a[n1:, n1:] = m2.adjacency
        if rng.random() < 0.5:
            a[0, n1] = a[n1, 0] = 1.0
        m = GraphMatrices.from_adjacency(a)
        vals, _ = sp.eig_sym(m.laplacian)
        scale = max(1.0, np.abs(vals).max())
        kernel = int(np.count_nonzero(np.abs(vals) < 1e-9 * scale))
        assert kernel == _components(a)
        assert vals[0] > -1e-9 * scale


# --------------------------------------------------------------- the bundle


def test_connectivity_bundle_is_consistent():
    rng = np.random.default_rng(38)
    s = make_line_scenario(rng)
    st = ch.build_state(s)
    for mode in LaplacianMode:
        b = sp.connectivity_bundle(st, mode=mode)
        m = sp.build_matrices(st)
        lw = sp.weighted_laplacian(m, s.weights, mode)
        fr = sp.fiedler_pair(lw)
        assert np.array_equal(b.weighted_laplacian, lw)
        assert b.lambda2 == fr.lambda2
        assert b.spectral_gap == fr.spectral_gap
        assert b.degenerate == fr.degenerate
        assert b.mode is mode


def test_connectivity_bundle_weight_override():
    rng = np.random.default_rng(39)
    s = make_line_scenario(rng, n_uavs=3)
    w = np.ones(s.n_primary)
    st = ch.build_state(s)
    b = sp.connectivity_bundle(st, weights=w)
    m = sp.build_matrices(st)
    assert np.array_equal(b.weighted_laplacian, m.laplacian)


# ------------------------------------------------------------------ Cheeger


def test_cheeger_two_nodes():
    m = GraphMatrices.from_adjacency(np.array([[0.0, 3.0], [3.0, 0.0]]))
    rep = sp.cheeger_bruteforce(m, weights=np.array([2.0, 0.5]))
    assert rep.constant == pytest.approx(3.0 / 0.5, rel=1e-12)
    assert rep.argmin_side == frozenset({0})


def test_cheeger_unit_path_three_nodes():
    a = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    m = GraphMatrices.from_adjacency(a)
    rep = sp.cheeger_bruteforce(m)
    # {0} and {0,1} both cut one unit edge against a lone node
    assert rep.constant == pytest.approx(1.0, rel=1e-12)
    assert rep.lambda2 == pytest.approx(1.0, rel=1e-12)
    assert rep.lower_bound == pytest.approx(0.5, rel=1e-12)
    assert rep.upper_bound == pytest.approx(2.0, rel=1e-12)


def test_cheeger_bounds_hold_on_random_graphs():
    rng = np.random.default_rng(40)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        m = make_connected_graph(rng, n=n)
        w = rng.uniform(0.2, 2.0, size=n)
        rep = sp.cheeger_bruteforce(m, weights=w)
        slack = 1e-9 * max(1.0, rep.constant)
        assert rep.lower_bound <= rep.constant + slack
        assert rep.constant <= rep.upper_bound + slack

        # the reported side reproduces the reported constant
        side = np.zeros(n, dtype=bool)
        side[list(rep.argmin_side)] = True
        assert 0 < side.sum() < n
        assert 0 in rep.argmin_side
        cut = m.adjacency[side][:, ~side].sum()
        denom = min(w[side].sum(), w[~side].sum())
        assert rep.constant == pytest.approx(cut / denom, rel=1e-12)


def test_cheeger_guards():
    with pytest.raises(ValueError, match="two nodes"):
        sp.cheeger_bruteforce(GraphMatrices.from_adjacency(np.zeros((1, 1))))
    big = GraphMatrices.from_adjacency(np.ones((21, 21)) - np.eye(21))
    with pytest.raises(ValueError, match="20"):
        sp.cheeger_bruteforce(big)
    two = GraphMatrices.from_adjacency(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="positive"):
        sp.cheeger_bruteforce(two, weights=np.array([1.0, -1.0]))
