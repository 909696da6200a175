"""Radio links: path loss, fading, SIR, edge rates, and their spatial gradients.

The signal model is log-distance path loss on top of an optional small-scale
fading draw.  A transmission from i to j is received with power
``P_i * |h_ij|^2`` where ``|h_ij|^2 = |g_ij|^2 * 10^(-eta/10) * d_ij^(-alpha)``.
The link budget at a receiver competes against two terms: aggregate
interference from the fixed sources, and a smoothed proximity penalty that
grows steeply once another primary node comes within the separation radius.

Everything is computed as arrays, once per geometry.  ``ChannelState`` holds
the power-independent tables (gains, the SIR denominator of every ordered
primary pair, the proximity-sum gradients) of the positions it is given;
the scenario only supplies the layout.  ``sir_matrix``, ``sir_jacobian``,
``edge_rates`` and ``rate_jacobian`` combine them with a scenario's powers.
Each array keeps the association of the per-pair formula it replaces (the
same masked 1-D sums, ``(num/denom)*(dden/denom)``), so its entries equal a
pair-at-a-time evaluation to the bit.  A state may also hold a stack of
geometries (leading axes before the node axes); ``sir_matrix`` and
``edge_rates`` then return one table per geometry, each equal to the bit to
that geometry's own.  Such a state recomputes, per geometry, only the rows
and columns of the nodes that geometry moves.  The scalar functions ``sir``,
``edge_rate``, ``sir_spatial_gradient`` and ``rate_spatial_gradient`` index
into these arrays and raise only for the pair they are asked about.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import NodeClass, SafetyParams, Scenario, partition

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class FadingModel:
    """Small-scale gain model: deterministic unit gains or a seeded Rayleigh draw.

    Rayleigh gains are drawn once per unordered node pair from a stream keyed
    by (seed, i, j) with i < j, so they are reciprocal by construction and do
    not depend on evaluation order.
    """

    kind: str = "unit"
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("unit", "rayleigh"):
            raise ValueError("fading kind must be 'unit' or 'rayleigh'")

    @staticmethod
    def unit_gain() -> "FadingModel":
        return FadingModel("unit")

    @staticmethod
    def rayleigh(seed: int) -> "FadingModel":
        return FadingModel("rayleigh", int(seed))

    def gain_sq_matrix(self, n_total: int) -> np.ndarray:
        if self.kind == "unit":
            return np.ones((n_total, n_total))
        return _rayleigh_gain_sq(self.seed, n_total)


@functools.lru_cache(maxsize=64)
def _rayleigh_gain_sq(seed: int, n_total: int) -> np.ndarray:
    g2 = np.ones((n_total, n_total))
    for i in range(n_total):
        for j in range(i + 1, n_total):
            rng = np.random.default_rng((seed, i, j))
            re, im = rng.standard_normal(2)
            g2[i, j] = g2[j, i] = 0.5 * (re * re + im * im)
    g2.setflags(write=False)
    return g2


@dataclass(frozen=True)
class LinkGain:
    """Resolved budget of one directed link."""

    path_loss_db: float
    gain_sq: float        # |h|^2, absolute power ratio
    distance_m: float
    a2a: bool


def path_loss_db(a2a: bool, distance_m: float, channel) -> float:
    """Log-distance path loss alpha*10*log10(d) + eta, in dB."""
    d = np.asarray(distance_m, dtype=float)
    if np.any(d <= 0.0):
        raise ValueError("path loss undefined at zero distance")
    alpha = channel.alpha_a2a if a2a else channel.alpha_a2g
    return alpha * 10.0 * np.log10(d) + channel.eta_db(a2a)


def smoothed_step(y, safety: SafetyParams):
    """Sigmoid proximity step: ~zeta for y near 0, decaying to 0 for large y.

    The argument y is a distance normalized by the separation radius.  The
    curve crosses zeta/2 at y = -ln(y0)/kappa and its residual floor at y = 0
    is zeta/(1 + y0).
    """
    z = -safety.kappa * np.asarray(y, dtype=float) - np.log(safety.y0)
    return safety.zeta * _sigmoid(z)


def smoothed_step_slope(y, safety: SafetyParams):
    """d(smoothed_step)/dy, always <= 0."""
    z = -safety.kappa * np.asarray(y, dtype=float) - np.log(safety.y0)
    return -safety.zeta * safety.kappa * _sigmoid_prime(z)


def _sigmoid(z):
    # stable in both tails
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def _sigmoid_prime(z):
    e = np.exp(-np.abs(np.asarray(z, dtype=float)))
    out = e / (1.0 + e) ** 2
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=64)
def _link_layout(n_total: int, n_primary: int, aerial: frozenset, channel,
                 fading: FadingModel) -> tuple:
    """The link tables no geometry changes, shared read-only by every scenario
    with these node counts, aerial nodes, channel parameters and fading:
    a2a (both endpoints aerial), the path loss exponents, |g|^2 * 10^(-eta/10)
    (the gain without its distance term), the off-diagonal mask and
    ``others`` (row i: every primary index but i)."""
    is_aerial = np.array([i in aerial for i in range(n_total)])
    a2a = is_aerial[:, None] & is_aerial[None, :]
    alpha = np.where(a2a, channel.alpha_a2a, channel.alpha_a2g)
    eta = np.where(a2a, channel.eta_db(True), channel.eta_db(False))
    tables = (a2a, alpha, fading.gain_sq_matrix(n_total) * 10.0 ** (-eta / 10.0),
              ~np.eye(n_total, dtype=bool),
              np.nonzero(~np.eye(n_primary, dtype=bool))[1].reshape(n_primary, n_primary - 1))
    for table in tables:
        table.setflags(write=False)
    return tables


def _replace_rows(base: np.ndarray, count: int, g: np.ndarray, nodes: np.ndarray,
                  rows: np.ndarray) -> np.ndarray:
    """``count`` copies of a symmetric table with row and column nodes[k] of
    copy g[k] replaced by rows[k]."""
    out = np.empty((count,) + base.shape)
    out[...] = base
    out[g, nodes] = rows
    out[g, :, nodes] = rows
    return out


class ChannelState:
    """Position-dependent link quantities shared by SIR, rate, and gradient calls.

    Holds everything that does not change with primary transmit powers:
    pairwise distances, squared channel gains, per-receiver aggregate
    interference, the proximity penalty table over primary nodes and the
    SIR denominator of every ordered primary pair.  The gradient tables are
    built on first use.  The link tables that do not depend on the geometry
    (link classes, exponents, offsets and fading) are cached per node layout.

    ``positions``, one (n_total, 3) geometry or a (..., n_total, 3) stack,
    replaces the scenario's node positions and is kept as ``positions``;
    every table, gradient tables included, is built from it, so each
    geometry's entries equal those of a state built for it alone, to the
    bit.  The distance, gain and proximity tables of the scenario's own
    geometry are built once; each geometry then recomputes only the rows
    and columns of the nodes whose coordinates differ from it, so a stack
    of one-node bumps costs one row per geometry.  ``sir_matrix`` and
    ``edge_rates`` accept a stack; the gradient tables and the scalar
    lookups need a single geometry.
    """

    def __init__(self, scenario: Scenario, fading: FadingModel,
                 positions: np.ndarray | None = None):
        self.scenario = scenario
        self.fading = fading
        base = scenario.positions
        self.positions = pos = base if positions is None else positions
        lead = pos.shape[:-2]
        n_total = scenario.n_total
        n = scenario.n_primary
        saf = scenario.safety
        a2a, alpha, g2_eta, off, others = _link_layout(
            n_total, n, partition(scenario).aerial, scenario.channel, fading)

        # Rows of distances, gains and proximity terms: first every node of
        # the scenario's own geometry (``both[0]``), then each (geometry g,
        # node) whose coordinates differ from it.  Each geometry's tables are
        # a copy of the first set with those nodes' rows and columns replaced
        # (the tables are symmetric to the bit).  Every row is computed from
        # contiguous operands, as a row of a single state's full table is,
        # so it equals that row to the bit
        flat = pos.reshape(-1, n_total, 3)
        count = flat.shape[0]
        differs = flat != base
        g, moved = np.nonzero(differs[..., 0] | differs[..., 1] | differs[..., 2])
        both = np.concatenate([base[None], flat])
        at = np.concatenate([np.zeros(n_total, dtype=np.intp), g + 1])
        nodes = np.concatenate([np.arange(n_total), moved])
        rows = np.linalg.norm(both[at, nodes][:, None, :] - both[at], axis=-1)
        dist = _replace_rows(rows[:n_total], count, g, moved, rows[n_total:])
        if ((dist == 0.0) & off).any():
            raise ValueError("two nodes share a position; link gain undefined")
        safe_d = np.where(off[nodes], rows, 1.0)
        gains = g2_eta[nodes] * safe_d ** (-alpha[nodes])
        gains[np.arange(len(nodes)), nodes] = 0.0
        gain = _replace_rows(gains[:n_total], count, g, moved, gains[n_total:])
        primary = nodes < n
        terms = smoothed_step(rows[primary, :n] / saf.r_int_m, saf)
        terms[np.arange(len(terms)), nodes[primary]] = 0.0
        mover = moved < n
        u = _replace_rows(terms[:n], count, g[mover], moved[mover], terms[n:])

        self.dist = dist.reshape(lead + dist.shape[1:])
        self.alpha = alpha
        self.a2a = a2a
        self.gain_sq = gain = gain.reshape(lead + gain.shape[1:])
        self.safety_u = u = u.reshape(lead + u.shape[1:])

        si = list(scenario.si_indices)
        # aggregate interference from the fixed sources at each primary receiver.
        # A gather behind leading axes is laid out batch-fastest, so it is
        # made contiguous: every geometry then sees the memory layout of a
        # single state.  matmul loops over the leading axes and makes, for
        # each geometry, the gemv call that geometry's own state makes, so
        # each entry is summed in the same order
        if si:
            sources = np.ascontiguousarray(gain[..., si, :])[..., :n]
            self.interference_w = scenario.si_powers_w @ sources
        else:
            self.interference_w = np.zeros(lead + (n,))

        # safety[..., i, j]: u[j, k] summed over every primary k but i (u[j, j]
        # is zero), gathered as (..., j, i, k) and summed on its contiguous
        # last axis exactly like a masked 1-D row.  Summing the surviving terms
        # directly avoids the cancellation of subtracting a dominant u[j, i]
        # from a full row sum (that subtraction silently absorbs tiny terms)
        self._others = others
        safety = np.take(u, others, axis=-1).sum(axis=-1).swapaxes(-1, -2)
        # sir_denominators[i, j]: sources at j plus chi * proximity sum over k not in {i, j}
        self.sir_denominators = self.interference_w[..., None, :] + saf.chi * safety

    def sir_denominator(self, i: int, j: int) -> float:
        return float(self.sir_denominators[i, j])

    # -- lazy gradient tables --------------------------------------------

    @functools.cached_property
    def safety_slope(self) -> np.ndarray:
        """S[j,k] with d u(d_jk/r)/d r_j = S[j,k] * (r_j - r_k)."""
        n = self.scenario.n_primary
        saf = self.scenario.safety
        d = self.dist[:n, :n]
        safe = np.where(np.eye(n, dtype=bool), 1.0, d)
        s = smoothed_step_slope(d / saf.r_int_m, saf) / (saf.r_int_m * safe)
        np.fill_diagonal(s, 0.0)
        return s

    @functools.cached_property
    def si_interference_grad(self) -> np.ndarray:
        """(n_primary, 3): gradient of the aggregate interference at receiver j
        with respect to receiver j's own position."""
        sc = self.scenario
        n = sc.n_primary
        si = list(sc.si_indices)
        if not si:
            return np.zeros((n, 3))
        pos = self.positions
        d = self.dist[si, :n]
        coeff = (sc.si_powers_w[:, None] * (-self.alpha[si, :n])
                 * self.gain_sq[si, :n] / d ** 2)
        diff = pos[:n][None, :, :] - pos[si][:, None, :]
        return np.einsum("mj,mjc->jc", coeff, diff)

    @functools.cached_property
    def safety_sum_gradients(self) -> np.ndarray:
        """(n_primary, n_primary, 3): entry [i, j, axis] is the derivative of the
        proximity sum over k not in {i, j} w.r.t. receiver j's coordinate."""
        n = self.scenario.n_primary
        pos = self.positions[:n]
        # terms[j, axis, k] = S[j, k] * (r_j - r_k)[axis]
        terms = self.safety_slope[:, None, :] * (pos[:, :, None] - pos.T[None, :, :])
        return terms[np.arange(n)[None, :, None, None], np.arange(3)[None, None, :, None],
                     self._others[:, None, None, :]].sum(axis=-1)

    def safety_sum_gradient(self, i: int, j: int, axis: int) -> float:
        """d/d(receiver j coordinate) of the proximity sum over k not in {i, j}."""
        return float(self.safety_sum_gradients[i, j, axis])


def build_state(scenario: Scenario, fading: FadingModel | None = None) -> ChannelState:
    return _state_for(scenario, fading)


def _state_for(scenario, fading, state=None, positions=None) -> ChannelState:
    """``state``, or a new one at ``positions`` (default: the scenario's)."""
    if state is not None:
        return state
    return ChannelState(scenario, fading or FadingModel.unit_gain(), positions)


def link_gain(i: int, j: int, scenario: Scenario,
              fading: FadingModel | None = None,
              state: ChannelState | None = None) -> LinkGain:
    """Full budget of link i -> j.  Errors on i == j or coincident nodes."""
    if i == j:
        raise ValueError("link endpoints must differ")
    st = _state_for(scenario, fading, state)
    d = float(st.dist[i, j])
    return LinkGain(
        path_loss_db=float(st.alpha[i, j] * 10.0 * np.log10(d)
                           + scenario.channel.eta_db(bool(st.a2a[i, j]))),
        gain_sq=float(st.gain_sq[i, j]),
        distance_m=d,
        a2a=bool(st.a2a[i, j]),
    )


_ZERO_DENOMINATOR = ("zero SIR denominator: no interference sources and no "
                     "proximity term (chi = 0 or fully decayed)")


def sir_matrix(scenario: Scenario, state: ChannelState) -> np.ndarray:
    """(..., n_primary, n_primary) SIR of every ordered pair at the scenario's
    powers, one table per geometry of a stacked state.

    Unchecked: a zero denominator gives inf or nan, and the diagonal means
    nothing.  ``sir`` is the checked lookup of one entry.
    """
    n = scenario.n_primary
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return (scenario.node_powers_w[:, None] * state.gain_sq[..., :n, :n]
                / state.sir_denominators)


def _require_primary_pair(i, j, scenario):
    n = scenario.n_primary
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("SIR is defined between primary nodes only")
    if i == j:
        raise ValueError("SIR undefined for a node talking to itself")


def _finite_sir(value) -> float:
    # a denormal proximity-only denominator overflows the quotient; that is
    # the zero-denominator case in all but the last few bits
    if not math.isfinite(value):
        raise ValueError(_ZERO_DENOMINATOR)
    return float(value)


def sir(i: int, j: int, scenario: Scenario,
        fading: FadingModel | None = None,
        state: ChannelState | None = None) -> float:
    """Signal-to-interference ratio of link i -> j at receiver j.

    The denominator adds the received powers of every fixed interference
    source to the proximity penalty summed over all primary nodes other than
    i and j, scaled by chi.  There is no thermal noise term; a scenario with
    no sources and chi = 0 therefore has no defined SIR.
    """
    _require_primary_pair(i, j, scenario)
    st = _state_for(scenario, fading, state)
    return _finite_sir(sir_matrix(scenario, st)[i, j])


def _checked_sirs(edges, scenario, state) -> np.ndarray:
    """SIR matrix, checked as ``sir`` checks them on both directions of each
    edge, in every geometry of a stacked state."""
    sirs = sir_matrix(scenario, state)
    finite = np.isfinite(sirs).all(axis=tuple(range(sirs.ndim - 2)))
    for p, q in edges:
        if p != q:
            for i, j in ((p, q), (q, p)):
                _require_primary_pair(i, j, scenario)
                if not finite[i, j]:
                    raise ValueError(_ZERO_DENOMINATOR)
    return sirs


def _endpoints(edges):
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def _rates(scenario, sirs, edges) -> np.ndarray:
    p, q = _endpoints(edges)
    b = scenario.channel.bandwidth_hz
    rates = 0.5 * b * (np.log2(1.0 + sirs[..., p, q]) + np.log2(1.0 + sirs[..., q, p]))
    return np.where(p == q, 0.0, rates)


def edge_rates(scenario: Scenario, state: ChannelState) -> np.ndarray:
    """(..., n_edges) rates of the topology edges in topology order, bit/s
    (see ``edge_rate``), one row per geometry of a stacked state."""
    return _rates(scenario, _checked_sirs(scenario.topology, scenario, state),
                  scenario.topology)


def edge_rate(i: int, j: int, scenario: Scenario,
              fading: FadingModel | None = None,
              state: ChannelState | None = None) -> float:
    """Symmetric half-duplex rate of topology edge (i, j) in bit/s.

    Each direction gets half the bandwidth: B/2 * (log2(1+SIR_ij) +
    log2(1+SIR_ji)).  Zero for i == j.
    """
    if i == j:
        return 0.0
    _require_edge(i, j, scenario)
    st = _state_for(scenario, fading, state)
    edge = [(i, j)]
    return float(_rates(scenario, _checked_sirs(edge, scenario, st), edge)[0])


def _require_edge(i, j, scenario):
    if (i, j) not in scenario.topology and (j, i) not in scenario.topology:
        raise ValueError(f"({i}, {j}) is not a topology edge")


def _resolve_wrt(scenario, wrt):
    t, axis = wrt
    t = int(t)
    if not (0 <= t < scenario.n_primary) or scenario.classes[t] is not NodeClass.RELAY_UAV:
        raise ValueError(f"node {t} is not a relay UAV; only UAVs move")
    if axis in ("x", "y", "z"):
        axis = "xyz".index(axis)
    axis = int(axis)
    if axis not in (0, 1, 2):
        raise ValueError("axis must be one of x, y, z")
    return t, axis


def sir_jacobian(scenario: Scenario, state: ChannelState) -> np.ndarray:
    """(n_primary, n_primary, n_uavs, 3): d sir(i, j) / d(UAV coordinate).

    Unchecked like ``sir_matrix``; ``sir_spatial_gradient`` is the checked
    lookup of one entry.  Each entry is dnum/denom - (num/denom)*(dden/denom)
    with the per-pair formula's association, including its ``0.0 +`` start
    of the denominator derivative (which turns a -0.0 term into +0.0).
    """
    sc, st = scenario, state
    n = sc.n_primary
    pos = st.positions[:n]
    powers = sc.node_powers_w
    gain = st.gain_sq[:n, :n]
    chi = sc.safety.chi
    diff = pos[:, None, :] - pos[None, :, :]        # diff[a, b] = r_a - r_b
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    d = st.dist[i, j]

    # numerator: the link gain moves with either endpoint
    k = (powers[i] * (-st.alpha[i, j] * gain[i, j] / d))[:, None]
    dnum = np.zeros((n, n, n, 3))
    dnum[i, j, i] = k * (diff[i, j] / d[:, None])
    dnum[i, j, j] = k * (diff[j, i] / d[:, None])

    # denominator: a third party t moves its own proximity term at j; the
    # receiver moves the source interference and the whole proximity sum
    dden = np.zeros((n, n, n, 3))
    if chi != 0.0:
        dden[:] = 0.0 + chi * st.safety_slope[:, :, None] * diff.transpose(1, 0, 2)
    own = 0.0 + st.si_interference_grad[j]
    if chi != 0.0:
        own = own + chi * st.safety_sum_gradients[i, j]
    dden[i, j, j] = own
    dden[i, j, i] = 0.0

    denom = st.sir_denominators[:, :, None, None]
    num = (powers[:, None] * gain)[:, :, None, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = dnum / denom - (num / denom) * (dden / denom)
    return g[:, :, list(sc.uav_indices)]


def sir_spatial_gradient(i: int, j: int, wrt, scenario: Scenario,
                         fading: FadingModel | None = None,
                         state: ChannelState | None = None) -> float:
    """Exact partial derivative of sir(i, j) w.r.t. one UAV coordinate.

    Three mechanisms contribute: the numerator gain when the moving UAV is an
    endpoint, the source interference at j when the mover is j itself, and the
    proximity penalty, which couples every primary node within range of the
    receiver (so with chi > 0 a third-party UAV has a nonzero derivative).
    """
    t, c = _resolve_wrt(scenario, wrt)
    if i == j:
        raise ValueError("SIR undefined for a node talking to itself")
    st = _state_for(scenario, fading, state)
    if st.sir_denominators[i, j] == 0.0:
        raise ValueError(_ZERO_DENOMINATOR)
    return float(sir_jacobian(scenario, st)[i, j, scenario.uav_indices.index(t), c])


def _rate_jacobian(scenario, state, sirs, edges) -> np.ndarray:
    p, q = _endpoints(edges)
    g = sir_jacobian(scenario, state)
    b = scenario.channel.bandwidth_hz
    jac = b / (2.0 * LN2) * (g[p, q] / (1.0 + sirs[p, q])[:, None, None]
                             + g[q, p] / (1.0 + sirs[q, p])[:, None, None])
    jac[p == q] = 0.0
    return jac


def rate_jacobian(scenario: Scenario, state: ChannelState) -> np.ndarray:
    """(n_edges, n_uavs, 3): derivative of each topology edge rate, in topology
    order, w.r.t. every UAV coordinate (see ``rate_spatial_gradient``)."""
    sirs = _checked_sirs(scenario.topology, scenario, state)
    return _rate_jacobian(scenario, state, sirs, scenario.topology)


def rate_spatial_gradient(p: int, q: int, wrt, scenario: Scenario,
                          fading: FadingModel | None = None,
                          state: ChannelState | None = None) -> float:
    """Exact partial derivative of edge_rate(p, q) w.r.t. one UAV coordinate.

    Chain rule through both directed SIRs of the edge, including the
    1/(2 ln 2) factor from differentiating log2.
    """
    if p == q:
        return 0.0
    _require_edge(p, q, scenario)
    st = _state_for(scenario, fading, state)
    edge = [(p, q)]
    sirs = _checked_sirs(edge, scenario, st)
    t, c = _resolve_wrt(scenario, wrt)
    return float(_rate_jacobian(scenario, st, sirs, edge)[0, scenario.uav_indices.index(t), c])
