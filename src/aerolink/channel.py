"""Radio links: path loss, fading, SIR, edge rates, and their spatial gradients.

The signal model is log-distance path loss on top of an optional small-scale
fading draw.  A transmission from i to j is received with power
``P_i * |h_ij|^2`` where ``|h_ij|^2 = |g_ij|^2 * 10^(-eta/10) * d_ij^(-alpha)``.
The link budget at a receiver competes against two terms: aggregate
interference from the fixed sources, and a smoothed proximity penalty that
grows steeply once another primary node comes within the separation radius.

Everything is computed as arrays, once per geometry.  ``ChannelState`` holds
the power-independent tables (gains, the SIR denominator of every ordered
primary pair, the proximity-sum gradients) of the positions it is given,
and the scenario (layout and powers) and fading it was built with; every
function here reads both from the state.  ``sir_matrix``, ``sir_jacobian``,
``edge_rates`` and ``rate_jacobian`` combine the tables with the state's
scenario powers.  Each array keeps the association of the per-pair formula
it replaces (the same masked 1-D sums, ``(num/denom)*(dden/denom)``), so
its entries equal a pair-at-a-time evaluation to the bit.  A state may also
hold a stack of geometries (leading axes before the node axes); the four
then return one table per geometry (at those powers or at a ``powers``
argument with the same leading axes), each equal to the bit to that
geometry's own.  A state computes the rows of the nodes that differ
from its reference state's geometry, or every row without a reference.
Every derivative is an entry of ``sir_jacobian`` or ``rate_jacobian``; the
value lookups (``sir``, ``edge_rate``, ``link_gain``) index into the tables
and raise only for the pair they are asked about.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .scenario import SafetyParams, Scenario, partition

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


_GEOMETRY_TABLES = ("positions", "dist", "gain_sq", "safety_u", "interference_w",
                    "sir_denominators")


class ChannelState:
    """Position-dependent link quantities shared by SIR, rate, and gradient calls.

    Holds everything that does not change with primary transmit powers:
    pairwise distances, squared channel gains, per-receiver aggregate
    interference, the proximity penalty table over primary nodes and the
    SIR denominator of every ordered primary pair.  The gradient tables are
    built on first use.  The link tables that do not depend on the geometry
    (link classes, exponents, offsets and fading) are cached per node layout.

    It keeps ``scenario`` (layout and powers) and ``fading``, which every
    evaluation of the state reads.  ``positions``, one (n_total, 3) geometry
    or a (..., n_total, 3) stack, replaces the scenario's node positions and
    is kept as ``positions``; every table, gradient tables included, is
    built from it, so each geometry's entries equal those of a state built
    for it alone, to the bit.  One rule decides which rows a state computes:
    those of every node whose coordinates differ from its ``reference``
    state's geometry (whose leading axes must begin the stack's), or every
    row without a reference.  A geometry takes the rest of its tables from
    its reference, so a stack of one-node bumps costs one row per geometry
    and a geometry equal to its reference none.  Every table carries the
    stack's leading axes; the scalar lookups need a single geometry.
    """

    def __init__(self, scenario: Scenario, fading: FadingModel,
                 positions: np.ndarray | None = None,
                 reference: "ChannelState | None" = None):
        if reference is not None and (reference.scenario is not scenario
                                      or reference.fading != fading):
            raise ValueError("a state over a reference takes its scenario and fading")
        self.scenario = scenario
        self.fading = fading
        self.positions = pos = scenario.positions if positions is None else positions
        lead = pos.shape[:-2]
        n_total = scenario.n_total
        n = scenario.n_primary
        saf = scenario.safety
        a2a, alpha, g2_eta, off, others = _link_layout(
            n_total, n, partition(scenario).aerial, scenario.channel, fading)

        # Rows of distances, gains and proximity terms, in one batch, for
        # each (geometry g, node) that differs from g's reference geometry
        # (every node without a reference).  Each row is computed from
        # contiguous operands, as a row of a single state's full table is,
        # so it equals that row to the bit; the tables are symmetric to the bit
        geoms = pos.reshape(-1, n_total, 3)
        if reference is None:
            g = np.repeat(np.arange(len(geoms)), n_total)
            moved = np.tile(np.arange(n_total), len(geoms))
        else:
            refs = reference.positions.reshape(-1, n_total, 3)
            per_ref = len(geoms) // len(refs)
            differs = geoms.reshape(len(refs), per_ref, n_total, 3) != refs[:, None]
            owner, k, moved = np.nonzero(differs[..., 0] | differs[..., 1] | differs[..., 2])
            g = owner * per_ref + k
        rows = np.linalg.norm(geoms[g, moved][:, None, :] - geoms[g], axis=-1)

        def assemble(name, g, nodes, rows):
            # the rows as they are, or a copy of the reference's table per
            # geometry with rows and columns ``nodes`` of geometry ``g`` replaced
            if reference is None:
                return rows.reshape(lead + rows.shape[-1:] * 2)
            base = getattr(reference, name).reshape((len(refs), 1) + rows.shape[-1:] * 2)
            out = np.repeat(base, per_ref, axis=1).reshape((-1,) + base.shape[2:])
            out[g, nodes] = rows
            out[g, :, nodes] = rows
            return out.reshape(lead + base.shape[2:])

        self.dist = dist = assemble("dist", g, moved, rows)
        if ((dist == 0.0) & off).any():
            raise ValueError("two nodes share a position; link gain undefined")
        safe_d = np.where(off[moved], rows, 1.0)
        gains = g2_eta[moved] * safe_d ** (-alpha[moved])
        gains[np.arange(len(moved)), moved] = 0.0
        mover = moved < n
        terms = smoothed_step(rows[mover, :n] / saf.r_int_m, saf)
        terms[np.arange(len(terms)), moved[mover]] = 0.0
        self.alpha = alpha
        self.a2a = a2a
        self.gain_sq = gain = assemble("gain_sq", g, moved, gains)
        self.safety_u = u = assemble("safety_u", g[mover], moved[mover], terms)

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

    def _select(self, index) -> "ChannelState":
        """The state of the geometries ``index`` picks on the first leading
        axis (``None`` adds one; an integer index gives a single geometry's
        state): views of these tables, built without computing anything."""
        return self._with(table[index] for table in self._tables())

    def _tables(self) -> list:
        """The per-geometry tables, positions first."""
        return [getattr(self, name) for name in _GEOMETRY_TABLES]

    def _with(self, tables) -> "ChannelState":
        out = ChannelState.__new__(ChannelState)
        out.__dict__.update(scenario=self.scenario, fading=self.fading, alpha=self.alpha,
                            a2a=self.a2a, _others=self._others)
        out.__dict__.update(zip(_GEOMETRY_TABLES, tables))
        return out

    # -- lazy gradient tables --------------------------------------------

    @functools.cached_property
    def safety_slope(self) -> np.ndarray:
        """S[j,k] with d u(d_jk/r)/d r_j = S[j,k] * (r_j - r_k)."""
        n = self.scenario.n_primary
        saf = self.scenario.safety
        d = self.dist[..., :n, :n]
        diag = np.arange(n)
        safe = np.where(np.eye(n, dtype=bool), 1.0, d)
        s = smoothed_step_slope(d / saf.r_int_m, saf) / (saf.r_int_m * safe)
        s[..., diag, diag] = 0.0
        return s

    @functools.cached_property
    def si_interference_grad(self) -> np.ndarray:
        """(..., n_primary, 3): gradient of the aggregate interference at
        receiver j with respect to receiver j's own position."""
        sc = self.scenario
        n = sc.n_primary
        si = list(sc.si_indices)
        grad = np.zeros(self.positions.shape[:-2] + (n, 3))
        pos = self.positions
        d = self.dist[..., si, :n]
        coeff = (sc.si_powers_w[:, None] * (-self.alpha[si, :n])
                 * self.gain_sq[..., si, :n] / d ** 2)
        terms = coeff[..., None] * (pos[..., None, :n, :] - pos[..., si, None, :])
        # summed source by source from zero, in source order: the order of
        # the einsum("mj,mjc->jc") this replaces, pinned for every geometry
        for m in range(len(si)):
            grad += terms[..., m, :, :]
        return grad

    @functools.cached_property
    def safety_sum_gradients(self) -> np.ndarray:
        """(..., n_primary, n_primary, 3): entry [i, j, axis] is the derivative
        of the proximity sum over k not in {i, j} w.r.t. receiver j's
        coordinate."""
        n = self.scenario.n_primary
        pos = self.positions[..., :n, :]
        # terms[j, axis, k] = S[j, k] * (r_j - r_k)[axis]
        terms = self.safety_slope[..., :, None, :] * (
            pos[..., :, :, None] - pos.swapaxes(-1, -2)[..., None, :, :])
        # gathered as (j, axis, i, k) and summed on its contiguous last axis
        # for every geometry; then laid out as (i, j, axis)
        sums = np.take(terms, self._others, axis=-1).sum(axis=-1)
        return np.moveaxis(sums, -1, -3)


def _join(parts, count: int):
    """One object over ``count`` geometries from (obj, picks, slots) parts,
    each obj a stacked ``ChannelState`` or ``LaplacianBundle`` (its
    per-geometry arrays from ``_tables()``, rebuilt by ``_with``) and picks
    and slots lists of indices (possibly empty): geometry ``picks[i]`` of a
    part becomes geometry ``slots[i]``.  A part that fills every slot in
    order with its own geometries in order is returned as it is."""
    whole = list(range(count))
    for obj, picks, slots in parts:
        if slots == whole and picks == whole and len(obj._tables()[0]) == count:
            return obj
    joined = []
    for k, table in enumerate(parts[0][0]._tables()):
        out = np.empty((count,) + table.shape[1:], dtype=table.dtype)
        for obj, picks, slots in parts:
            out[slots] = obj._tables()[k][picks]
        joined.append(out)
    return parts[0][0]._with(joined)


def build_state(scenario: Scenario, fading: FadingModel | None = None) -> ChannelState:
    """The state of the scenario's own positions (default: unit gains)."""
    return ChannelState(scenario, fading or FadingModel.unit_gain())


def link_gain(i: int, j: int, state: ChannelState) -> LinkGain:
    """Full budget of link i -> j.  Errors on i == j or coincident nodes."""
    if i == j:
        raise ValueError("link endpoints must differ")
    d = float(state.dist[i, j])
    a2a = bool(state.a2a[i, j])
    return LinkGain(path_loss_db=float(state.alpha[i, j] * 10.0 * np.log10(d)
                                       + state.scenario.channel.eta_db(a2a)),
                    gain_sq=float(state.gain_sq[i, j]), distance_m=d, a2a=a2a)


_ZERO_DENOMINATOR = ("zero SIR denominator: no interference sources and no "
                     "proximity term (chi = 0 or fully decayed)")


def sir_matrix(state: ChannelState, powers: np.ndarray | None = None) -> np.ndarray:
    """(..., n_primary, n_primary) SIR of every ordered pair, one table per
    geometry of a stacked state, at ``powers`` (default: the state's
    scenario's; (..., n_primary) gives each geometry its own).

    Unchecked: a zero denominator gives inf or nan, and the diagonal means
    nothing.  ``sir`` is the checked lookup of one entry.
    """
    n = state.scenario.n_primary
    powers = state.scenario.node_powers_w if powers is None else powers
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return powers[..., :, None] * state.gain_sq[..., :n, :n] / state.sir_denominators


def _require_primary_pair(i, j, n):
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


def sir(i: int, j: int, state: ChannelState) -> float:
    """Signal-to-interference ratio of link i -> j at receiver j.

    The denominator adds the received powers of every fixed interference
    source to the proximity penalty summed over all primary nodes other than
    i and j, scaled by chi.  There is no thermal noise term; a scenario with
    no sources and chi = 0 therefore has no defined SIR.
    """
    _require_primary_pair(i, j, state.scenario.n_primary)
    return _finite_sir(sir_matrix(state)[i, j])


def _checked_sirs(edges: tuple, state, powers=None) -> np.ndarray:
    """SIR matrix, checked as ``sir`` checks them on both directions of each
    edge, in every geometry of a stacked state."""
    sirs = sir_matrix(state, powers)
    p, q = _endpoints(edges)
    if not (np.isfinite(sirs[..., p, q]).all() and np.isfinite(sirs[..., q, p]).all()):
        raise ValueError(_ZERO_DENOMINATOR)
    return sirs


@functools.lru_cache(maxsize=64)
def _endpoints(edges: tuple) -> tuple:
    """Index arrays of the edges' first and second endpoints (read-only)."""
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    p, q = ends[:, 0].copy(), ends[:, 1].copy()
    p.setflags(write=False)
    q.setflags(write=False)
    return p, q


def _rates(state, edges, powers=None) -> np.ndarray:
    sirs = _checked_sirs(edges, state, powers)
    p, q = _endpoints(edges)
    b = state.scenario.channel.bandwidth_hz
    return 0.5 * b * (np.log2(1.0 + sirs[..., p, q]) + np.log2(1.0 + sirs[..., q, p]))


def edge_rates(state: ChannelState, powers: np.ndarray | None = None) -> np.ndarray:
    """(..., n_edges) rates of the topology edges in topology order, bit/s
    (see ``edge_rate``), one row per geometry of a stacked state, at
    ``powers`` as in ``sir_matrix``."""
    return _rates(state, state.scenario.topology, powers)


def edge_rate(i: int, j: int, state: ChannelState) -> float:
    """Symmetric half-duplex rate of topology edge (i, j) in bit/s.

    Each direction gets half the bandwidth: B/2 * (log2(1+SIR_ij) +
    log2(1+SIR_ji)).
    """
    _require_edge(i, j, state.scenario)
    return float(_rates(state, ((i, j),))[0])


def _require_edge(i, j, scenario):
    if (i, j) not in scenario.topology and (j, i) not in scenario.topology:
        raise ValueError(f"({i}, {j}) is not a topology edge")


def _pair_jacobian(state, powers, i, j) -> np.ndarray:
    """(..., m, n_uavs, 3): d sir(i[k], j[k]) / d(UAV coordinate) for m
    ordered pairs with i[k] != j[k], one table per geometry of a stacked
    state.  Each entry is the per-pair formula's, with its association."""
    sc, st = state.scenario, state
    n = sc.n_primary
    lead = st.dist.shape[:-2]
    pair = np.arange(len(i))
    pos = st.positions[..., :n, :]
    powers = sc.node_powers_w if powers is None else powers
    chi = sc.safety.chi
    d = st.dist[..., i, j][..., None]
    gain = st.gain_sq[..., i, j]

    # numerator: the link gain moves with either endpoint
    dnum = np.zeros(lead + (len(i), n, 3))
    k = (powers[..., i] * (-st.alpha[i, j] * gain / d[..., 0]))[..., None]
    dnum[..., pair, i, :] = k * ((pos[..., i, :] - pos[..., j, :]) / d)
    dnum[..., pair, j, :] = k * ((pos[..., j, :] - pos[..., i, :]) / d)

    # denominator: a third party t moves its own proximity term at j; the
    # receiver moves the source interference and the whole proximity sum
    if chi != 0.0:
        dden = 0.0 + chi * st.safety_slope[..., j, :, None] * (
            pos[..., None, :, :] - pos[..., j, None, :])
    else:
        dden = np.zeros(lead + (len(i), n, 3))
    own = 0.0 + st.si_interference_grad[..., j, :]
    if chi != 0.0:
        own = own + chi * st.safety_sum_gradients[..., i, j, :]
    dden[..., pair, j, :] = own
    dden[..., pair, i, :] = 0.0

    denom = st.sir_denominators[..., i, j][..., None, None]
    num = (powers[..., i] * gain)[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = dnum / denom - (num / denom) * (dden / denom)
    return g[..., list(sc.uav_indices), :]


def sir_jacobian(state: ChannelState, powers: np.ndarray | None = None) -> np.ndarray:
    """(..., n_primary, n_primary, n_uavs, 3): d sir(i, j) / d(UAV coordinate),
    one table per geometry of a stacked state, at ``powers`` as in
    ``sir_matrix``; the diagonal is zero.

    Unchecked like ``sir_matrix``; with chi > 0 the proximity penalty gives
    a third-party UAV a nonzero derivative.  Each entry is
    dnum/denom - (num/denom)*(dden/denom) with the per-pair formula's
    association, including its ``0.0 +`` start of the denominator
    derivative (which turns a -0.0 term into +0.0).
    """
    n = state.scenario.n_primary
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    g = _pair_jacobian(state, powers, i, j)
    out = np.zeros(g.shape[:-3] + (n, n) + g.shape[-2:])
    out[..., i, j, :, :] = g
    return out


def rate_jacobian(state: ChannelState, powers: np.ndarray | None = None) -> np.ndarray:
    """(..., n_edges, n_uavs, 3): derivative of each topology edge rate, in
    topology order, w.r.t. every UAV coordinate (the chain rule through both
    directed SIRs), one table per geometry of a stacked state, at ``powers``
    as in ``sir_matrix``."""
    topology = state.scenario.topology
    sirs = _checked_sirs(topology, state, powers)
    p, q = _endpoints(topology)
    # both directions of every edge
    g = _pair_jacobian(state, powers, np.concatenate([p, q]), np.concatenate([q, p]))
    forward, backward = g[..., :len(p), :, :], g[..., len(p):, :, :]
    b = state.scenario.channel.bandwidth_hz
    return b / (2.0 * LN2) * (forward / (1.0 + sirs[..., p, q])[..., None, None]
                              + backward / (1.0 + sirs[..., q, p])[..., None, None])
