"""Radio links: path loss, fading, SIR, edge rates, and their spatial gradients.

The signal model is log-distance path loss on top of an optional small-scale
fading draw.  A transmission from i to j is received with power
``P_i * |h_ij|^2`` where ``|h_ij|^2 = |g_ij|^2 * 10^(-eta/10) * d_ij^(-alpha)``.
The link budget at a receiver competes against two terms: aggregate
interference from the fixed sources, and a smoothed proximity penalty that
grows steeply once another primary node comes within the separation radius.

Everything is computed as arrays, once per geometry.  ``ChannelState`` is
one evaluation point per geometry: the power-independent tables of the
positions it is given (distances, gains, source interference, proximity
terms), the transmit powers and source thresholds they are evaluated at,
and the scenario (layout) and fading; every function here reads them from
the state.  The rates, the Laplacian and its gradient read only the
topology's directed links (p -> q, then q -> p of every edge; ``_links``),
so a state keeps the SIR denominators (``link_denominators``), and builds
the proximity-sum gradients (``link_sum_gradients``), of those links only;
``_link_sirs`` and ``_link_jacobian`` are the SIRs and their derivatives
over them.  Each array keeps the association of the per-pair formula it
replaces (the same masked 1-D sums, ``(num/denom)*(dden/denom)``), so its
entries equal a pair-at-a-time evaluation to the bit.  A state may also
hold a stack of geometries (leading axes before the node axes), each at its
own powers and thresholds; the functions then return one table per
geometry, each equal to the bit to that geometry's own.  A state computes
the rows of the nodes that differ from its reference state's geometry, or
every row without a reference.  Every derivative is an entry of
``rate_jacobian``; the value lookups (``sir``, ``edge_rate``,
``link_gain``) compute or index the pair they are asked about and raise
only for it.
"""

from __future__ import annotations

import functools
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
    if (d <= 0.0).any():
        raise ValueError("path loss undefined at zero distance")
    alpha = channel.alpha_a2a if a2a else channel.alpha_a2g
    return alpha * 10.0 * np.log10(d) + channel.eta_db(a2a)


def _norms(vectors: np.ndarray) -> np.ndarray:
    """Euclidean norms of (..., 3) vectors, equal to the bit to
    ``np.linalg.norm(vectors, axis=-1)``: its reduction adds the three
    squares in order, which three array additions do without a reduction's
    cost per row."""
    sq = vectors * vectors
    return np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2])


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
    # stable in both tails: e = exp(-|z|) is exp(-z) where z >= 0 and
    # exp(z) elsewhere, and never overflows
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0.0, 1.0, e) / (1.0 + e)
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
                    "link_denominators", "powers", "i_max_w")


class ChannelState:
    """One evaluation point per geometry: link tables, powers and thresholds.

    Holds the tables that do not change with primary transmit powers:
    pairwise distances, squared channel gains, per-receiver aggregate
    interference, the proximity penalty table over primary nodes and the
    SIR denominator of each directed link of the topology
    (``link_denominators``, in ``_links`` order); and the values it is
    evaluated at: the primary transmit powers (``powers``, (...,
    n_primary)) and the source thresholds (``i_max_w``, (..., n_si)).  The
    gradient tables (``link_sum_gradients`` among them) and the source
    gains are built on first use.  The link tables that do not depend on the
    geometry (link classes, exponents, offsets and fading) are cached per
    node layout.

    It keeps ``scenario`` (the layout) and ``fading``, which every
    evaluation of the state reads.  ``powers`` and ``i_max_w`` are taken as
    given, else from the ``reference`` state, else from the scenario, and
    copied to one row per geometry where they lack the stack's axes.
    ``positions``, one (n_total, 3) geometry or a (..., n_total, 3) stack,
    replaces the scenario's node positions and is kept as ``positions``;
    every table, gradient tables included, is built from it, so each
    geometry's entries equal those of a state built for it alone, to the
    bit.  One rule decides which rows a state computes:
    those of every node whose coordinates differ from its ``reference``
    state's geometry (whose leading axes must begin the stack's), or every
    row without a reference.  A geometry takes the rest of its tables from
    its reference, so a stack of one-node bumps costs one row per geometry
    and a geometry equal to its reference none; only the computed rows are
    checked for coincident nodes, since the reference's were checked when it
    was built.  Every table carries the stack's leading axes; the scalar
    lookups need a single geometry.
    """

    def __init__(self, scenario: Scenario, fading: FadingModel,
                 positions: np.ndarray | None = None,
                 reference: "ChannelState | None" = None, *,
                 powers: np.ndarray | None = None, i_max_w: np.ndarray | None = None):
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
            g, moved = np.divmod(np.arange(len(geoms) * n_total), n_total)
        else:
            refs = reference.positions.reshape(-1, n_total, 3)
            per_ref = len(geoms) // len(refs)
            differs = geoms.reshape(len(refs), per_ref, n_total, 3) != refs[:, None]
            owner, k, moved = np.nonzero(differs[..., 0] | differs[..., 1] | differs[..., 2])
            g = owner * per_ref + k
        rows = _norms(geoms[g, moved][:, None, :] - geoms[g])

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

        # the computed rows hold every pair a move can bring together
        apart = off[moved]
        if ((rows == 0.0) & apart).any():
            raise ValueError("two nodes share a position; link gain undefined")
        self.dist = assemble("dist", g, moved, rows)
        # a node's own entry is 0.0
        safe_d = np.where(apart, rows, 1.0)
        gains = np.where(apart, g2_eta[moved] * safe_d ** (-alpha[moved]), 0.0)
        mover = moved < n
        terms = np.where(apart[mover, :n], smoothed_step(rows[mover, :n] / saf.r_int_m, saf), 0.0)
        self.alpha = alpha
        self.a2a = a2a
        self.gain_sq = gain = assemble("gain_sq", g, moved, gains)
        self.safety_u = assemble("safety_u", g[mover], moved[mover], terms)

        si = list(scenario.si_indices)
        # aggregate interference from the fixed sources at each primary receiver.
        # ``take`` lays its gather out contiguously: every geometry then sees
        # the memory layout of a single state.  matmul loops over the leading
        # axes and makes, for each geometry, the gemv call that geometry's
        # own state makes, so each entry is summed in the same order
        if si:
            sources = np.take(gain, si, axis=-2)[..., :n]
            self.interference_w = scenario.si_powers_w @ sources
        else:
            self.interference_w = np.zeros(lead + (n,))

        self._others = others
        # the rates, the Laplacian and its gradient read these pairs only
        self.link_denominators = self._denominators(*_links(scenario.topology))

        if reference is not None:
            powers = reference.powers if powers is None else powers
            i_max_w = reference.i_max_w if i_max_w is None else i_max_w
        self.powers = _rows(powers, scenario.node_powers_w, lead,
                            "need one power per primary node")
        self.i_max_w = _rows(i_max_w, scenario.i_max_w, lead,
                             "need one threshold per interference source")

    def _select(self, index) -> "ChannelState":
        """The state of the geometries ``index`` picks on the first leading
        axis (``None`` adds one; an integer index gives a single geometry's
        state): views of these tables, built without computing anything."""
        return self._with(table[index] for table in self._tables())

    def _at(self, powers) -> "ChannelState":
        """This state at other primary powers (one row per geometry): its
        tables, lazy ones included, as they are, since none depends on them."""
        out = ChannelState.__new__(ChannelState)
        out.__dict__.update(self.__dict__, powers=powers)
        return out

    def _tables(self) -> list:
        """The per-geometry tables, positions first."""
        return [getattr(self, name) for name in _GEOMETRY_TABLES]

    def _with(self, tables) -> "ChannelState":
        out = ChannelState.__new__(ChannelState)
        out.__dict__.update(scenario=self.scenario, fading=self.fading, alpha=self.alpha,
                            a2a=self.a2a, _others=self._others)
        out.__dict__.update(zip(_GEOMETRY_TABLES, tables))
        return out

    # -- lazy tables --------------------------------------------------------

    @functools.cached_property
    def source_gains(self) -> np.ndarray:
        """(..., n_primary, n_si): squared gain from each primary transmitter
        to each interference source."""
        sc = self.scenario
        return self.gain_sq[..., :sc.n_primary, list(sc.si_indices)]

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
        pos = self.positions
        d = self.dist[..., si, :n]
        coeff = (sc.si_powers_w[:, None] * (-self.alpha[si, :n])
                 * self.gain_sq[..., si, :n] / d ** 2)
        terms = coeff[..., None] * (pos[..., None, :n, :] - pos[..., si, None, :])
        # summed source by source from +0.0, in source order (a reduction
        # over an outer axis adds whole slices in order): the order of the
        # einsum("mj,mjc->jc") this replaces, pinned for every geometry
        return np.add.reduce(terms, axis=-3, initial=0.0)

    # -- proximity sums: denominators of any pairs, gradients of the links --
    # Each gathers its pairs' rows behind the leading axes and makes them
    # contiguous before summing: a gather behind leading axes is laid out
    # batch-fastest, and a strided row is summed in another order.  Every
    # row is then summed on its contiguous last axis exactly like a masked
    # 1-D row, whatever the pairs and the stack.  Summing the surviving
    # terms directly avoids the cancellation of subtracting a dominant term
    # from a full row sum (that subtraction silently absorbs tiny terms)

    def _denominators(self, i, j) -> np.ndarray:
        """(..., m): the SIR denominator of each pair i[k] -> j[k]: the
        sources at j plus chi times the proximity sum at j over every
        primary node but i and j (u[j, j] is zero)."""
        sums = np.ascontiguousarray(self.safety_u[..., j[:, None], self._others[i]]).sum(axis=-1)
        return self.interference_w[..., j] + self.scenario.safety.chi * sums

    @functools.cached_property
    def link_sum_gradients(self) -> np.ndarray:
        """(..., 2 * n_edges, 3): entry [k, axis] is the derivative of
        directed link k's proximity sum (over every primary node but its
        endpoints) w.r.t. its receiver's coordinate (see ``_links``)."""
        i, j = _links(self.scenario.topology)
        n = self.scenario.n_primary
        cols = self.positions[..., :n, :].swapaxes(-1, -2)
        # terms[axis, j, k] = S[j, k] * (r_j - r_k)[axis]
        terms = self.safety_slope[..., None, :, :] * (cols[..., :, :, None] - cols[..., :, None, :])
        sums = np.ascontiguousarray(terms[..., j[:, None], self._others[i]]).sum(axis=-1)
        return sums.swapaxes(-1, -2)


def _rows(values, default, lead: tuple, message: str) -> np.ndarray:
    """``values`` (default: ``default``) as one row per geometry of a stack
    with leading axes ``lead``, which begin with the values' own (a
    reference state's rows, say); copied only where they lack some."""
    values = default if values is None else np.asarray(values, dtype=float)
    if values.shape[-1:] != default.shape:
        raise ValueError(message)
    if values.shape[:-1] == lead:
        return values
    out = np.empty(lead + default.shape)
    out[...] = values.reshape(values.shape[:-1] + (1,) * (len(lead) + 1 - values.ndim)
                              + default.shape)
    return out


def _join(parts, count: int):
    """One object over ``count`` geometries from (obj, picks, slots) parts,
    each obj a stacked ``ChannelState`` or ``LaplacianBundle`` (its
    per-geometry arrays from ``_tables()``, rebuilt by ``_with``) and picks
    and slots lists of indices (possibly empty): geometry ``picks[i]`` of a
    part becomes geometry ``slots[i]``.  A part that fills every slot in
    order with its own geometries in order is returned as it is."""
    whole = list(range(count))
    # the tables of each part with geometries to give, gathered once
    filled = [(obj, obj._tables(), picks, slots) for obj, picks, slots in parts if slots]
    for obj, tables, picks, slots in filled:
        if slots == whole and picks == whole and len(tables[0]) == count:
            return obj
    joined = []
    for k, table in enumerate(filled[0][1]):
        out = np.empty((count,) + table.shape[1:], dtype=table.dtype)
        for _, tables, picks, slots in filled:
            out[slots] = tables[k][picks]
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


def _sirs(state, i, j, denominators) -> np.ndarray:
    """(..., m) unchecked SIRs of the pairs i[k] -> j[k] over their
    ``denominators``, at the state's powers."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return state.powers[..., i] * state.gain_sq[..., i, j] / denominators


def _checked(sirs: np.ndarray) -> np.ndarray:
    """``sirs``, if every one is finite.  A denormal proximity-only
    denominator overflows the quotient; that is the zero-denominator case in
    all but the last few bits."""
    if not np.isfinite(sirs).all():
        raise ValueError(_ZERO_DENOMINATOR)
    return sirs


def _link_sirs(state) -> np.ndarray:
    """(..., 2 * n_edges) unchecked SIRs of the topology's directed links
    (see ``_links``)."""
    return _sirs(state, *_links(state.scenario.topology), state.link_denominators)


def _require_primary_pair(i, j, n):
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("SIR is defined between primary nodes only")
    if i == j:
        raise ValueError("SIR undefined for a node talking to itself")


def sir(i: int, j: int, state: ChannelState) -> float:
    """Signal-to-interference ratio of link i -> j at receiver j.

    The denominator adds the received powers of every fixed interference
    source to the proximity penalty summed over all primary nodes other than
    i and j, scaled by chi.  There is no thermal noise term, so a scenario
    needs a source or chi > 0 (``scenario.validate``), and a link whose
    proximity terms have all decayed still has no defined SIR.
    """
    _require_primary_pair(i, j, state.scenario.n_primary)
    pair = np.array([i]), np.array([j])
    return float(_checked(_sirs(state, *pair, state._denominators(*pair)))[0])


@functools.lru_cache(maxsize=64)
def _endpoints(edges: tuple) -> tuple:
    """Index arrays of the edges' first and second endpoints (read-only)."""
    ends = np.array(edges, dtype=np.intp).reshape(-1, 2)
    return _read_only(ends[:, 0].copy(), ends[:, 1].copy())


@functools.lru_cache(maxsize=64)
def _links(edges: tuple) -> tuple:
    """Transmitters and receivers of the edges' directed links, p -> q of
    every edge in order, then q -> p (read-only)."""
    p, q = _endpoints(edges)
    return _read_only(np.concatenate([p, q]), np.concatenate([q, p]))


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _rates(sirs: np.ndarray, bandwidth_hz: float) -> np.ndarray:
    """(..., m) rates of m edges from the (..., 2m) SIRs of their directed
    links, every p -> q and then every q -> p, checked as ``sir`` checks
    them."""
    logs = np.log2(1.0 + _checked(sirs))
    m = sirs.shape[-1] // 2
    return 0.5 * bandwidth_hz * (logs[..., :m] + logs[..., m:])


def edge_rates(state: ChannelState) -> np.ndarray:
    """(..., n_edges) rates of the topology edges in topology order, bit/s
    (see ``edge_rate``), at the state's powers, one row per geometry of a
    stacked state."""
    return _rates(_link_sirs(state), state.scenario.channel.bandwidth_hz)


def edge_rate(i: int, j: int, state: ChannelState) -> float:
    """Symmetric half-duplex rate of topology edge (i, j) in bit/s.

    Each direction gets half the bandwidth: B/2 * (log2(1+SIR_ij) +
    log2(1+SIR_ji)).
    """
    _require_edge(i, j, state.scenario)
    topology = state.scenario.topology
    e = topology.index((i, j) if (i, j) in topology else (j, i))
    sirs = _link_sirs(state)[[e, e + len(topology)]]
    return float(_rates(sirs, state.scenario.channel.bandwidth_hz)[0])


def _require_edge(i, j, scenario):
    if (i, j) not in scenario.topology and (j, i) not in scenario.topology:
        raise ValueError(f"({i}, {j}) is not a topology edge")


def _link_jacobian(state) -> np.ndarray:
    """(..., 2 * n_edges, n_uavs, 3): d sir / d(UAV coordinate) of the
    topology's directed links (see ``_links``), unchecked, one table per
    geometry of a stacked state.  Each entry is
    dnum/denom - (num/denom)*(dden/denom) with the per-pair formula's
    association, including its ``0.0 +`` start of the denominator
    derivative (which turns a -0.0 term into +0.0); with chi > 0 the
    proximity penalty gives a third-party UAV a nonzero derivative."""
    sc, st = state.scenario, state
    i, j = _links(sc.topology)
    n = sc.n_primary
    lead = st.dist.shape[:-2]
    pair = np.arange(len(i))
    pos = st.positions[..., :n, :]
    chi = sc.safety.chi
    d = st.dist[..., i, j][..., None]
    gain = st.gain_sq[..., i, j]

    # numerator: the link gain moves with either endpoint
    dnum = np.zeros(lead + (len(i), n, 3))
    k = (st.powers[..., i] * (-st.alpha[i, j] * gain / d[..., 0]))[..., None]
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
        own = own + chi * st.link_sum_gradients
    dden[..., pair, j, :] = own
    dden[..., pair, i, :] = 0.0

    denom = st.link_denominators[..., None, None]
    num = (st.powers[..., i] * gain)[..., None, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        g = dnum / denom - (num / denom) * (dden / denom)
    return g[..., list(sc.uav_indices), :]


def rate_jacobian(state: ChannelState) -> np.ndarray:
    """(..., n_edges, n_uavs, 3): derivative of each topology edge rate, in
    topology order, w.r.t. every UAV coordinate (the chain rule through both
    directed SIRs), at the state's powers, one table per geometry of a
    stacked state."""
    sirs = _checked(_link_sirs(state))
    g = _link_jacobian(state)
    m = sirs.shape[-1] // 2
    b = state.scenario.channel.bandwidth_hz
    return b / (2.0 * LN2) * (g[..., :m, :, :] / (1.0 + sirs[..., :m])[..., None, None]
                              + g[..., m:, :, :] / (1.0 + sirs[..., m:])[..., None, None])
