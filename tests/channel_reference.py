"""Per-pair scalar channel model: the reference the array core must match bit for bit.

These are the scalar bodies ``aerolink.channel`` used before its array core,
kept verbatim apart from reading the masks and lazy tables through
``ChannelState``'s public attributes.  Every SIR, rate and derivative is
computed one pair and one coordinate at a time, each with its own masked 1-D
sums, so a test can compare the arrays against an independent evaluation
with ``np.array_equal``.  Each function reads its tables from the given
state and its powers from the given scenario.  ``_resolve_wrt`` is a
verbatim copy of the check the library's scalar derivative lookups made
before they were deleted in favour of the array derivatives
(``rate_jacobian`` and the link table it is built from).
"""

import numpy as np

from aerolink.channel import LN2, _require_edge
from aerolink.scenario import NodeClass


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


def sir_denominator(st, i, j):
    excl = ~np.eye(st.scenario.n_primary, dtype=bool)
    chi = st.scenario.safety.chi
    safety = float(st.safety_u[j][excl[i]].sum())
    return float(st.interference_w[j] + chi * safety)


def safety_sum_gradient(st, i, j, axis):
    n = st.scenario.n_primary
    excl = ~np.eye(n, dtype=bool)
    pos = st.scenario.positions
    terms = st.safety_slope[j] * (pos[j, axis] - pos[:n, axis])
    return float(terms[excl[i]].sum())


def sir(i, j, scenario, state):
    n = scenario.n_primary
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError("SIR is defined between primary nodes only")
    if i == j:
        raise ValueError("SIR undefined for a node talking to itself")
    st = state
    denom = sir_denominator(st, i, j)
    if denom == 0.0:
        raise ValueError("zero SIR denominator: no interference sources and no "
                         "proximity term (chi = 0 or fully decayed)")
    with np.errstate(over="ignore"):
        value = float(scenario.node_powers_w[i] * st.gain_sq[i, j] / denom)
    if not np.isfinite(value):
        raise ValueError("zero SIR denominator: no interference sources and no "
                         "proximity term (chi = 0 or fully decayed)")
    return value


def edge_rate(i, j, scenario, state):
    if i == j:
        return 0.0
    _require_edge(i, j, scenario)
    st = state
    b = scenario.channel.bandwidth_hz
    return float(0.5 * b * (np.log2(1.0 + sir(i, j, scenario, state=st))
                            + np.log2(1.0 + sir(j, i, scenario, state=st))))


def sir_spatial_gradient(i, j, wrt, scenario, state):
    t, c = _resolve_wrt(scenario, wrt)
    if i == j:
        raise ValueError("SIR undefined for a node talking to itself")
    st = state
    sc = scenario
    pos = sc.positions
    denom = sir_denominator(st, i, j)
    if denom == 0.0:
        raise ValueError("zero SIR denominator: no interference sources and no "
                         "proximity term (chi = 0 or fully decayed)")
    num = sc.node_powers_w[i] * st.gain_sq[i, j]

    dnum = 0.0
    if t == i or t == j:
        other = j if t == i else i
        d = st.dist[i, j]
        dd = (pos[t, c] - pos[other, c]) / d
        dnum = sc.node_powers_w[i] * (-st.alpha[i, j] * st.gain_sq[i, j] / d) * dd

    dden = 0.0
    if t == j:
        dden += st.si_interference_grad[j, c]
    chi = sc.safety.chi
    if chi != 0.0:
        if t == j:
            dden += chi * safety_sum_gradient(st, i, j, c)
        elif t != i:
            dden += chi * st.safety_slope[j, t] * (pos[t, c] - pos[j, c])

    return float(dnum / denom - (num / denom) * (dden / denom))


def rate_spatial_gradient(p, q, wrt, scenario, state):
    if p == q:
        return 0.0
    _require_edge(p, q, scenario)
    st = state
    b = scenario.channel.bandwidth_hz
    s_pq = sir(p, q, scenario, state=st)
    s_qp = sir(q, p, scenario, state=st)
    g_pq = sir_spatial_gradient(p, q, wrt, scenario, state=st)
    g_qp = sir_spatial_gradient(q, p, wrt, scenario, state=st)
    return float(b / (2.0 * LN2) * (g_pq / (1.0 + s_pq) + g_qp / (1.0 + s_qp)))


def analytic_gradient(scenario, bundle, state):
    """The per-edge lambda2 gradient summed one coordinate at a time."""
    y = bundle.fiedler / np.sqrt(bundle.weights)
    uavs = scenario.uav_indices
    grad = np.zeros((len(uavs), 3))
    for p, q in scenario.topology:
        coeff = (y[p] - y[q]) ** 2
        if coeff == 0.0:
            continue
        for uidx, t in enumerate(uavs):
            for axis in range(3):
                grad[uidx, axis] += coeff * rate_spatial_gradient(
                    p, q, (t, axis), scenario, state=state)
    return grad


# -- whole-scenario tables built from the scalar functions ------------------


def edge_rate_table(scenario, state):
    return np.array([edge_rate(p, q, scenario, state=state)
                     for p, q in scenario.topology])


def rate_gradient_table(scenario, state):
    uavs = scenario.uav_indices
    return np.array([[[rate_spatial_gradient(p, q, (t, c), scenario, state=state)
                       for c in range(3)] for t in uavs]
                     for p, q in scenario.topology])
