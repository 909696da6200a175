"""Max-min fair transmit power allocation under interference protection caps.

Every primary transmitter i must keep its received power at every fixed
source m below that source's threshold: P_i |h_im|^2 <= I_max_m.  Together
with the budget P_max this induces a per-node cap.  Because no primary
transmit power appears in any SIR denominator, every link rate is
monotone non-decreasing in every power, so pushing all transmitters to
their caps is simultaneously optimal for the minimum link rate, and the
max-min rate is the bottleneck edge rate at the caps.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelState, FadingModel, _state_for, edge_rates
from .scenario import Scenario

# relative slack for cap and threshold comparisons
_SLACK = 1.0e-12


class BindingConstraint(Enum):
    P_MAX = "p-max"
    INTERFERENCE_CAP = "interference-cap"


@dataclass(frozen=True)
class PowerSolution:
    powers_w: np.ndarray         # (n_primary,)
    eta: float                   # max-min link rate at the caps, bit/s
    binding: tuple               # per node: (BindingConstraint, si index or None)
    feasible: bool


@dataclass(frozen=True)
class InterferenceReport:
    received_w: np.ndarray       # (n_primary, n_si) power landed on each source
    margins_w: np.ndarray        # threshold minus received
    min_margin_w: float
    passed: bool


def power_caps(scenario: Scenario,
               fading: FadingModel | None = None,
               state: ChannelState | None = None) -> np.ndarray:
    """Largest allowed power per primary transmitter: budget and thresholds."""
    st = _state_for(scenario, fading, state)
    n = scenario.n_primary
    caps = np.full(n, scenario.p_max_w)
    si = list(scenario.si_indices)
    if si:
        gains = st.gain_sq[np.ix_(range(n), si)]       # (n, n_si)
        limits = scenario.i_max_w[None, :] / gains
        caps = np.minimum(caps, limits.min(axis=1))
    return caps


def _binding_report(scenario, caps, state):
    si = list(scenario.si_indices)
    n = scenario.n_primary
    out = []
    for i in range(n):
        if not si or caps[i] >= scenario.p_max_w * (1.0 - _SLACK):
            out.append((BindingConstraint.P_MAX, None))
        else:
            limits = scenario.i_max_w / state.gain_sq[i, si]
            out.append((BindingConstraint.INTERFERENCE_CAP, int(np.argmin(limits))))
    return tuple(out)


def solve_maxmin(scenario: Scenario,
                 fading: FadingModel | None = None,
                 state: ChannelState | None = None) -> PowerSolution:
    """Max-min edge rate power allocation on a chain topology.

    Every transmitter runs at its cap, and eta is the smallest edge rate
    there: no rate can rise by lowering any power.
    """
    edges = sorted(tuple(sorted(e)) for e in scenario.topology)
    chain = [(i, i + 1) for i in range(scenario.n_primary - 1)]
    if edges != chain:
        raise ValueError("max-min power solve expects a chain topology")

    st = _state_for(scenario, fading, state)
    caps = power_caps(scenario, state=st)
    binding = _binding_report(scenario, caps, st)
    if np.any(caps <= 0.0) or not np.all(np.isfinite(caps)):
        return PowerSolution(powers_w=np.maximum(caps, 0.0), eta=0.0,
                             binding=binding, feasible=False)

    eta = float(edge_rates(scenario.with_node_powers(caps), st).min())
    return PowerSolution(powers_w=caps, eta=eta, binding=binding, feasible=True)


def verify_interference(scenario: Scenario,
                        powers_w: np.ndarray,
                        fading: FadingModel | None = None,
                        state: ChannelState | None = None) -> InterferenceReport:
    """Check every transmitter against every source threshold."""
    st = _state_for(scenario, fading, state)
    n = scenario.n_primary
    powers = np.asarray(powers_w, dtype=float)
    if powers.shape != (n,):
        raise ValueError("need one power per primary node")
    si = list(scenario.si_indices)
    received = powers[:, None] * st.gain_sq[np.ix_(range(n), si)]
    margins = scenario.i_max_w[None, :] - received
    if margins.size:
        min_margin = float(margins.min())
        passed = bool(np.all(received <= scenario.i_max_w[None, :] * (1.0 + _SLACK)))
    else:
        min_margin = float("inf")
        passed = True
    return InterferenceReport(received_w=received, margins_w=margins,
                              min_margin_w=min_margin, passed=passed)
