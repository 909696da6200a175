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

from .channel import ChannelState, edge_rates
from .flow import CAPACITY_FLOOR

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


def _thresholds(scenario, i_max_w):
    return scenario.i_max_w if i_max_w is None else i_max_w


def _limits(state, i_max_w):
    """(..., n_primary, n_si): the power at which each transmitter lands each
    source's threshold."""
    scenario = state.scenario
    n = scenario.n_primary
    gains = state.gain_sq[..., :n, list(scenario.si_indices)]
    return _thresholds(scenario, i_max_w)[..., None, :] / gains


def power_caps(state: ChannelState, i_max_w: np.ndarray | None = None) -> np.ndarray:
    """Largest allowed power per primary transmitter: budget and thresholds.

    ``i_max_w`` replaces the state's scenario's thresholds; with leading
    axes it gives each geometry of a stacked state its own, one row of caps
    each.
    """
    scenario = state.scenario
    caps = np.full(state.gain_sq.shape[:-2] + (scenario.n_primary,), scenario.p_max_w)
    if scenario.si_indices:
        caps = np.minimum(caps, _limits(state, i_max_w).min(axis=-1))
    return caps


def _binding_report(caps, state, i_max_w):
    """Per node: (BindingConstraint, si index or None); one tuple per geometry."""
    scenario = state.scenario
    n = scenario.n_primary
    # without sources every cap is p_max itself, so none is capped
    capped = ~(caps.reshape(-1, n) >= scenario.p_max_w * (1.0 - _SLACK))
    which = (_limits(state, i_max_w).argmin(axis=-1).reshape(-1, n)
             if scenario.si_indices else np.zeros_like(capped, dtype=np.intp))
    return [tuple((BindingConstraint.INTERFERENCE_CAP, w) if c
                  else (BindingConstraint.P_MAX, None) for c, w in zip(cs, ws))
            for cs, ws in zip(capped.tolist(), which.tolist())]


def _require_chain(topology: tuple, n_primary: int) -> None:
    """Raise unless the topology is the chain 0-1-...-(n_primary-1), with
    its edges in any order and orientation."""
    edges = sorted(tuple(sorted(e)) for e in topology)
    if edges != [(i, i + 1) for i in range(n_primary - 1)]:
        raise ValueError("max-min power solve expects a chain topology")


def _chain_rates(adjacency: np.ndarray) -> np.ndarray:
    """A chain's (..., n - 1) edge rates, in chain order, from its (..., n, n)
    rate matrix: the superdiagonal."""
    return np.diagonal(adjacency, 1, -2, -1)


def _chain_flow(adjacency: np.ndarray) -> np.ndarray:
    """Max s-d flow over a chain's (..., n, n) rate matrix: the smallest
    edge rate, 0.0 below ``flow.CAPACITY_FLOOR``, which ``flow.max_flow``
    finds along the chain's one augmenting path.  The caller has checked
    that the topology is a chain (``_require_chain``)."""
    bottleneck = _chain_rates(adjacency).min(axis=-1)
    return np.where(bottleneck < CAPACITY_FLOOR, 0.0, bottleneck)


def _allocation(state: ChannelState, i_max_w=None) -> tuple:
    """Caps, feasibility and powers of the max-min allocation of a (stacked)
    state: every transmitter at its cap, which an infeasible geometry (a cap
    not positive and finite) clips at 0.0."""
    caps = power_caps(state, i_max_w)
    feasible = np.all(caps > 0.0, axis=-1) & np.all(np.isfinite(caps), axis=-1)
    return caps, feasible, np.maximum(caps, 0.0)


def _eta(feasible: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The max-min rate: the smallest of the (..., n_edges) edge rates at the
    caps, 0.0 where the caps are infeasible."""
    return np.where(feasible, rates.min(axis=-1), 0.0)


def solve_maxmin(state: ChannelState, i_max_w: np.ndarray | None = None):
    """Max-min edge rate power allocation on a chain topology.

    Every transmitter runs at its cap, and eta is the smallest edge rate
    there: no rate can rise by lowering any power.  A stacked state (with
    ``i_max_w`` as in ``power_caps``) gives a tuple of solutions, one per
    geometry.
    """
    scenario = state.scenario
    _require_chain(scenario.topology, scenario.n_primary)
    caps, feasible, powers = _allocation(state, i_max_w)
    binding = _binding_report(caps, state, i_max_w)
    # an infeasible geometry's rates are not needed; the budget keeps them finite
    at = np.where(feasible[..., None], caps, scenario.p_max_w)
    eta = _eta(feasible, edge_rates(state, at))
    solutions = tuple(
        PowerSolution(powers_w=p, eta=e, binding=b, feasible=ok)
        for p, e, b, ok in zip(powers.reshape(-1, scenario.n_primary), eta.reshape(-1).tolist(),
                               binding, feasible.reshape(-1).tolist()))
    return solutions[0] if caps.ndim == 1 else solutions


def verify_interference(state: ChannelState,
                        powers_w: np.ndarray,
                        i_max_w: np.ndarray | None = None) -> InterferenceReport:
    """Check every transmitter against every source threshold.

    ``powers_w`` and ``i_max_w`` (default: the state's scenario's
    thresholds) may carry the leading axes of a stacked state; the report's
    fields then do too, one check per geometry.
    """
    scenario = state.scenario
    n = scenario.n_primary
    powers = np.asarray(powers_w, dtype=float)
    if powers.shape[-1:] != (n,):
        raise ValueError("need one power per primary node")
    limit = _thresholds(scenario, i_max_w)[..., None, :]
    received = powers[..., :, None] * state.gain_sq[..., :n, list(scenario.si_indices)]
    margins = limit - received
    # without sources: an infinite margin, and passed
    min_margin = margins.min(axis=(-2, -1), initial=np.inf)
    passed = np.all(received <= limit * (1.0 + _SLACK), axis=(-2, -1))
    if min_margin.ndim == 0:
        min_margin, passed = float(min_margin), bool(passed)
    return InterferenceReport(received_w=received, margins_w=margins,
                              min_margin_w=min_margin, passed=passed)
