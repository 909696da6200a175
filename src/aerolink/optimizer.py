"""Alternating optimization: trajectory ascent, power solve, flow evaluation.

One iteration moves the UAVs up the lambda2 gradient (at the current
powers), re-solves the max-min power allocation at the new geometry, then
scores the configuration by its max s-d flow.  The loop stops when the flow
change between the two previous iterations falls to epsilon, mirroring a
while-test with sentinels R(-1) = -inf and R(0) = 0, so the very first
iteration always runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import FadingModel, _state_for
from .flow import from_adjacency, max_flow
from .power import solve_maxmin, verify_interference
from .scenario import Scenario, validate
from .spectral import LaplacianMode, connectivity_bundle
from .trajectory import GradientMode, TrajectoryConfig, lambda2_gradient, step


class TerminationReason(Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    STALLED = "stalled"


@dataclass(frozen=True)
class OptimizerConfig:
    epsilon: float = 1.0             # flow convergence threshold, bit/s
    max_iterations: int = 500
    trajectory: TrajectoryConfig = field(default_factory=TrajectoryConfig)
    laplacian_mode: LaplacianMode = LaplacianMode.COMBINATORIAL_WEIGHTED
    fading: FadingModel = field(default_factory=FadingModel.unit_gain)

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    uav_positions: np.ndarray        # (n_uavs, 3)
    powers_w: np.ndarray             # (n_primary,)
    lambda2: float
    flow_bits_per_s: float
    min_interference_margin_w: float
    interference_ok: bool
    eta: float                       # max-min link rate at the caps (nan before solve)
    gradient_mode: GradientMode | None
    stalled: bool
    degenerate: bool


@dataclass(frozen=True)
class RunHistory:
    records: tuple
    termination: TerminationReason

    @property
    def flows(self) -> np.ndarray:
        return np.array([r.flow_bits_per_s for r in self.records])

    @property
    def lambda2s(self) -> np.ndarray:
        return np.array([r.lambda2 for r in self.records])

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration


def _evaluate(scenario, config, state=None):
    """Bundle, flow and interference margin of one configuration."""
    state = _state_for(scenario, config.fading, state)
    bundle = connectivity_bundle(scenario, config.fading,
                                 mode=config.laplacian_mode, state=state)
    net = from_adjacency(bundle.matrices, scenario.source, scenario.destination)
    value, _ = max_flow(net)
    report = verify_interference(scenario, scenario.node_powers_w,
                                 config.fading, state=state)
    return bundle, value, report, state


def _record(iteration, current, bundle, flow_value, report, eta, gradient_mode,
            stalled) -> IterationRecord:
    return IterationRecord(
        iteration=iteration,
        uav_positions=current.uav_positions,
        powers_w=current.node_powers_w.copy(),
        lambda2=bundle.lambda2,
        flow_bits_per_s=flow_value,
        min_interference_margin_w=report.min_margin_w,
        interference_ok=report.passed,
        eta=eta,
        gradient_mode=gradient_mode,
        stalled=stalled,
        degenerate=bundle.degenerate,
    )


def run(scenario: Scenario, config: OptimizerConfig | None = None) -> RunHistory:
    """Alternating optimization until the flow settles, stalls, or times out.

    Record 0 is the starting configuration with every transmitter at P_max;
    record t >= 1 holds the state after iteration t's trajectory step and
    power solve, so its powers always respect the interference thresholds.
    """
    config = config or OptimizerConfig()
    problems = validate(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))

    current = scenario.with_node_powers(np.full(scenario.n_primary, scenario.p_max_w))
    bundle, flow_value, report, state = _evaluate(current, config)
    records = [_record(0, current, bundle, flow_value, report, float("nan"), None, False)]

    # sentinel flows: R(-1) = -inf, R(0) = 0, so iteration 1 always runs
    r_prev2, r_prev1 = -np.inf, 0.0
    termination = TerminationReason.MAX_ITERATIONS
    for t in range(1, config.max_iterations + 1):
        if abs(r_prev1 - r_prev2) <= config.epsilon:
            termination = TerminationReason.CONVERGED
            break

        grad = lambda2_gradient(current, config.fading,
                                laplacian_mode=config.laplacian_mode,
                                gradient_mode=config.trajectory.gradient_mode,
                                fd_step_m=config.trajectory.fd_step_m,
                                bundle=bundle, state=state)
        moved = step(current, grad, config.trajectory, config.fading,
                     laplacian_mode=config.laplacian_mode,
                     bundle=bundle, state=state)
        current = current.with_uav_positions(moved.positions)
        state = moved.state

        solution = solve_maxmin(current, config.fading, state=state)
        current = current.with_node_powers(solution.powers_w)

        bundle, flow_value, report, state = _evaluate(current, config, state=state)
        records.append(_record(t, current, bundle, flow_value, report, solution.eta,
                               grad.mode_used, moved.stalled))
        r_prev2, r_prev1 = r_prev1, flow_value

        if moved.stalled and records[-2].flow_bits_per_s == flow_value:
            termination = TerminationReason.STALLED
            break

    return RunHistory(records=tuple(records), termination=termination)


def replay_flow(history: RunHistory, scenario: Scenario,
                config: OptimizerConfig | None = None, t: int = -1) -> float:
    """Recompute the flow of record t from its stored positions and powers.

    Lets any downstream consumer audit a history row without rerunning the
    optimizer.  Raises IndexError for a record index outside the history.
    """
    config = config or OptimizerConfig()
    rec = history.records[t]
    s = scenario.with_uav_positions(rec.uav_positions).with_node_powers(rec.powers_w)
    return _evaluate(s, config)[1]
