"""Alternating optimization: trajectory ascent, power solve, flow evaluation.

One iteration moves the UAVs up the lambda2 gradient (at the current
powers), re-solves the max-min power allocation at the new geometry, then
scores the configuration by its max s-d flow, which on the chain is the
bottleneck edge rate (``power._chain_flow``).  The loop stops when the flow
change between the two previous iterations falls to epsilon, mirroring a
while-test with sentinels R(-1) = -inf and R(0) = 0, so the very first
iteration always runs.

Each accepted geometry is evaluated once per iteration.  The step returns
the spectral bundle of the positions it accepts, at the powers it stepped
with; the record takes that bundle when the power allocation leaves every
power as it was, bit for bit (always, while no interference cap binds),
and evaluates its stack again at the new powers otherwise.  eta is the
bottleneck of the record's rates, so no rates are computed for it alone.

The loop carries arrays (positions in a ``ChannelState``, powers,
thresholds), not a ``Scenario`` per iteration.  It runs a batch of points
sharing one layout in lockstep, each array with a leading point axis; a
lone run is the batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import ChannelState, FadingModel
from .power import (_allocation, _chain_flow, _chain_rates, _eta, _require_chain,
                    verify_interference)
from .scenario import Scenario, _require_finite
from .spectral import LaplacianMode, connectivity_bundle
from .trajectory import GradientMode, TrajectoryConfig, _each, lambda2_gradient, step


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
        _require_finite(self, ("epsilon",))


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


def _evaluate(state, mode, powers, i_max_w=None, bundle=None):
    """Bundle (in Laplacian ``mode``), flows (a list, one per geometry) and
    interference report of a (stacked) state at ``powers``; a given
    ``bundle`` is the state's at ``powers`` already."""
    if bundle is None:
        bundle = connectivity_bundle(state, mode=mode, powers=powers)
    flows = _each(_chain_flow(bundle.matrices.adjacency))
    report = verify_interference(state, powers, i_max_w)
    return bundle, flows, report


def _append(records, ids, t, state, powers, evaluated, etas, modes, stalls):
    """One record per point of a (stacked) evaluation, onto each point's list."""
    bundle, flows, report = evaluated
    scenario = state.scenario
    uav_positions = state.positions[:, list(scenario.uav_indices)]
    powers_w = np.array(powers)
    for k, fields in enumerate(zip(ids.tolist(), _each(bundle.lambda2), flows,
                                   _each(report.min_margin_w), _each(report.passed),
                                   etas, modes, stalls, _each(bundle.degenerate))):
        i, lam, flow, margin, ok, eta, mode, stalled, degenerate = fields
        records[i].append(IterationRecord(
            iteration=t, uav_positions=uav_positions[k], powers_w=powers_w[k], lambda2=lam,
            flow_bits_per_s=flow, min_interference_margin_w=margin, interference_ok=ok,
            eta=eta, gradient_mode=mode, stalled=stalled, degenerate=degenerate))


def _shared(scenario: Scenario, config: OptimizerConfig) -> tuple:
    """What the points of a batch must have in common."""
    return (scenario.classes, scenario.channel, scenario.safety, scenario.topology,
            scenario.weights.tobytes(), scenario.si_powers_w.tobytes(), scenario.p_max_w,
            scenario.ue_aerial, config.fading, config.laplacian_mode,
            config.trajectory.gradient_mode, config.trajectory.fd_step_m)


def run(scenario, config: OptimizerConfig | None = None):
    """Alternating optimization until the flow settles, stalls, or times out.

    Record 0 is the starting configuration with every transmitter at P_max;
    record t >= 1 holds the state after iteration t's trajectory step and
    power solve, so its powers always respect the interference thresholds.
    A topology that is not a chain is refused before record 0.

    A sequence of scenarios, with one config or a sequence of one per
    scenario, is a batch: its points advance in lockstep, one stacked pass
    per iteration, and the call returns a list of histories, each equal
    record for record to that point's own run.  The points must share
    their layout (classes, channel, safety, topology, weights, source
    powers, p_max, UE class) and the config's fading, Laplacian mode,
    gradient mode and finite-difference step; positions, thresholds and
    every other config field are their own.  A batch in which a point fails
    raises what the first failing point raises alone.
    """
    if isinstance(scenario, Scenario):
        return _lockstep([scenario], [config or OptimizerConfig()])[0]
    scenarios = list(scenario)
    configs = (list(config) if isinstance(config, (list, tuple))
               else [config or OptimizerConfig()] * len(scenarios))
    if len(configs) != len(scenarios):
        raise ValueError("a batch needs one config, or one per scenario")
    if any(_shared(s, c) != _shared(scenarios[0], configs[0])
           for s, c in zip(scenarios, configs)):
        raise ValueError("a batch's points must share their layout, fading, Laplacian "
                         "mode, gradient mode and finite-difference step")
    try:
        return _lockstep(scenarios, configs)
    except Exception:
        # raise the error of the first point that fails on its own, as a
        # run of the points one after another would
        for s, c in zip(scenarios, configs):
            run(s, c)
        raise


def _lockstep(scenarios, configs) -> list:
    """The histories of a batch's points, which share their layout (see
    ``_shared``), each array stacked on a leading point axis (a lone run is
    a stack of one)."""
    if not scenarios:
        return []
    layout, first = scenarios[0], configs[0]
    _require_chain(layout.topology, layout.n_primary)
    mode, trajectory = first.laplacian_mode, first.trajectory
    count = len(scenarios)

    # one point per row: geometry, powers and thresholds
    state = ChannelState(layout, first.fading, np.stack([s.positions for s in scenarios]))
    i_max = np.stack([s.i_max_w for s in scenarios])
    powers = np.full((count, layout.n_primary), layout.p_max_w)
    evaluated = _evaluate(state, mode, powers, i_max)
    ids = np.arange(count)
    records = [[] for _ in range(count)]
    _append(records, ids, 0, state, powers, evaluated, [float("nan")] * count,
            [None] * count, [False] * count)

    # per point: sentinel flows R(-1) = -inf, R(0) = 0, so iteration 1 always runs
    r_prev2, r_prev1 = np.full(count, -np.inf), np.zeros(count)
    last = np.array(evaluated[1])            # each point's latest record's flow
    epsilon = np.array([c.epsilon for c in configs])
    budget = np.array([c.max_iterations for c in configs])
    trajectories = tuple(c.trajectory for c in configs)
    terminations = [TerminationReason.MAX_ITERATIONS] * count
    stop = np.zeros(count, dtype=bool)       # stalled with an unchanged flow
    t = 0
    while True:
        t += 1
        over = ~stop & (t > budget)
        converged = ~stop & ~over & (np.abs(r_prev1 - r_prev2) <= epsilon)
        for i in ids[converged].tolist():
            terminations[i] = TerminationReason.CONVERGED
        for i in ids[stop].tolist():
            terminations[i] = TerminationReason.STALLED
        live = ~(stop | over | converged)
        if not live.any():
            break
        bundle = evaluated[0]
        if not live.all():
            # finished points drop out of every stack
            state, bundle = state._select(live), bundle.take(live)
            powers, i_max = powers[live], i_max[live]
            ids, r_prev2, r_prev1, last = ids[live], r_prev2[live], r_prev1[live], last[live]
            epsilon, budget = epsilon[live], budget[live]
            trajectories = tuple(c for c, keep in zip(trajectories, live) if keep)

        grads = lambda2_gradient(state, bundle, gradient_mode=trajectory.gradient_mode,
                                 fd_step_m=trajectory.fd_step_m, powers=powers)
        moved = step(state, bundle, grads, trajectories, powers=powers)
        state, bundle = moved[0].state, moved[0].bundle

        _, feasible, new_powers = _allocation(state, i_max)
        # the step's bundle is at the step's powers: the record takes it when
        # no point's powers moved, signed zeros included
        if not np.array_equal(new_powers.view(np.uint64), powers.view(np.uint64)):
            bundle = None
        powers = new_powers
        evaluated = _evaluate(state, mode, powers, i_max, bundle)
        etas = _each(_eta(feasible, _chain_rates(evaluated[0].matrices.adjacency)))
        stalls = [m.stalled for m in moved]
        _append(records, ids, t, state, powers, evaluated, etas,
                [g.mode_used for g in grads], stalls)
        flows = np.array(evaluated[1])
        stop = np.array(stalls) & (flows == last)
        r_prev2, r_prev1, last = r_prev1, flows, flows

    return [RunHistory(records=tuple(r), termination=reason)
            for r, reason in zip(records, terminations)]


def replay_flow(history: RunHistory, scenario: Scenario,
                config: OptimizerConfig | None = None, t: int = -1) -> float:
    """Recompute the flow of record t from its stored positions and powers.

    Lets any downstream consumer audit a history row without rerunning the
    optimizer.  Raises IndexError for a record index outside the history.
    """
    config = config or OptimizerConfig()
    _require_chain(scenario.topology, scenario.n_primary)
    rec = history.records[t]
    positions = scenario.positions.copy()
    positions[list(scenario.uav_indices)] = rec.uav_positions
    state = ChannelState(scenario, config.fading, positions)
    return _evaluate(state, config.laplacian_mode, rec.powers_w)[1][0]
