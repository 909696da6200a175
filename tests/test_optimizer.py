"""Alternating trajectory/power optimization loop and its run history."""

import dataclasses

import numpy as np
import pytest

import aerolink.channel as ch
import aerolink.flow as fl
import aerolink.optimizer as opt
import aerolink.spectral as sp
import aerolink.trajectory as tj
from aerolink.optimizer import (OptimizerConfig, TerminationReason, replay_flow,
                                run)
from aerolink.scenario import build_default_scenario
from aerolink.trajectory import GradientMode, TrajectoryConfig

from conftest import make_line_scenario


def _small_cfg(**kw):
    kw.setdefault("epsilon", 1e-6)
    kw.setdefault("max_iterations", 25)
    return OptimizerConfig(**kw)


# -------------------------------------------------------------- termination


def test_first_iteration_always_runs():
    # flow sentinels R(-1) = -inf and R(0) = 0 force one real iteration even
    # under an absurdly loose threshold
    s = make_line_scenario(np.random.default_rng(100))
    h = run(s, OptimizerConfig(epsilon=1e15, max_iterations=50))
    assert h.termination is TerminationReason.CONVERGED
    assert h.iterations == 1
    assert len(h.records) == 2


def test_iteration_budget_caps_the_record_count():
    s = make_line_scenario(np.random.default_rng(101))
    h = run(s, OptimizerConfig(epsilon=1e-12, max_iterations=5))
    assert h.termination is TerminationReason.MAX_ITERATIONS
    assert len(h.records) == 6  # the starting snapshot plus one per iteration
    assert h.iterations == 5
    assert [r.iteration for r in h.records] == list(range(6))


def test_overshooting_from_a_summit_stalls():
    s = make_line_scenario(np.random.default_rng(110), n_si=1, chi=1.0)
    warm = run(s, _small_cfg(max_iterations=200))
    rested = s.with_uav_positions(warm.records[-1].uav_positions)
    h = run(rested, OptimizerConfig(
        epsilon=1e-9, max_iterations=10,
        trajectory=TrajectoryConfig(dt=1e6, max_backtracks=0)))
    assert h.termination is TerminationReason.STALLED
    assert h.records[-1].stalled
    assert np.array_equal(h.records[-1].uav_positions,
                          h.records[-2].uav_positions)
    assert h.records[-1].flow_bits_per_s == h.records[-2].flow_bits_per_s


# ------------------------------------------------------------------ records


def test_runs_are_deterministic():
    s = make_line_scenario(np.random.default_rng(102))
    cfg = _small_cfg()
    h1, h2 = run(s, cfg), run(s, cfg)
    assert h1.termination is h2.termination
    assert np.array_equal(h1.flows, h2.flows)
    assert np.array_equal(h1.lambda2s, h2.lambda2s)
    for r1, r2 in zip(h1.records, h2.records):
        assert np.array_equal(r1.uav_positions, r2.uav_positions)
        assert np.array_equal(r1.powers_w, r2.powers_w)


def test_record_zero_is_the_untouched_start():
    s = make_line_scenario(np.random.default_rng(103))
    h = run(s, _small_cfg(max_iterations=3))
    r0 = h.records[0]
    assert np.array_equal(r0.uav_positions, s.uav_positions)
    assert np.array_equal(r0.powers_w, np.full(s.n_primary, s.p_max_w))
    assert r0.gradient_mode is None
    assert not r0.stalled


def test_solved_records_respect_thresholds():
    rng = np.random.default_rng(104)
    for _ in range(4):
        s = make_line_scenario(rng, n_si=3)
        h = run(s, _small_cfg(max_iterations=10))
        for rec in h.records[1:]:
            assert rec.interference_ok
            assert rec.min_interference_margin_w >= -1e-18
            assert rec.gradient_mode is GradientMode.ANALYTIC


def test_lambda2_climbs_when_powers_cannot_change():
    # with no sources the caps equal the budget, so powers are constant and
    # backtracking makes the connectivity series monotone
    for seed in (100, 104, 107):
        s = make_line_scenario(np.random.default_rng(seed), n_si=0, chi=1.0)
        h = run(s, _small_cfg(epsilon=1e-9, max_iterations=40))
        assert np.all(np.diff(h.lambda2s) >= 0.0)
        assert h.flows[-1] >= h.flows[0]


def test_final_flow_matches_exhaustive_min_cut():
    rng = np.random.default_rng(106)
    for _ in range(3):
        s = make_line_scenario(rng, n_uavs=int(rng.integers(3, 7)))
        h = run(s, _small_cfg(max_iterations=15))
        last = h.records[-1]
        final = s.with_uav_positions(last.uav_positions).with_node_powers(last.powers_w)
        m = sp.build_matrices(ch.build_state(final))
        net = fl.from_adjacency(m, final.source, final.destination)
        brute = fl.brute_force_min_cut(net)
        assert last.flow_bits_per_s == pytest.approx(brute.value, rel=1e-12)


# ------------------------------------------------------------------- replay


def test_replay_reproduces_every_record():
    s = make_line_scenario(np.random.default_rng(107))
    cfg = _small_cfg(max_iterations=8)
    h = run(s, cfg)
    for t in range(len(h.records)):
        assert replay_flow(h, s, cfg, t=t) == h.records[t].flow_bits_per_s
    assert replay_flow(h, s, cfg) == h.records[-1].flow_bits_per_s


def test_replay_detects_a_tampered_scenario():
    s = make_line_scenario(np.random.default_rng(108), n_si=2)
    cfg = _small_cfg(max_iterations=5)
    h = run(s, cfg)
    louder = dataclasses.replace(s, si_powers_w=s.si_powers_w * 4.0)
    assert replay_flow(h, louder, cfg) != h.records[-1].flow_bits_per_s


def test_replay_rejects_out_of_range_indices():
    s = make_line_scenario(np.random.default_rng(109))
    cfg = _small_cfg(max_iterations=3)
    h = run(s, cfg)
    with pytest.raises(IndexError):
        replay_flow(h, s, cfg, t=len(h.records))
    with pytest.raises(IndexError):
        replay_flow(h, s, cfg, t=-len(h.records) - 1)


# --------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(ValueError, match="epsilon"):
        OptimizerConfig(epsilon=0.0)
    with pytest.raises(ValueError, match="max_iterations"):
        OptimizerConfig(max_iterations=0)


# ------------------------------------------------------------ state builds


@pytest.mark.parametrize("max_backtracks", [20, 3])
def test_each_geometry_gets_one_channel_state(max_backtracks, monkeypatch):
    # the record's tables come from the step's accepted evaluation, or are
    # the unchanged input's when the step stalls: one build up front plus
    # one per lambda2 evaluation of each step
    builds, steps = [], []
    init, step = ch.ChannelState.__init__, opt.step

    def counted_init(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    def recorded_step(*args, **kwargs):
        result = step(*args, **kwargs)
        steps.append(result)
        return result

    monkeypatch.setattr(ch.ChannelState, "__init__", counted_init)
    monkeypatch.setattr(opt, "step", recorded_step)
    config = OptimizerConfig(epsilon=1e-12, max_iterations=7, trajectory=TrajectoryConfig(
        dt=1.0e4, max_backtracks=max_backtracks))
    history = run(build_default_scenario(7), config)
    # a lone run is the batch of one: each step returns a tuple of one result
    assert sum(r.halvings for (r,) in steps) > 0
    assert any(r.stalled for (r,) in steps) == (max_backtracks == 3)
    assert len(builds) == 1 + sum(1 + r.halvings for (r,) in steps)
    assert len(steps) == history.iterations


# ------------------------------------------------------------ bundle calls


def _count_bundles(monkeypatch):
    """Calls of ``connectivity_bundle`` from the loop and from the step, and
    every step's result."""
    calls, steps = [], []
    for module in (opt, tj):
        def counted(*args, _bundle=module.connectivity_bundle, **kwargs):
            calls.append(1)
            return _bundle(*args, **kwargs)

        monkeypatch.setattr(module, "connectivity_bundle", counted)
    step = opt.step

    def recorded_step(*args, **kwargs):
        result = step(*args, **kwargs)
        steps.append(result if isinstance(result, tuple) else (result,))
        return result

    monkeypatch.setattr(opt, "step", recorded_step)
    return calls, steps


def _moved(history, t):
    """Whether record t's powers differ from record t - 1's, signed zeros included."""
    a, b = history.records[t - 1].powers_w, history.records[t].powers_w
    return not np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _halving(max_backtracks=20):
    return OptimizerConfig(epsilon=1e-12, max_iterations=20, trajectory=TrajectoryConfig(
        dt=1.0e4, max_backtracks=max_backtracks))


@pytest.mark.parametrize("i_max_dbm, max_backtracks", [(None, 20), (None, 11), (-50.0, 20)])
def test_each_accepted_geometry_is_evaluated_once(i_max_dbm, max_backtracks, monkeypatch):
    # the step evaluates 1 + halvings geometries; the record reuses the
    # accepted one's bundle (the input's on a stall) unless the power solve
    # moved a power, which costs one more evaluation
    s = build_default_scenario(7)
    if i_max_dbm is not None:
        s = s.with_i_max_dbm(i_max_dbm)
    calls, steps = _count_bundles(monkeypatch)
    history = run(s, _halving(max_backtracks))
    assert len(steps) == history.iterations
    moved = [_moved(history, t) for t in range(1, len(history.records))]
    if i_max_dbm is None:
        # the caps never bind: P_max throughout
        assert not any(moved)
        assert sum(r.halvings for (r,) in steps) > 0
        assert any(r.stalled for (r,) in steps) == (max_backtracks == 11)
    else:
        assert 0 < sum(moved) < len(moved)
    assert len(calls) == 1 + sum(1 + r.halvings for (r,) in steps) + sum(moved)


def test_a_batch_evaluates_each_accepted_stack_once(monkeypatch):
    # one trial stack per backtracking round; the records' stack is evaluated
    # again only on iterations where some live point's powers moved
    s = build_default_scenario(7)
    points = [s, s, s.with_i_max_dbm(-50.0)]
    calls, steps = _count_bundles(monkeypatch)
    histories = run(points, [_halving(20), _halving(11), _halving(20)])
    moved = [any(_moved(h, t) for h in histories if t < len(h.records))
             for t in range(1, max(len(h.records) for h in histories))]
    assert len(steps) == len(moved)
    assert 0 < sum(moved) < len(moved)
    assert any(r.stalled for results in steps for r in results)
    assert any(len({r.halvings for r in results}) == 3 for results in steps)
    rounds = sum(1 + max(r.halvings for r in results) for results in steps)
    assert len(calls) == 1 + rounds + sum(moved)
