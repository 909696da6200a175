"""Records are scored by their chain's bottleneck edge rate: the value the
Edmonds-Karp max flow finds, to the bit.  A batch step's trial stack takes
the rows of unmoved nodes from its input state, and a topology that is not a
chain is refused before record 0."""

import dataclasses
import json

import numpy as np
import pytest

from aerolink import channel as ch
from aerolink import optimizer as opt
from aerolink import trajectory as tj
from aerolink.cli import main
from aerolink.flow import CAPACITY_FLOOR, from_adjacency, max_flow
from aerolink.optimizer import OptimizerConfig, replay_flow, run
from aerolink.power import _chain_flow
from aerolink.scenario import build_default_scenario, scenario_to_config
from aerolink.spectral import build_matrices, connectivity_bundle
from aerolink.trajectory import GradientMode, TrajectoryConfig
from conftest import make_line_scenario
from test_sweep_batch import _same_words

CHAIN_MESSAGE = "max-min power solve expects a chain topology"


def _assert_flows_are_max_flows(scenario, history, fading):
    flows, reference = [], []
    for rec in history.records:
        positions = scenario.positions.copy()
        positions[list(scenario.uav_indices)] = rec.uav_positions
        state = ch.ChannelState(scenario, fading, positions, powers=rec.powers_w)
        rates = build_matrices(state).adjacency
        value, _ = max_flow(from_adjacency(rates, scenario.source, scenario.destination))
        flows.append(rec.flow_bits_per_s)
        reference.append(value)
    assert _same_words(flows, reference)


@pytest.mark.parametrize("gradient_mode", list(GradientMode))
def test_lone_run_flows_are_max_flows_to_the_bit(gradient_mode):
    s = build_default_scenario(7)
    iterations = 8 if gradient_mode is GradientMode.ANALYTIC else 4
    config = OptimizerConfig(epsilon=1e-12, max_iterations=iterations,
                             trajectory=TrajectoryConfig(gradient_mode=gradient_mode))
    history = run(s, config)
    _assert_flows_are_max_flows(s, history, config.fading)
    assert replay_flow(history, s, config) == history.records[-1].flow_bits_per_s


@pytest.mark.parametrize("variable", ["threshold", "altitude"])
def test_batch_flows_are_max_flows_to_the_bit(variable):
    base = build_default_scenario(7)
    if variable == "threshold":
        # caps so low that the bottleneck lands just above the capacity
        # floor (-200 dBm) and below it (-210 dBm: a flow of 0.0)
        points = [base.with_i_max_dbm(v) for v in (-210.0, -200.0, -50.0, -30.0, -10.0)]
    else:
        points = [base.with_ue_altitude(v) for v in (0.0, 150.0, 400.0)]
    config = OptimizerConfig(epsilon=1e-12, max_iterations=6)
    histories = run(points, config)
    for point, history in zip(points, histories):
        _assert_flows_are_max_flows(point, history, config.fading)
    if variable == "threshold":
        assert histories[0].records[-1].flow_bits_per_s == 0.0
        assert 0.0 < histories[1].records[-1].flow_bits_per_s < 2.0 * CAPACITY_FLOOR


def _chain_capacities(rng, n):
    kind = rng.integers(5)
    if kind == 0:       # ties: a few distinct values
        values = rng.choice(rng.uniform(0.0, 5.0, size=2), size=n - 1)
    elif kind == 1:     # at and next to the floor
        values = rng.choice([np.nextafter(CAPACITY_FLOOR, 0.0), CAPACITY_FLOOR,
                             np.nextafter(CAPACITY_FLOOR, 1.0), 0.0, 3.0e-12], size=n - 1)
    elif kind == 2:     # bit/s-sized rates with one edge near the floor
        values = rng.uniform(1.0e2, 1.0e4, size=n - 1)
        values[rng.integers(n - 1)] = CAPACITY_FLOOR * rng.choice([0.5, 1.0, 2.0])
    else:
        values = rng.uniform(0.0, 1.0e4, size=n - 1) * 10.0 ** rng.integers(-14, 2)
    a = np.zeros((n, n))
    a[np.arange(n - 1), np.arange(1, n)] = a[np.arange(1, n), np.arange(n - 1)] = values
    return a


def test_the_bottleneck_rule_is_max_flow_on_random_chains():
    rng = np.random.default_rng(808)
    for n in range(2, 9):
        stack = np.stack([_chain_capacities(rng, n) for _ in range(40)])
        expected = [max_flow(from_adjacency(a, 0, n - 1))[0] for a in stack]
        assert _same_words(_chain_flow(stack), expected)
        assert _same_words([_chain_flow(a) for a in stack], expected)
        assert 0.0 in expected


def test_a_batch_trial_computes_only_the_rows_of_the_moved_uavs(monkeypatch):
    base = build_default_scenario(7)
    points = [base.with_ue_altitude(v) for v in (20.0, 80.0, 200.0)]
    fading = ch.FadingModel.unit_gain()
    state = ch.ChannelState(base, fading, np.stack([p.positions for p in points]))
    bundle = connectivity_bundle(state)
    grads = tj.lambda2_gradient(state, bundle)
    sizes = []
    smoothed_step = ch.smoothed_step

    def recording(y, safety):
        sizes.append(np.size(y))
        return smoothed_step(y, safety)

    monkeypatch.setattr(ch, "smoothed_step", recording)
    # one trial round: the first candidate is accepted as it is
    tj.step(state, bundle, grads, TrajectoryConfig(backtracking=False))
    assert len(sizes) == 1
    assert 0 < sizes[0] <= len(points) * base.n_uavs * base.n_primary


def _with_shortcut(s):
    # the chain plus one edge that skips a relay: valid, but not a chain
    return dataclasses.replace(s, topology=s.topology + ((0, 2),))


def test_a_non_chain_topology_is_refused_before_record_0(monkeypatch):
    chain = make_line_scenario(np.random.default_rng(809), n_uavs=3)
    s = _with_shortcut(chain)
    history = run(chain, OptimizerConfig(max_iterations=1))
    with pytest.raises(ValueError, match=CHAIN_MESSAGE):
        replay_flow(history, s)

    def first_iteration(*args, **kwargs):
        raise AssertionError("the run got past record 0")

    monkeypatch.setattr(opt, "lambda2_gradient", first_iteration)
    with pytest.raises(ValueError, match=CHAIN_MESSAGE):
        run(s, OptimizerConfig(max_iterations=3))
    with pytest.raises(ValueError, match=CHAIN_MESSAGE):
        run([s, s], OptimizerConfig(max_iterations=3))


def test_a_non_chain_config_exits_one_and_writes_nothing(tmp_path, capsys):
    cfg = scenario_to_config(_with_shortcut(build_default_scenario(7)))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": [50.0]}))
    out = tmp_path / "out"
    for argv in (["run"], ["sweep", "--sweep", str(spec)]):
        assert main(argv + ["--config", str(path), "--out", str(out)]) == 1
        assert f"config error: {CHAIN_MESSAGE}\n" in capsys.readouterr().err
        assert not out.exists()
    # the gradient needs no chain
    assert main(["gradcheck", "--config", str(path)]) == 0
    assert "OK: max relative error" in capsys.readouterr().out
