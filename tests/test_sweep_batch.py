"""A batch of points advanced in lockstep against lone runs and the per-point
loop, record for record and bit for bit, and the run-level properties every
record must keep."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sweep_reference as ref
from aerolink import channel as ch
from aerolink import optimizer as opt
from aerolink import trajectory as tj
from aerolink.cli import _apply_sweep_value, _optimizer_config, _scenario_from_args, main
from aerolink.optimizer import OptimizerConfig, TerminationReason, replay_flow, run
from aerolink.power import power_caps, verify_interference
from aerolink.scenario import Scenario, build_default_scenario, scenario_to_config
from aerolink.spectral import LaplacianMode, connectivity_bundle
from aerolink.trajectory import AxisMask, GradientMode, TrajectoryConfig
from conftest import make_line_scenario
from test_channel_arrays import _same_bits, deployments

MASKS = ["xy", "xz", "yz", "xyz"]


def _same_words(a, b):
    """Equal as uint64 words: the bits, signed zeros and nan included."""
    return np.array_equal(np.ascontiguousarray(a, dtype=float).view(np.uint64),
                          np.ascontiguousarray(b, dtype=float).view(np.uint64))


def _assert_same_history(new, old):
    assert new.termination is old.termination
    assert len(new.records) == len(old.records)
    for a, b in zip(new.records, old.records):
        assert a.iteration == b.iteration
        assert a.gradient_mode is b.gradient_mode
        assert (a.interference_ok, a.stalled, a.degenerate) == (
            b.interference_ok, b.stalled, b.degenerate)
        assert _same_bits(a.uav_positions, b.uav_positions)
        assert _same_bits(a.powers_w, b.powers_w)
        assert _same_words([a.lambda2, a.flow_bits_per_s, a.min_interference_margin_w],
                           [b.lambda2, b.flow_bits_per_s, b.min_interference_margin_w])


def _sweep_config(**optimizer):
    cfg = scenario_to_config(build_default_scenario(7))
    cfg["optimizer"] = optimizer
    return cfg


@pytest.mark.parametrize("gradient_mode", ["analytic", "finite-difference"])
@pytest.mark.parametrize("variable, values", [
    ("interference_threshold_dbm", [-50.0, -35.0, -20.0]),
    ("ue_altitude_m", [0.0, 150.0, 400.0]),
])
def test_a_sweep_batch_equals_the_per_point_loop(variable, values, gradient_mode):
    cfg = _sweep_config(epsilon=1e-12, max_iterations=8 if gradient_mode == "analytic" else 4,
                        trajectory={"gradient_mode": gradient_mode, "dt": 4.0})
    expected = ref.sweep_histories(cfg, None, variable, values, MASKS)
    base = _scenario_from_args(cfg, None)
    scenarios = [_apply_sweep_value(base, variable, v) for v in values for _ in MASKS]
    configs = [_optimizer_config(cfg, m) for _ in values for m in MASKS]
    batch = run(scenarios, configs)
    assert len(batch) == len(expected) == len(values) * len(MASKS)
    for new, old in zip(batch, expected):
        _assert_same_history(new, old)
    # a lone run is the batch of one
    _assert_same_history(run(scenarios[-1], configs[-1]), expected[-1])


def test_points_finish_on_their_own_terms():
    # different budgets, thresholds and masks: every point stops as it would alone
    s = build_default_scenario(7)
    scenarios = [s.with_i_max_dbm(v) for v in (-50.0, -30.0, -10.0)] * 2
    configs = [OptimizerConfig(epsilon=eps, max_iterations=budget,
                               trajectory=TrajectoryConfig(mask=mask, dt=dt))
               for eps, budget, mask, dt in (
                   (1e-12, 3, AxisMask.XY, 1.0), (1.0, 40, AxisMask.XYZ, 1.0),
                   (1e-12, 9, AxisMask.YZ, 8.0), (1e9, 9, AxisMask.XZ, 1.0),
                   (1e-12, 1, AxisMask.XYZ, 1.0), (1e-12, 12, AxisMask.XY, 1e4))]
    batch = run(scenarios, configs)
    lone = [run(sc, c) for sc, c in zip(scenarios, configs)]
    # a lone run is the batch of one, so the per-point loop, which shares no
    # stacking, is the independent reference
    for new, old, sc, c in zip(batch, lone, scenarios, configs):
        _assert_same_history(new, old)
        _assert_same_history(old, ref.run(sc, c))
    assert {h.termination for h in lone} >= {TerminationReason.MAX_ITERATIONS,
                                            TerminationReason.CONVERGED}


def test_a_point_that_halves_alone_keeps_its_own_powers_and_thresholds():
    # point 1 has capped nodes at -55 dBm and halves on after point 0 has
    # accepted its trial, so a round evaluates point 1's trial alone; that
    # trial is at point 1's powers and thresholds, not the layout's (point 0's)
    s = build_default_scenario(23)
    scenarios = [s.with_i_max_dbm(-30.0), s.with_i_max_dbm(-55.0)]
    configs = [OptimizerConfig(epsilon=1e-12, max_iterations=6,
                               trajectory=TrajectoryConfig(dt=dt)) for dt in (0.1, 8.0)]
    for new, sc, c in zip(run(scenarios, configs), scenarios, configs):
        _assert_same_history(new, ref.run(sc, c))


def test_a_stalling_point_drops_out_of_the_batch():
    s = make_line_scenario(np.random.default_rng(110), n_si=1, chi=1.0)
    warm = run(s, OptimizerConfig(epsilon=1e-6, max_iterations=200))
    rested = s.with_uav_positions(warm.records[-1].uav_positions)
    stall = OptimizerConfig(epsilon=1e-9, max_iterations=10,
                            trajectory=TrajectoryConfig(dt=1e6, max_backtracks=0))
    keep = OptimizerConfig(epsilon=1e-12, max_iterations=10)
    batch = run([rested, s, rested], [stall, keep, keep])
    assert batch[0].termination is TerminationReason.STALLED
    for new, (sc, c) in zip(batch, [(rested, stall), (s, keep), (rested, keep)]):
        _assert_same_history(new, run(sc, c))
        _assert_same_history(new, ref.run(sc, c))


@pytest.mark.parametrize("mode", list(LaplacianMode))
def test_normalized_and_combinatorial_batches_equal_lone_runs(mode):
    s = build_default_scenario(7)
    config = OptimizerConfig(epsilon=1e-12, max_iterations=6, laplacian_mode=mode)
    scenarios = [s.with_ue_altitude(a) for a in (10.0, 60.0, 300.0)]
    for new, sc in zip(run(scenarios, config), scenarios):
        _assert_same_history(new, run(sc, config))
        _assert_same_history(new, ref.run(sc, config))


@pytest.mark.parametrize("mode", list(LaplacianMode))
def test_an_fd_ascent_run_equals_the_per_bump_reference_run(mode):
    # the reference evaluates each of its 2 * 3 * n_uavs bumps as a Scenario
    # of its own, one at a time
    config = OptimizerConfig(epsilon=1.0e-12, max_iterations=5, laplacian_mode=mode,
                             trajectory=TrajectoryConfig(
                                 gradient_mode=GradientMode.FINITE_DIFFERENCE))
    scenario = build_default_scenario(7)
    expected = ref.run(scenario, config)
    assert len(expected.records) == 6
    assert {r.gradient_mode for r in expected.records[1:]} == {GradientMode.FINITE_DIFFERENCE}
    _assert_same_history(run(scenario, config), expected)


def test_a_batch_must_share_its_layout():
    s = build_default_scenario(7)
    other = build_default_scenario(7, n_uavs=4)
    with pytest.raises(ValueError, match="must share"):
        run([s, other], OptimizerConfig(max_iterations=2))
    with pytest.raises(ValueError, match="must share"):
        run([s, s], [OptimizerConfig(max_iterations=2),
                     OptimizerConfig(max_iterations=2, laplacian_mode=LaplacianMode.NORMALIZED_WEIGHTED)])
    assert run([], OptimizerConfig()) == []


def test_a_mismatched_batch_is_refused_before_any_point_runs(monkeypatch):
    s = build_default_scenario(7)
    ran = []
    monkeypatch.setattr(opt, "_lockstep", lambda *args, **kwargs: ran.append(1))
    with pytest.raises(ValueError, match="must share"):
        run([s, build_default_scenario(7, n_uavs=4)], OptimizerConfig(max_iterations=2))
    assert ran == []


def test_a_failing_point_raises_what_the_first_failing_point_raises_alone():
    # proximity only, 400 m apart: every proximity term is denormal or zero,
    # so the point fails at its first evaluation
    s = make_line_scenario(np.random.default_rng(63), n_uavs=3, n_si=0, chi=1.0,
                           jitter=False)
    n = s.n_primary
    bad = dataclasses.replace(s, positions=np.column_stack(
        [400.0 * np.arange(n), np.zeros(n), np.full(n, 30.0)]))
    config = OptimizerConfig(epsilon=1e-12, max_iterations=3)
    with pytest.raises(ValueError) as alone:
        run(bad, config)
    assert str(alone.value).startswith("zero SIR denominator")
    with pytest.raises(ValueError) as batch:
        run([s, bad, s], config)
    assert str(batch.value) == str(alone.value)


# ---------------------------------------------------------- the CLI sweep


def test_sweep_bytes_do_not_depend_on_jobs(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_sweep_config(epsilon=1e-12, max_iterations=5)))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"variable": "interference_threshold_dbm",
                                "values": [-50.0, -40.0, -30.0], "masks": MASKS}))
    outs = []
    for jobs in (1, 2, 3, 20):
        out = tmp_path / f"j{jobs}"
        assert main(["sweep", "--config", str(cfg_path), "--sweep", str(spec),
                     "--out", str(out), "--jobs", str(jobs)]) == 0
        outs.append((out / "sweep.csv").read_bytes())
    assert len(set(outs)) == 1


def test_sweep_builds_the_scenario_once_per_value(tmp_path, monkeypatch):
    built = []
    init = Scenario.__post_init__

    def counted(self):
        built.append(1)
        init(self)

    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(_sweep_config(epsilon=1e-12, max_iterations=4)))
    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({"variable": "ue_altitude_m", "values": [20.0, 40.0],
                                "masks": MASKS}))
    monkeypatch.setattr(Scenario, "__post_init__", counted)
    assert main(["sweep", "--config", str(cfg_path), "--sweep", str(spec),
                 "--out", str(tmp_path / "out")]) == 0
    # the config's scenario, then one per value: none per point or iteration
    assert len(built) == 3


# ------------------------------------------------- O(1) scenarios per run


@pytest.mark.parametrize("gradient_mode", list(GradientMode))
def test_a_run_builds_a_constant_number_of_scenarios(gradient_mode, monkeypatch):
    built = []
    init = Scenario.__post_init__

    def counted(self):
        built.append(1)
        init(self)

    s = build_default_scenario(7)
    monkeypatch.setattr(Scenario, "__post_init__", counted)
    counts = []
    for budget in (2, 12):
        built.clear()
        history = run(s, OptimizerConfig(epsilon=1e-12, max_iterations=budget,
                                         trajectory=TrajectoryConfig(
                                             gradient_mode=gradient_mode)))
        assert history.iterations == budget
        counts.append(len(built))
    assert counts == [0, 0]


# --------------------------------------------------------- run properties


@st.composite
def chain_deployments(draw):
    """The channel-array deployments on a chain, the topology the power solve
    needs, with a few thresholds to sweep."""
    s, fading = draw(deployments())
    s = dataclasses.replace(s, topology=tuple((i, i + 1) for i in range(s.n_primary - 1)))
    thresholds = draw(st.lists(st.floats(1.0e-9, 1.0e-4), min_size=1, max_size=3))
    return s, fading, thresholds


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(chain_deployments(), st.sampled_from(list(GradientMode)),
       st.lists(st.sampled_from(list(AxisMask)), min_size=1, max_size=3))
def test_run_properties_hold_through_the_batch_path(case, gradient_mode, masks):
    s, fading, thresholds = case
    points = [(dataclasses.replace(s, i_max_w=np.full(s.n_si, v)), m)
              for v in thresholds for m in masks]
    scenarios = [p[0] for p in points]
    configs = [OptimizerConfig(epsilon=1e-12, max_iterations=4, fading=fading,
                               trajectory=TrajectoryConfig(mask=m, gradient_mode=gradient_mode))
               for _, m in points]
    try:
        lone = [run(sc, c) for sc, c in zip(scenarios, configs)]
    except ValueError as exc:
        with pytest.raises(ValueError) as batch_error:
            run(scenarios, configs)
        assert str(batch_error.value) == str(exc)
        return
    batch = run(scenarios, configs)
    for history, alone, sc, c in zip(batch, lone, scenarios, configs):
        _assert_same_history(history, alone)
        records = history.records
        for t, rec in enumerate(records):
            positions = sc.positions.copy()
            positions[list(sc.uav_indices)] = rec.uav_positions
            state = ch.ChannelState(sc, fading, positions)
            assert replay_flow(history, sc, c, t) == rec.flow_bits_per_s
            if t == 0:
                continue
            # solved powers: the caps at the record's geometry, inside every threshold
            assert _same_bits(rec.powers_w, power_caps(state))
            assert rec.interference_ok
            assert verify_interference(
                ch.ChannelState(sc, fading, positions, powers=rec.powers_w)).passed
            # an accepted step never lowers lambda2 at the powers it was taken at
            if not rec.stalled:
                before = records[t - 1]
                at_old_powers = connectivity_bundle(
                    ch.ChannelState(sc, fading, positions, powers=before.powers_w)).lambda2
                assert at_old_powers >= before.lambda2


# ------------------------------------------------- stacked gradient layers


def _einsum_interference_grad(state):
    # the per-geometry form the stacked table replaced
    sc = state.scenario
    n, si = sc.n_primary, list(sc.si_indices)
    pos = state.positions
    d = state.dist[si, :n]
    coeff = sc.si_powers_w[:, None] * (-state.alpha[si, :n]) * state.gain_sq[si, :n] / d ** 2
    return np.einsum("mj,mjc->jc", coeff, pos[:n][None, :, :] - pos[si][:, None, :])


@pytest.mark.parametrize("fading_kind", ["unit", "rayleigh"])
def test_stacked_gradient_tables_equal_each_geometry_alone(fading_kind):
    rng = np.random.default_rng(75)
    for k in range(10):
        # unjittered chains sit on y = 0, where many terms are signed zeros
        s = make_line_scenario(rng, n_uavs=6 + k % 3, chi=float(k % 4 != 3),
                               n_si=None if k % 3 else 1, jitter=k % 2 == 0)
        fading = ch.FadingModel(fading_kind, k)
        stack = s.positions + rng.uniform(-2.0, 2.0, size=(2, 3) + s.positions.shape)
        stack[0, 0] = s.positions
        powers = rng.uniform(0.01, 0.1, size=(2, 3, s.n_primary))
        stacked = ch.ChannelState(s, fading, stack, powers=powers)
        for g in np.ndindex(stack.shape[:-2]):
            alone = ch.ChannelState(dataclasses.replace(s, positions=stack[g]), fading,
                                    powers=powers[g])
            if s.n_si:
                assert _same_bits(alone.si_interference_grad, _einsum_interference_grad(alone))
            for table in ("safety_slope", "si_interference_grad", "safety_sum_gradients"):
                assert _same_bits(getattr(stacked, table)[g], getattr(alone, table)), table
            assert _same_bits(ch.sir_jacobian(stacked)[g], ch.sir_jacobian(alone))
            assert _same_bits(ch.rate_jacobian(stacked)[g], ch.rate_jacobian(alone))
            assert _same_bits(ch.edge_rates(stacked)[g], ch.edge_rates(alone))


def test_a_stacked_analytic_gradient_equals_the_per_geometry_formula():
    # the per-edge coefficients squared by a scalar ``** 2`` and summed edge by
    # edge; enough geometries that a coefficient rounded another way shows
    rng = np.random.default_rng(76)
    for k in range(6):
        s = make_line_scenario(rng, n_uavs=5 + k % 4, chi=float(k % 3 != 2),
                               n_si=None if k % 2 else 0)
        fading = ch.FadingModel("rayleigh" if k % 2 else "unit", k)
        stack = s.positions + rng.uniform(-3.0, 3.0, size=(40, 8) + s.positions.shape)
        powers = rng.uniform(0.01, 0.1, size=(40, 8, s.n_primary))
        stacked = ch.ChannelState(s, fading, stack, powers=powers)
        bundle = connectivity_bundle(stacked)
        grad = tj._analytic_gradient(bundle, stacked)
        for g in np.ndindex(stack.shape[:-2]):
            placed = dataclasses.replace(s, positions=stack[g], node_powers_w=powers[g])
            alone = ch.build_state(placed, fading)
            own = connectivity_bundle(alone)
            assert _same_bits(grad[g], ref._analytic_gradient(placed, own, alone)), g


# -------------------------------------------- states over a reference state


TABLES = ("dist", "gain_sq", "interference_w", "safety_u", "sir_denominators")


def _rows_computed(monkeypatch):
    sizes = []
    smoothed = ch.smoothed_step

    def recording(y, safety):
        sizes.append(np.size(y))
        return smoothed(y, safety)

    monkeypatch.setattr(ch, "smoothed_step", recording)
    return sizes


def test_a_state_over_a_reference_computes_only_the_moved_rows(monkeypatch):
    s = build_default_scenario(7)
    n = s.n_primary
    fading = ch.FadingModel.unit_gain()
    moved = s.positions.copy()
    moved[list(s.uav_indices)] += np.array([3.0, -2.0, 1.5])
    sizes = _rows_computed(monkeypatch)
    reference = ch.build_state(s, fading)
    assert sum(sizes) == n * n
    sizes.clear()
    over = ch.ChannelState(s, fading, moved, reference)
    assert sum(sizes) == s.n_uavs * n
    sizes.clear()
    alone = ch.ChannelState(s, fading, moved)
    assert sum(sizes) == n * n
    placed = ch.build_state(dataclasses.replace(s, positions=moved), fading)
    for table in TABLES:
        assert _same_bits(getattr(over, table), getattr(placed, table)), table
        assert _same_bits(getattr(alone, table), getattr(placed, table)), table


def test_a_state_over_a_reference_takes_the_reference_scenario_and_fading():
    # rows copied from a reference of another fading or scenario would mix
    # two channel models in one table
    s = build_default_scenario(7)
    reference = ch.build_state(s, ch.FadingModel.rayleigh(3))
    moved = s.positions.copy()
    moved[1, 0] += 1.0
    for scenario, fading in ((s, ch.FadingModel.unit_gain()), (s, ch.FadingModel.rayleigh(4)),
                             (s.with_i_max_dbm(-50.0), reference.fading)):
        with pytest.raises(ValueError, match="takes its scenario and fading"):
            ch.ChannelState(scenario, fading, moved, reference)
    placed = ch.build_state(dataclasses.replace(s, positions=moved), reference.fading)
    over = ch.ChannelState(s, ch.FadingModel.rayleigh(3), moved, reference)
    for table in TABLES:
        assert _same_bits(getattr(over, table), getattr(placed, table)), table


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(deployments(), st.data())
def test_stacks_over_reference_states_match_states_built_alone(case, data):
    s, fading = case
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n_refs = data.draw(st.integers(1, 3))
    # 25 m slots with 10 m jitter: moves under 1.2 m per step keep every pair apart
    refs = s.positions + rng.uniform(-1.2, 1.2, size=(n_refs,) + s.positions.shape)
    moves = np.array(data.draw(st.lists(st.booleans(), min_size=2 * n_refs * s.n_total,
                                        max_size=2 * n_refs * s.n_total)))
    stack = refs[:, None] + (rng.uniform(-1.2, 1.2, size=(n_refs, 2) + s.positions.shape)
                             * moves.reshape(n_refs, 2, s.n_total)[..., None])
    # each reference geometry at its own powers and thresholds, which the
    # geometries over it take
    powers = rng.uniform(0.01, 0.1, size=(n_refs, s.n_primary))
    i_max = rng.uniform(1.0e-9, 1.0e-4, size=(n_refs, s.n_si))
    reference = ch.ChannelState(s, fading, refs, powers=powers, i_max_w=i_max)
    stacked = ch.ChannelState(s, fading, stack, reference)
    for g in np.ndindex(stack.shape[:-2]):
        placed = ch.ChannelState(dataclasses.replace(s, positions=stack[g]), fading,
                                 powers=powers[g[0]], i_max_w=i_max[g[0]])
        for table in TABLES + ("powers", "i_max_w"):
            assert _same_bits(getattr(stacked, table)[g], getattr(placed, table)), (table, g)


# -------------------------------------------------- edge checks per layout


def _checked_sirs_per_edge(edges, state):
    # the check pair by pair: both directions of each edge, in edge order
    sirs = ch.sir_matrix(state)
    finite = np.isfinite(sirs).all(axis=tuple(range(sirs.ndim - 2)))
    for p, q in edges:
        for i, j in ((p, q), (q, p)):
            if not finite[i, j]:
                raise ValueError(ch._ZERO_DENOMINATOR)
    return sirs


def _checked_link_sirs(state):
    return ch._checked(ch._link_sirs(state))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_a_stacked_check_raises_what_the_lone_check_raises():
    s = make_line_scenario(np.random.default_rng(76), n_uavs=3, n_si=0, chi=1.0)
    n = s.n_primary
    decayed = s.positions.copy()
    decayed[:n] = np.column_stack([400.0 * np.arange(n), np.zeros(n), np.full(n, 30.0)])
    half = s.positions.copy()
    half[n - 1] = [2000.0, 0.0, 30.0]           # only the last edge dies
    fading = ch.FadingModel.unit_gain()
    i, j = ch._links(s.topology)
    for geometries in ((s.positions, decayed), (half, s.positions),
                       (s.positions, s.positions), (decayed,), (half,)):
        stacked = ch.ChannelState(s, fading, np.stack(geometries))
        new = _outcome(_checked_link_sirs, stacked)
        old = _outcome(_checked_sirs_per_edge, s.topology, stacked)
        lone = [_outcome(_checked_link_sirs, ch.ChannelState(s, fading, g))
                for g in geometries]
        failed = [m for m in lone if isinstance(m, str)]
        if isinstance(old, str):
            assert new == old
            # one failing geometry: the stack raises exactly what it raises alone
            assert len(failed) != 1 or new == failed[0]
        else:
            assert not failed
            assert _same_words(new, old[..., i, j])
