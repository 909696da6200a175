"""Connectivity-ascent gradients and the masked, clipped, backtracked step."""

import dataclasses

import numpy as np
import pytest

import aerolink.spectral as sp
import aerolink.trajectory as tj
from aerolink.channel import ChannelState, FadingModel, build_state
from aerolink.scenario import Scenario, build_default_scenario
from aerolink.spectral import LaplacianMode
from aerolink.trajectory import (AxisMask, GradientField, GradientMode,
                                 TrajectoryConfig)

from conftest import make_line_scenario


def _context(scenario, mode=LaplacianMode.COMBINATORIAL_WEIGHTED):
    """The state and bundle of the scenario's own geometry."""
    state = build_state(scenario)
    return state, sp.connectivity_bundle(state, mode=mode)


def _grad(scenario, mode=LaplacianMode.COMBINATORIAL_WEIGHTED, **kw):
    return tj.lambda2_gradient(*_context(scenario, mode), **kw)


def _step(scenario, gradient, config):
    return tj.step(*_context(scenario), gradient, config)


# ---------------------------------------------------------------- gradients


def test_analytic_gradient_matches_finite_differences():
    rng = np.random.default_rng(80)
    for _ in range(6):
        s = make_line_scenario(rng)
        a = _grad(s, gradient_mode=GradientMode.ANALYTIC)
        f = _grad(s, gradient_mode=GradientMode.FINITE_DIFFERENCE)
        assert a.mode_used is GradientMode.ANALYTIC
        assert f.mode_used is GradientMode.FINITE_DIFFERENCE
        scale = max(np.abs(a.d_lambda2).max(), np.abs(f.d_lambda2).max())
        assert np.abs(a.d_lambda2 - f.d_lambda2).max() <= 1e-4 * scale


def test_gradient_is_invariant_to_fiedler_sign():
    s = make_line_scenario(np.random.default_rng(81))
    st, b = _context(s)
    flipped = dataclasses.replace(b, fiedler=-b.fiedler)
    g1 = tj._analytic_gradient(b, st)
    g2 = tj._analytic_gradient(flipped, st)
    assert np.array_equal(g1, g2)


def test_in_plane_deployment_has_no_lateral_gradient():
    # everything sits on the y = 0 plane, so moving any UAV off it is
    # first-order neutral for every link rate
    s = make_line_scenario(np.random.default_rng(82), n_si=0, chi=1.0, jitter=False)
    g = _grad(s).d_lambda2
    assert np.array_equal(g[:, 1], np.zeros(s.n_uavs))
    assert np.abs(g[:, [0, 2]]).max() > 0.0


def test_degenerate_bundle_falls_back_to_finite_differences():
    s = make_line_scenario(np.random.default_rng(83), n_uavs=3)
    st, b = _context(s)
    assert not b.degenerate
    fake = dataclasses.replace(b, degenerate=True)
    g = tj.lambda2_gradient(st, fake)
    assert g.mode_used is GradientMode.FINITE_DIFFERENCE
    assert g.degenerate
    direct = _grad(s, gradient_mode=GradientMode.FINITE_DIFFERENCE)
    assert np.array_equal(g.d_lambda2, direct.d_lambda2)


def test_analytic_form_always_uses_the_combinatorial_fiedler():
    # tracked mode normalized, gradient mode analytic: the per-edge formula
    # is still evaluated with the combinatorial weighted Fiedler vector
    s = make_line_scenario(np.random.default_rng(84))
    a_norm = _grad(s, LaplacianMode.NORMALIZED_WEIGHTED)
    a_comb = _grad(s, LaplacianMode.COMBINATORIAL_WEIGHTED)
    assert np.array_equal(a_norm.d_lambda2, a_comb.d_lambda2)

    # which makes it a mere heuristic for the normalized eigenvalue
    f_norm = _grad(s, LaplacianMode.NORMALIZED_WEIGHTED,
                   gradient_mode=GradientMode.FINITE_DIFFERENCE)
    scale = np.abs(f_norm.d_lambda2).max()
    assert np.abs(a_norm.d_lambda2 - f_norm.d_lambda2).max() > 1e-4 * scale


# --------------------------------------------------------------------- step


def test_zero_gradient_returns_positions_bitwise():
    s = make_line_scenario(np.random.default_rng(85))
    g = GradientField(d_lambda2=np.zeros((s.n_uavs, 3)),
                      mode_used=GradientMode.ANALYTIC, degenerate=False)
    res = _step(s, g, TrajectoryConfig())
    assert np.array_equal(res.positions, s.uav_positions)
    assert not res.stalled
    assert res.lambda2_after == res.lambda2_before


def test_masked_axes_stay_bitwise_untouched():
    rng = np.random.default_rng(86)
    s = make_line_scenario(rng)
    g = _grad(s)
    for mask, frozen_axis in ((AxisMask.XY, 2), (AxisMask.XZ, 1), (AxisMask.YZ, 0)):
        res = _step(s, g, TrajectoryConfig(mask=mask))
        assert np.array_equal(res.positions[:, frozen_axis],
                              s.uav_positions[:, frozen_axis])


def test_displacement_clipped_per_uav():
    s = make_line_scenario(np.random.default_rng(87))
    big = GradientField(d_lambda2=np.full((s.n_uavs, 3), 1e9),
                        mode_used=GradientMode.ANALYTIC, degenerate=False)
    cfg = TrajectoryConfig(backtracking=False, max_step_m=5.0)
    res = _step(s, big, cfg)
    moved = np.linalg.norm(res.positions - s.uav_positions, axis=1)
    assert moved == pytest.approx(np.full(s.n_uavs, 5.0), rel=1e-12)


def test_altitude_clamp_applies_only_when_z_is_active():
    s = make_line_scenario(np.random.default_rng(88), jitter=False)  # z = 30
    dive = GradientField(d_lambda2=np.tile([0.0, 0.0, -1e9], (s.n_uavs, 1)),
                         mode_used=GradientMode.ANALYTIC, degenerate=False)
    cfg = TrajectoryConfig(backtracking=False, max_step_m=50.0)
    res = _step(s, dive, cfg)
    assert np.array_equal(res.positions[:, 2], np.ones(s.n_uavs))

    res_xy = _step(s, dive, TrajectoryConfig(backtracking=False, max_step_m=50.0,
                                             mask=AxisMask.XY))
    assert np.array_equal(res_xy.positions[:, 2], s.uav_positions[:, 2])


def test_backtracking_never_accepts_a_decrease():
    rng = np.random.default_rng(89)
    for _ in range(6):
        s = make_line_scenario(rng)
        res = _step(s, _grad(s), TrajectoryConfig(dt=50.0))
        assert not res.stalled
        assert res.lambda2_after >= res.lambda2_before
        assert res.halvings <= 20
        assert res.dt_used == 50.0 * 0.5 ** res.halvings


def test_descent_direction_stalls():
    s = make_line_scenario(np.random.default_rng(90))
    g = _grad(s)
    down = GradientField(d_lambda2=-g.d_lambda2, mode_used=g.mode_used,
                         degenerate=False)
    res = _step(s, down, TrajectoryConfig(max_backtracks=8))
    assert res.stalled
    assert np.array_equal(res.positions, s.uav_positions)
    assert res.dt_used == 0.0
    assert res.lambda2_after == res.lambda2_before
    assert res.halvings == 8


def test_repeated_steps_climb():
    s = make_line_scenario(np.random.default_rng(91))
    cfg = TrajectoryConfig()
    lams = []
    for _ in range(5):
        res = _step(s, _grad(s), cfg)
        lams.append((res.lambda2_before, res.lambda2_after))
        s = s.with_uav_positions(res.positions)
    for before, after in lams:
        assert after >= before
    assert lams[-1][1] > lams[0][0]


def test_first_candidate_acceptance_reports_full_dt():
    s = make_line_scenario(np.random.default_rng(92))
    res = _step(s, _grad(s), TrajectoryConfig(dt=1e-3))
    assert res.halvings == 0
    assert res.dt_used == 1e-3


# ------------------------------------------------------------ configuration


def test_config_validation():
    with pytest.raises(ValueError, match="dt"):
        TrajectoryConfig(dt=0.0)
    with pytest.raises(ValueError, match="max_step_m"):
        TrajectoryConfig(max_step_m=-1.0)
    with pytest.raises(ValueError, match="fd_step_m"):
        TrajectoryConfig(fd_step_m=0.0)


def test_negative_backtrack_budget_and_altitude_floor_are_rejected():
    # a negative budget used to act as 0; a negative floor is below any
    # altitude a scenario may have
    with pytest.raises(ValueError, match="max_backtracks"):
        TrajectoryConfig(max_backtracks=-1)
    with pytest.raises(ValueError, match="min_altitude_m"):
        TrajectoryConfig(min_altitude_m=-0.5)
    TrajectoryConfig(max_backtracks=0, min_altitude_m=0.0)


def test_axis_mask_parsing():
    assert AxisMask.from_string(" XZ ") is AxisMask.XZ
    assert AxisMask.from_string("xyz") is AxisMask.XYZ
    assert AxisMask.XY.axes == (0, 1)
    assert AxisMask.YZ.axes == (1, 2)
    with pytest.raises(ValueError, match="unknown axis mask"):
        AxisMask.from_string("zy")


# ------------------------------------------------- one way to evaluate a geometry


def _count_scenarios(monkeypatch):
    built = []
    init = Scenario.__post_init__

    def counted(self):
        built.append(1)
        init(self)

    monkeypatch.setattr(Scenario, "__post_init__", counted)
    return built


def test_a_backtracking_step_builds_no_scenario(monkeypatch):
    # every trial geometry is a ChannelState over positions
    s = build_default_scenario(7)
    grad = _grad(s)
    built = _count_scenarios(monkeypatch)
    res = _step(s, grad, TrajectoryConfig(dt=1.0e3, max_step_m=20.0))
    assert res.halvings >= 1 and not res.stalled
    assert built == []


def test_a_failing_stack_builds_no_scenario(monkeypatch):
    s = make_line_scenario(np.random.default_rng(64), n_uavs=3, n_si=0, chi=1.0)
    coincident = s.positions.copy()
    coincident[2] = coincident[1]
    built = _count_scenarios(monkeypatch)
    with pytest.raises(ValueError, match="two nodes share a position"):
        sp.lambda2_stack(build_state(s), np.stack([s.positions, s.positions, coincident]))
    assert built == []


# ------------------------------------------------- the accepted geometry's bundle


def _words(value):
    return np.ascontiguousarray(value, dtype=float).view(np.uint64)


def _assert_same_bundle(got, want):
    """Every field equal, as uint64 words where it is a number."""
    assert got.mode is want.mode
    for name in ("adjacency", "degree", "laplacian"):
        assert np.array_equal(_words(getattr(got.matrices, name)),
                              _words(getattr(want.matrices, name))), name
    for name in ("weighted_laplacian", "weights", "lambda2", "fiedler", "spectral_gap",
                 "degenerate"):
        assert np.array_equal(_words(getattr(got, name)), _words(getattr(want, name))), name


def _downhill(field):
    return GradientField(d_lambda2=-field.d_lambda2, mode_used=field.mode_used,
                         degenerate=field.degenerate)


# (fading of the input state, Laplacian mode of its bundle, id suffix).  The
# steps' dt values below were chosen under the defaults (no suffix), where
# every lone step halves and the batch's points halve different numbers of
# times; the normalized lambda2 of this geometry still rises over a full
# 20 m move.
DEFAULTS = (FadingModel.unit_gain(), LaplacianMode.COMBINATORIAL_WEIGHTED)
CONTEXTS = [DEFAULTS + (None,),
            (FadingModel.rayleigh(3), LaplacianMode.COMBINATORIAL_WEIGHTED, "rayleigh"),
            (FadingModel.unit_gain(), LaplacianMode.NORMALIZED_WEIGHTED, "normalized"),
            (FadingModel.rayleigh(3), LaplacianMode.NORMALIZED_WEIGHTED, "rayleigh-normalized")]


def _ascent(state, mode):
    """The input bundle and the gradient of its lambda2 (by finite differences
    in the normalized mode, where the analytic form is not its derivative)."""
    bundle = sp.connectivity_bundle(state, mode=mode)
    gradient_mode = (GradientMode.ANALYTIC if mode is LaplacianMode.COMBINATORIAL_WEIGHTED
                     else GradientMode.FINITE_DIFFERENCE)
    return bundle, tj.lambda2_gradient(state, bundle, gradient_mode)


def _assert_in_context(res, state, bundle):
    """The result keeps the input's fading, powers and thresholds, and its
    bundle is the accepted state's in the input bundle's mode and weights."""
    assert res.state.fading is state.fading
    for values in ("powers", "i_max_w"):
        assert np.array_equal(_words(getattr(res.state, values)),
                              _words(getattr(state, values))), values
    _assert_same_bundle(res.bundle, sp.connectivity_bundle(res.state, bundle.weights,
                                                           bundle.mode))


@pytest.mark.parametrize("stall, fading, mode", [
    pytest.param(stall, fading, mode, id="-".join([str(stall)] + ([tag] if tag else [])))
    for fading, mode, tag in CONTEXTS for stall in (False, True)])
def test_a_step_returns_the_bundle_of_its_accepted_geometry(stall, fading, mode):
    # the bundle of the accepted positions at the step's powers: the
    # accepted trial's, or the input one on a stall
    s = build_default_scenario(7)
    state = ChannelState(s, fading, powers=s.p_max_w * np.linspace(0.3, 1.0, s.n_primary),
                         i_max_w=s.i_max_w * np.linspace(0.001, 0.01, s.n_si))
    bundle, grad = _ascent(state, mode)
    res = tj.step(state, bundle, _downhill(grad) if stall else grad,
                  TrajectoryConfig(dt=1.0e2, max_step_m=20.0, max_backtracks=8))
    assert res.stalled == stall
    assert res.halvings >= 1 or mode is LaplacianMode.NORMALIZED_WEIGHTED
    _assert_in_context(res, state, bundle)


@pytest.mark.parametrize("fading, mode", [pytest.param(fading, mode, id=tag or "unit")
                                          for fading, mode, tag in CONTEXTS])
def test_a_batch_step_returns_the_joined_bundle_of_its_accepted_geometries(fading, mode):
    # points halving a different number of times, one of them stalling, and
    # one accepted on its first trial
    s = build_default_scenario(7)
    rng = np.random.default_rng(5)
    positions = np.stack([s.positions] * 4)
    positions[1:, list(s.uav_indices)] += rng.uniform(-2.0, 2.0, (3, s.n_uavs, 3))
    powers = s.p_max_w * rng.uniform(0.2, 1.0, (4, s.n_primary))
    state = ChannelState(s, fading, positions, powers=powers,
                         i_max_w=s.i_max_w * rng.uniform(0.001, 1.0, (4, s.n_si)))
    bundle, grads = _ascent(state, mode)
    grads = list(grads)
    grads[2] = _downhill(grads[2])
    configs = [TrajectoryConfig(dt=dt, max_step_m=20.0, max_backtracks=14)
               for dt in (1.0e2, 1.0e4, 1.0e2, 1.0)]
    results = tj.step(state, bundle, grads, configs)
    assert [r.stalled for r in results] == [False, False, True, False]
    if (fading, mode) == DEFAULTS:
        assert len({r.halvings for r in results}) == 4 and results[3].halvings == 0
    assert all(r.bundle is results[0].bundle for r in results)
    _assert_in_context(results[0], state, bundle)
