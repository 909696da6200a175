"""Per-point optimizer loop: the reference a lockstep batch must match.

This is the body ``aerolink.optimizer.run`` had before it advanced a batch
of points as one stack, kept as it was apart from two substitutions: its
finite-difference gradient is the per-bump loop of ``fd_reference`` (one
``Scenario`` and one bundle per bump), and its power solve reads the caps
from ``power_caps``.  ``step`` and ``_analytic_gradient`` are the bodies
``aerolink.trajectory`` had then, kept verbatim: one geometry per call, a
scalar ``** 2`` per edge coefficient, zero coefficients skipped.  Every
iteration builds a new ``Scenario`` for the accepted positions and one for
the solved powers, and every call sees one geometry, so each record comes
from single-geometry arithmetic only.  Each state is built from the current
``Scenario``, so every library call reads that ``Scenario``'s powers and
thresholds.
``sweep_histories`` runs a sweep's grid one point after another, as
``aerolink sweep`` did.
"""

import numpy as np

import fd_reference
from aerolink.channel import ChannelState, build_state, rate_jacobian
from aerolink.cli import _apply_sweep_value, _optimizer_config, _scenario_from_args
from aerolink.flow import from_adjacency, max_flow
from aerolink.optimizer import IterationRecord, RunHistory, TerminationReason
from aerolink.power import power_caps, verify_interference
from aerolink.scenario import validate
from aerolink.spectral import LaplacianMode, connectivity_bundle
from aerolink.trajectory import GradientField, GradientMode, StepResult


def _analytic_gradient(scenario, bundle, state):
    y = bundle.fiedler / np.sqrt(bundle.weights)
    jac = rate_jacobian(state)
    grad = np.zeros((scenario.n_uavs, 3))
    # edge by edge in topology order: each coordinate sums its terms in the
    # same order as a per-coordinate loop would
    for e, (p, q) in enumerate(scenario.topology):
        coeff = (y[p] - y[q]) ** 2
        if coeff == 0.0:
            continue
        grad += coeff * jac[e]
    return grad


def step(scenario, gradient, config, fading, laplacian_mode, bundle, state):
    lam_old = bundle.lambda2
    base = scenario.uav_positions
    uavs = list(scenario.uav_indices)
    axes = list(config.mask.axes)

    def candidate(dt):
        disp = np.zeros_like(base)
        disp[:, axes] = dt * gradient.d_lambda2[:, axes]
        norms = np.linalg.norm(disp, axis=1)
        over = norms > config.max_step_m
        if np.any(over):
            disp[over] *= (config.max_step_m / norms[over])[:, None]
        pos = base.copy()
        pos[:, axes] += disp[:, axes]
        if 2 in axes:
            pos[:, 2] = np.maximum(pos[:, 2], config.min_altitude_m)
        return pos

    def lam_at(pos):
        full = scenario.positions.copy()
        full[uavs] = pos
        moved_state = ChannelState(scenario, fading, full)
        return connectivity_bundle(moved_state, mode=laplacian_mode).lambda2, moved_state

    dt = config.dt
    halvings = 0
    while True:
        pos = candidate(dt)
        lam_new, new_state = lam_at(pos)
        # without backtracking the first candidate is accepted as it is
        if lam_new >= lam_old or not config.backtracking:
            return StepResult(positions=pos, lambda2_before=lam_old,
                              lambda2_after=lam_new, dt_used=dt,
                              halvings=halvings, stalled=False, state=new_state)
        if halvings >= config.max_backtracks:
            return StepResult(positions=base, lambda2_before=lam_old,
                              lambda2_after=lam_old, dt_used=0.0,
                              halvings=halvings, stalled=True, state=state)
        dt *= 0.5
        halvings += 1


def _evaluate(scenario, config):
    state = build_state(scenario, config.fading)
    bundle = connectivity_bundle(state, mode=config.laplacian_mode)
    net = from_adjacency(bundle.matrices, scenario.source, scenario.destination)
    value, _ = max_flow(net)
    report = verify_interference(state)
    return bundle, value, report, state


def _gradient(scenario, config, bundle, state):
    """The gradient field ``lambda2_gradient`` returned."""
    fading, mode = config.fading, config.laplacian_mode
    used = config.trajectory.gradient_mode
    if used is GradientMode.ANALYTIC:
        formula = bundle
        if bundle.mode is not LaplacianMode.COMBINATORIAL_WEIGHTED:
            formula = connectivity_bundle(state, bundle.weights,
                                          LaplacianMode.COMBINATORIAL_WEIGHTED)
        if not formula.degenerate:
            return GradientField(_analytic_gradient(scenario, formula, state), used, False)
        return GradientField(fd_reference.fd_gradient(
            scenario, fading, bundle.weights, mode, config.trajectory.fd_step_m),
            GradientMode.FINITE_DIFFERENCE, True)
    return GradientField(fd_reference.fd_gradient(
        scenario, fading, bundle.weights, mode, config.trajectory.fd_step_m),
        used, bundle.degenerate)


def _record(iteration, current, bundle, flow_value, report, gradient_mode, stalled):
    return IterationRecord(
        iteration=iteration,
        uav_positions=current.uav_positions,
        powers_w=current.node_powers_w.copy(),
        lambda2=bundle.lambda2,
        flow_bits_per_s=flow_value,
        min_interference_margin_w=report.min_margin_w,
        interference_ok=report.passed,
        gradient_mode=gradient_mode,
        stalled=stalled,
        degenerate=bundle.degenerate,
    )


def run(scenario, config):
    problems = validate(scenario)
    if problems:
        raise ValueError("invalid scenario: " + "; ".join(problems))

    current = scenario.with_node_powers(np.full(scenario.n_primary, scenario.p_max_w))
    bundle, flow_value, report, state = _evaluate(current, config)
    records = [_record(0, current, bundle, flow_value, report, None, False)]

    r_prev2, r_prev1 = -np.inf, 0.0
    termination = TerminationReason.MAX_ITERATIONS
    for t in range(1, config.max_iterations + 1):
        if abs(r_prev1 - r_prev2) <= config.epsilon:
            termination = TerminationReason.CONVERGED
            break

        grad = _gradient(current, config, bundle, state)
        moved = step(current, grad, config.trajectory, config.fading,
                     laplacian_mode=config.laplacian_mode, bundle=bundle, state=state)
        current = current.with_uav_positions(moved.positions)
        current = current.with_node_powers(power_caps(moved.state))

        bundle, flow_value, report, state = _evaluate(current, config)
        records.append(_record(t, current, bundle, flow_value, report,
                               grad.mode_used, moved.stalled))
        r_prev2, r_prev1 = r_prev1, flow_value

        if moved.stalled and records[-2].flow_bits_per_s == flow_value:
            termination = TerminationReason.STALLED
            break

    return RunHistory(records=tuple(records), termination=termination)


def sweep_histories(cfg, seed, variable, values, masks):
    """One history per (value, mask) grid point, in grid order."""
    out = []
    for value in values:
        for mask in masks:
            scenario = _apply_sweep_value(_scenario_from_args(cfg, seed), variable, value)
            out.append(run(scenario, _optimizer_config(cfg, mask)))
    return out
