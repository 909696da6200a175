"""3D trajectory design: gradient ascent on algebraic connectivity.

Each step moves every UAV along the gradient of lambda2 of the rate-weighted
Laplacian.  For the node-weighted combinatorial Laplacian the gradient has
an exact per-edge form: with y = W^(-1/2) x_f built from the unit Fiedler
vector, each edge (p, q) contributes (y_p - y_q)^2 times the spatial
gradient of its rate.  Finite differences are available as a fallback and
as the honest option for the normalized Laplacian, whose Fiedler formula
is only a heuristic.  They evaluate every +-h bump of every UAV coordinate
in one stacked lambda2 pass, bit-identical to bumping one coordinate at a
time.  A step evaluates each trial as a ``ChannelState`` over its positions
(no new ``Scenario``) and returns the state of the positions it accepts,
so the caller need not build it again.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelState, FadingModel, _state_for, rate_jacobian
from .scenario import Scenario
from .spectral import LaplacianBundle, LaplacianMode, connectivity_bundle, lambda2_stack


class AxisMask(Enum):
    XY = "xy"
    XZ = "xz"
    YZ = "yz"
    XYZ = "xyz"

    @property
    def axes(self) -> tuple:
        return tuple("xyz".index(c) for c in self.value)

    @staticmethod
    def from_string(text: str) -> "AxisMask":
        try:
            return AxisMask(text.strip().lower())
        except ValueError:
            raise ValueError(f"unknown axis mask {text!r}; use xy, xz, yz or xyz") from None


class GradientMode(Enum):
    ANALYTIC = "analytic"
    FINITE_DIFFERENCE = "finite-difference"


@dataclass(frozen=True)
class TrajectoryConfig:
    dt: float = 1.0                  # ascent step scale
    mask: AxisMask = AxisMask.XYZ
    gradient_mode: GradientMode = GradientMode.ANALYTIC
    backtracking: bool = True
    max_backtracks: int = 20
    max_step_m: float = 5.0          # per-UAV displacement clip
    min_altitude_m: float = 1.0
    fd_step_m: float = 1.0e-3

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.max_step_m <= 0.0:
            raise ValueError("max_step_m must be positive")
        if self.fd_step_m <= 0.0:
            raise ValueError("fd_step_m must be positive")


@dataclass(frozen=True)
class GradientField:
    d_lambda2: np.ndarray    # (n_uavs, 3)
    mode_used: GradientMode
    degenerate: bool


def _analytic_gradient(scenario: Scenario, bundle: LaplacianBundle,
                       state) -> np.ndarray:
    y = bundle.fiedler / np.sqrt(bundle.weights)
    jac = rate_jacobian(scenario, state)
    grad = np.zeros((scenario.n_uavs, 3))
    # edge by edge in topology order: each coordinate sums its terms in the
    # same order as a per-coordinate loop would
    for e, (p, q) in enumerate(scenario.topology):
        coeff = (y[p] - y[q]) ** 2
        if coeff == 0.0:
            continue
        grad += coeff * jac[e]
    return grad


def _fd_gradient(scenario: Scenario, fading, weights, mode, h: float) -> np.ndarray:
    """Central differences of lambda2 in every UAV coordinate, in one pass.

    The 2 * 3 * n_uavs bumped geometries (coordinate + h, then that value
    - 2h) form one (n_uavs, 3, 2, n_total, 3) stack for ``lambda2_stack``,
    so the gradient is bit-identical to bumping and evaluating one
    coordinate at a time, and a failing bump raises what it raised there.
    """
    base = scenario.uav_positions
    n_uavs = base.shape[0]
    stack = np.tile(scenario.positions, (n_uavs, 3, 2, 1, 1))
    uav, axis = np.arange(n_uavs)[:, None], np.arange(3)[None, :]
    node = np.array(scenario.uav_indices)[:, None]
    hi = base + h
    stack[uav, axis, 0, node, axis] = hi
    stack[uav, axis, 1, node, axis] = hi - 2.0 * h
    lam = lambda2_stack(scenario, stack, fading, weights, mode)
    return (lam[..., 0] - lam[..., 1]) / (2.0 * h)


def lambda2_gradient(scenario: Scenario,
                     fading: FadingModel | None = None,
                     laplacian_mode: LaplacianMode = LaplacianMode.COMBINATORIAL_WEIGHTED,
                     gradient_mode: GradientMode = GradientMode.ANALYTIC,
                     fd_step_m: float = 1.0e-3,
                     bundle: LaplacianBundle | None = None,
                     state=None) -> GradientField:
    """Gradient of lambda2 with respect to every UAV coordinate.

    A degenerate Fiedler pair (tiny spectral gap) makes the analytic form
    unreliable, so the call falls back to central finite differences and
    flags it.  The analytic form is exact only for the combinatorial
    weighted Laplacian; for the normalized one it is a known approximation
    and finite differences should be preferred.
    """
    state = _state_for(scenario, fading, state)
    if bundle is None:
        bundle = connectivity_bundle(scenario, fading, mode=laplacian_mode, state=state)
    mode_used = gradient_mode
    degenerate = bundle.degenerate
    if gradient_mode is GradientMode.ANALYTIC:
        # the per-edge formula is the eigenvalue derivative of the
        # combinatorial weighted Laplacian; its Fiedler vector is used even
        # when the caller tracks the normalized one (a documented mismatch
        # that gradcheck exists to expose)
        formula = bundle
        if bundle.mode is not LaplacianMode.COMBINATORIAL_WEIGHTED:
            formula = connectivity_bundle(scenario, fading, bundle.weights,
                                          LaplacianMode.COMBINATORIAL_WEIGHTED, state)
        degenerate = formula.degenerate
        if degenerate:
            mode_used = GradientMode.FINITE_DIFFERENCE
        else:
            grad = _analytic_gradient(scenario, formula, state)
    if mode_used is GradientMode.FINITE_DIFFERENCE:
        grad = _fd_gradient(scenario, fading, bundle.weights, laplacian_mode, fd_step_m)
    return GradientField(d_lambda2=grad, mode_used=mode_used, degenerate=degenerate)


@dataclass(frozen=True)
class StepResult:
    positions: np.ndarray    # (n_uavs, 3) accepted positions
    lambda2_before: float
    lambda2_after: float
    dt_used: float
    halvings: int
    stalled: bool            # backtracking exhausted; positions unchanged
    state: ChannelState      # tables of the accepted positions (powers do not enter)


def step(scenario: Scenario,
         gradient: GradientField,
         config: TrajectoryConfig,
         fading: FadingModel | None = None,
         laplacian_mode: LaplacianMode = LaplacianMode.COMBINATORIAL_WEIGHTED,
         bundle: LaplacianBundle | None = None,
         state=None) -> StepResult:
    """One ascent step with masking, step clipping, and optional backtracking.

    Masked axes are left bit-for-bit untouched.  The displacement of each
    UAV is clipped to max_step_m; accepted altitudes never drop below
    min_altitude_m (only enforced when z is an active axis).  With
    backtracking on, dt is halved until lambda2 does not decrease; if
    max_backtracks halvings all fail the step stalls and returns the
    original positions.
    """
    state = _state_for(scenario, fading, state)
    if bundle is None:
        bundle = connectivity_bundle(scenario, fading, mode=laplacian_mode, state=state)
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
        moved_state = _state_for(scenario, fading, positions=full)
        return connectivity_bundle(scenario, fading, mode=laplacian_mode,
                                   state=moved_state).lambda2, moved_state

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
