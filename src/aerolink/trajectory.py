"""3D trajectory design: gradient ascent on algebraic connectivity.

Each step moves every UAV along the gradient of lambda2 of the rate-weighted
Laplacian.  For the node-weighted combinatorial Laplacian the gradient has
an exact per-edge form: with y = W^(-1/2) x_f built from the unit Fiedler
vector, each edge (p, q) contributes (y_p - y_q)^2 times the spatial
gradient of its rate.  Finite differences are available as a fallback and
as the honest option for the normalized Laplacian, whose Fiedler formula
is only a heuristic.  They evaluate every +-h bump of every UAV coordinate
in one stacked lambda2 pass, bit-identical to bumping one coordinate at a
time.  Both take a ``ChannelState`` (scenario, fading, positions, powers,
thresholds) and its ``LaplacianBundle`` (mode, weights), the one statement
of what they evaluate.  A step evaluates each trial as a state over its
positions (no new ``Scenario``) at its point's powers and thresholds, and
returns the state and spectral bundle of the positions it accepts, at the
powers it stepped with, so the caller need not evaluate them again.  Both
run on a stacked state, one geometry per batch point; the step lifts a
single geometry to a stack of one, so one body serves both.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .channel import ChannelState, _endpoints, _join, _norms, rate_jacobian
from .scenario import _require_finite
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
        except (AttributeError, ValueError):
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
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be non-negative")
        if self.min_altitude_m < 0.0:
            raise ValueError("min_altitude_m must be non-negative")
        _require_finite(self, ("dt", "max_step_m", "min_altitude_m", "fd_step_m"))


@dataclass(frozen=True)
class GradientField:
    d_lambda2: np.ndarray    # (n_uavs, 3)
    mode_used: GradientMode
    degenerate: bool


def _analytic_gradient(bundle: LaplacianBundle, state: ChannelState) -> np.ndarray:
    """(..., n_uavs, 3): the per-edge formula, one gradient per geometry of a
    stacked state and bundle."""
    y = bundle.fiedler / np.sqrt(bundle.weights)
    jac = rate_jacobian(state)
    grad = np.zeros(jac.shape[:-3] + (state.scenario.n_uavs, 3))
    p, q = _endpoints(state.scenario.topology)
    gaps = y[..., p] - y[..., q]
    # squared one by one with C pow, as a scalar ``** 2`` squares: an array's
    # ``** 2`` multiplies, which differs in the last bit now and then
    coeffs = np.reshape([g ** 2 for g in gaps.reshape(-1).tolist()], gaps.shape)
    with np.errstate(invalid="ignore"):
        terms = coeffs[..., None, None] * jac
    # an edge whose coefficient is zero adds +0.0, which leaves the sum's
    # bits as they are (a sum started at +0.0 is never -0.0), as skipping
    # it does; then edge by edge in topology order, so each coordinate sums
    # its terms in the same order as a per-coordinate loop would
    terms[coeffs == 0.0] = 0.0
    for e in range(len(p)):
        grad += terms[..., e, :, :]
    return grad


def _fd_gradients(state: ChannelState, weights, mode, h: float) -> np.ndarray:
    """Central differences of lambda2 in every UAV coordinate, in one pass.

    The geometries are those of a (stacked) ``state``, under its scenario,
    fading and each geometry's powers.  The 2 * 3 * n_uavs
    bumped geometries of each (coordinate + h, then that value - 2h) form
    one (..., n_uavs, 3, 2, n_total, 3) stack for ``lambda2_stack``, with
    ``state`` as its reference, so each bump computes one row, each gradient
    is bit-identical to bumping and evaluating one coordinate at a time, and
    a failing bump raises what it raised there.
    """
    positions = state.positions
    lead = positions.shape[:-2]
    uavs = list(state.scenario.uav_indices)
    n_uavs = len(uavs)
    stack = np.empty(lead + (n_uavs, 3, 2) + positions.shape[-2:])
    stack[...] = positions[..., None, None, None, :, :]
    uav, axis = np.arange(n_uavs)[:, None], np.arange(3)[None, :]
    node = np.array(uavs)[:, None]
    hi = positions[..., uavs, :] + h
    stack[..., uav, axis, 0, node, axis] = hi
    stack[..., uav, axis, 1, node, axis] = hi - 2.0 * h
    lam = lambda2_stack(state, stack, weights, mode)
    return (lam[..., 0] - lam[..., 1]) / (2.0 * h)


def lambda2_gradient(state: ChannelState, bundle: LaplacianBundle,
                     gradient_mode: GradientMode = GradientMode.ANALYTIC,
                     fd_step_m: float = 1.0e-3):
    """Gradient of lambda2 with respect to every UAV coordinate.

    The lambda2 is ``bundle``'s: the state's ``connectivity_bundle`` (at its
    powers), in the bundle's Laplacian mode and weights, which the finite
    differences keep.  A degenerate Fiedler pair
    (tiny spectral gap) makes the analytic form unreliable, so the call
    falls back to central finite differences and flags it.  The analytic
    form is exact only for the combinatorial weighted Laplacian; for the
    normalized one it is a known approximation and finite differences
    should be preferred.

    A stacked ``state`` (with its bundle) gives a tuple of fields, one per
    geometry: one stacked
    analytic pass, then one finite-difference stack for every geometry that
    needs it.
    """
    n_uavs = state.scenario.n_uavs
    lead = state.positions.shape[:-2]
    degenerate = np.asarray(bundle.degenerate)
    fd = np.full(lead, gradient_mode is GradientMode.FINITE_DIFFERENCE)
    grad = np.zeros(lead + (n_uavs, 3))
    if gradient_mode is GradientMode.ANALYTIC:
        # the per-edge formula is the eigenvalue derivative of the
        # combinatorial weighted Laplacian; its Fiedler vector is used even
        # when the caller tracks the normalized one (a documented mismatch
        # that gradcheck exists to expose)
        formula = bundle
        if bundle.mode is not LaplacianMode.COMBINATORIAL_WEIGHTED:
            formula = connectivity_bundle(state, bundle.weights,
                                          LaplacianMode.COMBINATORIAL_WEIGHTED)
        fd = degenerate = np.asarray(formula.degenerate)
        if not fd.all():
            grad = _analytic_gradient(formula, state)
    if fd.any():
        # a boolean pick keeps a leading axis, also for a single geometry
        grad[fd] = _fd_gradients(state._select(fd), bundle.weights, bundle.mode, fd_step_m)
    fields = tuple(
        GradientField(d_lambda2=g, mode_used=GradientMode.FINITE_DIFFERENCE if f else gradient_mode,
                      degenerate=d)
        for g, f, d in zip(grad.reshape(-1, n_uavs, 3), fd.reshape(-1).tolist(),
                           degenerate.reshape(-1).tolist()))
    return fields if lead else fields[0]


@dataclass(frozen=True)
class StepResult:
    positions: np.ndarray    # (n_uavs, 3) accepted positions
    lambda2_before: float
    lambda2_after: float
    dt_used: float
    halvings: int
    stalled: bool            # backtracking exhausted; positions unchanged
    state: ChannelState      # the accepted positions at the step's powers and
                             # thresholds; of a stacked step: every geometry's, in order
    bundle: LaplacianBundle | None = None  # spectral data of ``state``, stacked as it


@functools.lru_cache(maxsize=64)
def _step_settings(configs: tuple) -> tuple:
    """Per point: active axes (count, 1, 3), displacement clip and altitude
    floor (count, 1; -inf where z is masked, which no altitude is below),
    shared read-only by every step with these configs."""
    tables = (np.array([[axis in c.mask.axes for axis in range(3)] for c in configs])[:, None],
              np.array([c.max_step_m for c in configs])[:, None],
              np.array([c.min_altitude_m if 2 in c.mask.axes else -np.inf
                        for c in configs])[:, None])
    for table in tables:
        table.setflags(write=False)
    return tables


def step(state: ChannelState, bundle: LaplacianBundle, gradient, config):
    """One ascent step with masking, step clipping, and optional backtracking.

    ``bundle`` is the state's ``connectivity_bundle``; each trial is a state
    over its positions with the input's scenario, fading, powers and
    thresholds, evaluated in the bundle's Laplacian mode and weights.  Masked
    axes are left bit-for-bit untouched.  The displacement of each UAV is
    clipped to max_step_m; accepted altitudes never drop below
    min_altitude_m (only enforced when z is an active axis).  With
    backtracking on, dt is halved until lambda2 does not decrease; if
    max_backtracks halvings all fail the step stalls and returns the
    original positions.  The result carries the accepted positions'
    ``ChannelState`` and ``LaplacianBundle`` at the input's powers: the
    accepted trial's, or on a stall the input's.

    A stacked ``state`` (with its bundle and a gradient field
    and trajectory config per geometry; one config serves all) steps every
    geometry at once and returns a tuple of results, one per geometry.  Each
    backtracking round evaluates one stack holding only the geometries
    still halving.  A single geometry is stepped as a stack of one and
    gives one result.
    """
    # a single geometry is lifted to a stack of one (views; nothing is
    # recomputed), and its result unwrapped at the return
    lone = state.positions.ndim == 2
    if lone:
        state, bundle, gradient = state._select(None), bundle.take(None), (gradient,)
    grad = np.array([g.d_lambda2 for g in gradient])
    count = len(grad)
    configs = (config,) * count if isinstance(config, TrajectoryConfig) else tuple(config)
    uavs = list(state.scenario.uav_indices)
    base = state.positions[:, uavs]
    on, cap, floor = _step_settings(configs)
    lam_old = bundle.lambda2.tolist()

    # per point, as Python scalars: dt halves exactly as a float does
    dt = [c.dt for c in configs]
    halvings = [0] * count
    live = list(range(count))
    outcomes, parts = [None] * count, []
    while live:
        # the candidate positions of the live points
        pick = slice(None) if len(live) == count else live
        on_k, base_k, cap_k = on[pick], base[pick], cap[pick]
        disp = np.where(on_k, np.array([dt[k] for k in live])[:, None, None] * grad[pick], 0.0)
        norms = _norms(disp)
        over = norms > cap_k
        if over.any():
            disp[over] *= (np.broadcast_to(cap_k, over.shape)[over] / norms[over])[:, None]
        pos = np.where(on_k, base_k + disp, base_k)
        pos[..., 2] = np.maximum(pos[..., 2], floor[pick])
        trial = state.positions[live]
        trial[:, uavs] = pos
        # each trial is at its point's powers and thresholds.  A trial of one
        # geometry computes its own rows, with no copies; a larger one copies
        # the input state's rows of the nodes it does not move rather than
        # compute every row of every point
        new_state = ChannelState(state.scenario, state.fading, trial,
                                 None if len(live) == 1 else state._select(pick),
                                 powers=state.powers[pick], i_max_w=state.i_max_w[pick])
        new_bundle = connectivity_bundle(new_state, bundle.weights, bundle.mode)
        lam_new = new_bundle.lambda2.tolist()
        took, gave_up, halving = [], [], []
        for i, k in enumerate(live):
            c = configs[k]
            # without backtracking the first candidate is accepted as it is
            if lam_new[i] >= lam_old[k] or not c.backtracking:
                outcomes[k] = (pos[i], lam_old[k], lam_new[i], dt[k], halvings[k], False)
                took.append(i)
            elif halvings[k] >= c.max_backtracks:
                outcomes[k] = (base[k], lam_old[k], lam_old[k], 0.0, halvings[k], True)
                gave_up.append(k)
            else:
                dt[k] *= 0.5
                halvings[k] += 1
                halving.append(k)
        # where each point's accepted tables and bundle are: a trial's, or the input's
        parts += [(new_state, new_bundle, took, [live[i] for i in took]),
                  (state, bundle, gave_up, gave_up)]
        live = halving
    state = _join([(s, picks, slots) for s, _, picks, slots in parts], count)
    bundle = _join([(b, picks, slots) for _, b, picks, slots in parts], count)
    results = tuple(
        StepResult(positions=p, lambda2_before=before, lambda2_after=after, dt_used=used,
                   halvings=h, stalled=stalled, state=state, bundle=bundle)
        for p, before, after, used, h, stalled in outcomes)
    if lone:
        return replace(results[0], state=state._select(0), bundle=bundle.take(0))
    return results
