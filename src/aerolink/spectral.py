"""Connectivity spectra: rate-weighted Laplacians, Fiedler data, Cheeger bounds.

The relay chain's robustness is measured by the algebraic connectivity
(second-smallest eigenvalue) of a node-weighted graph Laplacian whose edge
weights are the half-duplex link rates.  The Cheeger machinery relates that
eigenvalue to the cheapest weighted cut, which is what ultimately limits the
relayed flow.

The matrix chain (``build_matrices``, ``GraphMatrices.from_adjacency``,
``weighted_laplacian``, ``eig_sym``) also takes stacks with leading axes.
``connectivity_bundle`` is the one pass that turns a (stacked)
``ChannelState`` into rate matrices, weighted Laplacians and their spectra
(one batched ``eigh``); ``lambda2_stack`` is that pass over a stack of
positions, under a reference state's scenario and fading.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .channel import ChannelState, _endpoints, edge_rates

_EIG_TOL = 1.0e-9


class LaplacianMode(Enum):
    # W^(-1/2) L W^(-1/2): node weights only.  The ascent gradient is exact
    # in this mode, so it is the default.
    COMBINATORIAL_WEIGHTED = "combinatorial-weighted"
    # W^(-1/2) D^(-1/2) L D^(-1/2) W^(-1/2): degree-and-weight normalized.
    NORMALIZED_WEIGHTED = "normalized-weighted"


@dataclass(frozen=True)
class GraphMatrices:
    """Adjacency, diagonal weighted-degree, and combinatorial Laplacian."""

    adjacency: np.ndarray
    degree: np.ndarray
    laplacian: np.ndarray

    @staticmethod
    def from_adjacency(adjacency: np.ndarray) -> "GraphMatrices":
        """Degree and Laplacian of one adjacency, or of each in a (..., n, n) stack."""
        a = np.array(adjacency, dtype=float)
        if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
            raise ValueError("adjacency must be square")
        if not np.array_equal(a, np.swapaxes(a, -1, -2)):
            raise ValueError("adjacency must be symmetric")
        if np.any(a < 0.0):
            raise ValueError("edge weights must be non-negative")
        if np.any(np.diagonal(a, axis1=-2, axis2=-1) != 0.0):
            raise ValueError("self loops are not allowed")
        deg = np.zeros_like(a)
        diag = np.arange(a.shape[-1])
        deg[..., diag, diag] = a.sum(axis=-1)
        return GraphMatrices(adjacency=a, degree=deg, laplacian=deg - a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[-1]


def build_matrices(state: ChannelState, powers: np.ndarray | None = None) -> GraphMatrices:
    """Rate matrix over the state's topology, plus degree and Laplacian
    (one per geometry of a stacked state), at ``powers`` as in ``edge_rates``."""
    n = state.scenario.n_primary
    rates = edge_rates(state, powers)
    p, q = _endpoints(state.scenario.topology)
    a = np.zeros(rates.shape[:-1] + (n, n))
    a[..., p, q] = a[..., q, p] = rates
    return GraphMatrices.from_adjacency(a)


def weighted_laplacian(matrices: GraphMatrices,
                       weights: np.ndarray,
                       mode: LaplacianMode = LaplacianMode.COMBINATORIAL_WEIGHTED
                       ) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (matrices.n,):
        raise ValueError("need one positive weight per node")
    if np.any(w <= 0.0):
        raise ValueError("node weights must be positive")
    scale = 1.0 / np.sqrt(w)
    if mode is LaplacianMode.NORMALIZED_WEIGHTED:
        deg = np.diagonal(matrices.degree, axis1=-2, axis2=-1)
        if np.any(deg <= 0.0):
            raise ValueError("normalized mode undefined with an isolated node")
        scale = scale / np.sqrt(deg)
    return matrices.laplacian * scale[..., :, None] * scale[..., None, :]


def eig_sym(mat: np.ndarray) -> tuple:
    """Eigendecomposition of a symmetric matrix, or of each in a (..., n, n) stack.

    Returns (eigenvalues ascending, eigenvectors as orthonormal columns).
    Rejects non-symmetric input instead of silently symmetrizing.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    mt = np.swapaxes(m, -1, -2)
    scale = np.fmax(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m - mt).max(axis=(-2, -1)) > 1.0e-12 * scale):
        raise ValueError("matrix is not symmetric")
    return np.linalg.eigh(0.5 * (m + mt))


@dataclass(frozen=True)
class FiedlerResult:
    lambda2: float
    vector: np.ndarray       # unit Fiedler eigenvector
    spectral_gap: float      # lambda3 - lambda2 (inf for 2-node graphs)
    degenerate: bool         # gap below tolerance: lambda2 ill-conditioned


def _unstacked(value):
    """A Python scalar for the value of a single matrix; arrays as they are."""
    return value.item() if np.ndim(value) == 0 else value


def fiedler_pair(weighted_lap: np.ndarray) -> FiedlerResult:
    """Second eigenpair of a weighted Laplacian, with a degeneracy flag.

    lambda2 must be simple for its eigenvector to define a usable ascent
    direction, so the flag is raised when lambda2 crowds either neighbor:
    the gap to lambda3 or to lambda1 (always 0 here) falls below 1e-9 times
    the matrix scale.  A disconnected graph is degenerate by this rule.  A
    (..., n, n) stack gives one result whose fields carry its leading axes.
    """
    vals, vecs = eig_sym(weighted_lap)
    n = vals.shape[-1]
    if n < 2:
        raise ValueError("connectivity needs at least two nodes")
    scale = np.fmax(1.0, np.abs(vals).max(axis=-1))
    if np.any(vals[..., 0] < -_EIG_TOL * scale):
        raise ValueError("weighted Laplacian must be positive semidefinite")
    lam2 = vals[..., 1]
    gap = vals[..., 2] - lam2 if n >= 3 else np.full(vals.shape[:-1], np.inf)
    degenerate = (gap < _EIG_TOL * scale) | (lam2 < _EIG_TOL * scale)
    return FiedlerResult(lambda2=_unstacked(lam2), vector=vecs[..., :, 1].copy(),
                         spectral_gap=_unstacked(gap), degenerate=_unstacked(degenerate))


@dataclass(frozen=True)
class LaplacianBundle:
    """Everything the trajectory step needs from one spectral evaluation."""

    matrices: GraphMatrices
    weighted_laplacian: np.ndarray
    mode: LaplacianMode
    weights: np.ndarray
    lambda2: float
    fiedler: np.ndarray
    spectral_gap: float
    degenerate: bool

    def take(self, index) -> "LaplacianBundle":
        """The bundle of the geometries ``index`` picks on the first leading
        axis (``None`` adds one; an integer index gives a single geometry's
        bundle, its scalars as Python scalars)."""
        return self._with([_unstacked(np.asarray(table)[index]) for table in self._tables()])

    def _tables(self) -> tuple:
        """The per-geometry fields, the matrices first."""
        m = self.matrices
        return (m.adjacency, m.degree, m.laplacian, self.weighted_laplacian, self.lambda2,
                self.fiedler, self.spectral_gap, self.degenerate)

    def _with(self, tables) -> "LaplacianBundle":
        """This bundle with its per-geometry fields replaced, in ``_tables`` order."""
        adjacency, degree, laplacian, lw, lam2, fiedler, gap, degenerate = tables
        return dataclasses.replace(
            self, matrices=GraphMatrices(adjacency, degree, laplacian), weighted_laplacian=lw,
            lambda2=lam2, fiedler=fiedler, spectral_gap=gap, degenerate=degenerate)


def connectivity_bundle(state: ChannelState,
                        weights: np.ndarray | None = None,
                        mode: LaplacianMode = LaplacianMode.COMBINATORIAL_WEIGHTED,
                        powers: np.ndarray | None = None) -> LaplacianBundle:
    """The spectral data of a state's geometry at ``powers`` (default: the
    state's scenario's), with ``weights`` (default: the scenario's).  A
    stacked state gives one bundle whose per-geometry fields (matrices,
    lambda2, Fiedler vectors, gaps, flags) carry its leading axes, each
    entry equal to the bit to that geometry's own."""
    w = state.scenario.weights if weights is None else np.asarray(weights, dtype=float)
    matrices = build_matrices(state, powers)
    lw = weighted_laplacian(matrices, w, mode)
    fr = fiedler_pair(lw)
    return LaplacianBundle(
        matrices=matrices,
        weighted_laplacian=lw,
        mode=mode,
        weights=w,
        lambda2=fr.lambda2,
        fiedler=fr.vector,
        spectral_gap=fr.spectral_gap,
        degenerate=fr.degenerate,
    )


def lambda2_stack(reference: ChannelState,
                  positions: np.ndarray,
                  weights: np.ndarray | None = None,
                  mode: LaplacianMode = LaplacianMode.COMBINATORIAL_WEIGHTED,
                  powers: np.ndarray | None = None) -> np.ndarray:
    """lambda2 of the reference state's scenario and fading at every geometry
    of a (..., n_total, 3) stack.

    ``connectivity_bundle`` of a ``ChannelState`` over the stack, which
    copies the rows of unmoved nodes from ``reference`` (``powers``
    broadcast against the stack's leading axes), so each entry is that
    geometry's own ``lambda2`` to the bit.  A failing stack is evaluated
    again geometry by geometry, to raise what the first failing one, in C
    order, raises alone.
    """
    scenario, fading = reference.scenario, reference.fading
    try:
        state = ChannelState(scenario, fading, positions, reference)
        return connectivity_bundle(state, weights, mode, powers).lambda2
    except ValueError:
        lead = positions.shape[:-2]
        if powers is not None:
            powers = np.broadcast_to(powers, lead + powers.shape[-1:])
        for g in np.ndindex(lead):
            connectivity_bundle(ChannelState(scenario, fading, positions[g]), weights, mode,
                                None if powers is None else powers[g])
        raise


@dataclass(frozen=True)
class CheegerReport:
    constant: float          # min over cuts of cut weight / smaller side size
    argmin_side: frozenset   # the side of the best cut containing node 0
    lambda2: float           # combinatorial weighted connectivity used in bounds
    lower_bound: float       # lambda2 / 2
    upper_bound: float       # sqrt(2 * delta_max * lambda2 / w_min)


def cheeger_bruteforce(matrices: GraphMatrices,
                       weights: np.ndarray | None = None) -> CheegerReport:
    """Exhaustive weighted Cheeger constant over all proper bipartitions.

    With weights given, side size is the sum of node weights; without, it is
    the plain cardinality (all-ones weights).  Exponential in n: guarded to
    n <= 20.
    """
    n = matrices.n
    if n < 2:
        raise ValueError("need at least two nodes to cut")
    if n > 20:
        raise ValueError("brute force capped at 20 nodes")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (n,) or np.any(w <= 0.0):
        raise ValueError("need one positive weight per node")

    a = matrices.adjacency
    total_w = w.sum()
    best = np.inf
    best_mask = None
    # node 0 pinned to S halves the enumeration without losing any cut
    for bits in range(2 ** (n - 1)):
        mask = np.array([True] + [bool(bits >> b & 1) for b in range(n - 1)])
        if mask.all():
            continue
        cut = float(a[mask][:, ~mask].sum())
        side = float(w[mask].sum())
        ratio = cut / min(side, total_w - side)
        if ratio < best:
            best = ratio
            best_mask = mask.copy()

    lw = weighted_laplacian(matrices, w, LaplacianMode.COMBINATORIAL_WEIGHTED)
    lam2 = fiedler_pair(lw).lambda2
    delta_max = float(np.diag(matrices.degree).max())
    return CheegerReport(
        constant=float(best),
        argmin_side=frozenset(np.flatnonzero(best_mask).tolist()),
        lambda2=lam2,
        lower_bound=lam2 / 2.0,
        upper_bound=float(np.sqrt(2.0 * delta_max * lam2 / w.min())),
    )
