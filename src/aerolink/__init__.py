"""UAV relay chain toolkit: scenarios, links, connectivity, powers, flow."""

from .scenario import (
    ChannelParams,
    NodeClass,
    SafetyParams,
    Scenario,
    build_default_scenario,
    dbm_to_watts,
    load_scenario,
    partition,
    save_scenario,
    validate,
    watts_to_dbm,
)
from .channel import (
    FadingModel,
    LinkGain,
    build_state,
    edge_rate,
    link_gain,
    path_loss_db,
    sir,
    smoothed_step,
)
from .spectral import (
    GraphMatrices,
    LaplacianBundle,
    LaplacianMode,
    build_matrices,
    cheeger_bruteforce,
    connectivity_bundle,
    eig_sym,
    fiedler_pair,
    weighted_laplacian,
)
from .flow import FlowNetwork, brute_force_min_cut, from_adjacency, max_flow, min_cut
from .power import (
    BindingConstraint,
    InterferenceReport,
    PowerSolution,
    power_caps,
    solve_maxmin,
    verify_interference,
)
from .trajectory import (
    AxisMask,
    GradientField,
    GradientMode,
    TrajectoryConfig,
    lambda2_gradient,
    step,
)
from .optimizer import (
    IterationRecord,
    OptimizerConfig,
    RunHistory,
    TerminationReason,
    replay_flow,
    run,
)

__version__ = "0.1.0"
