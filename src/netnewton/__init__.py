"""Distributed Newton-type rate control for network utility maximization."""

from .auxgraph import AuxiliaryGraph, build_auxiliary_graph, compute_theta, distributed_sum
from .baselines import (
    FirstOrderConfig,
    FirstOrderResult,
    diagonal_scaled_solve,
    subgradient_family_stepsize,
    subgradient_solve,
)
from .direction import inexact_decrement, kkt_direction, primal_direction
from .errorcontrol import (
    DualControlConfig,
    ErrorCertificate,
    max_consensus,
    run_dual_with_error_control,
    stage1_beta,
    stage2_h,
)
from .experiment import ExperimentSpec, random_network, run_comparison
from .metrics import MessageMetrics
from .model import (
    BarrierProblem,
    InvalidNetworkError,
    LogUtility,
    Network,
    PrimalVector,
    QuadraticUtility,
    build_network,
    eval_f,
    eval_grad,
    eval_h,
    eval_hessian_diag,
    feasibility_residual,
    feasible_init,
    load_network,
    save_network,
)
from .solver import (
    SolveResult,
    SolverConfig,
    TwoPassResult,
    newton_solve,
    phase_diagnostics,
    reference_optima,
    reference_optimum,
    reference_solve,
    stepsize_rule,
    two_pass_solve,
)
from .splitting import (
    DualState,
    SpectralReport,
    SplittingData,
    build_dual_graph,
    build_splitting,
    dual_step_distributed,
    dual_step_matrix,
    init_dual_state,
    spectral_diagnostics,
    spectral_radius,
    weighted_max_cut,
)

__version__ = "0.1.0"
