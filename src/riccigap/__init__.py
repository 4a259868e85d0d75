"""Coarse Ricci curvature of diffusions on model manifolds: optimal
Gaussian couplings, curvature formulas, coupled-path simulation, and
spectral-gap lower bounds."""

from .coupling import (
    CouplingCovariance,
    c0_covariance,
    coupling_cost,
    extremal_covariances,
    feasibility_check,
    min_coupling_value,
)
from .curvature import (
    CurvatureReport,
    estimate_kappa_direct,
    kappa_dir,
    kappa_dir_by_limit,
    kappa_pair,
    kappa_tilde_dir,
    kappa_tilde_pair,
    sqrt_perturbation_traces,
)
from .fields import (
    DiffusionSpec,
    RiemannLikeTensor,
    ZonalPolynomial,
    brownian,
    constant_curvature_tensor,
    h_admissible_field,
    h_residual,
    kulkarni_nomizu,
    ornstein_uhlenbeck,
    parse_potential,
    random_riemann_like,
    reversible_potential,
    tensor_diffusion,
)
from .manifolds import (
    DistanceJet,
    ModelManifold,
    Point,
    TangentVector,
    parse_manifold,
)
from .simulate import (
    CoupledTrajectory,
    SimConfig,
    lipschitz_variance_check,
    run_coupled,
    step_coupled,
    step_single,
)
from .spectral import (
    BoundsReport,
    DiscretizedOperator,
    bakry_emery_rho,
    bounds_report,
    cd_bound,
    chen_wang_bounds,
    gamma_operators,
    harmonic_mean_bound,
    interpolated_bound,
    lichnerowicz_bound,
    spectral_gap,
)

__version__ = "0.1.0"
