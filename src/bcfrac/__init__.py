"""Bicomplex proportional fractional calculus with weighted Cauchy-Riemann
operators, verified at desk scale by quadrature."""

from .errors import (
    BcfracError,
    ConfigError,
    DomainError,
    EmptyProbesError,
    StepError,
    UnsupportedWeightsError,
    WOnBoundaryError,
    ZeroDivisorError,
    ZeroError,
)
from .hypercomplex import (
    BicomplexNumber,
    HyperbolicNumber,
    bc_from_cartesian,
)
from .fracops1d import (
    FracSpec,
    Quadrature1D,
    ScalarWeightFn,
    prop_frac_derivative,
    prop_frac_integral,
    tabulate,
)
from .weighted_cr import (
    CauchyKernel,
    PlaneFunction,
    ProductFunction,
    WeightPair,
    apply_cr_weighted,
    boundary_measure,
    weight_divergence,
)
from .frac_cr_bicomplex import (
    FracParams,
    Phi4,
    RectDomain,
    dphi,
    factorization_check,
    frac_cr_apply,
    inversion_check,
    lambda_for_constant_weights,
    lambda_residual,
    remainder_R,
    trace_sum,
)
from .quadrature_verify import (
    IDENTITIES,
    Resolution,
    ResidualReport,
    SurfacePatch,
    VerificationSetup,
    borel_pompeiu_classical,
    contour_integral,
    convergence_study,
    frac_bp_reconstruct,
    frac_gauss_residual,
    gauss_residual,
    run_identity,
)

__version__ = "0.1.0"
