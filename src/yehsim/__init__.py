"""Simulation and verification of Gaussian additive processes.

A process here is determined by a bounded-variation drift lambda and a
continuous strictly increasing variance function rho: increments over [s, t]
are Normal(lambda(t) - lambda(s), rho(t) - rho(s)).  The package samples such
processes exactly on grids and by truncated random series, computes Wiener
integrals against the paths, and verifies the moment, distribution,
martingale, and series-expansion identities they satisfy.
"""

from .config import TOOL_VERSION
from .errors import (
    BadGridError,
    ConfigError,
    DegenerateReferenceError,
    MissingBVCertificateError,
    NegativeVarianceError,
    NonFiniteDrawError,
    NonFiniteValueError,
    OutOfDomainError,
    OutOfRangeError,
    PartitionNotOnGridError,
    PartitionOutOfDomainError,
    YehError,
)
from .funcspace import (
    BasisFamily,
    Integrand,
    StepFunction,
    as_integrand,
    fourier_coeffs,
    gram_matrix,
    inner_lambda_rho,
    inner_rho,
    norm_sq_rho,
    project_to_steps,
    step_combine,
    stieltjes_integral,
)
from .integral import (
    WienerIntegralResult,
    integral_covariance,
    integral_distribution,
    integral_mean,
    integrate_l2,
    integrate_pathwise_rs,
    integrate_step,
)
from .martingale import (
    MartingaleVerdict,
    classify,
    conditional_increment_mean,
    mc_martingale_test,
)
from .process import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TRUNCATION,
    SamplePath,
    YehSpec,
    center,
    make_grid,
    sample_increments,
)
from .series import (
    ExpansionReport,
    expand_integral,
    parseval_defect,
    sample_series,
    series_variance_defect,
)
from .stats import KSReport, MCEstimate, ks_test
from .stieltjes import (
    DEFAULT_CANTOR_DEPTH,
    DEFAULT_RESOLUTION,
    Interval,
    MeanFunction,
    QuadResult,
    VarianceFunction,
    cantor_eval,
    rho_inverse,
    stieltjes_quad,
    stieltjes_step,
    total_variation,
)
from .streams import GaussianStream, normal_matrix

__version__ = TOOL_VERSION
