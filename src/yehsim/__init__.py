"""Simulation and verification of Gaussian additive processes.

A process here is determined by a bounded-variation drift lambda and a
continuous strictly increasing variance function rho: increments over [s, t]
are Normal(lambda(t) - lambda(s), rho(t) - rho(s)).  The package samples such
processes exactly on grids and by truncated random series, draws Wiener
integrals of step families straight from the normals, and verifies the
moment, distribution, martingale, and series-expansion identities they
satisfy.
"""

from .config import TOOL_VERSION
from .errors import ConfigError, YehError
from .funcspace import (
    BasisFamily,
    StepFunction,
    fourier_coeffs,
    inner_rho,
    project_family,
    step_cells,
    stieltjes_integral,
)
from .martingale import MartingaleVerdict, classify
from .process import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TRUNCATION,
    YehSpec,
    increment_functionals,
    make_grid,
)
from .series import ExpansionReport, expand_integral, series_variance_defect
from .stats import KSReport, ks_test
from .stieltjes import (
    DEFAULT_CANTOR_DEPTH,
    DEFAULT_RESOLUTION,
    Interval,
    MeanFunction,
    VarianceFunction,
    cantor_eval,
    rho_inverse,
)
from .streams import normal_matrix

__version__ = TOOL_VERSION
