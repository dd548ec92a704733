"""Monte Carlo engine for an information-based default model.

The market's knowledge about a default time tau is modelled by an
information process: a Brownian bridge from 0 to 0 whose pinning horizon is
tau itself.  The process hits zero exactly when the default happens, the
default time is a stopping time of the information filtration, and the
compensator of the default indicator is an explicit integral of
f(s) / survivor_density(s, 0) against the local time of the process at zero.

This package simulates the process, evaluates its conditional laws,
estimates local times, computes the compensator and its window
approximation, and verifies by Monte Carlo that the compensated indicator
behaves as a martingale.
"""

from .config import RunConfig, load_config
from .distributions import DefaultDistribution, parse_distribution
from .errors import (
    ConfigError,
    DomainError,
    InfoBridgeError,
    InsufficientPaths,
    IntegrabilityError,
    NonConvergence,
)
from .laws import (
    DriftTable,
    ModelContext,
    bridge_density,
    conditional_expectation,
    gaussian_density,
    inverse_survivor_density,
    mean_reversion_drift,
    posterior_density,
    survival_probability,
    survivor_density,
    survivor_density_floor,
)
from .localtime import (
    LocalTimeCurve,
    level_grid,
    occupation_estimate,
    occupation_formula_residual,
    tanaka_estimate,
)
from .compensator import (
    CompensatorCurve,
    averaged_gaussian_kernel,
    build_curve,
    compensator_curve,
    laplacian_approximation,
    window_rates,
)
from .ensemble import EnsembleReport, parse_functional
from .paths import (
    InformationPath,
    RandomStream,
    TimeGrid,
    quadratic_variation,
    recover_b,
    restrict_path,
    running_max_abs,
    sample_path_direct,
    sample_path_given_tau,
)
from .quadrature import QuadratureSpec, integrate_finite, integrate_semi_infinite

__version__ = "0.1.0"
