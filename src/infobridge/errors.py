"""Exception types shared across the package."""


class InfoBridgeError(Exception):
    """Base class for all package-specific errors."""


class DomainError(InfoBridgeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class NonConvergence(InfoBridgeError, RuntimeError):
    """Adaptive quadrature exhausted its subdivision budget without meeting tolerance."""


class EnvelopeError(InfoBridgeError, RuntimeError):
    """The truncation point of a semi-infinite integral does not exceed its lower bound."""


class IntegrabilityError(InfoBridgeError, RuntimeError):
    """The integrand is not negligible where the law's tail integrals are cut."""


class InsufficientPaths(InfoBridgeError, ValueError):
    """A Monte Carlo reduction was asked for with too few paths to be meaningful."""


class ConfigError(InfoBridgeError, ValueError):
    """A run configuration is malformed or inconsistent."""
