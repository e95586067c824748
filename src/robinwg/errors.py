"""Exception types shared across the library."""


class RobinwgError(Exception):
    """Base class for all library errors."""


class ProfileError(RobinwgError):
    """Invalid curvature profile or profile/half-width pairing."""


class BracketingError(RobinwgError):
    """Root search produced a mode count inconsistent with Sturm ordering."""


class NearSpectrumError(RobinwgError):
    """Resolvent evaluated too close to the spectrum for the closed form."""


class SingularDenominatorError(RobinwgError):
    """Perturbation-coefficient denominator vanishes away from the handled limit."""


class BranchError(RobinwgError):
    """sqrt(z) does not lie in the upper half plane (z on the positive real axis)."""


class GridResolutionError(RobinwgError):
    """Grid too coarse for the scaled potential, or truncation box too small."""


class ConfigError(RobinwgError):
    """Malformed or schema-violating run configuration."""
