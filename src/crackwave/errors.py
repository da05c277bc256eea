"""Exception types shared across the package."""


class CrackwaveError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CrackwaveError, ValueError):
    """Input outside the mathematical domain of an operation."""


class RegimeError(CrackwaveError, ValueError):
    """Operation requested outside the sub-Rayleigh (or subsonic) regime."""


class PoleError(CrackwaveError, ValueError):
    """Evaluation requested at (or too close to) a pole."""


class BracketError(CrackwaveError, RuntimeError):
    """Root bracketing failed; carries the scanned interval in the message."""


class QuadratureError(CrackwaveError, RuntimeError):
    """A quadrature did not converge to the requested tolerance."""


class RootLossError(CrackwaveError, RuntimeError):
    """A dispersion grid point has no root: its closed-form bracket shows no
    sign change, or the root gives no finite positive speed."""


class CrossCheckError(CrackwaveError, RuntimeError):
    """Two independent computations of the same quantity disagree."""

    def __init__(self, message, value_a, value_b):
        super().__init__(f"{message}: {value_a!r} vs {value_b!r}")
        self.value_a = value_a
        self.value_b = value_b


class RealnessError(CrackwaveError, RuntimeError):
    """A quantity that must be real came out with a large imaginary part."""

    def __init__(self, message, value):
        super().__init__(f"{message}: {value!r}")
        self.value = value


class ConfigError(CrackwaveError, ValueError):
    """Bad run configuration (CLI)."""
