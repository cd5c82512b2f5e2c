"""Exception types shared across the package."""


class MagspecError(Exception):
    """Base class for all package-specific errors."""


class InvalidSpecError(MagspecError, ValueError):
    """Malformed lattice / field / potential specification."""


class EmptyMaskError(MagspecError, ValueError):
    """An operation that needs a non-empty site mask received an empty one."""


class PositivityError(MagspecError, ValueError):
    """Sampled field intensity is not strictly positive somewhere."""


class GaugeDomainError(MagspecError, ValueError):
    """Requested gauge is not valid for this field/domain combination."""


class BundleInconsistencyError(MagspecError, ValueError):
    """Link phases at tensor power p do not close into a line bundle."""


class ConsistencyError(MagspecError, ValueError):
    """Mismatched inputs (tensor power, dimensions, lattice identity)."""


class DenseSizeError(MagspecError, ValueError):
    """Matrix exceeds the dense-solver size guard."""


class ConvergenceError(MagspecError, RuntimeError):
    """Eigensolver failed to converge; carries the best partial slice."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class EmptySetError(MagspecError, ValueError):
    """A spectral union that must be non-empty is empty."""


class WindowError(MagspecError, ValueError):
    """Empty or out-of-range energy window."""


class InsufficientDataError(MagspecError, ValueError):
    """Not enough usable samples (e.g. decay shells) for a fit."""


class ConfigError(MagspecError, ValueError):
    """Invalid experiment configuration."""
