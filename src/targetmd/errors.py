"""Exception types shared across the package."""


class TargetMDError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TargetMDError, ValueError):
    """An argument lies outside the domain an operation requires."""


class ConfigurationError(TargetMDError, ValueError):
    """A preset, geometry, or experiment configuration is unusable."""


class TargetResolutionError(TargetMDError, RuntimeError):
    """The inner solver failed to produce a target point.

    Usually a sign that the design pair is not strongly monotone (the
    target map may not be well defined) or that the inner step is too
    large for the problem at hand.
    """

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual
