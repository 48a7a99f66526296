"""Exception types shared across the package."""


class BcfracError(Exception):
    """Base class for all library errors."""


class DomainError(BcfracError):
    """An evaluation point lies outside the declared domain."""


class ZeroDivisorError(BcfracError):
    """Inversion of a bicomplex number with exactly one vanishing component."""


class ZeroError(BcfracError):
    """Inversion of the bicomplex zero."""


class StepError(BcfracError):
    """A finite-difference step is too large for the domain."""


class EmptyProbesError(BcfracError):
    """A probe-based check was called with no probe points."""


class UnsupportedWeightsError(BcfracError):
    """The requested operation needs constant (or classical) weights."""


class WOnBoundaryError(BcfracError):
    """Reconstruction point lies on or too close to the contour."""


class ConfigError(BcfracError):
    """An experiment configuration file is malformed."""
