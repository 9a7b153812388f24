"""Exception types shared across the toolkit."""


class GfpError(Exception):
    """Base class for toolkit errors."""


class DimensionMismatchError(GfpError):
    """Point dimension does not match the set expression."""


class SingularInputError(GfpError):
    """Kernel evaluation requested at coincident points."""


class OverlapError(GfpError):
    """Interaction operands are not (essentially) disjoint."""


class RestrictionMassError(GfpError):
    """Conditioning set has Gaussian mass below 1e-6, too small for
    rejection sampling; importance sampling is the way out."""


class ToleranceError(GfpError):
    """Requested tolerance could not be certified; carries the best estimate."""

    def __init__(self, message, value=None, error_bound=None):
        super().__init__(message)
        self.value = value
        self.error_bound = error_bound
