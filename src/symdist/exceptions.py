"""Exception types raised across the package."""


class SymdistError(Exception):
    """Base class for all package errors."""


class NotPsdError(SymdistError):
    """Operator required to be positive semi-definite is not."""


class DimensionMismatchError(SymdistError):
    """Operator or channel dimensions do not line up."""


class DimensionCapError(SymdistError):
    """Tensor power would exceed the configured dimension cap."""


class InvalidChannelError(SymdistError):
    """Channel data violates complete positivity or trace preservation."""


class ParameterRangeError(SymdistError):
    """Scalar parameter outside its admissible range."""


class MTooSmallError(SymdistError):
    """Dilution requested below the exact cost; prepared states not PSD."""


class NotInfiniteResourceError(SymdistError):
    """Operation requires an infinite-resource source box."""


class InfiniteResourceError(SymdistError):
    """Box has zero discrimination error; use the exact infinite-resource map."""


class SolverError(SymdistError):
    """Semi-definite solve failed or returned an unusable status."""
