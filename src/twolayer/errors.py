"""Exception types shared across the package."""


class TwoLayerError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(TwoLayerError):
    """Malformed graph or drawing data: bad ids, bad sides, unknown edges."""


class ConnectivityError(GraphError):
    """An operation that requires a connected graph got a disconnected one."""


class NotCaterpillarError(GraphError):
    """A layout was requested for a graph that is not a caterpillar."""


class DecompositionError(TwoLayerError):
    """A path decomposition failed a structural requirement of an operation."""


class CertificateError(TwoLayerError):
    """A result failed the check that certifies it; the CLI maps this to
    exit code 1."""


class CapExceededError(TwoLayerError):
    """An input or search exceeded a configured size cap.

    Raised instead of silently truncating; the CLI maps this to exit code 3.
    """
