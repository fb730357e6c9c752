"""Exception types raised by the cmdeg library.

Every error that the public API can raise deliberately derives from
:class:`CmdegError`, so callers (including the CLI) can distinguish
library failures from programming mistakes.
"""

__all__ = [
    "CmdegError",
    "NonPositiveArgument",
    "PrecisionUnreachable",
    "InvalidSpec",
    "InvalidIndex",
    "QuadratureNotConverged",
]


class CmdegError(Exception):
    """Base class for all deliberate cmdeg failures."""


class NonPositiveArgument(CmdegError):
    """An evaluation point t <= 0 was supplied where t > 0 is required."""


class PrecisionUnreachable(CmdegError):
    """The requested absolute accuracy could not be met within budget."""


class InvalidSpec(CmdegError):
    """A remainder specification is out of the supported range."""


class InvalidIndex(CmdegError):
    """An index or order outside the defined range was requested."""


class QuadratureNotConverged(CmdegError):
    """Adaptive quadrature failed to reach the requested tolerance."""

