"""Exception types shared across the library."""


class CollkitError(Exception):
    """Base class for all errors raised by this library."""


class InvalidTopology(CollkitError):
    """Node/GPU/NIC counts are inconsistent (non-positive or indivisible)."""


class IndexOutOfRange(CollkitError):
    """A rank, node, or local index is outside its valid range, including
    a transport peer outside the world."""


class SelfSend(CollkitError):
    """A rank named itself as the peer of a send or receive."""


class PeerUnreachable(CollkitError):
    """A peer cannot be contacted, its connection was lost, or socket mesh
    setup failed."""


class Timeout(CollkitError):
    """A blocking transport operation exceeded its deadline."""


class LengthMismatch(CollkitError):
    """Buffer or payload lengths disagree with what the operation requires."""


class NotDivisible(CollkitError):
    """A buffer cannot be split into the required number of equal chunks."""


class NonPowerOfTwo(CollkitError):
    """A recursive (doubling/halving) algorithm was asked to run on a
    participant count that is not a power of two."""


class Unsupported(CollkitError):
    """The requested collective/algorithm combination is not implemented,
    or an input (an option value, a config or host file line) is refused."""


class VerificationFailed(CollkitError):
    """A timed run produced output that disagrees with the oracle."""


class EmptyCell(CollkitError):
    """A summary was requested over a cell with no records."""


class GridMismatch(CollkitError):
    """Two record sets do not cover the same (size, rank-count) grid."""
