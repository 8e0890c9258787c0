"""Exception types shared across the library."""


class CollkitError(Exception):
    """Base class for all errors raised by this library."""


class InvalidTopology(CollkitError):
    """Node/GPU/NIC counts are inconsistent (non-positive or indivisible)."""


class IndexOutOfRange(CollkitError):
    """A rank, node, or local index is outside its valid range."""


class SelfSend(CollkitError):
    """A rank attempted a point-to-point transfer with itself."""


class PeerUnreachable(CollkitError):
    """A peer cannot be contacted or its connection was lost."""


class Timeout(CollkitError):
    """A blocking transport operation exceeded its deadline."""


class LengthMismatch(CollkitError):
    """Buffer or payload lengths disagree with what the operation requires."""


class NotDivisible(CollkitError):
    """A buffer cannot be split into the required number of equal chunks."""


class NonPowerOfTwo(CollkitError):
    """A recursive (doubling/halving) algorithm was asked to run on a
    participant count that is not a power of two."""


class EmptyTable(CollkitError):
    """Table-mode algorithm selection was used without a usable calibration."""


class ConfigMismatch(CollkitError):
    """Two simulator configs that must agree (except for one knob) do not."""


class Unsupported(CollkitError):
    """The requested collective/algorithm combination is not implemented,
    or an input (an option value, a config or host file line) is refused."""


class VerificationFailed(CollkitError):
    """A timed run produced output that disagrees with the oracle."""


class EmptyCell(CollkitError):
    """A summary was requested over a cell with no records."""


class GridMismatch(CollkitError):
    """Two record sets do not cover the same (size, rank-count) grid."""
