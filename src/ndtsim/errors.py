"""Typed errors raised across the package.

Every failure mode a caller is expected to handle gets its own class so
tests and callers can catch precisely.  Plain ``ValueError`` is reserved
for construction-time invariant violations (bad type parameters, bad
schemas); ``OSError`` propagates unchanged from file I/O.
"""


class NdtError(Exception):
    """Base class for all package errors."""


# --- record / page layout ---------------------------------------------------

class ArityMismatch(NdtError):
    pass


class TypeMismatch(NdtError):
    pass


class NullNotAllowed(NdtError):
    pass


class VarCharTooLong(NdtError):
    pass


class CorruptRecord(NdtError):
    pass


class RecordTooLarge(NdtError):
    """Record can never fit an empty page."""


class PageFull(NdtError):
    pass


class SlotOutOfRange(NdtError):
    pass


# --- transaction / version management ---------------------------------------

class UnknownTx(NdtError):
    pass


class AlreadyFinished(NdtError):
    pass


class StaleWrite(NdtError):
    """Write-write conflict: the head is newer than the writer, or another tx in flight wrote it."""


class InvalidVid(NdtError):
    """A vid that is not an int in [0, 2**64); bools are refused too."""


# --- shared state / device --------------------------------------------------

class InvalidConfig(NdtError):
    pass


class OutOfRange(NdtError):
    pass


class OutOfSpace(NdtError):
    """Page pool cannot satisfy an allocation."""


class AccessDenied(NdtError):
    """Host attempted to read device memory not exposed via a result handle."""


# --- transformation engine ---------------------------------------------------

class TooManyPEsRequested(NdtError):
    pass


class ScratchpadTooSmall(NdtError):
    pass


class DanglingReference(NdtError):
    """Address resolution failed during in-situ navigation."""


class HostDenied(NdtError):
    """Host refused a space grant; the invocation failed cleanly."""


class StaleHandle(NdtError):
    """Materialization pages were freed; the handle is unusable."""


class NotRefreshable(NdtError):
    """A refresh's snapshot is not newer than its handle's, or its projection differs."""


class InvocationInFlight(NdtError):
    """Maintenance that moves pages was attempted while an invocation runs."""


# --- host engine / results ---------------------------------------------------

class MissingColumn(NdtError):
    pass


class DuplicateColumn(NdtError):
    """A projection names one attribute twice."""


class PoolExhausted(NdtError):
    pass


class BadMagic(NdtError):
    pass


class UnsupportedVersion(NdtError):
    pass


class CorruptDescriptor(NdtError):
    pass


class SchemaMismatch(NdtError):
    pass


class LengthMismatch(NdtError):
    """A mask or bitmap has another length than the positions it describes,
    or a batch of rows another length than its vids."""
