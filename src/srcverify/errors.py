"""Exception hierarchy for the verification engine.

Every failure mode raised by the package derives from VerifierError so
callers can catch one base class at service boundaries.  Guard errors that
block specific attack classes (ForeignReturnDataError, PathEscapeError,
StaleRecordError, ...) are deliberately distinct types: the attack lab keys
its expected outcomes on the exception class name.
"""

from __future__ import annotations


class VerifierError(Exception):
    """Base class for all errors raised by srcverify."""


# --- bytecode parsing ---

class OddLengthError(VerifierError):
    """Hex input has an odd number of digits."""


class NonHexCharacterError(VerifierError):
    """Hex input contains a character outside [0-9a-fA-F]."""


# --- metadata extraction ---

class SpanOutOfRangeError(VerifierError):
    """A span does not lie inside the code it refers to."""


class OverlappingSpansError(VerifierError):
    """Spans passed to strip_spans overlap."""


class NonConvergentError(VerifierError):
    """Differential extraction failed to converge within the iteration bound."""


# --- link resolution ---

class MalformedLinkReferenceError(VerifierError):
    """A declared link reference is out of range, overlapping, or ill-formed."""


class LengthMismatchError(VerifierError):
    """Two byte strings that must be the same length are not."""


# --- constructor simulation ---

class SimulationError(VerifierError):
    """Base class for mini-EVM execution failures."""


class StepLimitExceededError(SimulationError):
    pass


class StackUnderflowError(SimulationError):
    pass


class StackOverflowError_(SimulationError):
    """EVM stack grew past 1024 entries (trailing underscore avoids the builtin)."""


class BadJumpDestinationError(SimulationError):
    pass


class UnsupportedOpcodeError(SimulationError):
    """Opcode outside the supported subset (calls, creates, logs, ...)."""


class MemoryLimitExceededError(SimulationError):
    """Memory expansion beyond the 1 MiB cap."""


class CreationDidNotReturnError(SimulationError):
    """Constructor execution halted without RETURN."""


class ForeignReturnDataError(VerifierError):
    """Simulated constructor returned bytes that are not the compiled template."""


# --- chain access ---

class BackendUnavailableError(VerifierError):
    """Chain reads are temporarily inconsistent (reorg flag) or backend is down."""


class NotFoundError(VerifierError):
    """No creation transaction (or contract) is known for the address."""


class AddressOccupiedError(VerifierError):
    """Deployment target already hosts live code."""


class MalformedFixtureError(VerifierError):
    """A chain fixture is not shaped like MockChain.save_fixture's output."""


# --- ABI validation ---

class AbiDecodeError(VerifierError):
    """Base class for strict constructor-argument decoding failures."""


class LengthNotWordMultipleError(AbiDecodeError):
    """Argument data is not a whole number of 32-byte words (or too short)."""


class TrailingBytesError(AbiDecodeError):
    """Argument data was not exactly consumed."""


class OffsetOutOfRangeError(AbiDecodeError):
    """A dynamic-type tail offset points outside the data or is non-canonical."""


class MalformedValueError(AbiDecodeError):
    """A decoded word violates its type's shape (address padding, bool range, ...)."""


class UnsupportedAbiTypeError(VerifierError, ValueError):
    """A declared constructor parameter type is outside the supported set."""


# --- matching ---

class EmptyLocalBytecodeError(VerifierError):
    """Hardened matching refuses an empty local compilation artifact."""


class NotAPrefixError(VerifierError):
    """Local creation code is not a prefix of the on-chain transaction input.

    first_mismatch is the first differing offset, as on NoMatchError.
    """

    def __init__(self, message: str, first_mismatch: int | None = None):
        super().__init__(message)
        self.first_mismatch = first_mismatch


class InvalidConstructorArgumentsError(VerifierError):
    """The remainder after the creation-code prefix fails strict ABI validation."""


# --- verification service ---

class MalformedRequestError(VerifierError):
    """Verification request violates its own invariants (target not in sources...)."""


class MalformedAddressError(VerifierError, ValueError):
    """An address is neither 20 bytes nor 40 hex digits."""


class PathEscapeError(VerifierError):
    """A virtual source path escapes the record's storage directory."""


class AbsolutePathError(VerifierError):
    """A virtual source path is absolute (or carries a drive/scheme)."""


class DuplicateAfterNormalizationError(VerifierError):
    """Two virtual source paths collide once normalized, or one is a
    directory of the other."""


class CompilerFailureError(VerifierError):
    """The compiler backend failed or produced unusable output."""


class NoMatchError(VerifierError):
    """Verification failed.

    A runtime leg that compared and differed sets first_mismatch, the first
    differing offset.  When no leg matched under Requirement.EITHER, causes
    holds every failed leg's error, so callers can see which guards fired
    without string parsing.
    """

    def __init__(self, message: str, first_mismatch: int | None = None,
                 causes=()):
        super().__init__(message)
        self.first_mismatch = first_mismatch
        self.causes = tuple(causes)


class ReplacementDeniedError(VerifierError):
    """Record replacement refused by the grade lattice or profile policy."""


class NotVerifiedError(VerifierError):
    """Query for an address with no stored record."""


class CorruptRecordError(VerifierError):
    """A stored manifest does not parse, or does not describe a record."""


class RecordWriteError(VerifierError):
    """The store could not write a record and removed what it had written."""


class StaleRecordError(VerifierError):
    """Strict query found on-chain code differing from the recorded hash."""


class NoDonorError(VerifierError):
    """No usable identical-runtime donor record for inheritance."""


class ImportRefusedError(VerifierError):
    """This profile does not accept records imported from another store."""


# --- attack lab ---

class UnknownScenarioError(VerifierError):
    pass


class SetupFailureError(VerifierError):
    """Scenario preconditions could not be established (distinct from Blocked)."""


class MatrixMismatchError(VerifierError):
    """The exploitability matrix deviated from the expected table."""
