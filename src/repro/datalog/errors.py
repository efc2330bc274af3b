"""Exception hierarchy for the Datalog substrate.

Every error raised by :mod:`repro` derives from :class:`ReproError`, so
callers can catch one type to handle anything the library signals.  The
subclasses mirror the stages of the processing pipeline: parsing, static
(schema / safety) validation, and evaluation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised when Datalog source text cannot be parsed.

    Carries the source position so tooling can point at the offending
    token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class ValidationError(ReproError):
    """Raised when a structurally well-formed program violates a static
    constraint: inconsistent predicate arity, an unsafe rule (a head
    variable that does not occur in the body), or a query over a
    predicate the program never defines.
    """


class DerivedInputError(ValidationError):
    """Raised when an optimized program is asked to evaluate a database
    that holds rows of a predicate the source program derives.

    The optimized program renames every derived predicate by its
    adornment, and its ``edb-only`` passes assume the derived predicates
    start empty, so it would ignore such rows and answer wrongly.
    :attr:`predicate` names the derived predicate; :attr:`pass_name`
    names the first ``edb-only`` pipeline pass that changed the program
    (None when none did).
    """

    def __init__(self, predicate: str, pass_name=None):
        self.predicate = predicate
        self.pass_name = pass_name
        why = (
            f"the first edb-only pass that changed the program is {pass_name!r}"
            if pass_name
            else "it renames every derived predicate"
        )
        super().__init__(
            f"the database holds rows of {predicate!r}, which the program "
            f"derives; the optimized program would ignore them ({why}); "
            f"evaluate the original program instead"
        )


class ArityError(ValidationError):
    """Raised when a predicate is used with two different arities."""


class SafetyError(ValidationError):
    """Raised for range-restriction violations (unsafe rules)."""


class EvaluationError(ReproError):
    """Raised when fixpoint evaluation cannot proceed, e.g. a rule body
    references a predicate with no facts and no defining rules when the
    engine is configured to treat that as an error.
    """


class DurabilityError(ReproError):
    """Raised on the *write* side of the durable session runtime: an
    invalid durability configuration, a value the WAL/snapshot codec
    cannot round-trip, or a snapshot that failed to serialize.  Always
    raised before any partial record reaches the log, so a
    ``DurabilityError`` never leaves the WAL inconsistent.
    """


class RecoveryError(ReproError):
    """Raised when crash recovery **refuses** to rebuild a session from
    its WAL and snapshots: a mid-log checksum mismatch, a batch
    sequence gap, a program or engine-flag signature drift, or no valid
    snapshot to anchor replay.  Structured: :attr:`reason` is a stable
    machine-readable code and :attr:`record` names the offending WAL
    sequence number (or snapshot path) when one exists.  Refusal is the
    point — recovery never silently returns a state it cannot prove
    equal to a from-scratch evaluation.
    """

    def __init__(self, reason: str, message: str, record=None):
        #: stable reason code, e.g. ``"checksum-mismatch"``,
        #: ``"sequence-gap"``, ``"program-drift"``,
        #: ``"no-valid-snapshot"``, ``"bad-header"``
        self.reason = reason
        #: the WAL record sequence number / snapshot path involved
        self.record = record
        where = f" (record {record})" if record is not None else ""
        super().__init__(f"recovery refused [{reason}]{where}: {message}")


class TransformError(ReproError):
    """Raised when an optimizer phase is applied to a program that does
    not satisfy the phase's preconditions (e.g. projection pushing on a
    program that has not been adorned).
    """
