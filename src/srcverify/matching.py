"""Bytecode comparison under per-platform policies.

Creation matching checks that the compiled creation code is a prefix of the
deployment transaction input and, on the hardened path, that the remainder
decodes as the declared constructor arguments.  Runtime matching normalizes
deployment-time variance (immutables, library addresses) first.  Both legs
then grade their bytes through compare(), the one rule for what metadata
may differ.  Each comparison leg returns the report of a match or raises
a VerifierError; grade() turns the two legs into Exact or Partial, or
raises, according to the platform's requirement.

Exact means byte equality including metadata on every matched artifact;
Partial means equality only after metadata stripping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .abi import AbiParam, abi_validate_arguments
from .bytecode import first_mismatch
from .compiler import CompilationOutput
from .errors import (
    AbiDecodeError,
    EmptyLocalBytecodeError,
    InvalidConstructorArgumentsError,
    NoMatchError,
    NotAPrefixError,
    VerifierError,
)
from .linker import LibraryBinding, PlaceholderMode, resolve
from .metadata import MetadataSpan, scan_metadata, strip_spans
from .simulator import (
    DEFAULT_ENV,
    ImmutableStrategy,
    backfill_immutables_from_chain,
    resolve_immutables_by_simulation,
)


class Requirement(Enum):
    BOTH = "both"
    EITHER = "either"
    CREATION_ONLY = "creation-only"


class MetadataLabeler(Enum):
    PATTERN_SCAN = "pattern-scan"
    DIFFERENTIAL = "differential"


class Grade(Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    NO_MATCH = "no-match"


@dataclass
class ArtifactReport:
    """What one comparison leg matched, and how."""

    exact_eligible: bool = False
    stripped_spans: list[MetadataSpan] = field(default_factory=list)
    placeholder_bindings: list[LibraryBinding] = field(default_factory=list)
    immutable_audit: list[str] = field(default_factory=list)
    ctor_args_decoded: list | None = None


# A comparison leg: the report of its match, the error it raised, or None
# when it did not run.
Leg = ArtifactReport | VerifierError | None


@dataclass
class MatchResult:
    grade: Grade
    creation_report: ArtifactReport | None
    runtime_report: ArtifactReport | None


def compare(local: bytes, onchain: bytes, spans: list[MetadataSpan] | None,
            error: type[NotAPrefixError | NoMatchError]
            ) -> tuple[bool, list[MetadataSpan]]:
    """Grade local against onchain: (exact, stripped spans), or raise.

    Equal bytes are exact.  Otherwise the metadata spans are stripped from
    both sides at the same offsets, and equality then is partial.  spans
    overrides the pattern scan (the differential labeler path); without it,
    the scan must find the same layout on both sides.  Anything else raises
    error(message, first_mismatch).
    """
    if local == onchain:
        return True, []
    if spans is not None:
        if any(s.end > len(onchain) for s in spans):
            raise error("differential spans fall outside the on-chain code",
                        first_mismatch(local, onchain))
    else:
        spans = scan_metadata(local)
        if [(s.start, s.end) for s in spans] != \
                [(s.start, s.end) for s in scan_metadata(onchain)]:
            raise error(
                "metadata span layouts differ between local and on-chain code",
                first_mismatch(local, onchain))
    stripped_local = strip_spans(local, spans)
    stripped_onchain = strip_spans(onchain, spans)
    if stripped_local != stripped_onchain:
        index = first_mismatch(stripped_local, stripped_onchain)
        raise error(f"code differs outside metadata (first mismatch at {index} "
                    f"after stripping)", index)
    return False, list(spans)


def match_creation(
    local: bytes,
    tx_input: bytes,
    ctor_params: list[AbiParam] | None,
    *,
    strict: bool = True,
    local_spans: list[MetadataSpan] | None = None,
) -> ArtifactReport:
    """Prefix check plus argument validation; raises on failure.

    strict refuses an empty compiled prefix and requires the remainder to
    decode as the constructor arguments; without it, zero local bytes
    prefix-match any transaction and trailing bytes pass unchecked.

    The compiled code is graded by compare against the transaction prefix of
    its length, raising NotAPrefixError; local_spans overrides the pattern
    scan (the differential labeler path).
    """
    if strict and not local:
        raise EmptyLocalBytecodeError(
            "compiled creation code is empty; an empty prefix would match "
            "any transaction")
    if len(tx_input) < len(local):
        raise NotAPrefixError(
            f"the transaction input ({len(tx_input)} bytes) is shorter than "
            f"the compiled creation code ({len(local)} bytes)",
            first_mismatch(local, tx_input))
    report = ArtifactReport()
    report.exact_eligible, report.stripped_spans = compare(
        local, tx_input[:len(local)], local_spans, NotAPrefixError)
    remainder = tx_input[len(local):]

    if strict:
        if remainder and ctor_params is None:
            raise InvalidConstructorArgumentsError(
                f"{len(remainder)} trailing bytes but the constructor "
                "parameter types are undeclared")
        try:
            report.ctor_args_decoded = abi_validate_arguments(
                remainder, ctor_params or [])
        except AbiDecodeError as exc:
            raise InvalidConstructorArgumentsError(str(exc)) from exc
    return report


def match_runtime(
    output: CompilationOutput,
    onchain: bytes,
    strategy: ImmutableStrategy,
    *,
    ctor_args: bytes = b"",
    placeholder_mode: PlaceholderMode = PlaceholderMode.OFFSET_LITERAL,
    metadata_spans: list[MetadataSpan] | None = None,
) -> ArtifactReport:
    """Normalize deployment-time variance, then compare against on-chain code.

    Pipeline: fill immutable regions (simulation or chain backfill), bind
    library placeholders from on-chain bytes, then grade by compare, which
    raises NoMatchError with the first mismatching offset; sub-stage errors
    (simulation faults, length mismatches, foreign return data) propagate.
    metadata_spans overrides the pattern scan (the differential labeler
    path).  output's immutable and link regions were checked when it was
    built.
    """
    report = ArtifactReport()
    local = output.runtime_template

    if strategy is not ImmutableStrategy.CHAIN_BACKFILL:
        # always simulate; SIM_GUARDED holds the return to the template, byte
        # for byte where no region is declared, closing R2's foreign-return gap
        local = resolve_immutables_by_simulation(
            local, output.immutable_refs, output.creation_code, ctor_args,
            DEFAULT_ENV, strategy is ImmutableStrategy.SIM_TRUSTED)
    elif output.immutable_refs:
        local = backfill_immutables_from_chain(local, output.immutable_refs, onchain)
        for ref in output.immutable_refs:
            report.immutable_audit.append(
                f"unverified-immutable:{ref.name or ref.offset}")

    if output.link_refs:
        local, bindings = resolve(local, onchain, output.link_refs,
                                  placeholder_mode)
        report.placeholder_bindings = bindings
        for binding in bindings:
            if binding.unset:
                report.immutable_audit.append(
                    f"unset-library:{binding.span.lib_name}")

    report.exact_eligible, report.stripped_spans = compare(
        local, onchain, metadata_spans, NoMatchError)
    return report


def grade(creation: Leg, runtime: Leg, requirement: Requirement) -> MatchResult:
    """Turn the two comparison legs into a verdict, or raise.

    The requirement picks the legs that count: CREATION_ONLY ignores the
    runtime leg.  BOTH and CREATION_ONLY raise the first failed leg, and
    refuse when a leg they need did not run.  EITHER raises NoMatchError,
    carrying every failed leg as causes, only when no leg matched.  The
    grade is Exact when every matched leg is exact-eligible, else Partial.
    """
    legs = (creation,) if requirement is Requirement.CREATION_ONLY \
        else (creation, runtime)
    matched = [leg for leg in legs if isinstance(leg, ArtifactReport)]
    failed = [leg for leg in legs if isinstance(leg, VerifierError)]
    if requirement is not Requirement.EITHER:
        if failed:
            raise failed[0]
        if len(matched) < len(legs):
            raise NoMatchError(
                f"{requirement.value} needs a comparison leg that did not run")
    elif not matched:
        raise NoMatchError(
            "no comparison leg matched: " +
            ("; ".join(str(exc) for exc in failed) or "none ran"),
            causes=failed)
    return MatchResult(
        Grade.EXACT if all(r.exact_eligible for r in matched) else Grade.PARTIAL,
        creation if isinstance(creation, ArtifactReport) else None,
        runtime if isinstance(runtime, ArtifactReport) else None)
