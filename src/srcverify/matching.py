"""Bytecode comparison under per-platform policies.

Creation matching checks that the compiled creation code is a prefix of the
deployment transaction input and, on the hardened path, that the remainder
decodes as the declared constructor arguments.  Runtime matching normalizes
deployment-time variance (immutables, library addresses, metadata) and then
compares bytes.  grade() folds the two artifact reports into Exact, Partial,
or NoMatch according to the platform's requirement.

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
    LengthMismatchError,
    MissingComparisonError,
    NotAPrefixError,
)
from .linker import LibraryBinding, PlaceholderMode, declared_placeholders, resolve
from .metadata import MetadataSpan, scan_metadata, strip_spans
from .simulator import (
    DEFAULT_ENV,
    ExecutionEnv,
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


@dataclass(frozen=True)
class MatchPolicy:
    requirement: Requirement
    allow_empty_prefix: bool = False  # naive R3 toggle
    validate_ctor_args: bool = True

    @classmethod
    def hardened(cls) -> "MatchPolicy":
        return cls(Requirement.EITHER, allow_empty_prefix=False,
                   validate_ctor_args=True)


@dataclass
class ArtifactReport:
    artifact: str  # "creation" | "runtime"
    compared: bool = False
    matched: bool = False
    exact_eligible: bool = False
    equal_after_normalization: bool = False
    stripped_spans: list[MetadataSpan] = field(default_factory=list)
    placeholder_bindings: list[LibraryBinding] = field(default_factory=list)
    immutable_audit: list[str] = field(default_factory=list)
    ctor_args_decoded: list | None = None
    first_mismatch: int | None = None
    failure_reason: str | None = None


@dataclass
class MatchResult:
    grade: Grade
    creation_report: ArtifactReport | None
    runtime_report: ArtifactReport | None
    failure_reason: str | None = None


def match_creation(
    local: bytes,
    tx_input: bytes,
    ctor_params: list[AbiParam] | None,
    policy: MatchPolicy,
    local_spans: list[MetadataSpan] | None = None,
) -> ArtifactReport:
    """Prefix check plus argument validation; raises on failure.

    When the raw prefix differs only inside metadata spans, the comparison is
    retried with those spans stripped from the compiled code and from the
    same offsets of the transaction prefix, yielding a Partial-eligible
    report.  local_spans overrides the pattern scan (the differential labeler
    path).
    """
    report = ArtifactReport(artifact="creation", compared=True)
    if not local:
        if not policy.allow_empty_prefix:
            raise EmptyLocalBytecodeError(
                "compiled creation code is empty; an empty prefix would match "
                "any transaction")
        remainder = tx_input
        report.exact_eligible = True
    elif tx_input.startswith(local):
        remainder = tx_input[len(local):]
        report.exact_eligible = True
    else:
        spans = scan_metadata(local) if local_spans is None else local_spans
        if not spans or len(tx_input) < len(local):
            raise NotAPrefixError(
                f"compiled creation code is not a prefix of the transaction "
                f"input (first mismatch at "
                f"{first_mismatch(local, tx_input[:len(local)])})")
        stripped_local = strip_spans(local, spans)
        stripped_tx = strip_spans(tx_input[:len(local)], spans)
        if stripped_local != stripped_tx:
            raise NotAPrefixError(
                f"creation code differs outside metadata spans (first "
                f"mismatch at {first_mismatch(stripped_local, stripped_tx)} "
                f"after stripping)")
        remainder = tx_input[len(local):]
        report.stripped_spans = list(spans)

    if policy.validate_ctor_args:
        if remainder and ctor_params is None:
            raise InvalidConstructorArgumentsError(
                f"{len(remainder)} trailing bytes but the constructor "
                "parameter types are undeclared")
        try:
            report.ctor_args_decoded = abi_validate_arguments(
                remainder, ctor_params or [])
        except AbiDecodeError as exc:
            raise InvalidConstructorArgumentsError(str(exc)) from exc

    report.matched = True
    report.equal_after_normalization = True
    return report


def match_runtime(
    output: CompilationOutput,
    onchain: bytes,
    strategy: ImmutableStrategy,
    *,
    creation: bytes | None = None,
    ctor_args: bytes = b"",
    env: ExecutionEnv = DEFAULT_ENV,
    trust_simulated_return: bool = False,
    placeholder_mode: PlaceholderMode = PlaceholderMode.OFFSET_LITERAL,
    labeler: MetadataLabeler = MetadataLabeler.PATTERN_SCAN,
    differential_spans: list[MetadataSpan] | None = None,
) -> ArtifactReport:
    """Normalize deployment-time variance, then compare against on-chain code.

    Pipeline: fill immutable regions (simulation or chain backfill), bind
    library placeholders from on-chain bytes, locate metadata on both sides,
    and compare before/after stripping.  Sub-stage errors (simulation faults,
    length mismatches, foreign return data) propagate to the caller.
    """
    report = ArtifactReport(artifact="runtime", compared=True)
    local = output.runtime_template

    if strategy is ImmutableStrategy.SIM_GUARDED:
        # always simulate: with no declared regions the return must equal the
        # template byte for byte, which is what closes R2's foreign-return gap
        local = resolve_immutables_by_simulation(
            local, output.immutable_refs,
            output.creation_code if creation is None else creation,
            ctor_args, env, trust_simulated_return=trust_simulated_return)
    elif output.immutable_refs:
        local = backfill_immutables_from_chain(local, output.immutable_refs, onchain)
        for ref in output.immutable_refs:
            report.immutable_audit.append(
                f"unverified-immutable:{ref.name or ref.offset}")

    link_spans = declared_placeholders(output)
    if link_spans:
        if len(local) != len(onchain):
            raise LengthMismatchError(
                f"cannot bind libraries: local is {len(local)} bytes, "
                f"on-chain is {len(onchain)}")
        local, bindings = resolve(local, onchain, link_spans, placeholder_mode)
        report.placeholder_bindings = bindings
        for binding in bindings:
            if binding.unset:
                report.immutable_audit.append(
                    f"unset-library:{binding.span.lib_name}")

    report.exact_eligible = local == onchain
    if report.exact_eligible:
        report.matched = True
        report.equal_after_normalization = True
        return report

    if labeler is MetadataLabeler.DIFFERENTIAL:
        if differential_spans is None:
            raise ValueError("differential labeler needs precomputed spans")
        local_spans = differential_spans
        onchain_spans = differential_spans  # applied symmetrically
        if any(s.end > len(onchain) for s in onchain_spans):
            report.failure_reason = (
                "differential spans fall outside the on-chain code")
            report.first_mismatch = first_mismatch(local, onchain)
            return report
    else:
        local_spans = scan_metadata(local)
        onchain_spans = scan_metadata(onchain)
        if [(s.start, s.end) for s in local_spans] != \
                [(s.start, s.end) for s in onchain_spans]:
            report.failure_reason = (
                "metadata span layouts differ between local and on-chain code")
            report.first_mismatch = first_mismatch(local, onchain)
            return report

    report.stripped_spans = list(local_spans)
    stripped_local = strip_spans(local, local_spans)
    stripped_onchain = strip_spans(onchain, onchain_spans)
    if stripped_local == stripped_onchain:
        report.matched = True
        report.equal_after_normalization = True
    else:
        report.first_mismatch = first_mismatch(stripped_local, stripped_onchain)
        report.failure_reason = (
            f"code differs outside metadata (first mismatch at "
            f"{report.first_mismatch} after stripping)")
    return report


def grade(
    creation_report: ArtifactReport | None,
    runtime_report: ArtifactReport | None,
    policy: MatchPolicy,
) -> MatchResult:
    """Fold artifact reports into a verdict under the platform requirement."""
    requirement = policy.requirement

    def result(g: Grade, reason: str | None = None) -> MatchResult:
        return MatchResult(g, creation_report, runtime_report, reason)

    if requirement is Requirement.CREATION_ONLY:
        if creation_report is None or not creation_report.compared:
            raise MissingComparisonError("creation comparison is required")
        if not creation_report.matched:
            return result(Grade.NO_MATCH, creation_report.failure_reason)
        return result(Grade.EXACT if creation_report.exact_eligible
                      else Grade.PARTIAL)

    compared = [r for r in (creation_report, runtime_report)
                if r is not None and r.compared]
    if requirement is Requirement.BOTH:
        if len(compared) < 2:
            raise MissingComparisonError(
                "both creation and runtime comparisons are required")
        if not all(r.matched for r in compared):
            failed = next(r for r in compared if not r.matched)
            return result(Grade.NO_MATCH, failed.failure_reason
                          or f"{failed.artifact} comparison failed")
        matched = compared
    else:  # EITHER: artifacts that errored out are excluded upstream
        if not compared:
            raise MissingComparisonError(
                "at least one artifact comparison is required")
        matched = [r for r in compared if r.matched]
        if not matched:
            reasons = "; ".join(
                r.failure_reason or f"{r.artifact} comparison failed"
                for r in compared)
            return result(Grade.NO_MATCH, reasons)

    if all(r.exact_eligible for r in matched):
        return result(Grade.EXACT)
    return result(Grade.PARTIAL)
