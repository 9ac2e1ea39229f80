"""Match engine: creation prefix, runtime normalization pipeline, grading."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcverify._keccak import keccak256
from srcverify.compiler import CompilationOutput, make_creation_code
from srcverify.errors import (
    EmptyLocalBytecodeError,
    ForeignReturnDataError,
    InvalidConstructorArgumentsError,
    LengthMismatchError,
    NoMatchError,
    NotAPrefixError,
    NotFoundError,
    VerifierError,
)
from srcverify.linker import PlaceholderForm, PlaceholderSpan
from srcverify.matching import (
    ArtifactReport,
    Grade,
    Requirement,
    grade,
    match_creation,
    match_runtime,
)
from srcverify.metadata import (
    MetadataKind,
    MetadataSpan,
    make_metadata_block,
)
from srcverify.simulator import ImmutableRef, ImmutableStrategy
from srcverify.abi import parse_params

BODY = bytes.fromhex("6080604052600a600055")
BLOCK_A = make_metadata_block(keccak256(b"hash-a"))
BLOCK_B = make_metadata_block(keccak256(b"hash-b"))


def word(v: int) -> bytes:
    return v.to_bytes(32, "big")


class TestMatchCreation:
    def test_prefix_with_one_argument(self):
        local = BODY
        tx = local + word(1)
        report = match_creation(local, tx, parse_params(["uint256"]))
        assert report.exact_eligible
        assert report.ctor_args_decoded == [1]

    def test_exact_no_arguments(self):
        report = match_creation(BODY, BODY, [])
        assert report.ctor_args_decoded == []

    def test_empty_local_hardened_rejected(self):
        with pytest.raises(EmptyLocalBytecodeError):
            match_creation(b"", BODY, [])

    def test_empty_local_naive_accepted(self):
        report = match_creation(b"", BODY + b"junk", None, strict=False)
        assert report.ctor_args_decoded is None

    def test_31_byte_remainder_rejected(self):
        with pytest.raises(InvalidConstructorArgumentsError):
            match_creation(BODY, BODY + bytes(31), parse_params(["uint256"]))

    def test_junk_remainder_accepted_when_validation_off(self):
        report = match_creation(BODY, BODY + bytes(31), None, strict=False)
        assert report.ctor_args_decoded is None

    def test_remainder_with_undeclared_params_rejected(self):
        with pytest.raises(InvalidConstructorArgumentsError):
            match_creation(BODY, BODY + word(1), None)

    def test_missing_required_argument(self):
        with pytest.raises(InvalidConstructorArgumentsError):
            match_creation(BODY, BODY, parse_params(["uint256"]))

    def test_not_a_prefix(self):
        with pytest.raises(NotAPrefixError):
            match_creation(BODY, b"\xff" + BODY[1:], [])

    def test_tx_shorter_than_local(self):
        with pytest.raises(NotAPrefixError):
            match_creation(BODY, BODY[:-1], [])

    def test_metadata_only_difference_is_partial(self):
        local = make_creation_code(BODY + BLOCK_A)
        onchain_creation = make_creation_code(BODY + BLOCK_B)
        tx = onchain_creation + word(7)
        report = match_creation(local, tx, parse_params(["uint256"]))
        assert not report.exact_eligible
        assert report.stripped_spans
        assert report.ctor_args_decoded == [7]

    def test_difference_outside_metadata_not_a_prefix(self):
        local = make_creation_code(BODY + BLOCK_A)
        tampered = bytearray(make_creation_code(BODY + BLOCK_B))
        tampered[13] ^= 0x01  # inside the copied body, outside any span
        with pytest.raises(NotAPrefixError):
            match_creation(local, bytes(tampered), [])

    @pytest.mark.parametrize("local, tx, message, offset", [
        # the compiled block's offsets hold code in the deployed prefix
        (make_creation_code(BODY + BLOCK_A),
         make_creation_code(BODY + b"\x5b" + bytes(52)), "layouts differ",
         12 + len(BODY)),
        (make_creation_code(BODY + BLOCK_A),
         make_creation_code(BODY[:1] + b"\x61" + BODY[2:] + BLOCK_B),
         "outside metadata", 13),
        (BODY, BODY[:-1], "shorter", len(BODY) - 1),
    ], ids=["code-at-metadata", "code-differs", "tx-shorter"])
    def test_refusal_names_first_mismatch(self, local, tx, message, offset):
        with pytest.raises(NotAPrefixError, match=message) as excinfo:
            match_creation(local, tx, [])
        assert excinfo.value.first_mismatch == offset

    @settings(max_examples=120, deadline=None)
    @given(st.binary(min_size=1, max_size=60), st.data())
    def test_random_non_prefix_never_matches(self, local, data):
        # P1: mutate one byte of the would-be prefix
        idx = data.draw(st.integers(0, len(local) - 1))
        flip = data.draw(st.integers(1, 255))
        tx = bytearray(local + data.draw(st.binary(max_size=32)))
        tx[idx] ^= flip
        with pytest.raises((NotAPrefixError, InvalidConstructorArgumentsError)):
            match_creation(local, bytes(tx), None)


def simple_output(runtime: bytes, **kwargs) -> CompilationOutput:
    return CompilationOutput(
        creation_code=make_creation_code(runtime),
        runtime_template=runtime, **kwargs)


class TestMatchRuntime:
    def test_identical_is_exact_eligible(self):
        runtime = BODY + BLOCK_A
        report = match_runtime(simple_output(runtime), runtime,
                               ImmutableStrategy.SIM_GUARDED)
        assert report.exact_eligible

    def test_metadata_hash_difference_is_partial_eligible(self):
        report = match_runtime(simple_output(BODY + BLOCK_A), BODY + BLOCK_B,
                               ImmutableStrategy.SIM_GUARDED)
        assert not report.exact_eligible
        assert [(s.start, s.end) for s in report.stripped_spans] == \
            [(len(BODY), len(BODY) + 53)]

    def test_difference_outside_spans_reports_first_mismatch(self):
        onchain = bytearray(BODY + BLOCK_A)
        onchain[3] ^= 0xFF
        with pytest.raises(NoMatchError, match="outside metadata") as excinfo:
            match_runtime(simple_output(BODY + BLOCK_A), bytes(onchain),
                          ImmutableStrategy.SIM_GUARDED)
        assert excinfo.value.first_mismatch == 3

    def test_span_layout_mismatch_is_no_match(self):
        # on-chain side carries no metadata block at all
        with pytest.raises(NoMatchError, match="layouts differ") as excinfo:
            match_runtime(simple_output(BODY + BLOCK_A), BODY + bytes(53),
                          ImmutableStrategy.SIM_GUARDED)
        assert excinfo.value.first_mismatch == len(BODY)

    def test_differential_spans_past_the_end_are_no_match(self):
        span = MetadataSpan(len(BODY), len(BODY) + 8, MetadataKind.EMBEDDED)
        with pytest.raises(NoMatchError, match="outside the on-chain code"):
            match_runtime(simple_output(BODY + bytes(8)), BODY + b"\x01",
                          ImmutableStrategy.CHAIN_BACKFILL,
                          metadata_spans=[span])

    def test_simulation_guard_rejects_foreign_return(self):
        victim_runtime = bytes.fromhex("11" * 40)
        output = CompilationOutput(
            creation_code=make_creation_code(victim_runtime),
            runtime_template=bytes(10))  # template unrelated to what returns
        with pytest.raises(ForeignReturnDataError):
            match_runtime(output, victim_runtime, ImmutableStrategy.SIM_GUARDED)

    def test_trusting_simulation_accepts_foreign_return(self):
        victim_runtime = bytes.fromhex("11" * 40)
        output = CompilationOutput(
            creation_code=make_creation_code(victim_runtime),
            runtime_template=bytes(10))
        report = match_runtime(output, victim_runtime,
                               ImmutableStrategy.SIM_TRUSTED)
        assert report.exact_eligible

    def test_immutable_filled_by_simulation(self):
        # constructor computes 20**23 into a 32-byte region (exp fixture)
        template = bytes.fromhex("600a600a") + bytes(32) + bytes.fromhex("5b600055")
        ref = ImmutableRef(4, 32, "rate")
        instr = bytes.fromhex(
            "610028" "6016" "600039"      # copy 0x28 bytes from offset 0x16
            "601760140a600452"            # mstore 20**23 at 0x04
            "610028" "6000" "f3")
        creation = instr + template
        onchain = bytearray(template)
        onchain[4:36] = (20 ** 23).to_bytes(32, "big")
        output = CompilationOutput(creation_code=creation,
                                   runtime_template=template,
                                   immutable_refs=[ref])
        report = match_runtime(output, bytes(onchain),
                               ImmutableStrategy.SIM_GUARDED)
        assert report.exact_eligible
        assert report.immutable_audit == []

    def test_chain_backfill_audits_regions(self):
        template = BODY + bytes(20) + BLOCK_A
        onchain = BODY + bytes.fromhex("ab" * 20) + BLOCK_A
        output = CompilationOutput(
            creation_code=make_creation_code(template),
            runtime_template=template,
            immutable_refs=[ImmutableRef(len(BODY), 20, "owner")])
        report = match_runtime(output, onchain, ImmutableStrategy.CHAIN_BACKFILL)
        assert report.exact_eligible
        assert report.immutable_audit == ["unverified-immutable:owner"]

    def test_placeholder_bound_from_onchain(self):
        span = PlaceholderSpan(2, "lib.sol", "Math", PlaceholderForm.LEGACY)
        template = b"\x60\x80" + bytes(20) + b"\x00"
        onchain = b"\x60\x80" + bytes.fromhex("cd" * 20) + b"\x00"
        output = CompilationOutput(
            creation_code=make_creation_code(template),
            runtime_template=template, link_refs=[span])
        report = match_runtime(output, onchain, ImmutableStrategy.CHAIN_BACKFILL)
        assert report.exact_eligible
        assert len(report.placeholder_bindings) == 1
        assert report.placeholder_bindings[0].address == bytes.fromhex("cd" * 20)
        assert report.immutable_audit == []

    def test_unset_placeholder_audited(self):
        span = PlaceholderSpan(2, "lib.sol", "Math", PlaceholderForm.LEGACY)
        template = b"\x60\x80" + bytes(20) + b"\x00"
        output = CompilationOutput(
            creation_code=make_creation_code(template),
            runtime_template=template, link_refs=[span])
        report = match_runtime(output, template, ImmutableStrategy.CHAIN_BACKFILL)
        assert report.immutable_audit == ["unset-library:Math"]

    def test_link_spans_need_equal_lengths(self):
        span = PlaceholderSpan(0, "lib.sol", "Math", PlaceholderForm.LEGACY)
        template = bytes(20)
        output = CompilationOutput(
            creation_code=make_creation_code(template),
            runtime_template=template, link_refs=[span])
        with pytest.raises(LengthMismatchError):
            match_runtime(output, bytes(21), ImmutableStrategy.CHAIN_BACKFILL)

    def test_differential_spans_applied_symmetrically(self):
        # bogus span covering real code lets a code difference through
        local = BODY + bytes.fromhex("11" * 8) + BLOCK_A
        onchain = BODY + bytes.fromhex("22" * 8) + BLOCK_A
        bogus = MetadataSpan(len(BODY), len(BODY) + 8, MetadataKind.EMBEDDED)
        output = simple_output(local)
        report = match_runtime(output, onchain, ImmutableStrategy.CHAIN_BACKFILL,
                               metadata_spans=[bogus])
        assert not report.exact_eligible

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=100))
    def test_self_fixture_always_exact(self, body):
        runtime = body + make_metadata_block(keccak256(body))
        report = match_runtime(simple_output(runtime), runtime,
                               ImmutableStrategy.SIM_GUARDED)
        assert report.exact_eligible


# Leg outcomes in table order; "-" is a leg that did not run.
CREATION_LEGS = ("exact", "partial", "NotAPrefix", "NotFound", "-")
RUNTIME_LEGS = ("exact", "partial", "NoMatch", "ForeignReturnData", "-")

# One row per creation leg, one column per runtime leg.  A cell is the grade,
# "creation!" or "runtime!" when that leg's own error is re-raised, or a
# fresh NoMatchError with the classes of its causes in brackets.
VERDICTS = {
    Requirement.BOTH: """
        EXACT      PARTIAL    runtime!   runtime!   NoMatch[]
        PARTIAL    PARTIAL    runtime!   runtime!   NoMatch[]
        creation!  creation!  creation!  creation!  creation!
        creation!  creation!  creation!  creation!  creation!
        NoMatch[]  NoMatch[]  runtime!   runtime!   NoMatch[]
    """,
    # rows wrap after the fourth column
    Requirement.EITHER: """
        EXACT    PARTIAL  EXACT                        EXACT
                          EXACT
        PARTIAL  PARTIAL  PARTIAL                      PARTIAL
                          PARTIAL
        EXACT    PARTIAL  NoMatch[NotAPrefix,NoMatch]  NoMatch[NotAPrefix,ForeignReturnData]
                          NoMatch[NotAPrefix]
        EXACT    PARTIAL  NoMatch[NotFound,NoMatch]    NoMatch[NotFound,ForeignReturnData]
                          NoMatch[NotFound]
        EXACT    PARTIAL  NoMatch[NoMatch]             NoMatch[ForeignReturnData]
                          NoMatch[]
    """,
    # the runtime leg never counts; the service does not even run it
    Requirement.CREATION_ONLY: """
        EXACT      EXACT      EXACT      EXACT      EXACT
        PARTIAL    PARTIAL    PARTIAL    PARTIAL    PARTIAL
        creation!  creation!  creation!  creation!  creation!
        creation!  creation!  creation!  creation!  creation!
        NoMatch[]  NoMatch[]  NoMatch[]  NoMatch[]  NoMatch[]
    """,
}

LEG_ERRORS = {"NotAPrefix": NotAPrefixError, "NotFound": NotFoundError,
              "NoMatch": NoMatchError, "ForeignReturnData": ForeignReturnDataError}


def make_leg(artifact: str, outcome: str):
    if outcome == "-":
        return None
    if outcome in LEG_ERRORS:
        return LEG_ERRORS[outcome](f"{artifact} leg: {outcome}")
    return matched(exact=outcome == "exact")


def verdict_cases():
    for requirement, table in VERDICTS.items():
        cells = iter(table.split())
        for creation in CREATION_LEGS:
            for runtime in RUNTIME_LEGS:
                yield pytest.param(requirement, creation, runtime, next(cells),
                                   id=f"{requirement.name}-{creation}-{runtime}")
        assert next(cells, None) is None, requirement


def matched(exact: bool = True) -> ArtifactReport:
    return ArtifactReport(exact_eligible=exact)


BOTH = Requirement.BOTH
EITHER = Requirement.EITHER
CREATION_ONLY = Requirement.CREATION_ONLY


def class_name(exc: Exception) -> str:
    return type(exc).__name__.removesuffix("Error")


class TestGrade:
    @pytest.mark.parametrize("requirement,creation,runtime,verdict",
                             list(verdict_cases()))
    def test_verdict(self, requirement, creation, runtime, verdict):
        legs = {"creation": make_leg("creation", creation),
                "runtime": make_leg("runtime", runtime)}
        if verdict in ("EXACT", "PARTIAL"):
            result = grade(legs["creation"], legs["runtime"], requirement)
            assert result.grade is Grade[verdict]
            for artifact, report in (("creation", result.creation_report),
                                     ("runtime", result.runtime_report)):
                leg = legs[artifact]
                assert report is (leg if isinstance(leg, ArtifactReport)
                                  else None)
            return
        with pytest.raises(VerifierError) as excinfo:
            grade(legs["creation"], legs["runtime"], requirement)
        raised = excinfo.value
        if verdict.endswith("!"):
            assert raised is legs[verdict[:-1]]
            return
        assert type(raised) is NoMatchError
        causes = verdict.removeprefix("NoMatch[").removesuffix("]")
        assert [class_name(c) for c in raised.causes] == \
            [name for name in causes.split(",") if name]
        assert all(c in legs.values() for c in raised.causes)

    def test_both_exact(self):
        result = grade(matched(), matched(), BOTH)
        assert result.grade is Grade.EXACT

    def test_both_one_partial(self):
        result = grade(matched(), matched(exact=False), BOTH)
        assert result.grade is Grade.PARTIAL

    def test_both_one_failed(self):
        runtime = NoMatchError("runtime differs")
        with pytest.raises(NoMatchError) as excinfo:
            grade(matched(), runtime, BOTH)
        assert excinfo.value is runtime

    def test_both_missing_runtime(self):
        with pytest.raises(NoMatchError, match="did not run"):
            grade(matched(), None, BOTH)

    def test_either_runtime_partial_creation_absent(self):
        for creation in (None, NotFoundError("no creation transaction")):
            result = grade(creation, matched(exact=False), EITHER)
            assert result.grade is Grade.PARTIAL
            assert result.creation_report is None

    def test_either_one_match_suffices(self):
        result = grade(matched(), NoMatchError("runtime differs"),
                       EITHER)
        assert result.grade is Grade.EXACT

    def test_either_none_matched(self):
        legs = (NotAPrefixError("creation differs"),
                NoMatchError("runtime differs"))
        with pytest.raises(NoMatchError) as excinfo:
            grade(*legs, EITHER)
        assert excinfo.value.causes == legs
        assert "creation differs" in str(excinfo.value)
        assert "runtime differs" in str(excinfo.value)

    def test_either_nothing_compared(self):
        with pytest.raises(NoMatchError) as excinfo:
            grade(None, None, EITHER)
        assert excinfo.value.causes == ()

    def test_creation_only_ignores_runtime(self):
        result = grade(matched(exact=False),
                       NoMatchError("runtime differs"), CREATION_ONLY)
        assert result.grade is Grade.PARTIAL

    def test_creation_only_requires_creation(self):
        with pytest.raises(NoMatchError, match="did not run"):
            grade(None, matched(), CREATION_ONLY)
