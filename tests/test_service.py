"""Service pipeline: sanitization, profiles, submit/query/inherit/import."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcverify._keccak import keccak256
from srcverify.chain import MockChain, RedeployStatus
from srcverify.compiler import (
    CompilationOutput,
    CompileSettings,
    FixtureCompiler,
    VerificationRequest,
    make_creation_code,
)
from srcverify.errors import (
    AbsolutePathError,
    CorruptRecordError,
    DuplicateAfterNormalizationError,
    EmptyLocalBytecodeError,
    ForeignReturnDataError,
    ImportRefusedError,
    MalformedRequestError,
    NoDonorError,
    NoMatchError,
    NotAPrefixError,
    NotVerifiedError,
    PathEscapeError,
    SpanOutOfRangeError,
    StaleRecordError,
    VerifierError,
)
from srcverify.linker import PlaceholderForm, PlaceholderSpan
from srcverify.matching import Grade, Requirement
from srcverify.metadata import make_metadata_block
from srcverify.service import (
    HARDENED,
    INLINE_ASSEMBLY_WARNING,
    NAIVE_BLOCKSCOUT_LIKE,
    NAIVE_ETHERSCAN_LIKE,
    NAIVE_SOURCIFY_LIKE,
    PROFILES,
    DisclosureView,
    VerifyService,
    get_profile,
    sanitize_path,
    sanitize_paths,
)
from srcverify.simulator import ImmutableRef
from srcverify.store import RecordStore, VerificationRecord

BODY = bytes.fromhex("6080604052600a600055")
BLOCK_A = make_metadata_block(keccak256(b"hash-a"))
BLOCK_B = make_metadata_block(keccak256(b"hash-b"))
RUNTIME = BODY + BLOCK_A
SOURCES = {"contracts/a.sol": "contract A { uint256 value; }\n"}
TARGET = "contracts/a.sol:A"


def word(v: int) -> bytes:
    return v.to_bytes(32, "big")


def build(config, tmp_path, *, sources=None, target=TARGET, output=None,
          runtime=RUNTIME, ctor_params=None, deployed_runtime=None,
          deployed_creation=None, deploy_args=b"", subdir="records",
          chain=None):
    """One verifier world: compiler fixture, mock chain with the contract
    deployed, fresh store, and a matching request."""
    sources = dict(SOURCES if sources is None else sources)
    settings = CompileSettings(target=target)
    if output is None:
        output = CompilationOutput(creation_code=make_creation_code(runtime),
                                   runtime_template=runtime,
                                   ctor_params=ctor_params)
    compiler = FixtureCompiler()
    compiler.register(sources, settings, output)
    chain = MockChain() if chain is None else chain
    if deployed_runtime is None:
        deployed_runtime = output.runtime_template
    if deployed_creation is None:
        deployed_creation = output.creation_code
    address = chain.mock_deploy(deployed_runtime, deployed_creation + deploy_args)
    store = RecordStore(tmp_path / subdir)
    service = VerifyService(config, compiler, chain, store)
    request = VerificationRequest(sources=sources, settings=settings,
                                  address=address)
    return SimpleNamespace(service=service, compiler=compiler, chain=chain,
                           store=store, request=request, address=address,
                           output=output, settings=settings, sources=sources)


class CodeSwapChain(MockChain):
    """Serves other code from its second runtime read onward, as if the
    contract were redeployed while a verification was running."""

    def __init__(self, swapped: bytes):
        super().__init__()
        self.swapped = swapped
        self.runtime_reads = 0

    def get_runtime_code(self, address: bytes) -> bytes:
        self.runtime_reads += 1
        if self.runtime_reads > 1:
            return self.swapped
        return super().get_runtime_code(address)


class TestSanitizePaths:
    def test_plain_path_unchanged(self):
        assert sanitize_path("contracts/A.sol") == "contracts/A.sol"

    def test_dot_segments_normalized(self):
        assert sanitize_path("a/./b.sol") == "a/b.sol"
        assert sanitize_path("./a.sol") == "a.sol"
        assert sanitize_path("a/../b.sol") == "b.sol"

    def test_backslashes_normalized(self):
        assert sanitize_path("a\\b.sol") == "a/b.sol"

    def test_parent_escape_rejected(self):
        with pytest.raises(PathEscapeError):
            sanitize_path("../../0x12fe/sources/A.sol")
        with pytest.raises(PathEscapeError):
            sanitize_path("a/../../b.sol")

    @pytest.mark.parametrize("path", ["/etc/passwd", "\\share\\x.sol",
                                      "C:/x.sol", "C:\\x.sol", "file://x.sol",
                                      "https://evil/x.sol"])
    def test_absolute_and_scheme_rejected(self, path):
        with pytest.raises(AbsolutePathError):
            sanitize_path(path)

    def test_empty_rejected(self):
        with pytest.raises(MalformedRequestError):
            sanitize_path("")

    def test_nul_byte_rejected(self):
        with pytest.raises(MalformedRequestError):
            sanitize_path("contracts/a\0.sol")

    def test_duplicate_after_normalization(self):
        with pytest.raises(DuplicateAfterNormalizationError):
            sanitize_paths({"a/./b.sol": "x", "a/b.sol": "y"})

    def test_map_normalization(self):
        cleaned = sanitize_paths({"./a.sol": "x", "lib\\m.sol": "y"})
        assert cleaned == {"a.sol": "x", "lib/m.sol": "y"}

    def test_naive_passthrough(self):
        evil = {"../../victim/sources/a.sol": "x", "/abs.sol": "y"}
        assert sanitize_paths(evil, allow_parent_refs=True) == evil

    @pytest.mark.parametrize("paths", [("c/a.sol", "c/a.sol/x.sol"),
                                       ("c/a.sol/x.sol", "./c/a.sol"),
                                       ("c", "c/a.sol/x.sol")])
    def test_file_that_is_another_sources_directory(self, paths):
        with pytest.raises(DuplicateAfterNormalizationError):
            sanitize_paths(dict.fromkeys(paths, "x"))

    def test_sibling_prefixes_are_not_directories(self):
        paths = {"c/a.sol": "x", "c/a.sol2/x.sol": "y", "c/a.so": "z"}
        assert sanitize_paths(paths) == paths


class TestRequestJson:
    @pytest.mark.parametrize("sources", [["contracts/a.sol"],
                                         {"contracts/a.sol": 5},
                                         {"contracts/a.sol": ["x"]}])
    def test_sources_must_map_paths_to_text(self, sources):
        text = json.dumps({"sources": sources,
                           "settings": {"target": TARGET}})
        with pytest.raises(MalformedRequestError):
            VerificationRequest.from_json(text)

    @pytest.mark.parametrize("field,value", [
        ("settings", []),
        ("settings", {"optimizerRuns": "x"}),
        ("settings", {"target": 5}),
        ("address", 5),
        ("libraries", 3),
        ("libraries", {"Lib": 5}),
        ("settings", {"optimizerRuns": "200"}),
        ("settings", {"optimizerRuns": 1.5}),
        ("settings", {"optimizerRuns": 200.0}),
        ("settings", {"optimizerRuns": True}),
    ])
    def test_wrongly_typed_fields_rejected(self, field, value):
        payload = {"sources": SOURCES, "settings": {"target": TARGET}}
        payload[field] = value
        with pytest.raises(MalformedRequestError):
            VerificationRequest.from_json(json.dumps(payload))


class TestProfiles:
    def test_four_profiles_exist(self):
        assert set(PROFILES) == {"Hardened", "NaiveEtherscanLike",
                                 "NaiveSourcifyLike", "NaiveBlockscoutLike"}

    def test_get_profile_forms(self):
        assert get_profile("Hardened") is HARDENED
        assert get_profile("hardened") is HARDENED
        assert get_profile("naive-etherscan-like") is NAIVE_ETHERSCAN_LIKE
        assert get_profile("naive_sourcify_like") is NAIVE_SOURCIFY_LIKE

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            get_profile("etherscan")

    def test_hardened_guards_all_on(self):
        assert HARDENED.requirement is Requirement.EITHER
        assert HARDENED.strict_creation_prefix
        assert not HARDENED.trust_simulated_return
        assert not HARDENED.allow_parent_path_refs
        assert HARDENED.disclose_full_paths
        assert HARDENED.require_verified_libraries
        assert HARDENED.recheck_code_hash_on_read
        assert not HARDENED.inherit_flagged_donors
        assert not HARDENED.accept_imported_records

    def test_each_naive_profile_differs_from_hardened(self):
        for name, config in PROFILES.items():
            if name != "Hardened":
                assert config != HARDENED


class TestSubmitVerification:
    def test_hardened_exact(self, tmp_path):
        w = build(HARDENED, tmp_path)
        record = w.service.submit_verification(w.request)
        assert record.grade is Grade.EXACT
        assert record.address == "0x" + w.address.hex()
        assert record.code_hash_at_verification == keccak256(RUNTIME)
        assert record.creation_tx_hash is not None
        assert record.warnings == []
        assert record.fully_qualified_target == TARGET
        assert w.store.load(w.address).grade is Grade.EXACT

    def test_hardened_exact_with_ctor_args(self, tmp_path):
        w = build(HARDENED, tmp_path, ctor_params=["uint256"],
                  deploy_args=word(7))
        record = w.service.submit_verification(w.request)
        assert record.grade is Grade.EXACT

    def test_metadata_hash_difference_gives_partial(self, tmp_path):
        deployed = BODY + BLOCK_B
        w = build(HARDENED, tmp_path, deployed_runtime=deployed,
                  deployed_creation=make_creation_code(deployed))
        record = w.service.submit_verification(w.request)
        assert record.grade is Grade.PARTIAL

    def test_code_difference_is_no_match_with_evidence(self, tmp_path):
        deployed = bytearray(RUNTIME)
        deployed[3] ^= 0xFF
        w = build(HARDENED, tmp_path, deployed_runtime=bytes(deployed),
                  deployed_creation=make_creation_code(bytes(deployed)))
        with pytest.raises(NoMatchError) as excinfo:
            w.service.submit_verification(w.request)
        runtime_leg, = [c for c in excinfo.value.causes
                        if isinstance(c, NoMatchError)]
        assert runtime_leg.first_mismatch == 3
        assert not w.store.has(w.address)

    def test_target_path_remapped_with_sources(self, tmp_path):
        w = build(HARDENED, tmp_path,
                  sources={"./a.sol": "contract A {}"}, target="./a.sol:A")
        # the fixture compiler is keyed on the sanitized form
        w.compiler.register({"a.sol": "contract A {}"},
                            CompileSettings(target="a.sol:A"), w.output)
        record = w.service.submit_verification(w.request)
        assert record.fully_qualified_target == "a.sol:A"
        assert set(w.store.load(w.address).sources) == {"a.sol"}

    def test_hardened_rejects_file_directory_pair_before_storing(self, tmp_path):
        sources = {"c/a.sol": "contract A {}", "c/a.sol/x.sol": "contract X {}"}
        w = build(HARDENED, tmp_path, sources=sources, target="c/a.sol:A")
        with pytest.raises(DuplicateAfterNormalizationError):
            w.service.submit_verification(w.request)
        assert list(w.store.root.iterdir()) == []

    @pytest.mark.parametrize("config", [NAIVE_SOURCIFY_LIKE, NAIVE_BLOCKSCOUT_LIKE],
                             ids=lambda config: config.name)
    def test_store_refuses_file_directory_pair_on_naive_profiles(
            self, config, tmp_path):
        sources = {"c/a.sol": "contract A {}", "c/a.sol/x.sol": "contract X {}"}
        w = build(config, tmp_path, sources=sources, target="c/a.sol:A")
        with pytest.raises(DuplicateAfterNormalizationError):
            w.service.submit_verification(w.request)
        assert list(w.store.root.rglob("*")) == []

    @pytest.mark.parametrize("config", [HARDENED, NAIVE_BLOCKSCOUT_LIKE],
                             ids=lambda config: config.name)
    def test_record_hashes_the_code_that_was_matched(self, config, tmp_path):
        chain = CodeSwapChain(swapped=BODY + BLOCK_B)
        w = build(config, tmp_path, chain=chain)
        record = w.service.submit_verification(w.request)
        assert record.code_hash_at_verification == keccak256(RUNTIME)
        assert chain.runtime_reads == 1

    def test_request_without_address_rejected(self, tmp_path):
        w = build(HARDENED, tmp_path)
        request = VerificationRequest(sources=w.request.sources,
                                      settings=w.request.settings)
        with pytest.raises(MalformedRequestError):
            w.service.submit_verification(request)

    def test_request_without_target_rejected(self, tmp_path):
        w = build(HARDENED, tmp_path)
        request = VerificationRequest(sources=w.request.sources,
                                      settings=CompileSettings(),
                                      address=w.address)
        with pytest.raises(MalformedRequestError):
            w.service.submit_verification(request)

    def test_hardened_blocks_traversal_and_store_is_untouched(self, tmp_path):
        w = build(HARDENED, tmp_path)
        victim = VerificationRecord(
            address="0x" + "11" * 20, grade=Grade.PARTIAL,
            sources={"a.sol": "contract Victim {}"},
            fully_qualified_target="a.sol:Victim", settings={},
            code_hash_at_verification=bytes(32))
        w.store.store_record(victim)
        before = w.store.snapshot()
        evil = dict(w.request.sources)
        evil[f"../../../partial/{victim.address}/sources/a.sol"] = "contract Evil {}"
        request = VerificationRequest(sources=evil, settings=w.request.settings,
                                      address=w.address)
        with pytest.raises(PathEscapeError):
            w.service.submit_verification(request)
        assert w.store.snapshot() == before

    def test_naive_traversal_overwrites_foreign_source(self, tmp_path):
        w = build(NAIVE_SOURCIFY_LIKE, tmp_path)
        victim = VerificationRecord(
            address="0x" + "11" * 20, grade=Grade.PARTIAL,
            sources={"a.sol": "contract Victim {}"},
            fully_qualified_target="a.sol:Victim", settings={},
            code_hash_at_verification=bytes(32))
        w.store.store_record(victim)
        evil_path = f"../../../partial/{victim.address}/sources/a.sol"
        evil = dict(w.request.sources)
        evil[evil_path] = "contract Evil {}"
        w.compiler.register(evil, w.settings, w.output)
        request = VerificationRequest(sources=evil, settings=w.settings,
                                      address=w.address)
        record = w.service.submit_verification(request)
        assert record.grade is Grade.EXACT
        assert w.store.load(victim.address).sources["a.sol"] == "contract Evil {}"
        assert w.store.verify_integrity(victim.address) == ["a.sol"]

    @pytest.mark.parametrize("config", [NAIVE_SOURCIFY_LIKE,
                                        NAIVE_BLOCKSCOUT_LIKE],
                             ids=lambda c: c.name)
    def test_overwritten_manifest_is_a_corrupt_record(self, config, tmp_path):
        w = build(config, tmp_path)
        victim = VerificationRecord(
            address="0x" + "11" * 20, grade=Grade.EXACT,
            sources={"a.sol": "contract Victim {}"},
            fully_qualified_target="a.sol:Victim", settings={},
            code_hash_at_verification=bytes(32))
        w.store.store_record(victim)
        evil = dict(w.request.sources)
        evil[f"../../../exact/{victim.address}/record"] = "contract Evil {}"
        w.compiler.register(evil, w.settings, w.output)
        w.service.submit_verification(VerificationRequest(
            sources=evil, settings=w.settings, address=w.address))
        with pytest.raises(CorruptRecordError):
            w.service.query(victim.address)
        with pytest.raises(CorruptRecordError):
            w.store.verify_integrity(victim.address)
        # the lookup never parses the clobbered manifest: it lacks the hash
        clone = w.chain.mock_deploy(RUNTIME, w.output.creation_code)
        inherited = w.service.inherit_identical_runtime(clone)
        assert f"inherited-from:0x{w.address.hex()}" in inherited.warnings

    def test_naive_path_into_another_manifest_refused_without_leftovers(
            self, tmp_path):
        w = build(NAIVE_SOURCIFY_LIKE, tmp_path)
        other = VerificationRecord(
            address="0x" + "11" * 20, grade=Grade.EXACT,
            sources={"a.sol": "contract Other {}"},
            fully_qualified_target="a.sol:Other", settings={},
            code_hash_at_verification=bytes(32))
        w.store.store_record(other)
        before = w.store.snapshot()
        sources = dict(w.request.sources)
        sources[f"../../{other.address}/record/x.sol"] = "contract Evil {}"
        w.compiler.register(sources, w.settings, w.output)
        request = VerificationRequest(sources=sources, settings=w.settings,
                                      address=w.address)
        with pytest.raises(DuplicateAfterNormalizationError):
            w.service.submit_verification(request)
        assert w.store.snapshot() == before
        assert not w.store.has(w.address)
        assert not (w.store.root / "exact" / ("0x" + w.address.hex())).exists()

    @pytest.mark.parametrize("config", [HARDENED, NAIVE_SOURCIFY_LIKE],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("bad_path", ["lib/nul\0.sol",
                                          "lib/" + "x" * 300 + ".sol"],
                             ids=["nul-byte", "name-too-long"])
    def test_unwritable_path_refused_without_leftovers(self, tmp_path, config,
                                                       bad_path):
        sources = {**SOURCES, bad_path: "library L {}\n"}
        w = build(config, tmp_path, sources=sources)
        before = w.store.snapshot()
        with pytest.raises(VerifierError):
            w.service.submit_verification(w.request)
        assert w.store.snapshot() == before
        assert not w.store.has(w.address)
        assert not (w.store.root / "exact" / ("0x" + w.address.hex())).exists()

    def test_empty_local_verifies_on_naive_but_not_hardened(self, tmp_path):
        abstract = CompilationOutput(creation_code=b"", runtime_template=b"")
        naive = build(NAIVE_SOURCIFY_LIKE, tmp_path, output=abstract,
                      deployed_runtime=RUNTIME,
                      deployed_creation=make_creation_code(RUNTIME),
                      subdir="naive")
        record = naive.service.submit_verification(naive.request)
        assert record.grade is Grade.EXACT  # matched with zero local bytes

        hard = build(HARDENED, tmp_path, output=abstract,
                     deployed_runtime=RUNTIME,
                     deployed_creation=make_creation_code(RUNTIME),
                     subdir="hard")
        with pytest.raises(NoMatchError) as excinfo:
            hard.service.submit_verification(hard.request)
        assert any(isinstance(c, EmptyLocalBytecodeError)
                   for c in excinfo.value.causes)

    def test_foreign_constructor_return_trusted_only_by_naive(self, tmp_path):
        victim_runtime = RUNTIME
        # constructor returns the victim's runtime although the claimed
        # template is unrelated junk
        junk_template = bytes.fromhex("deadbeef") + BLOCK_B
        attacker_output = CompilationOutput(
            creation_code=make_creation_code(victim_runtime, extra=BLOCK_B),
            runtime_template=junk_template)
        naive = build(NAIVE_SOURCIFY_LIKE, tmp_path, output=attacker_output,
                      deployed_runtime=victim_runtime,
                      deployed_creation=make_creation_code(victim_runtime),
                      subdir="naive")
        record = naive.service.submit_verification(naive.request)
        assert record.grade is Grade.EXACT

        hard = build(HARDENED, tmp_path, output=attacker_output,
                     deployed_runtime=victim_runtime,
                     deployed_creation=make_creation_code(victim_runtime),
                     subdir="hard")
        with pytest.raises(NoMatchError) as excinfo:
            hard.service.submit_verification(hard.request)
        assert any(isinstance(c, ForeignReturnDataError)
                   for c in excinfo.value.causes)

    def test_inline_assembly_flag_becomes_warning(self, tmp_path):
        output = CompilationOutput(creation_code=make_creation_code(RUNTIME),
                                   runtime_template=RUNTIME,
                                   uses_inline_assembly=True)
        w = build(HARDENED, tmp_path, output=output)
        record = w.service.submit_verification(w.request)
        assert "inline-assembly" in record.warnings

    def test_unverified_library_warning_on_hardened(self, tmp_path):
        lib_addr = bytes.fromhex("cd" * 20)
        template = b"\x60\x80" + bytes(20) + b"\x00" + BLOCK_A
        linked = b"\x60\x80" + lib_addr + b"\x00" + BLOCK_A
        output = CompilationOutput(
            creation_code=make_creation_code(template),
            runtime_template=template,
            link_refs=[PlaceholderSpan(2, "lib/m.sol", "Math",
                                       PlaceholderForm.LEGACY)])
        w = build(HARDENED, tmp_path, output=output, deployed_runtime=linked)
        record = w.service.submit_verification(w.request)
        assert record.grade is Grade.EXACT
        assert f"unverified-library:Math@0x{lib_addr.hex()}" in record.warnings

    def test_no_library_warning_when_library_verified(self, tmp_path):
        lib_addr = bytes.fromhex("cd" * 20)
        template = b"\x60\x80" + bytes(20) + b"\x00" + BLOCK_A
        linked = b"\x60\x80" + lib_addr + b"\x00" + BLOCK_A
        output = CompilationOutput(
            creation_code=make_creation_code(template),
            runtime_template=template,
            link_refs=[PlaceholderSpan(2, "lib/m.sol", "Math",
                                       PlaceholderForm.LEGACY)])
        w = build(HARDENED, tmp_path, output=output, deployed_runtime=linked)
        w.store.store_record(VerificationRecord(
            address=lib_addr, grade=Grade.EXACT,
            sources={"lib/m.sol": "library Math {}"},
            fully_qualified_target="lib/m.sol:Math", settings={},
            code_hash_at_verification=keccak256(b"lib runtime")))
        record = w.service.submit_verification(w.request)
        assert not any(x.startswith("unverified-library") for x in record.warnings)

    def test_backfill_audit_surfaces_as_warning(self, tmp_path):
        template = bytes.fromhex("600a600a") + bytes(32) + bytes.fromhex("5b600055")
        instr = bytes.fromhex(
            "610028" "6016" "600039" "601760140a600452" "610028" "6000" "f3")
        filled = bytearray(template)
        filled[4:36] = (20 ** 23).to_bytes(32, "big")
        output = CompilationOutput(
            creation_code=instr + template, runtime_template=template,
            immutable_refs=[ImmutableRef(4, 32, "rate")])
        w = build(NAIVE_ETHERSCAN_LIKE, tmp_path, output=output,
                  deployed_runtime=bytes(filled))
        record = w.service.submit_verification(w.request)
        assert record.grade is Grade.EXACT
        assert "unverified-immutable:rate" in record.warnings

    @pytest.mark.parametrize("ctor_params", [
        ["uint8"], ["(uint256,address)"], ["uint256[x]"], ["]"],
        ["uint256" + "[]" * 5000]])
    @pytest.mark.parametrize("config", PROFILES.values(), ids=list(PROFILES))
    def test_unsupported_constructor_type_is_a_verifier_error(
            self, config, ctor_params, tmp_path):
        w = build(config, tmp_path, ctor_params=ctor_params)
        with pytest.raises(VerifierError):
            w.service.submit_verification(w.request)
        assert not w.store.has(w.address)

    @pytest.mark.parametrize("regions", [
        [(0, 8), (4, 4)], [(len(RUNTIME) - 4, 8)], [(4, -2)]],
        ids=["overlapping", "past-end", "negative-length"])
    @pytest.mark.parametrize("config", PROFILES.values(), ids=list(PROFILES))
    def test_malformed_immutable_regions_are_refused(
            self, config, regions, tmp_path):
        """The output is refused when it is built, whichever legs the
        profile's requirement counts."""
        w = build(config, tmp_path)
        refs = [ImmutableRef(offset, length) for offset, length in regions]
        # builds the output on each compile, as ExternalCompiler does
        w.service.compiler = SimpleNamespace(
            compile=lambda sources, settings: dataclasses.replace(
                w.output, immutable_refs=refs))
        with pytest.raises(SpanOutOfRangeError):
            w.service.submit_verification(w.request)
        assert w.store.snapshot() == {}

    @pytest.mark.parametrize("config, refusal", [
        (HARDENED, NoMatchError),
        (NAIVE_ETHERSCAN_LIKE, NotAPrefixError),
        (NAIVE_SOURCIFY_LIKE, NoMatchError),
        (NAIVE_BLOCKSCOUT_LIKE, None),
    ], ids=lambda value: getattr(value, "name", ""))
    def test_code_in_place_of_metadata_is_refused(self, config, refusal,
                                                  tmp_path):
        """Both legs strip only a block both sides carry; the differential
        labeler, naive by design, supplies the compiled code's spans."""
        deployed = BODY + b"\x5b" + bytes(52)
        w = build(config, tmp_path, deployed_runtime=deployed,
                  deployed_creation=make_creation_code(deployed))
        if refusal is None:
            assert w.service.submit_verification(w.request).grade \
                is Grade.PARTIAL
            return
        with pytest.raises(refusal) as excinfo:
            w.service.submit_verification(w.request)
        # each failed leg names the block's offset in the code it compared
        error = excinfo.value
        legs = error.causes if isinstance(error, NoMatchError) else (error,)
        assert [(type(leg), leg.first_mismatch) for leg in legs] == [
            (NotAPrefixError, 12 + len(BODY)), (NoMatchError, len(BODY)),
        ][:len(legs)]
        assert w.store.snapshot() == {}


def without_timestamp(record: VerificationRecord) -> dict:
    fields = dataclasses.asdict(record)
    del fields["timestamp"]
    return fields


class TestCheck:
    """check decides what submit_verification would store, writing nothing."""

    @pytest.mark.parametrize("config", PROFILES.values(), ids=list(PROFILES))
    def test_check_writes_nothing_and_returns_what_submit_stores(
            self, config, tmp_path):
        w = build(config, tmp_path)
        other = w.chain.mock_deploy(RUNTIME, make_creation_code(RUNTIME))
        w.service.submit_verification(
            dataclasses.replace(w.request, address=other))
        before = w.store.snapshot()
        checked = w.service.check(w.request)
        assert w.store.snapshot() == before
        w.service.submit_verification(w.request)
        assert without_timestamp(w.store.load(w.address)) == \
            without_timestamp(checked)

    @pytest.mark.parametrize("refusal", ["no-match", "unsupported-type",
                                         "layout"])
    @pytest.mark.parametrize("config", PROFILES.values(), ids=list(PROFILES))
    def test_refused_check_writes_nothing(self, config, refusal, tmp_path):
        w = build(config, tmp_path)
        w.service.submit_verification(w.request)
        before = w.store.snapshot()
        request = w.request
        if refusal == "no-match":
            other = BODY[::-1] + BLOCK_B
            address = w.chain.mock_deploy(other, make_creation_code(other))
            request = dataclasses.replace(w.request, address=address)
        elif refusal == "layout":
            # one path spelled twice, which the store cannot hold
            sources = {**w.sources, "./" + w.settings.target_path: "x"}
            w.compiler.register(sources, w.settings, w.output)
            request = dataclasses.replace(w.request, sources=sources)
        else:
            w.compiler.register(w.sources, w.settings, dataclasses.replace(
                w.output, ctor_params=["uint8"]))
        with pytest.raises(VerifierError):
            w.service.check(request)
        assert w.store.snapshot() == before


class CountingCompiler(FixtureCompiler):
    def __init__(self):
        super().__init__()
        self.compiles = 0

    def compile(self, sources, settings):
        self.compiles += 1
        return super().compile(sources, settings)


class TestDifferentialLabeling:
    @pytest.mark.parametrize("config", [
        NAIVE_BLOCKSCOUT_LIKE,
        dataclasses.replace(NAIVE_BLOCKSCOUT_LIKE,
                            requirement=Requirement.EITHER)],
        ids=["creation-only", "either"])
    def test_one_perturbed_compile_per_submit(self, config, tmp_path):
        w = build(config, tmp_path)
        compiler = CountingCompiler()
        compiler.register(w.sources, w.settings, w.output)
        w.service.compiler = compiler
        record = w.service.submit_verification(w.request)
        assert record.grade is Grade.EXACT
        assert compiler.compiles == 2  # the sources, then the perturbed ones


class TestMalformedAddress:
    """A malformed address is refused with a VerifierError at every entry."""

    def test_query(self, tmp_path):
        w = build(HARDENED, tmp_path)
        with pytest.raises(VerifierError):
            w.service.query("0x12")

    def test_inherit(self, tmp_path):
        w = build(HARDENED, tmp_path)
        with pytest.raises(VerifierError):
            w.service.inherit_identical_runtime("zz")

    def test_submit(self, tmp_path):
        w = build(HARDENED, tmp_path)
        request = dataclasses.replace(w.request, address=w.address[:19])
        with pytest.raises(VerifierError):
            w.service.submit_verification(request)
        assert w.store.list_addresses() == []


class TestQuery:
    def test_hardened_full_disclosure(self, tmp_path):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        view = w.service.query(w.address)
        assert view.displayed_target == TARGET
        assert view.source_files == w.request.sources
        assert view.freshness is RedeployStatus.UNCHANGED
        assert view.grade is Grade.EXACT

    def test_naive_view_shows_bare_name_only(self, tmp_path):
        w = build(NAIVE_ETHERSCAN_LIKE, tmp_path)
        w.service.submit_verification(w.request)
        view = w.service.query(w.address)
        assert view.displayed_target == "A"
        assert set(view.source_files) == {"a.sol"}
        assert view.freshness is None

    def test_hardened_query_raises_after_destruction(self, tmp_path):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        w.chain.mock_selfdestruct(w.address)
        with pytest.raises(StaleRecordError):
            w.service.query(w.address)

    def test_lenient_query_stamps_stale_view(self, tmp_path):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        w.chain.mock_selfdestruct(w.address)
        view = w.service.query(w.address, strict=False)
        assert view.freshness is RedeployStatus.DESTROYED

    def test_hardened_query_raises_after_code_swap(self, tmp_path):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        assert w.service.query(w.address).freshness is RedeployStatus.UNCHANGED
        w.chain.mock_selfdestruct(w.address)
        swapped = BODY + BLOCK_B
        w.chain.mock_deploy(swapped, make_creation_code(swapped),
                            address=w.address)
        with pytest.raises(StaleRecordError):
            w.service.query(w.address)
        assert w.service.query(w.address, strict=False).freshness is \
            RedeployStatus.CHANGED

    def test_naive_serves_stale_record(self, tmp_path):
        w = build(NAIVE_ETHERSCAN_LIKE, tmp_path)
        w.service.submit_verification(w.request)
        w.chain.mock_selfdestruct(w.address)
        view = w.service.query(w.address)
        assert view.source_files  # old sources, served without any staleness hint
        assert view.freshness is None

    def test_unknown_address(self, tmp_path):
        w = build(HARDENED, tmp_path)
        with pytest.raises(NotVerifiedError):
            w.service.query(b"\x99" * 20)

    @pytest.mark.parametrize("damage", ["missing", "directory", "not-utf8"])
    def test_damaged_body_is_a_corrupt_record(self, tmp_path, damage):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        body = (w.store.root / "exact" / f"0x{w.address.hex()}" / "sources"
                / "contracts" / "a.sol")
        body.unlink()
        if damage == "directory":
            body.mkdir()
        elif damage == "not-utf8":
            body.write_bytes(b"\xff contract A {}")
        for read in (w.store.load, w.service.query):
            with pytest.raises(CorruptRecordError, match="contracts/a.sol"):
                read(w.address)
        clone = w.chain.mock_deploy(RUNTIME, w.output.creation_code)
        with pytest.raises(CorruptRecordError):
            w.service.inherit_identical_runtime(clone)
        assert w.store.verify_integrity(w.address) == ["contracts/a.sol"]

    @pytest.mark.parametrize("key", ["absolute", "climbing"])
    def test_manifest_key_outside_the_store_is_a_corrupt_record(
            self, tmp_path, key):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        host = tmp_path / "host.sol"
        host.write_text("contract Host {}\n")
        # from records/exact/<address>/sources, four steps up is tmp_path
        path = str(host) if key == "absolute" else "../../../../host.sol"
        damage_manifest(w, lambda manifest: manifest.update(sourceDigests={
            path: hashlib.sha256(host.read_bytes()).hexdigest()}))
        for read in (w.store.load, w.store.verify_integrity, w.service.query):
            with pytest.raises(CorruptRecordError, match="outside the store"):
                read(w.address)
        clone = w.chain.mock_deploy(RUNTIME, w.output.creation_code)
        with pytest.raises(CorruptRecordError, match="outside the store"):
            w.service.inherit_identical_runtime(clone)

    def test_non_ascii_source_round_trips_under_an_ascii_locale(self):
        tests = Path(__file__).parent
        env = dict(os.environ, PYTHONUTF8="0", LC_ALL="C",
                   PYTHONPATH=os.pathsep.join([str(tests.parent / "src"),
                                               str(tests)]))
        proc = subprocess.run([sys.executable, "-c", LOCALE_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        encoding, _, rest = proc.stdout.partition("\n")
        if encoding.lower().replace("-", "") == "utf8":
            pytest.skip("the C locale is UTF-8 on this platform")
        assert proc.returncode == 0, proc.stderr
        assert rest == "ok\n"


NON_ASCII = {"contracts/a.sol": "// h\u00e9llo \u2713\ncontract A {}\n"}

# run under an ASCII locale: everything the store writes and reads is UTF-8
LOCALE_PROBE = """
import locale, tempfile
from pathlib import Path
from srcverify.service import HARDENED
from test_service import NON_ASCII, build

print(locale.getpreferredencoding(False))
with tempfile.TemporaryDirectory() as tmp:
    w = build(HARDENED, Path(tmp), sources=NON_ASCII)
    w.service.submit_verification(w.request)
    assert w.store.load(w.address).sources == NON_ASCII
    assert w.store.verify_integrity(w.address) == []
    assert w.service.query(w.address).source_files == NON_ASCII
print("ok")
"""

CAP_RUNTIME = BODY + bytes(24576 - len(BODY) - len(BLOCK_A)) + BLOCK_A
FACTORY, SALT, INIT = b"\x11" * 20, b"\x22" * 32, bytes.fromhex("600080f3")


def damage_manifest(w, damage) -> None:
    """Apply damage to the parsed manifest of w's stored exact record."""
    path = w.store.root / "exact" / f"0x{w.address.hex()}" / "record"
    manifest = json.loads(path.read_text())
    damage(manifest)
    path.write_text(json.dumps(manifest))


MANIFEST_FIELDS = ["address", "grade", "target", "settings", "codeHash",
                   "creationTxHash", "warnings", "timestamp", "sourceDigests"]
# the digest of the record's one source
SOURCE_DIGEST = "sourceDigests/contracts/a.sol"

json_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.text(max_size=4), st.just("0x" + "ab" * 32),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


class TestManifestDamage:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(MANIFEST_FIELDS + [SOURCE_DIGEST]), json_values)
    def test_every_read_returns_or_refuses(self, field, value):
        """One manifest field, or the source's digest, set to a drawn JSON
        value: every read either returns or raises a VerifierError."""
        with tempfile.TemporaryDirectory() as tmp:
            w = build(HARDENED, Path(tmp))
            w.service.submit_verification(w.request)

            def damage(manifest):
                if field == SOURCE_DIGEST:
                    manifest["sourceDigests"]["contracts/a.sol"] = value
                else:
                    manifest[field] = value

            damage_manifest(w, damage)
            clone = w.chain.mock_deploy(RUNTIME, w.output.creation_code)
            for read in (lambda: w.store.load(w.address),
                         lambda: w.store.verify_integrity(w.address),
                         lambda: w.store.find_by_code_hash(keccak256(RUNTIME),
                                                           lambda d: False),
                         lambda: w.service.query(w.address),
                         lambda: w.service.inherit_identical_runtime(clone)):
                try:
                    read()
                except VerifierError:
                    pass


class TestCodeHashedOnce:
    """A submit's matched read seeds the chain's memo, so the freshness
    check of the next query hashes nothing, and never serves a stale hash."""

    def test_submit_then_query_hashes_the_runtime_once(self, tmp_path, hashed):
        w = build(HARDENED, tmp_path, runtime=CAP_RUNTIME)
        record = w.service.submit_verification(w.request)
        assert w.service.query(w.address).freshness is RedeployStatus.UNCHANGED
        assert hashed.count(CAP_RUNTIME) == 1
        assert record.code_hash_at_verification == keccak256(CAP_RUNTIME)

    def test_refused_submit_hashes_nothing(self, tmp_path, hashed):
        deployed = bytearray(CAP_RUNTIME)
        deployed[100] ^= 0xFF
        deployed = bytes(deployed)
        w = build(HARDENED, tmp_path, runtime=CAP_RUNTIME,
                  deployed_runtime=deployed,
                  deployed_creation=make_creation_code(deployed))
        with pytest.raises(NoMatchError):
            w.service.submit_verification(w.request)
        assert deployed not in hashed

    def _seeded(self, tmp_path):
        """A hardened record of a CREATE2-deployed contract, whose submit
        left the hash in the chain's memo."""
        w = build(HARDENED, tmp_path)
        address = w.chain.mock_create2_deploy(
            FACTORY, SALT, INIT, RUNTIME, creation_input=w.output.creation_code)
        w.service.submit_verification(
            dataclasses.replace(w.request, address=address))
        return w, address

    def test_create2_revival_after_seeded_submit_is_stale(self, tmp_path):
        w, address = self._seeded(tmp_path)
        w.chain.mock_selfdestruct(address)
        w.chain.mock_create2_deploy(FACTORY, SALT, INIT, BODY + BLOCK_B)
        with pytest.raises(StaleRecordError):
            w.service.query(address)
        assert w.service.query(address, strict=False).freshness is \
            RedeployStatus.CHANGED

    def test_destroy_after_seeded_submit_is_destroyed(self, tmp_path):
        w, address = self._seeded(tmp_path)
        w.chain.mock_selfdestruct(address)
        with pytest.raises(StaleRecordError):
            w.service.query(address)
        assert w.service.query(address, strict=False).freshness is \
            RedeployStatus.DESTROYED

    def test_code_swap_after_submit_is_changed(self, tmp_path):
        chain = CodeSwapChain(swapped=BODY + BLOCK_B)
        w = build(HARDENED, tmp_path, chain=chain)
        record = w.service.submit_verification(w.request)
        assert chain.runtime_reads == 1
        assert record.code_hash_at_verification == keccak256(RUNTIME)
        assert w.service.query(w.address, strict=False).freshness is \
            RedeployStatus.CHANGED

    def test_creation_only_record_of_destroyed_code_hashes_no_bytes(self, tmp_path):
        w = build(NAIVE_BLOCKSCOUT_LIKE, tmp_path)
        w.chain.mock_selfdestruct(w.address)
        record = w.service.submit_verification(w.request)
        assert record.code_hash_at_verification == keccak256(b"")


class TestInheritance:
    def _verify_and_clone(self, config, tmp_path, donor_output=None):
        w = build(config, tmp_path, output=donor_output)
        w.service.submit_verification(w.request)
        twin = w.chain.mock_deploy(RUNTIME, w.output.creation_code)
        return w, twin

    def test_identical_runtime_inherits(self, tmp_path):
        w, twin = self._verify_and_clone(HARDENED, tmp_path)
        record = w.service.inherit_identical_runtime(twin)
        assert record.address == "0x" + twin.hex()
        assert record.grade is Grade.EXACT
        assert f"inherited-from:0x{w.address.hex()}" in record.warnings
        assert w.store.has(twin)

    def test_hardened_refuses_flagged_donor(self, tmp_path):
        flagged = CompilationOutput(creation_code=make_creation_code(RUNTIME),
                                    runtime_template=RUNTIME,
                                    uses_inline_assembly=True)
        w, twin = self._verify_and_clone(HARDENED, tmp_path,
                                         donor_output=flagged)
        with pytest.raises(NoDonorError):
            w.service.inherit_identical_runtime(twin)

    def test_naive_inherits_flagged_donor(self, tmp_path):
        flagged = CompilationOutput(creation_code=make_creation_code(RUNTIME),
                                    runtime_template=RUNTIME,
                                    uses_inline_assembly=True)
        w, twin = self._verify_and_clone(NAIVE_ETHERSCAN_LIKE, tmp_path,
                                         donor_output=flagged)
        record = w.service.inherit_identical_runtime(twin)
        assert "inline-assembly" in record.warnings
        assert any(x.startswith("inherited-from:") for x in record.warnings)

    @staticmethod
    def _stored(w, address: str, **kwargs) -> None:
        """Store an exact record of RUNTIME at address, past the matcher."""
        w.store.store_record(VerificationRecord(
            address, Grade.EXACT, dict(SOURCES), TARGET, {},
            keccak256(RUNTIME), **kwargs))

    @staticmethod
    def _twin(w, byte: int) -> bytes:
        return w.chain.mock_deploy(RUNTIME, w.output.creation_code,
                                   address=bytes([byte]) * 20)

    @pytest.mark.parametrize("damage", ["corrupt-manifest", "missing-body"])
    @pytest.mark.parametrize("damaged_first", [False, True])
    def test_damaged_hit_stops_inheritance_only_before_the_donor(
            self, tmp_path, damage, damaged_first):
        """The lookup stops at the donor, so a damaged hit sorting after it
        is never read; one sorting before it still refuses."""
        w = build(HARDENED, tmp_path)
        low, high = "0x" + "11" * 20, "0x" + "99" * 20
        self._stored(w, low)
        self._stored(w, high)
        damaged = low if damaged_first else high
        directory = w.store.root / "exact" / damaged
        if damage == "corrupt-manifest":
            (directory / "record").write_text(
                f'{{"codeHash": "0x{keccak256(RUNTIME).hex()}",')
        else:
            (directory / "sources" / "contracts" / "a.sol").unlink()
        twin = self._twin(w, 0x55)
        if damaged_first:
            with pytest.raises(CorruptRecordError):
                w.service.inherit_identical_runtime(twin)
        else:
            record = w.service.inherit_identical_runtime(twin)
            assert record.warnings == [f"inherited-from:{low}"]

    def test_smallest_usable_address_wins(self, tmp_path):
        """A flagged record is passed over on hardened, and an inherited
        record donates like any other."""
        w = build(HARDENED, tmp_path)
        flagged, high = "0x" + "01" * 20, "0x" + "99" * 20
        self._stored(w, flagged, warnings=[INLINE_ASSEMBLY_WARNING])
        self._stored(w, high)
        first = w.service.inherit_identical_runtime(self._twin(w, 0x22))
        assert first.warnings == [f"inherited-from:{high}"]
        second = w.service.inherit_identical_runtime(self._twin(w, 0x44))
        assert second.warnings == [f"inherited-from:{high}",
                                   f"inherited-from:{first.address}"]

    def test_no_donor_for_different_runtime(self, tmp_path):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        other = w.chain.mock_deploy(BODY + BLOCK_B, b"\x00")
        with pytest.raises(NoDonorError):
            w.service.inherit_identical_runtime(other)

    def test_no_donor_without_code(self, tmp_path):
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        with pytest.raises(NoDonorError):
            w.service.inherit_identical_runtime(b"\x77" * 20)


class TestUnreadableManifest:
    def test_symlink_loop_is_a_corrupt_record(self, tmp_path):
        """A manifest that is there but does not read refuses every read
        that reaches it with a VerifierError naming its path."""
        w = build(HARDENED, tmp_path)
        w.service.submit_verification(w.request)
        looped = "0x" + "ab" * 20
        manifest = w.store.root / "exact" / looped / "record"
        manifest.parent.mkdir()
        manifest.symlink_to(manifest)
        unrelated = w.chain.mock_deploy(BODY + BLOCK_B, b"\x00")
        for read in (lambda: w.service.query(looped),
                     lambda: w.store.load(looped),
                     lambda: w.store.has(looped),
                     lambda: w.store.verify_integrity(looped),
                     w.store.list_addresses,
                     lambda: list(w.store.records()),
                     lambda: w.store.find_by_code_hash(keccak256(RUNTIME),
                                                       lambda d: False),
                     lambda: w.service.inherit_identical_runtime(unrelated)):
            with pytest.raises(CorruptRecordError,
                               match=re.escape(f"exact/{looped}/record")):
                read()
        assert w.service.query(w.address).grade is Grade.EXACT


class TestImport:
    def _sourcify_store_with_record(self, tmp_path):
        w = build(NAIVE_SOURCIFY_LIKE, tmp_path, subdir="sourcify")
        record = w.service.submit_verification(w.request)
        return w, record

    def test_hardened_refuses_imports(self, tmp_path):
        w, _ = self._sourcify_store_with_record(tmp_path)
        hard = VerifyService(HARDENED, w.compiler, w.chain,
                             RecordStore(tmp_path / "hard"))
        with pytest.raises(ImportRefusedError):
            hard.import_store(w.store)

    def test_blockscout_adopts_foreign_records(self, tmp_path):
        w, record = self._sourcify_store_with_record(tmp_path)
        scout = VerifyService(NAIVE_BLOCKSCOUT_LIKE, w.compiler, w.chain,
                              RecordStore(tmp_path / "scout"))
        adopted = scout.import_store(w.store)
        assert [r.address for r in adopted] == [record.address]
        assert "imported" in scout.store.load(record.address).warnings

    def test_second_import_is_idempotent(self, tmp_path):
        w, record = self._sourcify_store_with_record(tmp_path)
        scout = VerifyService(NAIVE_BLOCKSCOUT_LIKE, w.compiler, w.chain,
                              RecordStore(tmp_path / "scout"))
        scout.import_store(w.store)
        assert scout.import_store(w.store) == []
