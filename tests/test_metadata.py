"""Metadata labeling: strict pattern scan vs differential extraction."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srcverify._keccak import keccak256
from srcverify.compiler import (
    CompilationOutput,
    CompileSettings,
    FixtureCompiler,
    VerificationRequest,
    make_creation_code,
)
from srcverify.errors import (
    CompilerFailureError,
    NonConvergentError,
    OverlappingSpansError,
    SpanOutOfRangeError,
)
from srcverify.metadata import (
    INJECTED_FILENAME,
    LEGACY_BLOCK_LENGTH,
    MetadataKind,
    MetadataSpan,
    PATTERN_LENGTH,
    differential_extract,
    make_metadata_block,
    matches_pattern_at,
    scan_metadata,
    strip_spans,
)
from corpus import make_legacy_metadata_block
from oracles import metadata_scan_oracle

BODY = bytes.fromhex("6080604052600a600055")
BLOCK = make_metadata_block(keccak256(b"fixture-source"))
HEAD = BLOCK[:8]

_DIGESTS = st.binary(min_size=32, max_size=32)
# code built from the shapes the scanner must tell apart: plain bytes, full
# blocks, truncated blocks, bare heads and blocks with a wrong length suffix
SCAN_PIECES = st.one_of(
    st.binary(max_size=60),
    _DIGESTS.map(make_metadata_block),
    st.tuples(_DIGESTS, st.integers(1, PATTERN_LENGTH - 1)).map(
        lambda t: make_metadata_block(t[0])[:t[1]]),
    st.just(HEAD),
    st.tuples(_DIGESTS, st.binary(min_size=2, max_size=2)).map(
        lambda t: make_metadata_block(t[0])[:-2] + t[1]),
)


def span(start, end, kind=MetadataKind.TRAILING):
    return MetadataSpan(start, end, kind)


class TestBlockLayout:
    def test_length_and_suffix(self):
        assert len(BLOCK) == PATTERN_LENGTH == 53
        # suffix counts every byte before itself
        assert int.from_bytes(BLOCK[-2:], "big") == 51
        assert BLOCK[-2:] == bytes.fromhex("0033")

    def test_fixed_bytes(self):
        assert BLOCK[0] == 0xA2
        assert BLOCK[1:8] == bytes.fromhex("64697066735822")
        assert BLOCK[42:48] == bytes.fromhex("64736f6c6343")
        assert BLOCK[48:51] == bytes.fromhex("000804")

    def test_full_34_byte_payload_accepted(self):
        block = make_metadata_block(b"\x12\x20" + bytes(32))
        assert block[8:42] == b"\x12\x20" + bytes(32)

    def test_bad_payload_length(self):
        with pytest.raises(ValueError):
            make_metadata_block(bytes(33))

    def test_legacy_block(self):
        block = make_legacy_metadata_block(bytes(32))
        assert len(block) == LEGACY_BLOCK_LENGTH == 43
        assert block.startswith(bytes.fromhex("a165627a7a72305820"))
        assert block.endswith(bytes.fromhex("0029"))


class TestScan:
    def test_trailing_span(self):
        code = BODY + BLOCK
        spans = scan_metadata(code)
        assert [(s.start, s.end, s.kind) for s in spans] == [
            (len(BODY), len(code), MetadataKind.TRAILING)]

    def test_no_marker_byte(self):
        assert scan_metadata(bytes.fromhex("60806040")) == []

    def test_factory_embeds_child_block(self):
        # child runtime (with its block) concatenated inside parent, plus trailing
        child = bytes.fromhex("6001") + make_metadata_block(keccak256(b"child"))
        code = BODY + child + bytes.fromhex("6002") + BLOCK
        spans = scan_metadata(code)
        assert len(spans) == 2
        assert spans[0].kind is MetadataKind.EMBEDDED
        assert spans[0].start == len(BODY) + 2
        assert spans[1].kind is MetadataKind.TRAILING
        assert spans[1].end == len(code)

    def test_wrong_suffix_not_matched(self):
        bad = BLOCK[:-2] + bytes.fromhex("0034")
        assert scan_metadata(BODY + bad) == []

    def test_stray_a2_not_matched(self):
        assert scan_metadata(b"\xa2" + bytes(60)) == []

    def test_truncated_block_at_end_not_matched(self):
        assert scan_metadata(BODY + BLOCK[:-1]) == []

    def test_back_to_back_blocks(self):
        other = make_metadata_block(keccak256(b"second"))
        spans = scan_metadata(BODY + BLOCK + other)
        assert [(s.start, s.end, s.kind) for s in spans] == [
            (10, 63, MetadataKind.EMBEDDED), (63, 116, MetadataKind.TRAILING)]

    def test_overlapping_blocks_keep_the_first(self):
        # a head inside the first block's hash starts a second valid block
        # 11 bytes later; greedy scanning keeps only the first
        first = make_metadata_block(b"\x00" + HEAD + bytes(23))
        code = first + first[42:48] + b"\x00\x08\x04" + b"\x00\x33"
        assert matches_pattern_at(code, 11)
        assert [(s.start, s.end) for s in scan_metadata(code)] == [(0, 53)]

    def test_head_near_the_end_not_matched(self):
        spans = scan_metadata(BODY + BLOCK + HEAD + BLOCK[8:-3])
        assert [(s.start, s.end, s.kind) for s in spans] == [
            (10, 63, MetadataKind.EMBEDDED)]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(SCAN_PIECES, max_size=8))
    def test_scan_equals_per_offset_reference(self, pieces):
        code = b"".join(pieces)
        spans = scan_metadata(code)
        assert [(s.start, s.end) for s in spans] == metadata_scan_oracle(code)
        for s in spans:
            assert (s.kind is MetadataKind.TRAILING) == (s.end == len(code))

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=80), st.binary(min_size=32, max_size=32))
    def test_planted_block_always_found(self, body, digest):
        block = make_metadata_block(digest)
        spans = scan_metadata(body + block)
        assert (len(body), len(body) + PATTERN_LENGTH) in \
            [(s.start, s.end) for s in spans]


class TestStrip:
    def test_identity_on_empty(self):
        assert strip_spans(BODY, []) == BODY

    def test_removes_trailing(self):
        code = BODY + BLOCK
        assert strip_spans(code, scan_metadata(code)) == BODY

    def test_removes_middle(self):
        code = b"AA" + BLOCK + b"BB"
        assert strip_spans(code, [span(2, 2 + 53, MetadataKind.EMBEDDED)]) == b"AABB"

    def test_out_of_range(self):
        with pytest.raises(SpanOutOfRangeError):
            strip_spans(BODY, [span(0, len(BODY) + 1)])

    def test_overlap(self):
        with pytest.raises(OverlappingSpansError):
            strip_spans(bytes(100), [span(0, 10), span(5, 20)])

    @settings(max_examples=80, deadline=None)
    @given(st.binary(max_size=120), st.integers(min_value=0, max_value=3))
    def test_strip_then_rescan_is_empty(self, body, blocks):
        # P2 guard: stripping strict spans then rescanning finds nothing new,
        # so a second strip is the identity
        code = body
        for i in range(blocks):
            code += make_metadata_block(keccak256(bytes([i])))
        spans = scan_metadata(code)
        stripped = strip_spans(code, spans)
        assert len(stripped) == len(code) - sum(s.length for s in spans)
        assert scan_metadata(stripped) == []
        assert strip_spans(stripped, scan_metadata(stripped)) == stripped


def fixture_sources(name="Box"):
    return {"box.sol": f"contract {name} {{ uint256 v; }}"}


def register_simple(compiler, sources, settings, runtime):
    creation = make_creation_code(runtime)
    output = CompilationOutput(creation_code=creation, runtime_template=runtime)
    compiler.register(sources, settings, output)
    return output


class TestDifferential:
    def setup_method(self):
        self.settings = CompileSettings(target="box.sol:Box")
        self.sources = fixture_sources()
        self.compiler = FixtureCompiler()
        self.runtime = BODY + BLOCK
        self.output = register_simple(
            self.compiler, self.sources, self.settings, self.runtime)

    def extract(self, sources=None, baseline=None, artifact="runtime"):
        return differential_extract(
            self.compiler, sources or self.sources, self.settings,
            baseline or self.output, (artifact,))[artifact]

    def test_benign_spans_match_pattern_scan(self):
        spans = self.extract()
        assert [(s.start, s.end) for s in spans] == \
            [(s.start, s.end) for s in scan_metadata(self.runtime)]
        # the labelers' spans are indistinguishable once found
        assert spans == scan_metadata(self.runtime)

    def test_identical_outputs_give_empty_trace(self):
        # register the perturbed input explicitly with the *same* output
        perturbed = dict(self.sources)
        perturbed[INJECTED_FILENAME] = "library L_Box {}\n"
        out = CompilationOutput(
            creation_code=make_creation_code(self.runtime),
            runtime_template=self.runtime)
        self.compiler.register(perturbed, self.settings, out)
        assert self.extract() == []

    def test_mislabel_when_source_references_injected_library(self):
        # attacker's runtime carries a stray 0xa2 then an 0xFF in real code;
        # the perturbed build differs right after them (library-dependent
        # region), so naive expansion drags both into the reported span
        stray = bytes.fromhex("a2ff")
        lib_region = bytes.fromhex("11111111")
        runtime = BODY + stray + lib_region + bytes(49) + BLOCK
        sources = {"box.sol": "contract Box { /* uses L_Box */ }"}
        baseline = register_simple(self.compiler, sources, self.settings, runtime)

        # the perturbed build differs in the library region AND the hash
        perturbed_runtime = bytearray(runtime)
        off = len(BODY) + len(stray)
        perturbed_runtime[off:off + 4] = bytes.fromhex("22222222")
        perturbed_runtime[-PATTERN_LENGTH:] = make_metadata_block(
            keccak256(b"poc1-perturbed"))
        perturbed_sources = dict(sources)
        perturbed_sources[INJECTED_FILENAME] = "library L_Box {}\n"
        self.compiler.register(
            perturbed_sources, self.settings,
            CompilationOutput(
                creation_code=make_creation_code(bytes(perturbed_runtime)),
                runtime_template=bytes(perturbed_runtime)))

        spans = self.extract(sources, baseline)
        strict = {(s.start, s.end) for s in scan_metadata(runtime)}
        naive = {(s.start, s.end) for s in spans}
        assert not naive <= strict, "naive labeler must diverge on this fixture"
        # the real trailing block is still labeled, plus a bogus span
        # covering the planted 0xFF code byte
        assert strict <= naive
        ff_offset = len(BODY) + 1
        assert any(s.start <= ff_offset < s.end for s in spans)
        assert runtime[ff_offset] == 0xFF

    def test_overlapping_windows_merge_into_one_span(self):
        # two differences, each expanded from its own 0xa2, give windows
        # [10, 63) and [30, 83): one embedded span covers both
        runtime = bytearray(b"\x60" * 120)
        runtime[10] = runtime[30] = 0xA2
        baseline = register_simple(
            self.compiler, self.sources, self.settings, bytes(runtime))
        perturbed = dict(self.sources)
        perturbed[INJECTED_FILENAME] = "library L_Box {}\n"
        changed = bytearray(runtime)
        changed[12] = changed[70] = 0x61
        register_simple(self.compiler, perturbed, self.settings, bytes(changed))
        spans = self.extract(baseline=baseline)
        assert [(s.start, s.end, s.kind) for s in spans] == [
            (10, 83, MetadataKind.EMBEDDED)]

    def test_diff_without_block_start_is_nonconvergent(self):
        # difference in a region with no 0xa2 anywhere nearby
        runtime = bytes.fromhex("60") * 200
        baseline = register_simple(
            self.compiler, self.sources, self.settings, runtime)
        perturbed = dict(self.sources)
        perturbed[INJECTED_FILENAME] = "library L_Box {}\n"
        changed = bytearray(runtime)
        changed[100] = 0x61
        register_simple(self.compiler, perturbed, self.settings, bytes(changed))
        with pytest.raises(NonConvergentError):
            self.extract(baseline=baseline)

    def test_length_change_is_nonconvergent(self):
        perturbed = dict(self.sources)
        perturbed[INJECTED_FILENAME] = "library L_Box {}\n"
        register_simple(self.compiler, perturbed, self.settings, self.runtime + b"\x00")
        with pytest.raises(NonConvergentError):
            self.extract()

    def test_creation_artifact_also_labeled(self):
        spans = self.extract(artifact="creation")
        # creation embeds the runtime at offset 12, so its copy of the block moves
        assert spans
        assert spans[0].start == 12 + len(BODY)

    def test_both_artifacts_from_one_perturbed_compile(self, monkeypatch):
        compiled = []
        real = self.compiler.compile
        monkeypatch.setattr(self.compiler, "compile",
                            lambda *a: compiled.append(a) or real(*a))
        both = differential_extract(self.compiler, self.sources, self.settings,
                                    self.output, ("creation", "runtime"))
        assert len(compiled) == 1 and INJECTED_FILENAME in compiled[0][0]
        assert both == {"creation": self.extract(artifact="creation"),
                        "runtime": self.extract()}


class TestFixtureCompiler:
    def test_unregistered_fails(self):
        compiler = FixtureCompiler()
        with pytest.raises(CompilerFailureError):
            compiler.compile(fixture_sources(), CompileSettings())

    def test_registered_roundtrip(self):
        compiler = FixtureCompiler()
        settings = CompileSettings(target="box.sol:Box")
        out = register_simple(compiler, fixture_sources(), settings, BODY + BLOCK)
        got = compiler.compile(fixture_sources(), settings)
        assert got.runtime_template == out.runtime_template
        assert got.creation_code == out.creation_code

    def test_auto_perturb_changes_only_hash_regions(self):
        compiler = FixtureCompiler()
        settings = CompileSettings(target="box.sol:Box")
        runtime = BODY + BLOCK
        register_simple(compiler, fixture_sources(), settings, runtime)
        perturbed = dict(fixture_sources())
        perturbed[INJECTED_FILENAME] = "library L_Box {}\n"
        got = compiler.compile(perturbed, settings)
        assert got.runtime_template != runtime
        assert len(got.runtime_template) == len(runtime)
        start = len(BODY)
        assert got.runtime_template[:start + 8] == runtime[:start + 8]
        assert got.runtime_template[start + 42:] == runtime[start + 42:]
        assert got.runtime_template[start + 8:start + 42] != runtime[start + 8:start + 42]

    def test_auto_perturb_writes_sha2_multihash_without_keccak(self, hashed):
        compiler = FixtureCompiler()
        settings = CompileSettings(target="box.sol:Box")
        runtime = BODY + BLOCK
        register_simple(compiler, fixture_sources(), settings, runtime)
        perturbed = dict(fixture_sources())
        perturbed[INJECTED_FILENAME] = "x"
        hashed.clear()
        got = compiler.compile(perturbed, settings)
        region = slice(len(BODY) + 8, len(BODY) + 42)
        expected = b"\x12\x20" + hashlib.sha256(runtime[region] + b"\x01").digest()
        assert got.runtime_template[region] == expected
        # the creation code carries the runtime, and so its block, from offset 12
        assert got.creation_code[12:][region] == expected
        assert hashed == []

    def test_auto_perturb_is_deterministic(self):
        compiler = FixtureCompiler()
        settings = CompileSettings(target="box.sol:Box")
        register_simple(compiler, fixture_sources(), settings, BODY + BLOCK)
        perturbed = dict(fixture_sources())
        perturbed[INJECTED_FILENAME] = "x"
        a = compiler.compile(perturbed, settings)
        b = compiler.compile(perturbed, settings)
        assert a.runtime_template == b.runtime_template


class TestRequestValidation:
    def test_target_must_be_in_sources(self):
        from srcverify.errors import MalformedRequestError
        with pytest.raises(MalformedRequestError):
            VerificationRequest(
                sources={"a.sol": "contract A {}"},
                settings=CompileSettings(target="missing.sol:A"))

    def test_empty_sources_rejected(self):
        from srcverify.errors import MalformedRequestError
        with pytest.raises(MalformedRequestError):
            VerificationRequest(sources={}, settings=CompileSettings())

    def test_json_roundtrip(self):
        request = VerificationRequest(
            sources={"a.sol": "contract A {}"},
            settings=CompileSettings(target="a.sol:A", optimizer_runs=200),
            address=bytes.fromhex("ab" * 20),
            declared_libraries={"Lib": "0x" + "cd" * 20},
        )
        again = VerificationRequest.from_json(request.to_json())
        assert again.sources == request.sources
        assert again.settings == request.settings
        assert again.address == request.address
        assert again.declared_libraries == request.declared_libraries

    def test_bad_json(self):
        from srcverify.errors import MalformedRequestError
        with pytest.raises(MalformedRequestError):
            VerificationRequest.from_json("{nope")
