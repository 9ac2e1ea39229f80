"""Placeholder rendering and the two link-resolution modes."""

import pytest
from hypothesis import given, settings, strategies as st

from srcverify.compiler import CompilationOutput
from srcverify.errors import LengthMismatchError, MalformedLinkReferenceError
from srcverify.linker import (
    PlaceholderForm,
    PlaceholderMode,
    PlaceholderSpan,
    render_placeholder_text,
    resolve,
    splice_unlinked_text,
)

# Regex-hostile placeholder: "2{40}" also matches a 20-byte 0x22.. constant
# once the code is rendered as hex text.
TRICKY_PATH = "$.{37}|2{40}|"
TRICKY_LIB = "foo"


def make_poc_pair():
    """Local/on-chain runtime pair for the regex-spillover exploit.

    Local holds a zero-filled placeholder site and an owner constant of
    twenty 0x22 bytes; on-chain holds the same library address at both sites.
    """
    prefix = bytes.fromhex("6080604052")
    mid = bytes.fromhex("601457")
    suffix = bytes.fromhex("5b600055f3")
    lib_addr = bytes.fromhex("ab" * 20)
    owner = b"\x22" * 20
    span_offset = len(prefix) + 1  # immediate of the PUSH20
    local = prefix + b"\x73" + bytes(20) + mid + b"\x73" + owner + suffix
    owner_offset = len(prefix) + 21 + len(mid) + 1
    onchain = prefix + b"\x73" + lib_addr + mid + b"\x73" + lib_addr + suffix
    span = PlaceholderSpan(span_offset, TRICKY_PATH, TRICKY_LIB,
                           PlaceholderForm.LEGACY)
    return local, onchain, span, owner_offset, lib_addr


class TestRendering:
    def test_legacy_form_shape(self):
        span = PlaceholderSpan(0, TRICKY_PATH, TRICKY_LIB)
        text = render_placeholder_text(span)
        assert len(text) == 40
        assert text == "__$.{37}|2{40}|:foo" + "_" * 19 + "__"

    def test_legacy_truncates_long_names(self):
        span = PlaceholderSpan(0, "contracts/very/long/path/Library.sol", "Math")
        text = render_placeholder_text(span)
        assert len(text) == 40
        assert text.startswith("__") and text.endswith("__")

    def test_hash_form_shape(self):
        span = PlaceholderSpan(0, "", "ab" * 17, PlaceholderForm.HASH)
        text = render_placeholder_text(span)
        assert text == "__$" + "ab" * 17 + "$__"
        assert len(text) == 40

    def test_hash_form_bad_digest(self):
        with pytest.raises(MalformedLinkReferenceError):
            render_placeholder_text(PlaceholderSpan(0, "", "abcd", PlaceholderForm.HASH))


class TestScan:
    """Reading placeholder text back out of spliced code."""

    def test_spliced_round_trip(self):
        local, _, span, _, _ = make_poc_pair()
        text = splice_unlinked_text(local, [span])
        site = slice(2 * span.offset, 2 * span.end)
        assert text[site] == render_placeholder_text(span)
        assert text[:site.start] == local[:span.offset].hex()
        assert text[site.stop:] == local[span.end:].hex()


class TestDeclared:
    """A compilation output checks its link references when it is built."""

    def test_out_of_range_rejected(self):
        with pytest.raises(MalformedLinkReferenceError):
            CompilationOutput(b"", bytes(30),
                              link_refs=[PlaceholderSpan(15, "a.sol", "L")])

    def test_overlap_rejected(self):
        with pytest.raises(MalformedLinkReferenceError):
            CompilationOutput(b"", bytes(100),
                              link_refs=[PlaceholderSpan(10, "a.sol", "L"),
                                         PlaceholderSpan(25, "a.sol", "M")])

    def test_valid_spans_sorted_by_offset(self):
        output = CompilationOutput(
            b"", bytes(100), link_refs=[PlaceholderSpan(40, "a.sol", "L"),
                                        PlaceholderSpan(10, "b.sol", "M")])
        assert [s.offset for s in output.link_refs] == [10, 40]


class TestResolveHardened:
    def test_replaces_declared_span_only(self):
        local, onchain, span, owner_offset, lib_addr = make_poc_pair()
        resolved, bindings = resolve(local, onchain, [span], PlaceholderMode.OFFSET_LITERAL)
        assert resolved[span.offset:span.end] == lib_addr
        # owner constant untouched
        assert resolved[owner_offset:owner_offset + 20] == b"\x22" * 20
        assert resolved != onchain
        assert bindings[0].matched_offsets == [span.offset]

    def test_unset_library_flagged(self):
        local = bytes(40)
        onchain = bytes(40)
        span = PlaceholderSpan(5, "a.sol", "L")
        _, bindings = resolve(local, onchain, [span], PlaceholderMode.OFFSET_LITERAL)
        assert bindings[0].unset

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            resolve(bytes(10), bytes(11), [], PlaceholderMode.OFFSET_LITERAL)

    @settings(max_examples=120)
    @given(st.data())
    def test_untouched_outside_spans(self, data):
        n = data.draw(st.integers(min_value=45, max_value=220))
        local = data.draw(st.binary(min_size=n, max_size=n))
        onchain = data.draw(st.binary(min_size=n, max_size=n))
        starts = []
        cursor = 0
        while cursor + 20 <= n and len(starts) < 3:
            start = data.draw(st.integers(min_value=cursor, max_value=n - 20))
            starts.append(start)
            cursor = start + 20
            if data.draw(st.booleans()):
                break
        spans = [PlaceholderSpan(s, f"f{k}.sol", f"L{k}")
                 for k, s in enumerate(starts)]
        resolved, _ = resolve(local, onchain, spans, PlaceholderMode.OFFSET_LITERAL)
        inside = set()
        for s in spans:
            inside.update(range(s.offset, s.end))
        for i in range(n):
            expected = onchain[i] if i in inside else local[i]
            assert resolved[i] == expected


class TestResolveNaive:
    def test_regex_spillover_rewrites_owner_constant(self):
        local, onchain, span, owner_offset, lib_addr = make_poc_pair()
        resolved, bindings = resolve(local, onchain, [span], PlaceholderMode.REGEX_NAIVE)
        assert resolved == onchain
        assert bindings[0].matched_offsets == [span.offset, owner_offset]

    def test_naive_superset_of_hardened(self):
        local, onchain, span, _, _ = make_poc_pair()
        _, naive = resolve(local, onchain, [span], PlaceholderMode.REGEX_NAIVE)
        _, hard = resolve(local, onchain, [span], PlaceholderMode.OFFSET_LITERAL)
        assert set(naive[0].matched_offsets) > set(hard[0].matched_offsets)

    def test_benign_placeholder_resolves_like_hardened(self):
        # a normal library name has no regex meta-characters that can match hex
        prefix = bytes.fromhex("608060")
        local = prefix + b"\x73" + bytes(20) + bytes.fromhex("5bf3")
        addr = bytes.fromhex("0102030405060708090a0b0c0d0e0f1011121314")
        onchain = prefix + b"\x73" + addr + bytes.fromhex("5bf3")
        span = PlaceholderSpan(4, "lib/SafeMath.sol", "SafeMath")
        naive_out, _ = resolve(local, onchain, [span], PlaceholderMode.REGEX_NAIVE)
        hard_out, _ = resolve(local, onchain, [span], PlaceholderMode.OFFSET_LITERAL)
        assert naive_out == hard_out == onchain

    def test_invalid_regex_falls_back_to_literal(self):
        local = b"\x73" + bytes(20) + b"\x00" * 5
        onchain = b"\x73" + bytes(range(1, 21)) + b"\x00" * 5
        span = PlaceholderSpan(1, "((bad", "L")
        resolved, _ = resolve(local, onchain, [span], PlaceholderMode.REGEX_NAIVE)
        assert resolved == onchain

    def test_hash_form_naive_touches_own_site_only(self):
        local = b"\x00" * 2 + bytes(20) + b"\x11" * 6
        onchain = b"\x00" * 2 + bytes(range(40, 60)) + b"\x11" * 6
        span = PlaceholderSpan(2, "", "ab" * 17, PlaceholderForm.HASH)
        resolved, bindings = resolve(local, onchain, [span], PlaceholderMode.REGEX_NAIVE)
        assert resolved == onchain
        assert bindings[0].matched_offsets == [2]
