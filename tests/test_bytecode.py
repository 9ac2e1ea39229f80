"""Hex codec, disassembler, and code-hash tests."""

import pytest
from hypothesis import given, strategies as st

from srcverify import code_hash, disassemble, keccak256, parse_hex, render_hex
from srcverify.bytecode import Instruction, first_mismatch
from srcverify.errors import NonHexCharacterError, OddLengthError

from oracles import first_mismatch_oracle, keccak256_oracle


def reassemble(instructions: list[Instruction]) -> bytes:
    """Concatenate opcodes and immediates back into bytes."""
    return b"".join(bytes([ins.opcode]) + ins.immediate for ins in instructions)


# Frozen with the independent oracle (tests/oracles.py); the empty-input
# digest is also a widely published constant.
KECCAK_VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"testing": "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
    b"\x00": "bc36789e7a1e281436464229828f817d6612f7b477d66591ff96a9e064bcc98a",
    bytes(range(200)): "bfb0aa97863e797943cf7c33bb7e880bb4543f3d2703c0923c6901c2af57b890",
}


class TestHexCodec:
    def test_round_trip_prefixed(self):
        assert parse_hex("0x60016002") == bytes.fromhex("60016002")
        assert render_hex(b"\x60\x01") == "0x6001"
        assert render_hex(b"\x60\x01", prefix=False) == "6001"

    def test_bare_and_uppercase(self):
        assert parse_hex("60FF") == b"\x60\xff"
        assert parse_hex("  0X60ff\n") == b"\x60\xff"

    def test_odd_length_rejected(self):
        with pytest.raises(OddLengthError):
            parse_hex("0x600")

    def test_non_hex_rejected(self):
        with pytest.raises(NonHexCharacterError):
            parse_hex("0x60zz")
        with pytest.raises(NonHexCharacterError):
            parse_hex("60 01")  # inner whitespace is not hex

    @given(st.binary(max_size=300))
    def test_parse_render_inverse(self, code):
        assert parse_hex(render_hex(code)) == code
        assert parse_hex(render_hex(code, prefix=False)) == code


class TestDisassembler:
    def test_simple_sequence(self):
        # PUSH1 01, PUSH2 0203, ADD, STOP
        code = bytes.fromhex("60016102030100")
        ins = disassemble(code)
        assert [i.name for i in ins] == ["PUSH1", "PUSH2", "ADD", "STOP"]
        assert ins[0].immediate == b"\x01"
        assert ins[1].immediate == b"\x02\x03"
        assert [i.offset for i in ins] == [0, 2, 5, 6]

    def test_unknown_opcode_is_single_byte(self):
        ins = disassemble(b"\x0c")
        assert len(ins) == 1
        assert ins[0].name == "UNKNOWN_0c"
        assert not ins[0].truncated

    def test_truncated_push_flagged(self):
        # PUSH32 with only 2 immediate bytes available
        code = b"\x7f\xaa\xbb"
        ins = disassemble(code)
        assert len(ins) == 1
        assert ins[0].truncated
        assert ins[0].immediate == b"\xaa\xbb"

    def test_full_push_not_flagged(self):
        code = b"\x7f" + bytes(32)
        ins = disassemble(code)
        assert not ins[0].truncated

    def test_empty_code(self):
        assert disassemble(b"") == []

    def test_push_immediate_not_misread(self):
        # PUSH1 0x60: the 0x60 immediate must not decode as a second PUSH1
        ins = disassemble(b"\x60\x60")
        assert len(ins) == 1

    @given(st.binary(max_size=600))
    def test_reassembly_reproduces_input(self, code):
        ins = disassemble(code)
        assert reassemble(ins) == code
        # every byte covered exactly once, in order
        covered = 0
        for i in ins:
            assert i.offset == covered
            covered += i.size
        assert covered == len(code)
        assert len(ins) <= max(len(code), 1)

    def test_str_rendering(self):
        ins = Instruction(offset=4, opcode=0x61, immediate=b"\x01\x02")
        assert "PUSH2" in str(ins) and "0x0102" in str(ins)


LANE = (1 << 64) - 1
extreme_words = st.one_of(
    st.sampled_from([0, LANE]),
    st.integers(0, 63).map(lambda bit: 1 << bit),
    st.integers(0, 63).map(lambda bit: LANE ^ 1 << bit),
    st.integers(0, LANE))


@st.composite
def extreme_messages(draw):
    """Messages of one to three sponge blocks once padded, each 8-byte
    word all zeros, all ones, one bit, all but one bit or random."""
    length = draw(st.integers(0, 3 * 136 - 1))
    words = draw(st.lists(extreme_words, min_size=-(-length // 8),
                          max_size=-(-length // 8)))
    return b"".join(w.to_bytes(8, "little") for w in words)[:length]


class TestCodeHash:
    @pytest.mark.parametrize("data,digest", sorted(KECCAK_VECTORS.items()))
    def test_frozen_vectors(self, data, digest):
        assert keccak256(data).hex() == digest
        assert code_hash(data).hex() == digest

    @given(st.binary(max_size=500))
    def test_agrees_with_independent_oracle(self, data):
        assert keccak256(data) == keccak256_oracle(data)

    def test_multi_block_input(self):
        # spans several 136-byte sponge blocks
        data = bytes(range(256)) * 3
        assert keccak256(data) == keccak256_oracle(data)

    def test_rate_boundary_inputs(self):
        # every length up to five sponge blocks, so each padding position
        # and the 135/136/137 and 271/272/273 boundaries are all covered;
        # all-ones lanes cancel the complemented lanes of the state
        for pattern in (bytes((7 * i + 0xA5) & 0xFF for i in range(700)),
                        b"\xff" * 700):
            for n in range(701):
                assert (keccak256(pattern[:n])
                        == keccak256_oracle(pattern[:n])), (pattern[0], n)

    @given(extreme_messages())
    def test_extreme_lanes_agree_with_oracle(self, data):
        assert keccak256(data) == keccak256_oracle(data)


@st.composite
def near_pairs(draw):
    """Two codes that mostly agree: equal, one a prefix of the other, or
    differing at a few offsets, with a length change now and then."""
    a = draw(st.binary(max_size=600))
    b = bytearray(a)
    for i in draw(st.lists(st.integers(0, max(len(a) - 1, 0)), max_size=3)):
        if a:
            b[i] ^= draw(st.integers(1, 255))
    cut = draw(st.integers(0, len(b)))
    b = draw(st.sampled_from([b, b[:cut], b + draw(st.binary(max_size=8))]))
    return (a, bytes(b)) if draw(st.booleans()) else (bytes(b), a)


class TestFirstMismatch:
    @pytest.mark.parametrize("a,b,expected", [
        (b"", b"", None),
        (b"abc", b"abc", None),
        (b"", b"a", 0),
        (b"abc", b"ab", 2),
        (b"abc", b"xbc", 0),
        (b"abc", b"abx", 2),
        (bytes(4096) + b"\x01", bytes(4097), 4096),
    ])
    def test_contract(self, a, b, expected):
        assert first_mismatch(a, b) == expected
        assert first_mismatch(b, a) == expected

    @given(near_pairs())
    def test_agrees_with_byte_walk(self, pair):
        a, b = pair
        assert first_mismatch(a, b) == first_mismatch_oracle(a, b)

    @given(st.binary(max_size=64), st.binary(max_size=64))
    def test_agrees_with_byte_walk_on_unrelated_codes(self, a, b):
        assert first_mismatch(a, b) == first_mismatch_oracle(a, b)
