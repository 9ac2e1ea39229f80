"""Interpreter tests against hand-assembled programs.

Expected values are computed with plain Python integer arithmetic (or frozen
digests from the hash vectors), never by running the interpreter first.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jumpdest_oracle, keccak256_oracle, template_deviation_oracle
from srcverify.compiler import CompilationOutput
from srcverify.errors import (
    BadJumpDestinationError,
    CreationDidNotReturnError,
    ForeignReturnDataError,
    LengthMismatchError,
    MemoryLimitExceededError,
    SpanOutOfRangeError,
    StackOverflowError_,
    StackUnderflowError,
    StepLimitExceededError,
    UnsupportedOpcodeError,
    VerifierError,
)
from srcverify.simulator import (
    ExecutionEnv,
    HaltReason,
    ImmutableRef,
    _valid_jumpdests,
    backfill_immutables_from_chain,
    execute_creation,
    resolve_immutables_by_simulation,
)

U256 = 1 << 256


def asm(*chunks: str) -> bytes:
    return bytes.fromhex("".join(chunks))


def push(value: int) -> str:
    """Minimal-width PUSH instruction for value."""
    width = max(1, (value.bit_length() + 7) // 8)
    return f"{0x60 + width - 1:02x}" + value.to_bytes(width, "big").hex()


# computes <fragment>, stores the top of stack at 0, returns that word
RETURN_TOP = "600052" + "60206000f3"


def run_word(fragment: str) -> int:
    result = execute_creation(asm(fragment, RETURN_TOP))
    assert result.halted is HaltReason.RETURN
    assert len(result.return_data) == 32
    return int.from_bytes(result.return_data, "big")


class TestArithmetic:
    # (fragment, expected) with operands pushed deepest-first
    CASES = [
        (push(3) + push(4) + "01", 7),                                # ADD
        (push(U256 - 1) + push(2) + "01", 1),                         # ADD wraps
        (push(5) + push(6) + "02", 30),                               # MUL
        (push(10) + push(3) + "03", U256 - 7),                        # SUB 3-10
        (push(3) + push(10) + "03", 7),                               # SUB 10-3
        (push(2) + push(9) + "04", 4),                                # DIV
        (push(0) + push(9) + "04", 0),                                # DIV by zero
        (push(3) + push(U256 - 8) + "05", U256 - 2),                  # SDIV -8/3
        (push(U256 - 2) + push(7) + "05", U256 - 3),                  # SDIV 7/-2
        (push(3) + push(U256 - 8) + "07", U256 - 2),                  # SMOD -8%3
        (push(U256 - 3) + push(7) + "07", 1),                         # SMOD 7%-3
        (push(4) + push(9) + "06", 1),                                # MOD
        (push(3) + push(2) + push(U256 - 1) + "08", (U256 + 1) % 3),  # ADDMOD
        (push(7) + push(5) + push(6) + "09", 30 % 7),                 # MULMOD
        (push(23) + push(20) + "0a", 20 ** 23),                       # EXP
        (push(0xFF) + push(0) + "0b", U256 - 1),                      # SIGNEXTEND neg
        (push(0x7F) + push(0) + "0b", 0x7F),                          # SIGNEXTEND pos
        (push(0x8000) + push(1) + "0b", U256 - 0x8000),               # SIGNEXTEND word1
        (push(0xFF) + push(32) + "0b", 0xFF),                         # SIGNEXTEND i=32
        (push(U256 - 1) + push(U256 - 1) + "0b", U256 - 1),           # SIGNEXTEND huge i
        (push(0) + push(9) + "06", 0),                                # MOD by zero
        (push(0) + push(9) + "05", 0),                                # SDIV by zero
        (push(0) + push(U256 - 9) + "07", 0),                         # SMOD by zero
        (push(0) + push(2) + push(3) + "08", 0),                      # ADDMOD by zero
        (push(0) + push(5) + push(6) + "09", 0),                      # MULMOD by zero
        (push(U256 - 1) + push(1 << 255) + "05", 1 << 255),           # SDIV -2**255/-1
        (push(2) + push(U256 - 1) + "02", U256 - 2),                  # MUL wraps
        (push(256) + push(2) + "0a", 0),                              # EXP 2**256 wraps
        (push(255) + push(3) + "0a", 3 ** 255 % U256),                # EXP 3**255 wraps
    ]

    @pytest.mark.parametrize("fragment,expected", CASES)
    def test_case(self, fragment, expected):
        assert run_word(fragment) == expected


class TestComparisonAndBits:
    CASES = [
        (push(3) + push(2) + "10", 1),                  # LT 2<3
        (push(2) + push(3) + "10", 0),
        (push(2) + push(3) + "11", 1),                  # GT
        (push(1) + push(U256 - 1) + "12", 1),           # SLT -1<1
        (push(U256 - 1) + push(1) + "13", 1),           # SGT 1>-1
        (push(9) + push(9) + "14", 1),                  # EQ
        (push(0) + "15", 1),                            # ISZERO
        (push(7) + "15", 0),
        (push(0b1100) + push(0b1010) + "16", 0b1000),   # AND
        (push(0b1100) + push(0b1010) + "17", 0b1110),   # OR
        (push(0b1100) + push(0b1010) + "18", 0b0110),   # XOR
        (push(0) + "19", U256 - 1),                     # NOT
        (push(0xAB << 248) + push(0) + "1a", 0xAB),     # BYTE 0
        (push(0xCD) + push(31) + "1a", 0xCD),           # BYTE 31
        (push(0xCD) + push(32) + "1a", 0),              # BYTE out of range
        (push(1) + push(4) + "1b", 16),                 # SHL
        (push(1) + push(300) + "1b", 0),                # SHL >= 256
        (push(16) + push(4) + "1c", 1),                 # SHR
        (push(U256 - 1) + push(256) + "1c", 0),         # SHR by 256
        (push(U256 - 16) + push(4) + "1d", U256 - 1),   # SAR keeps sign
        (push(U256 - 16) + push(300) + "1d", U256 - 1), # SAR >= 256, negative
        (push(16) + push(300) + "1d", 0),               # SAR >= 256, positive
    ]

    @pytest.mark.parametrize("fragment,expected", CASES)
    def test_case(self, fragment, expected):
        assert run_word(fragment) == expected


class TestStackAndMemory:
    def test_dup_swap(self):
        # PUSH 1, PUSH 2, DUP2 -> [1,2,1]; SWAP1 -> [1,1,2]; ADD -> [1,3]; ADD -> 4
        assert run_word(push(1) + push(2) + "81" + "90" + "01" + "01") == 4

    def test_pop(self):
        assert run_word(push(9) + push(5) + "50") == 9

    def test_mstore8_and_mload(self):
        # write 0xAA at byte 0, read the word back
        fragment = push(0xAA) + push(0) + "53" + push(0) + "51"
        assert run_word(fragment) == 0xAA << 248

    def test_keccak_of_memory(self):
        # store "abc" bytewise, hash 3 bytes at 0; frozen vector for "abc"
        frag = ""
        for i, b in enumerate(b"abc"):
            frag += push(b) + push(i) + "53"
        frag += push(3) + push(0) + "20"
        expected = int.from_bytes(keccak256_oracle(b"abc"), "big")
        assert run_word(frag) == expected

    def test_memory_cap(self):
        with pytest.raises(MemoryLimitExceededError):
            execute_creation(asm(push(1), push(1 << 29), "52"))

    def test_stack_underflow(self):
        with pytest.raises(StackUnderflowError):
            execute_creation(b"\x01")  # ADD on empty stack

    def test_dup_underflow(self):
        with pytest.raises(StackUnderflowError):
            execute_creation(asm(push(1), "81"))  # DUP2 with one item

    def test_stack_overflow(self):
        with pytest.raises(StackOverflowError_, match="pc=2048"):
            execute_creation(asm("6000" * 1025))
        result = execute_creation(asm("6000" * 1024))
        assert result.halted is HaltReason.STOP
        assert result.steps == 1024

    def test_underflow_names_the_failing_offset(self):
        with pytest.raises(StackUnderflowError, match=r"pc=2\)"):
            execute_creation(asm(push(1), "01"))  # ADD at offset 2


class TestControlFlow:
    def test_jump_to_jumpdest(self):
        # jump over an INVALID byte onto JUMPDEST, then STOP
        result = execute_creation(asm("600456fe5b00"))
        assert result.halted is HaltReason.STOP

    def test_jump_into_push_immediate(self):
        # offset 4 is 0x5b but sits inside the PUSH1 at offset 3
        with pytest.raises(BadJumpDestinationError):
            execute_creation(asm("600456605b00"))

    def test_jumpi_taken(self):
        result = execute_creation(asm("6001600657fe5b00"))
        assert result.halted is HaltReason.STOP

    def test_jumpi_not_taken(self):
        result = execute_creation(asm("6000600657fe5b00"))
        assert result.halted is HaltReason.INVALID

    def test_run_off_end_stops(self):
        result = execute_creation(asm(push(5)))
        assert result.halted is HaltReason.STOP

    def test_truncated_push_zero_pads(self):
        result = execute_creation(bytes.fromhex("6100"))  # PUSH2 with 1 byte left
        assert result.halted is HaltReason.STOP
        assert result.steps == 1

    def test_step_limit(self):
        with pytest.raises(StepLimitExceededError):
            execute_creation(asm("5b600056"), step_limit=1000)

    def test_revert_halts(self):
        result = execute_creation(asm(push(0), push(0), "fd"))
        assert result.halted is HaltReason.REVERT

    def test_designated_invalid(self):
        result = execute_creation(b"\xfe")
        assert result.halted is HaltReason.INVALID

    def test_undefined_byte_invalid(self):
        result = execute_creation(b"\x0c")
        assert result.halted is HaltReason.INVALID

    def test_unsupported_real_opcode(self):
        with pytest.raises(UnsupportedOpcodeError):
            execute_creation(b"\xf1")  # CALL
        with pytest.raises(UnsupportedOpcodeError):
            execute_creation(b"\x5f")  # PUSH0


# the named opcodes outside the constructor subset, by byte
UNSUPPORTED = {
    0x31: "BALANCE", 0x32: "ORIGIN", 0x3A: "GASPRICE", 0x3B: "EXTCODESIZE",
    0x3C: "EXTCODECOPY", 0x3D: "RETURNDATASIZE", 0x3E: "RETURNDATACOPY",
    0x3F: "EXTCODEHASH", 0x40: "BLOCKHASH", 0x41: "COINBASE",
    0x44: "PREVRANDAO", 0x45: "GASLIMIT", 0x46: "CHAINID",
    0x47: "SELFBALANCE", 0x48: "BASEFEE", 0x58: "PC", 0x59: "MSIZE",
    0x5A: "GAS", 0x5F: "PUSH0", 0xA0: "LOG0", 0xA1: "LOG1", 0xA2: "LOG2",
    0xA3: "LOG3", 0xA4: "LOG4", 0xF0: "CREATE", 0xF1: "CALL",
    0xF2: "CALLCODE", 0xF4: "DELEGATECALL", 0xF5: "CREATE2",
    0xFA: "STATICCALL", 0xFF: "SELFDESTRUCT",
}
# the designated INVALID and every byte the EVM leaves undefined
HALTS_INVALID = {
    0xFE, *range(0x0C, 0x10), 0x1E, 0x1F, *range(0x21, 0x30),
    *range(0x49, 0x50), 0x5C, 0x5D, 0x5E, *range(0xA5, 0xF0),
    *range(0xF6, 0xFA), 0xFB, 0xFC,
}


class TestOpcodeClassification:
    """Every byte after seven zero words: a named opcode outside the subset
    refuses to run, an undefined byte halts INVALID, the rest do neither."""

    def test_set_sizes(self):
        assert len(UNSUPPORTED) == 31
        assert len(HALTS_INVALID) == 113
        assert not HALTS_INVALID & UNSUPPORTED.keys()

    @pytest.mark.parametrize("op", range(256), ids=lambda op: f"{op:02x}")
    def test_byte(self, op):
        code = asm("6000" * 7) + bytes([op])
        if op in UNSUPPORTED:
            with pytest.raises(UnsupportedOpcodeError,
                               match=rf"^{UNSUPPORTED[op]} \(0x{op:02x}\) at pc=14 "):
                execute_creation(code)
            return
        try:
            halted = execute_creation(code).halted
        except UnsupportedOpcodeError:
            pytest.fail(f"0x{op:02x} is refused but not listed as unsupported")
        except VerifierError:  # a deep DUP or SWAP underflows, a jump to 0
            halted = None
        assert (halted is HaltReason.INVALID) is (op in HALTS_INVALID)


# code dense in the bytes that steer the walk: JUMPDEST, PUSHn and 0x5b data
steering_code = (st.binary(max_size=300)
                 | st.lists(st.sampled_from([0x5B, 0x60, 0x61, 0x7F, 0x00]),
                            max_size=120).map(bytes))


class TestJumpDestinations:
    @given(steering_code)
    def test_agrees_with_per_byte_walk(self, code):
        assert _valid_jumpdests(code) == jumpdest_oracle(code)

    @pytest.mark.parametrize("code, expected", [
        ("605b5b", {2}),             # 0x5b as PUSH1 data, then a JUMPDEST
        ("5b615b", {0}),             # a final PUSH2 cut short over 0x5b
        ("7f" + "5b" * 31, set()),   # a final PUSH32 cut short, all 0x5b
        ("7f" + "00" * 32 + "5b", {33}),
        ("", set()),
    ])
    def test_push_data_is_stepped_over(self, code, expected):
        assert _valid_jumpdests(bytes.fromhex(code)) == expected


class TestEnvironmentAndData:
    def test_caller_address_value(self):
        env = ExecutionEnv(
            caller=bytes.fromhex("11" * 20),
            address=bytes.fromhex("22" * 20),
            callvalue=77,
            timestamp=1234,
            number=99,
        )
        for frag, expected in [
            ("33", int.from_bytes(env.caller, "big")),
            ("30", int.from_bytes(env.address, "big")),
            ("34", 77),
            ("42", 1234),
            ("43", 99),
        ]:
            result = execute_creation(asm(frag, RETURN_TOP), env=env)
            assert int.from_bytes(result.return_data, "big") == expected

    def test_calldata_is_joined_space(self):
        # CALLDATALOAD 0 must see creation bytes themselves
        code = asm(push(0), "35", RETURN_TOP)
        args = b"\xde\xad"
        result = execute_creation(code, args)
        joined = code + args
        expected = int.from_bytes((joined + bytes(32))[:32], "big")
        assert int.from_bytes(result.return_data, "big") == expected

    def test_calldatasize_includes_args(self):
        code = asm("36", RETURN_TOP)
        result = execute_creation(code, b"\x00" * 7)
        assert int.from_bytes(result.return_data, "big") == len(code) + 7

    def test_calldatacopy(self):
        # copy 4 bytes of calldata tail into memory and return them
        code = asm(push(4), push(0), push(0), "37", "60206000f3")
        # CALLDATACOPY(dest=0, offset=0, size=4), so memory holds code[0:4]
        result = execute_creation(code)
        assert result.return_data[:4] == code[:4]

    def test_storage_writes_recorded(self):
        result = execute_creation(asm(push(5), push(1), "55", "00"))
        assert result.halted is HaltReason.STOP
        assert result.storage_writes == {1: 5}

    def test_sload_roundtrip(self):
        frag = push(42) + push(3) + "55" + push(3) + "54"
        assert run_word(frag) == 42


def make_creation(runtime: bytes, tail: bytes = b"") -> bytes:
    """Canonical constructor: copy runtime from code offset 12 and return it."""
    assert len(runtime) <= 0xFFFF
    size = len(runtime).to_bytes(2, "big").hex()
    return asm("61", size, "80", "600c", "6000", "39", "6000", "f3") + runtime + tail


class TestCanonicalTemplate:
    def test_returns_runtime(self):
        runtime = bytes.fromhex("6001600101")
        result = execute_creation(make_creation(runtime))
        assert result.halted is HaltReason.RETURN
        assert result.return_data == runtime
        assert result.steps == 7

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=512))
    def test_any_payload(self, runtime):
        result = execute_creation(make_creation(runtime))
        assert result.return_data == runtime

    def test_args_do_not_leak_into_return(self):
        runtime = bytes(range(40))
        result = execute_creation(make_creation(runtime), args=b"\xff" * 64)
        assert result.return_data == runtime


def exp_fixture():
    """Creation that fills a 32-byte immutable slot with 20**23."""
    template = bytes.fromhex("600a600a") + bytes(32) + bytes.fromhex("5b600055")
    ref = ImmutableRef(offset=4, length=32, name="rate")
    instr = asm(
        "61", len(template).to_bytes(2, "big").hex(),   # size
        "6016",                                          # code offset 22
        "6000", "39",                                    # CODECOPY dest 0
        "6017", "6014", "0a",                            # EXP: 20 ** 23
        "6004", "52",                                    # MSTORE into slot
        "61", len(template).to_bytes(2, "big").hex(),
        "6000", "f3",
    )
    assert len(instr) == 22
    return template, ref, instr + template


class TestImmutableResolution:
    def test_simulation_fills_regions(self):
        template, ref, creation = exp_fixture()
        filled = resolve_immutables_by_simulation(template, [ref], creation)
        expected = bytearray(template)
        expected[4:36] = (20 ** 23).to_bytes(32, "big")
        assert filled == bytes(expected)

    def test_no_refs_requires_exact_return(self):
        runtime = bytes.fromhex("aabbccdd")
        filled = resolve_immutables_by_simulation(runtime, [], make_creation(runtime))
        assert filled == runtime

    def test_foreign_length_rejected(self):
        template = bytes(8)
        # constructor returns 32 bytes regardless of template
        creation = asm(push(42), push(0), "52", "60206000f3")
        with pytest.raises(ForeignReturnDataError):
            resolve_immutables_by_simulation(template, [], creation)

    def test_foreign_bytes_outside_refs_rejected(self):
        template, ref, creation = exp_fixture()
        tampered = bytearray(template)
        tampered[0] ^= 0xFF  # outside [4, 36)
        with pytest.raises(ForeignReturnDataError):
            resolve_immutables_by_simulation(bytes(tampered), [ref], creation)

    def test_trusting_mode_returns_verbatim(self):
        template = bytes(8)
        creation = asm(push(42), push(0), "52", "60206000f3")
        out = resolve_immutables_by_simulation(
            template, [], creation, trust_simulated_return=True)
        assert out == (42).to_bytes(32, "big")

    def test_revert_is_did_not_return(self):
        template = bytes(4)
        with pytest.raises(CreationDidNotReturnError):
            resolve_immutables_by_simulation(template, [], asm(push(0), push(0), "fd"))

    def test_stop_is_did_not_return(self):
        with pytest.raises(CreationDidNotReturnError):
            resolve_immutables_by_simulation(bytes(4), [], b"\x00")

    def test_ref_out_of_range(self):
        with pytest.raises(SpanOutOfRangeError):
            CompilationOutput(b"\x00", bytes(8),
                              immutable_refs=[ImmutableRef(4, 8)])

    def test_overlapping_refs(self):
        with pytest.raises(SpanOutOfRangeError):
            CompilationOutput(b"\x00", bytes(16), immutable_refs=[
                ImmutableRef(0, 8), ImmutableRef(4, 4)])


@st.composite
def filled_templates(draw):
    """(template, regions, returned): returned fills each region with other
    bytes and may deviate anywhere, inside the regions or out."""
    template = draw(st.binary(min_size=1, max_size=300))
    n = len(template)
    # consecutive cut points pair up into sorted, disjoint regions, some
    # empty, some touching offset 0 or the end
    cuts = sorted(draw(st.lists(
        st.one_of(st.just(0), st.just(n), st.integers(0, n)), max_size=8)))
    regions = list(zip(cuts[::2], cuts[1::2]))
    returned = bytearray(template)
    for offset, end in regions:
        returned[offset:end] = draw(st.binary(min_size=end - offset,
                                              max_size=end - offset))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        returned[i] ^= draw(st.integers(1, 255))
    return template, regions, bytes(returned)


class TestTemplateDeviation:
    """The constructor-return check reports the first deviation outside
    the immutable regions, at the offset a byte-by-byte walk finds."""

    @staticmethod
    def check(template, regions, returned):
        refs = [ImmutableRef(offset, end - offset) for offset, end in regions]
        expected = template_deviation_oracle(returned, template, regions)
        creation = make_creation(returned)
        if expected is None:
            assert resolve_immutables_by_simulation(
                template, refs, creation) == returned
        else:
            with pytest.raises(ForeignReturnDataError,
                               match=f"at offset {expected} "):
                resolve_immutables_by_simulation(template, refs, creation)

    @pytest.mark.parametrize("regions,flips,expected", [
        ([(0, 4), (28, 32)], [0, 3, 28, 31], None),      # refs at both ends
        ([(0, 4), (28, 32)], [4], 4),                    # just after the first
        ([(0, 4), (28, 32)], [27], 27),                  # just before the last
        ([(8, 8), (16, 16)], [8], 8),                    # zero-length refs
        ([(8, 12)], [2, 20], 2),                         # before the refs
        ([(8, 12), (20, 24)], [10, 15, 22], 15),         # between the refs
        ([(8, 12)], [9, 30], 30),                        # after the refs
        ([], [], None),
    ])
    def test_cases(self, regions, flips, expected):
        template = bytes(range(0x40, 0x60))
        returned = bytearray(template)
        for i in flips:
            returned[i] ^= 0xFF
        assert template_deviation_oracle(bytes(returned), template,
                                         regions) == expected
        self.check(template, regions, bytes(returned))

    @settings(max_examples=200, deadline=None)
    @given(filled_templates())
    def test_agrees_with_byte_walk(self, case):
        self.check(*case)


class TestChainBackfill:
    def test_copies_regions_only(self):
        template = bytes.fromhex("aa") * 4 + bytes(4) + bytes.fromhex("bb") * 4
        onchain = bytes.fromhex("aa") * 4 + bytes.fromhex("11223344") + bytes.fromhex("bb") * 4
        out = backfill_immutables_from_chain(template, [ImmutableRef(4, 4)], onchain)
        assert out == onchain

    def test_does_not_copy_outside(self):
        template = bytes(8)
        onchain = bytes.fromhex("ff" * 8)
        out = backfill_immutables_from_chain(template, [ImmutableRef(2, 2)], onchain)
        assert out == bytes(2) + bytes.fromhex("ffff") + bytes(4)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            backfill_immutables_from_chain(bytes(8), [], bytes(9))

