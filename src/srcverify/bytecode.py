"""EVM bytecode primitives: hex codec, disassembly, code hash.

Bytecode is handled as plain `bytes` throughout the package.  Disassembly is
total: unknown opcodes decode as single-byte instructions and a PUSH whose
immediate runs off the end of the code is flagged truncated rather than
rejected, so arbitrary byte strings (including metadata tails) always decode.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ._keccak import keccak256
from .errors import NonHexCharacterError, OddLengthError

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")

PUSH1 = 0x60
PUSH32 = 0x7F


def parse_hex(text: str) -> bytes:
    """Decode a hex string (optional 0x prefix) into bytecode bytes."""
    s = text.strip()
    if s[:2] in ("0x", "0X"):
        s = s[2:]
    for ch in s:
        if ch not in _HEX_DIGITS:
            raise NonHexCharacterError(f"invalid hex character {ch!r}")
    if len(s) % 2:
        raise OddLengthError(f"hex string has odd length {len(s)}")
    return bytes.fromhex(s)


def render_hex(code: bytes, prefix: bool = True) -> str:
    """Lowercase hex rendering, 0x-prefixed by default."""
    return ("0x" if prefix else "") + code.hex()


def code_hash(code: bytes) -> bytes:
    """Keccak-256 digest of the code, the identity used for runtime equality."""
    return keccak256(code)


def first_mismatch(a: bytes, b: bytes) -> int | None:
    """First offset where a and b differ; the shorter length when one is a
    prefix of the other; None when they are equal."""
    if a == b:
        return None
    lo, hi = 0, min(len(a), len(b))
    if a[:hi] == b[:hi]:
        return hi
    # halve [lo, hi) while a[:lo] == b[:lo] and a[lo:hi] != b[lo:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid
    return lo


def fill(code: bytes, regions: Iterable, source: bytes) -> bytes:
    """code with source[r.offset:r.end] copied into each region r.

    The regions are a CompilationOutput's immutable or link references,
    which it has checked lie inside the runtime; source has code's length.
    """
    out = bytearray(code)
    for region in regions:
        out[region.offset:region.end] = source[region.offset:region.end]
    return bytes(out)


# Mnemonics for display and filters.  Unlisted opcodes render as UNKNOWN_xx;
# they are still legal single-byte instructions to the disassembler.
OPCODE_NAMES: dict[int, str] = {
    0x00: "STOP", 0x01: "ADD", 0x02: "MUL", 0x03: "SUB", 0x04: "DIV",
    0x05: "SDIV", 0x06: "MOD", 0x07: "SMOD", 0x08: "ADDMOD", 0x09: "MULMOD",
    0x0A: "EXP", 0x0B: "SIGNEXTEND",
    0x10: "LT", 0x11: "GT", 0x12: "SLT", 0x13: "SGT", 0x14: "EQ",
    0x15: "ISZERO", 0x16: "AND", 0x17: "OR", 0x18: "XOR", 0x19: "NOT",
    0x1A: "BYTE", 0x1B: "SHL", 0x1C: "SHR", 0x1D: "SAR",
    0x20: "KECCAK256",
    0x30: "ADDRESS", 0x31: "BALANCE", 0x32: "ORIGIN", 0x33: "CALLER",
    0x34: "CALLVALUE", 0x35: "CALLDATALOAD", 0x36: "CALLDATASIZE",
    0x37: "CALLDATACOPY", 0x38: "CODESIZE", 0x39: "CODECOPY",
    0x3A: "GASPRICE", 0x3B: "EXTCODESIZE", 0x3C: "EXTCODECOPY",
    0x3D: "RETURNDATASIZE", 0x3E: "RETURNDATACOPY", 0x3F: "EXTCODEHASH",
    0x40: "BLOCKHASH", 0x41: "COINBASE", 0x42: "TIMESTAMP", 0x43: "NUMBER",
    0x44: "PREVRANDAO", 0x45: "GASLIMIT", 0x46: "CHAINID", 0x47: "SELFBALANCE",
    0x48: "BASEFEE",
    0x50: "POP", 0x51: "MLOAD", 0x52: "MSTORE", 0x53: "MSTORE8",
    0x54: "SLOAD", 0x55: "SSTORE", 0x56: "JUMP", 0x57: "JUMPI",
    0x58: "PC", 0x59: "MSIZE", 0x5A: "GAS", 0x5B: "JUMPDEST", 0x5F: "PUSH0",
    0xF0: "CREATE", 0xF1: "CALL", 0xF2: "CALLCODE", 0xF3: "RETURN",
    0xF4: "DELEGATECALL", 0xF5: "CREATE2", 0xFA: "STATICCALL",
    0xFD: "REVERT", 0xFE: "INVALID", 0xFF: "SELFDESTRUCT",
}
for _n in range(32):
    OPCODE_NAMES[PUSH1 + _n] = f"PUSH{_n + 1}"
for _n in range(16):
    OPCODE_NAMES[0x80 + _n] = f"DUP{_n + 1}"
    OPCODE_NAMES[0x90 + _n] = f"SWAP{_n + 1}"
for _n in range(5):
    OPCODE_NAMES[0xA0 + _n] = f"LOG{_n}"


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction: opcode byte plus any PUSH immediate."""

    offset: int
    opcode: int
    immediate: bytes = b""
    truncated: bool = False

    @property
    def name(self) -> str:
        return OPCODE_NAMES.get(self.opcode, f"UNKNOWN_{self.opcode:02x}")

    @property
    def is_push(self) -> bool:
        return PUSH1 <= self.opcode <= PUSH32

    @property
    def size(self) -> int:
        return 1 + len(self.immediate)

    def __str__(self) -> str:
        if self.immediate:
            text = f"{self.offset:#06x}: {self.name} 0x{self.immediate.hex()}"
            return text + " (truncated)" if self.truncated else text
        return f"{self.offset:#06x}: {self.name}"


def disassemble(code: bytes) -> list[Instruction]:
    """Decode code into instructions covering every byte exactly once."""
    out: list[Instruction] = []
    i = 0
    n = len(code)
    while i < n:
        op = code[i]
        if PUSH1 <= op <= PUSH32:
            want = op - PUSH1 + 1
            imm = code[i + 1:i + 1 + want]
            out.append(Instruction(i, op, imm, truncated=len(imm) < want))
            i += 1 + len(imm)
        else:
            out.append(Instruction(i, op))
            i += 1
    return out
