"""Bounded mini-EVM for constructor execution and immutable resolution.

Deployment-time values (immutables) only exist in the returned runtime code,
so verification executes the creation code locally and reads them out of the
return data.  The interpreter covers the opcode subset constructors actually
need; anything with real semantics we cannot reproduce (external calls,
CREATE, EXTCODE*, LOG, SELFDESTRUCT, ...) raises UnsupportedOpcodeError
rather than guessing.  Per the engine's execution model the joined buffer
creation ++ args serves as both the code space and the calldata space.

Trusting the returned bytes verbatim is the R2 defect: a constructor can
return anything, including a foreign contract's runtime.  The hardened
resolver accepts the return only if it has the template's length and agrees
with it outside the declared immutable regions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from ._keccak import keccak256
from .bytecode import OPCODE_NAMES, PUSH1, PUSH32, first_mismatch
from .errors import (
    BadJumpDestinationError,
    CreationDidNotReturnError,
    EmptyLocalBytecodeError,
    ForeignReturnDataError,
    LengthMismatchError,
    MemoryLimitExceededError,
    SpanOutOfRangeError,
    StackOverflowError_,
    StackUnderflowError,
    StepLimitExceededError,
    UnsupportedOpcodeError,
)

UINT256 = (1 << 256) - 1
SIGN_BIT = 1 << 255
STACK_LIMIT = 1024
STEP_LIMIT = 1_000_000
MEMORY_LIMIT = 1 << 20  # 1 MiB bounds adversarial expansion


class HaltReason(Enum):
    RETURN = "return"
    STOP = "stop"
    REVERT = "revert"
    INVALID = "invalid"


class ImmutableStrategy(Enum):
    SIM_GUARDED = "sim-guarded"      # execute creation, check return against template
    CHAIN_BACKFILL = "chain-backfill"  # copy on-chain bytes into the regions


@dataclass(frozen=True)
class ImmutableRef:
    """One deployment-time-assigned region in the runtime template."""

    offset: int
    length: int
    name: str = ""

    @property
    def end(self) -> int:
        return self.offset + self.length


@dataclass(frozen=True)
class ExecutionEnv:
    """Fixed environment constants the constructor simulation runs under."""

    caller: bytes = bytes.fromhex("00000000000000000000000000000000c0ffee01")
    address: bytes = bytes.fromhex("00000000000000000000000000000000def1ed02")
    callvalue: int = 0
    timestamp: int = 1_600_000_000
    number: int = 12_000_000


DEFAULT_ENV = ExecutionEnv()


@dataclass
class ExecutionResult:
    return_data: bytes
    halted: HaltReason
    steps: int
    storage_writes: dict[int, int] = field(default_factory=dict)


def _signed(x: int) -> int:
    return x - (1 << 256) if x & SIGN_BIT else x


# the only opcodes that change the jump-destination walk: JUMPDEST, PUSHn
_JUMPDEST_OR_PUSH = re.compile(rb"[\x5b\x60-\x7f]")


def _valid_jumpdests(code: bytes) -> set[int]:
    """Offsets of JUMPDEST opcodes, push immediates stepped over.

    Hops from one JUMPDEST or PUSHn byte to the next, so the cost follows
    how many there are rather than the length of the code.
    """
    dests = set()
    search = _JUMPDEST_OR_PUSH.search
    hit = search(code)
    while hit is not None:
        i = hit.start()
        op = code[i]
        if op == 0x5B:
            dests.add(i)
            i += 1
        else:
            i += op - PUSH1 + 2
        hit = search(code, i)
    return dests


def execute_creation(
    creation: bytes,
    args: bytes = b"",
    env: ExecutionEnv = DEFAULT_ENV,
    step_limit: int = STEP_LIMIT,
) -> ExecutionResult:
    """Run creation ++ args in the bounded interpreter until it halts."""
    code = creation + args
    dests: set[int] | None = None  # walked on the first jump, if any
    stack: list[int] = []
    memory = bytearray()
    storage: dict[int, int] = {}
    writes: dict[int, int] = {}
    pc = 0
    steps = 0

    def pop(n: int = 1) -> list[int]:
        if len(stack) < n:
            raise StackUnderflowError(f"need {n} items, have {len(stack)} (pc={pc})")
        vals = [stack.pop() for _ in range(n)]
        return vals

    def push(v: int) -> None:
        if len(stack) >= STACK_LIMIT:
            raise StackOverflowError_(f"stack past {STACK_LIMIT} entries (pc={pc})")
        stack.append(v & UINT256)

    def touch(offset: int, size: int) -> None:
        if size == 0:
            return
        end = offset + size
        if end > MEMORY_LIMIT:
            raise MemoryLimitExceededError(f"memory to {end} exceeds {MEMORY_LIMIT}")
        if end > len(memory):
            memory.extend(bytes(end - len(memory)))

    def jump_target(dest: int) -> int:
        nonlocal dests
        if dests is None:
            dests = _valid_jumpdests(code)
        if dest not in dests:
            raise BadJumpDestinationError(f"jump to {dest:#x}")
        return dest

    def read_buffer(buf: bytes, offset: int, size: int) -> bytes:
        chunk = buf[offset:offset + size]
        return chunk + bytes(size - len(chunk))

    while True:
        if pc >= len(code):
            return ExecutionResult(b"", HaltReason.STOP, steps, writes)
        if steps >= step_limit:
            raise StepLimitExceededError(f"exceeded {step_limit} steps")
        steps += 1
        op = code[pc]

        if PUSH1 <= op <= PUSH32:
            width = op - PUSH1 + 1
            imm = read_buffer(code, pc + 1, width)  # truncated push zero-pads
            push(int.from_bytes(imm, "big"))
            pc += 1 + width
            continue
        if 0x80 <= op <= 0x8F:  # DUP1..DUP16
            depth = op - 0x7F
            if len(stack) < depth:
                raise StackUnderflowError(f"DUP{depth} on {len(stack)} items")
            push(stack[-depth])
            pc += 1
            continue
        if 0x90 <= op <= 0x9F:  # SWAP1..SWAP16
            depth = op - 0x8F
            if len(stack) < depth + 1:
                raise StackUnderflowError(f"SWAP{depth} on {len(stack)} items")
            stack[-1], stack[-1 - depth] = stack[-1 - depth], stack[-1]
            pc += 1
            continue

        if op == 0x00:  # STOP
            return ExecutionResult(b"", HaltReason.STOP, steps, writes)
        if op == 0x01:  # ADD
            a, b = pop(2)
            push(a + b)
        elif op == 0x02:  # MUL
            a, b = pop(2)
            push(a * b)
        elif op == 0x03:  # SUB
            a, b = pop(2)
            push(a - b)
        elif op == 0x04:  # DIV
            a, b = pop(2)
            push(0 if b == 0 else a // b)
        elif op == 0x05:  # SDIV (truncates toward zero)
            a, b = pop(2)
            sa, sb = _signed(a), _signed(b)
            push(0 if sb == 0 else (abs(sa) // abs(sb)) * (1 if (sa < 0) == (sb < 0) else -1))
        elif op == 0x06:  # MOD
            a, b = pop(2)
            push(0 if b == 0 else a % b)
        elif op == 0x07:  # SMOD (sign follows dividend)
            a, b = pop(2)
            sa, sb = _signed(a), _signed(b)
            push(0 if sb == 0 else (abs(sa) % abs(sb)) * (1 if sa >= 0 else -1))
        elif op == 0x08:  # ADDMOD
            a, b, n = pop(3)
            push(0 if n == 0 else (a + b) % n)
        elif op == 0x09:  # MULMOD
            a, b, n = pop(3)
            push(0 if n == 0 else (a * b) % n)
        elif op == 0x0A:  # EXP
            a, b = pop(2)
            push(pow(a, b, 1 << 256))
        elif op == 0x0B:  # SIGNEXTEND
            i, x = pop(2)
            if i < 32:
                bit = 8 * i + 7
                mask = (1 << (bit + 1)) - 1
                push((x | (UINT256 ^ mask)) if x & (1 << bit) else x & mask)
            else:
                push(x)
        elif op == 0x10:  # LT
            a, b = pop(2)
            push(1 if a < b else 0)
        elif op == 0x11:  # GT
            a, b = pop(2)
            push(1 if a > b else 0)
        elif op == 0x12:  # SLT
            a, b = pop(2)
            push(1 if _signed(a) < _signed(b) else 0)
        elif op == 0x13:  # SGT
            a, b = pop(2)
            push(1 if _signed(a) > _signed(b) else 0)
        elif op == 0x14:  # EQ
            a, b = pop(2)
            push(1 if a == b else 0)
        elif op == 0x15:  # ISZERO
            (a,) = pop(1)
            push(1 if a == 0 else 0)
        elif op == 0x16:  # AND
            a, b = pop(2)
            push(a & b)
        elif op == 0x17:  # OR
            a, b = pop(2)
            push(a | b)
        elif op == 0x18:  # XOR
            a, b = pop(2)
            push(a ^ b)
        elif op == 0x19:  # NOT
            (a,) = pop(1)
            push(a ^ UINT256)
        elif op == 0x1A:  # BYTE
            i, x = pop(2)
            push(0 if i >= 32 else (x >> (8 * (31 - i))) & 0xFF)
        elif op == 0x1B:  # SHL
            s, v = pop(2)
            push(0 if s >= 256 else v << s)
        elif op == 0x1C:  # SHR
            s, v = pop(2)
            push(0 if s >= 256 else v >> s)
        elif op == 0x1D:  # SAR
            s, v = pop(2)
            sv = _signed(v)
            if s >= 256:
                push(0 if sv >= 0 else UINT256)
            else:
                push(sv >> s)
        elif op == 0x20:  # KECCAK256
            offset, size = pop(2)
            touch(offset, size)
            push(int.from_bytes(keccak256(bytes(memory[offset:offset + size])), "big"))
        elif op == 0x30:  # ADDRESS
            push(int.from_bytes(env.address, "big"))
        elif op == 0x33:  # CALLER
            push(int.from_bytes(env.caller, "big"))
        elif op == 0x34:  # CALLVALUE
            push(env.callvalue)
        elif op == 0x35:  # CALLDATALOAD (calldata view of creation ++ args)
            (offset,) = pop(1)
            push(int.from_bytes(read_buffer(code, offset, 32), "big"))
        elif op == 0x36:  # CALLDATASIZE
            push(len(code))
        elif op == 0x37:  # CALLDATACOPY
            dest, offset, size = pop(3)
            touch(dest, size)
            memory[dest:dest + size] = read_buffer(code, offset, size)
        elif op == 0x38:  # CODESIZE
            push(len(code))
        elif op == 0x39:  # CODECOPY
            dest, offset, size = pop(3)
            touch(dest, size)
            memory[dest:dest + size] = read_buffer(code, offset, size)
        elif op == 0x42:  # TIMESTAMP
            push(env.timestamp)
        elif op == 0x43:  # NUMBER
            push(env.number)
        elif op == 0x50:  # POP
            pop(1)
        elif op == 0x51:  # MLOAD
            (offset,) = pop(1)
            touch(offset, 32)
            push(int.from_bytes(memory[offset:offset + 32], "big"))
        elif op == 0x52:  # MSTORE
            offset, value = pop(2)
            touch(offset, 32)
            memory[offset:offset + 32] = value.to_bytes(32, "big")
        elif op == 0x53:  # MSTORE8
            offset, value = pop(2)
            touch(offset, 1)
            memory[offset] = value & 0xFF
        elif op == 0x54:  # SLOAD
            (key,) = pop(1)
            push(storage.get(key, 0))
        elif op == 0x55:  # SSTORE
            key, value = pop(2)
            storage[key] = value
            writes[key] = value
        elif op == 0x56:  # JUMP
            (dest,) = pop(1)
            pc = jump_target(dest)
            continue
        elif op == 0x57:  # JUMPI
            dest, cond = pop(2)
            if cond:
                pc = jump_target(dest)
                continue
        elif op == 0x5B:  # JUMPDEST
            pass
        elif op == 0xF3:  # RETURN
            offset, size = pop(2)
            touch(offset, size)
            return ExecutionResult(bytes(memory[offset:offset + size]),
                                   HaltReason.RETURN, steps, writes)
        elif op == 0xFD:  # REVERT
            offset, size = pop(2)
            touch(offset, size)
            return ExecutionResult(bytes(memory[offset:offset + size]),
                                   HaltReason.REVERT, steps, writes)
        elif op == 0xFE:  # designated INVALID
            return ExecutionResult(b"", HaltReason.INVALID, steps, writes)
        elif op in OPCODE_NAMES:
            raise UnsupportedOpcodeError(
                f"{OPCODE_NAMES[op]} (0x{op:02x}) at pc={pc} is outside the "
                "supported constructor subset")
        else:
            # bytes undefined in the EVM abort execution; that is simulable
            return ExecutionResult(b"", HaltReason.INVALID, steps, writes)
        pc += 1


def _check_refs(template: bytes, refs: list[ImmutableRef]) -> None:
    last_end = 0
    for ref in sorted(refs, key=lambda r: r.offset):
        if ref.offset < 0 or ref.length < 0 or ref.end > len(template):
            raise SpanOutOfRangeError(
                f"immutable region [{ref.offset}, {ref.end}) outside template")
        if ref.offset < last_end:
            raise SpanOutOfRangeError(f"immutable region at {ref.offset} overlaps previous")
        last_end = ref.end


def resolve_immutables_by_simulation(
    template: bytes,
    refs: list[ImmutableRef],
    creation: bytes,
    args: bytes = b"",
    env: ExecutionEnv = DEFAULT_ENV,
    trust_simulated_return: bool = False,
) -> bytes:
    """Fill immutable regions by executing the creation code.

    With trust_simulated_return the return data is used verbatim (the R2
    defect).  Otherwise the return must be template-shaped: same length and
    byte-identical outside the declared regions, else ForeignReturnDataError.
    """
    _check_refs(template, refs)
    if not creation:
        # executing creation ++ args with no creation bytes would run pure
        # caller data as the constructor
        raise EmptyLocalBytecodeError("no compiled constructor to simulate")
    result = execute_creation(creation, args, env)
    if result.halted is not HaltReason.RETURN:
        raise CreationDidNotReturnError(
            f"constructor halted with {result.halted.value} after {result.steps} steps")
    returned = result.return_data
    if trust_simulated_return:
        return returned
    if len(returned) != len(template):
        raise ForeignReturnDataError(
            f"constructor returned {len(returned)} bytes, template is {len(template)}")
    # _check_refs ensured the regions are in range and do not overlap, so
    # the gaps between them, sorted, run from each end to the next offset
    regions = sorted((ref.offset, ref.end) for ref in refs)
    starts = [0] + [end for _, end in regions]
    stops = [offset for offset, _ in regions] + [len(template)]
    for start, stop in zip(starts, stops):
        i = first_mismatch(returned[start:stop], template[start:stop])
        if i is not None:
            raise ForeignReturnDataError(
                f"returned code deviates from template at offset {start + i} "
                f"(outside immutable regions)")
    return returned


def backfill_immutables_from_chain(
    template: bytes,
    refs: list[ImmutableRef],
    onchain: bytes,
) -> bytes:
    """Copy on-chain bytes into the immutable regions (no execution).

    The copied values are not verified against the constructor; callers must
    audit each region as unverified.
    """
    _check_refs(template, refs)
    if len(onchain) != len(template):
        raise LengthMismatchError(
            f"on-chain code is {len(onchain)} bytes, template is {len(template)}")
    out = bytearray(template)
    for ref in refs:
        out[ref.offset:ref.end] = onchain[ref.offset:ref.end]
    return bytes(out)
