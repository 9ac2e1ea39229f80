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

import operator
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

from ._keccak import keccak256
from .bytecode import OPCODE_NAMES, PUSH1, PUSH32, fill, first_mismatch
from .errors import (
    BadJumpDestinationError,
    CreationDidNotReturnError,
    EmptyLocalBytecodeError,
    ForeignReturnDataError,
    LengthMismatchError,
    MemoryLimitExceededError,
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
    SIM_TRUSTED = "sim-trusted"      # execute creation, use its return verbatim
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


def _sdiv(a: int, b: int) -> int:
    """Signed division, truncated toward zero; x / 0 is 0."""
    sa, sb = _signed(a), _signed(b)
    return 0 if sb == 0 else abs(sa) // abs(sb) * (1 if (sa < 0) == (sb < 0) else -1)


def _smod(a: int, b: int) -> int:
    """Signed remainder, its sign the dividend's; x % 0 is 0."""
    sa, sb = _signed(a), _signed(b)
    return 0 if sb == 0 else abs(sa) % abs(sb) * (1 if sa >= 0 else -1)


def _signextend(i: int, x: int) -> int:
    """x with byte i (0 the lowest) as its sign byte; i >= 32 leaves x."""
    if i >= 32:
        return x
    bit = 8 * i + 7
    mask = (1 << (bit + 1)) - 1
    return x | (UINT256 ^ mask) if x & (1 << bit) else x & mask


# The stack ops that pop their operands, top of stack first, and push one
# word: opcode -> (operands, function).  The push masks to 256 bits.
_PURE_OPS: dict[int, tuple[int, Callable[..., int]]] = {
    0x01: (2, operator.add),                                  # ADD
    0x02: (2, operator.mul),                                  # MUL
    0x03: (2, operator.sub),                                  # SUB
    0x04: (2, lambda a, b: a // b if b else 0),               # DIV
    0x05: (2, _sdiv),                                         # SDIV
    0x06: (2, lambda a, b: a % b if b else 0),                # MOD
    0x07: (2, _smod),                                         # SMOD
    0x08: (3, lambda a, b, n: (a + b) % n if n else 0),       # ADDMOD
    0x09: (3, lambda a, b, n: (a * b) % n if n else 0),       # MULMOD
    0x0A: (2, lambda a, b: pow(a, b, 1 << 256)),              # EXP
    0x0B: (2, _signextend),                                   # SIGNEXTEND
    0x10: (2, operator.lt),                                   # LT
    0x11: (2, operator.gt),                                   # GT
    0x12: (2, lambda a, b: _signed(a) < _signed(b)),          # SLT
    0x13: (2, lambda a, b: _signed(a) > _signed(b)),          # SGT
    0x14: (2, operator.eq),                                   # EQ
    0x15: (1, lambda a: a == 0),                              # ISZERO
    0x16: (2, operator.and_),                                 # AND
    0x17: (2, operator.or_),                                  # OR
    0x18: (2, operator.xor),                                  # XOR
    0x19: (1, lambda a: a ^ UINT256),                         # NOT
    0x1A: (2, lambda i, x: x >> (8 * (31 - i)) & 0xFF if i < 32 else 0),  # BYTE
    0x1B: (2, lambda s, v: v << s if s < 256 else 0),         # SHL
    0x1C: (2, lambda s, v: v >> s if s < 256 else 0),         # SHR
    0x1D: (2, lambda s, v: _signed(v) >> min(s, 256)),        # SAR
}

# opcode -> (reason, operands); RETURN and REVERT pop the memory they return
_HALTS = {
    0x00: (HaltReason.STOP, 0),
    0xF3: (HaltReason.RETURN, 2),
    0xFD: (HaltReason.REVERT, 2),
    0xFE: (HaltReason.INVALID, 0),  # the designated INVALID
}


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
    pc = 0
    steps = 0
    # the reads of the environment and of the code: opcode -> the word pushed
    reads = {
        0x30: int.from_bytes(env.address, "big"),  # ADDRESS
        0x33: int.from_bytes(env.caller, "big"),   # CALLER
        0x34: env.callvalue,                       # CALLVALUE
        0x36: len(code),                           # CALLDATASIZE
        0x38: len(code),                           # CODESIZE
        0x42: env.timestamp,                       # TIMESTAMP
        0x43: env.number,                          # NUMBER
    }

    def pop(n: int) -> list[int]:
        if len(stack) < n:
            raise StackUnderflowError(f"need {n} items, have {len(stack)} (pc={pc})")
        return [stack.pop() for _ in range(n)]

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

    def read_code(offset: int, size: int) -> bytes:
        chunk = code[offset:offset + size]
        return chunk + bytes(size - len(chunk))

    def read_memory(offset: int, size: int) -> bytes:
        touch(offset, size)
        return bytes(memory[offset:offset + size])

    def halt(reason: HaltReason, offset: int = 0, size: int = 0) -> ExecutionResult:
        return ExecutionResult(read_memory(offset, size), reason, steps, storage)

    while pc < len(code):
        if steps >= step_limit:
            raise StepLimitExceededError(f"exceeded {step_limit} steps")
        steps += 1
        op = code[pc]

        if PUSH1 <= op <= PUSH32:
            width = op - PUSH1 + 1
            imm = read_code(pc + 1, width)  # truncated push zero-pads
            push(int.from_bytes(imm, "big"))
            pc += 1 + width
            continue

        pure = _PURE_OPS.get(op)
        if pure is not None:
            inputs, function = pure
            push(function(*pop(inputs)))
        elif 0x80 <= op <= 0x8F:  # DUP1..DUP16
            depth = op - 0x7F
            if len(stack) < depth:
                raise StackUnderflowError(f"DUP{depth} on {len(stack)} items")
            push(stack[-depth])
        elif 0x90 <= op <= 0x9F:  # SWAP1..SWAP16
            depth = op - 0x8F
            if len(stack) < depth + 1:
                raise StackUnderflowError(f"SWAP{depth} on {len(stack)} items")
            stack[-1], stack[-1 - depth] = stack[-1 - depth], stack[-1]
        elif op in reads:
            push(reads[op])
        elif op == 0x20:  # KECCAK256
            push(int.from_bytes(keccak256(read_memory(*pop(2))), "big"))
        elif op == 0x35:  # CALLDATALOAD (calldata view of creation ++ args)
            push(int.from_bytes(read_code(*pop(1), 32), "big"))
        elif op == 0x37 or op == 0x39:  # CALLDATACOPY, CODECOPY: one buffer
            dest, offset, size = pop(3)
            touch(dest, size)
            memory[dest:dest + size] = read_code(offset, size)
        elif op == 0x50:  # POP
            pop(1)
        elif op == 0x51:  # MLOAD
            push(int.from_bytes(read_memory(*pop(1), 32), "big"))
        elif op == 0x52:  # MSTORE
            offset, value = pop(2)
            touch(offset, 32)
            memory[offset:offset + 32] = value.to_bytes(32, "big")
        elif op == 0x53:  # MSTORE8
            offset, value = pop(2)
            touch(offset, 1)
            memory[offset] = value & 0xFF
        elif op == 0x54:  # SLOAD
            push(storage.get(*pop(1), 0))
        elif op == 0x55:  # SSTORE
            key, value = pop(2)
            storage[key] = value
        elif op == 0x56:  # JUMP
            pc = jump_target(*pop(1))
            continue
        elif op == 0x57:  # JUMPI
            dest, cond = pop(2)
            if cond:
                pc = jump_target(dest)
                continue
        elif op == 0x5B:  # JUMPDEST
            pass
        elif op in _HALTS:
            reason, inputs = _HALTS[op]
            return halt(reason, *pop(inputs))
        elif op in OPCODE_NAMES:
            raise UnsupportedOpcodeError(
                f"{OPCODE_NAMES[op]} (0x{op:02x}) at pc={pc} is outside the "
                "supported constructor subset")
        else:
            # bytes undefined in the EVM abort execution; that is simulable
            return halt(HaltReason.INVALID)
        pc += 1
    return halt(HaltReason.STOP)  # ran off the end of the code


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
    The regions are a CompilationOutput's immutable references, which it
    checked lie inside the template and do not overlap.
    """
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
    i = first_mismatch(fill(template, refs, returned), returned)
    if i is not None:
        raise ForeignReturnDataError(
            f"returned code deviates from template at offset {i} "
            f"(outside immutable regions)")
    return returned


def backfill_immutables_from_chain(
    template: bytes,
    refs: list[ImmutableRef],
    onchain: bytes,
) -> bytes:
    """Copy on-chain bytes into the immutable regions (no execution).

    The copied values are not verified against the constructor; callers must
    audit each region as unverified.  The regions are a CompilationOutput's
    immutable references, which it checked lie inside the template.
    """
    if len(onchain) != len(template):
        raise LengthMismatchError(
            f"on-chain code is {len(onchain)} bytes, template is {len(template)}")
    return fill(template, refs, onchain)
