"""Deterministic bytecode corpus with planted legacy-metadata candidates.

Every generated code either satisfies all candidate conditions by
construction or breaks exactly one of them, so the expected survivor set is
known without running either implementation.
"""

from __future__ import annotations

import random

_MARKER = bytes.fromhex("a165627a7a7230")
_SIMPLE_OPS = bytes.fromhex("000102035055355256805b9090f3")


def make_legacy_metadata_block(swarm_hash: bytes) -> bytes:
    """The 43-byte 0.4-era trailing metadata block (swarm hash form)."""
    assert len(swarm_hash) == 32
    return _MARKER + b"\x58\x20" + swarm_hash + b"\x00\x29"


def _safe_body(rng: random.Random, min_ops: int = 4, max_ops: int = 24) -> bytes:
    """Instruction sequence that breaks no candidate condition.

    Opcodes never include 0xa1, multi-byte pushes never start their
    immediate with zero, and the sequence always ends on a boundary.
    """
    out = bytearray()
    for _ in range(rng.randint(min_ops, max_ops)):
        kind = rng.random()
        if kind < 0.4:
            out += bytes([0x60, rng.randrange(256)])
        elif kind < 0.6:
            width = rng.randint(2, 32)
            out += bytes([0x60 + width - 1, rng.randint(1, 255)])
            out += rng.randbytes(width - 1)
        else:
            out.append(rng.choice(_SIMPLE_OPS))
    return bytes(out)


def _broken(rng: random.Random, kind: int) -> bytes:
    body = _safe_body(rng)
    block = make_legacy_metadata_block(rng.randbytes(32))
    if kind == 0:    # marker corrupted
        bad = bytearray(block)
        bad[3] ^= 0x01
        return body + bytes(bad)
    if kind == 1:    # wrong length/tag byte pair after the marker
        return body + _MARKER + b"\x58\x21" + rng.randbytes(32) + b"\x00\x29"
    if kind == 2:    # wrong length suffix
        return body + block[:-2] + b"\x00\x28"
    if kind == 3:    # zero-leading multi-byte push in the body
        return body + b"\x61\x00" + rng.randbytes(1) + block
    if kind == 4:    # final push would swallow the block as data
        return body + b"\x61" + block
    if kind == 5:    # second block head at an instruction boundary
        return body + _MARKER + _safe_body(rng, 2, 6) + block
    if kind == 6:    # too short to hold a block at all
        return rng.randbytes(rng.randint(0, 42))
    raise AssertionError(kind)


def build_r1_corpus(seed: int = 1337, size: int = 1000, planted: int = 7):
    """Return (corpus, expected_addresses).

    corpus is a list of (address, code) pairs; expected_addresses is the
    set of planted candidate addresses, in corpus order.
    """
    rng = random.Random(seed)
    slots = sorted(rng.sample(range(size), planted))
    corpus: list[tuple[str, bytes]] = []
    expected: list[str] = []
    for index in range(size):
        address = "0x" + rng.randbytes(20).hex()
        if index in slots:
            body = _safe_body(rng)
            code = body + make_legacy_metadata_block(rng.randbytes(32))
            expected.append(address)
        else:
            code = _broken(rng, rng.randrange(7))
        corpus.append((address, code))
    return corpus, expected
