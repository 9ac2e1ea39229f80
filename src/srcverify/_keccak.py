"""Keccak-256 (legacy pad 0x01, as used for EVM code hashes and CREATE2).

hashlib's sha3_256 applies the NIST domain padding (0x06) and produces
different digests, so the sponge is implemented here directly.  State is 25
little-endian 64-bit lanes, flat index x + 5*y; rate for the 256-bit variant
is 136 bytes.

Two transforms cut the interpreter operations per round:

- Lane complementing (Keccak implementation overview, section 2.2).  The
  lanes of _COMPLEMENTED, flat indices 1, 2, 8, 12, 17 and 20, are held as
  their complements (xor 2**64 - 1) between rounds.  Theta, rho and pi are
  linear, so they carry the complements through; chi is then written with
  ``|`` or ``&`` so that only 8 of its 25 lanes need a complemented operand,
  where the plain ``b ^ (~c & d)`` needs one each, and three pairs of those
  lanes share theirs: 5 xors with the mask a round.  The sponge applies the
  pattern to the zero state once and removes it from the squeezed lanes.
- Multiply-rotate.  For 0 <= t < 2**64, t * (2**64 + 1) is two copies of t
  side by side, so ``(t * K >> (64 - r)) & M`` is t rotated left by r in
  three operations rather than four.  That holds only while every lane stays
  in [0, 2**64): each lane is built from xor, ``&``, ``|`` and the mask,
  never from ``~``, which would make it negative.
"""

from __future__ import annotations

import struct
from operator import xor

_MASK = (1 << 64) - 1

_ROUND_CONSTANTS = (
    0x0000000000000001, 0x0000000000008082, 0x800000000000808A,
    0x8000000080008000, 0x000000000000808B, 0x0000000080000001,
    0x8000000080008081, 0x8000000000008009, 0x000000000000008A,
    0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
    0x000000008000808B, 0x800000000000008B, 0x8000000000008089,
    0x8000000000008003, 0x8000000000008002, 0x8000000000000080,
    0x000000000000800A, 0x800000008000000A, 0x8000000080008081,
    0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
)

# the xor that turns a state into its lane-complemented form and back
_COMPLEMENTED = tuple(_MASK if i in (1, 2, 8, 12, 17, 20) else 0
                      for i in range(25))


def _permute(lanes: list[int]) -> None:
    """Keccak-f[1600] in place on a lane-complemented state.

    Each round computes the theta column parities c and offsets d, then
    fuses theta, rho and pi: lane (x, y) xor d[x], rotated left by its rho
    offset, lands at (y, 2x + 3y) in b.  Chi maps b back into a, and iota
    is the xor of rc into lane 0.  The rotation offsets and pi positions
    are the literals of FIPS 202; tests check the digests against an
    independent implementation.
    """
    M = _MASK
    K = _MASK + 2
    (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
     a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24) = lanes
    for rc in _ROUND_CONSTANTS:
        c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20
        c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21
        c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22
        c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23
        c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24
        d0 = c4 ^ (c1 * K >> 63) & M
        d1 = c0 ^ (c2 * K >> 63) & M
        d2 = c1 ^ (c3 * K >> 63) & M
        d3 = c2 ^ (c4 * K >> 63) & M
        d4 = c3 ^ (c0 * K >> 63) & M
        b0 = a0 ^ d0
        b1 = ((a6 ^ d1) * K >> 20) & M
        b2 = ((a12 ^ d2) * K >> 21) & M
        b3 = ((a18 ^ d3) * K >> 43) & M
        b4 = ((a24 ^ d4) * K >> 50) & M
        b5 = ((a3 ^ d3) * K >> 36) & M
        b6 = ((a9 ^ d4) * K >> 44) & M
        b7 = ((a10 ^ d0) * K >> 61) & M
        b8 = ((a16 ^ d1) * K >> 19) & M
        b9 = ((a22 ^ d2) * K >> 3) & M
        b10 = ((a1 ^ d1) * K >> 63) & M
        b11 = ((a7 ^ d2) * K >> 58) & M
        b12 = ((a13 ^ d3) * K >> 39) & M
        b13 = ((a19 ^ d4) * K >> 56) & M
        b14 = ((a20 ^ d0) * K >> 46) & M
        b15 = ((a4 ^ d4) * K >> 37) & M
        b16 = ((a5 ^ d0) * K >> 28) & M
        b17 = ((a11 ^ d1) * K >> 54) & M
        b18 = ((a17 ^ d2) * K >> 49) & M
        b19 = ((a23 ^ d3) * K >> 8) & M
        b20 = ((a2 ^ d2) * K >> 2) & M
        b21 = ((a8 ^ d3) * K >> 9) & M
        b22 = ((a14 ^ d4) * K >> 25) & M
        b23 = ((a15 ^ d0) * K >> 23) & M
        b24 = ((a21 ^ d1) * K >> 62) & M
        a0 = b0 ^ (b1 | b2) ^ rc
        a1 = b1 ^ ((b2 ^ M) | b3)
        a2 = b2 ^ (b3 & b4)
        a3 = b3 ^ (b4 | b0)
        a4 = b4 ^ (b0 & b1)
        a5 = b5 ^ (b6 | b7)
        a6 = b6 ^ (b7 & b8)
        a7 = b7 ^ (b8 | (b9 ^ M))
        a8 = b8 ^ (b9 | b5)
        a9 = b9 ^ (b5 & b6)
        a10 = b10 ^ (b11 | b12)
        a11 = b11 ^ (b12 & b13)
        n = b13 ^ M  # the complemented operand of the next two lanes
        a12 = b12 ^ (n & b14)
        a13 = n ^ (b14 | b10)
        a14 = b14 ^ (b10 & b11)
        a15 = b15 ^ (b16 & b17)
        a16 = b16 ^ (b17 | b18)
        n = b18 ^ M
        a17 = b17 ^ (n | b19)
        a18 = n ^ (b19 & b15)
        a19 = b19 ^ (b15 | b16)
        n = b21 ^ M
        a20 = b20 ^ (n & b22)
        a21 = n ^ (b22 | b23)
        a22 = b22 ^ (b23 & b24)
        a23 = b23 ^ (b24 | b20)
        a24 = b24 ^ (b20 & b21)
    lanes[:] = (a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12,
                a13, a14, a15, a16, a17, a18, a19, a20, a21, a22, a23, a24)


_RATE = 136  # bytes, for capacity 512
_BLOCK = struct.Struct("<17Q")
_DIGEST = struct.Struct("<4Q")


def keccak256(data: bytes) -> bytes:
    """Digest `data` with Keccak-256 (the pre-NIST padding used by the EVM)."""
    padded = bytearray(data)
    padded += bytes(_RATE - len(padded) % _RATE)
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80
    lanes = list(_COMPLEMENTED)
    for block in _BLOCK.iter_unpack(padded):
        lanes[:17] = map(xor, lanes, block)
        _permute(lanes)
    return _DIGEST.pack(*map(xor, lanes[:4], _COMPLEMENTED))
