"""Independent reference implementations used only as test oracles.

Nothing in here imports from srcverify: each oracle re-derives its answer
through a different route than the code under test.

- keccak256_oracle: textbook 5x5-matrix Keccak with round constants and
  rotation offsets generated from the LFSR / triangular-number definitions
  instead of literal tables.
- create2_oracle: EIP-1014 address formula on top of the oracle hash.
- encode_arguments: a reference ABI *encoder*; the package only decodes, so
  round-trips through this encoder share no code with the decoder.
- r1_candidate_oracle: a second, hex-string-level implementation of the
  legacy-metadata candidate filter.
- metadata_scan_oracle: the strict ipfs+solc block scan, testing every
  offset in turn.
- first_mismatch_oracle, template_deviation_oracle: byte-by-byte walks for
  the slice-comparing mismatch search and the constructor-return check.
- jumpdest_oracle: the per-byte walk for valid jump destinations.
- code_hash_lookup_oracle: the inheritance lookup, parsing every manifest.
- layout_clash_oracle: the store's check for a path needed twice or as both
  a file and a directory, built from pathlib's parents chains.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


# --- Keccak-256 ---

def _rc_bit(t: int) -> int:
    if t % 255 == 0:
        return 1
    r = 1
    for _ in range(1, t % 255 + 1):
        r <<= 1
        if r & 0x100:
            r ^= 0x171
    return r & 1


def _round_constants() -> list[int]:
    constants = []
    for ir in range(24):
        rc = 0
        for j in range(7):
            if _rc_bit(j + 7 * ir):
                rc |= 1 << (2 ** j - 1)
        constants.append(rc)
    return constants


def _rotation_offsets() -> list[list[int]]:
    offsets = [[0] * 5 for _ in range(5)]
    x, y = 1, 0
    for t in range(24):
        offsets[x][y] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    return offsets


_RC = _round_constants()
_ROT = _rotation_offsets()
_W = (1 << 64) - 1


def _rot64(v: int, n: int) -> int:
    n %= 64
    if n == 0:
        return v
    return ((v << n) & _W) | (v >> (64 - n))


def _keccak_f(a: list[list[int]]) -> None:
    for rnd in range(24):
        c = [a[x][0] ^ a[x][1] ^ a[x][2] ^ a[x][3] ^ a[x][4] for x in range(5)]
        d = [c[(x - 1) % 5] ^ _rot64(c[(x + 1) % 5], 1) for x in range(5)]
        for x in range(5):
            for y in range(5):
                a[x][y] ^= d[x]
        b = [[0] * 5 for _ in range(5)]
        for x in range(5):
            for y in range(5):
                b[y][(2 * x + 3 * y) % 5] = _rot64(a[x][y], _ROT[x][y])
        for x in range(5):
            for y in range(5):
                a[x][y] = b[x][y] ^ ((b[(x + 1) % 5][y] ^ _W) & b[(x + 2) % 5][y])
        a[0][0] ^= _RC[rnd]


def keccak256_oracle(data: bytes) -> bytes:
    rate = 136
    state = [[0] * 5 for _ in range(5)]
    msg = bytearray(data)
    msg.append(0x01)
    while len(msg) % rate:
        msg.append(0x00)
    msg[-1] |= 0x80
    for off in range(0, len(msg), rate):
        for i in range(rate // 8):
            lane = int.from_bytes(msg[off + 8 * i:off + 8 * i + 8], "little")
            state[i % 5][i // 5] ^= lane
        _keccak_f(state)
    digest = bytearray()
    for i in range(4):
        digest += state[i % 5][i // 5].to_bytes(8, "little")
    return bytes(digest)


# --- CREATE2 (EIP-1014) ---

def create2_oracle(deployer: bytes, salt: bytes, init_code: bytes) -> bytes:
    assert len(deployer) == 20 and len(salt) == 32
    preimage = b"\xff" + deployer + salt + keccak256_oracle(init_code)
    return keccak256_oracle(preimage)[12:]


# --- reference ABI encoder (head/tail, canonical layout) ---

def _is_dynamic(type_str: str) -> bool:
    if type_str == "bytes" or type_str == "string":
        return True
    if type_str.endswith("[]"):
        return True
    if type_str.endswith("]"):
        base = type_str[:type_str.rindex("[")]
        return _is_dynamic(base)
    return False


def _encode_word(value: int) -> bytes:
    return (value % (1 << 256)).to_bytes(32, "big")


def _encode_value(type_str: str, value) -> bytes:
    """Encode one value of a static or dynamic type (without its head slot)."""
    if type_str.endswith("[]"):
        base = type_str[:-2]
        return _encode_word(len(value)) + encode_arguments([base] * len(value), value)
    if type_str.endswith("]"):
        base = type_str[:type_str.rindex("[")]
        n = int(type_str[type_str.rindex("[") + 1:-1])
        assert len(value) == n
        return encode_arguments([base] * n, value)
    if type_str == "uint256":
        return _encode_word(value)
    if type_str == "int256":
        return _encode_word(value & ((1 << 256) - 1))
    if type_str == "address":
        assert len(value) == 20
        return b"\x00" * 12 + value
    if type_str == "bool":
        return _encode_word(1 if value else 0)
    if type_str.startswith("bytes") and type_str not in ("bytes",):
        n = int(type_str[5:])
        assert len(value) == n
        return value + b"\x00" * (32 - n)
    if type_str in ("bytes", "string"):
        data = value if isinstance(value, bytes) else value.encode()
        padded = data + b"\x00" * ((32 - len(data) % 32) % 32)
        return _encode_word(len(data)) + padded
    raise AssertionError(f"oracle cannot encode {type_str}")


def encode_arguments(type_strs: list[str], values: list) -> bytes:
    """Canonical ABI encoding of a parameter tuple."""
    assert len(type_strs) == len(values)
    heads: list[bytes] = []
    tails: list[bytes] = []
    # static head sizes: dynamic slots are one word (the offset)
    head_size = 0
    sizes = []
    for t in type_strs:
        if _is_dynamic(t):
            sizes.append(32)
        elif t.endswith("]"):
            base = t[:t.rindex("[")]
            n = int(t[t.rindex("[") + 1:-1])
            sizes.append(32 * _static_words(base) * n)
        else:
            sizes.append(32)
        head_size += sizes[-1]
    tail_offset = head_size
    for t, v in zip(type_strs, values):
        if _is_dynamic(t):
            tail = _encode_value(t, v)
            heads.append(_encode_word(tail_offset))
            tails.append(tail)
            tail_offset += len(tail)
        else:
            heads.append(_encode_value(t, v))
            tails.append(b"")
    return b"".join(heads) + b"".join(tails)


def _static_words(type_str: str) -> int:
    if type_str.endswith("]") and not type_str.endswith("[]"):
        base = type_str[:type_str.rindex("[")]
        n = int(type_str[type_str.rindex("[") + 1:-1])
        return n * _static_words(base)
    return 1


# --- second implementation of the R1 candidate filter ---

_LEGACY_MARKER_HEX = "a165627a7a7230"  # CBOR map(1) + text(5) "bzzr0"


def r1_candidate_oracle(code: bytes) -> bool:
    """Hex-string-level re-implementation of the legacy-metadata filter.

    Keeps code that ends with a well-formed solc<=0.4 trailing metadata
    block, contains no second block head at an instruction start, and has
    no PUSHn (n>=2) immediate beginning with a zero byte.  Push immediates
    are stepped over, so marker bytes inside them do not count.
    """
    hx = code.hex()
    if len(code) < 43:
        return False
    tail = hx[-86:]
    if not tail.startswith(_LEGACY_MARKER_HEX + "5820"):
        return False
    if not tail.endswith("0029"):
        return False
    body = code[:-43]
    marker = bytes.fromhex(_LEGACY_MARKER_HEX)
    # independent stepping loop over the body
    i = 0
    while i < len(body):
        if body[i:i + 7] == marker:
            return False  # a second block boundary inside the code
        op = body[i]
        if 0x60 <= op <= 0x7F:
            size = op - 0x5F
            immediate = body[i + 1:i + 1 + size]
            if len(immediate) < size:
                return False  # truncated push: not re-expressible
            if size >= 2 and immediate[0] == 0:
                return False
            i += 1 + size
        else:
            i += 1
    return True


# --- per-offset scan for ipfs+solc metadata blocks ---

_BLOCK_LEN = 53
_IPFS_PREFIX = bytes([0xA2, 0x64]) + b"ipfs" + bytes([0x58, 0x22])
_SOLC_PREFIX = bytes([0x64]) + b"solc" + bytes([0x43])


def metadata_scan_oracle(code: bytes) -> list[tuple[int, int]]:
    """(start, end) of every strict block, greedy from the left.

    Tests each offset in turn: the ipfs head at 0, the solc head at 42, and
    a big-endian length suffix of 51 in the last two bytes.
    """
    found = []
    i = 0
    while i + _BLOCK_LEN <= len(code):
        block = code[i:i + _BLOCK_LEN]
        if (block[:8] == _IPFS_PREFIX and block[42:48] == _SOLC_PREFIX
                and block[-2] * 256 + block[-1] == _BLOCK_LEN - 2):
            found.append((i, i + _BLOCK_LEN))
            i += _BLOCK_LEN
        else:
            i += 1
    return found


# --- byte-by-byte comparisons ---

def first_mismatch_oracle(a: bytes, b: bytes) -> int | None:
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


def template_deviation_oracle(returned: bytes, template: bytes,
                              regions: list[tuple[int, int]]) -> int | None:
    """First offset outside every [offset, end) region where the two
    equal-length codes differ, or None."""
    inside = set()
    for offset, end in regions:
        inside.update(range(offset, end))
    for i in range(len(template)):
        if i not in inside and returned[i] != template[i]:
            return i
    return None


# --- per-byte jump-destination walk ---

def jumpdest_oracle(code: bytes) -> set[int]:
    """Offsets of 0x5b bytes that are opcodes, not push data, one byte at
    a time."""
    dests = set()
    push_data_left = 0
    for i, op in enumerate(code):
        if push_data_left:
            push_data_left -= 1
        elif op == 0x5B:
            dests.add(i)
        elif 0x60 <= op <= 0x7F:
            push_data_left = op - 0x5F
    return dests


# --- the inheritance lookup, one full parse per manifest ---

def code_hash_lookup_oracle(root, code_hash: bytes) -> list[tuple[str, str]]:
    """(address, grade) of every record whose manifest codeHash is the
    given hash, by address.

    Parses every manifest.  An address is looked up in exact/ when a
    manifest file is there, otherwise in partial/.
    """
    want = "0x" + code_hash.hex()
    manifests = {}
    for grade in ("partial", "exact"):  # exact last, so it shadows partial
        grade_dir = Path(root) / grade
        if grade_dir.is_dir():
            for child in grade_dir.iterdir():
                if (child / "record").is_file():
                    manifests[child.name] = (grade, child / "record")
    hits = []
    for address in sorted(manifests):
        grade, path = manifests[address]
        if json.loads(path.read_text())["codeHash"] == want:
            hits.append((address, grade))
    return hits


# --- the store's layout check, through pathlib ---

def layout_clash_oracle(record_dir, virtual_paths) -> str | None:
    """The smallest normalized path a record written to `record_dir` needs
    twice, or as both a file and a directory, or None.

    The files are the manifest, its draft ``record.tmp`` and each distinct
    virtual path's source under ``sources/``; every entry of each file's
    lexical parents chain, ``..`` steps included, must be a directory.
    """
    base = Path(record_dir)
    sources = base / "sources"
    files = ([base / "record", base / "record.tmp"]
             + [sources / Path(p) for p in dict.fromkeys(virtual_paths)])
    dirs = [sources] + [d for f in files for d in f.parents]
    normalized = [os.path.normpath(f) for f in files]
    clash = ({f for f in normalized if normalized.count(f) > 1}
             | (set(normalized) & {os.path.normpath(d) for d in dirs}))
    return min(clash) if clash else None
