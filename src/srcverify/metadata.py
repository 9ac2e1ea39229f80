"""Metadata block detection and removal.

Compilers append a CBOR-encoded block (source hash, compiler version) to the
runtime code.  It varies across otherwise identical builds, so partial
matching must locate and remove it before comparing.  Two labelers exist:

* scan_metadata: strict pattern matcher.  A span is reported only when every
  fixed byte of the known layout is present and the trailing two-byte length
  suffix equals the span length minus two.  Stripping what it reports and
  rescanning yields nothing (idempotent), and it never marks plain code.

* differential_extract: recompiles with an injected extra source file and
  diffs the outputs, expanding each difference to a nearby block start.  This
  reproduces the naive production behaviour behind R6: when the submitted
  source references the injected file, code differences that are NOT metadata
  get labelled as metadata, and the matcher then ignores attacker-chosen
  bytes.  Kept only for the naive profiles and the attack lab.

Only the ipfs+solc layout is recognized.  Other CBOR layouts (legacy swarm
hashes included) are deliberately not stripped: conservative stripping can
cause a false verification failure but never a false success.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .bytecode import first_mismatch
from .errors import (
    NonConvergentError,
    OverlappingSpansError,
    SpanOutOfRangeError,
)

PATTERN_LENGTH = 53
_IPFS_HEAD = bytes.fromhex("a264697066735822")  # 0xa2, "ipfs" text-wrapped, 34-byte tag
_SOLC_HEAD = bytes.fromhex("64736f6c6343")      # "solc" text-wrapped, 3-byte tag
_HASH_SLICE = slice(8, 42)

# legacy 0.4-era trailing block: 0xa1, "bzzr0", 32-byte tag, hash, length suffix
LEGACY_MARKER = bytes.fromhex("a165627a7a7230")
LEGACY_BLOCK_LENGTH = 43

INJECTED_FILENAME = "SOME_TEXT_USED_AS_FILENAME"
# differential labeling gives up when this many blocks do not explain the diff
DIFF_ITERATIONS = 16


class MetadataKind(Enum):
    TRAILING = "trailing"
    EMBEDDED = "embedded"


@dataclass(frozen=True)
class MetadataSpan:
    start: int
    end: int
    kind: MetadataKind

    @property
    def length(self) -> int:
        return self.end - self.start


def make_metadata_block(ipfs_payload: bytes, solc_version: bytes = b"\x00\x08\x04") -> bytes:
    """Assemble a 53-byte block for fixtures.

    ipfs_payload may be the full 34-byte multihash or a bare 32-byte digest
    (the standard sha2-256 multihash prefix is prepended).
    """
    if len(ipfs_payload) == 32:
        ipfs_payload = b"\x12\x20" + ipfs_payload
    if len(ipfs_payload) != 34:
        raise ValueError(f"ipfs payload must be 32 or 34 bytes, got {len(ipfs_payload)}")
    if len(solc_version) != 3:
        raise ValueError(f"solc version must be 3 bytes, got {len(solc_version)}")
    block = _IPFS_HEAD + ipfs_payload + _SOLC_HEAD + solc_version
    block += (len(block) + 2 - 2).to_bytes(2, "big")
    assert len(block) == PATTERN_LENGTH
    return block


def matches_pattern_at(code: bytes, start: int) -> bool:
    """True when a full, length-consistent block begins at start."""
    end = start + PATTERN_LENGTH
    if end > len(code):
        return False
    if code[start:start + 8] != _IPFS_HEAD:
        return False
    if code[start + 42:start + 48] != _SOLC_HEAD:
        return False
    return int.from_bytes(code[end - 2:end], "big") == PATTERN_LENGTH - 2


def scan_metadata(code: bytes) -> list[MetadataSpan]:
    """All strict pattern matches, non-overlapping, in offset order.

    Greedy from the left.  A block can only start where its 8-byte head
    occurs, so the scan jumps from one find hit to the next.
    """
    spans = []
    i = code.find(_IPFS_HEAD)
    while i != -1:
        if matches_pattern_at(code, i):
            end = i + PATTERN_LENGTH
            kind = MetadataKind.TRAILING if end == len(code) else MetadataKind.EMBEDDED
            spans.append(MetadataSpan(i, end, kind))
            i = code.find(_IPFS_HEAD, end)
        else:
            i = code.find(_IPFS_HEAD, i + 1)
    return spans


def _check_spans(code: bytes, spans: list[MetadataSpan]) -> list[MetadataSpan]:
    ordered = sorted(spans, key=lambda s: s.start)
    last_end = 0
    for span in ordered:
        if span.start < 0 or span.end <= span.start or span.end > len(code):
            raise SpanOutOfRangeError(
                f"span [{span.start}, {span.end}) outside code of {len(code)} bytes")
        if span.start < last_end:
            raise OverlappingSpansError(f"span at {span.start} overlaps previous")
        last_end = span.end
    return ordered


def strip_spans(code: bytes, spans: list[MetadataSpan]) -> bytes:
    """Delete span bytes, preserving the order of what remains."""
    pieces = []
    cursor = 0
    for span in _check_spans(code, spans):
        pieces.append(code[cursor:span.start])
        cursor = span.end
    pieces.append(code[cursor:])
    return b"".join(pieces)


def injected_library_source(contract_name: str) -> str:
    """The useless extra source the differential labeler injects."""
    return f"library L_{contract_name} {{}}\n"


def _block_start(baseline: bytes, index: int) -> int | None:
    """Nearest plausible block start at or before index.

    Naive on purpose: it anchors on the block's first byte alone, without
    validating the interior.  A stray 0xa2 in real code therefore drags a
    53-byte window of runtime bytes into the span, which is the R6 mislabel.
    """
    floor = max(index - (PATTERN_LENGTH - 1), 0)
    for start in range(index, floor - 1, -1):
        if baseline[start] == 0xA2 and start + PATTERN_LENGTH <= len(baseline):
            return start
    return None


def _merge(starts: list[int], code_len: int) -> list[MetadataSpan]:
    """Block windows at starts, merged into disjoint, sorted spans."""
    merged: list[list[int]] = []
    for start in sorted(starts):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = start + PATTERN_LENGTH
        else:
            merged.append([start, start + PATTERN_LENGTH])
    return [
        MetadataSpan(start, end, MetadataKind.TRAILING if end == code_len
                     else MetadataKind.EMBEDDED)
        for start, end in merged
    ]


def _pick(output, artifact: str) -> bytes:
    if artifact == "runtime":
        return output.runtime_template
    if artifact == "creation":
        return output.creation_code
    raise ValueError(f"unknown artifact {artifact!r}")


def differential_extract(compiler, sources, settings, baseline_out,
                         artifacts) -> dict[str, list[MetadataSpan]]:
    """Locate metadata by compiling with an injected source and diffing.

    The injected library is named after settings' target contract.
    baseline_out is the compilation of sources as submitted; only the
    perturbed sources are compiled here, once for every artifact.
    artifacts names "runtime" and/or "creation"; the result maps each to
    its identified regions, merged into disjoint, sorted spans.  The first
    artifact that does not converge raises.
    """
    perturbed_sources = dict(sources)
    perturbed_sources[INJECTED_FILENAME] = injected_library_source(
        settings.target_name)
    perturbed_out = compiler.compile(perturbed_sources, settings)
    return {
        artifact: _diff_spans(_pick(baseline_out, artifact),
                              _pick(perturbed_out, artifact))
        for artifact in artifacts
    }


def _diff_spans(baseline: bytes, perturbed: bytes) -> list[MetadataSpan]:
    if len(baseline) != len(perturbed):
        raise NonConvergentError(
            f"outputs differ in length ({len(baseline)} vs {len(perturbed)}); "
            "differential labeling needs aligned offsets")

    work = bytearray(perturbed)
    starts: list[int] = []
    for _ in range(DIFF_ITERATIONS):
        index = first_mismatch(baseline, work)
        if index is None:
            return _merge(starts, len(baseline))
        start = _block_start(baseline, index)
        if start is None:
            raise NonConvergentError(
                f"difference at offset {index} has no block start within "
                f"{PATTERN_LENGTH - 1} bytes")
        end = start + PATTERN_LENGTH
        work[start:end] = baseline[start:end]
        starts.append(start)
    if first_mismatch(baseline, work) is None:
        return _merge(starts, len(baseline))
    raise NonConvergentError(f"differences remain after {DIFF_ITERATIONS} iterations")
