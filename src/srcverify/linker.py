"""Library placeholder resolution.

An unlinked compilation keeps each library call site as a 20-byte zero-filled
region plus a declared link-reference table.  The compiler's *textual* output
renders such a site as a 40-character placeholder instead of hex: the legacy
form "__<filePath>:<libName>____..__" (solc <= 0.4) or the hash form
"__$<34 hex chars>$__".  Naive verifiers work at that text level — they
substitute via a regex built from the placeholder text itself, which is
exactly the behavior resolve() reproduces in RegexNaive mode.  Hardened
resolution (OffsetLiteral) never leaves byte space and touches only declared
spans.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum

from .bytecode import fill
from .errors import LengthMismatchError, MalformedLinkReferenceError

PLACEHOLDER_TEXT_CHARS = 40
PLACEHOLDER_CODE_BYTES = 20


class PlaceholderForm(Enum):
    LEGACY = "legacy"
    HASH = "hash"


class PlaceholderMode(Enum):
    """How resolve() substitutes library addresses."""

    OFFSET_LITERAL = "offset-literal"  # hardened: declared byte spans only
    REGEX_NAIVE = "regex-naive"        # naive: placeholder text compiled as a regex


@dataclass(frozen=True)
class PlaceholderSpan:
    """One library call site: 40 text characters, 20 bytes of code."""

    offset: int                 # byte offset in the (linked) code
    file_path: str
    lib_name: str
    form: PlaceholderForm = PlaceholderForm.LEGACY

    @property
    def end(self) -> int:
        return self.offset + PLACEHOLDER_CODE_BYTES


@dataclass
class LibraryBinding:
    """Outcome of resolving one placeholder."""

    span: PlaceholderSpan
    address: bytes
    matched_offsets: list[int] = field(default_factory=list)
    unset: bool = False         # on-chain bytes at the site were all zero


def render_placeholder_text(span: PlaceholderSpan) -> str:
    """The placeholder as it appears in textual compiler output (40 chars)."""
    if span.form is PlaceholderForm.HASH:
        digest = span.lib_name
        if len(digest) != 34:
            raise MalformedLinkReferenceError(
                f"hash-form placeholder needs a 34-char digest, got {len(digest)}")
        return "__$" + digest + "$__"
    content = f"{span.file_path}:{span.lib_name}"[:36]  # truncate from the right
    return "__" + content.ljust(36, "_") + "__"


def splice_unlinked_text(code: bytes, spans: list[PlaceholderSpan]) -> str:
    """Hex text of `code` with placeholder text written over each span."""
    chars = list(code.hex())
    for span in spans:
        chars[2 * span.offset:2 * span.end] = render_placeholder_text(span)
    return "".join(chars)


def resolve(
    local: bytes,
    onchain: bytes,
    spans: list[PlaceholderSpan],
    mode: PlaceholderMode,
) -> tuple[bytes, list[LibraryBinding]]:
    """Substitute library addresses into `local` from `onchain`.

    OffsetLiteral replaces exactly the bytes inside each span with the
    on-chain bytes at the same offsets.  RegexNaive renders the unlinked hex
    text, compiles each placeholder's 40-char text as a regex (unescaped:
    that is the reproduced defect), and rewrites every 40-char match site
    with the address read at the span's own offset.

    The spans are a CompilationOutput's link references: sorted, disjoint
    and inside `local`, which that output checked when it was built.
    """
    if len(local) != len(onchain):
        raise LengthMismatchError(
            f"local code is {len(local)} bytes, on-chain is {len(onchain)}")

    if mode is PlaceholderMode.OFFSET_LITERAL:
        bindings = []
        for span in spans:
            address = onchain[span.offset:span.end]
            bindings.append(LibraryBinding(
                span=span, address=address, matched_offsets=[span.offset],
                unset=address == bytes(PLACEHOLDER_CODE_BYTES)))
        return fill(local, spans, onchain), bindings

    # RegexNaive: work in hex-text space
    text = splice_unlinked_text(local, spans)
    onchain_hex = onchain.hex()
    bindings = []
    for span in spans:
        addr_hex = onchain_hex[2 * span.offset:2 * span.end]
        address = bytes.fromhex(addr_hex)
        matched = [span.offset]
        # the identified placeholder itself takes the address at its offset
        text = text[:2 * span.offset] + addr_hex + text[2 * span.end:]
        pattern_text = render_placeholder_text(span)
        try:
            pattern = re.compile(pattern_text)
        except re.error:
            pattern = re.compile(re.escape(pattern_text))
        # single pass over the current text; only 40-char windows are sites
        sites = [m.start() for m in pattern.finditer(text)
                 if m.end() - m.start() == PLACEHOLDER_TEXT_CHARS]
        for pos in reversed(sites):
            text = text[:pos] + addr_hex + text[pos + PLACEHOLDER_TEXT_CHARS:]
            matched.append(pos // 2)
        bindings.append(LibraryBinding(
            span=span, address=address, matched_offsets=sorted(set(matched)),
            unset=address == bytes(PLACEHOLDER_CODE_BYTES)))
    try:
        resolved = bytes.fromhex(text)
    except ValueError as exc:
        raise MalformedLinkReferenceError(
            f"unresolved placeholder text remains after naive linking: {exc}") from exc
    return resolved, bindings
