"""Compiler seam: request/output types, a fixture compiler, a subprocess shim.

The engine never interprets source text itself; it hands sources and settings
to a CompilerInterface and works with the returned artifacts.  Tests and the
attack lab use FixtureCompiler, a deterministic table keyed by a digest of the
canonical (sources, settings) form.  ExternalCompiler shells out to a real
toolchain speaking standard-JSON for anyone wiring this against solc.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import subprocess
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace

from ._jsonin import field, hexfield, read
from .errors import (
    CompilerFailureError,
    MalformedLinkReferenceError,
    MalformedRequestError,
    SpanOutOfRangeError,
)
from .linker import PlaceholderForm, PlaceholderSpan
from .metadata import _HASH_SLICE, INJECTED_FILENAME, scan_metadata
from .simulator import ImmutableRef

# (JSON key, CompileSettings field): the one spelling of the settings object
_SETTINGS_KEYS = (
    ("compilerVersion", "compiler_version"),
    ("optimizerRuns", "optimizer_runs"),
    ("evmVersion", "evm_version"),
    ("target", "target"),
)


@dataclass(frozen=True)
class CompileSettings:
    compiler_version: str = "0.8.4+fixture"
    optimizer_runs: int = 0  # 0 disables the optimizer
    evm_version: str = "default"
    target: str = ""  # "virtual/path.sol:ContractName"

    @property
    def target_path(self) -> str:
        path, sep, _ = self.target.rpartition(":")
        return path if sep else ""

    @property
    def target_name(self) -> str:
        return self.target.rpartition(":")[2]

    def as_dict(self) -> dict:
        return {key: getattr(self, name) for key, name in _SETTINGS_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> "CompileSettings":
        """Settings from their JSON object: a key has its field default's
        type, else TypeError, and an absent key takes that default."""
        defaults = cls()
        return cls(**{name: field(data, key, type(getattr(defaults, name)),
                                  getattr(defaults, name))
                      for key, name in _SETTINGS_KEYS})


@dataclass
class CompilationOutput:
    """One contract's compiled artifacts.  Building one sorts its immutable
    and link references by offset and checks that each lies inside the
    runtime template after the previous one of its kind; a bad immutable
    reference raises SpanOutOfRangeError, a bad link reference
    MalformedLinkReferenceError."""

    creation_code: bytes
    runtime_template: bytes
    immutable_refs: list[ImmutableRef] = dataclasses.field(default_factory=list)
    link_refs: list[PlaceholderSpan] = dataclasses.field(default_factory=list)
    # ABI type strings of the constructor, or None when the ABI is undeclared
    ctor_params: list[str] | None = None
    uses_inline_assembly: bool = False

    def __post_init__(self) -> None:
        self.immutable_refs = _checked_regions(
            self.immutable_refs, len(self.runtime_template),
            SpanOutOfRangeError, "immutable region")
        self.link_refs = _checked_regions(
            self.link_refs, len(self.runtime_template),
            MalformedLinkReferenceError, "link reference")


def _checked_regions(regions: list, size: int, error: type[Exception],
                     kind: str) -> list:
    """regions sorted by offset, once each lies in [0, size) after the
    previous one; otherwise raises error."""
    regions = sorted(regions, key=lambda region: region.offset)
    last_end = 0
    for region in regions:
        if not last_end <= region.offset <= region.end <= size:
            raise error(f"{kind} [{region.offset}, {region.end}) does not lie "
                        f"in [{last_end}, {size}) of the runtime template")
        last_end = region.end
    return regions


@dataclass
class VerificationRequest:
    sources: dict[str, str]
    settings: CompileSettings
    address: bytes | None = None
    # libName -> hex address supplied by the submitter
    declared_libraries: dict[str, str] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.sources:
            raise MalformedRequestError("request has no sources")
        target_path = self.settings.target_path
        if target_path and target_path not in self.sources:
            raise MalformedRequestError(
                f"target file {target_path!r} is not among the submitted sources")

    def to_json(self) -> str:
        payload = {
            "address": "0x" + self.address.hex() if self.address else None,
            "sources": self.sources,
            "settings": self.settings.as_dict(),
            "libraries": self.declared_libraries,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "VerificationRequest":
        """The request in text; MalformedRequestError for any other shape
        than to_json's.  No type is coerced: 1.5, true or "200" is no integer."""
        try:
            payload = read(text)
            address = field(payload, "address", (str, type(None)), None)
            return cls(
                sources=field(payload, "sources", dict, of=str),
                settings=CompileSettings.from_dict(
                    field(payload, "settings", dict, {})),
                address=hexfield(payload, "address") if address else None,
                declared_libraries=field(payload, "libraries", dict, {},
                                         of=str))
        except (TypeError, ValueError) as exc:
            raise MalformedRequestError(str(exc)) from exc


class CompilerInterface(ABC):
    @abstractmethod
    def compile(self, sources: dict[str, str], settings: CompileSettings) -> CompilationOutput:
        """Produce artifacts or raise CompilerFailureError."""


def request_digest(sources: dict[str, str], settings: CompileSettings) -> str:
    canon = json.dumps(
        {"sources": sources, "settings": settings.as_dict()},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode()).hexdigest()


class FixtureCompiler(CompilerInterface):
    """Deterministic compiler backed by a registration table.

    Unregistered inputs fail, with one convenience: when the only difference
    from a registered input is the differential labeler's injected file, the
    base output is re-emitted with every metadata hash region replaced by a
    derived value.  That mimics a real compiler, where the injected file
    shifts the source hash but nothing else.  Explicit registrations take
    precedence, which is how attack fixtures model source text that actually
    references the injected file.
    """

    def __init__(self) -> None:
        self._table: dict[str, CompilationOutput] = {}

    def register(self, sources: dict[str, str], settings: CompileSettings,
                 output: CompilationOutput) -> None:
        self._table[request_digest(sources, settings)] = output

    def compile(self, sources: dict[str, str], settings: CompileSettings) -> CompilationOutput:
        key = request_digest(sources, settings)
        if key in self._table:
            return self._table[key]
        if INJECTED_FILENAME in sources:
            base = {k: v for k, v in sources.items() if k != INJECTED_FILENAME}
            base_key = request_digest(base, settings)
            if base_key in self._table:
                return self._perturb(self._table[base_key])
        raise CompilerFailureError(f"no fixture registered for digest {key[:16]}")

    @staticmethod
    def _rehash_metadata(code: bytes) -> bytes:
        out = bytearray(code)
        for span in scan_metadata(code):
            region = slice(span.start + _HASH_SLICE.start, span.start + _HASH_SLICE.stop)
            # a sha2-256 multihash, the kind solc writes for IPFS metadata
            digest = hashlib.sha256(bytes(out[region]) + b"\x01").digest()
            out[region] = b"\x12\x20" + digest
        return bytes(out)

    def _perturb(self, base: CompilationOutput) -> CompilationOutput:
        return replace(
            base,
            creation_code=self._rehash_metadata(base.creation_code),
            runtime_template=self._rehash_metadata(base.runtime_template))


class ExternalCompiler(CompilerInterface):
    """Subprocess adapter: standard-JSON in on stdin, flat artifact JSON out.

    Expected stdout shape:
      {"creation": "0x..", "runtime": "0x..",
       "immutableReferences": [{"offset": n, "length": n, "name": s}, ...],
       "linkReferences": [{"offset": n, "filePath": s, "libName": s,
                           "form": "legacy"|"hash"}, ...],
       "constructorParams": ["uint256", ...] | null,
       "usesInlineAssembly": bool}
    """

    def __init__(self, command: list[str], timeout: float = 120.0) -> None:
        self._command = list(command)
        self._timeout = timeout

    def compile(self, sources: dict[str, str], settings: CompileSettings) -> CompilationOutput:
        stdin = json.dumps({
            "language": "Solidity",
            "sources": {path: {"content": text} for path, text in sources.items()},
            "settings": settings.as_dict(),
        })
        try:
            proc = subprocess.run(
                self._command, input=stdin.encode(), capture_output=True,
                timeout=self._timeout, check=False,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise CompilerFailureError(f"compiler invocation failed: {exc}") from exc
        if proc.returncode != 0:
            raise CompilerFailureError(
                f"compiler exited {proc.returncode}: "
                f"{proc.stderr.decode(errors='replace').strip()[:500]}")
        return _artifact(proc.stdout)


def _artifact(text: bytes | str) -> CompilationOutput:
    """The output in the artifact a compiler printed; CompilerFailureError
    for any other shape than ExternalCompiler names, or a bad reference."""
    try:
        payload = read(text)
        return CompilationOutput(
            creation_code=hexfield(payload, "creation"),
            runtime_template=hexfield(payload, "runtime"),
            immutable_refs=[
                ImmutableRef(field(item, "offset", int), field(item, "length", int),
                             field(item, "name", str, ""))
                for item in field(payload, "immutableReferences", list, [],
                                  of=dict)],
            link_refs=[
                PlaceholderSpan(
                    offset=field(item, "offset", int),
                    file_path=field(item, "filePath", str, ""),
                    lib_name=field(item, "libName", str),
                    form=PlaceholderForm(field(item, "form", str, "hash")))
                for item in field(payload, "linkReferences", list, [],
                                  of=dict)],
            ctor_params=field(payload, "constructorParams",
                              (list, type(None)), None, of=str),
            uses_inline_assembly=field(payload, "usesInlineAssembly", bool, False))
    except (TypeError, ValueError, SpanOutOfRangeError,
            MalformedLinkReferenceError) as exc:
        raise CompilerFailureError(f"unusable compiler output: {exc}") from exc


def make_creation_code(runtime: bytes, extra: bytes = b"") -> bytes:
    """Canonical fixture constructor: copy runtime from code offset 12, return it.

    extra bytes (embedded metadata, unreachable data) follow the runtime and
    are not returned.
    """
    if len(runtime) > 0xFFFF:
        raise ValueError("runtime too large for the fixture constructor")
    prefix = b"\x61" + len(runtime).to_bytes(2, "big") + bytes.fromhex("80600c6000396000f3")
    assert len(prefix) == 12
    return prefix + runtime + extra
