"""Verification service: intake, sanitize, compile, match, store, disclose.

This module wires the pipeline end to end and owns every behavior toggle.
The four named profiles span the design space: Hardened turns every guard
on; the three Naive profiles each reproduce a historically deployed
combination of unsafe defaults so the attack lab can replay the
corresponding exploits against them.
"""

from __future__ import annotations

import posixpath
import re
import time
from dataclasses import dataclass, replace

from .abi import parse_params
from .chain import ChainClient, RedeployStatus, detect_redeployment
from .compiler import CompilerInterface, VerificationRequest
from .errors import (
    AbsolutePathError,
    DuplicateAfterNormalizationError,
    ImportRefusedError,
    MalformedRequestError,
    NoDonorError,
    NoMatchError,
    NotFoundError,
    PathEscapeError,
    ReplacementDeniedError,
    StaleRecordError,
    VerifierError,
)
from .linker import PlaceholderForm, PlaceholderMode
from .matching import (
    Grade,
    MatchResult,
    MetadataLabeler,
    Requirement,
    grade,
    match_creation,
    match_runtime,
)
from .metadata import differential_extract
from .simulator import ImmutableStrategy
from .store import RecordStore, VerificationRecord, normalize_address

# intake caps: a request past either is refused before anything compiles
MAX_SOURCE_FILES = 1_000
MAX_SOURCE_BYTES = 16 << 20  # total UTF-8 bytes of every source body

INLINE_ASSEMBLY_WARNING = "inline-assembly"
UNVERIFIED_LIBRARY_WARNING = "unverified-library"
IMPORTED_WARNING = "imported"


# --- configuration ---

@dataclass(frozen=True)
class VerifierConfig:
    """Every behavior toggle of the pipeline, plus a profile name."""

    name: str
    requirement: Requirement
    strict_creation_prefix: bool
    immutable_strategy: ImmutableStrategy
    placeholder_mode: PlaceholderMode
    metadata_labeler: MetadataLabeler
    allow_parent_path_refs: bool
    disclose_full_paths: bool
    require_verified_libraries: bool
    recheck_code_hash_on_read: bool
    inherit_flagged_donors: bool
    allow_record_replacement: bool
    accept_imported_records: bool


HARDENED = VerifierConfig(
    name="Hardened",
    requirement=Requirement.EITHER,
    strict_creation_prefix=True,
    immutable_strategy=ImmutableStrategy.SIM_GUARDED,
    placeholder_mode=PlaceholderMode.OFFSET_LITERAL,
    metadata_labeler=MetadataLabeler.PATTERN_SCAN,
    allow_parent_path_refs=False,
    disclose_full_paths=True,
    require_verified_libraries=True,
    recheck_code_hash_on_read=True,
    inherit_flagged_donors=False,
    allow_record_replacement=True,
    accept_imported_records=False,
)

NAIVE_ETHERSCAN_LIKE = replace(
    HARDENED,
    name="NaiveEtherscanLike",
    requirement=Requirement.BOTH,
    immutable_strategy=ImmutableStrategy.CHAIN_BACKFILL,
    disclose_full_paths=False,
    require_verified_libraries=False,
    recheck_code_hash_on_read=False,
    inherit_flagged_donors=True,
    allow_record_replacement=False,
)

NAIVE_SOURCIFY_LIKE = replace(
    HARDENED,
    name="NaiveSourcifyLike",
    strict_creation_prefix=False,
    immutable_strategy=ImmutableStrategy.SIM_TRUSTED,
    placeholder_mode=PlaceholderMode.REGEX_NAIVE,
    allow_parent_path_refs=True,
    require_verified_libraries=False,
    recheck_code_hash_on_read=False,
    inherit_flagged_donors=True,
)

NAIVE_BLOCKSCOUT_LIKE = replace(
    HARDENED,
    name="NaiveBlockscoutLike",
    requirement=Requirement.CREATION_ONLY,
    strict_creation_prefix=False,
    metadata_labeler=MetadataLabeler.DIFFERENTIAL,
    allow_parent_path_refs=True,
    disclose_full_paths=False,
    require_verified_libraries=False,
    recheck_code_hash_on_read=False,
    inherit_flagged_donors=True,
    allow_record_replacement=False,
    accept_imported_records=True,
)

PROFILES = {
    config.name: config
    for config in (HARDENED, NAIVE_ETHERSCAN_LIKE, NAIVE_SOURCIFY_LIKE,
                   NAIVE_BLOCKSCOUT_LIKE)
}


def get_profile(name: str) -> VerifierConfig:
    if name in PROFILES:
        return PROFILES[name]
    folded = name.replace("-", "").replace("_", "").lower()
    for key, config in PROFILES.items():
        if key.lower() == folded:
            return config
    raise ValueError(
        f"unknown profile {name!r}; choose from {', '.join(sorted(PROFILES))}")


# --- path sanitization ---

_SCHEME_PREFIX = re.compile(r"^[A-Za-z][A-Za-z0-9+.\-]*://")
_DRIVE_PREFIX = re.compile(r"^[A-Za-z]:[/\\]")


def sanitize_path(path: str) -> str:
    """Normalize one virtual source path, rejecting anything that could
    write outside the record's own directory."""
    if "\0" in path:
        raise MalformedRequestError(f"source path holds a NUL byte: {path!r}")
    if _SCHEME_PREFIX.match(path):
        raise AbsolutePathError(f"source path carries a URL scheme: {path!r}")
    if _DRIVE_PREFIX.match(path):
        raise AbsolutePathError(f"source path carries a drive prefix: {path!r}")
    if path.startswith(("/", "\\")):
        raise AbsolutePathError(f"source path is absolute: {path!r}")
    clean = posixpath.normpath(path.replace("\\", "/"))
    if clean == ".":
        raise MalformedRequestError(f"source path {path!r} names no file")
    if clean == ".." or clean.startswith("../"):
        raise PathEscapeError(
            f"source path {path!r} escapes the record directory")
    return clean


def sanitize_paths(sources: dict[str, str]) -> dict[str, str]:
    """Normalize all virtual paths of a request.  Two paths that normalize
    to the same path are refused: the returned map would merge them."""
    normalized: dict[str, str] = {}
    for path, body in sources.items():
        clean = sanitize_path(path)
        if clean in normalized:
            raise DuplicateAfterNormalizationError(
                f"{path!r} collides with another source at {clean!r}")
        normalized[clean] = body
    return normalized


# --- disclosure ---

@dataclass(frozen=True)
class DisclosureView:
    """What a query reveals about a stored record.

    A full-disclosure view names the target as "virtual/path.sol:Name" and
    keys every source by its full path.  A bare view gives only the
    contract name and basenames, which is ambiguous as soon as two files
    declare the same name.
    """

    address: str
    grade: Grade
    displayed_target: str
    source_files: dict[str, str]
    settings: dict
    warnings: tuple[str, ...]
    freshness: RedeployStatus | None = None


def _attempt(step, *args, **kwargs):
    """step's result, or the VerifierError it raised."""
    try:
        return step(*args, **kwargs)
    except VerifierError as exc:
        return exc


class VerifyService:
    """One verifier instance: a config, a compiler, a chain, a store.

    check decides what a submission would store and writes nothing, so it
    may run concurrently; _admit writes, serialized by the store's one lock.
    """

    def __init__(self, config: VerifierConfig, compiler: CompilerInterface,
                 chain: ChainClient, store: RecordStore):
        self.config = config
        self.compiler = compiler
        self.chain = chain
        self.store = store

    # --- submission ---

    def submit_verification(self, request: VerificationRequest) -> VerificationRecord:
        return self._admit(self.check(request))

    def check(self, request: VerificationRequest) -> VerificationRecord:
        """The record submit_verification would store for request, or the
        VerifierError that refuses it; reads, compiles and matches only.

        The record passes the store's layout rule, which reads no disk.  A
        refusal that depends on the disk cannot be foreseen here: the
        replacement lattice, entries already on disk, and names the
        filesystem refuses.
        """
        cfg = self.config
        if len(request.sources) > MAX_SOURCE_FILES:
            raise MalformedRequestError(
                f"request carries {len(request.sources)} sources; the cap is "
                f"{MAX_SOURCE_FILES}")
        size = 0
        for path, body in request.sources.items():
            try:
                path.encode("utf-8")
                size += len(body.encode("utf-8"))
            except UnicodeEncodeError:
                raise MalformedRequestError(
                    f"source {path!r} holds a lone surrogate, which is not "
                    f"UTF-8 text") from None
        if size > MAX_SOURCE_BYTES:
            raise MalformedRequestError(
                f"request carries {size} bytes of source; the cap is "
                f"{MAX_SOURCE_BYTES}")
        if request.address is None:
            raise MalformedRequestError("request names no contract address")
        if not request.settings.target:
            raise MalformedRequestError("request names no compilation target")
        address = normalize_address(request.address)
        address_bytes = bytes.fromhex(address[2:])
        declared = {name: normalize_address(value)
                    for name, value in request.declared_libraries.items()}

        sources, settings = dict(request.sources), request.settings
        # verbatim paths are the R7 defect: a crafted ``../..`` path
        # overwrites a foreign record once the store writes it
        if not cfg.allow_parent_path_refs:
            sources = sanitize_paths(sources)
            clean_target = sanitize_path(settings.target_path)
            if clean_target != settings.target_path:
                settings = replace(
                    settings, target=f"{clean_target}:{settings.target_name}")
            if settings.target_path not in sources:
                raise MalformedRequestError(
                    f"target file {settings.target_path!r} missing after "
                    f"path normalization")

        output = self.compiler.compile(sources, settings)
        result, tx_hash, code_hash = self._match(
            output, address_bytes, sources, settings)

        warnings = [INLINE_ASSEMBLY_WARNING] if output.uses_inline_assembly else []
        for report in (result.creation_report, result.runtime_report):
            if report is not None:
                warnings.extend(report.immutable_audit)
        runtime = result.runtime_report
        for binding in runtime.placeholder_bindings if runtime else ():
            name, bound = binding.span.lib_name, normalize_address(binding.address)
            # a hash-form span carries a digest, not the library's name
            if (binding.span.form is PlaceholderForm.LEGACY
                    and declared.get(name, bound) != bound):
                raise NoMatchError(
                    f"library {name} is declared at {declared[name]}, but the "
                    f"live code links {bound}")
            if (cfg.require_verified_libraries and not binding.unset
                    and not self.store.has(bound)):
                warnings.append(f"{UNVERIFIED_LIBRARY_WARNING}:{name}@{bound}")

        settings_dict = settings.as_dict()
        if request.declared_libraries:
            settings_dict["libraries"] = dict(request.declared_libraries)

        record = VerificationRecord(
            address=address,
            grade=result.grade,
            sources=sources,
            fully_qualified_target=settings.target,
            settings=settings_dict,
            code_hash_at_verification=code_hash,
            creation_tx_hash=tx_hash,
            warnings=list(dict.fromkeys(warnings)),
        )
        self.store._check_layout(record)
        return record

    def _admit(self, record: VerificationRecord) -> VerificationRecord:
        """The service's one write: record, under the replacement rule."""
        return self.store.store_record(
            record, allow_replacement=self.config.allow_record_replacement)

    def _match(self, output, address_bytes: bytes, sources: dict[str, str],
               settings) -> tuple[MatchResult, bytes | None, bytes]:
        """Run both legs against one read of the live code.

        Returns the result, the creation tx hash, and the hash of exactly
        the runtime bytes that were matched.
        """
        cfg = self.config
        checks_runtime = cfg.requirement is not Requirement.CREATION_ONLY

        spans = {}
        if cfg.metadata_labeler is MetadataLabeler.DIFFERENTIAL:
            spans = differential_extract(
                self.compiler, sources, settings, output,
                ("creation", "runtime") if checks_runtime else ("creation",))

        try:
            tx = self.chain.get_creation_input(address_bytes)
        except NotFoundError as exc:
            tx_hash, tx_input, creation = None, b"", exc
        else:
            tx_hash, tx_input = tx.hash, tx.input
            ctor_params = (parse_params(output.ctor_params)
                           if output.ctor_params is not None else None)
            creation = _attempt(match_creation, output.creation_code, tx_input,
                                ctor_params, strict=cfg.strict_creation_prefix,
                                local_spans=spans.get("creation"))

        onchain = _attempt(self.chain.read_code, address_bytes)
        if not checks_runtime:
            runtime = None
        elif isinstance(onchain, VerifierError):
            runtime = onchain
        elif not onchain.code:
            runtime = NotFoundError(
                "no runtime code on chain at the requested address")
        else:
            runtime = _attempt(
                match_runtime, output, onchain.code, cfg.immutable_strategy,
                ctor_args=tx_input[len(output.creation_code):],
                placeholder_mode=cfg.placeholder_mode,
                metadata_spans=spans.get("runtime"))

        result = grade(creation, runtime, cfg.requirement)
        if isinstance(onchain, VerifierError):
            raise onchain
        # hashed only now, so a refused submit hashes nothing; the chain
        # keeps the hash with the read, so the next query finds it computed
        return result, tx_hash, onchain.hash

    # --- query ---

    def query(self, address: str | bytes, *, strict: bool = True) -> DisclosureView:
        cfg = self.config
        record = self.store.load(address)
        address_bytes = bytes.fromhex(record.address[2:])
        freshness = None
        if cfg.recheck_code_hash_on_read:
            freshness = detect_redeployment(
                self.chain, address_bytes, record.code_hash_at_verification)
            if freshness is not RedeployStatus.UNCHANGED and strict:
                raise StaleRecordError(
                    f"code at {record.address} is {freshness.value} since "
                    f"verification; the stored sources no longer describe it")
        if cfg.disclose_full_paths:
            displayed = record.fully_qualified_target
            files = dict(record.sources)
        else:
            displayed = record.contract_name
            files = {posixpath.basename(p): body
                     for p, body in record.sources.items()}
        return DisclosureView(
            address=record.address,
            grade=record.grade,
            displayed_target=displayed,
            source_files=files,
            settings=dict(record.settings),
            warnings=tuple(record.warnings),
            freshness=freshness,
        )

    # --- shortcuts ---

    def inherit_identical_runtime(self, new_address: str | bytes) -> VerificationRecord:
        """Clone an existing record onto an address with identical runtime."""
        cfg = self.config
        address = normalize_address(new_address)
        live_hash = self.chain.get_code_hash(bytes.fromhex(address[2:]))
        if not live_hash:
            raise NoDonorError(f"no runtime code at {address}")

        def usable(donor: VerificationRecord) -> bool:
            return donor.address != address and (
                cfg.inherit_flagged_donors
                or INLINE_ASSEMBLY_WARNING not in donor.warnings)

        # the lookup ends at the first usable hit, so only the last can donate
        hits = self.store.find_by_code_hash(live_hash, usable)
        if not hits or not usable(hits[-1]):
            if all(d.address == address for d in hits):
                raise NoDonorError(
                    f"no verified record shares the runtime of {address}")
            raise NoDonorError(
                "every donor carries the inline-assembly flag; refusing "
                "to propagate a hand-crafted bytecode match")
        donor = hits[-1]
        return self._admit(replace(
            donor, address=address, creation_tx_hash=None,
            warnings=donor.warnings + [f"inherited-from:{donor.address}"],
            timestamp=time.time()))

    def import_store(self, other: RecordStore) -> list[VerificationRecord]:
        """Adopt every record of another instance's store, marked imported.

        Models one platform recognizing another's verdicts wholesale, which
        extends any exploit stored there onto this instance.
        """
        if not self.config.accept_imported_records:
            raise ImportRefusedError(
                f"profile {self.config.name} does not accept imported records")
        accepted = []
        # every donor is read before any is admitted, so a donor store that
        # does not read whole changes nothing
        for donor in list(other.records()):
            try:
                accepted.append(self._admit(replace(
                    donor, warnings=donor.warnings + [IMPORTED_WARNING],
                    timestamp=time.time())))
            except ReplacementDeniedError:
                continue
        return accepted
