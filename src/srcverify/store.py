"""Filesystem-backed store for verification records.

Layout, one directory per record:

    <root>/<grade>/<address>/record              JSON manifest
    <root>/<grade>/<address>/sources/<path>      source bodies, virtual paths

Every file is read with one ``os.open``, reads to EOF and one ``os.close``,
and written with one open, its writes and one close, on ``str`` paths.
Bodies and manifests are UTF-8 whatever the locale, and a body loads as the
exact text that was stored.

Virtual paths are written exactly as submitted.  Sanitization is the
service's job; the store reproducing a traversal write when handed an
unsanitized ``../..`` path is intentional, since that observable overwrite
is what the hardened profile must prevent upstream.  The manifest records a
sha256 digest per source file so tampering is detectable after the fact.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import posixpath
import re
import shutil
import stat
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from .errors import (
    CorruptRecordError,
    DuplicateAfterNormalizationError,
    MalformedAddressError,
    NotVerifiedError,
    RecordWriteError,
    ReplacementDeniedError,
)
from .matching import Grade

RECORD_FILENAME = "record"

# Grades a record may carry; also the fixed lookup order, so an exact
# record shadows a stray partial one for the same address.
_STORABLE_GRADES = (Grade.EXACT, Grade.PARTIAL)

# bytes asked for per read; a manifest or a typical body takes one
_READ_SIZE = 1 << 16

# a hash as the manifest spells it, and a lowercased address past its 0x
_HASH = re.compile("0x[0-9a-f]{64}")
_ADDRESS_HEX = re.compile("[0-9a-f]{40}")


def normalize_address(address: str | bytes) -> str:
    """Canonical lowercase 0x-prefixed form used for directory names."""
    if isinstance(address, (bytes, bytearray)):
        raw = bytes(address)
        if len(raw) != 20:
            raise MalformedAddressError(f"address must be 20 bytes, got {len(raw)}")
        return "0x" + raw.hex()
    if not isinstance(address, str):
        raise MalformedAddressError(f"not an address: {address!r}")
    text = address.lower()
    if text.startswith("0x"):
        text = text[2:]
    if not _ADDRESS_HEX.fullmatch(text):
        raise MalformedAddressError(f"not a 20-byte hex address: {address!r}")
    return "0x" + text


def _sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_bytes(path: str) -> bytes:
    """The whole file: one open, reads to EOF, one close."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, _READ_SIZE):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_bytes(path: str, data: bytes) -> None:
    """Create or truncate the file and write all of data: one open, one close."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)


def _unreadable(path: str, exc: OSError) -> CorruptRecordError:
    """The refusal for a store entry that is there but does not read: a
    symlink loop, a denied permission, an I/O error."""
    return CorruptRecordError(f"{path} does not read: {exc!r}")


def _read_manifest(directory: str) -> bytes | None:
    """The manifest's bytes, or None where there is none: no file, a path
    under a file, or a directory."""
    path = directory + "/" + RECORD_FILENAME
    try:
        return _read_bytes(path)
    except (FileNotFoundError, NotADirectoryError, IsADirectoryError):
        return None
    except OSError as exc:
        raise _unreadable(path, exc) from exc


def _source_path(sources_dir: str, virtual_path: str) -> str:
    """Where a virtual path's body lives, normalized as _check_layout checks
    it: ``.``, empty parts and ``..`` steps fold away, and an absolute path
    replaces the sources folder."""
    return posixpath.normpath(posixpath.join(sources_dir, virtual_path))


@dataclass
class VerificationRecord:
    """Everything the verifier asserts about one address, as stored."""

    address: str
    grade: Grade
    sources: dict[str, str]
    fully_qualified_target: str
    settings: dict
    code_hash_at_verification: bytes
    creation_tx_hash: bytes | None = None
    warnings: list[str] = field(default_factory=list)
    timestamp: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        self.address = normalize_address(self.address)
        if self.grade not in _STORABLE_GRADES:
            raise ValueError(f"only exact/partial records are storable, got {self.grade}")
        if not self.sources:
            raise ValueError("record must carry at least one source file")
        if len(self.code_hash_at_verification) != 32:
            raise ValueError("code hash must be 32 bytes")
        if self.creation_tx_hash is not None and len(self.creation_tx_hash) != 32:
            raise ValueError("creation tx hash must be 32 bytes")
        if self.warnings is None:
            raise ValueError("warnings must be a list, not None")

    @property
    def contract_name(self) -> str:
        """Bare name, the only thing a non-disclosing query reveals."""
        return self.fully_qualified_target.rpartition(":")[2]


class RecordStore:
    """Address-keyed record directories with a grade-replacement lattice.

    Writes take the store's one lock, so writers through one store get one
    winner per address.  Reads never wait; they see a record whole or not at
    all.
    """

    def __init__(self, root: str | Path):
        # normalized once, as every path under it is
        self.root = Path(posixpath.normpath(os.fspath(root)))
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        # the root and its ancestors: directories that exist
        self._root_dirs = frozenset(os.fspath(d)
                                    for d in (self.root, *self.root.parents))
        # what a path under the root starts with; "" for a root "."
        self._inside = posixpath.join(os.fspath(self.root),
                                      "").removeprefix("./")
        try:
            self._name_max = os.pathconf(self.root, "PC_NAME_MAX")
        except (AttributeError, OSError, ValueError):  # no pathconf here
            self._name_max = 255

    def _record_dir(self, grade: Grade, address: str) -> str:
        """The one spelling of a record's directory, normalized."""
        return f"{self._inside}{grade.value}/{address}"

    def _find(self, address: str) -> tuple[Grade, str] | None:
        for grade in _STORABLE_GRADES:
            directory = self._record_dir(grade, address)
            path = directory + "/" + RECORD_FILENAME
            try:
                if stat.S_ISREG(os.stat(path).st_mode):
                    return grade, directory
            except (FileNotFoundError, NotADirectoryError):
                pass
            except OSError as exc:
                raise _unreadable(path, exc) from exc
        return None

    # --- writing ---

    def store_record(self, record: VerificationRecord, *,
                     allow_replacement: bool = True) -> VerificationRecord:
        """Store a record, honoring the replacement lattice.

        Exact may replace Partial.  Equal grades never replace (first
        submission wins) and Partial never replaces Exact.  With
        ``allow_replacement`` off, any second submission is refused.

        A replacement writes the new exact record before removing the old
        partial one; exact shadows partial once its manifest is renamed into
        place, so a failed write leaves the stored record in place.

        An ``OSError`` or ``ValueError`` from the disk check or the write
        first removes each directory the write made, deepest first: the
        record directory whole, any other only if empty, so an entry
        another writer put there stays.  Then it becomes the refusal below.
        """
        files, dirs = self._check_layout(record)
        with self._lock:
            found = self._find(record.address)
            if found is not None:
                old_grade, old_dir = found
                if not allow_replacement:
                    raise ReplacementDeniedError(
                        f"{record.address} already verified and this store "
                        f"does not permit replacement")
                if not (record.grade is Grade.EXACT and old_grade is Grade.PARTIAL):
                    raise ReplacementDeniedError(
                        f"{record.grade.value} may not replace {old_grade.value} "
                        f"for {record.address}")
            made: list[str] = []
            try:
                self._write(record, files, self._check_disk(files, dirs), made)
            except (OSError, ValueError) as exc:
                base = self._record_dir(record.grade, record.address)
                for directory in reversed(made):
                    try:
                        (shutil.rmtree if directory == base else os.rmdir)(directory)
                    except OSError:
                        pass
                if isinstance(exc, (FileExistsError, NotADirectoryError,
                                    IsADirectoryError)):
                    raise DuplicateAfterNormalizationError(
                        f"record for {record.address} needs "
                        f"{os.path.relpath(exc.filename, self.root)}, which is "
                        f"already on disk as another kind of entry") from exc
                # a path the filesystem refuses: too long, a NUL byte, ...
                raise RecordWriteError(
                    f"record for {record.address} could not be written: "
                    f"{exc}") from exc
            if found is not None:
                shutil.rmtree(old_dir)
        return record

    def _check_layout(self, record: VerificationRecord
                      ) -> tuple[list[str], set[str]]:
        """Refuse a record that needs one normalized path twice, or as both
        a file and a directory, before anything is written.

        The files are the manifest, its draft and each source, so
        ``a.sol`` beside ``./a.sol``, or a source at ``../record``, is
        refused.  Every ancestor of a file, ``..`` steps included, must be a
        directory, so ``c/a.sol`` beside ``c/a.sol/x.sol`` (or
        ``c/a.sol/../x.sol``) is refused too.  Returns the normalized files,
        in that order, and the directories the record needs.  Paths are
        joined and split as pathlib would: ``.`` and empty parts drop out,
        and an absolute virtual path replaces the sources folder.
        """
        base = self._record_dir(record.grade, record.address)
        sources = base + "/sources"
        files = [base + "/" + RECORD_FILENAME,
                 base + "/" + RECORD_FILENAME + ".tmp"]
        dirs = {sources, base, posixpath.dirname(base), *self._root_dirs}
        for virtual_path in record.sources:
            start = sources
            if virtual_path.startswith("/"):
                # exactly two leading slashes stay a root of their own
                start = ("//" if virtual_path.startswith("//")
                         and not virtual_path.startswith("///") else "/")
            parts = [p for p in virtual_path.split("/") if p not in ("", ".")]
            for i in range(len(parts)):
                dirs.add(posixpath.normpath(posixpath.join(start, *parts[:i])))
            files.append(_source_path(sources, virtual_path))
        twice = [path for path, n in Counter(files).items() if n > 1]
        clash = dirs.intersection(files).union(twice)
        if clash:
            path = min(clash)
            raise DuplicateAfterNormalizationError(
                f"record for {record.address} needs "
                f"{os.path.relpath(path, self.root)} to be "
                + ("both a file and a directory" if path in dirs
                   else "two files"))
        return files, dirs

    def _check_disk(self, files: list[str], dirs: set[str]) -> list[str]:
        """Raise what the write would raise, before a byte is written:
        ``FileExistsError`` or ``IsADirectoryError`` for an entry of the
        other kind, ``NotADirectoryError`` for a path under a file,
        ``ENAMETOOLONG`` for a name the filesystem cannot take, and what
        ``os.stat`` raises for a path it refuses (a NUL byte is a
        ``ValueError``).  Without this a source path such as
        ``../../0x<other>/record/x.sol`` fails only after an earlier path
        has overwritten another record's file.  Returns the needed
        directories that do not exist yet, parents first.
        """
        missing = []
        for path in sorted((dirs - self._root_dirs).union(files)):
            try:
                is_dir = stat.S_ISDIR(os.stat(path).st_mode)
            except FileNotFoundError:
                if len(os.fsencode(posixpath.basename(path))) > self._name_max:
                    raise OSError(errno.ENAMETOOLONG,
                                  os.strerror(errno.ENAMETOOLONG), path) from None
                if path in dirs:
                    missing.append(path)
                continue
            if is_dir is not (path in dirs):
                code = errno.EISDIR if is_dir else errno.EEXIST
                raise OSError(code, os.strerror(code), path)
        return missing

    def _write(self, record: VerificationRecord, files: list[str],
               missing: list[str], made: list[str]) -> None:
        """Create the missing directories, appending each one made to made,
        and write each source, then the manifest as a draft renamed into
        place, all at normalized paths."""
        for directory in missing:
            try:
                os.mkdir(directory)
                made.append(directory)
            except FileExistsError:
                # another process, or another store on this root, made it
                if not os.path.isdir(directory):
                    raise
        manifest_path, draft_path, *source_paths = files
        digests: dict[str, str] = {}
        for (virtual_path, text), target in zip(record.sources.items(),
                                                source_paths):
            body = text.encode("utf-8")
            _write_bytes(target, body)
            digests[virtual_path] = _sha256_hex(body)
        _write_bytes(draft_path, self._encode(record, digests))
        os.replace(draft_path, manifest_path)

    # --- the manifest ---

    @staticmethod
    def _encode(record: VerificationRecord, digests: dict[str, str]) -> bytes:
        """The manifest: every field of the record but its bodies, which it
        lists by virtual path with their sha256.  _decode reads it back."""
        return (json.dumps({
            "address": record.address,
            "grade": record.grade.value,
            "target": record.fully_qualified_target,
            "settings": record.settings,
            "codeHash": "0x" + record.code_hash_at_verification.hex(),
            "creationTxHash": ("0x" + record.creation_tx_hash.hex()
                               if record.creation_tx_hash else None),
            "warnings": list(record.warnings),
            "timestamp": record.timestamp,
            "sourceDigests": digests,
        }, indent=2, sort_keys=True) + "\n").encode()

    def _decode(self, raw: bytes, directory: str, where: str
                ) -> tuple[dict, dict[str, tuple[str, str]]]:
        """The keyword arguments of the record in directory but its address,
        grade and sources, and each virtual path's body path and digest.
        Raises CorruptRecordError for a manifest that does not parse, a field
        of another type, or a body path outside the store root."""
        try:
            manifest = json.loads(raw)
            target, settings, code_hex, tx_hex, warnings, timestamp, digests = (
                manifest[key] for key in ("target", "settings", "codeHash",
                "creationTxHash", "warnings", "timestamp", "sourceDigests"))
        except (ValueError, RecursionError, TypeError, KeyError) as exc:
            raise CorruptRecordError(f"manifest of {where} is not a JSON "
                                     f"object with every field: {exc!r}") from exc
        for key, valid in (
                ("target", isinstance(target, str)),
                ("settings", isinstance(settings, dict)),
                ("codeHash", isinstance(code_hex, str) and _HASH.fullmatch(code_hex)),
                ("creationTxHash", tx_hex is None or isinstance(tx_hex, str)
                 and _HASH.fullmatch(tx_hex)),
                ("warnings", isinstance(warnings, list)
                 and all(isinstance(w, str) for w in warnings)),
                ("timestamp", type(timestamp) in (int, float)),
                ("sourceDigests", isinstance(digests, dict) and digests != {}
                 and all(isinstance(d, str) for d in digests.values()))):
            if not valid:
                raise CorruptRecordError(f"manifest of {where} has no valid {key}")
        bodies = {}
        for virtual_path, digest in digests.items():
            path = _source_path(directory + "/sources", virtual_path)
            # past the prefix, a name: not absolute, not the root, no climb
            head = path[len(self._inside):].partition("/")[0]
            if not path.startswith(self._inside) or head in ("", ".", ".."):
                raise CorruptRecordError(
                    f"source {virtual_path!r} of {where} lies outside the store")
            bodies[virtual_path] = path, digest
        return dict(fully_qualified_target=target, settings=settings,
                    code_hash_at_verification=bytes.fromhex(code_hex[2:]),
                    creation_tx_hash=tx_hex and bytes.fromhex(tx_hex[2:]),
                    warnings=warnings, timestamp=timestamp), bodies

    # --- reading ---

    def has(self, address: str | bytes) -> bool:
        return self._find(normalize_address(address)) is not None

    def _locate(self, address: str | bytes) -> tuple[str, Grade, str]:
        """The stored record's address, grade and directory."""
        key = normalize_address(address)
        if (found := self._find(key)) is None:
            raise NotVerifiedError(f"no record for {key}")
        return key, *found

    def load(self, address: str | bytes) -> VerificationRecord:
        """Rebuild the record, reading source bodies from the tree.

        Bodies come from disk rather than the manifest so that on-disk
        tampering (the traversal overwrite) is visible to callers exactly
        the way it is visible to anyone browsing the store.  A body that is
        missing, is not a file or is not UTF-8 makes the record corrupt.
        A record that an exact upgrade moves while it is read is read again
        from its new place.
        """
        key, grade, directory = self._locate(address)
        try:
            raw = _read_manifest(directory)
            if raw is not None:
                return self._build(key, grade,
                                   *self._decode(raw, directory, key))
        except CorruptRecordError:
            if not self._moved(key, grade, directory):
                raise
        return self.load(key)

    def _moved(self, key: str, grade: Grade, directory: str) -> bool:
        """Whether key's record has left the directory it was located in:
        an exact upgrade renames its manifest in, then removes the partial
        directory, so a read there may find files gone."""
        return self._find(key) != (grade, directory)

    @staticmethod
    def _build(key: str, grade: Grade, fields: dict,
               bodies: dict[str, tuple[str, str]]) -> VerificationRecord:
        """The record of a decoded manifest, its bodies read from disk."""
        sources = {}
        for virtual_path, (path, _) in bodies.items():
            try:
                sources[virtual_path] = _read_bytes(path).decode("utf-8")
            except (OSError, ValueError) as exc:
                raise CorruptRecordError(
                    f"source {virtual_path!r} of {key} does not load: "
                    f"{exc!r}") from exc
        return VerificationRecord(key, grade, sources, **fields)

    def _scan(self) -> Iterator[tuple[str, Grade, str, bytes]]:
        """Each stored address, by address, with its grade, directory and
        manifest bytes.  exact/ and partial/ are listed once; an address's
        exact/ manifest is read, or its partial/ one when that one is not
        there, each only when the consumer reaches the address."""
        listed = {}
        for grade in _STORABLE_GRADES:
            path = self._inside + grade.value
            try:
                listed[grade] = set(os.listdir(path))
            except (FileNotFoundError, NotADirectoryError):
                listed[grade] = set()
            except OSError as exc:
                raise _unreadable(path, exc) from exc
        for address in sorted(set().union(*listed.values())):
            for grade in _STORABLE_GRADES:
                if address not in listed[grade]:
                    continue
                directory = self._record_dir(grade, address)
                raw = _read_manifest(directory)
                if raw is not None:
                    yield address, grade, directory, raw
                    break

    def list_addresses(self) -> list[str]:
        return [address for address, _, _, _ in self._scan()]

    def records(self) -> Iterator[VerificationRecord]:
        """Every stored record, by address.  Each is decoded when reached,
        from the manifest bytes the scan read."""
        return (self._build(address, grade,
                            *self._decode(raw, directory, address))
                for address, grade, directory, raw in list(self._scan()))

    def find_by_code_hash(self, code_hash: bytes,
                          usable: Callable[[VerificationRecord], bool]
                          ) -> list[VerificationRecord]:
        """Donor candidates for runtime-identical inheritance, by address,
        up to and including the first one usable accepts; no manifest
        sorting after it is read.

        Only a scanned manifest whose bytes hold the hash quoted is decoded,
        and its decoded codeHash decides; a hit is built from the manifest
        bytes the scan read.  Still linear in the records it passes.
        """
        needle = f'"0x{code_hash.hex()}"'.encode()
        hits = []
        for address, grade, directory, raw in self._scan():
            if needle in raw:
                fields, bodies = self._decode(raw, directory, address)
                if fields["code_hash_at_verification"] == code_hash:
                    hits.append(self._build(address, grade, fields, bodies))
                    if usable(hits[-1]):
                        break
        return hits

    # --- integrity ---

    def verify_integrity(self, address: str | bytes) -> list[str]:
        """Virtual paths whose on-disk body no longer matches its digest."""
        key, grade, directory = self._locate(address)
        raw = _read_manifest(directory)
        if raw is not None:
            _, bodies = self._decode(raw, directory, key)
            tampered = []
            for virtual_path, (path, digest) in bodies.items():
                try:
                    body = _read_bytes(path)
                except (OSError, ValueError):  # missing, not a file, NUL
                    body = None
                if body is None or _sha256_hex(body) != digest:
                    tampered.append(virtual_path)
            if not tampered or not self._moved(key, grade, directory):
                return tampered
        return self.verify_integrity(key)

    def snapshot(self) -> dict[str, str]:
        """sha256 of every file under the root, keyed by relative path."""
        return {str(path.relative_to(self.root)): _sha256_hex(path.read_bytes())
                for path in sorted(self.root.rglob("*")) if path.is_file()}
