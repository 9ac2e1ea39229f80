"""Record store: layout, replacement lattice, integrity digests."""

import hashlib
import json
import os
import re
import sys
import tempfile
import threading
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import code_hash_lookup_oracle, layout_clash_oracle
from srcverify import store as store_module
from srcverify._keccak import keccak256
from srcverify.errors import (
    CorruptRecordError,
    DuplicateAfterNormalizationError,
    MalformedAddressError,
    NotVerifiedError,
    RecordWriteError,
    ReplacementDeniedError,
    VerifierError,
)
from srcverify.matching import Grade
from srcverify.store import RecordStore, VerificationRecord, normalize_address

VICTIM = "0x" + "11" * 20
ATTACKER = "0x" + "22" * 20
WRITER = "0x" + "33" * 20


def no_donor(record) -> bool:
    """A donor rule that accepts no record, so a lookup returns every hit."""
    return False


def record(address, grade=Grade.PARTIAL, sources=None, **kwargs):
    kwargs.setdefault("fully_qualified_target", "a.sol:A")
    kwargs.setdefault("settings", {"compilerVersion": "0.8.4+fixture"})
    kwargs.setdefault("code_hash_at_verification", keccak256(address.encode()))
    return VerificationRecord(address=address, grade=grade,
                              sources=sources or {"a.sol": "contract A {}"},
                              **kwargs)


class TestNormalizeAddress:
    def test_bytes(self):
        assert normalize_address(b"\x11" * 20) == VICTIM

    def test_string_forms(self):
        assert normalize_address("11" * 20) == VICTIM
        assert normalize_address("0x" + "AB" * 20) == "0x" + "ab" * 20

    @pytest.mark.parametrize("bad", [b"\x11" * 19, "0x1234", "zz" * 20,
                                     "1" * 39 + "\n", "\u0661" * 40,
                                     "\uff41" * 40])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            normalize_address(bad)

    @pytest.mark.parametrize("bad", [b"\x11" * 19, "0x1234", 5, None])
    def test_rejection_is_a_verifier_error(self, bad):
        with pytest.raises(MalformedAddressError) as excinfo:
            normalize_address(bad)
        assert isinstance(excinfo.value, VerifierError)
        assert isinstance(excinfo.value, ValueError)


class TestRecordValidation:
    def test_no_match_grade_not_storable(self):
        with pytest.raises(ValueError):
            record(VICTIM, grade=Grade.NO_MATCH)

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            VerificationRecord(address=VICTIM, grade=Grade.PARTIAL, sources={},
                               fully_qualified_target="a.sol:A", settings={},
                               code_hash_at_verification=bytes(32))

    def test_short_code_hash_rejected(self):
        with pytest.raises(ValueError):
            record(VICTIM, code_hash_at_verification=b"\x00" * 31)

    def test_contract_name(self):
        r = record(VICTIM, fully_qualified_target="contracts/token.sol:Token")
        assert r.contract_name == "Token"

    def test_timestamp_defaults(self):
        assert record(VICTIM).timestamp > 0


class TestStoreAndLoad:
    def test_roundtrip(self, tmp_path):
        store = RecordStore(tmp_path)
        original = record(VICTIM, grade=Grade.EXACT,
                          sources={"a.sol": "contract A {}", "lib/m.sol": "x"},
                          creation_tx_hash=keccak256(b"tx"),
                          warnings=["inline-assembly"], timestamp=123.0)
        store.store_record(original)
        loaded = store.load(VICTIM)
        assert loaded == original

    def test_text_round_trips_byte_for_byte(self, tmp_path):
        store = RecordStore(tmp_path)
        sources = {"a.sol": "a\r\nb\rc\n", "b.sol": "// h\u00e9llo \u2713"}
        store.store_record(record(VICTIM, sources=sources))
        assert store.load(VICTIM).sources == sources
        assert (tmp_path / "partial" / VICTIM / "sources" / "a.sol"
                ).read_bytes() == b"a\r\nb\rc\n"

    def test_load_accepts_byte_address(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        assert store.load(b"\x11" * 20).address == VICTIM

    def test_layout_on_disk(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, grade=Grade.PARTIAL))
        base = tmp_path / "partial" / VICTIM
        assert (base / "record").is_file()
        assert (base / "sources" / "a.sol").read_text() == "contract A {}"

    @pytest.mark.parametrize("paths", [("c/a.sol", "c/a.sol/x.sol"),
                                       ("c/a.sol", "c/a.sol/../x.sol"),
                                       ("a.sol", "../record/x.sol"),
                                       ("a.sol", "")])
    def test_file_needed_as_directory_refused_before_writing(self, tmp_path,
                                                             paths):
        store = RecordStore(tmp_path)
        with pytest.raises(DuplicateAfterNormalizationError):
            store.store_record(record(VICTIM, sources=dict.fromkeys(paths, "x")))
        assert list(tmp_path.rglob("*")) == []

    @pytest.mark.parametrize("path", ["../record.tmp", "../record.tmp/x.sol",
                                      "../record"])
    def test_source_on_the_manifest_draft_refused_before_writing(
            self, tmp_path, path):
        store = RecordStore(tmp_path)
        with pytest.raises(DuplicateAfterNormalizationError):
            store.store_record(record(VICTIM, sources={"a.sol": "x", path: "y"}))
        assert list(tmp_path.rglob("*")) == []

    def test_one_source_path_spelled_twice_refused_before_writing(self,
                                                                  tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        before = store.snapshot()
        with pytest.raises(DuplicateAfterNormalizationError,
                           match="a.sol to be two files"):
            store.store_record(record(WRITER, sources={"a.sol": "contract A {}",
                                                       "./a.sol": "contract B {}"}))
        assert store.snapshot() == before
        assert not (tmp_path / "partial" / WRITER).exists()

    def test_failed_rename_leaves_no_draft(self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        before = store.snapshot()

        def replace(src, dst):
            raise OSError(28, "No space left on device", dst)

        store_sees_os_with(monkeypatch, replace=replace)
        with pytest.raises(RecordWriteError):
            store.store_record(record(VICTIM, grade=Grade.EXACT))
        assert store.snapshot() == before
        assert not (tmp_path / "exact" / VICTIM).exists()
        assert store.load(VICTIM).grade is Grade.PARTIAL

    @pytest.mark.parametrize("other_writer", [False, True])
    def test_failed_first_write_removes_the_directories_it_made(
            self, tmp_path, monkeypatch, other_writer):
        store = RecordStore(tmp_path)

        def replace(src, dst):
            if other_writer:  # another store on this root, mid-write
                os.mkdir(tmp_path / "partial" / WRITER)
            raise OSError(28, "No space left on device", dst)

        store_sees_os_with(monkeypatch, replace=replace)
        with pytest.raises(RecordWriteError):
            store.store_record(record(VICTIM, sources={"a.sol": "x",
                                                       "lib/m.sol": "y"}))
        assert entries(tmp_path) == (["partial", f"partial/{WRITER}"]
                                     if other_writer else [])

    def test_directory_taken_by_a_file_during_the_write_refused(
            self, tmp_path, monkeypatch):
        # the disk check saw nothing there; another writer's file appears
        # before the write makes the directory
        store = RecordStore(tmp_path)
        taken = f"partial/{VICTIM}/sources"

        def mkdir(path, *args, **kwargs):
            if os.path.relpath(path, tmp_path) == taken:
                (tmp_path / taken).write_text("another writer")
            os.mkdir(path, *args, **kwargs)

        store_sees_os_with(monkeypatch, mkdir=mkdir)
        with pytest.raises(DuplicateAfterNormalizationError,
                           match=f"needs {taken}, which is already on disk"):
            store.store_record(record(VICTIM))
        assert entries(tmp_path) == []

    def test_root_spelled_through_a_link_and_dot_dot_is_one_place(
            self, tmp_path, monkeypatch):
        # the OS resolves link/.. to deep/, the store's one spelling to
        # tmp_path; reads, writes and a failed write's clean-up agree
        (tmp_path / "deep" / "er").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "deep" / "er")
        store = RecordStore(tmp_path / "link" / ".." / "store")
        assert store.root == tmp_path / "store"
        store.store_record(record(VICTIM, timestamp=1.0))
        assert store.load(VICTIM) == record(VICTIM, timestamp=1.0)
        before = store.snapshot()

        def replace(src, dst):
            raise OSError(28, "No space left on device", dst)

        store_sees_os_with(monkeypatch, replace=replace)
        with pytest.raises(RecordWriteError):
            store.store_record(record(VICTIM, grade=Grade.EXACT))
        assert store.snapshot() == before
        assert not (tmp_path / "store" / "exact" / VICTIM).exists()

    def test_refused_upgrade_keeps_the_stored_record(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        before = store.snapshot()
        clash = {"a.sol": "x", "a.sol/b.sol": "y"}
        with pytest.raises(DuplicateAfterNormalizationError):
            store.store_record(record(VICTIM, grade=Grade.EXACT, sources=clash))
        assert store.snapshot() == before
        assert store.load(VICTIM).grade is Grade.PARTIAL

    @pytest.mark.parametrize("entry", ["record/x.sol", "record/sub/x.sol",
                                       "sources"])
    def test_path_into_entry_on_disk_refused_without_leftovers(self, tmp_path,
                                                               entry):
        store = RecordStore(tmp_path)
        store.store_record(record(ATTACKER))
        before, listed = store.snapshot(), entries(tmp_path)
        sources = {"a.sol": "x", f"../../{ATTACKER}/{entry}": "y"}
        with pytest.raises(DuplicateAfterNormalizationError):
            store.store_record(record(VICTIM, sources=sources))
        assert store.snapshot() == before
        assert entries(tmp_path) == listed
        assert not (tmp_path / "partial" / VICTIM).exists()

    @pytest.mark.parametrize("second, error", [
        (f"../../{ATTACKER}/record/x.sol", DuplicateAfterNormalizationError),
        (f"../../{ATTACKER}/record/sub/x.sol", DuplicateAfterNormalizationError),
        (f"../../{ATTACKER}/sources", DuplicateAfterNormalizationError),
        ("lib/nul\0.sol", RecordWriteError),
        ("lib/" + "x" * 300 + ".sol", RecordWriteError),
    ], ids=["into-manifest", "under-manifest", "onto-sources", "nul-byte",
            "name-too-long"])
    def test_refused_write_changes_no_other_record(self, tmp_path, second,
                                                   error):
        # the first path alone would overwrite the victim's source; the
        # second makes the store refuse the record, so nothing may be written
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        store.store_record(record(ATTACKER))
        before, listed = store.snapshot(), entries(tmp_path)
        sources = {f"../../{VICTIM}/sources/a.sol": "evil", second: "y"}
        with pytest.raises(error):
            store.store_record(record(WRITER, sources=sources))
        assert store.snapshot() == before
        assert entries(tmp_path) == listed
        assert store.load(VICTIM).sources["a.sol"] == "contract A {}"

    def test_failed_upgrade_keeps_the_stored_record(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(ATTACKER, grade=Grade.EXACT))
        store.store_record(record(VICTIM))
        before, listed = store.snapshot(), entries(tmp_path)
        sources = {"a.sol": "x", f"../../{ATTACKER}/record/x.sol": "y"}
        with pytest.raises(DuplicateAfterNormalizationError):
            store.store_record(record(VICTIM, grade=Grade.EXACT, sources=sources))
        assert store.snapshot() == before
        assert entries(tmp_path) == listed
        assert store.load(VICTIM).grade is Grade.PARTIAL
        assert not (tmp_path / "exact" / VICTIM).exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    @pytest.mark.parametrize("entry", ["sources/a.sol", "record.tmp"])
    def test_fifo_where_a_file_goes_refused_not_a_wait(self, tmp_path, entry):
        store = RecordStore(tmp_path)
        store.store_record(record(ATTACKER))
        fifo = tmp_path / "partial" / VICTIM / entry
        fifo.parent.mkdir(parents=True)
        os.mkfifo(fifo)
        before = store.snapshot()
        outcome = store_with_a_fifo(store, record(VICTIM), fifo)
        assert isinstance(outcome, DuplicateAfterNormalizationError)
        assert store.snapshot() == before

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_made_after_the_disk_check_refused_not_a_wait(
            self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path)
        store.store_record(record(ATTACKER))
        before = store.snapshot()
        fifo = tmp_path / "partial" / VICTIM / "sources" / "a.sol"
        write_bytes = store_module._write_bytes

        def write_after_a_fifo(path, data):
            if path == str(fifo):
                os.mkfifo(path)
            write_bytes(path, data)

        monkeypatch.setattr(store_module, "_write_bytes", write_after_a_fifo)
        outcome = store_with_a_fifo(store, record(VICTIM), fifo)
        assert isinstance(outcome, RecordWriteError)
        assert store.snapshot() == before
        assert not (tmp_path / "partial" / VICTIM).exists()

    def test_missing_record(self, tmp_path):
        with pytest.raises(NotVerifiedError):
            RecordStore(tmp_path).load(VICTIM)
        assert not RecordStore(tmp_path).has(VICTIM)

    def test_list_and_iterate(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        store.store_record(record(ATTACKER, grade=Grade.EXACT))
        assert store.list_addresses() == sorted([VICTIM, ATTACKER])
        assert {r.address for r in store.records()} == {VICTIM, ATTACKER}

    def test_find_by_code_hash(self, tmp_path):
        store = RecordStore(tmp_path)
        shared = keccak256(b"runtime")
        store.store_record(record(VICTIM, code_hash_at_verification=shared))
        store.store_record(record(ATTACKER))
        donors = store.find_by_code_hash(shared, no_donor)
        assert [d.address for d in donors] == [VICTIM]


class TestReplacementLattice:
    def test_exact_replaces_partial(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, grade=Grade.PARTIAL))
        store.store_record(record(VICTIM, grade=Grade.EXACT))
        assert store.load(VICTIM).grade is Grade.EXACT
        # the superseded partial directory is gone, not shadowed
        assert not (tmp_path / "partial" / VICTIM).exists()

    def test_partial_never_replaces_exact(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, grade=Grade.EXACT))
        with pytest.raises(ReplacementDeniedError):
            store.store_record(record(VICTIM, grade=Grade.PARTIAL))
        assert store.load(VICTIM).grade is Grade.EXACT

    @pytest.mark.parametrize("grade", [Grade.PARTIAL, Grade.EXACT])
    def test_equal_grade_first_wins(self, tmp_path, grade):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, grade=grade, timestamp=1.0))
        with pytest.raises(ReplacementDeniedError):
            store.store_record(record(VICTIM, grade=grade, timestamp=2.0))
        assert store.load(VICTIM).timestamp == 1.0

    def test_replacement_disabled_blocks_upgrade(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, grade=Grade.PARTIAL))
        with pytest.raises(ReplacementDeniedError):
            store.store_record(record(VICTIM, grade=Grade.EXACT),
                               allow_replacement=False)

    def test_concurrent_same_address_single_winner(self, tmp_path):
        store = RecordStore(tmp_path)
        barrier = threading.Barrier(2)
        outcomes = []

        def submit(stamp):
            barrier.wait()
            try:
                store.store_record(record(VICTIM, timestamp=stamp))
                outcomes.append("stored")
            except ReplacementDeniedError:
                outcomes.append("denied")

        threads = [threading.Thread(target=submit, args=(float(i),)) for i in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(outcomes) == ["denied", "stored"]

    def test_concurrent_writers_keep_one_winner_per_address(self, tmp_path):
        store = RecordStore(tmp_path)
        addresses = ["0x" + f"{i:02x}" * 20 for i in range(1, 5)]
        outcomes = {a: [] for a in addresses}

        def submit(address, stamp):
            try:
                store.store_record(record(address, timestamp=stamp))
                outcomes[address].append("stored")
            except ReplacementDeniedError:
                outcomes[address].append("denied")

        threads = [threading.Thread(target=submit, args=(a, float(i)))
                   for i in range(3) for a in addresses]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(sorted(o) == ["denied", "denied", "stored"]
                   for o in outcomes.values())

    def test_one_lock_however_many_addresses(self, tmp_path):
        store = RecordStore(tmp_path)
        lock = store._lock
        for i in range(1000):
            store.store_record(record("0x" + f"{i:040x}"))
        assert [v for v in vars(store).values()
                if isinstance(v, type(lock))] == [lock]

    def test_reader_sees_the_whole_manifest_or_none(self, tmp_path,
                                                    monkeypatch):
        store = RecordStore(tmp_path)
        seen = loads_while_writing_a_manifest(monkeypatch, store, VICTIM)
        store.store_record(record(VICTIM, timestamp=1.0))
        store.store_record(record(VICTIM, grade=Grade.EXACT, timestamp=2.0))
        new, upgrade = seen
        assert isinstance(new, NotVerifiedError)
        assert upgrade == record(VICTIM, timestamp=1.0)
        assert store.load(VICTIM).grade is Grade.EXACT

    @pytest.mark.parametrize("read", ["record", "sources/a.sol"])
    def test_load_follows_an_upgrade_made_while_reading(self, tmp_path,
                                                        monkeypatch, read):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, timestamp=1.0))
        exact = record(VICTIM, grade=Grade.EXACT, timestamp=2.0)
        upgrade_on_reading(monkeypatch, store, f"partial/{VICTIM}/{read}",
                           exact)
        assert store.load(VICTIM) == exact
        assert not (tmp_path / "partial" / VICTIM).exists()

    @pytest.mark.parametrize("read", ["record", "sources/a.sol"])
    def test_integrity_follows_an_upgrade_made_while_reading(
            self, tmp_path, monkeypatch, read):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, timestamp=1.0))
        upgrade_on_reading(monkeypatch, store, f"partial/{VICTIM}/{read}",
                           record(VICTIM, grade=Grade.EXACT, timestamp=2.0))
        assert store.verify_integrity(VICTIM) == []
        assert not (tmp_path / "partial" / VICTIM).exists()

    @pytest.mark.parametrize("read,found", [
        ("load", record(VICTIM, grade=Grade.EXACT, timestamp=2.0)),
        ("has", True), ("verify_integrity", [])],
        ids=["load", "has", "verify_integrity"])
    def test_reader_across_an_exact_upgrade_finds_the_record(
            self, tmp_path, monkeypatch, read, found):
        # the reader looks for exact/ before the upgrade renames it in and
        # for partial/ after the upgrade removed it
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM, timestamp=1.0))
        upgrade_after_looking_at(
            monkeypatch, store, f"exact/{VICTIM}/record",
            record(VICTIM, grade=Grade.EXACT, timestamp=2.0))
        assert getattr(store, read)(VICTIM) == found
        assert not (tmp_path / "partial" / VICTIM).exists()


def upgrade_after_looking_at(monkeypatch, store, path, upgrade):
    """Store upgrade from inside the store's first look at path, relative
    to the store root, by os.stat or os.open, once that look is made."""
    pending = [upgrade]

    def after(call):
        def look(where, *args, **kwargs):
            try:
                return call(where, *args, **kwargs)
            finally:
                if pending and os.path.relpath(where, store.root) == path:
                    store.store_record(pending.pop())
        return look

    store_sees_os_with(monkeypatch, stat=after(os.stat), open=after(os.open))


def upgrade_on_reading(monkeypatch, store, path, upgrade):
    """Store upgrade from inside the store's first read of path, relative
    to the store root, before that read opens the file."""
    real = store_module._read_bytes
    pending = [upgrade]

    def read_bytes(where):
        if pending and os.path.relpath(where, store.root) == path:
            store.store_record(pending.pop())
        return real(where)

    monkeypatch.setattr(store_module, "_read_bytes", read_bytes)


def loads_while_writing_a_manifest(monkeypatch, store, address):
    """What store.load(address) gave, a record or the VerifierError it
    raised, each time the store began to write a manifest's bytes."""
    seen = []

    def write(fd, data):
        if data.startswith(b'{\n  "address"'):
            try:
                seen.append(store.load(address))
            except VerifierError as exc:
                seen.append(exc)
        return os.write(fd, data)

    store_sees_os_with(monkeypatch, write=write)
    return seen


def store_with_a_fifo(store, new_record, fifo):
    """What store_record(new_record) raised, run in a thread that must end
    within seconds.  A write still waiting on fifo fails the test; a reader
    opened on fifo then releases it."""
    outcome = []

    def write():
        try:
            store.store_record(new_record)
            outcome.append(None)
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=write, daemon=True)
    thread.start()
    thread.join(5)
    if thread.is_alive():
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            thread.join(5)
        finally:
            os.close(reader)
        pytest.fail(f"store_record still waited on {fifo} after 5 s")
    assert outcome and isinstance(outcome[0], VerifierError), outcome
    return outcome[0]


def entries(root):
    """Every path under root, directories included, relative to it; the
    store's snapshot() lists files only."""
    return sorted(str(path.relative_to(root)) for path in root.rglob("*"))


def store_sees_os_with(monkeypatch, **calls):
    """srcverify.store sees the os module with calls in place of its own."""
    monkeypatch.setattr(store_module, "os",
                        SimpleNamespace(**{**vars(os), **calls}))


# parts of virtual paths: names the store itself uses, ".." to climb out of
# the record and above the store root, and the spellings pathlib drops
path_parts = st.sampled_from(["a.sol", "b", "..", ".", "", "record",
                              "sources", "partial", "exact", VICTIM, "store"])
virtual_paths = st.builds(
    lambda lead, parts, trail: lead + "/".join(parts) + trail,
    st.sampled_from(["", "", "", "/", "//", "///"]),
    st.lists(path_parts, max_size=8), st.sampled_from(["", "/"]))


class TestLayoutCheck:
    def test_agrees_with_pathlib(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        stores = [RecordStore(tmp_path / "abs" / "store"),
                  RecordStore("rel/store")]

        @settings(max_examples=400)
        @given(st.sampled_from(stores),
               st.sampled_from([Grade.EXACT, Grade.PARTIAL]),
               st.lists(virtual_paths, min_size=1, max_size=3))
        def check(store, grade, paths):
            clash = layout_clash_oracle(store.root / grade.value / VICTIM,
                                        paths)
            drawn = record(VICTIM, grade=grade,
                           sources=dict.fromkeys(paths, "x"))
            if clash is None:
                store._check_layout(drawn)
            else:
                where = os.path.relpath(clash, store.root)
                with pytest.raises(DuplicateAfterNormalizationError,
                                   match=f"needs {re.escape(where)} to be"):
                    store._check_layout(drawn)

        check()


def counted_mkdirs(monkeypatch, root):
    """Every os.mkdir from here on, relative to root, with what it raised."""
    calls = []
    real = os.mkdir

    def counting(path, *args, **kwargs):
        where = os.path.relpath(path, root)
        try:
            real(path, *args, **kwargs)
        except OSError as exc:
            calls.append((where, type(exc).__name__))
            raise
        calls.append((where, None))

    monkeypatch.setattr(os, "mkdir", counting)
    return calls


# what the parent layout put on disk for PINNED_RECORDS, byte for byte
PINNED_FILES = {
    f"exact/{VICTIM}/record":
        "6dba390bdb11e2971bd9b5c00286c0a3214753b0d0dbf0244c147cdc086d847b",
    f"exact/{VICTIM}/sources/a.sol":
        "7ff3da8117bf263b90ac8fb9058d15c16b3ee70c02b7f7fe99f4df755b4a75c6",
    f"exact/{VICTIM}/sources/lib/m.sol":
        "5c7aeeb687618a01151ce748f7a836908856fb2bb69e8c0dfc9861f8920d3518",
    f"exact/{ATTACKER}/record":
        "1376d4590927749a0eb49b6ab4a890458925f18050ed2b3184a5b928e5e277bd",
    f"exact/{ATTACKER}/sources/b.sol":
        "3e23e8160039594a33894f6564e1b1348bbd7a0088d42c4acb73eeaed59c009d",
    f"exact/{ATTACKER}/sources/c/d.sol":
        "18ac3e7343f016890c510e93f935261169d9e3f565436429830faf0934f4f8e4",
    f"partial/{VICTIM}/sources/a.sol":
        "b5c1fb2efc6d6b4674c2fdcc48ce01b43a3b7c03763c0c3355de0099ee0f8c73",
    f"partial/{WRITER}/record":
        "75ec1cf633158e87150d17b6eada2cf8e3520269d64a001f4b7be4130de903fe",
}
PINNED_DIRS = {
    ".", "exact", "partial", f"exact/{VICTIM}", f"exact/{VICTIM}/sources",
    f"exact/{VICTIM}/sources/lib", f"exact/{ATTACKER}",
    f"exact/{ATTACKER}/sources", f"exact/{ATTACKER}/sources/c",
    f"exact/{ATTACKER}/sources/x", f"partial/{VICTIM}",
    f"partial/{VICTIM}/sources", f"partial/{WRITER}",
    f"partial/{WRITER}/sources",
}


class TestSyscalls:
    def test_fresh_record_makes_each_missing_directory_once(self, tmp_path,
                                                            monkeypatch):
        store = RecordStore(tmp_path / "store")
        calls = counted_mkdirs(monkeypatch, store.root)
        store.store_record(record(VICTIM, sources={"a.sol": "x",
                                                   "lib/m.sol": "y"}))
        base = f"partial/{VICTIM}"
        assert calls == [("partial", None), (base, None),
                         (f"{base}/sources", None),
                         (f"{base}/sources/lib", None)]

    def test_second_record_in_a_grade_makes_no_grade_directory(
            self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path / "store")
        store.store_record(record(VICTIM))
        calls = counted_mkdirs(monkeypatch, store.root)
        store.store_record(record(ATTACKER))
        assert calls == [(f"partial/{ATTACKER}", None),
                         (f"partial/{ATTACKER}/sources", None)]

    def test_bytes_and_directories_on_disk_are_pinned(self, tmp_path):
        store = RecordStore(tmp_path / "store")
        store.store_record(record(
            VICTIM, grade=Grade.EXACT,
            sources={"a.sol": "contract A {}", "lib/m.sol": "// h\u00e9llo \u2713"},
            creation_tx_hash=keccak256(b"tx"), warnings=["inline-assembly"],
            timestamp=1.0))
        store.store_record(record(ATTACKER, timestamp=2.0))
        store.store_record(record(
            ATTACKER, grade=Grade.EXACT,
            sources={"x/../b.sol": "b", "./c//d.sol": "d"}, timestamp=3.0))
        store.store_record(record(
            WRITER, sources={f"../../{VICTIM}/sources/a.sol": "evil"},
            timestamp=4.0))
        assert store.snapshot() == PINNED_FILES
        assert {os.path.relpath(d, store.root)
                for d, _, _ in os.walk(store.root)} == PINNED_DIRS
        # created with the mode open() gives a new file
        (tmp_path / "probe").write_bytes(b"")
        mode = os.stat(tmp_path / "probe").st_mode
        assert {os.stat(store.root / f).st_mode for f in PINNED_FILES} == {mode}


class TestIntegrity:
    def test_clean_record_has_no_tampering(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        assert store.verify_integrity(VICTIM) == []

    def test_traversal_path_overwrites_foreign_record(self, tmp_path):
        # the store writes virtual paths verbatim; an unsanitized ../..
        # path lands inside another address's directory
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        evil_path = f"../../{VICTIM}/sources/a.sol"
        store.store_record(record(ATTACKER,
                                  sources={evil_path: "contract Evil {}"}))
        assert (tmp_path / "partial" / VICTIM / "sources" / "a.sol"
                ).read_text() == "contract Evil {}"
        assert store.load(VICTIM).sources["a.sol"] == "contract Evil {}"
        # digests expose it: victim's manifest no longer matches disk
        assert store.verify_integrity(VICTIM) == ["a.sol"]
        assert store.verify_integrity(ATTACKER) == []

    def test_clean_records_are_isolated(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        before = {k: v for k, v in store.snapshot().items() if VICTIM in k}
        store.store_record(record(ATTACKER, grade=Grade.EXACT,
                                  sources={"b/nested.sol": "contract B {}"}))
        after = {k: v for k, v in store.snapshot().items() if VICTIM in k}
        assert before == after

    def test_snapshot_tracks_changes(self, tmp_path):
        store = RecordStore(tmp_path)
        store.store_record(record(VICTIM))
        first = store.snapshot()
        assert first == store.snapshot()
        store.store_record(record(ATTACKER))
        assert first != store.snapshot()


WANTED = keccak256(b"wanted runtime")
WANTED_HEX = "0x" + WANTED.hex()
LOOKUP_ADDRESSES = ["0x" + f"{i:02x}" * 20 for i in range(1, 6)]


@st.composite
def grade_entries(draw, address, grade):
    """What one grade directory of an address holds."""
    kind = draw(st.sampled_from(["absent", "record", "no-manifest",
                                 "record-dir"]))
    if kind != "record":
        return kind
    # sources, warnings and settings may spell the wanted hash too
    return record(
        address, grade=grade,
        code_hash_at_verification=draw(st.sampled_from(
            [WANTED, keccak256(b"other runtime")])),
        sources=draw(st.sampled_from([
            {"a.sol": "contract A {}"},
            {"a.sol": f"// {WANTED_HEX}"},
            {f"{WANTED_HEX}.sol": "contract A {}"}])),
        warnings=draw(st.sampled_from(
            [[], [WANTED_HEX], [f"inherited-from:{WANTED_HEX}"]])),
        settings=draw(st.sampled_from([{}, {"codeHash": WANTED_HEX}])))


LOOKUP_CELLS = [(address, grade) for address in LOOKUP_ADDRESSES
                for grade in (Grade.EXACT, Grade.PARTIAL)]
store_layouts = st.tuples(*(grade_entries(a, g) for a, g in LOOKUP_CELLS))


def place(root: Path, address: str, grade: Grade, entry) -> None:
    """Put one drawn grade entry on disk.  Records are written beside the
    store and moved in, past the replacement lattice, so an address can
    hold both grades."""
    directory = root / grade.value / address
    if entry == "no-manifest":
        (directory / "sources").mkdir(parents=True)
        (directory / "sources" / "a.sol").write_text("x")
    elif entry == "record-dir":
        (directory / "record").mkdir(parents=True)
    elif isinstance(entry, VerificationRecord):
        side = RecordStore(root.parent / "side")
        side.store_record(entry)
        directory.parent.mkdir(parents=True, exist_ok=True)
        (side.root / grade.value / address).rename(directory)


class TestCodeHashLookup:
    @settings(max_examples=60)
    @given(store_layouts, st.sets(st.sampled_from(LOOKUP_CELLS)))
    def test_agrees_with_parsing_every_manifest(self, entries, accepted):
        """The lookup returns the oracle's hits up to the first one the
        drawn donor rule accepts, and reads no manifest sorting after it."""
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "store"
            for (address, grade), entry in zip(LOOKUP_CELLS, entries):
                place(root, address, grade, entry)
            store = RecordStore(root)
            with pytest.MonkeyPatch.context() as patch:
                reads = self.file_reads(store, patch)
                found = store.find_by_code_hash(
                    WANTED, lambda r: (r.address, r.grade) in accepted)
            expected = []
            for address, grade in code_hash_lookup_oracle(root, WANTED):
                expected.append((address, grade))
                if (address, Grade(grade)) in accepted:
                    break
            assert [(r.address, r.grade.value) for r in found] == expected
            assert all(r.code_hash_at_verification == WANTED for r in found)
            manifests = [p for p in reads if p.endswith("/record")]
            assert len(manifests) == len(set(manifests))
            if expected and (expected[-1][0], Grade(expected[-1][1])) in accepted:
                assert max(p.split("/")[1] for p in manifests) == expected[-1][0]
            assert store.list_addresses() == sorted(
                {address for (address, _), entry in zip(LOOKUP_CELLS, entries)
                 if isinstance(entry, VerificationRecord)})

    @staticmethod
    def file_reads(store, monkeypatch) -> list[str]:
        """From now on, each file the store reads, relative to its root."""
        reads = []
        real = store_module._read_bytes

        def counting(path):
            reads.append(os.path.relpath(path, store.root))
            return real(path)

        monkeypatch.setattr(store_module, "_read_bytes", counting)
        return reads

    def test_each_manifest_is_read_once(self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path / "store")
        shared = keccak256(b"runtime")
        for address in (VICTIM, ATTACKER):
            store.store_record(record(address,
                                      code_hash_at_verification=shared))
        store.store_record(record(WRITER))
        reads = self.file_reads(store, monkeypatch)
        found = store.find_by_code_hash(shared, no_donor)
        assert [r.address for r in found] == [VICTIM, ATTACKER]
        assert sorted(p for p in reads if p.endswith("/record")) == [
            f"partial/{a}/record" for a in sorted((VICTIM, ATTACKER, WRITER))]
        reads.clear()
        found = store.find_by_code_hash(shared, lambda r: True)
        assert [r.address for r in found] == [VICTIM]
        assert [p for p in reads if p.endswith("/record")] == [
            f"partial/{VICTIM}/record"]

    def test_records_read_each_manifest_once(self, tmp_path, monkeypatch):
        store = RecordStore(tmp_path / "store")
        for address in (WRITER, VICTIM):
            store.store_record(record(address))
        store.store_record(record(ATTACKER, grade=Grade.EXACT))
        reads = self.file_reads(store, monkeypatch)
        loaded = list(store.records())
        manifests = sorted(p for p in reads if p.endswith("/record"))
        assert manifests == [f"exact/{ATTACKER}/record",
                             f"partial/{VICTIM}/record",
                             f"partial/{WRITER}/record"]
        addresses = sorted((VICTIM, ATTACKER, WRITER))
        assert [r.address for r in loaded] == addresses
        assert loaded == [store.load(a) for a in addresses]


HOST_TEXT = "contract Host {}"
HOST_DIGEST = hashlib.sha256(HOST_TEXT.encode()).hexdigest()


class TestCorruptManifest:
    def _clobbered(self, tmp_path, damage):
        """A store at tmp_path/store whose one record's manifest is the
        damage text, or the stored manifest updated with the damage dict;
        there "TMP" stands for tmp_path, which holds a file "host"."""
        store = RecordStore(tmp_path / "store")
        store.store_record(record(VICTIM, grade=Grade.EXACT))
        manifest = store.root / "exact" / VICTIM / "record"
        if isinstance(damage, dict):
            (tmp_path / "host").write_text(HOST_TEXT)
            stored = json.loads(manifest.read_text())
            damage = json.dumps({**stored, **damage}).replace(
                "TMP", str(tmp_path))
        manifest.write_text(damage)
        return store

    @pytest.mark.parametrize("damage", [
        "contract Evil {}", "", "[1]", "{}", '{"sourceDigests": 5}',
        pytest.param("[" * 100_000, id="nested-past-the-recursion-limit"),
        pytest.param({"settings": None}, id="settings-null"),
        pytest.param({"warnings": "abc"}, id="warnings-string"),
        pytest.param({"sourceDigests": {"TMP/host": HOST_DIGEST}},
                     id="absolute-key-outside-the-store"),
        pytest.param({"sourceDigests": {"../../../../host": HOST_DIGEST}},
                     id="climbing-key-outside-the-store"),
    ])
    def test_load_and_integrity_raise_corrupt_record(self, tmp_path, damage):
        store = self._clobbered(tmp_path, damage)
        with pytest.raises(CorruptRecordError):
            store.load(VICTIM)
        with pytest.raises(CorruptRecordError):
            store.verify_integrity(VICTIM)
        with pytest.raises(CorruptRecordError):
            list(store.records())

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_fifo_in_place_of_a_manifest_is_corrupt_not_a_wait(self, tmp_path):
        store = RecordStore(tmp_path)
        (tmp_path / "exact" / VICTIM).mkdir(parents=True)
        os.mkfifo(tmp_path / "exact" / VICTIM / "record")
        assert store.has(VICTIM)
        assert store.list_addresses() == [VICTIM]
        with pytest.raises(CorruptRecordError):
            store.load(VICTIM)

    def test_address_and_grade_come_from_the_location(self, tmp_path):
        store = self._clobbered(tmp_path, {"address": ATTACKER,
                                           "grade": "partial"})
        loaded = store.load(VICTIM)
        assert (loaded.address, loaded.grade) == (VICTIM, Grade.EXACT)
        assert store.find_by_code_hash(loaded.code_hash_at_verification,
                                       no_donor) == [loaded]

    def test_lookup_reads_past_a_manifest_without_the_hash(self, tmp_path):
        store = self._clobbered(tmp_path, "contract Evil {}")
        shared = keccak256(b"runtime")
        store.store_record(record(ATTACKER, code_hash_at_verification=shared))
        assert [d.address for d in store.find_by_code_hash(shared, no_donor)
                ] == [ATTACKER]

    def test_lookup_raises_on_a_broken_manifest_with_the_hash(self, tmp_path):
        shared = keccak256(b"runtime")
        store = self._clobbered(tmp_path, f'{{"codeHash": "0x{shared.hex()}",')
        with pytest.raises(CorruptRecordError):
            store.find_by_code_hash(shared, no_donor)
