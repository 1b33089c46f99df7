"""Tests for :mod:`repro.persistence`: journal, snapshots, stores, recovery.

The centrepiece is the kill-and-restart round trip required by the durable
runtime: create >= 1k instances across >= 4 shards with persistence enabled,
drop every in-memory structure, recover from snapshot + journal (file and
SQLite backends) and verify that phases, statuses, secondary-index query
results and the execution-log contents are identical to the pre-crash state.
"""

import json
import os
from itertools import islice

import pytest

from repro.actions import library
from repro.clock import SimulatedClock
from repro.errors import (
    ConcurrencyError,
    JournalTruncatedError,
    ServiceError,
    StorageError,
)
from repro.events import BatchingEventBus, Event
from repro.model import LifecycleBuilder
from repro.persistence import (
    FileStore,
    Journal,
    MemoryStore,
    PersistenceConfig,
    PersistenceCoordinator,
    SQLiteStore,
    ScanPosition,
    SnapshotManifest,
    SnapshotStore,
    document_for,
    list_segments,
    recover_into,
    scan_last_seq,
    scan_records,
)
from repro.plugins import build_standard_environment
from repro.runtime import LifecycleManager, ShardedLifecycleManager
from repro.service.api import GeleeService
from repro.service.rest import RestRouter
from repro.storage import ExecutionLog


def bench_model(name="Persistence lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Work")
    builder.phase("Review")
    builder.terminal("End")
    builder.flow("Work", "Review", "End")
    builder.action("Work", library.CHANGE_ACCESS_RIGHTS, "Change access rights",
                   visibility="team")
    return builder.build()


def build_runtime(shard_count=4):
    clock = SimulatedClock()
    environment = build_standard_environment(clock=clock)
    bus = BatchingEventBus(max_batch=64)
    log = ExecutionLog(bus=bus)
    manager = ShardedLifecycleManager(environment, shard_count=shard_count,
                                      clock=clock, bus=bus, rng_seed=0)
    return environment, bus, log, manager


# ================================================================== journal
class TestJournal:
    def _ts(self):
        return SimulatedClock().now()

    def test_append_read_round_trip(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        journal.append("a.one", ts, "s1", actor="alice", payload={"n": 1})
        journal.append("a.two", ts, "s2", state={"model": {"uri": "m"}})
        records = list(journal.read())
        assert [r.seq for r in records] == [1, 2]
        assert records[0].kind == "a.one"
        assert records[0].actor == "alice"
        assert records[0].payload == {"n": 1}
        assert records[0].state is None
        assert records[1].state == {"model": {"uri": "m"}}
        assert journal.last_seq == 2

    def test_read_after_seq(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(10):
            journal.append("k", ts, "s")
        assert [r.seq for r in journal.read(after_seq=7)] == [8, 9, 10]
        assert list(journal.read(after_seq=10)) == []

    def test_segment_rotation_and_truncation(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never", segment_max_records=5)
        ts = self._ts()
        for index in range(17):
            journal.append("k", ts, "s")
        assert len(journal.segment_files()) == 4
        # Everything is still readable across segments.
        assert [r.seq for r in journal.read()] == list(range(1, 18))
        # Truncating through seq 10 removes the two fully-covered segments.
        removed = journal.truncate_through(10)
        assert len(removed) == 2
        assert [r.seq for r in journal.read()] == list(range(11, 18))
        # Replay from a snapshot position still works after truncation.
        assert [r.seq for r in journal.read(after_seq=12)] == list(range(13, 18))

    def test_reopen_continues_sequence(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(3):
            journal.append("k", ts, "s")
        journal.close()
        reopened = Journal(str(tmp_path), fsync="never")
        assert reopened.last_seq == 3
        record = reopened.append("k", ts, "s")
        assert record.seq == 4
        assert [r.seq for r in reopened.read()] == [1, 2, 3, 4]

    def test_torn_tail_is_repaired_on_open(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(3):
            journal.append("k", ts, "s")
        journal.close()
        # Simulate a crash mid-append: a half-written final line.
        segment = os.path.join(str(tmp_path), journal.segment_files()[-1])
        with open(segment, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "kind": "k", "times')
        reopened = Journal(str(tmp_path), fsync="never")
        # The fragment never committed: seq 4 is reused and readable.
        assert reopened.last_seq == 3
        record = reopened.append("k2", ts, "s")
        assert record.seq == 4
        records = list(reopened.read())
        assert [r.seq for r in records] == [1, 2, 3, 4]
        assert records[-1].kind == "k2"

    def test_fsync_policies(self, tmp_path):
        for policy in ("always", "interval", "never"):
            journal = Journal(str(tmp_path / policy), fsync=policy, fsync_interval=2)
            journal.append("k", self._ts(), "s")
            journal.sync()
            journal.close()
        with pytest.raises(StorageError):
            Journal(str(tmp_path / "bad"), fsync="sometimes")

    def test_corrupt_record_before_valid_data_refuses_repair(self, tmp_path):
        """A torn tail is repairable; an undecodable record *followed by
        valid records* is corruption — truncating would destroy committed
        data, so reopening must raise instead."""
        journal = Journal(str(tmp_path), fsync="never")
        ts = self._ts()
        for index in range(3):
            journal.append("k", ts, "s")
        journal.close()
        segment = os.path.join(str(tmp_path), journal.segment_files()[-1])
        with open(segment, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = "#corrupt#" + lines[1]
        with open(segment, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError):
            Journal(str(tmp_path), fsync="never")

    def test_explicit_sync_overrides_never_policy(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr("repro.persistence.journal.os.fsync",
                            lambda fd: synced.append(fd))
        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s")
        assert synced == []  # the policy suppresses per-append fsyncs...
        journal.sync()
        # ...but never an explicit request: the segment file is fsynced and,
        # first time for this segment, so is its directory entry.
        assert len(synced) == 2

    def test_append_event(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        event = Event(kind="instance.created", timestamp=self._ts(),
                      subject_id="inst-1", actor="alice", payload={"a": 1})
        journal.append_event(event)
        record = next(journal.read())
        assert record.kind == "instance.created"
        assert record.subject_id == "inst-1"
        assert record.event_timestamp == event.timestamp


# ========================================================== long-poll waits
class TestJournalWaitForSeq:
    """Edge cases of the long-poll primitive replication streams park on."""

    def _ts(self):
        return SimulatedClock().now()

    def test_timeout_expires_cleanly_and_journal_stays_usable(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s1")
        import time
        started = time.monotonic()
        head = journal.wait_for_seq(10, timeout=0.05)
        elapsed = time.monotonic() - started
        # Returns the *current* head (caller distinguishes timeout from
        # data by comparing), promptly, and without poisoning the journal.
        assert head == 1
        assert 0.04 <= elapsed < 2.0
        journal.append("k", self._ts(), "s2")
        assert journal.wait_for_seq(2, timeout=0.05) == 2
        # An already-satisfied wait returns immediately, even with no
        # timeout at all.
        assert journal.wait_for_seq(1) == 2

    def test_zero_timeout_is_a_nonblocking_head_read(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s1")
        assert journal.wait_for_seq(99, timeout=0) == 1

    def test_wakeup_across_segment_rotation(self, tmp_path):
        """The append that satisfies the wait lands in a *new* segment; the
        waiter must still wake, and the stream must read densely across the
        boundary from its old cursor."""
        import threading

        journal = Journal(str(tmp_path), fsync="never", segment_max_records=3)
        for index in range(3):  # fills the first segment exactly
            journal.append("k", self._ts(), "s{}".format(index))
        results = {}

        def wait():
            results["head"] = journal.wait_for_seq(5, timeout=5.0)

        waiter = threading.Thread(target=wait)
        waiter.start()
        # These appends open segment two while the waiter is parked.
        journal.append("k", self._ts(), "s3")
        journal.append("k", self._ts(), "s4")
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert results["head"] == 5
        assert len(journal.segment_files()) == 2
        assert [r.seq for r in journal.read(after_seq=2, strict=True)] == \
            [3, 4, 5]

    def test_explicit_rotate_does_not_wake_a_parked_waiter(self, tmp_path):
        import threading

        journal = Journal(str(tmp_path), fsync="never")
        journal.append("k", self._ts(), "s0")
        woke = threading.Event()
        results = {}

        def wait():
            results["head"] = journal.wait_for_seq(2, timeout=5.0)
            woke.set()

        waiter = threading.Thread(target=wait)
        waiter.start()
        # Rotation changes files, not the head: the waiter stays parked
        # (a spurious wake would hand the follower an empty batch).
        assert journal.rotate() is True
        assert not woke.wait(timeout=0.2)
        journal.append("k", self._ts(), "s1")
        assert woke.wait(timeout=5.0)
        assert results["head"] == 2

    def test_truncation_mid_wait_neither_wakes_nor_corrupts(self, tmp_path):
        """A checkpoint truncating old segments while a follower is parked
        must not wake it (the head did not move) — and afterwards the
        follower's *stale* cursor gets the typed staleness error while its
        live cursor keeps streaming."""
        import threading

        from repro.errors import JournalTruncatedError

        journal = Journal(str(tmp_path), fsync="never", segment_max_records=3)
        for index in range(7):  # segments [1..3], [4..6], [7..]
            journal.append("k", self._ts(), "s{}".format(index))
        woke = threading.Event()
        results = {}

        def wait():
            results["head"] = journal.wait_for_seq(8, timeout=5.0)
            woke.set()

        waiter = threading.Thread(target=wait)
        waiter.start()
        removed = journal.truncate_through(6)
        assert len(removed) == 2
        assert not woke.wait(timeout=0.2), \
            "truncation must not wake a waiter — the head did not advance"
        journal.append("k", self._ts(), "s7")
        assert woke.wait(timeout=5.0)
        assert results["head"] == 8
        # The live cursor resumes exactly; the truncated-away one is typed.
        assert [r.seq for r in journal.read(after_seq=6, strict=True)] == \
            [7, 8]
        with pytest.raises(JournalTruncatedError) as excinfo:
            list(journal.read(after_seq=2, strict=True))
        assert excinfo.value.oldest_available == 7


# ======================================================== resumable reads
def full_scan_last_seq(directory):
    """The forward, whole-segment ``scan_last_seq`` that the tail read
    replaced; kept as the reference its answers must match."""
    for name in reversed(list_segments(directory)):
        last_seq = None
        try:
            with open(os.path.join(directory, name), encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        last_seq = int(json.loads(line)["seq"])
                    except (ValueError, KeyError):
                        continue
        except OSError:
            continue
        if last_seq is not None:
            return last_seq
        first = int(name[len("journal-"):-len(".jsonl")])
        if first:
            return first
    return 0


def write_segment(directory, first_seq, lines):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "journal-{:016d}.jsonl".format(first_seq))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(lines))
    return path


def record_line(seq, pad=0):
    return json.dumps({"seq": seq, "kind": "k", "timestamp": "2009-01-01T00:00:00",
                       "subject_id": "s", "payload": {"pad": "x" * pad}},
                      separators=(",", ":")) + "\n"


class TestScanLastSeqTail:
    """``scan_last_seq`` reads segments backwards from the end; its answer
    must equal the old full forward scan's on every layout."""

    LAYOUTS = {
        "single": [(1, [record_line(seq) for seq in range(1, 6)])],
        "torn fragment": [(1, [record_line(1), record_line(2), record_line(3)[:25]])],
        "torn terminated garbage": [(1, [record_line(1), "#garbage#\n"])],
        "whole record without newline": [(1, [record_line(1), record_line(2)[:-1]])],
        "blank lines": [(1, [record_line(1), "\n", record_line(2), "\n\n"])],
        "corrupt middle line": [(1, [record_line(1), "#bad#\n", record_line(3)])],
        "empty last segment": [(1, [record_line(1), record_line(2)]), (3, [])],
        "garbage-only last segment": [(1, [record_line(1)]), (2, ["#x"])],
        "empty segment named 0": [(0, [])],
        "multi segment": [(1, [record_line(seq) for seq in range(1, 4)]),
                          (4, [record_line(seq) for seq in range(4, 9)])],
        "lines longer than the tail block": [
            (1, [record_line(seq, pad=7000) for seq in range(1, 5)]
             + [record_line(5, pad=20000)[:-300]])],
        "fragment longer than the tail block": [
            (1, [record_line(1), record_line(2, pad=30000)[:-2]])],
        "no segments": [],
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    def test_tail_read_matches_full_scan(self, tmp_path, layout):
        directory = str(tmp_path / "journal")
        os.makedirs(directory)
        for first_seq, lines in self.LAYOUTS[layout]:
            write_segment(directory, first_seq, lines)
        sizes = {name: os.path.getsize(os.path.join(directory, name))
                 for name in os.listdir(directory)}
        assert scan_last_seq(directory) == full_scan_last_seq(directory)
        assert {name: os.path.getsize(os.path.join(directory, name))
                for name in os.listdir(directory)} == sizes, "must stay read-only"

    def test_live_journal_head(self, tmp_path):
        journal = Journal(str(tmp_path), fsync="never", segment_max_records=4)
        for index in range(10):
            journal.append("k", SimulatedClock().now(), "s",
                           payload={"pad": "y" * (index * 900)})
            assert scan_last_seq(str(tmp_path)) == journal.last_seq == index + 1


class TestScanPosition:
    """Resumable reads: a reader-owned :class:`ScanPosition` lets the next
    scan seek to where the last one stopped, and never changes what a scan
    returns."""

    def _journal(self, tmp_path, **options):
        return Journal(str(tmp_path), fsync="never", **options)

    def _append(self, journal, count):
        for index in range(count):
            journal.append("k", SimulatedClock().now(), "s{}".format(index))

    def test_position_follows_yielded_records(self, tmp_path):
        journal = self._journal(tmp_path)
        self._append(journal, 5)
        position = ScanPosition()
        batch = list(islice(journal.read(strict=True, position=position), 3))
        assert [r.seq for r in batch] == [1, 2, 3]
        assert position.seq == 3
        assert position.segment == journal.segment_files()[0]
        with open(os.path.join(str(tmp_path), position.segment), "rb") as handle:
            assert handle.read()[:position.offset].count(b"\n") == 3

    def test_resume_does_not_reparse_lines_before_the_position(self, tmp_path):
        journal = self._journal(tmp_path)
        self._append(journal, 5)
        position = ScanPosition()
        assert [r.seq for r in journal.read(strict=True, position=position)] == \
            [1, 2, 3, 4, 5]
        # Damage line 2 in place (same length, so offsets hold).
        path = os.path.join(str(tmp_path), journal.segment_files()[0])
        with open(path, "r+b") as handle:
            handle.seek(handle.read().index(b"\n") + 1)
            handle.write(b"#")
        self._append(journal, 2)
        assert [r.seq for r in journal.read(5, strict=True, position=position)] == \
            [6, 7]
        with pytest.raises(StorageError):
            list(journal.read(5, strict=True))

    def test_position_at_end_of_sealed_segment_carries_into_next(self, tmp_path):
        journal = self._journal(tmp_path)
        self._append(journal, 3)
        position = ScanPosition()
        assert [r.seq for r in journal.read(strict=True, position=position)] == \
            [1, 2, 3]
        sealed = position.segment
        assert list(journal.read(3, strict=True, position=position)) == []
        assert journal.rotate() is True
        self._append(journal, 2)
        assert len(journal.segment_files()) == 2
        assert [r.seq for r in journal.read(3, strict=True, position=position)] == \
            [4, 5]
        assert position.segment != sealed
        assert position.seq == 5

    def test_truncated_position_segment_raises_typed_error(self, tmp_path):
        journal = self._journal(tmp_path, segment_max_records=4)
        self._append(journal, 6)
        position = ScanPosition()
        assert [r.seq for r in islice(
            journal.read(strict=True, position=position), 2)] == [1, 2]
        self._append(journal, 6)  # segments [1..4], [5..8], [9..12]
        assert len(journal.truncate_through(8)) == 2
        assert position.segment not in journal.segment_files()
        with pytest.raises(JournalTruncatedError) as excinfo:
            list(journal.read(2, strict=True, position=position))
        assert excinfo.value.oldest_available == 9

    def test_position_for_another_seq_falls_back_to_full_scan(self, tmp_path):
        journal = self._journal(tmp_path)
        self._append(journal, 10)
        position = ScanPosition()
        assert len(list(journal.read(strict=True, position=position))) == 10
        assert position.seq == 10
        assert [r.seq for r in journal.read(4, strict=True, position=position)] == \
            list(range(5, 11))
        assert position.seq == 10

    @pytest.mark.parametrize("offset_shift", [-7, 1, 10 ** 6])
    def test_bad_offset_is_dropped_not_raised(self, tmp_path, offset_shift):
        journal = self._journal(tmp_path)
        self._append(journal, 6)
        position = ScanPosition()
        list(islice(journal.read(strict=True, position=position), 3))
        position.offset += offset_shift  # mid-line, or past the end
        assert [r.seq for r in journal.read(3, strict=True, position=position)] == \
            [4, 5, 6]
        assert position.seq == 6

    def test_offset_of_the_wrong_record_is_dropped(self, tmp_path):
        journal = self._journal(tmp_path)
        self._append(journal, 6)
        position = ScanPosition()
        list(islice(journal.read(strict=True, position=position), 2))
        stale_offset = position.offset
        list(islice(journal.read(2, strict=True, position=position), 2))
        position.offset = stale_offset  # points at record 3, not 5
        assert [r.seq for r in journal.read(4, strict=True, position=position)] == \
            [5, 6]

    def test_half_written_line_is_not_skipped_once_complete(self, tmp_path):
        directory = str(tmp_path)
        path = write_segment(directory, 1, [record_line(seq) for seq in (1, 2, 3)])
        position = ScanPosition()
        assert [r.seq for r in scan_records(directory, 0, strict=True,
                                            position=position)] == [1, 2, 3]
        line = record_line(4)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[:30])
        assert list(scan_records(directory, 3, strict=True, position=position)) == []
        assert position.seq == 3
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(line[30:-1])  # whole record, newline still missing
        assert [r.seq for r in scan_records(directory, 3, strict=True,
                                            position=position)] == [4]
        assert position.seq == 3, "only newline-terminated lines move it"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n" + record_line(5))
        assert [r.seq for r in scan_records(directory, 3, strict=True,
                                            position=position)] == [4, 5]
        assert position.seq == 5

    @pytest.mark.parametrize("valid_first", [False, True])
    def test_corrupt_line_after_position_is_storage_error(self, tmp_path,
                                                           valid_first):
        directory = str(tmp_path)
        path = write_segment(directory, 1, [record_line(seq) for seq in (1, 2)])
        position = ScanPosition()
        assert len(list(scan_records(directory, 0, strict=True,
                                     position=position))) == 2
        with open(path, "a", encoding="utf-8") as handle:
            if valid_first:
                handle.write(record_line(3))
            handle.write("#corrupt#\n" + record_line(4))
        with pytest.raises(StorageError):
            list(scan_records(directory, 2, strict=True, position=position))

    def test_torn_tail_after_position_is_tolerated(self, tmp_path):
        directory = str(tmp_path)
        path = write_segment(directory, 1, [record_line(1)])
        position = ScanPosition()
        assert len(list(scan_records(directory, 0, position=position))) == 1
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(record_line(2) + "#torn#\n")
        assert [r.seq for r in scan_records(directory, 1, strict=True,
                                            position=position)] == [2]


# ================================================================= snapshots
class TestSnapshotStore:
    def test_publish_latest_and_retention(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=2)
        for seq in (10, 20, 30):
            store.publish(SnapshotManifest(journal_seq=seq, taken_at="t"))
        assert store.snapshot_seqs() == [20, 30]
        assert store.latest().journal_seq == 30

    def test_empty_store(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).latest() is None

    def test_corrupt_latest_falls_back(self, tmp_path):
        store = SnapshotStore(str(tmp_path), retain=5)
        store.publish(SnapshotManifest(journal_seq=1, taken_at="t"))
        store.publish(SnapshotManifest(journal_seq=2, taken_at="t"))
        # Corrupt the newest manifest in place.
        newest = sorted(p for p in os.listdir(str(tmp_path)))[-1]
        with open(os.path.join(str(tmp_path), newest), "w") as handle:
            handle.write("{not json")
        assert store.latest().journal_seq == 1


# ==================================================================== stores
@pytest.fixture(params=["memory", "file", "sqlite"])
def instance_store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    elif request.param == "file":
        yield FileStore(str(tmp_path / "instances"))
    else:
        store = SQLiteStore(str(tmp_path / "instances.sqlite3"))
        yield store
        store.close()


class TestInstanceStores:
    def _document(self, instance_id, owner="alice", phase="work", status="active"):
        return {
            "instance_id": instance_id, "model_uri": "urn:m", "owner": owner,
            "resource_uri": "urn:r:" + instance_id, "phase_id": phase,
            "status": status, "journal_seq": 7, "state": {"instance_id": instance_id},
        }

    def test_upsert_get_all(self, instance_store):
        instance_store.upsert(self._document("i1"))
        instance_store.upsert(self._document("i2", owner="bob"))
        assert instance_store.count() == 2
        assert instance_store.ids() == ["i1", "i2"]
        assert instance_store.get("i1")["owner"] == "alice"
        assert instance_store.get("missing") is None
        assert [d["instance_id"] for d in instance_store.all()] == ["i1", "i2"]

    def test_upsert_replaces_and_reindexes(self, instance_store):
        instance_store.upsert(self._document("i1", phase="work"))
        instance_store.upsert(self._document("i1", phase="review", status="active"))
        assert instance_store.count() == 1
        assert instance_store.get("i1")["phase_id"] == "review"
        assert instance_store.query(phase_id="work") == []
        assert [d["instance_id"] for d in instance_store.query(phase_id="review")] == ["i1"]

    def test_indexed_queries(self, instance_store):
        for index in range(10):
            instance_store.upsert(self._document(
                "i{}".format(index),
                owner="alice" if index % 2 == 0 else "bob",
                phase="work" if index < 7 else "review",
                status="active" if index < 9 else "completed"))
        assert len(instance_store.query(owner="alice")) == 5
        assert len(instance_store.query(phase_id="review")) == 3
        assert len(instance_store.query(owner="bob", phase_id="work")) == 3
        assert len(instance_store.query(status="completed")) == 1
        with pytest.raises(StorageError):
            instance_store.query(color="red")

    def test_clear(self, instance_store):
        instance_store.upsert(self._document("i1"))
        instance_store.clear()
        assert instance_store.count() == 0
        assert instance_store.query(owner="alice") == []

    def test_document_for_shape(self):
        environment, bus, log, manager = build_runtime(shard_count=2)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        descriptor = environment.adapter("Google Doc").create_resource(
            "doc", owner="alice")
        instance = manager.instantiate(model.uri, descriptor, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        document = document_for(manager.instance(instance.instance_id), 42)
        assert document["instance_id"] == instance.instance_id
        assert document["model_uri"] == model.uri
        assert document["phase_id"] == "work"
        assert document["status"] == "active"
        assert document["journal_seq"] == 42
        # The embedded state is JSON-serializable and complete.
        json.dumps(document["state"])
        assert document["state"]["model"]["uri"] == model.uri


# =============================================================== coordinator
class TestCoordinator:
    def test_events_are_journaled_with_enrichment(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="memory", fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        descriptor = environment.adapter("Google Doc").create_resource(
            "doc", owner="alice")
        instance = manager.instantiate(
            model.uri, descriptor, owner="alice",
            metadata={"project": "p1"}, token_owners=["bob"])
        bus.flush()
        records = {r.kind: r for r in coordinator.journal.read()}
        assert records["model.published"].state["model"]["uri"] == model.uri
        creation = records["instance.created"].state["instance"]
        assert creation["owner"] == "alice"
        assert creation["metadata"] == {"project": "p1"}
        assert "bob" in creation["token_owners"]
        assert creation["resource"]["uri"] == descriptor.uri
        assert coordinator.dirty_count >= 1
        assert instance.instance_id in {r.subject_id for r in coordinator.journal.read()}
        coordinator.close()

    def test_checkpoint_flushes_and_truncates(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="file", fsync="never",
                                   segment_max_records=10)
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        adapter = environment.adapter("Google Doc")
        for index in range(8):
            descriptor = adapter.create_resource("doc {}".format(index), owner="alice")
            instance = manager.instantiate(model.uri, descriptor, owner="alice")
            manager.start(instance.instance_id, actor="alice")
        report = coordinator.checkpoint()
        assert report["instances_flushed"] == 8
        assert report["durable"] is True
        assert coordinator.store.count() == 8
        assert coordinator.dirty_count == 0
        assert coordinator.snapshots.latest().journal_seq == report["journal_seq"]
        # All fully-covered segments are gone; replay starts at the snapshot.
        assert list(coordinator.journal.read(after_seq=report["journal_seq"])) == []
        status = coordinator.status()
        assert status["enabled"] is True
        assert status["checkpoints"] == 1
        assert status["journal_records_since_snapshot"] == 0
        coordinator.close()

    def test_memory_backend_never_truncates_the_journal(self, tmp_path):
        """A RAM store cannot back a manifest's durability promise: the full
        journal must survive checkpoints, or a restart loses every
        checkpointed instance."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="memory", fsync="never",
                                   segment_max_records=5)
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        adapter = environment.adapter("Google Doc")
        for index in range(6):
            descriptor = adapter.create_resource("doc {}".format(index), owner="alice")
            manager.start(manager.instantiate(model.uri, descriptor,
                                              owner="alice").instance_id,
                          actor="alice")
        report = coordinator.checkpoint()
        assert report["durable"] is False
        assert report["snapshot_id"] is None
        assert report["segments_truncated"] == 0
        assert coordinator.snapshots.latest() is None
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()

        # A different process (empty memory store): the journal alone
        # rebuilds everything, because nothing was ever truncated.
        environment2, bus2, log2, manager2 = build_runtime()
        recovery = recover_into(manager2, log2, config.open_journal(),
                                config.open_snapshots(), MemoryStore())
        assert recovery.instances_created_from_journal == 6
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_journal_failures_are_counted_and_repaired_by_checkpoint(self, tmp_path):
        """A failing disk must not fail kernel operations silently: the
        coordinator counts the lost appends, surfaces them in status(), and
        a checkpoint — which flushes the (still dirty-marked) instances and
        the in-memory log — repairs the durability gap."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="file", fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        adapter = environment.adapter("Google Doc")

        broken = {"on": False}
        original = coordinator.journal.append_event

        def flaky_append(event, state=None):
            if broken["on"]:
                raise StorageError("disk full")
            return original(event, state=state)

        coordinator.journal.append_event = flaky_append
        broken["on"] = True
        descriptor = adapter.create_resource("doc", owner="alice")
        instance = manager.instantiate(model.uri, descriptor, owner="alice")
        manager.start(instance.instance_id, actor="alice")
        bus.flush()
        status = coordinator.status()
        assert status["journal_failures"] > 0
        assert "disk full" in status["last_journal_error"]
        # The instance is still dirty despite the failed appends...
        assert instance.instance_id in {iid for iid in coordinator._dirty}
        broken["on"] = False
        report = coordinator.checkpoint()
        assert report["journal_failures_repaired"] > 0
        assert coordinator.status()["journal_failures"] == 0
        coordinator.close()

        # ...so a restart still recovers it, from the store + manifest log.
        environment2, bus2, log2, manager2 = build_runtime()
        recover_into(manager2, log2, config.open_journal(),
                     config.open_snapshots(), config.open_store())
        recovered = manager2.instance(instance.instance_id)
        assert recovered.current_phase_id == "work"
        assert log2.count(subject_id=instance.instance_id) == \
            log.count(subject_id=instance.instance_id)

    def test_failed_flush_keeps_instances_dirty(self, tmp_path):
        """If the store flush fails, the captured dirty set must be
        re-merged: otherwise a later successful checkpoint would truncate
        the journal past mutations whose documents were never persisted."""
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="file", fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        descriptor = environment.adapter("Google Doc").create_resource(
            "doc", owner="alice")
        instance = manager.instantiate(model.uri, descriptor, owner="alice")
        bus.flush()
        assert coordinator.dirty_count == 1

        def broken_upsert(documents):
            raise StorageError("disk full")

        original = coordinator.store.upsert_many
        coordinator.store.upsert_many = broken_upsert
        with pytest.raises(StorageError):
            coordinator.checkpoint()
        assert instance.instance_id in coordinator._dirty
        assert coordinator.snapshots.latest() is None  # no manifest either
        coordinator.store.upsert_many = original
        report = coordinator.checkpoint()
        assert report["instances_flushed"] == 1
        coordinator.close()

    def test_closed_coordinator_refuses_checkpoints(self, tmp_path):
        environment, bus, log, manager = build_runtime()
        config = PersistenceConfig(str(tmp_path), backend="memory", fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        coordinator.close()
        with pytest.raises(ServiceError):
            coordinator.checkpoint()

    def test_config_rejects_unknown_backend(self, tmp_path):
        with pytest.raises(StorageError):
            PersistenceConfig(str(tmp_path), backend="cassandra")


# ================================================================== recovery
def drive_workload(environment, manager, model, count=60):
    """Create ``count`` instances, progress a mix, annotate a few."""
    adapter = environment.adapter("Google Doc")
    requests = []
    for index in range(count):
        descriptor = adapter.create_resource("doc {}".format(index),
                                             owner="alice" if index % 3 else "bob")
        requests.append({"model_uri": model.uri, "resource": descriptor,
                         "owner": "alice" if index % 3 else "bob"})
    instances = manager.batch_instantiate(requests)
    ids = [instance.instance_id for instance in instances]
    manager.map_instances(ids, lambda shard, iid: shard.start(iid, actor="alice"))
    manager.map_instances(ids[: count // 2],
                          lambda shard, iid: shard.advance(iid, actor="alice",
                                                           to_phase_id="review"))
    manager.map_instances(ids[: count // 4],
                          lambda shard, iid: shard.advance(iid, actor="alice",
                                                           to_phase_id="end"))
    for iid in ids[:5]:
        manager.annotate(iid, actor="alice", text="note for {}".format(iid))
    return ids


def state_fingerprint(manager, log, model_uri):
    """Everything the acceptance criteria compare, in one comparable dict."""
    instances = manager.instances()
    return {
        "phases": {i.instance_id: i.current_phase_id for i in instances},
        "statuses": {i.instance_id: i.status.value for i in instances},
        "visits": {i.instance_id: i.visited_phase_ids() for i in instances},
        "by_phase_review": sorted(i.instance_id
                                  for i in manager.instances(phase_id="review")),
        "by_owner_bob": sorted(i.instance_id for i in manager.instances(owner="bob")),
        "by_model": len(manager.instances(model_uri=model_uri)),
        "phase_distribution": manager.phase_distribution(),
        "status_distribution": {s.value: c for s, c
                                in manager.status_distribution().items()},
        "shard_sizes": manager.shard_sizes(),
        "log": [(e.sequence, e.kind, e.subject_id, e.actor,
                 json.dumps(e.payload, sort_keys=True, default=str))
                for e in log.entries()],
    }


@pytest.mark.parametrize("backend", ["file", "sqlite"])
class TestKillAndRestart:
    def test_recovery_rebuilds_identical_state(self, tmp_path, backend):
        environment, bus, log, manager = build_runtime(shard_count=4)
        config = PersistenceConfig(str(tmp_path), backend=backend, fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=60)

        # Checkpoint mid-workload, then keep going: recovery must combine
        # the snapshot with a non-empty journal tail.
        coordinator.checkpoint()
        manager.map_instances(
            ids[30:45], lambda shard, iid: shard.advance(iid, actor="alice",
                                                         to_phase_id="review"))
        manager.annotate(ids[40], actor="bob", text="post-checkpoint note")
        bus.flush()
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()
        del manager, log, bus  # the crash: every in-memory structure is gone

        environment2, bus2, log2, manager2 = build_runtime(shard_count=4)
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.records_replayed > 0
        assert report.warnings == []
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_recovery_without_snapshot_replays_everything(self, tmp_path, backend):
        environment, bus, log, manager = build_runtime(shard_count=4)
        config = PersistenceConfig(str(tmp_path), backend=backend, fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        drive_workload(environment, manager, model, count=20)
        bus.flush()
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()

        environment2, bus2, log2, manager2 = build_runtime(shard_count=4)
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.snapshot_seq == 0
        assert report.instances_created_from_journal == 20
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_recover_then_continue_then_recover_again(self, tmp_path, backend):
        """The full restart loop: recovered deployments keep journaling."""
        config = PersistenceConfig(str(tmp_path), backend=backend, fsync="never")
        environment, bus, log, manager = build_runtime(shard_count=4)
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=24)
        coordinator.checkpoint()
        # Post-checkpoint tail that only the journal knows about.
        manager.advance(ids[20], actor="alice", to_phase_id="review")
        bus.flush()
        coordinator.close()

        # Restart 1: recover, attach a new coordinator (marking replayed
        # instances dirty), checkpoint — which truncates the tail — and work.
        environment2, bus2, log2, manager2 = build_runtime(shard_count=4)
        journal2, snapshots2, store2 = (config.open_journal(),
                                        config.open_snapshots(),
                                        config.open_store())
        report = recover_into(manager2, log2, journal2, snapshots2, store2)
        coordinator2 = PersistenceCoordinator(manager2, log2, journal2,
                                              snapshots2, store2, bus=bus2)
        for instance_id in report.touched_instance_ids:
            coordinator2.mark_dirty(instance_id)
        coordinator2.checkpoint()
        manager2.advance(ids[21], actor="alice", to_phase_id="review")
        bus2.flush()
        expected = state_fingerprint(manager2, log2, model.uri)
        coordinator2.close()

        # Restart 2: the instance advanced before restart 1's checkpoint must
        # still be on review — its state survived the journal truncation.
        environment3, bus3, log3, manager3 = build_runtime(shard_count=4)
        recover_into(manager3, log3, config.open_journal(),
                     config.open_snapshots(), config.open_store())
        assert manager3.instance(ids[20]).current_phase_id == "review"
        assert manager3.instance(ids[21]).current_phase_id == "review"
        assert state_fingerprint(manager3, log3, model.uri) == expected


class TestKillAndRestartAtScale:
    """The acceptance-criteria round trip: >= 1k instances on >= 4 shards."""

    @pytest.mark.parametrize("backend", ["file", "sqlite"])
    def test_thousand_instances_round_trip(self, tmp_path, backend):
        environment, bus, log, manager = build_runtime(shard_count=4)
        config = PersistenceConfig(str(tmp_path), backend=backend, fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        adapter = environment.adapter("Google Doc")
        requests = [{"model_uri": model.uri,
                     "resource": adapter.create_resource("doc {}".format(i),
                                                         owner="alice"),
                     "owner": "alice" if i % 4 else "bob"}
                    for i in range(1000)]
        ids = [i.instance_id for i in manager.batch_instantiate(requests)]
        manager.map_instances(ids, lambda shard, iid: shard.start(iid, actor="alice"))
        coordinator.checkpoint()
        # A journal tail on top of the snapshot: 400 advance past it.
        manager.map_instances(ids[:400],
                              lambda shard, iid: shard.advance(
                                  iid, actor="alice", to_phase_id="review"))
        bus.flush()
        assert all(size > 0 for size in manager.shard_sizes())
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.close()
        del manager, log, bus

        environment2, bus2, log2, manager2 = build_runtime(shard_count=4)
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.instances_restored == 1000
        assert report.warnings == []
        assert manager2.instance_count() == 1000
        assert state_fingerprint(manager2, log2, model.uri) == expected


# ============================================================== service tier
class TestServicePersistence:
    def test_service_round_trip_and_endpoints(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), backend="sqlite", fsync="never")
        router = RestRouter(shard_count=4, persistence=config)
        service = router.service
        model = service.publish_template("eu-deliverable", actor="alice")
        descriptor = service.environment.adapter("Google Doc").create_resource(
            "D1.1", owner="alice")
        created = router.post("/v2/instances", body={
            "model_uri": model["uri"], "resource": descriptor.to_dict(),
            "owner": "alice"}, actor="alice")
        assert created.status == 201
        instance_id = created.body["data"]["instance_id"]
        router.post("/v2/instances/{}:start".format(instance_id), actor="alice")

        status = router.get("/v2/runtime/persistence")
        assert status.status == 200
        assert status.body["data"]["enabled"] is True
        assert status.body["data"]["backend"] == "sqlite"
        assert status.body["data"]["dirty_instances"] >= 1

        checkpoint = router.post("/v2/runtime/persistence:checkpoint")
        assert checkpoint.status == 201
        assert checkpoint.body["data"]["instances_flushed"] == 1
        stats = router.get("/v2/runtime/stats")
        assert stats.body["data"]["persistence_enabled"] is True
        service.close()

        # Restart: same config, state comes back before the first request.
        router2 = RestRouter(shard_count=4, persistence=config)
        detail = router2.get("/v2/instances/{}".format(instance_id))
        assert detail.status == 200
        assert detail.body["data"]["status"] == "active"
        status2 = router2.get("/v2/runtime/persistence")
        assert status2.body["data"]["recovery"]["instances_restored"] == 1
        router2.service.close()

    def test_disabled_persistence_surface(self):
        router = RestRouter(shard_count=2)
        status = router.get("/v2/runtime/persistence")
        assert status.body["data"] == {"enabled": False}
        checkpoint = router.post("/v2/runtime/persistence:checkpoint")
        assert checkpoint.status == 400
        assert checkpoint.body["error"]["code"] == "BAD_REQUEST"
        stats = router.get("/v2/runtime/stats")
        assert stats.body["data"]["persistence_enabled"] is False
        with pytest.raises(ServiceError):
            GeleeService().persistence_checkpoint()

    def test_router_rejects_service_plus_persistence(self, tmp_path):
        service = GeleeService()
        with pytest.raises(ServiceError):
            RestRouter(service=service,
                       persistence=PersistenceConfig(str(tmp_path)))

    def test_log_retention_knob_bounds_snapshot_manifests(self, tmp_path):
        config = PersistenceConfig(str(tmp_path), backend="file", fsync="never",
                                   log_max_entries=10)
        service = GeleeService(shard_count=2, persistence=config)
        assert service.execution_log.max_entries == 10
        model = service.publish_template("eu-deliverable", actor="alice")
        adapter = service.environment.adapter("Google Doc")
        for index in range(8):
            descriptor = adapter.create_resource("D{}".format(index), owner="alice")
            instance = service.create_instance(model["uri"], descriptor.to_dict(),
                                               owner="alice", actor="alice")
            service.start_instance(instance["instance_id"], actor="alice")
        service.persistence_checkpoint()
        manifest = service.persistence.snapshots.latest()
        assert len(manifest.log["entries"]) <= 10
        service.close()

    def test_single_manager_service_is_also_durable(self, tmp_path):
        """The persistence knob works on the classic unsharded kernel too."""
        config = PersistenceConfig(str(tmp_path), backend="file", fsync="never")
        service = GeleeService(persistence=config)
        assert isinstance(service.manager, LifecycleManager)
        assert not isinstance(service.manager, ShardedLifecycleManager)
        model = service.publish_template("eu-deliverable", actor="alice")
        descriptor = service.environment.adapter("Google Doc").create_resource(
            "D9", owner="alice")
        instance = service.create_instance(model["uri"], descriptor.to_dict(),
                                           owner="alice", actor="alice")
        service.persistence_checkpoint()
        service.close()

        service2 = GeleeService(persistence=config)
        detail = service2.instance_detail(instance["instance_id"])
        assert detail["status"] == "created"
        service2.close()


# ===================================== crash interactions (rotation, torn
# tails, mid-checkpoint kills): the failure modes that cross layer borders.
class TestCrashInteractions:
    def _ts(self):
        return SimulatedClock().now()

    def test_torn_tail_after_rotation_repairs_only_final_segment(self, tmp_path):
        """A crash mid-append after several rotations: only the *final*
        segment can be torn; repair must fix it without touching the sealed
        segments, and the sequence must continue correctly."""
        journal = Journal(str(tmp_path), fsync="never", segment_max_records=4)
        ts = self._ts()
        for index in range(10):
            journal.append("k", ts, "s{}".format(index))
        journal.close()
        segments = journal.segment_files()
        assert len(segments) >= 3
        sealed = os.path.join(str(tmp_path), segments[0])
        sealed_bytes = open(sealed, "rb").read()
        torn = os.path.join(str(tmp_path), segments[-1])
        with open(torn, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 11, "kind": "k", "timest')

        reopened = Journal(str(tmp_path), fsync="never", segment_max_records=4)
        assert reopened.last_seq == 10
        assert open(sealed, "rb").read() == sealed_bytes
        record = reopened.append("k2", ts, "s")
        assert record.seq == 11
        assert [r.seq for r in reopened.read()] == list(range(1, 12))

    def test_torn_line_in_sealed_segment_is_corruption(self, tmp_path):
        """Only the final segment may legitimately carry a torn tail —
        sealed segments were fsynced at rotation, so damage there is real
        corruption and reading must raise, not skip."""
        journal = Journal(str(tmp_path), fsync="never", segment_max_records=3)
        ts = self._ts()
        for index in range(7):
            journal.append("k", ts, "s")
        journal.close()
        sealed = os.path.join(str(tmp_path), journal.segment_files()[0])
        with open(sealed, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[-1] = lines[-1][:20] + "\n"  # tear a line in a sealed segment
        with open(sealed, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(StorageError):
            list(Journal(str(tmp_path), fsync="never").read())

    def test_crash_between_store_flush_and_manifest_publish(self, tmp_path):
        """Kill the process inside checkpoint, after the instance documents
        reached the store but before the manifest landed: recovery must
        combine the (manifest-less) documents with full journal replay and
        lose nothing."""
        environment, bus, log, manager = build_runtime(shard_count=4)
        config = PersistenceConfig(str(tmp_path), backend="file", fsync="never")
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=24)
        bus.flush()
        expected = state_fingerprint(manager, log, model.uri)

        publish_attempted = {"count": 0}

        def crash_publish(manifest):
            publish_attempted["count"] += 1
            raise StorageError("killed during manifest publish")

        coordinator.snapshots.publish = crash_publish
        with pytest.raises(StorageError):
            coordinator.checkpoint()
        assert publish_attempted["count"] == 1
        store = config.open_store()
        assert store.count() > 0, "documents were flushed before the kill"
        store.close()
        del coordinator, manager, log, bus  # the kill

        environment2, bus2, log2, manager2 = build_runtime(shard_count=4)
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.snapshot_seq == 0  # no manifest ever landed
        assert report.instances_restored == 24  # ...but the documents did
        assert report.warnings == []
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_kill_and_restart_during_partial_store_flush(self, tmp_path):
        """Kill the process after only *some* documents of a checkpoint were
        flushed (mid ``upsert_many``): per-document journal_seq coverage
        must keep replay idempotent over the half-flushed store."""
        environment, bus, log, manager = build_runtime(shard_count=4)
        config = PersistenceConfig(str(tmp_path), backend="file", fsync="never")
        store = config.open_store()
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            store, bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=24)
        bus.flush()
        expected = state_fingerprint(manager, log, model.uri)

        original_upsert_many = store.upsert_many

        def partial_flush(documents):
            documents = list(documents)
            original_upsert_many(documents[: len(documents) // 2])
            raise StorageError("killed mid-flush")

        store.upsert_many = partial_flush
        with pytest.raises(StorageError):
            coordinator.checkpoint()
        flushed = config.open_store()
        assert 0 < flushed.count() < 24
        flushed.close()
        del coordinator, store, manager, log, bus  # the kill

        environment2, bus2, log2, manager2 = build_runtime(shard_count=4)
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.warnings == []
        assert state_fingerprint(manager2, log2, model.uri) == expected

    def test_checkpoint_rotation_torn_tail_combined(self, tmp_path):
        """The full gauntlet in one run: checkpoint (journal truncation),
        segment rotation, then a crash that tears the live tail — recovery
        must still produce the exact pre-crash state."""
        environment, bus, log, manager = build_runtime(shard_count=4)
        config = PersistenceConfig(str(tmp_path), backend="sqlite",
                                   fsync="never", segment_max_records=32)
        coordinator = PersistenceCoordinator(
            manager, log, config.open_journal(), config.open_snapshots(),
            config.open_store(), bus=bus)
        model = bench_model()
        manager.publish_model(model, actor="coordinator")
        ids = drive_workload(environment, manager, model, count=20)
        bus.flush()
        checkpoint = coordinator.checkpoint()
        assert checkpoint["segments_truncated"] >= 1
        manager.map_instances(
            ids[10:16], lambda shard, iid: shard.advance(iid, actor="alice",
                                                         to_phase_id="review"))
        bus.flush()
        expected = state_fingerprint(manager, log, model.uri)
        coordinator.journal.rotate()
        manager.annotate(ids[0], actor="alice", text="doomed note")
        bus.flush()
        # The crash tears the very last journal line (the annotation): that
        # record never committed, so the recovered state must equal the
        # pre-annotation fingerprint... minus nothing else.
        expected_log_tail = [e for e in log.entries()
                             if not (e.kind == "instance.annotated"
                                     and e.subject_id == ids[0]
                                     and e.payload.get("text") == "doomed note")]
        del coordinator, manager, log, bus
        journal_dir = config.journal_directory
        segments = sorted(os.listdir(journal_dir))
        tail_path = os.path.join(journal_dir, segments[-1])
        data = open(tail_path, "rb").read()
        with open(tail_path, "wb") as handle:
            handle.write(data[:-10])  # tear the final line mid-record

        environment2, bus2, log2, manager2 = build_runtime(shard_count=4)
        report = recover_into(manager2, log2, config.open_journal(),
                              config.open_snapshots(), config.open_store())
        assert report.warnings == []
        fingerprint = state_fingerprint(manager2, log2, model.uri)
        assert fingerprint["phases"] == expected["phases"]
        assert fingerprint["shard_sizes"] == expected["shard_sizes"]
        assert [e.kind for e in log2.entries()] == \
            [e.kind for e in expected_log_tail]
