"""The write-ahead event journal.

Durability layer number one: every kernel event is appended — *before* the
caller sees the operation complete — to an append-only JSONL journal.  One
line is one :class:`JournalRecord`: the event (kind, timestamp, subject,
actor, payload) plus a monotonically increasing sequence number and an
optional ``state`` enrichment block written by the
:class:`~repro.persistence.coordinator.PersistenceCoordinator` (e.g. the
full model document on ``model.published``, so replay never depends on
state that evaporated with the process).

Design points, in the spirit of classic WAL implementations:

* **Segments.**  The journal is a directory of segment files named
  ``journal-<first-seq>.jsonl``.  A segment is rotated once it holds
  ``segment_max_records`` records; a fresh segment is also started on every
  open, so a recovering process never appends to a file another process may
  have torn.  Fully-snapshotted segments are deleted by
  :meth:`Journal.truncate_through`.
* **fsync policy.**  ``"always"`` fsyncs every append (maximum durability,
  slowest), ``"interval"`` fsyncs every ``fsync_interval`` appends and on
  rotation/close (bounded loss window), ``"never"`` leaves flushing to the
  OS (fastest; a host crash may lose the tail, a mere process crash does
  not).  Every append is *flushed* to the OS regardless, so readers in the
  same host always see complete data.
* **Torn tails.**  A crash can leave a half-written final line.  The reader
  tolerates exactly that — an undecodable *final* line of the *final*
  segment is ignored; corruption anywhere else raises
  :class:`~repro.errors.StorageError` because it means real damage, not an
  interrupted append.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Dict, Iterator, List, Optional

from ..errors import JournalTruncatedError, StorageError
from ..events import Event
from ..storage.repository import fsync_directory
from ..telemetry import DEFAULT_FAST_BUCKETS, get_registry, span_scope
from ..telemetry.profiling import TimedLock

#: Valid values of the ``fsync`` policy knob.
FSYNC_POLICIES = ("always", "interval", "never")

_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".jsonl"


def _segment_first_seq(name: str) -> Optional[int]:
    """The sequence number of a segment's first record, from its file name."""
    stem = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
    try:
        return int(stem)
    except ValueError:
        return None


def list_segments(directory: str) -> List[str]:
    """The journal segment file names in ``directory``, oldest first."""
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        name for name in names
        if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
    )


#: Bytes :func:`scan_last_seq` reads per step backwards from a segment's end.
_TAIL_BLOCK = 8192


def _line_seq(line: bytes) -> Optional[int]:
    """The ``seq`` of one journal line, or ``None`` when it does not decode."""
    try:
        return int(json.loads(line)["seq"])
    except (ValueError, KeyError):
        return None


def scan_oldest_seq(directory: str) -> int:
    """The sequence number of the oldest record still on disk (0 when empty).

    Read-only and best-effort: used for error reporting when a streaming
    cursor turns out to predate the retained window.
    """
    for name in list_segments(directory):
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                for line in handle:
                    seq = _line_seq(line)
                    if seq is not None:
                        return seq
        except OSError:
            continue
    return 0


def _last_line_seq(handle) -> Optional[int]:
    """The seq of the last decodable line of a binary segment handle.

    Reads backwards in :data:`_TAIL_BLOCK` steps, so the cost is the tail
    up to that line, not the whole segment.  An unterminated final fragment
    counts when it decodes, exactly as a forward scan would count it.
    """
    end = handle.seek(0, os.SEEK_END)
    carry = b""
    while end > 0:
        start = max(0, end - _TAIL_BLOCK)
        handle.seek(start)
        lines = (handle.read(end - start) + carry).split(b"\n")
        end = start
        # Unless the block starts the file, its first piece is the end of a
        # line that begins in an earlier block.
        carry = lines.pop(0) if start else b""
        for line in reversed(lines):
            seq = _line_seq(line)
            if seq is not None:
                return seq
    return None


def scan_last_seq(directory: str) -> int:
    """The newest sequence number on disk — read-only, no torn-tail repair.

    The read-only sibling of :meth:`Journal._recover_last_seq` for
    followers that observe another process's journal directory: it must
    never truncate (repair is the *writer's* job on reopen) and it
    tolerates a torn final line by simply not counting it.  Each segment is
    read backwards from its end, so a call costs the tail, not the segment.
    """
    for name in reversed(list_segments(directory)):
        try:
            with open(os.path.join(directory, name), "rb") as handle:
                last_seq = _last_line_seq(handle)
        except OSError:
            continue
        if last_seq is not None:
            return last_seq
        # An empty segment (crash between open and first append) still
        # proves its name's sequence number was reached before it opened.
        first = _segment_first_seq(name)
        if first:
            return first
    return 0


@dataclass
class ScanPosition:
    """Where a streaming reader's last :func:`scan_records` pass stopped.

    Reader-owned and updated in place as records are yielded: the segment
    file, the byte offset just past the newline of the last yielded record,
    and that record's seq.  A later scan with ``after_seq == seq`` seeks to
    ``offset`` instead of re-parsing the segment from its start.  A stale
    or mangled position is harmless: it is verified before use and dropped
    when it does not hold.
    """

    segment: Optional[str] = None
    offset: int = 0
    seq: Optional[int] = None


def _resumes_at(handle, offset: int, seq: int) -> bool:
    """Whether a binary segment handle holds record ``seq`` at ``offset``.

    The offset must start a line, and the first complete line there must be
    record ``seq``.  Nothing past the offset yet (a caught-up reader) also
    holds: the bytes before a newline are never rewritten.
    """
    handle.seek(offset - 1)
    if handle.read(1) != b"\n":
        return False
    for line in handle:
        if line.strip():
            return line.endswith(b"\n") and _line_seq(line) == seq
    return True


def scan_records(directory: str, after_seq: int = 0,
                 segments: List[str] = None,
                 strict: bool = False,
                 position: ScanPosition = None) -> Iterator[JournalRecord]:
    """Yield records with ``seq > after_seq`` from a journal directory.

    The shared read path of :meth:`Journal.read` (live journal, segments
    snapshotted under its lock) and the replication stream (read-only
    follower over another process's directory).  Two concurrent-reader
    guarantees make it rotation-safe:

    * a segment that vanishes between listing and opening was truncated by
      a concurrent checkpoint — that raises the *resumable*
      :class:`~repro.errors.JournalTruncatedError`, never the corruption
      :class:`~repro.errors.StorageError`;
    * with ``strict=True`` the yielded sequence numbers must be dense
      starting at ``after_seq + 1`` (journal seqs are consecutive by
      construction), so a cursor pointing into a truncated-away range
      raises :class:`JournalTruncatedError` instead of silently skipping
      the gap — a streaming follower must re-bootstrap, not lose records.

    A streaming reader passes its own :class:`ScanPosition`: when
    ``after_seq`` is the position's seq, the scan seeks to the position's
    byte offset, so a batch costs its own records rather than the whole
    segment.  The position only ever moves past newline-terminated lines,
    so a record caught half-flushed is re-read whole next time.
    """
    if segments is None:
        segments = list_segments(directory)
    resume = position is not None and position.seq == after_seq
    expected = after_seq + 1
    for index, name in enumerate(segments):
        last_segment = index == len(segments) - 1
        # Skip whole segments that the next segment's first seq proves
        # are entirely covered by ``after_seq``.
        if not last_segment:
            next_first = _segment_first_seq(segments[index + 1])
            if next_first is not None and next_first <= after_seq + 1:
                continue
        path = os.path.join(directory, name)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            raise JournalTruncatedError(
                "journal segment {!r} was truncated away while reading; "
                "re-bootstrap from the newest snapshot".format(name),
                oldest_available=scan_oldest_seq(directory))
        except OSError as exc:
            raise StorageError("could not read journal segment {!r}: {}".format(
                path, exc))
        with handle:
            # Only the first segment read can hold the reader's position.
            offset = position.offset if resume and name == position.segment else 0
            resume = False
            if offset and not _resumes_at(handle, offset, expected):
                offset = 0
            handle.seek(offset)
            for line in handle:
                start, offset = offset, offset + len(line)
                if not line.strip():
                    continue
                try:
                    record = JournalRecord.from_dict(json.loads(line))
                except (ValueError, KeyError) as exc:
                    if last_segment and (not line.endswith(b"\n")
                                         or not handle.read(1)):
                        # Torn tail from a crashed (or mid-append) writer:
                        # the record never fully made it, so it never
                        # happened.
                        return
                    raise StorageError(
                        "corrupt journal record in {!r} at byte {}: {}".format(
                            path, start, exc))
                if record.seq > after_seq:
                    if strict and record.seq != expected:
                        raise JournalTruncatedError(
                            "journal records {}..{} were rotated out and "
                            "truncated; the stream cursor is stale — "
                            "re-bootstrap from the newest snapshot".format(
                                expected, record.seq - 1),
                            oldest_available=record.seq)
                    expected = record.seq + 1
                    if position is not None and line.endswith(b"\n"):
                        position.segment = name
                        position.offset = offset
                        position.seq = record.seq
                    yield record


@dataclass
class JournalRecord:
    """One journaled kernel event, plus replay enrichment."""

    seq: int
    kind: str
    timestamp: str  # ISO-8601; kept as text so append never re-parses.
    subject_id: str
    actor: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    #: Extra durable state attached by the coordinator (model documents,
    #: creation-time instance state); ``None`` for plain events.
    state: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "seq": self.seq,
            "kind": self.kind,
            "timestamp": self.timestamp,
            "subject_id": self.subject_id,
            "actor": self.actor,
            "payload": self.payload,
        }
        if self.state is not None:
            record["state"] = self.state
        return record

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JournalRecord":
        return cls(
            seq=int(data["seq"]),
            kind=data["kind"],
            timestamp=data["timestamp"],
            subject_id=data.get("subject_id", ""),
            actor=data.get("actor"),
            payload=dict(data.get("payload") or {}),
            state=data.get("state"),
        )

    @property
    def event_timestamp(self) -> datetime:
        return datetime.fromisoformat(self.timestamp)


class Journal:
    """Append-only, segmented JSONL journal with configurable fsync."""

    def __init__(self, directory: str, fsync: str = "interval",
                 fsync_interval: int = 64, segment_max_records: int = 10_000):
        if fsync not in FSYNC_POLICIES:
            raise StorageError(
                "unknown fsync policy {!r}; expected one of {}".format(
                    fsync, ", ".join(FSYNC_POLICIES)))
        if fsync_interval < 1:
            raise StorageError("fsync_interval must be at least 1")
        if segment_max_records < 1:
            raise StorageError("segment_max_records must be at least 1")
        self._directory = directory
        os.makedirs(directory, exist_ok=True)
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._segment_max = segment_max_records
        # The append lock is wrapped in TimedLock: waits feed the
        # gelee_lock_wait_seconds{site="journal"} histogram (sampled).
        # The condition below is built over the *wrapped* RLock — a
        # Condition needs the raw lock's owner bookkeeping, and its waits
        # are deliberate long-poll sleeps, not contention.
        self._lock = TimedLock(threading.RLock(), site="journal")
        self._handle = None
        self._segment_count = 0      # records in the open segment
        self._unsynced = 0           # appends since the last fsync
        self._appended = 0           # appends in this process lifetime
        self._dir_synced = True      # open segment's dir entry made durable?
        #: Notified (under ``self._lock``) on every append; long-polling
        #: readers — the replication primary's ``wait_for`` — sleep on it
        #: instead of re-scanning the directory.
        self._append_cv = threading.Condition(self._lock.wrapped)
        #: Optional fencing guard (:mod:`repro.coordination.fencing`):
        #: when installed, every append first proves this node's leadership
        #: epoch is still current, so a deposed primary's late writes never
        #: reach the log (and therefore never replicate).
        self._fence = None
        self._seq = self._recover_last_seq()
        registry = get_registry()
        self._metric_append = registry.histogram(
            "gelee_journal_append_seconds",
            "Wall-clock time of one journal append (write+flush+policy fsync).",
            buckets=DEFAULT_FAST_BUCKETS)
        self._metric_fsync = registry.histogram(
            "gelee_journal_fsync_seconds",
            "Wall-clock time of one forced journal fsync.",
            buckets=DEFAULT_FAST_BUCKETS)
        self._metric_seq = registry.gauge(
            "gelee_journal_last_seq",
            "Sequence number of the newest journal record.")
        self._metric_truncated = registry.counter(
            "gelee_journal_truncated_segments_total",
            "Journal segments removed by truncation.")

    # ------------------------------------------------------------------- state
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def last_seq(self) -> int:
        """Sequence number of the newest record (0 for an empty journal)."""
        with self._lock:
            return self._seq

    @property
    def appended_count(self) -> int:
        """Records appended since this journal object was opened."""
        with self._lock:
            return self._appended

    def segment_files(self) -> List[str]:
        """The segment file names, oldest first."""
        return list_segments(self._directory)

    def first_available_seq(self) -> int:
        """The oldest sequence number still on disk (0 for an empty journal).

        Streaming followers compare their cursor against this to report how
        a :class:`~repro.errors.JournalTruncatedError` came about.
        """
        return scan_oldest_seq(self._directory)

    def status(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": self._directory,
                "last_seq": self._seq,
                "appended": self._appended,
                "segments": len(self.segment_files()),
                "fsync": self._fsync,
                "fsync_interval": self._fsync_interval,
                "segment_max_records": self._segment_max,
            }

    # ------------------------------------------------------------------ writes
    def append(self, kind: str, timestamp: datetime, subject_id: str,
               actor: Optional[str] = None, payload: Dict[str, Any] = None,
               state: Dict[str, Any] = None) -> JournalRecord:
        """Append one record; returns it with its sequence number filled in.

        With a fence installed (:meth:`set_fence`) the append raises
        :class:`~repro.errors.StaleFencingTokenError` — *before* any state
        changes — when this node's leadership epoch has been superseded.
        """
        with self._lock:
            if self._fence is not None:
                self._fence.check()
            started = time.perf_counter()
            self._seq += 1
            # The span runs under the journal lock; span_scope is a couple
            # of dict operations, cheap enough for this path (the telemetry
            # benchmark holds the line).  It makes the write+flush+fsync
            # tail of a request visible in its span tree.
            with span_scope("journal.append", kind=kind, seq=self._seq):
                record = JournalRecord(
                    seq=self._seq, kind=kind, timestamp=timestamp.isoformat(),
                    subject_id=subject_id, actor=actor,
                    payload=dict(payload or {}), state=state,
                )
                line = json.dumps(record.to_dict(), default=str,
                                  separators=(",", ":"))
                handle = self._current_handle()
                try:
                    handle.write(line + "\n")
                    handle.flush()
                except OSError as exc:
                    raise StorageError("journal append failed: {}".format(exc))
                self._appended += 1
                self._segment_count += 1
                self._unsynced += 1
                if self._fsync == "always" or (
                        self._fsync == "interval"
                        and self._unsynced >= self._fsync_interval):
                    self._fsync_handle(handle)
                if self._segment_count >= self._segment_max:
                    self._close_handle()
            self._metric_append.observe(time.perf_counter() - started)
            self._metric_seq.set(self._seq)
            self._append_cv.notify_all()
            return record

    def append_event(self, event: Event, state: Dict[str, Any] = None) -> JournalRecord:
        """Append a kernel :class:`~repro.events.Event`."""
        return self.append(event.kind, event.timestamp, event.subject_id,
                           actor=event.actor, payload=dict(event.payload),
                           state=state)

    def set_fence(self, guard) -> None:
        """Install a fencing guard; every append checks it first.

        ``guard`` is anything with a ``check()`` that raises
        :class:`~repro.errors.StaleFencingTokenError` for a superseded
        epoch — in practice a
        :class:`~repro.coordination.fencing.FencingGuard`.
        """
        with self._lock:
            self._fence = guard

    def clear_fence(self) -> None:
        with self._lock:
            self._fence = None

    def wait_for_seq(self, seq: int, timeout: float = None) -> int:
        """Block until the journal head reaches ``seq``; returns the head.

        The push half of long-poll streaming: every append notifies, so a
        waiting reader wakes within a lock handoff of the write instead of
        a poll interval later.  Returns the current head either way — the
        caller compares it against ``seq`` to distinguish data from timeout.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._append_cv:
            while self._seq < seq:
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    break
                self._append_cv.wait(remaining)
            return self._seq

    def sync(self) -> None:
        """Force the journal tail to stable storage regardless of policy.

        An *explicit* sync overrides even ``fsync="never"`` — that policy
        governs the automatic per-append behaviour, not a caller's direct
        request (checkpoints and ``close`` rely on this).
        """
        with self._lock:
            if self._handle is not None:
                self._force_fsync(self._handle)

    def rotate(self) -> bool:
        """Seal the open segment so the next append starts a fresh one.

        Rotation normally happens when a segment fills
        (``segment_max_records``); an explicit rotate lets the scheduler's
        maintenance job seal segments on a *time* schedule too, so a
        low-traffic deployment still produces bounded, truncatable segments.
        Returns ``True`` when an open segment was sealed.
        """
        with self._lock:
            if self._handle is None:
                return False
            self._close_handle()
            return True

    def close(self) -> None:
        with self._lock:
            self._close_handle()

    # ------------------------------------------------------------------- reads
    def read(self, after_seq: int = 0, strict: bool = False,
             position: ScanPosition = None) -> Iterator[JournalRecord]:
        """Yield records with ``seq > after_seq``, oldest first.

        Reads the segment files directly (snapshotted under the lock), so a
        recovering process can read a directory written by a crashed one.
        With ``strict=True`` a gap in the sequence — the cursor points into
        a truncated-away range — raises the resumable
        :class:`~repro.errors.JournalTruncatedError` (see
        :func:`scan_records`); streaming readers use this so rotation and
        truncation can never silently swallow records.  A streaming reader
        passes its :class:`ScanPosition` to resume where it stopped.
        """
        with self._lock:
            # Make sure everything appended so far is visible to the reader.
            if self._handle is not None:
                self._handle.flush()
            segments = self.segment_files()
        return scan_records(self._directory, after_seq=after_seq,
                            segments=segments, strict=strict, position=position)

    # -------------------------------------------------------------- truncation
    def truncate_through(self, seq: int) -> List[str]:
        """Delete segments whose records are all ``<= seq``; returns them.

        Only whole segments are removed (a segment is provably covered when
        the *next* segment starts at or below ``seq + 1``), and the segment
        currently open for appends is never touched.
        """
        removed = []
        with self._lock:
            segments = self.segment_files()
            open_name = None
            if self._handle is not None:
                open_name = os.path.basename(self._handle.name)
            for position in range(len(segments) - 1):
                name = segments[position]
                if name == open_name:
                    break
                next_first = _segment_first_seq(segments[position + 1])
                if next_first is None or next_first > seq + 1:
                    break
                try:
                    os.unlink(os.path.join(self._directory, name))
                except OSError as exc:
                    raise StorageError(
                        "could not truncate journal segment {!r}: {}".format(name, exc))
                removed.append(name)
        if removed:
            self._metric_truncated.inc(len(removed))
        return removed

    # ------------------------------------------------------------------ internal
    def _current_handle(self):
        if self._handle is None:
            name = "{}{:016d}{}".format(_SEGMENT_PREFIX, self._seq, _SEGMENT_SUFFIX)
            path = os.path.join(self._directory, name)
            try:
                self._handle = open(path, "a", encoding="utf-8")
            except OSError as exc:
                raise StorageError("could not open journal segment {!r}: {}".format(
                    path, exc))
            self._segment_count = 0
            self._dir_synced = False
        return self._handle

    def _close_handle(self) -> None:
        """Seal the open segment: fsync (per contract, even under ``never``
        when rotation was policy-driven the fsync matters — a sealed segment
        is never written again) and close.

        fsync failures PROPAGATE as :class:`StorageError` — rotation happens
        inside ``append``, and swallowing the error there would let the
        coordinator report ``journal_failures=0`` while the sealed segment's
        tail never reached stable storage.
        """
        handle, self._handle = self._handle, None
        self._segment_count = 0
        if handle is None:
            return
        try:
            self._force_fsync(handle)
        finally:
            try:
                handle.close()
            except OSError:
                pass

    def _fsync_handle(self, handle) -> None:
        """Policy-respecting sync, called on the append path."""
        if self._fsync == "never":
            self._unsynced = 0
            return
        self._force_fsync(handle)

    def _force_fsync(self, handle) -> None:
        started = time.perf_counter()
        try:
            handle.flush()
            os.fsync(handle.fileno())
        except OSError as exc:
            raise StorageError("journal fsync failed: {}".format(exc))
        self._metric_fsync.observe(time.perf_counter() - started)
        # File data alone is not enough the first time: the segment's
        # directory entry must also survive power loss, or the whole
        # fsynced segment vanishes with the dirent.
        if not self._dir_synced:
            fsync_directory(self._directory)
            self._dir_synced = True
        self._unsynced = 0

    def _recover_last_seq(self) -> int:
        """Find the highest sequence number on disk, repairing a torn tail.

        A crashed writer can leave a half-written final line in the last
        segment.  That fragment is *truncated away* here (the record never
        committed, so it never happened) — otherwise a later append to the
        same segment would concatenate onto the fragment and corrupt both
        records.  Only the last segment can be torn: older segments are
        sealed at rotation and never written again.
        """
        segments = self.segment_files()
        if not segments:
            return 0
        path = os.path.join(self._directory, segments[-1])
        # A segment that never received its first record (crash between open
        # and write) proves only that seq ``first - 1`` was reached before it.
        first = _segment_first_seq(segments[-1])
        last_seq = (first - 1) if first else 0
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise StorageError("could not open journal segment {!r}: {}".format(
                path, exc))
        offset = 0
        valid_end = 0
        saw_bad_line = False
        while offset < len(data):
            newline = data.find(b"\n", offset)
            if newline == -1:
                break  # unterminated fragment: provably a torn append
            line = data[offset:newline].strip()
            offset = newline + 1
            if not line:
                continue
            seq = _line_seq(line)
            if seq is None:
                # Only tolerable as the *trailing* damage of a crash.  If
                # valid records follow, truncating here would destroy
                # committed data — that is corruption, and it must raise
                # exactly like read() does, never silently repair.
                saw_bad_line = True
                continue
            if saw_bad_line:
                raise StorageError(
                    "corrupt journal record followed by valid data in {!r}; "
                    "refusing to repair".format(path))
            last_seq = seq
            valid_end = offset
        if valid_end < len(data):
            try:
                os.truncate(path, valid_end)
            except OSError as exc:
                raise StorageError("could not repair journal segment {!r}: {}".format(
                    path, exc))
        return last_seq
