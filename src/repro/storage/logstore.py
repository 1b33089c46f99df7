"""The execution log.

Fig. 2's data tier includes an "Execution log" covering instance progression,
action results and model evolution.  :class:`ExecutionLog` subscribes to the
kernel event bus and records every event; the monitoring cockpit and the
history widgets query it.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from datetime import datetime
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..events import Event, EventBus


@dataclass
class LogEntry:
    """One recorded kernel event."""

    sequence: int
    kind: str
    timestamp: datetime
    subject_id: str
    actor: Optional[str]
    payload: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "sequence": self.sequence,
            "kind": self.kind,
            "timestamp": self.timestamp.isoformat(),
            "subject_id": self.subject_id,
            "actor": self.actor,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LogEntry":
        return cls(
            sequence=int(data["sequence"]),
            kind=data["kind"],
            timestamp=datetime.fromisoformat(data["timestamp"]),
            subject_id=data["subject_id"],
            actor=data.get("actor"),
            payload=dict(data.get("payload") or {}),
        )


class ExecutionLog:
    """Append-only log of kernel events with simple query support."""

    def __init__(self, bus: EventBus = None, capacity: Optional[int] = None,
                 max_entries: Optional[int] = None):
        """Create the log, optionally bounding how many entries it retains.

        ``max_entries`` is the retention policy: the log never holds more
        than that many entries, and when the bound is hit the oldest ~10%
        are compacted away in one batch (so the hot ``record`` path stays
        O(1) amortised instead of shifting the whole list on every append).
        Keyset cursors from :meth:`entries_page` survive compaction: cursors
        are sequence numbers, and a page simply resumes at the oldest
        retained entry newer than the cursor.  ``capacity`` is the older
        name for the same knob, kept for callers of the original API.
        """
        self._entries: List[LogEntry] = []
        self._sequence = 0
        self._max_entries = max_entries if max_entries is not None else capacity
        self._dropped = 0
        #: subject id -> entries about it, oldest first (an indexed lookup
        #: path: instance history queries don't scan the whole log).
        self._by_subject: Dict[str, List[LogEntry]] = {}
        # The log may subscribe to a bus shared by concurrent shards.
        self._lock = threading.Lock()
        if bus is not None:
            bus.subscribe("*", self.record_event)

    @property
    def max_entries(self) -> Optional[int]:
        """The retention bound, or ``None`` for an unbounded log."""
        return self._max_entries

    @property
    def dropped_count(self) -> int:
        """How many old entries retention compaction has evicted so far."""
        with self._lock:
            return self._dropped

    # ------------------------------------------------------------------- record
    def record_event(self, event: Event) -> LogEntry:
        # ``record`` copies the payload: the log owns its dict.
        return self.record(event.kind, event.timestamp, event.subject_id, event.actor,
                           event.payload)

    def record(self, kind: str, timestamp: datetime, subject_id: str,
               actor: Optional[str] = None, payload: Dict[str, Any] = None) -> LogEntry:
        with self._lock:
            return self._record_locked(kind, timestamp, subject_id, actor, payload)

    def _record_locked(self, kind, timestamp, subject_id, actor, payload) -> LogEntry:
        self._sequence += 1
        entry = LogEntry(sequence=self._sequence, kind=kind, timestamp=timestamp,
                         subject_id=subject_id, actor=actor, payload=dict(payload or {}))
        self._entries.append(entry)
        self._by_subject.setdefault(subject_id, []).append(entry)
        if self._max_entries is not None and len(self._entries) > self._max_entries:
            self._compact_locked()
        return entry

    def _compact_locked(self) -> None:
        """Drop the oldest entries so at most ``max_entries`` remain.

        Drops overshoot the bound by ~10% slack so the next appends are
        free: amortised, each append pays O(1) compaction work.  Entries are
        globally ordered by sequence and every per-subject list is too, so
        a subject's dropped entries are exactly a *prefix* of its list —
        removal never scans or searches.
        """
        slack = self._max_entries // 10
        overflow = min(len(self._entries),
                       len(self._entries) - self._max_entries + slack)
        dropped_per_subject: Dict[str, int] = {}
        for dropped in self._entries[:overflow]:
            dropped_per_subject[dropped.subject_id] = (
                dropped_per_subject.get(dropped.subject_id, 0) + 1)
        for subject_id, count in dropped_per_subject.items():
            subject_entries = self._by_subject[subject_id]
            if count >= len(subject_entries):
                del self._by_subject[subject_id]
            else:
                del subject_entries[:count]
        del self._entries[:overflow]
        self._dropped += overflow

    def compact(self, max_entries: Optional[int] = None) -> int:
        """Compact the log down to ``max_entries`` now; returns entries dropped.

        Without an argument the configured retention bound is used (a no-op
        on unbounded logs).  This is the entry point of the scheduler's
        periodic log-compaction maintenance job, which lets a deployment
        trim on a schedule instead of (or on top of) the per-append
        amortised policy.
        """
        with self._lock:
            bound = max_entries if max_entries is not None else self._max_entries
            if bound is None or bound < 1 or len(self._entries) <= bound:
                return 0
            before = len(self._entries)
            configured = self._max_entries
            self._max_entries = bound
            try:
                self._compact_locked()
            finally:
                self._max_entries = configured
            return before - len(self._entries)

    # -------------------------------------------------------------------- query
    def entries(self, subject_id: str = None, kind: str = None, actor: str = None,
                since: datetime = None, until: datetime = None,
                limit: int = None) -> List[LogEntry]:
        """Filter entries; ``kind`` accepts a prefix ending with a dot.

        A ``subject_id`` filter is answered from the per-subject index, so
        pulling one instance's history out of a million-entry log only
        touches that instance's entries.
        """
        with self._lock:
            if subject_id is not None:
                source = list(self._by_subject.get(subject_id, ()))
            else:
                source = list(self._entries)
        selected = []
        for entry in source:
            if kind is not None and not self._kind_matches(kind, entry.kind):
                continue
            if actor is not None and entry.actor != actor:
                continue
            if since is not None and entry.timestamp < since:
                continue
            if until is not None and entry.timestamp > until:
                continue
            selected.append(entry)
        if limit is not None:
            selected = selected[-limit:]
        return selected

    def history_of(self, subject_id: str) -> List[LogEntry]:
        """Every event about one subject, oldest first."""
        return self.entries(subject_id=subject_id)

    def entries_page(self, subject_id: str = None, after_sequence: int = 0,
                     limit: int = 100) -> Tuple[List[LogEntry], Optional[int], int]:
        """One keyset page of entries: ``(entries, next_cursor, total)``.

        ``after_sequence`` is the cursor (the sequence number of the last
        entry of the previous page; 0 starts from the beginning) and
        ``next_cursor`` is ``None`` on the final page.  The page is carved
        out of the per-subject index — entry lists are sequence-ascending, so
        the cursor position is found by binary search, never by scanning the
        log.  A past-the-end cursor yields an empty final page.
        """
        with self._lock:
            if subject_id is not None:
                source = self._by_subject.get(subject_id, [])
            else:
                source = self._entries
            total = len(source)
            start = bisect_right(source, after_sequence,
                                 key=lambda entry: entry.sequence)
            page = list(source[start:start + max(0, limit)])
            has_more = start + len(page) < total
        next_cursor = page[-1].sequence if page and has_more else None
        return page, next_cursor, total

    def last(self, subject_id: str = None, kind: str = None) -> Optional[LogEntry]:
        selected = self.entries(subject_id=subject_id, kind=kind)
        return selected[-1] if selected else None

    def count(self, kind: str = None, subject_id: str = None) -> int:
        return len(self.entries(subject_id=subject_id, kind=kind))

    def counts_by_kind(self) -> Dict[str, int]:
        with self._lock:
            entries = list(self._entries)
        counts: Dict[str, int] = {}
        for entry in entries:
            counts[entry.kind] = counts.get(entry.kind, 0) + 1
        return counts

    def subjects(self) -> List[str]:
        with self._lock:
            return sorted(self._by_subject)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ----------------------------------------------------------- durable state
    def dump_state(self) -> Dict[str, Any]:
        """The log's complete durable state (see :mod:`repro.persistence`)."""
        with self._lock:
            return {
                "sequence": self._sequence,
                "dropped": self._dropped,
                "entries": [entry.to_dict() for entry in self._entries],
            }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Replace the log's contents with a :meth:`dump_state` snapshot.

        The sequence counter is restored too, so entries recorded after
        recovery continue the pre-crash numbering and existing keyset
        cursors stay valid.
        """
        entries = [LogEntry.from_dict(item) for item in state.get("entries", [])]
        with self._lock:
            self._entries = entries
            self._sequence = int(state.get("sequence", len(entries)))
            self._dropped = int(state.get("dropped", 0))
            self._by_subject = {}
            for entry in entries:
                self._by_subject.setdefault(entry.subject_id, []).append(entry)

    # ------------------------------------------------------------------ internal
    @staticmethod
    def _kind_matches(pattern: str, kind: str) -> bool:
        if pattern.endswith("."):
            return kind.startswith(pattern)
        return pattern == kind
