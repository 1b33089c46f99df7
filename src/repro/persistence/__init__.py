"""Durable runtime state: write-ahead journal, snapshots, crash recovery.

The Gelee kernel manages long-lived resources — EU project deliverables
live for months — so runtime state must outlive any single process.  This
package makes the (sharded) runtime durable and restartable:

* :mod:`~repro.persistence.journal` — a segmented JSONL write-ahead log of
  every kernel event, with configurable fsync and torn-tail repair;
* :mod:`~repro.persistence.snapshot` — atomic point-in-time manifests of
  model / log state that bound replay length;
* :mod:`~repro.persistence.store` — pluggable instance-state backends
  (:class:`MemoryStore`, :class:`FileStore`, :class:`SQLiteStore`) behind
  one :class:`InstanceStore` interface, indexed like the runtime;
* :mod:`~repro.persistence.coordinator` — the bus subscriber that feeds
  the journal and materialises checkpoints;
* :mod:`~repro.persistence.recovery` — snapshot restore plus journal-tail
  replay into a fresh manager.

Typical wiring (the service tier does this from one knob,
``GeleeService(..., persistence=PersistenceConfig(directory))``)::

    config = PersistenceConfig("/var/lib/gelee", backend="sqlite")
    journal, snapshots, store = (config.open_journal(),
                                 config.open_snapshots(), config.open_store())
    report = recover_into(manager, log, journal, snapshots, store)
    coordinator = PersistenceCoordinator(manager, log, journal, snapshots, store)
    ...
    coordinator.checkpoint()   # periodically, or POST /v2/runtime/persistence:checkpoint
"""

from .coordinator import BACKENDS, PersistenceConfig, PersistenceCoordinator
from .journal import (
    FSYNC_POLICIES,
    Journal,
    JournalRecord,
    ScanPosition,
    list_segments,
    scan_last_seq,
    scan_oldest_seq,
    scan_records,
)
from .recovery import (
    JournalReplayer,
    RecoveryReport,
    recover_into,
    restore_snapshot,
)
from .snapshot import SnapshotManifest, SnapshotStore, capture_manifest
from .store import (
    INDEXED_COLUMNS,
    FileStore,
    InstanceStore,
    MemoryStore,
    SQLiteStore,
    document_for,
)

__all__ = [
    "BACKENDS",
    "FSYNC_POLICIES",
    "INDEXED_COLUMNS",
    "FileStore",
    "InstanceStore",
    "Journal",
    "JournalRecord",
    "JournalReplayer",
    "MemoryStore",
    "PersistenceConfig",
    "PersistenceCoordinator",
    "RecoveryReport",
    "SQLiteStore",
    "ScanPosition",
    "SnapshotManifest",
    "SnapshotStore",
    "capture_manifest",
    "document_for",
    "list_segments",
    "recover_into",
    "restore_snapshot",
    "scan_last_seq",
    "scan_oldest_seq",
    "scan_records",
]
