"""The kernel event buses.

Fig. 2 of the paper shows the lifecycle manager receiving "lifecycle instance
events (progression from phase to phase …) sent by the lifecycle execution
widgets, and action execution results, sent by resource plug-ins".  Internally
we model that message flow with an event bus: the runtime publishes events,
and the execution log, the monitoring cockpit and the widgets subscribe.

Events are plain, immutable records.  Two bus flavours are provided:

* :class:`EventBus` — synchronous, in-process delivery; every ``publish``
  dispatches immediately.  Thread-safe, so the sharded runtime
  (:mod:`repro.runtime.sharding`) can publish from concurrent owners.
* :class:`BatchingEventBus` — buffers publishes and flushes them in order
  when a size or time threshold is crossed (the time source is the injected
  :class:`~repro.clock.Clock`).  Coalescing dispatch keeps the hot
  progression path cheap when every token move emits a handful of events.

The hosted/remote transport is layered on top by :mod:`repro.service`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, Dict, List, Optional

from .clock import Clock


@dataclass(frozen=True)
class Event:
    """A single kernel event.

    Attributes:
        kind: dotted event name, e.g. ``"instance.phase_entered"``.
        timestamp: when the event happened (kernel clock).
        subject_id: id of the main entity involved (instance id, model id...).
        actor: user id that caused the event, or ``None`` for system events.
        payload: event-specific details (phase ids, action names, statuses...).
    """

    kind: str
    timestamp: datetime
    subject_id: str
    actor: Optional[str] = None
    payload: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-compatible form, used by the write-ahead journal and tests."""
        return {
            "kind": self.kind,
            "timestamp": self.timestamp.isoformat(),
            "subject_id": self.subject_id,
            "actor": self.actor,
            "payload": dict(self.payload),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        return cls(
            kind=data["kind"],
            timestamp=datetime.fromisoformat(data["timestamp"]),
            subject_id=data["subject_id"],
            actor=data.get("actor"),
            payload=dict(data.get("payload") or {}),
        )


class EventBus:
    """Synchronous publish/subscribe dispatcher.

    Subscribers register for an exact event kind, for a prefix (``"instance."``)
    or for everything (``"*"``).  Handlers are called in registration order;
    a failing handler does not prevent the others from running — failures are
    collected and re-raised together only if ``strict`` is set.

    The subscription table is guarded by a lock and handler lists are copied
    before dispatch, so concurrent publishers (one per shard of the sharded
    runtime) never observe a half-updated table.  Handlers themselves run
    outside the lock and must be thread-safe if the bus is shared by threads.

    Subscriber kind-matching is resolved once per distinct event kind and
    cached until the next subscribe or unsubscribe, so a publish is one
    dictionary lookup instead of a test against every registered pattern.
    """

    def __init__(self, strict: bool = False):
        self._handlers: Dict[str, List[Callable[[Event], None]]] = {}
        self._match_cache: Dict[str, List[Callable[[Event], None]]] = {}
        self._strict = strict
        self._published = 0
        self._lock = threading.RLock()

    @property
    def published_count(self) -> int:
        """Total number of events published on this bus."""
        return self._published

    def subscribe(self, kind: str, handler: Callable[[Event], None]) -> Callable[[], None]:
        """Register ``handler`` for ``kind`` and return an unsubscribe callable."""
        with self._lock:
            self._handlers.setdefault(kind, []).append(handler)
            self._match_cache.clear()

        def unsubscribe():
            with self._lock:
                handlers = self._handlers.get(kind, [])
                if handler in handlers:
                    handlers.remove(handler)
                self._match_cache.clear()

        return unsubscribe

    def publish(self, event: Event) -> None:
        """Deliver ``event`` to all matching subscribers."""
        with self._lock:
            self._published += 1
            matched = self._matching_handlers(event.kind)
        self._deliver(event, matched)

    # ------------------------------------------------------------------ internal
    def _matching_handlers(self, kind: str) -> List[Callable[[Event], None]]:
        """The handlers interested in ``kind`` (caller holds the lock).

        The list is shared with later publishes of the same kind and must
        not be mutated; a (un)subscribe drops the cache instead.
        """
        matched = self._match_cache.get(kind)
        if matched is None:
            matched = []
            for registered_kind, handlers in self._handlers.items():
                if self._matches(registered_kind, kind):
                    matched.extend(handlers)
            self._match_cache[kind] = matched
        return matched

    def _deliver(self, event: Event, handlers: List[Callable[[Event], None]]) -> None:
        errors = []
        for handler in handlers:
            try:
                handler(event)
            except Exception as exc:  # noqa: BLE001 - isolate subscribers
                errors.append(exc)
        if errors and self._strict:
            raise errors[0]

    @staticmethod
    def _matches(pattern: str, kind: str) -> bool:
        if pattern == "*":
            return True
        if pattern.endswith("."):
            return kind.startswith(pattern)
        return pattern == kind


class BatchingEventBus(EventBus):
    """An event bus that coalesces publishes into ordered batches.

    ``publish`` appends to a buffer instead of dispatching immediately; the
    buffer is flushed — preserving publish order — when it reaches
    ``max_batch`` events, when ``max_delay_seconds`` have elapsed on the
    injected ``clock`` since the oldest buffered event, or when
    :meth:`flush` is called explicitly.

    There is no background thread: the time threshold is evaluated on each
    publish against the injected :class:`~repro.clock.Clock`, so a
    :class:`~repro.clock.SimulatedClock` drives flushes deterministically in
    tests and benchmarks.  Call :meth:`flush` (or use the bus as a context
    manager) before reading subscriber state that must include the tail of
    the stream.
    """

    def __init__(self, strict: bool = False, clock: Clock = None,
                 max_batch: int = 64, max_delay_seconds: float = 0.05):
        super().__init__(strict=strict)
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self._clock = clock
        self._max_batch = max_batch
        self._max_delay = timedelta(seconds=max_delay_seconds)
        self._buffer: List[Event] = []
        self._oldest_at: Optional[datetime] = None
        self._flushed_batches = 0
        # Serialises take+deliver so concurrent publishers cannot interleave
        # batches and break the publish-order guarantee.  Reentrant: a
        # handler publishing back into the bus may trigger a nested flush.
        self._flush_lock = threading.RLock()

    # ------------------------------------------------------------------- stats
    @property
    def pending_count(self) -> int:
        """Events buffered but not yet delivered."""
        return len(self._buffer)

    @property
    def flushed_batches(self) -> int:
        """Number of batches delivered so far."""
        return self._flushed_batches

    # ---------------------------------------------------------------- lifecycle
    def publish(self, event: Event) -> None:
        """Buffer ``event``; flush if the size or time threshold is crossed."""
        with self._lock:
            self._published += 1
            self._buffer.append(event)
            if self._oldest_at is None:
                self._oldest_at = self._timestamp_of(event)
            should_flush = self._should_flush(event)
        if should_flush:
            self.flush()

    def flush(self) -> int:
        """Deliver every buffered event now; returns how many were delivered.

        Flushes are serialised: the batch is taken and delivered under one
        flush lock, so events published by concurrent shards reach the
        subscribers in a single global order.
        """
        with self._flush_lock:
            with self._lock:
                batch = self._take_batch()
            self._deliver_batch(batch)
        return len(batch)

    def __enter__(self) -> "BatchingEventBus":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.flush()

    # ------------------------------------------------------------------ internal
    def _timestamp_of(self, event: Event) -> datetime:
        if self._clock is not None:
            return self._clock.now()
        return event.timestamp

    def _should_flush(self, newest: Event) -> bool:
        if len(self._buffer) >= self._max_batch:
            return True
        if self._oldest_at is None:
            return False
        return (self._timestamp_of(newest) - self._oldest_at) >= self._max_delay

    def _take_batch(self) -> List[Event]:
        batch = self._buffer
        self._buffer = []
        self._oldest_at = None
        if batch:
            self._flushed_batches += 1
        return batch

    def _deliver_batch(self, batch: List[Event]) -> None:
        for event in batch:
            with self._lock:
                handlers = self._matching_handlers(event.kind)
            self._deliver(event, handlers)


class EventRecorder:
    """Subscriber that keeps every event it sees; handy in tests and examples."""

    def __init__(self, bus: EventBus = None, pattern: str = "*"):
        self.events: List[Event] = []
        self._lock = threading.Lock()
        if bus is not None:
            bus.subscribe(pattern, self)

    def __call__(self, event: Event) -> None:
        with self._lock:
            self.events.append(event)

    def kinds(self) -> List[str]:
        return [event.kind for event in self.events]

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self.events if event.kind == kind]

    def clear(self) -> None:
        with self._lock:
            self.events.clear()
