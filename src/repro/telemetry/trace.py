"""Trace/correlation-id propagation across threads and processes.

The gateway's ``RequestIdMiddleware`` activates the request id as the
current trace for the duration of the request; everything the request
touches — shard fan-out workers, pooled completion callbacks, journal
appends, scheduler firings — reads :func:`current_trace_id` and stamps it
onto whatever it produces.  Kernel events grow an ``origin_request_id``
payload field (see ``LifecycleManager._publish``), the journal persists
the payload verbatim, and the replication stream ships the record as-is —
so one ``X-Request-Id`` is greppable on the primary's wire log, in the
primary's journal, and in every follower's applied copy, surviving
promotion.

Thread-locals do not cross the :class:`~repro.workers.WorkerPool`
boundary, so submission sites capture the id *now* and re-activate it on
the worker (:func:`current_trace_id` + :func:`trace_scope`); the scope is
a plain slotted context manager, cheap enough for the dispatch hot path.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from ..identifiers import new_id

_state = threading.local()


def new_trace_id(prefix: str = "trc") -> str:
    """A fresh correlation id (``prefix-<12 hex chars>``)."""
    return new_id(prefix)


def current_trace_id() -> Optional[str]:
    """The trace id active on this thread, or ``None`` outside any scope."""
    return getattr(_state, "trace_id", None)


class trace_scope:
    """Activate ``trace_id`` for a block; restores the previous id on exit.

    ``trace_scope(None)`` is a no-op scope — callers propagating a
    captured id never need to branch on whether one existed.
    """

    __slots__ = ("_trace_id", "_previous")

    def __init__(self, trace_id: Optional[str]):
        self._trace_id = trace_id
        self._previous: Optional[str] = None

    def __enter__(self) -> Optional[str]:
        if self._trace_id is not None:
            self._previous = getattr(_state, "trace_id", None)
            _state.trace_id = self._trace_id
        return self._trace_id

    def __exit__(self, *exc_info: Any) -> None:
        if self._trace_id is not None:
            _state.trace_id = self._previous


class TraceContext:
    """The package's named front door over the thread-local trace state."""

    @staticmethod
    def current() -> Optional[str]:
        return current_trace_id()

    @staticmethod
    def activate(trace_id: Optional[str]) -> trace_scope:
        """``with TraceContext.activate(rid): ...`` — scope a correlation id."""
        return trace_scope(trace_id)

    @staticmethod
    def ensure(prefix: str = "trc") -> trace_scope:
        """Activate the current id if one exists, else a fresh ``prefix-…`` id.

        Background entry points (scheduler ticks, maintenance jobs) use
        this so their downstream events always carry *some* origin id.
        """
        return trace_scope(current_trace_id() or new_trace_id(prefix))

    @staticmethod
    def new_id(prefix: str = "trc") -> str:
        return new_trace_id(prefix)
