"""Benchmark-side span recorder.

The traced run wraps public methods of objects the benchmark built (the
SDK transport, the router, the service facade, the sharded runtime, the
journal, the replication endpoints) with a span recorder.  Spans live in
memory; the run derives per-layer self times from them and writes them
out when it ends.  A span's parent is the innermost open span on the same
thread, except that a request handled on an HTTP server thread is linked to
the client span of the same actor, which is open on the client thread for
exactly that round trip (every benchmark client is a closed loop).

Durations are wall-clock.  The benchmark runs on one CPU, so a span open
on one thread also holds the time slices that other threads (a second
client, the replication follower, worker threads) ran meanwhile.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

# Span layout: [span_id, parent_id, name, thread_id, start, end, value, tag].
_ID, _PARENT, _NAME, _THREAD, _START, _END, _VALUE, _TAG = range(8)


class Tracer:
    """Records spans around wrapped calls while :attr:`active` is set."""

    def __init__(self):
        self.active = False
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: actor -> id of the client span currently open for that actor.
        self._open_by_actor: Dict[str, int] = {}
        self._installed: List[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, target: Any, method: str, layer: str,
             actor_of: Callable = None, link_by_actor: bool = False,
             value: Callable = None, tag: Callable = None) -> None:
        """Wrap ``target.method`` (an instance attribute shadows the class's).

        ``actor_of(args, kwargs)`` names the actor a client span is opened
        for; ``link_by_actor`` makes a root span on its thread adopt that
        actor's open client span as parent; ``value(result)`` extracts a
        number (records in a batch, ...) stored on the span; ``tag(args,
        kwargs)`` labels the call before it runs, and the summary also
        totals tagged spans under ``"<name>@<tag>"``.
        """
        original = getattr(target, method)
        name = "{}:{}".format(layer, method)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            actor = actor_of(args, kwargs) if actor_of is not None else None
            if parent is None and link_by_actor:
                parent = tracer._open_by_actor.get(getattr(args[0], "actor", None))
            label = tag(args, kwargs) if tag is not None else None
            span = [next(tracer._ids), parent, name, threading.get_ident(),
                    time.perf_counter(), 0.0, None, label]
            stack.append(span[_ID])
            if actor is not None:
                tracer._open_by_actor[actor] = span[_ID]
            try:
                result = original(*args, **kwargs)
                if value is not None:
                    span[_VALUE] = value(result)
                return result
            finally:
                span[_END] = time.perf_counter()
                stack.pop()
                if actor is not None:
                    tracer._open_by_actor.pop(actor, None)
                tracer.spans.append(span)

        setattr(target, method, traced)
        self._installed.append((target, method))

    def wrap_executor(self, executor) -> None:
        """Time the tasks a completion executor runs: the queue wait from
        ``submit`` to the task's start becomes a ``workers:queue_wait`` span,
        the task itself an ``actions:execute`` span on the worker thread."""
        original = executor.submit
        tracer = self

        def submit(task):
            if not tracer.active:
                return original(task)
            submitted = time.perf_counter()

            def timed():
                started = time.perf_counter()
                tracer.spans.append([next(tracer._ids), None, "workers:queue_wait",
                                     threading.get_ident(), submitted, started, None,
                                     None])
                stack = tracer._stack()
                span = [next(tracer._ids), None, "actions:execute",
                        threading.get_ident(), started, 0.0, None, None]
                stack.append(span[_ID])
                try:
                    task()
                finally:
                    span[_END] = time.perf_counter()
                    stack.pop()
                    tracer.spans.append(span)

            return original(timed)

        executor.submit = submit
        self._installed.append((executor, "submit"))

    def unwrap_all(self) -> None:
        for target, method in reversed(self._installed):
            try:
                delattr(target, method)
            except AttributeError:
                pass
        self._installed.clear()

    # ---------------------------------------------------------------- analysis
    def summarize(self, start: float, end: float,
                  client_threads: List[int]) -> "TraceSummary":
        """Aggregate the spans opened in ``[start, end]``."""
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[_PARENT] is not None:
                child_time[span[_PARENT]] += span[_END] - span[_START]
        summary = TraceSummary(end - start)
        client = set(client_threads)
        for span in self.spans:
            if not start <= span[_START] <= end:
                continue
            duration = span[_END] - span[_START]
            layer = span[_NAME].split(":", 1)[0]
            names = [span[_NAME]]
            if span[_TAG] is not None:
                names.append("{}@{}".format(span[_NAME], span[_TAG]))
            for name in names:
                summary.count[name] += 1
                summary.duration[name] += duration
                if span[_VALUE] is not None:
                    summary.value[name] += span[_VALUE]
            summary.self_time[layer] += duration - child_time.get(span[_ID], 0.0)
            summary.layer_count[layer] += 1
            summary.spans += 1
            if span[_PARENT] is None and span[_THREAD] in client:
                summary.client_busy += duration
        summary.client_threads = len(client)
        return summary

    def dump(self, path: str) -> None:
        """Write every span as one JSON line (times in µs from the first)."""
        origin = min((span[_START] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[_ID], "parent": span[_PARENT], "name": span[_NAME],
                    "thread": span[_THREAD],
                    "start_us": round((span[_START] - origin) * 1e6, 1),
                    "dur_us": round((span[_END] - span[_START]) * 1e6, 1),
                    "value": span[_VALUE], "tag": span[_TAG]}) + "\n")


class TraceSummary:
    """Per-name and per-layer totals of one traced window."""

    def __init__(self, wall: float):
        self.wall = wall
        self.count: Dict[str, int] = defaultdict(int)
        self.duration: Dict[str, float] = defaultdict(float)
        self.value: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.layer_count: Dict[str, int] = defaultdict(int)
        self.client_busy = 0.0
        self.client_threads = 0
        self.spans = 0

    def mean_ms(self, name: str) -> float:
        return self.duration[name] / self.count[name] * 1e3 if self.count[name] else 0.0

    def self_us_per(self, layer: str, denominator: float) -> float:
        return self.self_time[layer] / denominator * 1e6 if denominator else 0.0

    def coverage(self) -> float:
        """Share of the client threads' wall time spent inside traced calls.

        Every span's self time is its duration minus its children's, so the
        self times of a client-rooted tree add up to the root's duration;
        this is therefore also the share of client wall time that the
        layers' self times account for.
        """
        if not self.client_threads or self.wall <= 0:
            return 0.0
        return self.client_busy / (self.client_threads * self.wall)
