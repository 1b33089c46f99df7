"""Passes over a workload and the metrics derived from them.

Imported by ``run.py`` once the program under test is importable.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
import time

from perfbench.harness import (Ledger, histogram_mean_delta, mean_ms, metric_delta,
                               parse_exposition, quantile_ms)
from perfbench.tracer import TraceSummary

#: The traced run fails its coverage check when the client threads spent
#: less than this share of the traced window inside traced calls.
MIN_COVERAGE = 0.8
#: The overhead pass alternates this many pairs of short untraced and
#: traced windows, in ABBA order.  Host speed and the workload's own
#: cycles shift within seconds, so only windows this short and this many
#: let both kinds sample the same stretches of time alike.
OVERHEAD_PAIRS = 40


def overhead_modes(pairs: int = OVERHEAD_PAIRS) -> list:
    """``[False, True, True, False, ...]``: the overhead pass's windows."""
    return [traced for pair in range(pairs)
            for traced in ((False, True) if pair % 2 == 0 else (True, False))]


class Window:
    """One stretch of a pass's timed loop, traced or not."""

    def __init__(self, traced: bool, ledger: Ledger, start: float, end: float,
                 threads: list, program_spans: int):
        self.traced = traced
        self.ledger = ledger
        self.start = start
        self.end = end
        self.threads = threads
        #: Spans the program's own span store recorded in the window.
        self.program_spans = program_spans

    @property
    def ops(self) -> int:
        return self.ledger.attempted("measure") - self.ledger.failed("measure")


class Pass:
    """One set-up → timed loop → finish pass over a workload.

    The timed loop runs one window of ``seconds`` per entry of ``modes``
    (``True``: traced), one after the other on the same deployment.
    """

    def __init__(self, workload, seconds, modes=(False,), tracer=None, scale=1.0,
                 finish=True):
        self.tracer = tracer
        #: Every op of the pass: the windows', then the finish sequence's.
        self.ledger = Ledger()
        self.windows = []
        self.out = {}
        self.problems = []
        gc.collect()
        started = time.perf_counter()
        state = workload.setup(scale)
        self.setup_s = time.perf_counter() - started
        try:
            # Every workload keeps an in-process SDK client on its primary.
            client = state["client"]
            self.before = parse_exposition(client.metrics())
            self.timers_before = client.scheduler_status()["timers"]["scheduled_total"]
            workload.mark(state)
            gc.collect()
            cpu = time.process_time()
            for traced in modes:
                self.windows.append(self._window(workload, state, seconds, traced))
            self.cpu = time.process_time() - cpu
            workload.measured_done(state)
            self.after = parse_exposition(client.metrics())
            self.timers_after = client.scheduler_status()["timers"]["scheduled_total"]
            self.journal = (state.get("journal_seq", 0), state.get("journal_bytes", 0))
            if finish:
                with self._tracing(workload, state, tracer is not None):
                    self.problems = workload.finish(state, self.ledger, self.before,
                                                    self.out)
        finally:
            workload.teardown(state)

    @contextlib.contextmanager
    def _tracing(self, workload, state, traced: bool):
        """Wrap the workload's calls for the block if ``traced``; an
        untraced block runs the program's own, unwrapped methods."""
        if traced:
            workload.instrument(state, self.tracer)
            self.tracer.active = True
        try:
            yield
        finally:
            if traced:
                self.tracer.active = False
                self.tracer.unwrap_all()

    def _window(self, workload, state, seconds, traced) -> Window:
        client, ledger = state["client"], Ledger()
        spans = client.traces(limit=1)["store"]["spans_recorded"]
        try:
            with self._tracing(workload, state, traced):
                start = time.perf_counter()
                workload.run(state, seconds, ledger)
                end = time.perf_counter()
        finally:
            self.ledger.merge(ledger)
        spans = client.traces(limit=1)["store"]["spans_recorded"] - spans
        return Window(traced, ledger, start, end, list(state["threads"]), spans)

    def windows_of(self, traced=None) -> list:
        return [window for window in self.windows
                if traced is None or window.traced == traced]

    def ops(self, traced=None) -> int:
        return sum(window.ops for window in self.windows_of(traced))

    def ops_per_s(self, traced=None) -> float:
        windows = self.windows_of(traced)
        return sum(window.ops for window in windows) / sum(
            window.end - window.start for window in windows)

    def samples(self, traced=None) -> dict:
        """Latency samples per op kind over the chosen windows."""
        merged = Ledger()
        for window in self.windows_of(traced):
            merged.merge(window.ledger)
        return merged.samples

    def trace_summary(self) -> TraceSummary:
        """The spans of this pass's one traced window."""
        window, = self.windows_of(True)
        return self.tracer.summarize(window.start, window.end, window.threads)


def end_to_end(timed: Pass, setup_times) -> dict:
    samples = timed.samples()
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": timed.ops_per_s(),
        "cpu_us_per_op": timed.cpu / max(timed.ops(), 1) * 1e6,
        "advance_mean_ms": mean_ms(samples["advance"]),
        "read_mean_ms": mean_ms(samples["read"]),
    }


def workload_specific(run_pass: Pass) -> dict:
    """End-to-end figures that are printed but not gated: percentiles,
    which jump between the host's speed regimes or rest on few samples on
    some workload, and figures only one workload has.  Latencies come
    from the pass's untraced windows."""
    samples = run_pass.samples(traced=False)
    return {
        "advance_p50_ms": quantile_ms(samples["advance"], 0.50),
        "advance_p90_ms": quantile_ms(samples["advance"], 0.90),
        "advance_p99_ms": quantile_ms(samples["advance"], 0.99),
        "read_p50_ms": quantile_ms(samples["read"], 0.50),
        "read_p90_ms": quantile_ms(samples["read"], 0.90),
        "read_p99_ms": quantile_ms(samples["read"], 0.99),
        "cockpit_p50_ms": quantile_ms(samples["cockpit"], 0.50),
        "cockpit_p99_ms": quantile_ms(samples["cockpit"], 0.99),
        "batch_p50_ms": quantile_ms(samples["batch_create"] + samples["advance"], 0.50)
        if samples["batch_create"] else 0.0,
        "recovery_s": run_pass.out.get("recovery_s", 0.0),
        "failed_ratio": run_pass.ledger.failed() / max(run_pass.ledger.attempted(), 1),
    }


def per_layer(traced: Pass, overhead: Pass, probe: Pass = None) -> dict:
    """Per-layer metrics of the traced window (see DESIGN.md for each); the
    tracing overhead and the ungated end-to-end figures come from the
    untraced and traced windows of the ``overhead`` pass."""
    summary = traced.trace_summary()
    before, after = traced.before, traced.after
    ops = max(traced.ops(), 1)
    requests = summary.count["service.v2:handle"]
    http_requests = sum(count for name, count in summary.count.items()
                        if name.startswith("service.http:"))
    api_calls = summary.layer_count["service.api"]
    actions = metric_delta(before, after, "gelee_dispatch_completed_total")
    metrics = {
        "service.http.self_us_per_req": summary.self_us_per("service.http", http_requests),
        "service.v2.self_us_per_req": summary.self_us_per("service.v2", requests),
        "service.v2.requests_per_op": requests / ops,
        "service.api.self_us_per_call": summary.self_us_per("service.api", api_calls),
        "telemetry.spans_per_req": sum(window.program_spans for window in traced.windows)
        / max(requests, 1),
        "runtime.self_us_per_op": summary.self_us_per("runtime", ops),
        # The program samples one shard-lock acquisition in 16.
        "runtime.lock_wait_us_per_op": 16 * metric_delta(
            before, after, "gelee_lock_wait_seconds_sum", 'site="shard"') / ops * 1e6,
        "actions.dispatched_per_op": actions / ops,
        "actions.wait_us_per_action": summary.mean_ms("workers:queue_wait") * 1e3,
        "actions.exec_us_per_action": summary.mean_ms("actions:execute") * 1e3,
        "workers.queue_depth_mean": histogram_mean_delta(
            before, after, "gelee_queue_depth"),
        "persistence.journal.append_us": summary.mean_ms("persistence:append") * 1e3,
        "persistence.journal.records_per_op": traced.journal[0] / ops,
        "persistence.journal.bytes_per_op": traced.journal[1] / ops,
        "persistence.journal.fsyncs_per_op": metric_delta(
            before, after, "gelee_journal_fsync_seconds_count") / ops,
        "scheduler.timers_armed_per_op": (traced.timers_after - traced.timers_before) / ops,
        "trace.untraced_ops_per_s": overhead.ops_per_s(traced=False),
        "trace.traced_ops_per_s": overhead.ops_per_s(traced=True),
        "trace.overhead_share": 1.0 - overhead.ops_per_s(traced=True)
        / overhead.ops_per_s(traced=False),
        "trace.coverage": summary.coverage(),
        "trace.spans_per_op": summary.spans / ops,
    }
    metrics.update(cockpit_metrics(summary, ""))
    metrics.update(cockpit_metrics(
        probe.trace_summary() if probe is not None else TraceSummary(0.0), ".half"))
    metrics.update(replication_metrics(summary))
    for name in ("persistence.checkpoint_s", "persistence.checkpoint.instances_flushed",
                 "persistence.recovery.records_replayed", "replication.lag_ms_at_end",
                 "replication.promote_ms", "scheduler.tick_ms", "scheduler.escalations"):
        metrics[name] = traced.out.get(name, 0.0)
    metrics.update(workload_specific(overhead))
    return metrics


def cockpit_metrics(summary: TraceSummary, suffix: str) -> dict:
    """The cockpit figures, which the scaling probe repeats at half size."""
    return {
        "monitoring.table_ms_per_page" + suffix:
            summary.mean_ms("monitoring:monitoring_table_page"),
        "monitoring.summary_ms" + suffix: summary.mean_ms("monitoring:monitoring_summary"),
    }


def replication_metrics(summary: TraceSummary) -> dict:
    """The replication stream's figures, overall and split by how full the
    journal segment holding the follower's cursor was (``seg_low``: less
    than half full, ``seg_high``: at least half)."""
    batches = summary.count["replication:read_batch"]
    applied = summary.value["replication:sync"]
    apply_time = (summary.duration["replication:sync"]
                  - summary.duration["replication:read_batch"]
                  - summary.duration["replication:wait_for"])
    metrics = {
        "replication.read_batch_ms": summary.mean_ms("replication:read_batch"),
        "replication.records_per_batch":
            summary.value["replication:read_batch"] / batches if batches else 0.0,
        "replication.read_batch_busy_share":
            summary.duration["replication:read_batch"] / summary.wall
            if summary.wall else 0.0,
        "replication.apply_us_per_record": apply_time / applied * 1e6 if applied else 0.0,
    }
    for fill in ("seg_low", "seg_high"):
        name = "replication:read_batch@" + fill
        metrics["replication.read_batch_ms." + fill] = summary.mean_ms(name)
        metrics["replication.records_per_batch." + fill] = (
            summary.value[name] / summary.count[name] if summary.count[name] else 0.0)
    return metrics
