"""Shared plumbing of the repository benchmark: op accounting, quantiles,
``/v2/metrics`` parsing and the work directories inside the checkout."""

from __future__ import annotations

import os
import shutil
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.errors import GeleeError

#: Benchmark outputs (span dumps, durable-primary directories) live here,
#: inside the checkout; the directory is git-ignored.
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


class Ledger:
    """Attempted / succeeded / failed counts per phase, and latency samples
    per op kind.

    One ledger per client thread; :meth:`merge` folds them together.  A
    batch call counts each of its items as one op, and an item the batch
    reports as failed counts as a failed op.  Only the ``measure`` phase
    counts towards throughput.
    """

    def __init__(self):
        #: phase -> [attempted, failed]
        self.counts: Dict[str, List[int]] = defaultdict(lambda: [0, 0])
        #: op kind -> latencies in seconds of successful calls: a failed
        #: call misses every latency limit and is counted, not timed.
        self.samples: Dict[str, List[tuple]] = defaultdict(list)
        self.errors: List[str] = []

    def call(self, phase: str, kind: Optional[str], fn: Callable, *args,
             items: int = 1, **kwargs) -> Any:
        """Run one public API call, time it and account for it.

        Returns the call's result, or ``None`` when it raised a program
        error (which is counted as ``items`` failed ops).
        """
        started = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except (GeleeError, OSError) as exc:
            self.record(phase, items, items, "{}: {}".format(kind or phase, exc))
            return None
        ended = time.perf_counter()
        failed = sum(1 for item in result.results if not item.ok) \
            if hasattr(result, "results") else 0
        self.record(phase, items, failed,
                    "{}: {} batch items failed".format(kind, failed) if failed else None)
        if kind is not None and not failed:
            self.samples[kind].append(ended - started)
        return result

    def record(self, phase: str, attempted: int, failed: int = 0,
               error: Optional[str] = None) -> None:
        entry = self.counts[phase]
        entry[0] += attempted
        entry[1] += failed
        if error is not None and len(self.errors) < 10:
            self.errors.append(error)

    def merge(self, other: "Ledger") -> None:
        for phase, (attempted, failed) in other.counts.items():
            self.record(phase, attempted, failed)
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)
        self.errors.extend(other.errors[:10 - len(self.errors)])

    def attempted(self, phase: str = None) -> int:
        if phase is not None:
            return self.counts[phase][0]
        return sum(entry[0] for entry in self.counts.values())

    def failed(self, phase: str = None) -> int:
        if phase is not None:
            return self.counts[phase][1]
        return sum(entry[1] for entry in self.counts.values())

    def table(self) -> List[str]:
        return ["{:<10s} attempted {:>8d}  succeeded {:>8d}  failed {:>6d}".format(
            phase, attempted, attempted - failed, failed)
            for phase, (attempted, failed) in self.counts.items()]


def quantile_ms(samples: List[float], q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of latencies in seconds, in ms.

    Linear interpolation between order statistics (``statistics.quantiles``
    inclusive method), so the value moves smoothly with the data.
    """
    if not samples:
        return 0.0
    if len(samples) == 1:
        return samples[0] * 1000.0
    cuts = statistics.quantiles(samples, n=1000, method="inclusive")
    return cuts[int(round(q * 1000)) - 1] * 1000.0


def mean_ms(samples: List[float]) -> float:
    """Mean of latencies in seconds, in ms (0 without samples)."""
    return statistics.fmean(samples) * 1000.0 if samples else 0.0


def parse_exposition(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` for every sample line of a Prometheus
    text exposition (``GET /v2/metrics``)."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            samples[key] = float(value)
        except ValueError:
            continue
    return samples


def metric_total(samples: Dict[str, float], name: str, label: str = "") -> float:
    """Sum of every series of ``name`` whose label set contains ``label``
    (e.g. ``'site="shard"'``)."""
    total = 0.0
    for key, value in samples.items():
        base, _, labels = key.partition("{")
        if base == name and label in labels:
            total += value
    return total


def metric_delta(before: Dict[str, float], after: Dict[str, float], name: str,
                 label: str = "") -> float:
    return metric_total(after, name, label) - metric_total(before, name, label)


def histogram_mean_delta(before: Dict[str, float], after: Dict[str, float],
                         name: str, label: str = "") -> float:
    """Mean observation of a histogram between two snapshots (0 if none)."""
    count = metric_delta(before, after, name + "_count", label)
    if count <= 0:
        return 0.0
    return metric_delta(before, after, name + "_sum", label) / count


def directory_bytes(path: str) -> int:
    total = 0
    if not os.path.isdir(path):
        return 0
    for name in os.listdir(path):
        try:
            total += os.path.getsize(os.path.join(path, name))
        except OSError:
            continue
    return total


def make_workdir(label: str) -> str:
    """A fresh work directory under :data:`RESULTS_DIR`."""
    path = os.path.join(RESULTS_DIR, "work-{}-{}".format(os.getpid(), label))
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
