"""Cumulative readings to interval windows, shared by history and SLOs.

Registry instruments only ever report cumulative values.  Both
:class:`~repro.telemetry.history.MetricHistory` (one point per capture)
and :class:`~repro.telemetry.slo.SloEngine` (one window per evaluation)
need the *interval* between two readings, and both answer quantiles from
that interval's buckets.  Each keeps its own baselines; this module holds
the arithmetic they share:

* :func:`interval` turns a baseline and a new reading into the window
  between them.  A lower count, or a changed bucket layout, is a reset
  (a process restart, a rebuilt registry): the new cumulative reading is
  then the whole window, never a negative one.
* :func:`quantile_bound` estimates a quantile from a window's buckets the
  Prometheus ``histogram_quantile`` upper-bound way: the smallest bucket
  bound covering the quantile, ``inf`` when it landed past the last bound.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, NamedTuple, Optional

__all__ = ["Reading", "histogram_reading", "interval", "is_reset",
           "quantile_bound"]


class Reading(NamedTuple):
    """A cumulative reading: a count of observations, their sum, and the
    per-bucket (non-cumulative) counts keyed by upper bound.

    A counter is a reading with only a ``count``; the error-rate SLO reads
    requests as ``count`` and errors as ``total``.
    """

    count: float
    total: float = 0.0
    buckets: Dict[float, float] = {}


def histogram_reading(series: Iterable[Dict[str, Any]]) -> Reading:
    """Merge registry histogram snapshot series into one reading."""
    count, total = 0, 0.0
    buckets: Dict[float, float] = {}
    for row in series:
        count += row["count"]
        total += row["sum"]
        for bound, bucket_count in row["buckets"].items():
            bound = float(bound)
            buckets[bound] = buckets.get(bound, 0) + bucket_count
    return Reading(count, total, buckets)


def is_reset(previous: Reading, current: Reading) -> bool:
    """Whether ``current`` restarted rather than continued ``previous``."""
    return (current.count < previous.count
            or current.buckets.keys() != previous.buckets.keys())


def interval(previous: Optional[Reading], current: Reading) -> Reading:
    """The window from ``previous`` (``None``: nothing seen yet) to ``current``."""
    if previous is None or is_reset(previous, current):
        return current
    return Reading(current.count - previous.count,
                   current.total - previous.total,
                   {bound: bucket_count - previous.buckets[bound]
                    for bound, bucket_count in current.buckets.items()})


def quantile_bound(window: Reading, quantile: float) -> float:
    """The bucket upper bound holding ``quantile`` of the window's samples."""
    if window.count <= 0:
        return 0.0
    rank = quantile * window.count
    cumulative = 0.0
    for bound in sorted(window.buckets):
        cumulative += window.buckets[bound]
        if cumulative >= rank:
            return bound
    return float("inf")  # landed in the implicit +Inf bucket
