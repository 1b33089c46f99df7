"""Portfolio roll-up counters kept by the runtime index.

The monitoring cockpit gives the project manager the portfolio "at a
glance" (§II.B-4): instances by status, by current phase name and by owner,
and how many deviated, had a failed action or were escalated.  Counting
that by visiting every instance makes a summary cost grow with the
portfolio.  Instead each :class:`~repro.runtime.manager.InstanceIndex` keeps
one :class:`ModelRollup` per model, updated at the same choke point as its
other indexes, and a summary merges those counters.

Only ``late`` depends on the clock.  The roll-up therefore also keeps the
instances whose open visit sits on a phase with a deadline, and ``late`` is
counted over those alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Tuple

from .instance import InstanceStatus, LifecycleInstance

#: ``by_phase`` key of instances whose token has not been placed yet.
NOT_STARTED = "(not started)"


@dataclass
class PortfolioSummary:
    """Roll-up of a set of instances (typically one project's deliverables)."""

    total: int = 0
    active: int = 0
    completed: int = 0
    not_started: int = 0
    late: int = 0
    with_deviations: int = 0
    with_failed_actions: int = 0
    #: Instances the scheduler escalated at least once (annotation kind
    #: ``"escalation"`` — durable, so the count survives restarts).
    escalated: int = 0
    by_phase: Dict[str, int] = field(default_factory=dict)
    by_owner: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "active": self.active,
            "completed": self.completed,
            "not_started": self.not_started,
            "late": self.late,
            "with_deviations": self.with_deviations,
            "with_failed_actions": self.with_failed_actions,
            "escalated": self.escalated,
            "by_phase": dict(self.by_phase),
            "by_owner": dict(self.by_owner),
        }


#: What one instance contributes to its model's roll-up:
#: (phase name, status, owner, deviated, failed action, escalated,
#: on a deadline phase).
Contribution = Tuple[str, InstanceStatus, str, bool, bool, bool, bool]


def contribution(instance: LifecycleInstance) -> Contribution:
    """The roll-up keys of one instance, read in O(1)."""
    phase_id = instance.current_phase_id
    if phase_id is None:
        name, on_deadline = NOT_STARTED, False
    else:
        phase = instance.model.phase(phase_id)
        name = phase.name
        on_deadline = (phase.deadline is not None
                       and instance.current_visit() is not None)
    return (name, instance.status, instance.owner, instance.has_deviations,
            instance.has_failed_actions, instance.escalated, on_deadline)


def is_late(instance: LifecycleInstance, now: datetime) -> bool:
    """Whether the open visit of a deadline-phase instance is overdue."""
    return instance.current_phase().deadline.is_overdue(
        instance.current_visit().entered_at, now)


class ModelRollup:
    """Summary counters over the instances of one model in one index."""

    __slots__ = ("by_phase", "by_status", "by_owner", "deviated", "failed",
                 "escalated", "on_deadline")

    def __init__(self):
        self.by_phase: Dict[str, int] = {}
        self.by_status: Dict[InstanceStatus, int] = {}
        self.by_owner: Dict[str, int] = {}
        self.deviated = 0
        self.failed = 0
        self.escalated = 0
        #: instance id -> instance whose open visit sits on a deadline phase.
        self.on_deadline: Dict[str, LifecycleInstance] = {}

    def count(self, instance: LifecycleInstance, keys: Contribution,
              sign: int) -> None:
        """File (``sign=1``) or withdraw (``sign=-1``) one instance."""
        name, status, owner, deviated, failed, escalated, deadline = keys
        _bump(self.by_phase, name, sign)
        _bump(self.by_status, status, sign)
        _bump(self.by_owner, owner, sign)
        self.deviated += sign * deviated
        self.failed += sign * failed
        self.escalated += sign * escalated
        if deadline:
            if sign > 0:
                self.on_deadline[instance.instance_id] = instance
            else:
                del self.on_deadline[instance.instance_id]

    def refile(self, instance: LifecycleInstance, old: Contribution,
               new: Contribution) -> None:
        """Move one instance from ``old`` to ``new`` keys, touching only the
        keys that differ, so a token move costs a handful of dict updates."""
        if old[0] != new[0]:
            _bump(self.by_phase, old[0], -1)
            _bump(self.by_phase, new[0], 1)
        if old[1] is not new[1]:
            _bump(self.by_status, old[1], -1)
            _bump(self.by_status, new[1], 1)
        if old[2] != new[2]:
            _bump(self.by_owner, old[2], -1)
            _bump(self.by_owner, new[2], 1)
        self.deviated += new[3] - old[3]
        self.failed += new[4] - old[4]
        self.escalated += new[5] - old[5]
        if old[6] != new[6]:
            if new[6]:
                self.on_deadline[instance.instance_id] = instance
            else:
                del self.on_deadline[instance.instance_id]

    def add_to(self, summary: PortfolioSummary, now: datetime) -> None:
        """Add these counters (and the late count at ``now``) to ``summary``."""
        for status, count in self.by_status.items():
            summary.total += count
            if status is InstanceStatus.COMPLETED:
                summary.completed += count
            elif status is InstanceStatus.ACTIVE:
                summary.active += count
            else:
                summary.not_started += count
        _merge(summary.by_phase, self.by_phase)
        _merge(summary.by_owner, self.by_owner)
        summary.with_deviations += self.deviated
        summary.with_failed_actions += self.failed
        summary.escalated += self.escalated
        summary.late += sum(1 for instance in self.on_deadline.values()
                            if is_late(instance, now))


def _bump(counts: Dict, key, delta: int) -> None:
    value = counts.get(key, 0) + delta
    if value:
        counts[key] = value
    else:
        del counts[key]


def _merge(into: Dict, counts: Dict) -> None:
    for key, count in counts.items():
        into[key] = into.get(key, 0) + count
