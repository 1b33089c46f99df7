"""The monitoring cockpit.

Builds the project-manager views: one row per lifecycle instance (phase,
owner, time in phase, deadline state), portfolio roll-ups by phase and by
owner, delay reports and per-phase duration statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Dict, List, Optional

from ..clock import Clock
from ..runtime.instance import InstanceStatus, LifecycleInstance
from ..runtime.manager import LifecycleManager
from ..runtime.rollup import PortfolioSummary


@dataclass
class InstanceStatusRow:
    """One line of the cockpit's status table."""

    instance_id: str
    resource_name: str
    resource_uri: str
    owner: str
    model_name: str
    status: str
    phase_id: Optional[str]
    phase_name: Optional[str]
    days_in_phase: float
    overdue_days: float
    deviations: int
    failed_actions: int
    annotations: int

    @property
    def is_late(self) -> bool:
        return self.overdue_days > 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "instance_id": self.instance_id,
            "resource_name": self.resource_name,
            "resource_uri": self.resource_uri,
            "owner": self.owner,
            "model_name": self.model_name,
            "status": self.status,
            "phase_id": self.phase_id,
            "phase_name": self.phase_name,
            "days_in_phase": round(self.days_in_phase, 2),
            "overdue_days": round(self.overdue_days, 2),
            "deviations": self.deviations,
            "failed_actions": self.failed_actions,
            "annotations": self.annotations,
        }


class MonitoringCockpit:
    """Project-manager monitoring over a lifecycle manager's instances."""

    def __init__(self, manager: LifecycleManager, clock: Clock = None):
        self._manager = manager
        self._clock = clock or manager.clock

    # --------------------------------------------------------------- status rows
    def status_row(self, instance: LifecycleInstance, now: datetime = None) -> InstanceStatusRow:
        """Compute the cockpit row for one instance."""
        now = now or self._clock.now()
        visit = instance.current_visit()
        days_in_phase = visit.duration_days(now) if visit is not None else 0.0
        overdue = 0.0
        phase = instance.current_phase()
        if phase is not None and phase.deadline is not None and visit is not None and visit.is_open:
            delta = phase.deadline.overdue_by(visit.entered_at, now)
            overdue = max(0.0, delta.total_seconds() / 86400.0)
        return InstanceStatusRow(
            instance_id=instance.instance_id,
            resource_name=instance.resource.display_name,
            resource_uri=instance.resource.uri,
            owner=instance.owner,
            model_name=instance.model.name,
            status=instance.status.value,
            phase_id=instance.current_phase_id,
            phase_name=phase.name if phase else None,
            days_in_phase=days_in_phase,
            overdue_days=overdue,
            deviations=len(instance.deviations()),
            failed_actions=len(instance.failed_invocations()),
            annotations=len(instance.annotations),
        )

    def status_table(self, model_uri: str = None, owner: str = None,
                     now: datetime = None) -> List[InstanceStatusRow]:
        """The "status at a glance" table, optionally filtered."""
        now = now or self._clock.now()
        instances = self._manager.instances(model_uri=model_uri, owner=owner)
        rows = [self.status_row(instance, now) for instance in instances]
        rows.sort(key=lambda row: (-row.overdue_days, row.resource_name))
        return rows

    # ------------------------------------------------------------------ roll-ups
    def phase_counts(self, model_uri: str = None) -> Dict[str, int]:
        """Instances per current phase id, answered from the runtime index."""
        counts = self._manager.phase_distribution(model_uri=model_uri)
        return {(phase_id or "(not started)"): count for phase_id, count in counts.items()}

    def owner_counts(self) -> Dict[str, int]:
        """Instances per owner, answered from the runtime index."""
        return self._manager.owner_distribution()

    def status_counts(self) -> Dict[str, int]:
        """Instances per status, answered from the runtime index."""
        return {status.value: count
                for status, count in self._manager.status_distribution().items()}

    def portfolio_summary(self, model_uri: str = None, now: datetime = None) -> PortfolioSummary:
        """Roll-up over the instances of one model or all.

        Answered from the runtime's per-shard roll-up counters, read under
        the shard locks: the cost does not grow with the portfolio, only
        ``late`` visits instances, and only those on deadline phases.
        """
        return self._manager.portfolio_summary(model_uri=model_uri,
                                               now=now or self._clock.now())

    def late_instances(self, model_uri: str = None, now: datetime = None) -> List[InstanceStatusRow]:
        """Instances whose current phase deadline has passed, most late first."""
        return [row for row in self.status_table(model_uri=model_uri, now=now) if row.is_late]

    def deadline_rollup(self, model_uri: str = None, now: datetime = None,
                        scheduler=None) -> Dict[str, object]:
        """One-look deadline health: armed, due-soon, overdue, escalated.

        The passive view (deadline arithmetic over the instances the index
        keeps on deadline phases) plus —
        when the deployment's :class:`~repro.scheduler.LifecycleScheduler`
        is passed — the active view: how many deadline timers are pending
        and how many escalations have already fired.  ``escalated`` counts
        instances carrying at least one durable ``"escalation"`` annotation,
        so it needs no scheduler at all.
        """
        now = now or self._clock.now()
        overdue = 0
        due_soon = 0
        overdue_ids: List[str] = []
        instances = self._manager.deadline_instances(model_uri=model_uri)
        for instance in instances:
            phase = instance.current_phase()
            visit = instance.current_visit()
            # One source of truth for boundary semantics: Deadline itself.
            if phase.deadline.is_overdue(visit.entered_at, now):
                overdue += 1
                overdue_ids.append(instance.instance_id)
            elif phase.deadline.is_expired(visit.entered_at,
                                           now + timedelta(days=1)):
                due_soon += 1
        rollup: Dict[str, object] = {
            "with_deadline": len(instances),
            "overdue": overdue,
            "due_within_24h": due_soon,
            "escalated": self.portfolio_summary(model_uri=model_uri,
                                                now=now).escalated,
            "overdue_instance_ids": overdue_ids,
        }
        if scheduler is not None:
            status = scheduler.status()
            rollup["pending_deadline_timers"] = scheduler.timers.count(
                kind="deadline")
            rollup["escalations_fired"] = status["escalations"]
            rollup["next_fire_at"] = status["next_fire_at"]
        return rollup

    def deviating_instances(self, model_uri: str = None) -> List[LifecycleInstance]:
        """Instances that left the modelled flow at least once."""
        return [instance for instance in self._manager.instances(model_uri=model_uri)
                if instance.deviations()]

    def instances_in_phase(self, phase_id: str,
                           model_uri: str = None) -> List[LifecycleInstance]:
        """The instances whose token currently sits on ``phase_id`` (indexed)."""
        return self._manager.instances(model_uri=model_uri, phase_id=phase_id)

    # ----------------------------------------------------------------- statistics
    def phase_duration_statistics(self, model_uri: str = None,
                                  now: datetime = None) -> Dict[str, Dict[str, float]]:
        """Per-phase stay duration statistics (count, mean, max) in days."""
        now = now or self._clock.now()
        durations: Dict[str, List[float]] = {}
        for instance in self._manager.instances(model_uri=model_uri):
            for visit in instance.visits:
                durations.setdefault(visit.phase_name, []).append(visit.duration_days(now))
        statistics = {}
        for phase_name, values in durations.items():
            statistics[phase_name] = {
                "count": float(len(values)),
                "mean_days": sum(values) / len(values),
                "max_days": max(values),
            }
        return statistics

    def completion_rate(self, model_uri: str = None) -> float:
        """Fraction of instances that reached an end phase (index counts)."""
        counts = self._manager.status_distribution(model_uri=model_uri)
        total = sum(counts.values())
        if not total:
            return 0.0
        return counts.get(InstanceStatus.COMPLETED, 0) / total

    # --------------------------------------------------------------------- text
    def render_text(self, model_uri: str = None, now: datetime = None) -> str:
        """Plain-text cockpit view (also used by the examples' console output)."""
        now = now or self._clock.now()
        rows = self.status_table(model_uri=model_uri, now=now)
        summary = self.portfolio_summary(model_uri=model_uri, now=now)
        lines = [
            "Portfolio: {} artifacts — {} active, {} completed, {} not started, {} late".format(
                summary.total, summary.active, summary.completed, summary.not_started,
                summary.late),
            "-" * 78,
        ]
        for row in rows:
            marker = "LATE" if row.is_late else ("DONE" if row.status == "completed" else "    ")
            lines.append(
                "{:4s} {:<32s} {:<18s} {:>6.1f}d in phase  owner={}".format(
                    marker, row.resource_name[:32], (row.phase_name or "-")[:18],
                    row.days_in_phase, row.owner)
            )
        return "\n".join(lines)
