"""Property-based tests (hypothesis) for core data structures and invariants."""

import functools
import json
import os
import re
import string
import tempfile
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.errors import JournalTruncatedError, StorageError
from repro.events import EventBus
from repro.identifiers import normalize_uri, slugify
from repro.model import ActionCall, LifecycleBuilder, LifecycleModel, Phase, BEGIN
from repro.model.deadline import Deadline
from repro.model.lifecycle import LifecycleModel as Model
from repro.monitoring import MonitoringCockpit
from repro.persistence import Journal, PersistenceConfig, PersistenceCoordinator, recover_into
from repro.persistence.journal import list_segments, scan_records
from repro.plugins import build_standard_environment
from repro.replication import JournalShippingSource, ReplicationPrimary
from repro.runtime import InstanceStatus, LifecycleManager, ShardedLifecycleManager
from repro.runtime.rollup import PortfolioSummary
from repro.serialization import (
    lifecycle_from_json,
    lifecycle_from_xml,
    lifecycle_to_json,
    lifecycle_to_xml,
)
from repro.service import RestRouter
from repro.service.transport import Request
from repro.storage import ExecutionLog, InMemoryRepository
from repro.templates.eu_deliverable import eu_deliverable_lifecycle

# ------------------------------------------------------------------ strategies

phase_names = st.text(alphabet=string.ascii_letters + " ", min_size=1, max_size=20).filter(
    lambda text: text.strip())
safe_values = st.text(alphabet=string.ascii_letters + string.digits + " .-", max_size=30)


@st.composite
def lifecycle_models(draw):
    """Random small lifecycle models with unique phases and valid transitions."""
    names = draw(st.lists(phase_names, min_size=2, max_size=6,
                          unique_by=lambda name: slugify(name)))
    # The XML codec normalises surrounding whitespace, so generate clean names.
    model = Model(name=draw(phase_names).strip())
    phase_ids = []
    for index, name in enumerate(names):
        terminal = index == len(names) - 1
        phase = Phase(phase_id=slugify(name), name=name.strip(), terminal=terminal)
        if not terminal and draw(st.booleans()):
            phase.add_action(ActionCall("http://www.liquidpub.org/a/chr",
                                        "Change access rights",
                                        {"visibility": draw(safe_values)}))
        model.add_phase(phase)
        phase_ids.append(phase.phase_id)
    model.add_transition(BEGIN, phase_ids[0])
    for source, target in zip(phase_ids, phase_ids[1:]):
        model.add_transition(source, target)
    # optionally add a few extra (possibly backward) edges between non-terminal phases
    extra = draw(st.lists(st.tuples(st.sampled_from(phase_ids[:-1]),
                                    st.sampled_from(phase_ids[:-1])), max_size=3))
    for source, target in extra:
        if source != target:
            model.add_transition(source, target)
    return model


# ------------------------------------------------------------------- properties

class TestSerializationProperties:
    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_xml_round_trip_preserves_model(self, model):
        restored = lifecycle_from_xml(lifecycle_to_xml(model))
        assert restored.name == model.name
        assert restored.phase_ids == model.phase_ids
        assert len(restored.transitions) == len(model.transitions)
        for phase in model.phases:
            restored_phase = restored.phase(phase.phase_id)
            assert restored_phase.terminal == phase.terminal
            assert [c.action_uri for c in restored_phase.actions] == \
                [c.action_uri for c in phase.actions]

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_json_round_trip_preserves_model(self, model):
        restored = lifecycle_from_json(lifecycle_to_json(model))
        assert restored.to_dict() == model.to_dict()

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_xml_serialization_is_stable(self, model):
        once = lifecycle_to_xml(lifecycle_from_xml(lifecycle_to_xml(model)))
        twice = lifecycle_to_xml(lifecycle_from_xml(once))
        assert once == twice


class TestModelProperties:
    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_copy_preserves_structure_and_is_independent(self, model):
        duplicate = model.copy()
        assert duplicate.to_dict() == model.to_dict()
        if duplicate.phases:
            duplicate.phases[0].name = duplicate.phases[0].name + " changed"
            duplicate.remove_phase(duplicate.phase_ids[-1])
        assert len(model) >= len(duplicate)

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_successors_are_always_modeled_moves(self, model):
        for phase_id in model.phase_ids:
            for successor in model.successors(phase_id):
                assert model.is_modeled_move(phase_id, successor.phase_id)

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_initial_phases_are_reachable(self, model):
        reachable = model.reachable_phases()
        for phase in model.initial_phases():
            assert phase.phase_id in reachable

    @given(lifecycle_models())
    @settings(max_examples=40, deadline=None)
    def test_element_count_lower_bound(self, model):
        assert model.element_count() >= len(model) + len(model.transitions)


class TestIdentifierProperties:
    @given(st.text(min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_slugify_is_idempotent_and_safe(self, text):
        slug = slugify(text)
        assert slugify(slug) == slug
        assert " " not in slug
        assert slug == slug.lower()

    @given(st.sampled_from(["http", "https"]),
           st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=10),
           st.text(alphabet=string.ascii_letters + string.digits, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_normalize_uri_is_idempotent(self, scheme, host, path):
        uri = "{}://{}.org/{}".format(scheme, host, path)
        normalized = normalize_uri(uri)
        assert normalize_uri(normalized) == normalized


class TestRepositoryProperties:
    @given(st.dictionaries(st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
                           st.dictionaries(st.sampled_from(["a", "b", "c"]), safe_values,
                                           max_size=3),
                           max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_put_then_get_returns_latest_document(self, documents):
        repository = InMemoryRepository()
        for record_id, document in documents.items():
            repository.put(record_id, document)
            repository.put(record_id, dict(document, updated=True))
        for record_id, document in documents.items():
            stored = repository.get(record_id)
            assert stored.version == 2
            assert stored.document["updated"] is True
        assert repository.count() == len(documents)

    @given(st.lists(st.text(alphabet=string.ascii_letters, min_size=1, max_size=8),
                    unique=True, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_delete_removes_exactly_the_deleted_ids(self, record_ids):
        repository = InMemoryRepository()
        for record_id in record_ids:
            repository.put(record_id, {"x": 1})
        to_delete = record_ids[::2]
        for record_id in to_delete:
            assert repository.delete(record_id)
        assert set(repository.ids()) == set(record_ids) - set(to_delete)


# ------------------------------------------------------- journal streaming

FOLLOWERS = ("a", "b")

stream_ops = st.lists(st.one_of(
    st.tuples(st.just("append"), st.integers(1, 6)),
    st.tuples(st.just("rotate")),
    st.tuples(st.just("truncate"), st.integers(0, 40)),
    st.tuples(st.just("tear"), st.integers(1, 200)),
    st.tuples(st.just("read"), st.sampled_from(["primary", "shipping"]),
              st.sampled_from(FOLLOWERS), st.integers(1, 6)),
), max_size=40)


class JournalStream:
    """A small journal, its writer's crashes, and followers reading it
    through both sources, each batch checked against a position-less scan."""

    def __init__(self, root):
        self.config = PersistenceConfig(root)
        self.directory = self.config.journal_directory
        self.journal = self._open()
        self.torn = False
        # ReplicationPrimary needs only these parts of a durable service.
        self.service = SimpleNamespace(
            persistence=SimpleNamespace(journal=self.journal), read_only=False,
            manager=SimpleNamespace(clock=SimulatedClock()))
        self.sources = {("primary", follower): ReplicationPrimary(self.service)
                        for follower in FOLLOWERS}
        # One primary serves both followers; a shipping source is per follower.
        self.sources[("primary", "b")] = self.sources[("primary", "a")]
        for follower in FOLLOWERS:
            self.sources[("shipping", follower)] = JournalShippingSource(self.config)
        self.cursors = {key: 0 for key in self.sources}

    def _open(self):
        return Journal(self.directory, fsync="never", segment_max_records=4)

    def writer(self):
        """The journal to write through; after a tear, the crashed writer's
        successor, which repairs the torn tail on open."""
        if self.torn:
            self.journal.close()
            self.journal = self._open()
            self.service.persistence.journal = self.journal
            self.torn = False
        return self.journal

    def apply(self, op):
        kind = op[0]
        if kind == "append":
            journal = self.writer()
            for index in range(op[1]):
                journal.append("k", SimulatedClock().now(), "s{}".format(index),
                               payload={"pad": "x" * (index * 37)})
        elif kind == "rotate":
            self.writer().rotate()
        elif kind == "truncate":
            journal = self.writer()
            journal.truncate_through(min(op[1], journal.last_seq))
        elif kind == "tear":
            self.tear(op[1])
        else:
            self.read(op[1], op[2], op[3])

    def tear(self, cut):
        segments = list_segments(self.directory)
        if not segments:
            return
        line = json.dumps({"seq": self.journal.last_seq + 1, "kind": "k",
                           "timestamp": "2009-01-01T00:00:00", "subject_id": "t",
                           "payload": {}}, separators=(",", ":"))
        with open(os.path.join(self.directory, segments[-1]), "a") as handle:
            handle.write(line[:cut])
        self.torn = True

    def read(self, kind, follower, limit):
        key = (kind, follower)
        cursor = self.cursors[key]
        expected_error = None
        try:
            expected = [record.to_dict() for record in islice(
                scan_records(self.directory, cursor, strict=True), limit)]
        except StorageError as exc:
            expected_error = type(exc)
        try:
            batch = self.sources[key].read_batch(cursor, limit=limit,
                                                 follower_id=follower)
        except StorageError as exc:
            assert type(exc) is expected_error
            if isinstance(exc, JournalTruncatedError):
                # The follower re-bootstraps past the gap.
                self.cursors[key] = max(cursor, exc.oldest_available - 1)
            return
        assert expected_error is None
        assert [record.to_dict() for record in batch.records] == expected
        assert batch.head_seq >= batch.next_seq
        self.cursors[key] = batch.next_seq


class TestJournalStreamProperties:
    @given(stream_ops)
    @settings(max_examples=40, deadline=None)
    def test_positioned_batches_equal_a_fresh_scan(self, ops):
        with tempfile.TemporaryDirectory(prefix="gelee-stream-") as root:
            stream = JournalStream(root)
            try:
                for op in ops:
                    stream.apply(op)
            finally:
                stream.journal.close()


# ------------------------------------------------------- portfolio roll-up

def scan_portfolio(manager, model_uri=None, now=None) -> PortfolioSummary:
    """Full-scan oracle: the portfolio summary as a loop over every instance
    (how the cockpit computed it before the index kept roll-up counters)."""
    now = now or manager.clock.now()
    summary = PortfolioSummary()
    for instance in manager.instances(model_uri=model_uri):
        summary.total += 1
        if instance.status is InstanceStatus.COMPLETED:
            summary.completed += 1
        elif instance.status is InstanceStatus.ACTIVE:
            summary.active += 1
        else:
            summary.not_started += 1
        phase = instance.current_phase()
        visit = instance.current_visit()
        if phase is not None and phase.deadline is not None and visit is not None \
                and visit.is_open \
                and phase.deadline.overdue_by(visit.entered_at, now).total_seconds() > 0:
            summary.late += 1
        if instance.deviations():
            summary.with_deviations += 1
        if instance.failed_invocations():
            summary.with_failed_actions += 1
        if any(a.kind == "escalation" for a in instance.annotations):
            summary.escalated += 1
        phase_name = phase.name if phase is not None else "(not started)"
        summary.by_phase[phase_name] = summary.by_phase.get(phase_name, 0) + 1
        summary.by_owner[instance.owner] = summary.by_owner.get(instance.owner, 0) + 1
    return summary


ROLLUP_OWNERS = ("ann", "bob", "cyd")
ROLLUP_DEADLINES = {"elaboration": 1.0, "finalassembly": 2.0, "publication": 0.5}

rollup_steps = st.lists(st.tuples(
    st.sampled_from(["create", "advance", "move", "fail", "escalate", "note",
                     "change", "swap", "tick", "checkpoint", "recover"]),
    st.integers(0, 60)), min_size=1, max_size=30)


class PortfolioRun:
    """A runtime with durable persistence, driven step by step; after every
    step its indexed portfolio summary is checked against the full scan."""

    def __init__(self, root, sharded):
        self.sharded = sharded
        self.clock = SimulatedClock()
        self.environment = build_standard_environment(clock=self.clock)
        self.config = PersistenceConfig(root, backend="file", fsync="never")
        self.manager, log = self._runtime()
        self.coordinator = self._attach(self.manager, log)
        # Without bound reviewers the Internal Review phase's "Notify
        # reviewers" binding fails, so entering it records a failed invocation.
        self.model = eu_deliverable_lifecycle(deadline_days=ROLLUP_DEADLINES)
        self.other = (LifecycleBuilder("Side lifecycle")
                      .phase("Draft", deadline_days=1.0).phase("Check")
                      .terminal("Done").flow("Draft", "Check", "Done").build())
        self.manager.publish_model(self.model, actor="pm")
        self.manager.publish_model(self.other, actor="pm")
        self.ids = []

    def _runtime(self):
        bus = EventBus()
        if self.sharded:
            manager = ShardedLifecycleManager(self.environment, shard_count=4,
                                              clock=self.clock, bus=bus)
        else:
            manager = LifecycleManager(self.environment, clock=self.clock, bus=bus)
        log = ExecutionLog(bus=bus)
        return manager, log

    def _attach(self, manager, log):
        return PersistenceCoordinator(
            manager, log, self.config.open_journal(), self.config.open_snapshots(),
            self.config.open_store(), bus=manager.bus)

    def apply(self, kind, pick):
        manager = self.manager
        if kind == "create" or not self.ids:
            resource = self.environment.adapter("Google Doc").create_resource(
                "doc {}".format(len(self.ids)), owner="pm")
            owner = ROLLUP_OWNERS[pick % len(ROLLUP_OWNERS)]
            self.ids.append(manager.instantiate(self.model.uri, resource,
                                                owner=owner).instance_id)
            return
        instance_id = self.ids[pick % len(self.ids)]
        instance = manager.instance(instance_id)
        phase_ids = instance.model.phase_ids
        if kind == "advance":
            if instance.current_phase_id is None:
                manager.start(instance_id, actor=instance.owner)
                return
            successors = instance.model.successors(instance.current_phase_id)
            if successors:
                manager.advance(instance_id, actor=instance.owner,
                                to_phase_id=successors[pick % len(successors)].phase_id)
        elif kind == "move":
            manager.move_to(instance_id, actor=instance.owner,
                            phase_id=phase_ids[pick % len(phase_ids)])
        elif kind == "fail" and instance.model.has_phase("internalreview"):
            manager.move_to(instance_id, actor=instance.owner, phase_id="internalreview")
        elif kind in ("escalate", "note"):
            manager.annotate(instance_id, "scheduler", "step {}".format(pick),
                             kind="escalation" if kind == "escalate" else "note")
        elif kind == "change":
            self.accept_revision(instance_id, pick)
        elif kind == "swap":
            target = self.other if instance.model.uri == self.model.uri else self.model
            manager.change_instance_model(
                instance_id, instance.owner, target,
                target_phase_id=target.phase_ids[pick % len(target.phase_ids)])
        elif kind == "tick":
            self.clock.advance(hours=6 * (1 + pick % 8))
        elif kind == "checkpoint":
            self.coordinator.checkpoint()
        elif kind == "recover":
            self.recover()

    def accept_revision(self, instance_id, pick):
        """Publish a revision of the instance's model (a renamed phase and a
        moved deadline) and accept it for this instance with a target phase."""
        current = self.manager.model(self.manager.instance(instance_id).model.uri)
        revised = current.new_version(created_by="pm")
        phase = revised.phases[pick % len(revised.phases)]
        revised.rename_phase(phase.phase_id, "{} v{}".format(
            phase.name.split(" v")[0], revised.version.version_number))
        if not phase.terminal:
            phase.deadline = None if phase.deadline is not None else Deadline(days=1.5)
        proposals = self.manager.propose_change(revised, actor="pm",
                                                instance_ids=[instance_id])
        for proposal in proposals:
            self.manager.accept_change(
                proposal.proposal_id, actor="pm",
                target_phase_id=revised.phase_ids[pick % len(revised.phase_ids)])

    def recover(self):
        """Drop the runtime and rebuild it from the last checkpoint plus the
        journal tail."""
        before = self.manager.portfolio_summary().to_dict()
        self.coordinator.close()
        manager, log = self._runtime()
        report = recover_into(manager, log, self.config.open_journal(),
                              self.config.open_snapshots(), self.config.open_store())
        self.manager, self.coordinator = manager, self._attach(manager, log)
        # As the service tier does: what the tail rebuilt goes into the
        # next checkpoint.
        for instance_id in report.touched_instance_ids:
            self.coordinator.mark_dirty(instance_id)
        after = manager.portfolio_summary().to_dict()
        # action.* records are log-only, so a failed invocation in the
        # journal tail is not replayed; everything else must survive.
        before.pop("with_failed_actions")
        after.pop("with_failed_actions")
        assert after == before

    def check(self):
        manager = self.manager
        for model_uri in (None, self.model.uri, self.other.uri):
            expected = scan_portfolio(manager, model_uri).to_dict()
            assert manager.portfolio_summary(model_uri).to_dict() == expected
            cockpit = MonitoringCockpit(manager)
            assert cockpit.portfolio_summary(model_uri).to_dict() == expected
            deadlines = cockpit.deadline_rollup(model_uri)
            assert deadlines["overdue"] == expected["late"]
            assert deadlines["escalated"] == expected["escalated"]
            total = expected["total"]
            assert cockpit.completion_rate(model_uri) == \
                (expected["completed"] / total if total else 0.0)


class TestPortfolioRollupProperties:
    @pytest.mark.parametrize("sharded", [False, True], ids=["single", "sharded"])
    @given(steps=rollup_steps)
    @settings(max_examples=20, deadline=None)
    def test_indexed_summary_equals_a_full_scan(self, sharded, steps):
        with tempfile.TemporaryDirectory(prefix="gelee-rollup-") as root:
            run = PortfolioRun(root, sharded)
            try:
                for kind, pick in steps:
                    run.apply(kind, pick)
                    run.check()
            finally:
                run.coordinator.close()


# -------------------------------------------------------------- route index

def _scan(routes, method, path):
    """The reference resolution: try every route in registration order."""
    allowed = set()
    for route in routes:
        match = route.regex.match(path)
        if match is None:
            continue
        if route.method != method:
            allowed.add(route.method)
            continue
        return ("route", route.name, match.groupdict())
    return ("405", ", ".join(sorted(allowed))) if allowed else ("404",)


def _stubbed_router(extra_routes=()):
    """The full v1 + v2 table with side-effect-free handlers, after one
    dispatch has built the index, then ``extra_routes`` added on top (the
    index must notice them).  SOAP dispatches by operation name through
    :class:`~repro.service.soap.SoapEndpoint` and has no entries here."""
    router = RestRouter()
    router.get("/v2/models")
    for method, pattern in extra_routes:
        router.add_route(method, pattern, None)
    for route in router._routes:
        route.handler = lambda request, params, name=route.name: {
            "route": name, "params": params}
    return router


@functools.lru_cache(maxsize=None)
def _router(shape):
    """One router per table shape, shared by every generated example."""
    return _stubbed_router({
        "table": (),
        # Overlaps existing keys and adds a wildcard first segment.
        "extended": (("GET", "/v2/instances/{instance_id}:peek"),
                     ("PUT", "/models"),
                     ("DELETE", "/v2/runtime/{section}"),
                     ("GET", "/{anything}/history")),
        # Regex syntax in a literal: the router falls back to a scan.
        "regex": (("GET", "/v2/files/.+"),),
    }[shape])


_ID_TEXT = st.text(alphabet=string.ascii_letters + string.digits + "-_.:~%{}",
                   min_size=1, max_size=12)


@st.composite
def route_requests(draw):
    """A method and a path: a registered pattern filled with generated ids,
    optionally mangled, or a random walk over the table's literals."""
    shape = draw(st.sampled_from(["table", "extended", "regex"]))
    router = _router(shape)
    patterns = [route.pattern for route in router._routes]
    literals = sorted({segment for pattern in patterns
                       for segment in pattern.split("/") if "{" not in segment})
    if draw(st.booleans()):
        pattern = draw(st.sampled_from(patterns))
        path = re.sub(r"\{\w+\}", lambda _: draw(_ID_TEXT), pattern)
        mangle = draw(st.sampled_from(["none", "slash", "newline", "drop",
                                       "extend", "swap"]))
        if mangle == "slash":
            path += "/"
        elif mangle == "newline":
            path += "\n"
        elif mangle == "drop":
            path = path.rsplit("/", 1)[0]
        elif mangle == "extend":
            path += "/" + draw(st.sampled_from(literals + ["x"]))
        elif mangle == "swap":
            head, _, _ = path.rpartition("/")
            path = head + "/" + draw(st.sampled_from(literals) | _ID_TEXT)
    else:
        segments = draw(st.lists(st.sampled_from(literals) | _ID_TEXT, max_size=5))
        path = "/" + "/".join(segments)
    method = draw(st.sampled_from(["GET", "POST", "PUT", "DELETE", "get"]))
    return shape, method, path


class TestRouteIndexProperties:
    @given(route_requests())
    @settings(max_examples=300, deadline=None)
    def test_indexed_dispatch_equals_a_linear_scan(self, case):
        shape, method, path = case
        router = _router(shape)
        expected = _scan(router._routes, method.upper(), path.rstrip("/") or "/")
        response = router.handle(Request(method, path, actor="tester"))
        if expected[0] == "route":
            assert response.status < 300, response.body
            assert response.body == {"route": expected[1], "params": expected[2]}
        elif expected[0] == "405":
            assert response.status == 405
            assert response.headers["Allow"] == expected[1]
        else:
            assert response.status == 404
