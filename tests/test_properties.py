"""Property-based tests (hypothesis) for core data structures and invariants."""

import json
import os
import string
import tempfile
from itertools import islice
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.clock import SimulatedClock
from repro.errors import JournalTruncatedError, StorageError
from repro.identifiers import normalize_uri, slugify
from repro.model import ActionCall, LifecycleBuilder, LifecycleModel, Phase, BEGIN
from repro.model.lifecycle import LifecycleModel as Model
from repro.persistence import Journal, PersistenceConfig
from repro.persistence.journal import list_segments, scan_records
from repro.replication import JournalShippingSource, ReplicationPrimary
from repro.serialization import (
    lifecycle_from_json,
    lifecycle_from_xml,
    lifecycle_to_json,
    lifecycle_to_xml,
)
from repro.storage import InMemoryRepository

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
