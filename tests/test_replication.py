"""Tests for :mod:`repro.replication`: journal streaming, read replicas,
read-only serving, promotion and failover.

The centrepiece mirrors the durability suites: a durable primary serves
load while a warm standby streams its journal; the primary is killed
mid-traffic, the standby is promoted, and nothing that reached the journal
is lost — timers re-armed, writes accepted.
"""

import os
import shutil
import tempfile
from itertools import islice

import pytest

from repro.clock import SimulatedClock
from repro.client import GeleeApiError, GeleeClient
from repro.errors import (
    JournalTruncatedError,
    ReadOnlyReplicaError,
    ReplicationError,
    StorageError,
)
from repro.model import LifecycleBuilder
from repro.persistence import Journal, PersistenceConfig
from repro.persistence.journal import list_segments, scan_last_seq, scan_records
from repro.replication import (
    JournalShippingSource,
    ReadReplica,
    ReplicationPrimary,
)
from repro.service import GeleeService
from repro.service.rest import RestRouter
from repro.service.transport import Request


@pytest.fixture
def root():
    directory = tempfile.mkdtemp(prefix="gelee-replication-")
    yield directory
    shutil.rmtree(directory, ignore_errors=True)


def replication_model(name="Replicated lifecycle"):
    builder = LifecycleBuilder(name)
    builder.phase("Draft", deadline_days=2.0)
    builder.phase("Review")
    builder.terminal("Done")
    builder.flow("Draft", "Review", "Done")
    return builder.build()


def build_primary(root, shard_count=4, backend="file", clock=None):
    config = PersistenceConfig(os.path.join(root, "primary"), backend=backend,
                               fsync="never")
    service = GeleeService(shard_count=shard_count, clock=clock or SimulatedClock(),
                           persistence=config)
    ReplicationPrimary(service)
    return config, service


def seed_instances(service, model, count, prefix="doc"):
    adapter = service.environment.adapter("Google Doc")
    ids = []
    for index in range(count):
        resource = adapter.create_resource("{} {}".format(prefix, index),
                                           owner="alice")
        instance = service.manager.instantiate(model.uri, resource, owner="alice")
        service.manager.start(instance.instance_id, actor="alice")
        ids.append(instance.instance_id)
    return ids


# ======================================================== journal streaming
class TestJournalStreaming:
    def test_cursor_resumes_across_rotation(self, root):
        journal = Journal(os.path.join(root, "journal"), fsync="never",
                          segment_max_records=5)
        clock = SimulatedClock()
        for index in range(17):
            journal.append("test.event", clock.now(), "subject-{}".format(index))
        assert len(journal.segment_files()) > 2
        # A cursor parked inside a sealed (rotated-out) segment resumes
        # exactly where it stopped, across the segment boundary.
        head = [record.seq for record in journal.read(after_seq=3, strict=True)]
        assert head == list(range(4, 18))

    def test_explicit_rotate_mid_stream(self, root):
        journal = Journal(os.path.join(root, "journal"), fsync="never")
        clock = SimulatedClock()
        for index in range(4):
            journal.append("test.event", clock.now(), "s{}".format(index))
        assert journal.rotate() is True
        for index in range(4, 8):
            journal.append("test.event", clock.now(), "s{}".format(index))
        assert [r.seq for r in journal.read(after_seq=2, strict=True)] == [3, 4, 5, 6, 7, 8]

    def test_truncated_cursor_raises_typed_resumable_error(self, root):
        journal = Journal(os.path.join(root, "journal"), fsync="never",
                          segment_max_records=4)
        clock = SimulatedClock()
        for index in range(12):
            journal.append("test.event", clock.now(), "s{}".format(index))
        removed = journal.truncate_through(8)
        assert removed, "expected fully-covered segments to be truncated"
        with pytest.raises(JournalTruncatedError) as excinfo:
            list(journal.read(after_seq=2, strict=True))
        assert excinfo.value.oldest_available > 3
        # The non-strict read (crash recovery over its own snapshot) keeps
        # its historical gap-tolerant behaviour.
        assert [r.seq for r in journal.read(after_seq=2)]

    def test_segment_vanishing_mid_read_is_typed_not_corruption(self, root):
        directory = os.path.join(root, "journal")
        journal = Journal(directory, fsync="never", segment_max_records=3)
        clock = SimulatedClock()
        for index in range(9):
            journal.append("test.event", clock.now(), "s{}".format(index))
        journal.close()
        segments = list_segments(directory)
        # Snapshot the segment list, then a concurrent checkpoint deletes a
        # segment before the reader reaches it.
        os.unlink(os.path.join(directory, segments[1]))
        with pytest.raises(JournalTruncatedError):
            list(scan_records(directory, after_seq=0, segments=segments))

    def test_scan_last_seq_is_read_only_on_torn_tail(self, root):
        directory = os.path.join(root, "journal")
        journal = Journal(directory, fsync="never")
        clock = SimulatedClock()
        for index in range(3):
            journal.append("test.event", clock.now(), "s{}".format(index))
        journal.close()
        path = os.path.join(directory, list_segments(directory)[-1])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 4, "kind": "torn')  # no newline: torn append
        size_before = os.path.getsize(path)
        assert scan_last_seq(directory) == 3
        assert os.path.getsize(path) == size_before, \
            "a follower's read-only scan must never repair the primary's files"
        # The owning process repairs it on reopen, as before.
        assert Journal(directory, fsync="never").last_seq == 3

    def test_shipping_source_batches_and_head(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 6)
        source = JournalShippingSource(config)
        batch = source.read_batch(0, limit=5)
        assert batch.count == 5
        assert batch.next_seq == 5
        # A full batch must prove the follower is not caught up.
        assert batch.next_seq < batch.head_seq <= source.head_seq()
        assert not batch.caught_up
        rest = source.read_batch(batch.next_seq)
        assert rest.head_seq == source.head_seq()  # final batch is exact
        assert rest.caught_up
        # Round-trips through plain dicts for wire shipping.
        from repro.replication import StreamBatch
        clone = StreamBatch.from_dict(batch.to_dict())
        assert [r.seq for r in clone.records] == [r.seq for r in batch.records]


    def _streamed_primary(self, root, instances=6):
        config, service = build_primary(root)
        model = replication_model()
        service.manager.publish_model(model, actor="alice")
        seed_instances(service, model, instances)
        return config, service

    def test_followers_keep_independent_positions(self, root):
        config, service = self._streamed_primary(root)
        primary = service.replication
        first_a = primary.read_batch(0, limit=3, follower_id="a")
        first_b = primary.read_batch(0, limit=7, follower_id="b")
        positions = primary._positions
        assert (positions["a"].seq, positions["b"].seq) == (3, 7)
        assert positions["a"].offset < positions["b"].offset
        second_a = primary.read_batch(first_a.next_seq, limit=2, follower_id="a")
        second_b = primary.read_batch(first_b.next_seq, limit=2, follower_id="b")
        assert [r.seq for r in second_a.records] == [4, 5]
        assert [r.seq for r in second_b.records] == [8, 9]
        assert (positions["a"].seq, positions["b"].seq) == (5, 9)
        # An anonymous read keeps no position and moves neither follower's.
        assert primary.read_batch(0, limit=50).count == min(50, primary.head_seq())
        assert sorted(positions) == ["a", "b"]
        assert (positions["a"].seq, positions["b"].seq) == (5, 9)
        assert sorted(primary.status()["followers"]) == ["a", "b"]

    def test_read_batch_limit_stops_reading_early(self, root):
        config, service = self._streamed_primary(root)
        journal = service.persistence.journal
        assert journal.last_seq > 12
        # Damage record 11, with valid records after it: only a read that
        # reaches it can notice.
        path = os.path.join(journal.directory, journal.segment_files()[-1])
        with open(path, "r+b") as handle:
            data = handle.read()
            handle.seek(sum(len(line) for line in data.splitlines(True)[:10]))
            handle.write(b"#")
        primary = service.replication
        shipping = JournalShippingSource(config)
        for source in (primary, shipping):
            first = source.read_batch(0, limit=5, follower_id="a")
            assert [r.seq for r in first.records] == [1, 2, 3, 4, 5]
            second = source.read_batch(5, limit=5, follower_id="a")
            assert [r.seq for r in second.records] == [6, 7, 8, 9, 10]
            with pytest.raises(StorageError):
                source.read_batch(10, limit=5, follower_id="a")
        assert primary._positions["a"].seq == shipping._position.seq == 10

    def test_concurrent_reads_sharing_one_follower_position(self, root):
        """Several threads read as one follower id (so they race on one
        position) while a writer appends and rotates: every batch must
        still be exactly the records a fresh scan finds after its cursor."""
        import random
        import sys
        import threading

        config, service = self._streamed_primary(root, instances=2)
        primary, journal = service.replication, service.persistence.journal
        clock = SimulatedClock()
        stop = threading.Event()
        failures = []

        def write():
            for index in range(600):
                journal.append("k", clock.now(), "w", payload={"pad": "p" * (index % 50)})
                if index % 97 == 0:
                    journal.rotate()
            stop.set()

        def read(seed):
            rng = random.Random(seed)
            cursor = 0
            try:
                while not stop.is_set() or cursor < journal.last_seq:
                    if rng.random() < 0.1:
                        cursor = rng.randrange(0, journal.last_seq + 1)
                    batch = primary.read_batch(cursor, limit=rng.randrange(1, 40),
                                               follower_id="shared")
                    fresh = list(islice(scan_records(journal.directory, cursor,
                                                     strict=True), batch.count))
                    assert [r.to_dict() for r in batch.records] == \
                        [r.to_dict() for r in fresh]
                    cursor = batch.next_seq
            except BaseException as exc:  # reported on the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)] + [
                threading.Thread(target=read, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []


# ============================================================= read replica
class TestReadReplica:
    def test_bootstrap_from_snapshot_and_incremental_sync(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 8)
        checkpoint = primary.persistence.checkpoint()
        # Post-snapshot traffic lands in the journal tail only.
        primary.manager.advance(ids[0], actor="alice", to_phase_id="review")

        replica = ReadReplica(JournalShippingSource(config), shard_count=4,
                              clock=clock)
        report = replica.sync()
        status = replica.status()
        assert status["snapshot_seq"] == checkpoint["journal_seq"]
        assert status["lag_records"] == 0
        assert report["applied_seq"] > checkpoint["journal_seq"]
        assert replica.service.manager.instance_count() == 8
        assert replica.service.manager.instance(ids[0]).current_phase_id == "review"
        # Deadline timers replicated (7 on Draft; the advanced one cancelled).
        assert replica.service.scheduler.timers.pending_count == 7
        # The execution log followed the stream too.
        assert len(replica.service.execution_log.history_of(ids[0])) == \
            len(primary.execution_log.history_of(ids[0]))

        # Lag is tracked continuously: new primary traffic, not yet synced.
        primary.manager.advance(ids[1], actor="alice", to_phase_id="review")
        replica._head_seq = replica._source.head_seq()
        assert replica.lag_records > 0
        replica.sync()
        assert replica.lag_records == 0

    def test_replica_against_in_process_primary_tracks_followers(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 4)
        replica = ReadReplica(primary.replication, shard_count=4, clock=clock,
                              replica_id="standby-1")
        replica.sync()
        status = primary.replication_status()
        assert status["role"] == "primary"
        assert "standby-1" in status["followers"]
        assert status["followers"]["standby-1"]["lag_records"] == 0
        assert status["max_follower_lag"] == 0

    def test_replica_shard_layout_matches_primary(self, root):
        config, primary = build_primary(root, shard_count=4)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 12)
        replica = ReadReplica(JournalShippingSource(config), shard_count=4)
        replica.sync()
        assert replica.service.manager.shard_sizes() == \
            primary.manager.shard_sizes()

    def test_double_bootstrap_rejected(self, root):
        config, primary = build_primary(root)
        replica = ReadReplica(JournalShippingSource(config), shard_count=4)
        replica.bootstrap()
        with pytest.raises(ReplicationError):
            replica.bootstrap()


# ========================================================= read-only serving
class TestReadOnlyServing:
    def build_pair(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 6)
        replica = ReadReplica(JournalShippingSource(config), shard_count=4,
                              clock=clock, primary_hint="gelee-primary:8080")
        replica.sync()
        return primary, replica, ids

    def test_replica_serves_v2_reads(self, root):
        primary, replica, ids = self.build_pair(root)
        router = replica.router()
        listing = router.handle(Request("GET", "/v2/instances", query={}))
        assert listing.status == 200
        assert len(listing.body["data"]) == 6
        detail = router.handle(Request("GET", "/v2/instances/{}".format(ids[0])))
        assert detail.status == 200
        summary = router.handle(Request("GET", "/v2/monitoring/summary"))
        assert summary.status == 200
        assert summary.body["data"]["replication"]["role"] == "replica"
        assert summary.body["data"]["replication"]["lag_records"] == 0
        stats = router.handle(Request("GET", "/v2/runtime/stats"))
        assert stats.body["data"]["read_only"] is True
        assert stats.body["data"]["replication_role"] == "replica"

    def test_replica_rejects_v2_mutations_with_409_and_hint(self, root):
        primary, replica, ids = self.build_pair(root)
        router = replica.router()
        response = router.handle(Request(
            "POST", "/v2/instances/{}:advance".format(ids[0]),
            body={"to_phase_id": "review"}, actor="alice"))
        assert response.status == 409
        assert response.body["error"]["code"] == "REPLICA_READ_ONLY"
        assert response.body["error"]["details"]["primary"] == "gelee-primary:8080"
        # Mutations that never touch the kernel are rejected too.
        timer = router.handle(Request("POST", "/v2/timers",
                                      body={"timer_id": "t1", "delay_seconds": 5}))
        assert timer.status == 409
        assert timer.body["error"]["code"] == "REPLICA_READ_ONLY"

    def test_replica_rejects_v1_mutations(self, root):
        primary, replica, ids = self.build_pair(root)
        router = replica.router()
        response = router.handle(Request(
            "POST", "/instances/{}/advance".format(ids[0]),
            body={"to_phase_id": "review"}, actor="alice"))
        assert response.status == 409
        assert "read replica" in response.body["error"]

    def test_manager_level_read_only_enforcement(self, root):
        primary, replica, ids = self.build_pair(root)
        with pytest.raises(ReadOnlyReplicaError):
            replica.service.manager.advance(ids[0], actor="alice",
                                            to_phase_id="review")
        with pytest.raises(ReadOnlyReplicaError):
            replica.service.manager.publish_model(
                replication_model("Another"), actor="alice")

    def test_client_read_write_split(self, root):
        primary, replica, ids = self.build_pair(root)
        client = GeleeClient.in_process(router=RestRouter(service=primary),
                                        read_router=replica.router(),
                                        actor="alice")
        # GETs answer from the replica...
        assert client.runtime_stats()["read_only"] is True
        page = client.list_instances(page_size=3)
        assert len(page.items) == 3
        # ...writes route to the primary and succeed.
        moved = client.advance(ids[0], to_phase_id="review")
        assert moved["current_phase_id"] == "review"
        # A write forced onto the read endpoint gets the typed 409.
        with pytest.raises(GeleeApiError) as excinfo:
            client.call("POST", "/v2/instances/{}:advance".format(ids[1]),
                        body={"to_phase_id": "review"}, endpoint="read")
        assert excinfo.value.code == "REPLICA_READ_ONLY"
        assert excinfo.value.details["primary"] == "gelee-primary:8080"


# ================================================================ promotion
class TestPromotion:
    def test_scheduler_dormant_until_promoted(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 3)
        replica = ReadReplica(JournalShippingSource(config), shard_count=4,
                              clock=clock)
        replica.sync()
        assert replica.service.scheduler.timers.pending_count == 3
        clock.advance(days=3)  # every Draft deadline is now overdue
        assert replica.service.scheduler_tick()["fired"] == 0, \
            "a dormant standby must not escalate the primary's deadlines"
        replica.promote()
        fired = replica.service.scheduler_tick()
        assert fired["fired"] == 3
        annotated = replica.service.manager.instance(ids[0])
        assert any(a.kind == "escalation" for a in annotated.annotations)

    def test_promote_flips_writable_and_is_once(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 2)
        replica = ReadReplica(JournalShippingSource(config), shard_count=4)
        replica.sync()
        report = replica.promote()
        assert report["promoted"] is True
        assert report["journal_seq"] == replica.applied_seq
        assert replica.service.read_only is False
        assert replica.role == "primary"
        replica.service.manager.advance(ids[0], actor="alice",
                                        to_phase_id="review")
        with pytest.raises(ReplicationError):
            replica.promote()
        with pytest.raises(ReplicationError):
            replica.sync()

    def test_promote_via_api_on_replica_only(self, root):
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        seed_instances(primary, model, 2)
        replica = ReadReplica(JournalShippingSource(config), shard_count=4)
        replica.sync()
        # Promote is the one POST the read-only guard lets through.
        response = replica.router().handle(
            Request("POST", "/v2/runtime/replication:promote"))
        assert response.status == 200
        assert response.body["data"]["promoted"] is True
        # On a primary there is nothing to promote: typed 409.
        denied = RestRouter(service=primary).handle(
            Request("POST", "/v2/runtime/replication:promote"))
        assert denied.status == 409
        assert denied.body["error"]["code"] == "REPLICATION_INVALID"

    def test_cold_promote_drains_journal_without_prior_sync(self, root):
        """Promoting a fresh, never-synced replica (built over a dead
        primary's directory) must bootstrap AND drain the journal tail —
        snapshot-only restore would silently drop durable records."""
        config, primary = build_primary(root)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 5)
        journal_head = primary.persistence.journal.last_seq
        del primary  # dies before any checkpoint: no snapshot, journal only

        replica = ReadReplica(JournalShippingSource(config), shard_count=4)
        report = replica.promote()
        assert report["journal_seq"] == journal_head
        assert report["records_drained"] > 0
        assert replica.service.manager.instance_count() == 5
        assert replica.service.manager.instance(ids[0]).current_phase_id == \
            "draft"

    def test_kill_and_failover_under_load(self, root):
        """The acceptance scenario: kill the primary mid-traffic, promote
        the standby, lose nothing that reached the journal."""
        clock = SimulatedClock()
        config, primary = build_primary(root, shard_count=4, clock=clock)
        model = replication_model()
        primary.manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 30)
        primary.persistence.checkpoint()

        replica = ReadReplica(JournalShippingSource(config), shard_count=4,
                              clock=clock, primary_hint="dead-primary")
        replica.sync()

        # Load keeps flowing after the standby's last poll: these writes
        # are durable in the journal but never streamed before the crash.
        for instance_id in ids[:10]:
            primary.manager.advance(instance_id, actor="alice",
                                    to_phase_id="review")
        for instance_id in ids[:5]:
            primary.manager.advance(instance_id, actor="alice",
                                    to_phase_id="done")
        expected_phases = {
            instance_id: primary.manager.instance(instance_id).current_phase_id
            for instance_id in ids
        }
        expected_timers = sorted(
            timer.timer_id
            for timer in primary.scheduler.timers.pending(kind="deadline"))
        journal_head = primary.persistence.journal.last_seq

        # Kill the primary: the process is gone, no clean close, no final
        # checkpoint — only the journal files survive.
        del primary

        report = replica.promote()
        assert report["promoted"] is True
        # Zero loss of journaled entries: the final drain sealed replay at
        # the dead primary's journal head.
        assert report["journal_seq"] == journal_head
        assert report["records_drained"] > 0
        promoted = replica.service
        assert promoted.manager.instance_count() == 30
        for instance_id, phase_id in expected_phases.items():
            assert promoted.manager.instance(instance_id).current_phase_id == \
                phase_id
        # Deadlines re-armed exactly as the primary had them.
        assert sorted(
            timer.timer_id
            for timer in promoted.scheduler.timers.pending(kind="deadline")
        ) == expected_timers
        assert report["retry_states_rebuilt"] == 0
        # The promoted node accepts writes again.
        survivor = ids[20]
        promoted.manager.advance(survivor, actor="alice", to_phase_id="review")
        assert promoted.manager.instance(survivor).current_phase_id == "review"
        # And its deadlines actually fire now.
        clock.advance(days=3)
        assert promoted.scheduler_tick()["fired"] > 0


# ============================================================ misc plumbing
class TestReplicaPortfolioSummary:
    #: ``with_failed_actions`` is left out: ``action.*`` records are
    #: log-only, so a replica never replays invocation outcomes.
    FIELDS = ("total", "active", "completed", "not_started", "late",
              "with_deviations", "escalated", "by_phase", "by_owner")

    def summary(self, service):
        data = service.cockpit.portfolio_summary().to_dict()
        return {field: data[field] for field in self.FIELDS}

    def test_replica_summary_equals_primary_at_equal_seq_and_after_promote(self, root):
        clock = SimulatedClock()
        config, primary = build_primary(root, clock=clock)
        manager = primary.manager
        model = replication_model()
        manager.publish_model(model, actor="alice")
        ids = seed_instances(primary, model, 12)
        manager.advance(ids[0], actor="alice", to_phase_id="review")
        manager.move_to(ids[1], actor="alice", phase_id="done")  # off-model
        manager.annotate(ids[2], "scheduler", "deadline passed", kind="escalation")
        # Half the history reaches the replica through the snapshot, half
        # through the journal tail.
        primary.persistence.checkpoint()
        revised = model.new_version(created_by="alice")
        revised.rename_phase("review", "Peer review")
        proposal = manager.propose_change(revised, actor="alice",
                                          instance_ids=[ids[3]])[0]
        manager.accept_change(proposal.proposal_id, actor="alice",
                              target_phase_id="review")
        manager.move_to(ids[4], actor="alice", phase_id="done")
        manager.annotate(ids[5], "scheduler", "deadline passed", kind="escalation")
        instance = manager.instantiate(
            model.uri, primary.environment.adapter("Google Doc").create_resource(
                "late start", owner="bob"), owner="bob")
        clock.advance(days=1)
        manager.start(instance.instance_id, actor="bob")
        clock.advance(days=1, hours=12)  # the first Draft deadlines passed

        replica = ReadReplica(JournalShippingSource(config), shard_count=4,
                              clock=clock)
        replica.sync()
        assert replica.applied_seq == primary.persistence.journal.last_seq
        expected = self.summary(primary)
        assert expected["late"] == 8  # on Draft since seeding; not the late start
        assert expected["with_deviations"] == 2
        assert expected["escalated"] == 2
        assert expected["by_phase"]["Peer review"] == 1
        assert self.summary(replica.service) == expected

        replica.promote()
        assert self.summary(replica.service) == expected


class TestWiring:
    def test_primary_requires_persistence(self):
        service = GeleeService(shard_count=2)
        with pytest.raises(ReplicationError):
            ReplicationPrimary(service)

    def test_replica_rejects_own_persistence(self, root):
        with pytest.raises(Exception):
            GeleeService(read_only=True,
                         persistence=PersistenceConfig(os.path.join(root, "p")))

    def test_connect_builds_read_transport_from_either_half(self):
        client = GeleeClient.connect("primary", 8080, read_host="replica")
        assert client.read_transport is not None
        client = GeleeClient.connect("primary", 8080, read_port=8081)
        assert client.read_transport is not None
        assert GeleeClient.connect("primary", 8080).read_transport is None

    def test_unreplicated_service_reports_disabled(self):
        service = GeleeService(shard_count=2)
        assert service.replication_status() == {"enabled": False,
                                                "role": "primary"}
        with pytest.raises(ReplicationError):
            service.replication_promote()
