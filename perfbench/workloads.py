"""The three workloads, each driven through the public API only.

Every workload is a closed loop: a client sends its next request only after
the previous one answered.  A workload object builds its deployment
(:meth:`setup`), drives it for a number of seconds (:meth:`run`), then runs
its end-of-run sequence and output checks (:meth:`finish`) and tears it
down (:meth:`teardown`).  :meth:`instrument` hands the traced run the
objects it may wrap.  See ``DESIGN.md`` for why each workload exists.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from typing import Any, Dict, List

from repro.client import GeleeClient
from repro.clock import SimulatedClock
from repro.events import EventBus
from repro.persistence import PersistenceConfig
from repro.plugins import build_standard_environment
from repro.replication import ReadReplica, ReplicationPrimary, StreamFollower
from repro.runtime import ShardedLifecycleManager
from repro.service import GeleeService
from repro.service.http import GeleeHttpServer
from repro.service.rest import RestRouter
from repro.service.v2.dto import AdvanceItem, CreateInstanceItem
from repro.templates import eu_deliverable_lifecycle

from .harness import (Ledger, directory_bytes, make_workdir, metric_delta,
                      parse_exposition, remove_workdir)

#: The Fig. 1 phase chain; ``start`` enters the first, five advances reach
#: the terminal phase.
PHASES = ("elaboration", "internalreview", "finalassembly", "eureview",
          "publication", "closed")
#: Action invocations one full Fig. 1 lifecycle dispatches.
ACTIONS_PER_LIFECYCLE = 8
#: The internal review panel bound into every instance.
PANEL = ["bob", "carol"]
SHARDS = 4

#: ShardedLifecycleManager methods the service facade calls on these paths.
RUNTIME_METHODS = ("instantiate", "start", "advance", "instance", "instances",
                   "instance_count", "batch_instantiate", "map_instances",
                   "drain_in_flight", "phase_distribution", "owner_distribution",
                   "status_distribution")


def deliverable_model(deadlines: bool = False):
    """The paper's Fig. 1 template with the internal review panel bound."""
    return eu_deliverable_lifecycle(
        internal_reviewers=PANEL,
        deadline_days={phase: 3.0 for phase in PHASES[:-1]} if deadlines else None)


def instrument_service(tracer, service, methods) -> None:
    """Wrap the facade methods the routes call, plus the runtime below."""
    for method in methods:
        layer = "monitoring" if method.startswith("monitoring_") else "service.api"
        tracer.wrap(service, method, layer)
    for method in RUNTIME_METHODS:
        tracer.wrap(service.manager, method, "runtime")


def instrument_client(tracer, client: GeleeClient, layer: str) -> None:
    for transport in {client.transport, client.read_transport} - {None}:
        tracer.wrap(transport, "request", layer,
                    actor_of=lambda args, kwargs: kwargs.get("actor"))


def instrument_router(tracer, router: RestRouter) -> None:
    tracer.wrap(router, "handle", "service.v2", link_by_actor=True)


def list_all(client: GeleeClient, ledger: Ledger, phase: str) -> Dict[str, Dict[str, Any]]:
    """Every instance summary, paged through the v2 list route."""
    summaries: Dict[str, Dict[str, Any]] = {}
    token = None
    while True:
        page = ledger.call(phase, None, client.list_instances, page_size=500,
                           page_token=token)
        if page is None:
            return summaries
        for summary in page.items:
            summaries[summary["instance_id"]] = summary
        token = page.next_page_token
        if token is None:
            return summaries


def wait_until(predicate, timeout: float = 60.0) -> bool:
    deadline = time.perf_counter() + timeout
    while not predicate():
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.002)
    return True


def segment_fill_tag(journal):
    """A span tag for ``ReplicationPrimary.read_batch(after_seq, ...)``:
    ``seg_low`` when the journal segment holding the cursor is less than
    half full, else ``seg_high``.  The read parses every line from that
    segment's start to the head, so its cost follows this fill."""
    half = journal.status()["segment_max_records"] / 2

    def tag(args, kwargs):
        after_seq = args[0] if args else kwargs["after_seq"]
        firsts = [int(name.split("-", 1)[1].split(".", 1)[0])
                  for name in journal.segment_files()]
        first = max((seq for seq in firsts if seq <= after_seq + 1), default=0)
        return "seg_low" if journal.last_seq - first < half else "seg_high"

    return tag


class Workload:
    name = ""
    #: Service facade methods the traced run wraps.
    service_methods: tuple = ()
    #: Whether the traced run repeats the workload at half size (the
    #: scaling probe of the cockpit figures).
    probe = False
    #: Set-ups per timed run; ``setup_s`` is their median.  A set-up of a
    #: few milliseconds varies by a third from one to the next, so it takes
    #: many to pin the median down.
    setup_repeats = 101

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, stream: int) -> random.Random:
        return random.Random(self.seed * 7919 + stream)

    def mark(self, state) -> None:
        """Called just before the timed loop starts."""

    def measured_done(self, state) -> None:
        """Called just after the timed loop ends."""


# --------------------------------------------------------------- interactive
class Interactive(Workload):
    """One owner on the in-process SDK: create → start → 5× advance, then a
    detail read and a 20-row history page of a random earlier instance."""

    name = "interactive"
    service_methods = ("create_instance", "start_instance", "advance_instance",
                       "instance_detail", "history_page")
    OWNER = "alice"

    def setup(self, scale: float = 1.0) -> Dict[str, Any]:
        environment = build_standard_environment()
        manager = ShardedLifecycleManager(environment, shard_count=SHARDS,
                                          bus=EventBus())
        service = GeleeService(manager=manager)
        router = RestRouter(service=service)
        client = GeleeClient.in_process(router=router, actor=self.OWNER)
        model_uri = client.publish_model(deliverable_model().to_dict())["uri"]
        state = {"service": service, "router": router, "client": client,
                 "model_uri": model_uri, "ids": [], "threads": [],
                 "adapter": environment.adapter("Google Doc"),
                 "rng": self.rng(1)}
        # Warm every code path once so the timed loop starts hot.
        self._lifecycle(state, Ledger(), "setup")
        return state

    def _lifecycle(self, state, ledger: Ledger, phase: str) -> None:
        client, rng = state["client"], state["rng"]
        ids = state["ids"]
        resource = state["adapter"].create_resource(
            "D{}.{}".format(len(ids), rng.randrange(1, 10)), owner=self.OWNER,
            content="section " * rng.randrange(20, 200))
        created = ledger.call(phase, "create", client.create_instance,
                              state["model_uri"], resource.to_dict(), owner=self.OWNER)
        if created is None:
            return
        instance_id = created["instance_id"]
        ids.append(instance_id)
        ledger.call(phase, "start", client.start, instance_id)
        for target in PHASES[1:]:
            ledger.call(phase, "advance", client.advance, instance_id,
                        to_phase_id=target)
        earlier = rng.choice(ids[:-1]) if len(ids) > 1 else instance_id
        ledger.call(phase, "read", client.instance, earlier)
        ledger.call(phase, "read", client.history, earlier, page_size=20)

    def run(self, state, seconds: float, ledger: Ledger) -> None:
        state["threads"] = [threading.get_ident()]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            self._lifecycle(state, ledger, "measure")

    def finish(self, state, ledger: Ledger, before: Dict[str, float],
               out: Dict[str, float]) -> List[str]:
        client = state["client"]
        after = parse_exposition(client.metrics())
        problems = []
        summaries = list_all(client, ledger, "check")
        ids = state["ids"]
        if len(summaries) != len(ids):
            problems.append("{} instances listed, {} created".format(
                len(summaries), len(ids)))
        for instance_id in ids:
            summary = summaries.get(instance_id)
            if summary is None or summary["current_phase_id"] != "closed" \
                    or summary["status"] != "completed" \
                    or summary["visits"] != len(PHASES) \
                    or summary["failed_actions"]:
                problems.append("instance {} did not close cleanly: {}".format(
                    instance_id, summary))
                break
        completed = metric_delta(before, after, "gelee_dispatch_completed_total",
                                 'outcome="completed"')
        expected = ACTIONS_PER_LIFECYCLE * state["measured"]
        if completed != expected:
            problems.append("{:.0f} actions completed in the timed phase, "
                            "expected {}".format(completed, expected))
        return problems

    def mark(self, state) -> None:
        """Remember where the timed phase starts (for the action count)."""
        state["first_measured"] = len(state["ids"])

    def measured_done(self, state) -> None:
        state["measured"] = len(state["ids"]) - state["first_measured"]

    def instrument(self, state, tracer) -> None:
        instrument_client(tracer, state["client"], "client")
        instrument_router(tracer, state["router"])
        instrument_service(tracer, state["service"], self.service_methods)

    def teardown(self, state) -> None:
        state["service"].close()


# -------------------------------------------------------------- cockpit-http
class CockpitHttp(Workload):
    """A 5k-instance portfolio of 50 owners behind ``GeleeHttpServer``: a
    project manager reads while an owner advances, on two client threads."""

    name = "cockpit-http"
    probe = True
    setup_repeats = 3
    service_methods = ("instance_detail", "instances_page", "history_page",
                       "advance_instance", "monitoring_table_page",
                       "monitoring_summary")
    INSTANCES = 5000
    OWNERS = ["owner{:02d}".format(index) for index in range(50)]
    #: Reader mix: (op, weight).  Detail/list/history count as reads, the
    #: table page and the summary as cockpit calls.  The reader works
    #: through blocks of 10 ops in this exact mix, shuffled per block, so
    #: the share of (costly) summaries does not vary with the seed.
    READER_MIX = (("detail", 3), ("list", 2), ("history", 2), ("table", 2),
                  ("summary", 1))

    def setup(self, scale: float = 1.0) -> Dict[str, Any]:
        rng = self.rng(1)
        environment = build_standard_environment()
        manager = ShardedLifecycleManager(environment, shard_count=SHARDS,
                                          bus=EventBus())
        service = GeleeService(manager=manager)
        router = RestRouter(service=service)
        client = GeleeClient.in_process(router=router, actor="pm")
        model_uri = client.publish_model(deliverable_model().to_dict())["uri"]
        adapter = environment.adapter("Google Doc")
        count = int(self.INSTANCES * scale)
        items = []
        for index in range(count):
            owner = self.OWNERS[index % len(self.OWNERS)]
            resource = adapter.create_resource(
                "D{}.{}".format(index, rng.randrange(1, 10)), owner=owner)
            items.append(CreateInstanceItem(model_uri=model_uri,
                                            resource=resource.to_dict(), owner=owner))
        ledger = Ledger()
        ids: List[str] = []
        for offset in range(0, count, 500):
            chunk = items[offset:offset + 500]
            result = ledger.call("setup", None, client.batch_create, chunk,
                                 items=len(chunk))
            if result is None:
                raise RuntimeError("portfolio set-up failed: {}".format(ledger.errors))
            ids.extend(item.instance_id for item in result.results)
        # Spread the portfolio over the phases: tally = index of the phase
        # each instance is in.
        tally = {instance_id: rng.randrange(len(PHASES)) for instance_id in ids}
        owner_of = {instance_id: items[index].owner
                    for index, instance_id in enumerate(ids)}
        for step, target in enumerate(PHASES):
            moves = [AdvanceItem(instance_id=instance_id, to_phase_id=target)
                     for instance_id in ids if tally[instance_id] >= step]
            for offset in range(0, len(moves), 500):
                chunk = moves[offset:offset + 500]
                ledger.call("setup", None, client.batch_advance, chunk, actor="pm",
                            items=len(chunk))
        if ledger.failed("setup"):
            raise RuntimeError("portfolio set-up failed: {}".format(ledger.errors))
        server = GeleeHttpServer(router).start()
        reader = GeleeClient.connect(server.host, server.port, actor="pm")
        writers = {owner: GeleeClient.connect(server.host, server.port, actor=owner)
                   for owner in self.OWNERS}
        return {"service": service, "router": router, "server": server,
                "client": client, "reader": reader, "writers": writers,
                "ids": ids, "tally": tally, "owner_of": owner_of,
                "open": [i for i in ids if tally[i] < len(PHASES) - 1],
                "threads": [], "reader_rng": self.rng(2), "writer_rng": self.rng(3)}

    def _writer(self, state, deadline: float, ledger: Ledger) -> None:
        rng, tally, open_ids = state["writer_rng"], state["tally"], state["open"]
        while time.perf_counter() < deadline and open_ids:
            position = rng.randrange(len(open_ids))
            instance_id = open_ids[position]
            target = tally[instance_id] + 1
            writer = state["writers"][state["owner_of"][instance_id]]
            if ledger.call("measure", "advance", writer.advance, instance_id,
                           to_phase_id=PHASES[target]) is not None:
                tally[instance_id] = target
                if target == len(PHASES) - 1:
                    open_ids[position] = open_ids[-1]
                    open_ids.pop()

    def _reader(self, state, deadline: float, ledger: Ledger) -> None:
        rng, reader, ids = state["reader_rng"], state["reader"], state["ids"]
        block = [kind for kind, weight in self.READER_MIX for _ in range(weight)]
        kinds: List[str] = []
        while time.perf_counter() < deadline:
            if not kinds:
                kinds = rng.sample(block, len(block))
            kind = kinds.pop()
            if kind == "detail":
                ledger.call("measure", "read", reader.instance, rng.choice(ids))
            elif kind == "list":
                ledger.call("measure", "read", reader.list_instances,
                            owner=rng.choice(self.OWNERS), page_size=50)
            elif kind == "history":
                ledger.call("measure", "read", reader.history, rng.choice(ids),
                            page_size=20)
            elif kind == "table":
                ledger.call("measure", "cockpit", reader.monitoring_table,
                            owner=rng.choice(self.OWNERS), page_size=50)
            else:
                ledger.call("measure", "cockpit", reader.monitoring_summary)

    def run(self, state, seconds: float, ledger: Ledger) -> None:
        deadline = time.perf_counter() + seconds
        writer_ledger = Ledger()
        failure: List[BaseException] = []

        def write():
            try:
                self._writer(state, deadline, writer_ledger)
            except BaseException as exc:  # re-raised on the main thread
                failure.append(exc)

        thread = threading.Thread(target=write, name="perfbench-writer")
        thread.start()
        state["threads"] = [threading.get_ident(), thread.ident]
        try:
            self._reader(state, deadline, ledger)
        finally:
            thread.join()
        ledger.merge(writer_ledger)
        if failure:
            raise failure[0]

    def finish(self, state, ledger: Ledger, before, out) -> List[str]:
        summaries = list_all(state["client"], ledger, "check")
        problems = []
        if len(summaries) != len(state["ids"]):
            problems.append("{} instances listed, {} created".format(
                len(summaries), len(state["ids"])))
        mismatched = [instance_id for instance_id, index in state["tally"].items()
                      if summaries.get(instance_id, {}).get("current_phase_id")
                      != PHASES[index]]
        if mismatched:
            problems.append("{} instances are not in the phase the writer "
                            "moved them to (e.g. {})".format(len(mismatched),
                                                              mismatched[0]))
        return problems

    def instrument(self, state, tracer) -> None:
        instrument_client(tracer, state["reader"], "service.http")
        for writer in state["writers"].values():
            instrument_client(tracer, writer, "service.http")
        instrument_router(tracer, state["router"])
        instrument_service(tracer, state["service"], self.service_methods)

    def teardown(self, state) -> None:
        state["server"].stop()
        state["service"].close()


# ----------------------------------------------------------- replicated-bulk
class ReplicatedBulk(Workload):
    """A durable, replicated primary taking v2 bulk calls in fixed chunks,
    then the end-of-run sequence: deadline tick, checkpoint, close, promote,
    cold restart."""

    name = "replicated-bulk"
    setup_repeats = 51
    service_methods = ("batch_create_instances", "batch_advance_instances",
                       "instance_detail", "history_page", "instances_page",
                       "scheduler_tick", "persistence_checkpoint")
    CHUNK = 25
    COMPLETION_WORKERS = 8
    ACTION_LATENCY = (0.001, 0.002)
    #: The replica reader's pause between two reads: a light side load
    #: that samples read latency on the replica while the primary loads.
    READ_THINK_SECONDS = 0.002
    #: How long an idle follower parks on the journal before it polls
    #: again.  Appends wake it at once, so under load this never elapses;
    #: it bounds how long stopping an idle follower takes in teardown.
    FOLLOWER_WAIT_SECONDS = 0.05
    OWNERS = ["owner{:02d}".format(index) for index in range(10)]

    def setup(self, scale: float = 1.0) -> Dict[str, Any]:
        workdir = make_workdir("bulk")
        clock = SimulatedClock()
        environment = build_standard_environment(clock=clock)
        manager = ShardedLifecycleManager(
            environment, shard_count=SHARDS, clock=clock, bus=EventBus(),
            simulated_action_latency=self.ACTION_LATENCY,
            completion_workers=self.COMPLETION_WORKERS)
        config = PersistenceConfig(workdir, backend="sqlite", fsync="interval")
        service = GeleeService(manager=manager, persistence=config, clock=clock)
        primary = ReplicationPrimary(service)
        router = RestRouter(service=service)
        client = GeleeClient.in_process(router=router, actor="loader")
        model_uri = client.publish_model(deliverable_model(deadlines=True).to_dict())["uri"]
        replica = ReadReplica(primary, shard_count=SHARDS, clock=clock)
        replica.sync()
        follower = StreamFollower(
            replica, wait_timeout=self.FOLLOWER_WAIT_SECONDS).start()
        replica_router = replica.router()
        return {"workdir": workdir, "config": config, "clock": clock,
                "service": service, "primary": primary, "router": router,
                "client": client, "model_uri": model_uri, "replica": replica,
                "replica_router": replica_router,
                "replica_client": GeleeClient.in_process(router=replica_router,
                                                         actor="reader"),
                "follower": follower, "adapter": environment.adapter("Google Doc"),
                "tally": {}, "cohorts": [], "created": 0, "threads": [],
                "pending": deque(), "visible": [], "rng": self.rng(1),
                "reader_rng": self.rng(2), "closed": False}

    def _create_chunk(self, state, ledger: Ledger) -> None:
        rng, adapter = state["rng"], state["adapter"]
        items = []
        for _ in range(self.CHUNK):
            owner = rng.choice(self.OWNERS)
            resource = adapter.create_resource(
                "D{}.{}".format(state["created"], rng.randrange(1, 10)), owner=owner)
            state["created"] += 1
            items.append(CreateInstanceItem(model_uri=state["model_uri"],
                                            resource=resource.to_dict(), owner=owner))
        result = ledger.call("measure", "batch_create", state["client"].batch_create,
                             items, items=len(items))
        if result is not None:
            ids = [item.instance_id for item in result.results if item.ok]
            for instance_id in ids:
                state["tally"][instance_id] = -1
            state["cohorts"].append([ids, 0])
            state["pending"].append((state["primary"].head_seq(), ids))

    def _advance_chunk(self, state, cohort, ledger: Ledger) -> None:
        ids, step = cohort
        result = ledger.call(
            "measure", "advance", state["client"].batch_advance,
            [AdvanceItem(instance_id=instance_id, to_phase_id=PHASES[step])
             for instance_id in ids], items=len(ids))
        if result is not None:
            for item in result.results:
                if item.ok:
                    state["tally"][item.instance_id] = step
        cohort[1] += 1

    def run(self, state, seconds: float, ledger: Ledger) -> None:
        """Each step opens a new cohort with one batchCreate chunk, then
        moves every open cohort one phase on with one batchAdvance chunk; a
        cohort leaves the pipeline at ``closed``.  Six cohorts are in
        flight at any time, so the run always ends with instances spread
        over the phases (and deadline timers armed)."""
        deadline = time.perf_counter() + seconds
        reader_ledger = Ledger()
        failure: List[BaseException] = []

        def read():
            try:
                self._reader(state, deadline, reader_ledger)
            except BaseException as exc:  # re-raised on the main thread
                failure.append(exc)

        thread = threading.Thread(target=read, name="perfbench-replica-reader")
        thread.start()
        # The reader pauses between reads, so only the loader counts as a
        # client thread for the traced run's coverage check.
        state["threads"] = [threading.get_ident()]
        try:
            while time.perf_counter() < deadline:
                self._create_chunk(state, ledger)
                for cohort in list(state["cohorts"]):
                    if time.perf_counter() >= deadline:
                        break
                    self._advance_chunk(state, cohort, ledger)
                    if cohort[1] == len(PHASES):
                        state["cohorts"].remove(cohort)
        finally:
            thread.join()
        ledger.merge(reader_ledger)
        if failure:
            raise failure[0]

    def _reader(self, state, deadline: float, ledger: Ledger) -> None:
        """Read instances the replica has applied: a detail read and a
        20-row history page each, pausing between reads."""
        rng, reader, replica = state["reader_rng"], state["replica_client"], state["replica"]
        pending, visible = state["pending"], state["visible"]
        while time.perf_counter() < deadline:
            while pending and pending[0][0] <= replica.applied_seq:
                visible.extend(pending.popleft()[1])
            if visible:
                instance_id = rng.choice(visible)
                ledger.call("replica-read", "read", reader.instance, instance_id)
                ledger.call("replica-read", "read", reader.history, instance_id,
                            page_size=20)
            time.sleep(self.READ_THINK_SECONDS)

    def finish(self, state, ledger: Ledger, before, out) -> List[str]:
        client, primary, replica = state["client"], state["primary"], state["replica"]
        problems: List[str] = []
        ended = time.perf_counter()
        caught_up = wait_until(lambda: replica.applied_seq >= primary.head_seq())
        out["replication.lag_ms_at_end"] = (time.perf_counter() - ended) * 1e3
        # Jump past every deadline and let the scheduler escalate.
        state["clock"].advance(days=30)
        started = time.perf_counter()
        tick = ledger.call("finish", None, client.scheduler_tick)
        out["scheduler.tick_ms"] = (time.perf_counter() - started) * 1e3
        status = ledger.call("finish", None, client.scheduler_status) or {}
        out["scheduler.escalations"] = float(status.get("escalations", 0))
        open_instances = sum(1 for step in state["tally"].values()
                             if 0 <= step < len(PHASES) - 1)
        if tick is None or tick["fired"] < open_instances:
            problems.append("scheduler tick fired {} deadline timers for {} "
                            "open instances".format(tick and tick["fired"],
                                                    open_instances))
        caught_up = caught_up and wait_until(
            lambda: replica.applied_seq >= primary.head_seq())
        if not caught_up or replica.applied_seq != primary.head_seq():
            problems.append("replica applied seq {} != journal head {}".format(
                replica.applied_seq, primary.head_seq()))
        # Primary and replica must agree instance by instance.
        on_primary = list_all(client, ledger, "check")
        problems.extend(self._check_tally(state, on_primary))
        reader = state["replica_client"]
        for instance_id, summary in on_primary.items():
            detail = ledger.call("check", None, reader.instance, instance_id)
            if detail is None or detail["current_phase_id"] != summary["current_phase_id"] \
                    or detail["status"] != summary["status"] \
                    or len(detail["visits"]) != summary["visits"]:
                problems.append("replica disagrees with the primary on {}".format(
                    instance_id))
                break
        started = time.perf_counter()
        checkpoint = ledger.call("finish", None, client.persistence_checkpoint)
        out["persistence.checkpoint_s"] = time.perf_counter() - started
        out["persistence.checkpoint.instances_flushed"] = float(
            (checkpoint or {}).get("instances_flushed", 0))
        if not wait_until(lambda: replica.applied_seq >= primary.head_seq()):
            problems.append("replica did not catch up after the checkpoint")
        state["follower"].stop()
        state["service"].close()
        state["closed"] = True
        head = primary.head_seq()
        started = time.perf_counter()
        promotion = ledger.call("finish", None, replica.promote) or {}
        out["replication.promote_ms"] = (time.perf_counter() - started) * 1e3
        if promotion.get("journal_seq") != head:
            problems.append("promotion reached seq {}, the journal head is {}".format(
                promotion.get("journal_seq"), head))
        if promotion.get("instances") != len(on_primary):
            problems.append("promoted replica holds {} instances, primary {}".format(
                promotion.get("instances"), len(on_primary)))
        problems.extend(self._cold_restart(state, ledger, on_primary, out))
        return problems

    def _check_tally(self, state, summaries) -> List[str]:
        if len(summaries) != len(state["tally"]):
            return ["{} instances listed, {} created".format(
                len(summaries), len(state["tally"]))]
        for instance_id, step in state["tally"].items():
            phase = summaries[instance_id]["current_phase_id"]
            if phase != (PHASES[step] if step >= 0 else None):
                return ["instance {} is in {!r}, the loader moved it to "
                        "{!r}".format(instance_id, phase, PHASES[step])]
        return []

    def _cold_restart(self, state, ledger, on_primary, out) -> List[str]:
        """Rebuild a service from the primary's directory and compare."""
        clock = state["clock"]
        any_id = next(iter(on_primary), None)
        started = time.perf_counter()
        environment = build_standard_environment(clock=clock)
        manager = ShardedLifecycleManager(environment, shard_count=SHARDS,
                                          clock=clock, bus=EventBus())
        restarted = GeleeService(manager=manager, persistence=state["config"],
                                 clock=clock)
        client = GeleeClient.in_process(router=RestRouter(service=restarted),
                                        actor="loader")
        try:
            if any_id is not None:
                ledger.call("finish", None, client.instance, any_id)
            out["recovery_s"] = time.perf_counter() - started
            report = (ledger.call("finish", None, client.persistence_status) or {})
            out["persistence.recovery.records_replayed"] = float(
                report.get("recovery", {}).get("records_replayed", 0))
            recovered = list_all(client, ledger, "check")
            if {key: (value["current_phase_id"], value["status"])
                    for key, value in recovered.items()} != {
                    key: (value["current_phase_id"], value["status"])
                    for key, value in on_primary.items()}:
                return ["the cold restart did not restore every instance in "
                        "its phase"]
            return []
        finally:
            restarted.close()

    def mark(self, state) -> None:
        state["journal_bytes"] = directory_bytes(state["config"].journal_directory)
        state["journal_seq"] = state["primary"].head_seq()

    def measured_done(self, state) -> None:
        state["journal_bytes"] = directory_bytes(
            state["config"].journal_directory) - state["journal_bytes"]
        state["journal_seq"] = state["primary"].head_seq() - state["journal_seq"]

    def instrument(self, state, tracer) -> None:
        instrument_client(tracer, state["client"], "client")
        instrument_client(tracer, state["replica_client"], "client")
        instrument_router(tracer, state["router"])
        instrument_router(tracer, state["replica_router"])
        instrument_service(tracer, state["service"], self.service_methods)
        instrument_service(tracer, state["replica"].service, ("instance_detail",
                                                              "history_page"))
        tracer.wrap_executor(state["service"].manager.completion_executor)
        tracer.wrap(state["service"].persistence.journal, "append", "persistence")
        primary, replica = state["primary"], state["replica"]
        tracer.wrap(primary, "read_batch", "replication",
                    value=lambda batch: batch.count,
                    tag=segment_fill_tag(state["service"].persistence.journal))
        tracer.wrap(primary, "wait_for", "replication")
        tracer.wrap(replica, "sync", "replication",
                    value=lambda result: result["applied"])
        tracer.wrap(replica, "promote", "replication")

    def teardown(self, state) -> None:
        state["follower"].stop()
        if not state["closed"]:
            state["service"].close()
        state["replica"].service.close()
        remove_workdir(state["workdir"])


WORKLOADS = {cls.name: cls for cls in (Interactive, CockpitHttp, ReplicatedBulk)}
