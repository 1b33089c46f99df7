"""Route table of the v2 gateway.

``install(router)`` mounts the versioned surface on a
:class:`~repro.service.rest.RestRouter`.  Every v2 response is the uniform
``{data, meta, error}`` envelope; every collection is paginated with keyset
cursors served from the runtime's secondary indexes; bulk calls fan out
across shards; long-running calls return ``202`` operation handles.

Verb-style sub-resources follow the ``resource:verb`` convention
(``/v2/instances/{id}:advance``, ``/v2/instances:batchCreate``) so the path
grammar stays flat and cache-friendly.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ...errors import ServiceError
from ..transport import Request, Response
from .dto import AdvanceItem, CreateInstanceItem, parse_batch_items
from .envelope import API_VERSION, Envelope
from .pagination import PageRequest

#: Response headers every v2 route carries.
V2_HEADERS = {"X-Gelee-Api-Version": API_VERSION}


def envelope_response(request: Request, data: Any, status: int = 200,
                      pagination: Dict[str, Any] = None) -> Response:
    """Wrap handler data in the v2 envelope."""
    envelope = Envelope.success(data, request_id=request.context.get("request_id", ""),
                                pagination=pagination)
    return Response(status, envelope.to_dict())


def install(router) -> None:
    """Register the v2 routes on the (shared, version-agnostic) router."""
    service = router.service

    def ok(request: Request, data: Any, status: int = 200) -> Response:
        return envelope_response(request, data, status=status)

    def page_of(request: Request, pair, status: int = 200) -> Response:
        items, info = pair
        return envelope_response(request, items, status=status,
                                 pagination=info.to_dict())

    def add(method: str, pattern: str, handler, status: int = 200) -> None:
        router.add_route(method, pattern, handler, status=status,
                         headers=V2_HEADERS)

    # -- design time --------------------------------------------------------
    add("GET", "/v2/models", lambda req, p: page_of(
        req, service.models_page(PageRequest.from_request(req))))
    add("POST", "/v2/models", lambda req, p: ok(
        req, router._publish_model(req, p), status=201))
    add("GET", "/v2/models/detail", lambda req, p: ok(req, service.model_detail(
        service.require(req.param("uri"), "uri"),
        version=req.param("version"),
        as_xml=str(req.param("format", "")).lower() == "xml")))
    add("GET", "/v2/templates", lambda req, p: page_of(
        req, service.templates_page(PageRequest.from_request(req))))
    add("POST", "/v2/templates/{template_id}:publish", lambda req, p: ok(
        req, service.publish_template(p["template_id"], actor=req.actor or "",
                                      name=req.param("name")), status=201))
    add("GET", "/v2/resource-types", lambda req, p: ok(req, service.resource_types()))
    add("POST", "/v2/resources", lambda req, p: ok(
        req, service.register_resource(req.body or {}), status=201))

    # -- instances ----------------------------------------------------------
    add("GET", "/v2/instances", lambda req, p: page_of(req, service.instances_page(
        model_uri=req.param("model_uri"), owner=req.param("owner"),
        status=req.param("status"), phase_id=req.param("phase_id"),
        page=PageRequest.from_request(req))))
    add("POST", "/v2/instances", lambda req, p: ok(
        req, router._create_instance(req, p), status=201))
    add("GET", "/v2/instances/{instance_id}", lambda req, p: ok(
        req, service.instance_detail(p["instance_id"])))
    add("GET", "/v2/instances/{instance_id}/history", lambda req, p: page_of(
        req, service.history_page(p["instance_id"], PageRequest.from_request(req))))
    add("GET", "/v2/instances/{instance_id}/widget", lambda req, p: ok(
        req, service.widget_view(p["instance_id"], viewer=req.param("viewer"))))
    add("POST", "/v2/instances/{instance_id}:start", lambda req, p: ok(
        req, service.start_instance(p["instance_id"], router._actor(req),
                                    phase_id=req.param("phase_id"),
                                    call_parameters=req.param("call_parameters"))))
    add("POST", "/v2/instances/{instance_id}:advance", lambda req, p: ok(
        req, service.advance_instance(p["instance_id"], router._actor(req),
                                      to_phase_id=req.param("to_phase_id"),
                                      annotation=req.param("annotation"),
                                      call_parameters=req.param("call_parameters"))))
    add("POST", "/v2/instances/{instance_id}:move", lambda req, p: ok(
        req, service.move_instance(p["instance_id"], router._actor(req),
                                   phase_id=service.require(
                                       req.param("phase_id"), "phase_id"),
                                   annotation=req.param("annotation"))))
    add("POST", "/v2/instances/{instance_id}:annotate", lambda req, p: ok(
        req, service.annotate_instance(p["instance_id"], router._actor(req),
                                       text=service.require(req.param("text"), "text"),
                                       kind=req.param("kind", "note")), status=201))

    # -- bulk + async -------------------------------------------------------
    def batch_create(request: Request, params: Dict[str, str]) -> Response:
        items = parse_batch_items(request.body, CreateInstanceItem)
        actor = request.actor
        if request.bool_param("async"):
            operation = service.submit_operation(
                "instances.batchCreate",
                lambda: service.batch_create_instances(items, actor=actor).to_dict())
            return ok(request, operation.to_dict(), status=202)
        return ok(request, service.batch_create_instances(items, actor=actor).to_dict())

    def batch_advance(request: Request, params: Dict[str, str]) -> Response:
        items = parse_batch_items(request.body, AdvanceItem)
        actor = router._actor(request)
        if request.bool_param("async"):
            operation = service.submit_operation(
                "instances.batchAdvance",
                lambda: service.batch_advance_instances(items, actor).to_dict())
            return ok(request, operation.to_dict(), status=202)
        return ok(request, service.batch_advance_instances(items, actor).to_dict())

    add("POST", "/v2/instances:batchCreate", batch_create)
    add("POST", "/v2/instances:batchAdvance", batch_advance)
    add("GET", "/v2/operations", lambda req, p: page_of(
        req, service.operations_page(PageRequest.from_request(req))))
    add("GET", "/v2/operations/{operation_id}", lambda req, p: ok(
        req, service.operation_view(p["operation_id"])))

    # -- propagation + callbacks -------------------------------------------
    add("POST", "/v2/propagations", lambda req, p: ok(
        req, service.propose_change_xml(
            service.require(req.param("xml"), "xml"),
            actor=router._actor(req),
            instance_ids=req.list_param("instance_ids")), status=201))
    add("POST", "/v2/propagations/{proposal_id}:decide", lambda req, p: ok(
        req, service.decide_change(p["proposal_id"], router._actor(req),
                                   accept=req.bool_param("accept"),
                                   target_phase_id=req.param("target_phase_id"),
                                   reason=req.param("reason", ""))))
    add("POST", "/v2/callbacks/{instance_id}/{phase_id}/{call_id}", lambda req, p: ok(
        req, service.action_callback(p["instance_id"], p["phase_id"], p["call_id"],
                                     status=service.require(
                                         req.param("status"), "status"),
                                     detail=req.param("detail", "")), status=202))

    # -- monitoring ---------------------------------------------------------
    add("GET", "/v2/monitoring/summary", lambda req, p: ok(
        req, service.monitoring_summary(model_uri=req.param("model_uri"))))
    add("GET", "/v2/monitoring/table", lambda req, p: page_of(
        req, service.monitoring_table_page(model_uri=req.param("model_uri"),
                                           owner=req.param("owner"),
                                           page=PageRequest.from_request(req))))
    add("GET", "/v2/monitoring/alerts", lambda req, p: ok(
        req, service.monitoring_alerts()))
    add("GET", "/v2/monitoring/deadlines", lambda req, p: ok(
        req, service.monitoring_deadlines(model_uri=req.param("model_uri"))))

    def runtime_stats(request: Request, params: Dict[str, str]) -> Response:
        stats = service.runtime_stats()
        stats["api"] = router.stats.snapshot()
        stats["operations"] = len(service.operations.list())
        return ok(request, stats)

    add("GET", "/v2/runtime/stats", runtime_stats)

    # -- telemetry ----------------------------------------------------------
    # The Prometheus exposition is the one v2 route that answers plain text
    # instead of the envelope: scrapers speak text/plain 0.0.4, not JSON.
    def metrics(request: Request, params: Dict[str, str]) -> Response:
        headers = dict(V2_HEADERS)
        headers["Content-Type"] = "text/plain; version=0.0.4; charset=utf-8"
        return Response(200, service.metrics_exposition(), headers=headers)

    add("GET", "/v2/metrics", metrics)
    add("GET", "/v2/runtime/telemetry", lambda req, p: ok(
        req, service.telemetry_status()))
    # Span traces: summaries of every trace the bounded store still holds,
    # and one request's full timeline/tree by its X-Request-Id.
    add("GET", "/v2/runtime/traces", lambda req, p: ok(
        req, service.traces_status(limit=req.int_param("limit", minimum=1))))
    add("GET", "/v2/runtime/traces/{trace_id}", lambda req, p: ok(
        req, service.trace_detail(p["trace_id"])))
    # SLO alerts: rule catalog + per-rule firing state; :evaluate forces an
    # evaluation pass outside the recurring maintenance job (demos, tests,
    # operators who just changed a threshold).
    add("GET", "/v2/runtime/alerts", lambda req, p: ok(
        req, service.alerts_status()))
    add("POST", "/v2/runtime/alerts:evaluate", lambda req, p: ok(
        req, service.evaluate_slos()))

    def float_param(request: Request, name: str) -> Optional[float]:
        raw = request.param(name)
        if raw is None or raw == "":
            return None
        try:
            return float(raw)
        except (TypeError, ValueError):
            raise ServiceError(
                "query parameter {!r} must be a number, got {!r}".format(
                    name, raw))

    # Telemetry history: ring contents by series prefix / window / step /
    # tier, plus an on-demand capture (how a dormant-scheduler replica
    # keeps its rings warm — the read-only guard lets it through).
    add("GET", "/v2/runtime/telemetry/history", lambda req, p: ok(
        req, service.telemetry_history(
            series=req.param("series"),
            window_seconds=float_param(req, "window"),
            step_seconds=float_param(req, "step"),
            tier=req.param("tier"),
            max_series=req.int_param("max_series", minimum=1))))
    add("POST", "/v2/runtime/telemetry/history:capture", lambda req, p: ok(
        req, service.capture_telemetry_history()))
    # The log ring: the JSON records every emitter wrote, queryable by the
    # same X-Request-Id the span tree is filed under.
    add("GET", "/v2/runtime/logs", lambda req, p: ok(
        req, service.logs_status(
            trace_id=req.param("trace_id"),
            level=req.param("level"),
            component=req.param("component"),
            since=req.param("since"),
            limit=req.int_param("limit", minimum=1))))
    # Cluster federation: /cluster fans out to every registered peer and
    # merges (partial over NODE_UNREACHABLE rows, never a failed
    # envelope); /cluster/self is this node's status document, the row the
    # fan-out fetches.
    add("GET", "/v2/runtime/cluster", lambda req, p: ok(
        req, service.cluster_status()))
    add("GET", "/v2/runtime/cluster/self", lambda req, p: ok(
        req, service.node_status()))
    add("POST", "/v2/runtime/cluster:register", lambda req, p: ok(
        req, service.cluster_register(
            node_id=service.require(req.param("node_id"), "node_id"),
            url=req.param("url"),
            host=req.param("host"),
            port=req.int_param("port", minimum=1)), status=201))
    # Contention profiling: flame-tree aggregate of the sampling profiler.
    add("GET", "/v2/runtime/profile", lambda req, p: ok(
        req, service.profile_status()))
    add("POST", "/v2/runtime/profile:start", lambda req, p: ok(
        req, service.profile_start(
            interval_seconds=float_param(req, "interval_seconds"))))
    add("POST", "/v2/runtime/profile:stop", lambda req, p: ok(
        req, service.profile_stop()))

    # -- persistence (admin) ------------------------------------------------
    add("GET", "/v2/runtime/persistence", lambda req, p: ok(
        req, service.persistence_status()))
    add("POST", "/v2/runtime/persistence:checkpoint", lambda req, p: ok(
        req, service.persistence_checkpoint(), status=201))

    # -- replication (admin) ------------------------------------------------
    # Mounted on every node: a primary answers with its follower lag table,
    # a replica with its stream position; :promote is the failover lever —
    # the one POST the read-only guard lets through on a replica.
    add("GET", "/v2/runtime/replication", lambda req, p: ok(
        req, service.replication_status()))
    # The push half of replication over HTTP: with wait_timeout a caught-up
    # follower's request parks on the journal-append notification instead of
    # polling read_batch on a timer.
    add("GET", "/v2/runtime/replication/stream", lambda req, p: ok(
        req, service.replication_stream(
            after_seq=req.int_param("after_seq", minimum=0) or 0,
            limit=req.int_param("limit", minimum=1),
            wait_timeout=req.param("wait_timeout"),
            follower_id=req.param("follower_id"))))
    add("POST", "/v2/runtime/replication:promote", lambda req, p: ok(
        req, service.replication_promote()))
    # Bootstrap over the wire: what an off-host HttpReplicationSource
    # restores before it starts streaming.
    add("GET", "/v2/runtime/replication/bootstrap", lambda req, p: ok(
        req, service.replication_bootstrap()))

    # -- coordination (admin) -----------------------------------------------
    # Leader election and fencing (docs/COORDINATION.md): status shows who
    # holds the primary lease and at what epoch; :resign hands the lease to
    # the next campaigner immediately (planned maintenance).
    add("GET", "/v2/runtime/coordination", lambda req, p: ok(
        req, service.coordination_status()))
    add("POST", "/v2/runtime/coordination:resign", lambda req, p: ok(
        req, service.coordination_resign()))

    # -- scheduler / timers -------------------------------------------------
    add("GET", "/v2/timers", lambda req, p: page_of(req, service.timers_page(
        kind=req.param("kind"), subject_id=req.param("subject_id"),
        page=PageRequest.from_request(req))))
    add("POST", "/v2/timers", lambda req, p: ok(req, service.schedule_timer(
        timer_id=req.param("timer_id"),
        fire_at=req.param("fire_at"),
        delay_seconds=req.param("delay_seconds"),
        kind=req.param("kind", "user"),
        subject_id=req.param("subject_id", ""),
        payload=req.param("payload"),
        interval_seconds=req.param("interval_seconds")), status=201))
    add("POST", "/v2/timers/{timer_id}:cancel", lambda req, p: ok(
        req, service.cancel_timer(p["timer_id"])))
    add("GET", "/v2/runtime/scheduler", lambda req, p: ok(
        req, service.scheduler_status()))
    add("POST", "/v2/runtime/scheduler:tick", lambda req, p: ok(
        req, service.scheduler_tick(limit=req.int_param("limit", minimum=1))))
