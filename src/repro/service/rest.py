"""REST facade over the Gelee service.

A small, dependency-free router: requests carry a method, a path, a query
dictionary and an optional JSON body; responses carry a status code, headers
and a JSON-compatible body.  The route table mirrors the operations of
:class:`~repro.service.api.GeleeService`, and the HTTP server of
:mod:`repro.service.http` simply adapts real sockets onto these objects.

Two API dialects are mounted on one router:

* the **legacy v1** routes (``/models``, ``/instances``, ...) keep their
  original bodies — only the success status codes were tightened (201 for
  creations, 202 for accepted callbacks) and every response now carries a
  ``Deprecation`` header pointing at the successor version;
* the **v2 gateway** (``/v2/...``, see :mod:`repro.service.v2`) speaks typed
  envelopes with pagination, bulk calls and async operation handles.

Cross-cutting behaviour — request ids, actor extraction, per-route timing,
error translation — runs in the shared middleware pipeline of
:mod:`repro.service.v2.middleware` instead of ad-hoc ``try/except`` blocks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import PermissionDeniedError, ServiceError
from .api import GeleeService
from .transport import (  # noqa: F401 - re-exported for compatibility
    Handler,
    Request,
    Response,
    parse_bool,
    parse_str_list,
)
from .v2 import (
    ActorMiddleware,
    ErrorTranslationMiddleware,
    ReadOnlyGuardMiddleware,
    RequestIdMiddleware,
    TimingMiddleware,
    build_pipeline,
)
from .v2 import install as install_v2
from .v2.envelope import Envelope, ErrorInfo
from .v2.middleware import ApiStats

#: A ``{name}`` segment of a route pattern (a ``[^/]+`` capture).
_PLACEHOLDER = re.compile(r"\{(\w+)\}")
#: Regex syntax that could let a pattern's literal text match across a
#: ``/``; a table holding such a pattern is scanned, not indexed.
_REGEX_SYNTAX = re.compile(r"[.^$*+?()\[\]\\|{}]")

#: Headers advertising the v1 deprecation path on every legacy response.
V1_HEADERS = {
    "X-Gelee-Api-Version": "v1",
    "Deprecation": "true",
    "Link": '</v2>; rel="successor-version"',
}


@dataclass
class Route:
    """One entry of the route table."""

    method: str
    pattern: str
    regex: re.Pattern
    handler: Handler
    status: int = 200
    headers: Dict[str, str] = field(default_factory=dict)
    name: str = field(init=False)

    def __post_init__(self) -> None:
        self.name = "{} {}".format(self.method, self.pattern)


class RestRouter:
    """Routes REST requests (v1 and v2) to Gelee service operations."""

    def __init__(self, service: GeleeService = None, manager=None, shard_count: int = None,
                 persistence=None, coordination=None):
        """Route over an existing service, or assemble one.

        ``manager`` (e.g. a :class:`~repro.runtime.sharding.ShardedLifecycleManager`),
        ``shard_count``, ``persistence`` (a
        :class:`~repro.persistence.PersistenceConfig`) and ``coordination``
        (a :class:`~repro.coordination.CoordinationConfig`) are forwarded to
        :class:`GeleeService` when no pre-built service is given, so a
        durable sharded deployment is one call:
        ``RestRouter(shard_count=16, persistence=PersistenceConfig(dir))``.
        """
        if service is None:
            service = GeleeService(manager=manager, shard_count=shard_count,
                                   persistence=persistence,
                                   coordination=coordination)
        elif (manager is not None or shard_count is not None
              or persistence is not None or coordination is not None):
            raise ServiceError(
                "pass either a service or manager/shard_count/persistence/"
                "coordination, not both")
        self.service = service
        self.stats = ApiStats()
        self._routes: List[Route] = []
        #: ``(routes indexed, nodes, groups)``; see :meth:`_candidates`.
        self._index: tuple = (-1, None, None)
        self._register_routes()
        install_v2(self)
        self._pipeline = build_pipeline(
            [
                RequestIdMiddleware(),
                ActorMiddleware(),
                TimingMiddleware(self.stats),
                ErrorTranslationMiddleware(),
                # Inside the error translation so its typed 409 (with the
                # primary hint) reaches the wire in either dialect.
                ReadOnlyGuardMiddleware(self.service),
            ],
            self._dispatch,
        )

    # ------------------------------------------------------------------ routing
    def add_route(self, method: str, pattern: str, handler: Handler,
                  status: int = 200, headers: Dict[str, str] = None) -> None:
        """Register a route; ``{name}`` segments become named captures.

        ``status`` is the success code used when the handler returns plain
        data (handlers may also return a full :class:`Response`); ``headers``
        are merged into every response of the route.
        """
        regex = re.compile(
            "^" + _PLACEHOLDER.sub(r"(?P<\1>[^/]+)", pattern.rstrip("/")) + "$"
        )
        self._routes.append(Route(method=method.upper(), pattern=pattern, regex=regex,
                                  handler=handler, status=status,
                                  headers=dict(headers or {})))

    def handle(self, request: Request) -> Response:
        """Run a request through the middleware pipeline and the route table."""
        return self._pipeline(request)

    def _dispatch(self, request: Request) -> Response:
        """Terminal pipeline stage: match a route and invoke its handler."""
        # The scheduler's system actor holds elevated rights on the access
        # policy (GeleeService sets ``system_actor_reserved`` exactly when
        # that grant was made); actors are client-declared on the wire, so
        # the transport refuses to let a request impersonate it.  Without
        # the grant the name is not special and stays usable.
        reserved = getattr(self.service, "system_actor_reserved", None)
        if reserved is not None and request.actor == reserved:
            raise PermissionDeniedError(
                "actor {!r} is the scheduler's reserved system identity".format(
                    reserved))
        path = request.path.rstrip("/") or "/"
        method = request.method.upper()
        allowed: set = set()
        for route in self._candidates(path):
            match = route.regex.match(path)
            if match is None:
                continue
            if route.method != method:
                allowed.add(route.method)
                continue
            request.context["route"] = route.name
            result = route.handler(request, match.groupdict())
            response = result if isinstance(result, Response) else Response(
                route.status, result)
            for name, value in route.headers.items():
                response.headers.setdefault(name, value)
            return response
        if allowed:
            # The path exists; the method does not: 405, advertising what would.
            response = self._no_route_response(
                request, 405, "METHOD_NOT_ALLOWED",
                "method {} not allowed for {} (allowed: {})".format(
                    method, request.path, ", ".join(sorted(allowed))))
            response.headers["Allow"] = ", ".join(sorted(allowed))
            return response
        return self._no_route_response(
            request, 404, "ROUTE_NOT_FOUND",
            "no route for {} {}".format(request.method, request.path))

    def _candidates(self, path: str) -> List[Route]:
        """The routes whose regex can match ``path``, in registration order.

        A ``{name}`` capture never spans a ``/``, so a route only matches
        paths with its segment count that start with its leading literal
        segments (its key).  The longest indexed key prefix a path walks
        down to selects every route whose key is a prefix of it: all the
        routes a linear scan could match, in order, so the first match and
        the 405 ``Allow`` set are unchanged.  A grown table (``add_route``
        after construction) is re-indexed.
        """
        built_for, nodes, groups = self._index
        if built_for != len(self._routes):
            routes = list(self._routes)
            nodes, groups = self._build_index(routes)
            self._index = (len(routes), nodes, groups)
        if nodes is None:
            return self._routes
        # ``$`` also matches before one trailing newline; drop it here too.
        segments = (path[:-1] if path.endswith("\n") else path).split("/")
        count = len(segments)
        if (count, "") not in nodes:
            return []
        key = node = ""
        for segment in segments:
            key += segment + "/"
            if (count, key) not in nodes:
                break
            node = key
        candidates = nodes[(count, node)]
        if candidates is None:
            candidates = nodes[(count, node)] = [
                route for own, route in groups[count] if node.startswith(own)]
        return candidates

    @staticmethod
    def _build_index(routes: List[Route]):
        """Every key prefix per segment count (its route list is filled on
        first use) and each count's ``(key, route)`` list; ``None`` (scan
        every route) when a pattern's literal text holds regex syntax."""
        nodes: Dict[Tuple[int, str], Optional[List[Route]]] = {}
        groups: Dict[int, List[Tuple[str, Route]]] = {}
        for route in routes:
            pattern = route.pattern.rstrip("/")
            if _REGEX_SYNTAX.search(_PLACEHOLDER.sub("", pattern)):
                return None, None
            count = pattern.count("/") + 1
            key = ""
            nodes[(count, key)] = None
            for segment in pattern.split("/"):
                if "{" in segment:
                    break
                key += segment + "/"
                nodes[(count, key)] = None
            groups.setdefault(count, []).append((key, route))
        return nodes, groups

    @staticmethod
    def _no_route_response(request: Request, status: int, code: str,
                           message: str) -> Response:
        if request.is_v2:
            envelope = Envelope.failure(
                ErrorInfo(code=code, message=message, status=status),
                request_id=request.context.get("request_id", ""))
            return Response(status, envelope.to_dict())
        return Response(status, {"error": message})

    # A convenience for tests and examples.
    def get(self, path: str, actor: str = None, **query: str) -> Response:
        return self.handle(Request("GET", path, query={k: str(v) for k, v in query.items()},
                                   actor=actor))

    def post(self, path: str, body: Dict[str, Any] = None, actor: str = None,
             **query: str) -> Response:
        return self.handle(Request("POST", path, query={k: str(v) for k, v in query.items()},
                                   body=body or {}, actor=actor))

    # ------------------------------------------------------------------- routes
    def _register_routes(self) -> None:
        service = self.service

        def add(method: str, pattern: str, handler: Handler, status: int = 200) -> None:
            self.add_route(method, pattern, handler, status=status, headers=V1_HEADERS)

        # -- design time -----------------------------------------------------
        add("GET", "/models", lambda req, p: service.list_models())
        add("POST", "/models", self._publish_model, status=201)
        add("GET", "/models/detail", lambda req, p: service.model_detail(
            service.require(req.param("uri"), "uri"),
            version=req.param("version"),
            as_xml=str(req.param("format", "")).lower() == "xml",
        ))
        add("GET", "/templates", lambda req, p: service.list_templates())
        add("POST", "/templates/{template_id}/publish", lambda req, p:
            service.publish_template(p["template_id"], actor=req.actor or "",
                                     name=req.param("name")), status=201)
        add("GET", "/resource-types", lambda req, p: service.resource_types())
        add("POST", "/resources", lambda req, p:
            service.register_resource(req.body or {}), status=201)

        # -- runtime ----------------------------------------------------------
        add("POST", "/instances", self._create_instance, status=201)
        add("GET", "/instances", lambda req, p: service.list_instances(
            model_uri=req.param("model_uri"), owner=req.param("owner")))
        add("GET", "/instances/{instance_id}", lambda req, p:
            service.instance_detail(p["instance_id"]))
        add("GET", "/instances/{instance_id}/history", lambda req, p:
            service.instance_history(p["instance_id"]))
        add("POST", "/instances/{instance_id}/start", lambda req, p:
            service.start_instance(p["instance_id"],
                                   self._actor(req),
                                   phase_id=req.param("phase_id"),
                                   call_parameters=req.param("call_parameters")))
        add("POST", "/instances/{instance_id}/advance", lambda req, p:
            service.advance_instance(p["instance_id"],
                                     self._actor(req),
                                     to_phase_id=req.param("to_phase_id"),
                                     annotation=req.param("annotation"),
                                     call_parameters=req.param("call_parameters")))
        add("POST", "/instances/{instance_id}/move", lambda req, p:
            service.move_instance(p["instance_id"],
                                  self._actor(req),
                                  phase_id=self.service.require(
                                      req.param("phase_id"), "phase_id"),
                                  annotation=req.param("annotation")))
        add("POST", "/instances/{instance_id}/annotations", lambda req, p:
            service.annotate_instance(p["instance_id"],
                                      self._actor(req),
                                      text=self.service.require(
                                          req.param("text"), "text"),
                                      kind=req.param("kind", "note")))
        add("GET", "/instances/{instance_id}/widget", lambda req, p:
            service.widget_view(p["instance_id"], viewer=req.param("viewer")))

        # -- model change propagation ------------------------------------------
        add("POST", "/propagations", lambda req, p:
            service.propose_change_xml(
                self.service.require(req.param("xml"), "xml"),
                actor=self._actor(req),
                instance_ids=req.list_param("instance_ids")), status=201)
        add("POST", "/propagations/{proposal_id}/decision", lambda req, p:
            service.decide_change(p["proposal_id"], self._actor(req),
                                  accept=req.bool_param("accept"),
                                  target_phase_id=req.param("target_phase_id"),
                                  reason=req.param("reason", "")))

        # -- action callbacks ----------------------------------------------------
        add("POST", "/callbacks/{instance_id}/{phase_id}/{call_id}", lambda req, p:
            service.action_callback(p["instance_id"], p["phase_id"], p["call_id"],
                                    status=self.service.require(
                                        req.param("status"), "status"),
                                    detail=req.param("detail", "")), status=202)

        # -- monitoring -----------------------------------------------------------
        add("GET", "/monitoring/summary", lambda req, p:
            service.monitoring_summary(model_uri=req.param("model_uri")))
        add("GET", "/monitoring/table", lambda req, p:
            service.monitoring_table(model_uri=req.param("model_uri"),
                                     owner=req.param("owner")))
        add("GET", "/monitoring/alerts", lambda req, p: service.monitoring_alerts())
        add("GET", "/runtime/stats", lambda req, p: service.runtime_stats())

    # ----------------------------------------------------------------- handlers
    def _publish_model(self, request: Request, params: Dict[str, str]) -> Any:
        if request.param("xml"):
            return self.service.publish_model_xml(request.param("xml"),
                                                  actor=request.actor or "")
        body = request.body or {}
        document = body.get("model", body)
        return self.service.publish_model_json(document, actor=request.actor or "")

    def _create_instance(self, request: Request, params: Dict[str, str]) -> Any:
        body = request.body or {}
        return self.service.create_instance(
            model_uri=self.service.require(body.get("model_uri"), "model_uri"),
            resource=self.service.require(body.get("resource"), "resource"),
            owner=self.service.require(body.get("owner"), "owner"),
            actor=request.actor or body.get("owner"),
            version=body.get("version"),
            parameters=body.get("parameters"),
            token_owners=body.get("token_owners"),
        )

    def _actor(self, request: Request) -> str:
        actor = request.actor or request.param("actor")
        return self.service.require(actor, "actor")
