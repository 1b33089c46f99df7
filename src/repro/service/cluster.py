"""Cluster federation: one merged observability view across every node.

Each node keeps a small registry of peers — seeded automatically from
what it already knows (a replica's HTTP journal source, a primary's
follower table, the coordination lease's current leader) and extended
explicitly via :meth:`ClusterView.register` or
``POST /v2/runtime/cluster:register``.  ``GET /v2/runtime/cluster`` fans
out to every peer's ``/v2/runtime/cluster/self`` — through an in-process
:class:`~repro.service.rest.RestRouter` handle or over HTTP — and merges
the answers into a single envelope of role, health, lag, firing alerts
and recent metric deltas.

Fan-out never fails the merged view: a dead or unregistered peer's row
carries a ``NODE_UNREACHABLE`` error payload and the response is marked
``partial`` while staying HTTP 200 — exactly the semantics an operator
dashboard wants when one node of the cluster is the thing being
debugged.  The registry lives on the *service*, so it survives
promotion: a replica's view keeps its peers after ``promote()`` flips
the node into a primary.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from ..errors import NodeUnreachableError, ValidationError
from .v2.envelope import error_info_for

__all__ = ["ClusterView"]

#: Counter prefixes summarised into each node row's ``deltas`` block.
KEY_DELTA_PREFIXES = (
    "gelee_api_requests_total",
    "gelee_actions_dispatched_total",
    "gelee_alerts_fired_total",
)


class ClusterView:
    """The per-node peer registry and fan-out for ``/v2/runtime/cluster``."""

    def __init__(self, service):
        self._service = service
        self._lock = threading.Lock()
        # node_id -> {"transport": "in-process"|"http", "router"|("host","port")}
        self._peers: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()

    # -- registry ----------------------------------------------------------

    def register(self, node_id: str, router=None, url: Optional[str] = None,
                 host: Optional[str] = None,
                 port: Optional[int] = None) -> Dict[str, Any]:
        """Add (or replace) a peer reachable in-process or over HTTP."""
        if not node_id or not str(node_id).strip():
            raise ValidationError("cluster peer needs a node_id")
        node_id = str(node_id).strip()
        if url:
            parts = urlsplit(str(url))
            host = parts.hostname
            port = parts.port
            if host is None or port is None:
                raise ValidationError(
                    "cluster peer url must look like http://host:port")
        if router is not None:
            entry: Dict[str, Any] = {"transport": "in-process",
                                     "router": router,
                                     "endpoint": "in-process"}
        elif host is not None and port is not None:
            entry = {"transport": "http", "host": str(host), "port": int(port),
                     "endpoint": "{}:{}".format(host, port)}
        else:
            raise ValidationError(
                "cluster peer needs a router, a url, or host and port")
        with self._lock:
            self._peers[node_id] = entry
        return {"node_id": node_id, "transport": entry["transport"],
                "endpoint": entry["endpoint"]}

    def deregister(self, node_id: str) -> bool:
        with self._lock:
            return self._peers.pop(node_id, None) is not None

    def peers(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [{"node_id": node_id, "transport": entry["transport"],
                     "endpoint": entry["endpoint"]}
                    for node_id, entry in self._peers.items()]

    # -- fan-out -----------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """The merged cluster envelope; partial over unreachable peers."""
        own = self._service.node_status()
        own_row = dict(own)
        own_row["reachable"] = True
        own_row["via"] = "self"
        nodes = [own_row]
        seen = {own.get("node_id")}
        partial = False
        with self._lock:
            registered = list(self._peers.items())
        for node_id, entry in registered:
            if node_id in seen:
                continue
            seen.add(node_id)
            row = self._fetch_peer(node_id, entry)
            if not row.get("reachable"):
                partial = True
            nodes.append(row)
        for node_id, via in self._discovered_ids():
            if node_id in seen:
                continue
            seen.add(node_id)
            partial = True
            info = error_info_for(NodeUnreachableError(
                "peer {!r} discovered via {} has no registered "
                "transport".format(node_id, via), node_id=node_id))
            nodes.append({"node_id": node_id, "reachable": False,
                          "via": via, "error": info.to_dict()})
        return {
            "reported_by": own.get("node_id"),
            "partial": partial,
            "node_count": len(nodes),
            "unreachable": sum(1 for row in nodes if not row.get("reachable")),
            "nodes": nodes,
        }

    def _fetch_peer(self, node_id: str,
                    entry: Dict[str, Any]) -> Dict[str, Any]:
        try:
            if entry["transport"] == "in-process":
                response = entry["router"].get("/v2/runtime/cluster/self")
                status, body = response.status, response.body
            else:
                from .http import GeleeHttpClient

                client = GeleeHttpClient(entry["host"], entry["port"],
                                         timeout=5.0)
                response = client.get("/v2/runtime/cluster/self")
                status, body = response.status, response.body
            if status != 200 or not isinstance(body, dict) \
                    or body.get("data") is None:
                raise NodeUnreachableError(
                    "peer {!r} answered HTTP {}".format(node_id, status),
                    node_id=node_id)
            row = dict(body["data"])
            row["reachable"] = True
            row["via"] = entry["transport"]
            row.setdefault("node_id", node_id)
            return row
        except NodeUnreachableError as exc:
            info = error_info_for(exc)
        except Exception as exc:  # connection refused, closed service, ...
            info = error_info_for(NodeUnreachableError(
                "peer {!r} unreachable: {}".format(node_id, exc),
                node_id=node_id))
        return {"node_id": node_id, "reachable": False,
                "via": entry["transport"], "endpoint": entry["endpoint"],
                "error": info.to_dict()}

    # -- discovery ---------------------------------------------------------

    def _discovered_ids(self) -> List[Tuple[str, str]]:
        """Peer node ids this node already knows about, with their origin.

        Fed by the replication attachment (a primary's follower table)
        and the coordination lease (the current leader) — the registry
        the tentpole asks for.  Discovered ids without a registered
        transport surface as unreachable rows rather than being hidden.
        """
        service = self._service
        discovered: List[Tuple[str, str]] = []
        replication = getattr(service, "replication", None)
        if replication is not None:
            follower_ids = getattr(replication, "follower_ids", None)
            if callable(follower_ids):
                try:
                    discovered.extend((fid, "replication")
                                      for fid in follower_ids())
                except Exception:
                    pass  # follower table unavailable mid-shutdown
        coordination = getattr(service, "coordination", None)
        if coordination is not None:
            try:
                leader_id = coordination.status().get("leader_id")
            except Exception:
                leader_id = None
            if leader_id:
                discovered.append((leader_id, "coordination"))
        return discovered
