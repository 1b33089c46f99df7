"""Tests for the REST facade (transport-independent router)."""

import pytest

from repro.serialization import lifecycle_to_xml
from repro.service import GeleeService, RestRouter
from repro.service.transport import Request
from repro.templates import eu_deliverable_lifecycle


@pytest.fixture
def service(clock):
    from repro.plugins import build_standard_environment

    return GeleeService(environment=build_standard_environment(clock=clock), clock=clock)


@pytest.fixture
def router(service):
    return RestRouter(service)


@pytest.fixture
def published_model_uri(router):
    response = router.post("/templates/eu-deliverable/publish", actor="coordinator")
    assert response.ok
    return response.body["uri"]


def _create_instance(router, service, model_uri, owner="alice", title="D1.1"):
    descriptor = service.environment.adapter("Google Doc").create_resource(title, owner=owner)
    response = router.post("/instances", actor=owner, body={
        "model_uri": model_uri,
        "resource": descriptor.to_dict(),
        "owner": owner,
    })
    assert response.ok, response.body
    return response.body["instance_id"]


class TestModelEndpoints:
    def test_list_templates(self, router):
        response = router.get("/templates")
        assert response.ok
        assert any(t["template_id"] == "eu-deliverable" for t in response.body)

    def test_publish_template_and_list_models(self, router, published_model_uri):
        models = router.get("/models")
        assert any(m["uri"] == published_model_uri for m in models.body)

    def test_publish_model_from_json(self, router):
        model = eu_deliverable_lifecycle()
        model.uri = "urn:gelee:json-model"
        response = router.post("/models", actor="coordinator", body={"model": model.to_dict()})
        assert response.ok
        assert response.body["uri"] == "urn:gelee:json-model"

    def test_publish_model_from_xml(self, router):
        model = eu_deliverable_lifecycle()
        model.uri = "urn:gelee:xml-model"
        response = router.post("/models", actor="coordinator",
                               body={"xml": lifecycle_to_xml(model)})
        assert response.ok
        detail = router.get("/models/detail", uri="urn:gelee:xml-model", format="xml")
        assert detail.ok
        assert "<process" in detail.body["xml"]

    def test_model_detail_json(self, router, published_model_uri):
        detail = router.get("/models/detail", uri=published_model_uri)
        assert detail.ok
        assert len(detail.body["phases"]) == 6

    def test_model_detail_missing_uri_is_400(self, router):
        assert router.get("/models/detail").status == 400

    def test_unknown_model_is_404(self, router):
        assert router.get("/models/detail", uri="urn:missing").status == 404

    def test_unknown_template_is_404(self, router):
        assert router.post("/templates/nope/publish", actor="pm").status == 404

    def test_resource_types_listing(self, router):
        response = router.get("/resource-types")
        assert "Google Doc" in response.body

    def test_register_resource(self, router, service):
        descriptor = service.environment.adapter("Google Doc").create_resource("Doc",
                                                                               owner="alice")
        response = router.post("/resources", body=descriptor.to_dict())
        assert response.ok
        assert response.body["resource_type"] == "Google Doc"


class TestInstanceEndpoints:
    def test_create_start_advance(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        start = router.post("/instances/{}/start".format(instance_id), actor="alice")
        assert start.body["current_phase_id"] == "elaboration"
        advance = router.post("/instances/{}/advance".format(instance_id), actor="alice",
                              body={"to_phase_id": "internalreview",
                                    "call_parameters": {}})
        assert advance.ok
        detail = router.get("/instances/{}".format(instance_id))
        assert detail.body["current_phase_id"] == "internalreview"

    def test_create_requires_fields(self, router):
        assert router.post("/instances", actor="alice", body={"owner": "alice"}).status == 400

    def test_actor_required_for_moves(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        response = router.post("/instances/{}/start".format(instance_id))
        assert response.status == 400

    def test_move_and_annotate(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        move = router.post("/instances/{}/move".format(instance_id), actor="alice",
                           body={"phase_id": "publication", "annotation": "fast-tracked"})
        assert move.ok
        assert move.body["deviations"] == 1
        note = router.post("/instances/{}/annotations".format(instance_id), actor="alice",
                           body={"text": "published early", "kind": "note"})
        assert note.ok
        history = router.get("/instances/{}/history".format(instance_id))
        assert any(entry["kind"] == "instance.annotated" for entry in history.body)

    def test_unknown_instance_is_404(self, router):
        assert router.get("/instances/inst-unknown").status == 404
        assert router.post("/instances/inst-unknown/start", actor="a").status == 404

    def test_list_instances_filters_by_owner(self, router, service, published_model_uri):
        _create_instance(router, service, published_model_uri, owner="alice")
        _create_instance(router, service, published_model_uri, owner="bob", title="D2.2")
        mine = router.get("/instances", owner="alice")
        assert len(mine.body) == 1

    def test_invalid_move_is_409(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        again = router.post("/instances/{}/start".format(instance_id), actor="alice")
        assert again.status == 409

    def test_widget_endpoint(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        widget = router.get("/instances/{}/widget".format(instance_id), viewer="alice")
        assert widget.ok
        assert widget.body["current_phase"] == "elaboration"
        assert len(widget.body["phases"]) == 6


class TestCallbackAndPropagation:
    def test_action_callback_roundtrip(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        router.post("/instances/{}/advance".format(instance_id), actor="alice",
                    body={"to_phase_id": "internalreview"})
        detail = router.get("/instances/{}".format(instance_id)).body
        visit = detail["visits"][-1]
        call_id = visit["invocations"][0]["call_id"]
        response = router.post(
            "/callbacks/{}/{}/{}".format(instance_id, visit["phase_id"], call_id),
            body={"status": "in progress", "detail": "waiting for second review"})
        assert response.ok
        assert response.body["status"] == "in progress"

    def test_callback_for_unknown_call_is_409(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        response = router.post("/callbacks/{}/elaboration/call-x".format(instance_id),
                               body={"status": "completed"})
        assert response.status == 409

    def test_propagation_accept_via_rest(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        revised = service.manager.model(published_model_uri).new_version(created_by="pm")
        proposals = router.post("/propagations", actor="coordinator",
                                body={"xml": lifecycle_to_xml(revised)})
        assert proposals.ok and len(proposals.body) == 1
        proposal_id = proposals.body[0]["proposal_id"]
        decision = router.post("/propagations/{}/decision".format(proposal_id), actor="alice",
                               body={"accept": True})
        assert decision.ok
        assert decision.body["to_version"] == "1.1"
        detail = router.get("/instances/{}".format(instance_id))
        assert detail.body["model_version"] == "1.1"

    def test_propagation_reject_via_rest(self, router, service, published_model_uri):
        instance_id = _create_instance(router, service, published_model_uri)
        router.post("/instances/{}/start".format(instance_id), actor="alice")
        revised = service.manager.model(published_model_uri).new_version(created_by="pm")
        proposals = router.post("/propagations", actor="coordinator",
                                body={"xml": lifecycle_to_xml(revised)})
        proposal_id = proposals.body[0]["proposal_id"]
        decision = router.post("/propagations/{}/decision".format(proposal_id), actor="alice",
                               body={"accept": False, "reason": "too busy"})
        assert decision.ok
        assert decision.body["decision"] == "rejected"


class TestMonitoringEndpoints:
    def test_summary_table_alerts(self, router, service, published_model_uri):
        for title in ("D1.1", "D1.2"):
            instance_id = _create_instance(router, service, published_model_uri, title=title)
            router.post("/instances/{}/start".format(instance_id), actor="alice")
        summary = router.get("/monitoring/summary")
        assert summary.body["total"] == 2
        table = router.get("/monitoring/table")
        assert len(table.body) == 2
        alerts = router.get("/monitoring/alerts")
        assert alerts.ok

    def test_unroutable_path_is_404(self, router):
        assert router.get("/nope").status == 404
        assert router.post("/instances/x/unknown", actor="a").status == 404


class TestRouteResolution:
    def test_405_advertises_every_method_of_the_path(self, router):
        response = router.handle(Request("DELETE", "/v2/instances"))
        assert response.status == 405
        assert response.headers["Allow"] == "GET, POST"

    def test_first_registered_match_wins(self, router):
        # ``{instance_id}`` also matches "x:advance", and the plain detail
        # route is registered first: a GET resolves to it, a POST skips it.
        get = router.handle(Request("GET", "/v2/instances/x:advance"))
        assert get.status == 404 and get.body["error"]["code"] == "INSTANCE_NOT_FOUND"
        post = router.handle(Request("POST", "/v2/instances/x:advance", actor="a"))
        assert post.status == 404 and post.body["error"]["code"] == "INSTANCE_NOT_FOUND"

    def test_route_added_after_requests_is_served(self, router):
        assert router.get("/v2/gadgets/g1").body["error"]["code"] == "ROUTE_NOT_FOUND"
        router.add_route("GET", "/v2/gadgets/{gadget_id}",
                         lambda request, params: {"gadget": params["gadget_id"]})
        response = router.get("/v2/gadgets/g1")
        assert response.status == 200 and response.body == {"gadget": "g1"}
        router.add_route("PUT", "/models", lambda request, params: {"put": True})
        assert router.handle(Request("PUT", "/models")).body == {"put": True}
        assert router.handle(Request("DELETE", "/models")).headers["Allow"] == \
            "GET, POST, PUT"
