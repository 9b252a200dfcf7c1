"""Tests for the REST facade (routing, status codes, payload encoding)."""

from __future__ import annotations

import base64

import pytest

from repro import LocalDeployment
from repro.core.rest import RestApi
from repro.serialize import FuncXSerializer


def b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


@pytest.fixture
def world():
    with LocalDeployment() as dep:
        api = RestApi(dep.service)
        identity = dep.register_user("rest-user")
        token = dep.auth.native_client_flow(identity).token
        ep_id = dep.create_endpoint("rest-ep", nodes=1)
        serializer = FuncXSerializer()

        def double(x):
            return 2 * x

        func_b64 = b64(serializer.serialize_function(double))
        yield dep, api, token, ep_id, serializer, func_b64


class TestAuthAndRouting:
    def test_missing_token_401(self, world):
        _dep, api, _token, _ep, _s, _f = world
        response = api.request("GET", "/api/v1/endpoints")
        assert response.status == 401

    def test_bad_token_401(self, world):
        _dep, api, _token, _ep, _s, _f = world
        response = api.request("GET", "/api/v1/endpoints", token="bogus")
        assert response.status == 401

    def test_unknown_route_404(self, world):
        _dep, api, token, _ep, _s, _f = world
        assert api.request("GET", "/api/v1/nothing", token=token).status == 404

    def test_wrong_method_404(self, world):
        _dep, api, token, _ep, _s, _f = world
        assert api.request("DELETE", "/api/v1/endpoints", token=token).status == 404

    def test_malformed_body_400(self, world):
        _dep, api, token, _ep, _s, _f = world
        response = api.request("POST", "/api/v1/functions", token=token, body={})
        assert response.status == 400


class TestFunctionRoutes:
    def test_register_and_update(self, world):
        _dep, api, token, _ep, serializer, func_b64 = world
        created = api.request(
            "POST", "/api/v1/functions", token=token,
            body={"name": "double", "function": func_b64},
        )
        assert created.status == 201
        fid = created.body["function_id"]

        def triple(x):
            return 3 * x

        updated = api.request(
            "PUT", f"/api/v1/functions/{fid}", token=token,
            body={"function": b64(serializer.serialize_function(triple))},
        )
        assert updated.status == 200
        assert updated.body["version"] == 2

    def test_update_unknown_function_404(self, world):
        _dep, api, token, _ep, _s, func_b64 = world
        response = api.request(
            "PUT", "/api/v1/functions/missing", token=token,
            body={"function": func_b64},
        )
        assert response.status == 404

    def test_oversized_function_413(self, world):
        dep, api, token, _ep, _s, _f = world
        big = b64(b"x" * (dep.service.config.payload_limit + 1))
        response = api.request(
            "POST", "/api/v1/functions", token=token,
            body={"name": "big", "function": big},
        )
        assert response.status == 413


class TestTaskRoutes:
    def _register(self, api, token, func_b64, public=True):
        return api.request(
            "POST", "/api/v1/functions", token=token,
            body={"name": "double", "function": func_b64, "public": public},
        ).body["function_id"]

    def test_full_rest_round_trip(self, world):
        _dep, api, token, ep_id, serializer, func_b64 = world
        fid = self._register(api, token, func_b64)
        payload = b64(serializer.serialize(([21], {})))
        submitted = api.request(
            "POST", "/api/v1/tasks", token=token,
            body={"function_id": fid, "endpoint_id": ep_id, "payload": payload},
        )
        assert submitted.status == 201
        tid = submitted.body["task_id"]

        result = api.request(
            "GET", f"/api/v1/tasks/{tid}/result", token=token,
            body={"timeout": 15.0},
        )
        assert result.status == 200
        value = serializer.deserialize(base64.b64decode(result.body["result"]))
        assert value == 42

        status = api.request("GET", f"/api/v1/tasks/{tid}/status", token=token)
        assert status.body["status"] == "success"

    def test_pending_result_202(self, world):
        dep, api, token, _ep, serializer, func_b64 = world
        lazy_ep = dep.create_endpoint("never-started", nodes=1, start=False)
        fid = self._register(api, token, func_b64)
        payload = b64(serializer.serialize(([1], {})))
        tid = api.request(
            "POST", "/api/v1/tasks", token=token,
            body={"function_id": fid, "endpoint_id": lazy_ep, "payload": payload},
        ).body["task_id"]
        response = api.request("GET", f"/api/v1/tasks/{tid}/result", token=token)
        assert response.status == 202
        assert response.body["task_id"] == tid

    @pytest.mark.parametrize("timeout", ["1e400", "NaN", "-1", "1e9", "30.5",
                                         '"soon"', "null"])
    def test_result_timeout_out_of_range_400(self, world, timeout):
        """``request`` never raises and never parks a server thread past
        ``MAX_LONG_POLL``: JSON ``1e400`` parses to ``inf``, which
        ``Event.wait`` answers with ``OverflowError``."""
        import json

        dep, api, token, _ep, serializer, func_b64 = world
        lazy_ep = dep.create_endpoint("never-started", nodes=1, start=False)
        fid = self._register(api, token, func_b64)
        payload = b64(serializer.serialize(([1], {})))
        tid = api.request(
            "POST", "/api/v1/tasks", token=token,
            body={"function_id": fid, "endpoint_id": lazy_ep, "payload": payload},
        ).body["task_id"]
        body = json.loads('{"timeout": %s}' % timeout)
        response = api.request("GET", f"/api/v1/tasks/{tid}/result",
                               token=token, body=body)
        assert response.status == 400
        assert "error" in response.body
        shard = dep.service.shard_for_task(tid)
        assert all(task.waiters is None for task in shard.iter_tasks())

    def test_result_timeout_at_the_bounds_is_accepted(self, world):
        from repro.core.rest import MAX_LONG_POLL

        _dep, api, token, ep_id, serializer, func_b64 = world
        fid = self._register(api, token, func_b64)
        payload = b64(serializer.serialize(([4], {})))
        tid = api.request(
            "POST", "/api/v1/tasks", token=token,
            body={"function_id": fid, "endpoint_id": ep_id, "payload": payload},
        ).body["task_id"]
        done = api.request("GET", f"/api/v1/tasks/{tid}/result", token=token,
                           body={"timeout": MAX_LONG_POLL})
        assert done.status == 200
        again = api.request("GET", f"/api/v1/tasks/{tid}/result", token=token,
                            body={"timeout": 0})
        assert again.status == 200

    def test_batch_submission(self, world):
        _dep, api, token, ep_id, serializer, func_b64 = world
        fid = self._register(api, token, func_b64)
        tasks = [
            {"function_id": fid, "endpoint_id": ep_id,
             "payload": b64(serializer.serialize(([i], {})))}
            for i in range(3)
        ]
        response = api.request("POST", "/api/v1/batch", token=token,
                               body={"tasks": tasks})
        assert response.status == 201
        assert len(response.body["task_ids"]) == 3
        for i, tid in enumerate(response.body["task_ids"]):
            result = api.request("GET", f"/api/v1/tasks/{tid}/result",
                                 token=token, body={"timeout": 15.0})
            assert serializer.deserialize(
                base64.b64decode(result.body["result"])
            ) == 2 * i

    def test_unknown_task_404(self, world):
        _dep, api, token, _ep, _s, _f = world
        assert api.request(
            "GET", "/api/v1/tasks/missing/status", token=token
        ).status == 404

    def test_unauthorized_function_403(self, world):
        dep, api, token, ep_id, serializer, func_b64 = world
        other = dep.register_user("other")
        other_token = dep.auth.native_client_flow(other).token
        api_other = RestApi(dep.service)
        fid = self._register(api, token, func_b64, public=False)
        response = api_other.request(
            "POST", "/api/v1/tasks", token=other_token,
            body={"function_id": fid, "endpoint_id": ep_id,
                  "payload": b64(serializer.serialize(([1], {})))},
        )
        assert response.status == 403


class TestEndpointRoutes:
    def test_list_endpoints(self, world):
        _dep, api, token, ep_id, _s, _f = world
        response = api.request("GET", "/api/v1/endpoints", token=token)
        assert response.status == 200
        ids = [e["endpoint_id"] for e in response.body["endpoints"]]
        assert ep_id in ids

    def test_register_endpoint_requires_scope(self, world):
        _dep, api, token, _ep, _s, _f = world
        # default user scopes do not include register_endpoint
        response = api.request("POST", "/api/v1/endpoints", token=token,
                               body={"name": "rogue"})
        assert response.status == 403

    def test_response_json_serializable(self, world):
        _dep, api, token, _ep, _s, _f = world
        response = api.request("GET", "/api/v1/endpoints", token=token)
        assert isinstance(response.json(), str)
        assert response.ok


class TestShardedErrorPaths:
    """Admission and shard failures mapped to HTTP statuses."""

    @staticmethod
    def _service(shards=1, admission=None):
        from repro.auth import AuthService
        from repro.core.service import FuncXService, ServiceConfig

        return FuncXService(
            auth=AuthService(),
            config=ServiceConfig(shards=shards),
            admission=admission,
        )

    @staticmethod
    def _setup(service):
        serializer = FuncXSerializer()
        identity = service.auth.register_identity("tenant")
        token = service.auth.native_client_flow(identity).token
        fid = service.register_function(
            token, "noop", serializer.serialize_function(lambda x: x),
            public=True)
        _eident, etok = service.auth.endpoint_client_flow("ep")
        ep = service.register_endpoint(etok.token, name="ep")
        payload = b64(serializer.serialize(([1], {})))
        return identity, token, fid, ep, payload

    def _submit_body(self, fid, ep, payload):
        return {"function_id": fid, "endpoint_id": ep, "payload": payload}

    def test_unknown_tenant_403_names_the_tenant(self):
        from repro.core.admission import AdmissionController

        service = self._service(admission=AdmissionController(strict=True))
        identity, token, fid, ep, payload = self._setup(service)
        api = RestApi(service)
        response = api.request("POST", "/api/v1/tasks", token=token,
                               body=self._submit_body(fid, ep, payload))
        assert response.status == 403
        assert response.body["tenant"] == identity.identity_id
        assert "no admission policy" in response.body["error"]

    def test_throttled_tenant_429_with_retry_after(self):
        from repro.core.admission import AdmissionController, TenantPolicy

        admission = AdmissionController()
        service = self._service(admission=admission)
        identity, token, fid, ep, payload = self._setup(service)
        admission.set_policy(identity.identity_id,
                             TenantPolicy(rate=0.5, burst=1.0))
        api = RestApi(service)
        body = self._submit_body(fid, ep, payload)
        assert api.request("POST", "/api/v1/tasks", token=token,
                           body=body).status == 201
        throttled = api.request("POST", "/api/v1/tasks", token=token, body=body)
        assert throttled.status == 429
        assert throttled.body["tenant"] == identity.identity_id
        assert throttled.body["retry_after"] == pytest.approx(2.0, rel=0.2)

    def test_quota_exceeded_429_on_batch(self):
        from repro.core.admission import AdmissionController, TenantPolicy

        admission = AdmissionController()
        service = self._service(admission=admission)
        identity, token, fid, ep, payload = self._setup(service)
        admission.set_policy(identity.identity_id,
                             TenantPolicy(max_outstanding=2))
        api = RestApi(service)
        response = api.request(
            "POST", "/api/v1/batch", token=token,
            body={"tasks": [self._submit_body(fid, ep, payload)] * 3})
        assert response.status == 429
        assert "quota" in response.body["error"]

    def test_draining_shard_503_with_retry_hint(self):
        service = self._service(shards=2)
        _identity, token, fid, ep, payload = self._setup(service)
        shard = service.shard_map.shard_for_endpoint(ep)
        service.drain_shard(shard)
        api = RestApi(service)
        response = api.request("POST", "/api/v1/tasks", token=token,
                               body=self._submit_body(fid, ep, payload))
        assert response.status == 503
        assert response.body["shard"] == shard
        assert response.body["retry"] is True
        service.restart_shard(shard)
        assert api.request("POST", "/api/v1/tasks", token=token,
                           body=self._submit_body(fid, ep, payload)).status == 201

    def test_batch_status_fans_out_across_shards(self):
        from repro.serialize import FuncXSerializer as _S

        service = self._service(shards=4)
        serializer = _S()
        identity = service.auth.register_identity("tenant")
        token = service.auth.native_client_flow(identity).token
        fid = service.register_function(
            token, "noop", serializer.serialize_function(lambda x: x),
            public=True)
        payload = serializer.serialize(([1], {}))
        task_ids, shards_seen = [], set()
        for i in range(12):
            _eident, etok = service.auth.endpoint_client_flow(f"ep-{i}")
            ep = service.register_endpoint(etok.token, name=f"ep-{i}")
            shards_seen.add(service.shard_map.shard_for_endpoint(ep))
            task_ids.append(service.submit(token, fid, ep, payload))
        assert len(shards_seen) > 1  # the fan-out is real
        service.complete_task(task_ids[0], success=True, result_buffer=b"r")

        api = RestApi(service)
        response = api.request("POST", "/api/v1/tasks/status", token=token,
                               body={"task_ids": task_ids})
        assert response.status == 200
        statuses = response.body["statuses"]
        assert set(statuses) == set(task_ids)
        assert statuses[task_ids[0]] == "success"
        assert statuses[task_ids[1]] == "queued"
        missing = api.request("POST", "/api/v1/tasks/status", token=token,
                              body={"task_ids": task_ids + ["ghost"]})
        assert missing.status == 404

    def test_client_wait_all_spans_shards(self):
        from repro.core.client import FuncXClient
        from repro.errors import TaskPending
        from repro.serialize import FuncXSerializer as _S

        service = self._service(shards=4)
        serializer = _S()
        identity = service.auth.register_identity("tenant")
        client = FuncXClient(service, identity)

        def echo(x):
            return x

        fid = client.register_function(echo)
        task_ids, shards_seen = [], set()
        for i in range(8):
            _eident, etok = service.auth.endpoint_client_flow(f"ep-{i}")
            ep = service.register_endpoint(etok.token, name=f"ep-{i}")
            shards_seen.add(service.shard_map.shard_for_endpoint(ep))
            task_ids.append(client.run(fid, ep, i))
        assert len(shards_seen) > 1
        for i, task_id in enumerate(task_ids):
            service.complete_task(task_id, success=True,
                                  result_buffer=serializer.serialize(i))
        assert client.wait_all(task_ids, timeout=5.0) == list(range(8))

        # one pending task on some shard -> TaskPending at the deadline
        _eident, etok = service.auth.endpoint_client_flow("ep-slow")
        slow_ep = service.register_endpoint(etok.token, name="ep-slow")
        pending = client.run(fid, slow_ep, 99)
        with pytest.raises(TaskPending):
            client.wait_all(task_ids + [pending], timeout=0.05)
        # ... and the waiter that timed out withdrew itself
        assert all(task.waiters is None for task in service.iter_tasks())
