"""REST facade: HTTP-shaped request routing over the funcX service.

"All user interactions with funcX are performed via a REST API
implemented by a cloud-hosted funcX service" (paper §3) — e.g. function
registration "is performed via a JSON POST request to the REST API".

:class:`RestApi` maps method+path+JSON-body requests onto the service,
translating exceptions into HTTP status codes, so the SDK-over-REST path
can be exercised end-to-end without a network stack.  Payload bytes are
base64-encoded in JSON bodies, as the real API transports serialized
buffers.
"""

from __future__ import annotations

import base64
import json
import re
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.service import FuncXService
from repro.errors import (
    AuthenticationFailed,
    AuthorizationFailed,
    FuncXError,
    NotFoundError,
    PayloadTooLarge,
    ResultPurged,
    ShardDraining,
    TaskPending,
    ThrottleExceeded,
    UnknownTenant,
)


#: Longest a ``GET .../result`` may park its server thread, seconds
#: (``FuncXClient.wait_for``'s default budget).
MAX_LONG_POLL = 30.0


@dataclass(frozen=True)
class Response:
    """An HTTP-shaped response."""

    status: int
    body: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> str:
        return json.dumps(self.body)


def _encode(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _decode(text: str) -> bytes:
    return base64.b64decode(text.encode("ascii"))


class RestApi:
    """Routes REST requests to a :class:`FuncXService`.

    Routes (all JSON bodies; bearer token in the ``Authorization`` header):

    ========  =============================  =====================================
    method    path                           action
    ========  =============================  =====================================
    POST      /api/v1/functions              register a function
    PUT       /api/v1/functions/<id>         update a function body
    POST      /api/v1/endpoints              register an endpoint
    GET       /api/v1/endpoints              list endpoints
    POST      /api/v1/tasks                  submit one task
    POST      /api/v1/batch                  submit a task batch
    POST      /api/v1/tasks/status           batch task status (any shard)
    GET       /api/v1/tasks/<id>/status      task status
    GET       /api/v1/tasks/<id>/result      task result (202 pending, 410 purged)
    ========  =============================  =====================================
    """

    def __init__(self, service: FuncXService):
        self.service = service
        self._routes: list[tuple[str, re.Pattern[str], Callable[..., Response]]] = [
            ("POST", re.compile(r"^/api/v1/functions$"), self._register_function),
            ("PUT", re.compile(r"^/api/v1/functions/(?P<fid>[\w-]+)$"), self._update_function),
            ("POST", re.compile(r"^/api/v1/endpoints$"), self._register_endpoint),
            ("GET", re.compile(r"^/api/v1/endpoints$"), self._list_endpoints),
            ("POST", re.compile(r"^/api/v1/tasks$"), self._submit),
            ("POST", re.compile(r"^/api/v1/batch$"), self._submit_batch),
            ("POST", re.compile(r"^/api/v1/tasks/status$"), self._status_batch),
            ("GET", re.compile(r"^/api/v1/tasks/(?P<tid>[\w-]+)/status$"), self._status),
            ("GET", re.compile(r"^/api/v1/tasks/(?P<tid>[\w-]+)/result$"), self._result),
        ]

    # ------------------------------------------------------------------
    def request(
        self,
        method: str,
        path: str,
        token: str | None = None,
        body: dict[str, Any] | None = None,
    ) -> Response:
        """Dispatch one request; never raises (errors become statuses)."""
        body = body or {}
        if token is None:
            return Response(401, {"error": "missing bearer token"})
        for route_method, pattern, handler in self._routes:
            if route_method != method:
                continue
            match = pattern.match(path)
            if match is None:
                continue
            try:
                return handler(token, body, **match.groupdict())
            except AuthenticationFailed as exc:
                return Response(401, {"error": str(exc)})
            except UnknownTenant as exc:
                # Strict admission: an authenticated identity with no
                # tenant policy is forbidden, not unauthenticated.
                return Response(403, {"error": str(exc), "tenant": exc.tenant})
            except AuthorizationFailed as exc:
                return Response(403, {"error": str(exc)})
            except NotFoundError as exc:
                return Response(404, {"error": str(exc)})
            except PayloadTooLarge as exc:
                return Response(413, {"error": str(exc)})
            except TaskPending as exc:
                return Response(202, {"status": exc.status, "task_id": exc.task_id})
            except ResultPurged as exc:
                return Response(410, {"error": str(exc), "task_id": exc.task_id})
            except ThrottleExceeded as exc:
                return Response(429, {
                    "error": str(exc),
                    "tenant": exc.tenant,
                    "retry_after": exc.retry_after,
                })
            except ShardDraining as exc:
                return Response(503, {
                    "error": str(exc),
                    "shard": exc.shard_index,
                    "retry": True,
                })
            except (KeyError, ValueError, TypeError) as exc:
                return Response(400, {"error": f"bad request: {exc}"})
            except FuncXError as exc:
                return Response(500, {"error": str(exc)})
        return Response(404, {"error": f"no route for {method} {path}"})

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _register_function(self, token: str, body: dict[str, Any]) -> Response:
        function_id = self.service.register_function(
            token,
            name=body["name"],
            function_buffer=_decode(body["function"]),
            container_image=body.get("container_image"),
            public=bool(body.get("public", False)),
            allowed_users=tuple(body.get("allowed_users", ())),
            allowed_groups=tuple(body.get("allowed_groups", ())),
            description=body.get("description", ""),
        )
        return Response(201, {"function_id": function_id})

    def _update_function(self, token: str, body: dict[str, Any], fid: str) -> Response:
        version = self.service.update_function(token, fid, _decode(body["function"]))
        return Response(200, {"function_id": fid, "version": version})

    def _register_endpoint(self, token: str, body: dict[str, Any]) -> Response:
        endpoint_id = self.service.register_endpoint(
            token,
            name=body["name"],
            description=body.get("description", ""),
            public=bool(body.get("public", True)),
            metadata=body.get("metadata"),
        )
        return Response(201, {"endpoint_id": endpoint_id})

    def _list_endpoints(self, token: str, body: dict[str, Any]) -> Response:
        records = self.service.list_endpoints(token)
        return Response(200, {
            "endpoints": [
                {
                    "endpoint_id": r.endpoint_id,
                    "name": r.name,
                    "connected": r.connected,
                    "public": r.public,
                }
                for r in records
            ]
        })

    def _submit(self, token: str, body: dict[str, Any]) -> Response:
        task_id = self.service.submit(
            token,
            function_id=body["function_id"],
            endpoint_id=body["endpoint_id"],
            payload_buffer=_decode(body["payload"]),
            memoize=bool(body.get("memoize", False)),
        )
        return Response(201, {"task_id": task_id})

    def _submit_batch(self, token: str, body: dict[str, Any]) -> Response:
        requests = [
            (entry["function_id"], entry["endpoint_id"], _decode(entry["payload"]))
            for entry in body["tasks"]
        ]
        task_ids = self.service.submit_batch(
            token, requests, memoize=bool(body.get("memoize", False))
        )
        return Response(201, {"task_ids": task_ids})

    def _status(self, token: str, body: dict[str, Any], tid: str) -> Response:
        state = self.service.status(token, tid)
        return Response(200, {"task_id": tid, "status": state.value})

    def _status_batch(self, token: str, body: dict[str, Any]) -> Response:
        """Batch status fan-out: one request, tasks on any shard."""
        task_ids = list(body["task_ids"])
        states = self.service.status_batch(token, task_ids)
        return Response(200, {"statuses": states})

    def _result(self, token: str, body: dict[str, Any], tid: str) -> Response:
        from repro.errors import TaskExecutionFailed

        timeout = float(body.get("timeout", 0.0))
        if not 0.0 <= timeout <= MAX_LONG_POLL:  # also refuses nan and inf
            raise ValueError(f"timeout must be within 0..{MAX_LONG_POLL:g} s")
        try:
            buffer = self.service.get_result(token, tid, timeout=timeout)
        except TaskExecutionFailed as exc:
            # Text-only failure (no serialized wrapper to hand back).
            return Response(200, {"task_id": tid, "status": "failed",
                                  "error": str(exc)})
        return Response(200, {"task_id": tid, "result": _encode(buffer)})
