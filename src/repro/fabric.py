"""Live-fabric deployment helper.

Wires a complete funcX installation in one process: auth service, web
service, forwarders, and endpoints with real worker threads executing
real Python functions.  This is the entry point examples and integration
tests use:

.. code-block:: python

    with LocalDeployment() as deployment:
        client = deployment.client()
        ep = deployment.create_endpoint("my-laptop", nodes=1)
        fid = client.register_function(my_function)
        future = client.submit(fid, ep, 1, 2)
        print(future.result(timeout=10))

Network latencies are injectable per deployment so the latency benchmarks
can model WAN placement (the paper submits from an ANL login node 18.2 ms
from the service, §5.1).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.auth.service import AuthService, Identity
from repro.core.client import FuncXClient
from repro.core.forwarder import Forwarder
from repro.core.service import FuncXService, ServiceConfig
from repro.endpoint.config import EndpointConfig
from repro.endpoint.endpoint import Endpoint
from repro.metrics.registry import MetricsRegistry
from repro.providers.base import ExecutionProvider
from repro.transport.channel import Network

if TYPE_CHECKING:  # the analyzer loads only for a sanitized deployment
    from repro.analysis.sanitizer import (
        AccessRecorder,
        LockOrderRecorder,
        ProtocolRecorder,
    )


@dataclass
class DeploymentTimings:
    """Injectable latency model for a deployment.

    Attributes
    ----------
    service_endpoint_latency:
        One-way service↔endpoint (forwarder↔agent) channel latency, s.
    service_endpoint_transfer_cost:
        Per-transfer serial occupancy of the service↔endpoint link, s —
        models per-message framing/syscall overhead.  Individual sends
        serialize on the link; a coalesced batch pays it once, which is
        what message batching amortizes.
    manager_latency:
        One-way agent↔manager latency, s.
    service_overhead:
        Synchronous per-request web-service processing time, s (the ts
        component: auth + store round trips).
    """

    service_endpoint_latency: float = 0.0
    service_endpoint_transfer_cost: float = 0.0
    manager_latency: float = 0.0
    service_overhead: float = 0.0


@dataclass
class _EndpointHandle:
    endpoint: Endpoint
    forwarder: Forwarder


class LocalDeployment:
    """A complete in-process funcX deployment (context manager).

    Parameters
    ----------
    timings:
        Channel/service latency model (defaults to zero latency).
    service_config:
        Web-service tunables; ``request_overhead`` is overridden by
        ``timings.service_overhead`` when that is non-zero.
    sanitize_locks:
        Wrap the fabric's locks in :class:`repro.analysis.sanitizer.
        SanitizedLock` so lock-order edges, contention, and hold-time
        outliers are recorded at runtime (``self.lock_recorder``).
    """

    def __init__(
        self,
        timings: DeploymentTimings | None = None,
        service_config: ServiceConfig | None = None,
        seed: int | None = None,
        sanitize_locks: bool = False,
    ):
        self.timings = timings or DeploymentTimings()
        config = service_config or ServiceConfig()
        if self.timings.service_overhead > 0:
            config = dataclasses.replace(
                config, request_overhead=self.timings.service_overhead)
        self.auth = AuthService()
        # One registry shared by every component of the deployment — the
        # process-wide view the ``repro metrics`` CLI exports.
        self.metrics = MetricsRegistry()
        self.service = FuncXService(auth=self.auth, config=config,
                                    metrics=self.metrics)
        self.network = Network(seed=seed, events=self.service.events)
        self._seed = seed
        self._handles: dict[str, _EndpointHandle] = {}
        self._identities: dict[str, Identity] = {}
        self._lock = threading.RLock()
        self._closed = False
        # Runtime lock-order sanitizer (opt-in).  Metrics and
        # invariant-registry locks stay unwrapped on purpose: they are
        # leaf locks acquired from inside every component, and wrapping
        # them would add runtime edges the static graph cannot model.
        self.lock_recorder: LockOrderRecorder | None = None
        self.protocol_recorder: ProtocolRecorder | None = None
        self.access_recorder: AccessRecorder | None = None
        if sanitize_locks:
            from repro.analysis.sanitizer import (
                AccessRecorder,
                LockOrderRecorder,
                ProtocolRecorder,
                sanitize_events,
                sanitize_lock,
                sanitize_result_stream,
            )

            self.lock_recorder = LockOrderRecorder(metrics=self.metrics)
            # The service plane's state locks live on the shards now; the
            # facade itself is stateless.
            for shard in self.service.shards:
                sanitize_lock(shard, self.lock_recorder,
                              class_name="ServiceShard._lock")
            # Resource-protocol twin: record every subscription / stream
            # event so chaos runs can assert the runtime trace is a
            # subset of the statically-declared protocol sites.
            self.protocol_recorder = ProtocolRecorder(metrics=self.metrics)
            sanitize_events(self.service.events, self.protocol_recorder)
            sanitize_result_stream(self.service.result_stream,
                                   self.protocol_recorder)
            # Thread-role twin: tag shared-attribute accesses with the
            # accessing thread's role so chaos runs can assert observed
            # cross-role attrs ⊆ the statically inferred shared-set.
            self.access_recorder = AccessRecorder(metrics=self.metrics)

    # ------------------------------------------------------------------
    # identities & clients
    # ------------------------------------------------------------------
    def register_user(self, username: str, provider: str = "institution") -> Identity:
        identity = self.auth.register_identity(username, provider=provider)
        self._identities[username] = identity
        return identity

    def client(self, username: str = "researcher") -> FuncXClient:
        """An SDK client for ``username`` (registered on first use)."""
        identity = self._identities.get(username) or self.register_user(username)
        return FuncXClient(self.service, identity)

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def create_endpoint(
        self,
        name: str,
        nodes: int = 1,
        config: EndpointConfig | None = None,
        owner: str = "endpoint-admin",
        provider: ExecutionProvider | None = None,
        start: bool = True,
        public: bool = True,
    ) -> str:
        """Deploy an endpoint and its forwarder; returns the endpoint id."""
        with self._lock:
            if self._closed:
                raise RuntimeError("deployment is closed")
        # Endpoints are native auth clients (§4.8).
        ep_identity, ep_token = self.auth.endpoint_client_flow(name)
        endpoint_id = self.service.register_endpoint(
            ep_token.token, name=name, public=public,
            metadata={"nodes": nodes},
        )
        channel = self.network.create_channel(
            f"svc<->{name}", latency=self.timings.service_endpoint_latency,
            transfer_cost=self.timings.service_endpoint_transfer_cost,
        )
        config = config or EndpointConfig()
        forwarder = Forwarder(
            service=self.service,
            endpoint_id=endpoint_id,
            channel_end=channel.left,
            heartbeat_period=config.heartbeat_period,
            heartbeat_grace=config.heartbeat_grace,
        )
        endpoint = Endpoint(
            endpoint_id=endpoint_id,
            forwarder_channel=channel.right,
            config=config,
            network=self.network,
            nodes=nodes,
            provider=provider,
            manager_latency=self.timings.manager_latency,
            metrics=self.metrics,
        )
        handle = _EndpointHandle(endpoint=endpoint, forwarder=forwarder)
        if self.lock_recorder is not None:
            from repro.analysis.sanitizer import sanitize_access, sanitize_lock

            # Wrap before any thread starts — the swap is not atomic.
            recorder = self.lock_recorder
            sanitize_lock(forwarder, recorder, class_name="Forwarder._lock")
            sanitize_lock(endpoint, recorder, class_name="Endpoint._lock")
            sanitize_lock(endpoint.agent, recorder,
                          class_name="FuncXAgent._lock")
            for manager in endpoint.managers.values():
                sanitize_lock(manager, recorder, class_name="Manager._lock")

            def _on_manager(m, _rec=recorder):
                sanitize_lock(m, _rec, class_name="Manager._lock")

            endpoint.on_manager_created = _on_manager
            sanitize_lock(self.service.task_queue(endpoint_id), recorder,
                          class_name="ReliableQueue._lock")
            access = self.access_recorder
            if access is not None:
                # Thread-role twin: track the attrs the static pass puts
                # in the cross-role shared-set (and the ones it waived —
                # a waiver a chaos run disproves should fail the gate).
                for end in (channel.left, channel.right):
                    sanitize_access(end, access,
                                    ("sent_count", "received_count"),
                                    class_name="ChannelEnd")
                sanitize_access(forwarder, access,
                                ("incarnation", "_registered_incarnation"),
                                class_name="Forwarder")
                sanitize_access(endpoint.agent, access,
                                ("_last_heartbeat", "_last_credit_sent"),
                                class_name="FuncXAgent")
                for manager in endpoint.managers.values():
                    sanitize_access(manager, access,
                                    ("_last_heartbeat", "_last_advertised"),
                                    class_name="Manager")
        with self._lock:
            self._handles[endpoint_id] = handle
        if start:
            forwarder.start()
            endpoint.start()
            if not endpoint.wait_ready():
                raise RuntimeError(
                    f"endpoint {name!r}: none of its {nodes} manager(s) "
                    "registered capacity with the agent within 10 s")
            # Also wait for the agent's registration to reach the forwarder
            # so the endpoint is observably connected before we return.
            deadline = time.monotonic() + 10.0
            while not self.service.endpoints.get(endpoint_id).connected:
                if time.monotonic() >= deadline:
                    raise RuntimeError(
                        f"endpoint {name!r}: the agent's registration did "
                        "not reach its forwarder within 10 s")
                time.sleep(0.005)
        return endpoint_id

    def endpoint(self, endpoint_id: str) -> Endpoint:
        return self._handles[endpoint_id].endpoint

    def forwarder(self, endpoint_id: str) -> Forwarder:
        return self._handles[endpoint_id].forwarder

    def endpoints(self) -> list[str]:
        with self._lock:
            return sorted(self._handles)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self, endpoint_id: str, timeout: float = 30.0) -> bool:
        """Wait until the endpoint has no outstanding tasks."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.service.outstanding_tasks(endpoint_id) == 0:
                return True
            time.sleep(0.005)
        return False

    def shutdown(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles = list(self._handles.values())
        for handle in handles:
            handle.endpoint.stop()
            handle.forwarder.stop()
        self.service.close()
        self.network.close_all()

    def __enter__(self) -> "LocalDeployment":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
