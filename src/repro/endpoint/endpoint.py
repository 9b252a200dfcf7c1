"""Endpoint assembly: agent + managers + provider on one resource.

This is the deployable unit — what ``funcx-endpoint start`` would launch.
It wires the agent to its managers over channels, starts the threads, and
exposes the fault-injection and elasticity hooks the evaluation uses.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable

from repro.endpoint.agent import FuncXAgent
from repro.endpoint.config import EndpointConfig
from repro.endpoint.manager import Manager
from repro.metrics.registry import MetricsRegistry
from repro.providers.base import ExecutionProvider
from repro.transport.channel import ChannelEnd, Network


class Endpoint:
    """A running funcX endpoint.

    Parameters
    ----------
    endpoint_id:
        Service-assigned endpoint UUID.
    forwarder_channel:
        Agent side of the channel to this endpoint's forwarder.
    config:
        Endpoint configuration.
    network:
        Channel factory for agent↔manager links (intra-site latency).
    nodes:
        Managers (compute nodes) to start with.
    provider:
        Optional resource provider (recorded for scaling decisions; the
        live fabric provisions managers directly as threads).
    manager_latency:
        One-way agent↔manager channel latency, seconds.
    """

    def __init__(
        self,
        endpoint_id: str,
        forwarder_channel: ChannelEnd,
        config: EndpointConfig | None = None,
        network: Network | None = None,
        nodes: int = 1,
        provider: ExecutionProvider | None = None,
        manager_latency: float = 0.0,
        clock: Callable[[], float] | None = None,
        metrics: MetricsRegistry | None = None,
        sleeper: Callable[[float], None] | None = None,
    ):
        self.endpoint_id = endpoint_id
        self.config = config or EndpointConfig()
        self.network = network or Network(clock=clock)
        self.provider = provider
        self.manager_latency = manager_latency
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._sleep = sleeper or time.sleep
        self.metrics = metrics or MetricsRegistry(clock=self._clock)
        self.agent = FuncXAgent(
            endpoint_id=endpoint_id,
            forwarder_channel=forwarder_channel,
            config=self.config,
            clock=self._clock,
            metrics=self.metrics,
        )
        self.managers: dict[str, Manager] = {}
        # Called with each new Manager before it starts (scale_out
        # included) — the deployment uses this to sanitize its lock.
        self.on_manager_created: Callable[[Manager], None] | None = None
        self._node_seq = itertools.count(1)
        self._lock = threading.RLock()
        self._started = False
        for _ in range(nodes):
            self._create_manager()

    # ------------------------------------------------------------------
    def _create_manager(self) -> Manager:
        manager_id = f"{self.endpoint_id[:8]}-mgr{next(self._node_seq)}"
        channel = self.network.create_channel(
            f"agent<->{manager_id}", latency=self.manager_latency)
        manager = Manager(
            manager_id=manager_id,
            channel=channel.left,
            config=self.config,
            clock=self._clock,
            metrics=self.metrics,
        )
        self.agent.attach_manager(manager_id, channel.right)
        if self.on_manager_created is not None:
            self.on_manager_created(manager)
        with self._lock:
            self.managers[manager_id] = manager
        if self._started:
            manager.start()
        return manager

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        with self._lock:
            if self._started:
                raise RuntimeError("endpoint already started")
            self._started = True
            managers = list(self.managers.values())
        for manager in managers:
            manager.start()
        self.agent.start()

    def stop(self) -> None:
        self.agent.stop()
        with self._lock:
            managers = list(self.managers.values())
            self._started = False
        for manager in managers:
            manager.stop()

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until a manager has registered capacity with the agent.

        An endpoint with no managers (scale-from-zero) is ready at once.
        """
        deadline = self._clock() + timeout
        while self.managers and self.agent.total_capacity() == 0:
            if self._clock() >= deadline:
                return False
            self._sleep(0.005)
        return True

    # ------------------------------------------------------------------
    # elasticity hooks
    # ------------------------------------------------------------------
    def scale_out(self, nodes: int = 1) -> list[str]:
        """Add managers (the live analogue of provisioning blocks)."""
        added = []
        for _ in range(nodes):
            manager = self._create_manager()  # starts it if the endpoint runs
            added.append(manager.manager_id)
        return added

    def scale_in(self, manager_id: str) -> bool:
        """Shut one manager down and release its resources."""
        with self._lock:
            manager = self.managers.pop(manager_id, None)
        if manager is None:
            return False
        self.agent.shutdown_manager(manager_id)
        manager.stop()
        return True

    @property
    def total_workers(self) -> int:
        with self._lock:
            return sum(m.worker_count for m in self.managers.values())

    # ------------------------------------------------------------------
    # fault injection (section 5.4)
    # ------------------------------------------------------------------
    def skew_heartbeats(self, skew: float) -> None:
        """Add ``skew`` seconds to every component's heartbeat period.

        A skew larger than the peer's grace window silences heartbeats
        long enough for the agent/forwarder watchdogs to declare the
        component lost; resetting to ``0.0`` lets it flap back.
        """
        self.agent.heartbeat_skew = skew
        with self._lock:
            managers = list(self.managers.values())
        for manager in managers:
            manager.heartbeat_skew = skew

    def kill_manager(self, manager_id: str) -> Manager:
        """Terminate a manager abruptly; in-flight tasks are lost with it."""
        with self._lock:
            manager = self.managers.pop(manager_id, None)
        if manager is None:
            raise KeyError(manager_id)
        manager.kill()
        return manager

    def restart_manager(self) -> Manager:
        """Bring up a replacement manager (the §5.4 recovery step)."""
        return self._create_manager()

    def kill_endpoint(self) -> None:
        """Simulate the whole endpoint going offline: the agent's channel
        to the forwarder drops and the agent thread halts."""
        self.agent.stop()
        self.agent.forwarder.disconnect()

    def recover_endpoint(self) -> None:
        """Endpoint comes back: reconnect and repeat registration (§4.3)."""
        self.agent.forwarder.reconnect()
        self.agent.start()
