"""Provider-driven elasticity for live endpoints (paper §4.4, §5.3).

"funcX endpoints dynamically scale and provision compute resources in
response to function load."  The live :class:`~repro.endpoint.endpoint.Endpoint`
exposes ``scale_out``/``scale_in``; this controller closes the loop: it
periodically evaluates the :class:`SimpleScalingStrategy` against the
agent's observed load, submits/cancels pilot jobs through the configured
:class:`ExecutionProvider`, and maps RUNNING blocks onto managers.

Stepped manually (tests) or on a thread (:meth:`start`).
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.endpoint.endpoint import Endpoint
from repro.providers.base import ExecutionProvider, JobState
from repro.providers.strategy import SimpleScalingStrategy
from repro.transport.wakeup import join_thread


class ElasticityController:
    """Keeps an endpoint's manager count tracking its task load.

    Parameters
    ----------
    endpoint:
        The live endpoint to scale.
    provider:
        Where blocks (nodes) come from; each RUNNING block backs one
        manager.
    strategy:
        The scaling policy; ``tasks_per_unit`` should match the
        endpoint's ``workers_per_node``.
    evaluation_period:
        Seconds between strategy evaluations in threaded mode.
    """

    #: strategy image key for the endpoint's single bare pool
    POOL = "default"

    def __init__(
        self,
        endpoint: Endpoint,
        provider: ExecutionProvider | None = None,
        strategy: SimpleScalingStrategy | None = None,
        evaluation_period: float = 0.5,
        clock: Callable[[], float] | None = None,
    ):
        self.endpoint = endpoint
        self.provider = provider or endpoint.provider
        if self.provider is None:
            raise ValueError("elasticity requires a provider")
        self.strategy = strategy or SimpleScalingStrategy(
            max_units_per_image=self.provider.limits.max_blocks,
            min_units_per_image=self.provider.limits.min_blocks,
            tasks_per_unit=endpoint.config.workers_per_node,
            parallelism=self.provider.limits.parallelism,
            idle_grace=5.0,
        )
        self.evaluation_period = evaluation_period
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._block_to_manager: dict[str, str] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Only the evaluate loop bumps these once start() has run; tests
        # that call evaluate() directly do so with no loop thread alive.
        self.scale_out_events = 0  # thread-confined: elasticity
        self.scale_in_events = 0  # thread-confined: elasticity

    # ------------------------------------------------------------------
    def observed_load(self) -> int:
        """Tasks pending at the agent plus tasks in flight to workers."""
        agent = self.endpoint.agent
        return agent.pending_count() + agent.outstanding_count()

    def step(self) -> None:
        """One control iteration: poll the provider, apply the strategy."""
        now = self._clock()
        # 1. materialize managers for blocks that just came up
        for job in self.provider.poll(now):
            if job.state is JobState.RUNNING and job.job_id not in self._block_to_manager:
                manager = self.endpoint.scale_out(1)[0]
                self._block_to_manager[job.job_id] = manager
        # 2. reap managers whose blocks died underneath them
        for job_id, manager_id in list(self._block_to_manager.items()):
            job = self.provider.job(job_id)
            if job is not None and job.state in (JobState.FAILED, JobState.COMPLETED):
                del self._block_to_manager[job_id]
                self.endpoint.scale_in(manager_id)
        # 3. strategy decisions
        load = {self.POOL: self.observed_load()}
        supply = {self.POOL: self.provider.active_blocks}
        for decision in self.strategy.decide(load, supply, now):
            if decision.action == "scale_out":
                for _ in range(decision.count):
                    if not self.provider.can_scale_out():
                        break
                    self.provider.submit(now)
                    self.scale_out_events += 1
            elif decision.action == "scale_in":
                self._scale_in(decision.count, now)

    def _scale_in(self, count: int, now: float) -> None:
        running = self.provider.jobs_in_state(JobState.RUNNING, JobState.PENDING)
        for job in running[:count]:
            if not self.provider.can_scale_in():
                break
            manager_id = self._block_to_manager.pop(job.job_id, None)
            self.provider.cancel(job.job_id, now)
            if manager_id is not None:
                self.endpoint.scale_in(manager_id)
            self.scale_in_events += 1

    # ------------------------------------------------------------------
    @property
    def active_managers(self) -> int:
        return len(self._block_to_manager)

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError("controller already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                self.step()
                self._stop.wait(self.evaluation_period)

        self._thread = threading.Thread(target=loop, name="elasticity", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            join_thread(self._thread, timeout)
            self._thread = None
