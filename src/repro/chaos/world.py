"""A fully-instrumented live deployment for chaos testing.

:class:`ChaosWorld` wraps a :class:`~repro.fabric.LocalDeployment`,
subscribes its invariant registry to the deployment's event spine
(queues, channels, shards, service, memoizer, forwarders, futures),
knows how to apply each fault-plan action, and can account for every
non-terminal task at quiescence — the basis of the *no-task-lost*
invariant.

Typical use (also packaged as the ``chaos_world`` pytest fixture)::

    with ChaosWorld(seed=7) as world:
        world.add_endpoint("ep", nodes=2)
        plan = generate_plan("disconnect", seed=7, duration=1.0,
                             endpoints=["ep"], disconnects=1)
        client = world.client()
        ...submit tasks while world.start_plan(plan) runs...
        world.finish_plan()
        world.drain()
        report = world.check_final()
        assert report.ok, report.describe()
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chaos.invariants import Invariant, InvariantRegistry, InvariantViolation
from repro.chaos.plan import FaultPlan, FaultStep
from repro.chaos.scheduler import ChaosScheduler, ScheduleResult
from repro.core.service import ServiceConfig
from repro.endpoint.config import EndpointConfig
from repro.fabric import LocalDeployment

ARTIFACT_VERSION = 1


@dataclass
class _EndpointHooks:
    """Everything the chaos machinery holds for one endpoint."""

    name: str
    endpoint_id: str
    endpoint: Any
    forwarder: Any
    channel: Any
    queue: Any
    spec: dict[str, Any]


@dataclass
class ChaosReport:
    """Outcome of a chaos run: invariant verdicts plus what was applied."""

    ok: bool
    violations: list[InvariantViolation] = field(default_factory=list)
    schedule: ScheduleResult | None = None
    events_seen: int = 0

    def describe(self) -> str:
        if self.ok:
            applied = len(self.schedule.applied) if self.schedule else 0
            return (f"all invariants held ({self.events_seen} events, "
                    f"{applied} fault steps applied)")
        lines = [f"{len(self.violations)} invariant violation(s):"]
        lines.extend(f"  - {v.describe()}" for v in self.violations)
        return "\n".join(lines)


class ChaosWorld:
    """A live deployment with invariant checks and fault-action hooks.

    Parameters
    ----------
    seed:
        Deployment seed (channel RNGs) — with the fault plan's seed, the
        full experiment is reproducible.
    max_retries:
        Service-side retry budget per task.
    invariants:
        Override the default invariant set (``None`` = all built-ins).
    sanitize_locks:
        Run the deployment with the runtime lock-order sanitizer
        (:mod:`repro.analysis.sanitizer`); the recorder is reachable as
        ``world.deployment.lock_recorder``.
    """

    def __init__(self, seed: int = 0, *, max_retries: int = 8,
                 invariants: list[Invariant] | None = None,
                 clock: Callable[[], float] | None = None,
                 sleeper: Callable[[float], None] | None = None,
                 sanitize_locks: bool = False,
                 shards: int = 1):
        self.seed = seed
        self.max_retries = max_retries
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._sleep = sleeper or time.sleep
        self.registry = InvariantRegistry(invariants)
        self.deployment = LocalDeployment(
            seed=seed,
            service_config=ServiceConfig(default_max_retries=max_retries,
                                         shards=shards),
            sanitize_locks=sanitize_locks,
        )
        self._subscription = self.deployment.service.events.subscribe(
            self.registry.dispatch)
        self.scheduler = ChaosScheduler(self)
        self.hooks: dict[str, _EndpointHooks] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # world building
    # ------------------------------------------------------------------
    def add_endpoint(
        self,
        name: str,
        nodes: int = 1,
        workers_per_node: int = 4,
        drop_probability: float = 0.0,
        latency: float = 0.001,
        heartbeat_period: float = 0.05,
        heartbeat_grace: int = 6,
        lease_timeout: float | None = 0.5,
    ) -> str:
        """Deploy one instrumented endpoint; returns its endpoint id.

        The endpoint is brought up on a clean channel and the requested
        ``drop_probability`` is applied only once it is observably
        connected, so a lossy world never eats its own registration.
        """
        if name in self.hooks:
            raise ValueError(f"endpoint {name!r} already exists")
        spec = {
            "nodes": nodes,
            "workers_per_node": workers_per_node,
            "drop_probability": drop_probability,
            "latency": latency,
            "heartbeat_period": heartbeat_period,
            "heartbeat_grace": heartbeat_grace,
            "lease_timeout": lease_timeout,
        }
        config = EndpointConfig(
            workers_per_node=workers_per_node,
            heartbeat_period=heartbeat_period,
            heartbeat_grace=heartbeat_grace,
        )
        endpoint_id = self.deployment.create_endpoint(
            name, nodes=nodes, config=config, start=False
        )
        endpoint = self.deployment.endpoint(endpoint_id)
        forwarder = self.deployment.forwarder(endpoint_id)
        channel = self.deployment.network.find(f"svc<->{name}")
        assert channel is not None
        queue = self.deployment.service.task_queue(endpoint_id)
        forwarder.lease_timeout = lease_timeout
        channel.set_latency(latency)
        forwarder.start()
        endpoint.start()
        if not endpoint.wait_ready():
            raise RuntimeError(
                f"endpoint {name!r}: none of its {nodes} manager(s) "
                "registered capacity with the agent within 10 s")
        deadline = self._clock() + 10.0
        while not self.deployment.service.endpoints.get(endpoint_id).connected:
            if self._clock() >= deadline:
                raise RuntimeError(
                    f"endpoint {name!r}: the agent's registration did "
                    "not reach its forwarder within 10 s")
            self._sleep(0.005)
        channel.drop_probability = drop_probability

        self.hooks[name] = _EndpointHooks(
            name=name, endpoint_id=endpoint_id, endpoint=endpoint,
            forwarder=forwarder, channel=channel, queue=queue, spec=spec,
        )
        return endpoint_id

    def client(self, username: str = "chaos-researcher"):
        return self.deployment.client(username)

    def endpoint_id(self, name: str) -> str:
        return self.hooks[name].endpoint_id

    def _hooks_for(self, target: str) -> _EndpointHooks:
        try:
            return self.hooks[target]
        except KeyError:
            raise KeyError(f"fault step targets unknown endpoint {target!r}") from None

    # ------------------------------------------------------------------
    # fault-action dispatch (called by the scheduler)
    # ------------------------------------------------------------------
    def apply_step(self, step: FaultStep) -> None:
        if step.action == "pause":
            return
        if step.action in ("kill_shard", "restart_shard"):
            # Service-side faults: the target is a shard index, not an
            # endpoint.  Killing a shard drains it and yanks every
            # outstanding queue lease (the shard process dying under its
            # forwarders); the at-least-once machinery must redeliver.
            service = self.deployment.service
            index = int(step.param("shard", 0))
            if not 0 <= index < len(service.shards):
                raise ValueError(
                    f"shard {index} out of range (0..{len(service.shards) - 1})")
            if step.action == "kill_shard":
                service.shards[index].kill()
            else:
                service.restart_shard(index)
            return
        hooks = self._hooks_for(step.target)
        if step.action == "set_drop":
            hooks.channel.drop_probability = float(step.param("probability", 0.0))
        elif step.action == "set_latency":
            hooks.channel.set_latency(float(step.param("latency", 0.0)))
        elif step.action == "disconnect_endpoint":
            hooks.endpoint.kill_endpoint()
        elif step.action == "reconnect_endpoint":
            hooks.endpoint.recover_endpoint()
        elif step.action == "kill_manager":
            managers = sorted(hooks.endpoint.managers)
            if not managers:
                raise RuntimeError(f"endpoint {step.target!r} has no manager to kill")
            index = min(int(step.param("index", 0)), len(managers) - 1)
            hooks.endpoint.kill_manager(managers[index])
        elif step.action == "restart_manager":
            hooks.endpoint.restart_manager()
        elif step.action == "skew_heartbeats":
            hooks.endpoint.skew_heartbeats(float(step.param("skew", 0.0)))
        else:
            raise ValueError(f"unhandled fault action {step.action!r}")

    # ------------------------------------------------------------------
    # plan execution
    # ------------------------------------------------------------------
    def run_plan(self, plan: FaultPlan) -> ScheduleResult:
        """Apply ``plan`` synchronously (blocks for its full duration)."""
        return self.scheduler.run(plan)

    def start_plan(self, plan: FaultPlan) -> None:
        """Apply ``plan`` on a background thread (submit tasks meanwhile)."""
        self.scheduler.run_async(plan)

    def finish_plan(self, timeout: float = 60.0) -> ScheduleResult | None:
        return self.scheduler.join(timeout)

    def drain(self, timeout: float = 30.0) -> bool:
        """Wait for every endpoint to have no outstanding tasks."""
        ok = True
        for hooks in self.hooks.values():
            ok = self.deployment.drain(hooks.endpoint_id, timeout=timeout) and ok
        return ok

    # ------------------------------------------------------------------
    # task accounting (the no-task-lost invariant)
    # ------------------------------------------------------------------
    def unaccounted_tasks(self) -> list[tuple[str, str, str]]:
        """Non-terminal tasks unreachable by any redelivery path.

        A live task must be in its endpoint's reliable queue (ready or
        under a lease) or — while the endpoint is observably connected —
        held by the agent or a manager.  A dispatched task whose message
        is still in channel flight remains covered by its queue lease, so
        this accounting has no in-flight blind spot.  Tasks held only by a
        *disconnected* endpoint don't count: once the forwarder declares
        the agent lost, the service must own redelivery itself.  Anything
        outside that union can never complete nor be redelivered: it is
        permanently lost.
        """
        by_endpoint: dict[str, set[str]] = {}
        for hooks in self.hooks.values():
            accounted: set[str] = set()
            ready, leased = hooks.queue.snapshot_items()
            accounted.update(ready)
            accounted.update(leased)
            if hooks.forwarder.agent_connected:
                accounted.update(hooks.endpoint.agent.tracked_task_ids())
                for manager in list(hooks.endpoint.managers.values()):
                    accounted.update(manager.tracked_task_ids())
            by_endpoint[hooks.endpoint_id] = accounted
        lost: list[tuple[str, str, str]] = []
        for task in self.deployment.service.iter_tasks():
            if task.state.terminal:
                continue
            accounted = by_endpoint.get(task.endpoint_id, set())
            if task.task_id not in accounted:
                lost.append((task.task_id, task.state.name, task.endpoint_id))
        return lost

    # ------------------------------------------------------------------
    # verdicts & artifacts
    # ------------------------------------------------------------------
    def suspect_step(self, endpoint_id: str) -> FaultStep | None:
        """The applied fault step most plausibly behind a lost task.

        Quiescence checks run after the plan finishes (no step is
        current), so final violations are attributed to the last applied
        *disruptive* action against the task's endpoint — falling back to
        the last step targeting it at all.
        """
        result = self.scheduler.last_result
        if result is None:
            return None
        name = next((n for n, h in self.hooks.items()
                     if h.endpoint_id == endpoint_id), None)
        if name is None:
            return None
        disruptive = {"disconnect_endpoint", "kill_manager",
                      "skew_heartbeats", "set_drop"}
        fallback: FaultStep | None = None
        chosen: FaultStep | None = None
        for applied in result.applied:
            if applied.step.target != name:
                continue
            fallback = applied.step
            if applied.step.action in disruptive:
                chosen = applied.step
        return chosen or fallback

    def check_final(self, schedule: ScheduleResult | None = None) -> ChaosReport:
        """Run quiescence checks and produce the run's report."""
        self.registry.check_final(self)
        return ChaosReport(
            ok=self.registry.ok,
            violations=list(self.registry.violations),
            schedule=schedule if schedule is not None
            else self.scheduler.last_result,
            events_seen=self.registry.events_seen,
        )

    def artifact(self, plan: FaultPlan) -> dict[str, Any]:
        """A replayable failure artifact: world spec + fault plan."""
        return {
            "version": ARTIFACT_VERSION,
            "seed": self.seed,
            "world": {
                "max_retries": self.max_retries,
                "shards": len(self.deployment.service.shards),
                "endpoints": {name: dict(h.spec) for name, h in
                              sorted(self.hooks.items())},
            },
            "plan": plan.to_record(),
        }

    def save_artifact(self, path: str, plan: FaultPlan) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.artifact(plan), fh, sort_keys=True, indent=2)

    @classmethod
    def replay(cls, source: "str | dict[str, Any]",
               invariants: list[Invariant] | None = None,
               ) -> tuple["ChaosWorld", FaultPlan]:
        """Rebuild the world and plan recorded in a failure artifact.

        ``source`` is an artifact path or the already-loaded record.  The
        caller owns the returned world (use it as a context manager) and
        re-runs the plan to reproduce the failure deterministically.
        """
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                record = json.load(fh)
        else:
            record = source
        if record.get("version") != ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {record.get('version')!r}")
        world_spec = record["world"]
        world = cls(seed=record["seed"],
                    max_retries=world_spec.get("max_retries", 8),
                    invariants=invariants,
                    shards=world_spec.get("shards", 1))
        try:
            for name, spec in sorted(world_spec.get("endpoints", {}).items()):
                world.add_endpoint(name, **spec)
        except Exception:
            world.close()
            raise
        return world, FaultPlan.from_record(record["plan"])

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.scheduler.abort()
        self.deployment.shutdown()
        self.deployment.service.events.unsubscribe(self._subscription)

    def __enter__(self) -> "ChaosWorld":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
