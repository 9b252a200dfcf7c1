"""Monitoring: structured event history and live dashboards.

The paper's security model stores "execution request histories in the
funcX service and in logs on funcX endpoints" "to enable fine grained
tracking of execution" (§4.8), and the web UI exposes task monitoring.
:class:`TaskEventLog` provides that history — an append-only, queryable
stream of task state transitions — and :class:`Dashboard` derives the
operational views (state counts, per-endpoint load, completion rate)
that operators and the elasticity strategy consume.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.core.service import FuncXService
from repro.core.tasks import TaskState


@dataclass(frozen=True)
class TaskEvent:
    """One recorded state transition."""

    timestamp: float
    task_id: str
    state: str
    endpoint_id: str = ""
    function_id: str = ""
    owner_id: str = ""


class TaskEventLog:
    """Append-only task-event history with bounded memory.

    Parameters
    ----------
    capacity:
        Maximum retained events; the oldest are discarded first (the
        service-side history is bounded, full history lives in cold logs).
    """

    def __init__(self, capacity: int = 100_000,
                 clock: Callable[[], float] | None = None):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.Lock()
        self._events: list[TaskEvent] = []
        self._dropped = 0
        self._service: FuncXService | None = None
        self._subscription: int | None = None

    # ------------------------------------------------------------------
    def attach(self, service: FuncXService) -> None:
        """Record every terminal transition: each ``tasks.terminal``
        wave on ``service.events``."""
        if self._service is not None:
            raise RuntimeError("event log already attached")
        self._service = service

        def on_event(_source: str, kind: str, fields: dict) -> None:
            if kind != "tasks.terminal":
                return
            now = self._clock()
            for task in fields["tasks"]:
                self.record(
                    TaskEvent(
                        timestamp=now,
                        task_id=task.task_id,
                        state=task.state.value,
                        endpoint_id=task.endpoint_id,
                        function_id=task.function_id,
                        owner_id=task.owner_id,
                    )
                )

        self._subscription = service.events.subscribe(on_event)

    def detach(self) -> None:
        if self._service is not None and self._subscription is not None:
            self._service.events.unsubscribe(self._subscription)
        self._service = None
        self._subscription = None

    # ------------------------------------------------------------------
    def record(self, event: TaskEvent) -> None:
        with self._lock:
            self._events.append(event)
            overflow = len(self._events) - self.capacity
            if overflow > 0:
                del self._events[:overflow]
                self._dropped += overflow

    def events(
        self,
        task_id: str | None = None,
        endpoint_id: str | None = None,
        state: str | None = None,
        since: float | None = None,
    ) -> list[TaskEvent]:
        """Query the history with optional filters."""
        with self._lock:
            snapshot = list(self._events)
        out = snapshot
        if task_id is not None:
            out = [e for e in out if e.task_id == task_id]
        if endpoint_id is not None:
            out = [e for e in out if e.endpoint_id == endpoint_id]
        if state is not None:
            out = [e for e in out if e.state == state]
        if since is not None:
            out = [e for e in out if e.timestamp >= since]
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    # ------------------------------------------------------------------
    def completion_rate(self, window: float) -> float:
        """Successful completions per second over the trailing window."""
        now = self._clock()
        successes = self.events(state=TaskState.SUCCESS.value, since=now - window)
        return len(successes) / window if window > 0 else 0.0


class Dashboard:
    """Point-in-time operational views over a service + event log."""

    def __init__(self, service: FuncXService, event_log: TaskEventLog | None = None):
        self.service = service
        self.event_log = event_log

    # ------------------------------------------------------------------
    def state_counts(self) -> dict[str, int]:
        """How many tasks are currently in each lifecycle state."""
        counts: dict[str, int] = {state.value: 0 for state in TaskState}
        for shard in self.service.shards:
            shard.count_states(counts)
        return counts

    def endpoint_load(self) -> dict[str, dict[str, int | bool]]:
        """Per-endpoint queue depth and connectivity."""
        out: dict[str, dict[str, int | bool]] = {}
        for record in self.service.endpoints.all():
            out[record.endpoint_id] = {
                "name": record.name,
                "connected": record.connected,
                "queued": len(self.service.task_queue(record.endpoint_id)),
                "outstanding": self.service.outstanding_tasks(record.endpoint_id),
            }
        return out

    def memoizer_stats(self) -> dict[str, float]:
        memo = self.service.memoizer
        return {
            "entries": float(len(memo)),
            "hits": float(memo.hits),
            "misses": float(memo.misses),
            "hit_rate": memo.hit_rate,
        }

    def render(self) -> str:
        """A terminal-friendly snapshot."""
        lines = ["funcX dashboard", "=" * 60]
        lines.append("task states: " + ", ".join(
            f"{state}={count}" for state, count in self.state_counts().items()
            if count
        ))
        for _ep_id, info in sorted(self.endpoint_load().items()):
            status = "up" if info["connected"] else "DOWN"
            lines.append(
                f"  endpoint {info['name']:<16s} [{status:>4s}] "
                f"queued={info['queued']} outstanding={info['outstanding']}"
            )
        memo = self.memoizer_stats()
        lines.append(f"memoizer: {memo['entries']:.0f} entries, "
                     f"hit rate {memo['hit_rate']:.0%}")
        if self.event_log is not None:
            lines.append(f"events recorded: {len(self.event_log)} "
                         f"(dropped {self.event_log.dropped})")
        return "\n".join(lines)
