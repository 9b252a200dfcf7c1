"""Span-based trace contexts — kept only for the repo benchmark's
``trace.span_us`` drive.

No module under ``src/repro`` imports this one: a task's per-stage
timeline lives on its record (``Task.state_times``, stamped by each hop
onto the messages it builds; :data:`repro.core.tasks.STAGES`).  The
benchmark's ``trace.span_us`` drive still times
``TraceStore().open(...).record(...)``, and the benchmark moves first
(ROADMAP item 5(a)): this module goes in one step once that drive no
longer names it.
"""

from __future__ import annotations

import json
import threading
import uuid
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

#: Entries one ``TraceStore.open`` may examine when evicting.
_EVICT_SCAN = 4

#: Canonical stage order of the figure-4 latency decomposition.
STAGES: tuple[str, ...] = (
    "service",
    "forwarder.dispatch",
    "agent",
    "manager",
    "worker",
    "result_return",
)


@dataclass
class Span:
    """One timed stage of a task's journey through the fabric."""

    name: str
    component: str
    start: float
    end: float | None = None
    attempt: int = 0
    annotations: dict[str, Any] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    def to_record(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "component": self.component,
            "start": self.start,
            "end": self.end,
            "attempt": self.attempt,
            "annotations": dict(self.annotations),
        }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            component=record.get("component", ""),
            start=record["start"],
            end=record.get("end"),
            attempt=record.get("attempt", 0),
            annotations=dict(record.get("annotations", {})),
        )


class TraceContext:
    """The per-task trace: a trace id plus the spans recorded so far.

    Thread-safe: stages on different threads (forwarder, agent, manager,
    worker) record into the same context as the task hops between them.
    A finalized context (see :meth:`close`) silently ignores further
    recording — late spans can only come from duplicate deliveries of an
    already-completed task and must not perturb the finished trace.
    """

    def __init__(self, task_id: str, trace_id: str | None = None,
                 opened_at: float = 0.0):
        self.task_id = task_id
        self.trace_id = trace_id or uuid.uuid4().hex
        self.opened_at = opened_at
        self.closed_at: float | None = None
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self.closed_at is not None

    def begin(self, name: str, component: str, at: float, attempt: int = 0,
              **annotations: Any) -> Span | None:
        """Open a span; it joins :attr:`spans` once :meth:`end` closes it."""
        with self._lock:
            if self.closed:
                return None
            span = Span(name=name, component=component, start=at,
                        attempt=attempt, annotations=dict(annotations))
            self._open.append(span)
            return span

    def end(self, name: str, at: float, **annotations: Any) -> Span | None:
        """Close the most recently opened span named ``name`` (no-op if none)."""
        with self._lock:
            if self.closed:
                return None
            for span in reversed(self._open):
                if span.name == name:
                    self._open.remove(span)
                    span.end = at
                    span.annotations.update(annotations)
                    self.spans.append(span)
                    return span
            return None

    def record(self, name: str, component: str, start: float, end: float,
               attempt: int = 0, **annotations: Any) -> Span | None:
        """Record an already-completed span in one shot."""
        with self._lock:
            if self.closed:
                return None
            span = Span(name=name, component=component, start=start, end=end,
                        attempt=attempt, annotations=dict(annotations))
            self.spans.append(span)
            return span

    def close(self, at: float) -> None:
        """Finalize the trace; subsequent recording becomes a no-op."""
        with self._lock:
            if self.closed:
                return
            self.closed_at = at

    # -- reading -------------------------------------------------------------
    def completed_spans(self) -> list[Span]:
        with self._lock:
            return list(self.spans)

    def breakdown(self) -> dict[str, float]:
        """Stage → duration for the figure-4 decomposition.

        Uses the *last* completed span per stage so a re-executed task
        (at-least-once delivery) reports the attempt that actually
        produced the result.
        """
        out: dict[str, float] = {}
        for span in self.completed_spans():
            if span.end is not None:
                out[span.name] = span.end - span.start
        return out

    def total(self) -> float | None:
        """Observed end-to-end latency (open → close)."""
        if self.closed_at is None:
            return None
        return self.closed_at - self.opened_at

    # -- wire format ---------------------------------------------------------
    def to_record(self) -> dict[str, Any]:
        with self._lock:
            return {
                "trace_id": self.trace_id,
                "task_id": self.task_id,
                "opened_at": self.opened_at,
                "closed_at": self.closed_at,
                "spans": [s.to_record() for s in self.spans],
            }

    @classmethod
    def from_record(cls, record: dict[str, Any]) -> "TraceContext":
        ctx = cls(
            task_id=record["task_id"],
            trace_id=record.get("trace_id"),
            opened_at=record.get("opened_at", 0.0),
        )
        ctx.closed_at = record.get("closed_at")
        ctx.spans = [Span.from_record(s) for s in record.get("spans", [])]
        return ctx

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self.closed else "open"
        return (f"TraceContext({self.trace_id[:8]}, task={self.task_id[:8]}, "
                f"{len(self.spans)} spans, {state})")


class TraceStore:
    """The service-side collection of task traces.

    Parameters
    ----------
    clock:
        Injectable time source (shared with the owning service).
    enabled:
        When ``False`` every method degrades to a no-op returning ``None``
        so the whole fabric runs trace-free (the overhead-bench baseline).
    capacity:
        Retention bound: once exceeded, the oldest *finalized* traces are
        evicted first (live traces are never dropped).
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 enabled: bool = True, capacity: int = 100_000):
        import time as _time

        self._clock = clock or _time.monotonic  # clock-domain: monotonic
        self.enabled = enabled
        self.capacity = capacity
        self._traces: "OrderedDict[str, TraceContext]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    # -- lifecycle -----------------------------------------------------------
    def open(self, task_id: str, at: float | None = None) -> TraceContext | None:
        """Open (or return the existing) trace for ``task_id``."""
        if not self.enabled:
            return None
        at = at if at is not None else self._clock()
        with self._lock:
            ctx = self._traces.get(task_id)
            if ctx is None:
                ctx = TraceContext(task_id=task_id, opened_at=at)
                self._traces[task_id] = ctx
                self._evict_locked()
            return ctx

    def context_for(self, task_id: str) -> TraceContext | None:
        """The live context for ``task_id`` (``None`` if disabled/unknown)."""
        with self._lock:
            return self._traces.get(task_id)

    def finalize(self, task_id: str, at: float | None = None) -> TraceContext | None:
        ctx = self.context_for(task_id)
        if ctx is not None:
            ctx.close(at if at is not None else self._clock())
        return ctx

    def trace_id_for(self, task_id: str) -> str | None:
        ctx = self.context_for(task_id)
        return ctx.trace_id if ctx is not None else None

    def _evict_locked(self) -> None:
        """Drop the oldest finalized traces while over capacity.

        Looks at no more than ``_EVICT_SCAN`` entries from the old end
        per call, so an ``open`` on a full store costs the same as on
        an empty one.  A live trace found there moves to the young end
        (it is never dropped, and is not looked at again until the
        store has turned over), so the store may sit over capacity by
        the number of live traces.
        """
        traces = self._traces
        for _ in range(_EVICT_SCAN):
            if len(traces) <= self.capacity:
                return
            task_id = next(iter(traces))
            if traces[task_id].closed:
                del traces[task_id]
            else:
                traces.move_to_end(task_id)

    # -- export --------------------------------------------------------------
    def all_contexts(self) -> list[TraceContext]:
        with self._lock:
            return list(self._traces.values())

    def dump_jsonl(self, path: str) -> int:
        """Write one JSON record per trace; returns the number written."""
        contexts = self.all_contexts()
        with open(path, "w", encoding="utf-8") as fh:
            for ctx in contexts:
                fh.write(json.dumps(ctx.to_record(), sort_keys=True) + "\n")
        return len(contexts)

    @staticmethod
    def load_jsonl(path: str) -> list[TraceContext]:
        """Load a dump produced by :meth:`dump_jsonl`."""
        contexts: list[TraceContext] = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    contexts.append(TraceContext.from_record(json.loads(line)))
        return contexts


def aggregate_breakdowns(contexts: Iterable[TraceContext]) -> dict[str, list[float]]:
    """Pool stage durations across many traces (bench/CLI aggregation)."""
    pooled: dict[str, list[float]] = {}
    for ctx in contexts:
        for stage, duration in ctx.breakdown().items():
            pooled.setdefault(stage, []).append(duration)
    return pooled
