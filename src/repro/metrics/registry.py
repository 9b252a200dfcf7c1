"""A process-wide metrics registry: counters, gauges, histograms.

Replaces the ad-hoc integer counters that used to live on the service,
forwarder, agent and manager.  One registry is shared by every component
of a deployment (see :class:`~repro.fabric.LocalDeployment`), metrics are
identified by name plus a small label set (``counter("forwarder.tasks_forwarded",
endpoint=...)``), and the whole registry exports as JSON-lines or an
aligned text summary for the ``repro metrics`` CLI.

The clock is injectable so tests and simulations can stamp snapshots
deterministically.  All instruments are thread-safe — the live fabric
increments from forwarder/agent/manager/worker threads concurrently.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator

LabelKey = tuple[tuple[str, str], ...]

#: Default histogram buckets (seconds) — spans µs-scale span recording to
#: multi-second end-to-end task latencies.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for count-valued histograms (batch sizes): powers of two up
#: to the forwarder's per-step dispatch bound.
COUNT_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
)

#: Bounded per-histogram sample reservoir used for percentile summaries.
RESERVOIR_SIZE = 4096

#: Unfolded records a histogram lets pile up before the recording
#: thread folds them into its buckets: the bound on its backlog.
FOLD_AT = 256


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Gauge:
    """A value that can go up and down, or track a live callable."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelKey = ()):
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._fn: Callable[[], float] | None = None
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._fn = None
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_function(self, fn: Callable[[], float]) -> None:
        """Make the gauge pull its value from ``fn`` at read time."""
        with self._lock:
            self._fn = fn

    @property
    def value(self) -> float:
        with self._lock:
            fn = self._fn
            if fn is None:
                return self._value
        try:
            return float(fn())
        except Exception:
            return float("nan")

    def snapshot(self) -> dict[str, Any]:
        return {"kind": self.kind, "name": self.name,
                "labels": dict(self.labels), "value": self.value}


class Histogram:
    """A distribution: bucketed counts plus a bounded sample reservoir.

    Buckets give cheap fixed-memory distribution export; the reservoir
    (most recent :data:`RESERVOIR_SIZE` observations) backs the
    mean/percentile summaries the CLI and benches print.

    Recording takes no lock: it appends to an unfolded ``deque``
    (``append`` is atomic) that every read, and the recorder once
    :data:`FOLD_AT` values wait, folds in under the lock in recording
    order, so reads see what recording under the lock would have given.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: LabelKey = (),
                 buckets: tuple[float, ...] | None = None):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets or DEFAULT_BUCKETS))
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +inf tail
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: deque[float] = deque(maxlen=RESERVOIR_SIZE)
        self._unfolded: deque[float] = deque()
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self._unfolded.append(value)
        if len(self._unfolded) >= FOLD_AT:
            with self._lock:
                self._fold_locked()

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a wave of observations."""
        self._unfolded.extend(values)
        if len(self._unfolded) >= FOLD_AT:
            with self._lock:
                self._fold_locked()

    def _fold_locked(self) -> None:  # guarded-by: self._lock
        """Move the unfolded backlog into the buckets, oldest first."""
        for _ in range(len(self._unfolded)):
            value = self._unfolded.popleft()
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
            self._samples.append(value)
            # First bucket whose bound is >= value; past the last, +inf.
            self._bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        with self._lock:
            self._fold_locked()
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            self._fold_locked()
            return self._sum

    def samples(self) -> list[float]:
        """The sample reservoir, oldest first."""
        with self._lock:
            self._fold_locked()
            return list(self._samples)

    def summary(self) -> dict[str, float]:
        """Mean/median/p95/p99/min/max over the sample reservoir."""
        import numpy as np

        with self._lock:
            self._fold_locked()
            if not self._count:
                return {"count": 0}
            samples = np.asarray(self._samples, dtype=float)
            count, total = self._count, self._sum
            minimum, maximum = self._min, self._max
        return {
            "count": count,
            "mean": total / count,
            "min": minimum,
            "max": maximum,
            "median": float(np.median(samples)),
            "p95": float(np.percentile(samples, 95)),
            "p99": float(np.percentile(samples, 99)),
        }

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            self._fold_locked()
            buckets = {str(b): c for b, c in zip(self.buckets, self._bucket_counts)}
            buckets["+inf"] = self._bucket_counts[-1]
            record = {
                "kind": self.kind, "name": self.name, "labels": dict(self.labels),
                "count": self._count, "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
                "buckets": buckets,
            }
        if record["count"]:
            record.update({k: v for k, v in self.summary().items()
                           if k not in record})
        return record


class MetricsRegistry:
    """Get-or-create registry of named, labelled instruments.

    Parameters
    ----------
    clock:
        Injectable time source used to stamp exported snapshots and by
        :meth:`timer`.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or time.monotonic  # clock-domain: monotonic
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, str, LabelKey], Any] = {}

    # -- instrument factories ------------------------------------------------
    def _get_or_create(self, kind: str, name: str, labels: dict[str, Any],
                       factory: Callable[[], Any]) -> Any:
        key = (kind, name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory()
                self._metrics[key] = metric
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get_or_create(
            "counter", name, labels, lambda: Counter(name, _label_key(labels)))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get_or_create(
            "gauge", name, labels, lambda: Gauge(name, _label_key(labels)))

    def histogram(self, name: str, buckets: tuple[float, ...] | None = None,
                  **labels: Any) -> Histogram:
        return self._get_or_create(
            "histogram", name, labels,
            lambda: Histogram(name, _label_key(labels), buckets=buckets))

    @contextmanager
    def timer(self, name: str, **labels: Any) -> Iterator[None]:
        """Time a block into the histogram ``name`` (seconds)."""
        histogram = self.histogram(name, **labels)
        start = self._clock()
        try:
            yield
        finally:
            histogram.observe(self._clock() - start)

    # -- export --------------------------------------------------------------
    def instruments(self) -> list[Any]:
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def snapshot(self) -> list[dict[str, Any]]:
        """One record per instrument, stamped with the registry clock."""
        now = self._clock()
        records = []
        for metric in self.instruments():
            record = metric.snapshot()
            record["at"] = now
            records.append(record)
        return records

    def value(self, name: str, default: float = 0.0, **labels: Any) -> float:
        """Read a counter/gauge value without creating it."""
        for kind in ("counter", "gauge"):
            metric = self._metrics.get((kind, name, _label_key(labels)))
            if metric is not None:
                return metric.value
        return default

    def render_text(self) -> str:
        """An aligned human-readable summary (the ``repro metrics`` view)."""
        return render_records(self.snapshot())

    def dump_jsonl(self, path: str) -> int:
        records = self.snapshot()
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    @staticmethod
    def load_jsonl(path: str) -> list[dict[str, Any]]:
        records = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
        return records


def render_records(records: list[dict[str, Any]]) -> str:
    """Render exported metric records as an aligned text table."""
    lines = []
    for record in records:
        labels = record.get("labels") or {}
        label_text = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
        full = record["name"] + (f"{{{label_text}}}" if label_text else "")
        if record["kind"] == "histogram":
            if record.get("count"):
                lines.append(
                    f"{full:<52s} count={record['count']:<8d} "
                    f"mean={record.get('mean', 0.0) * 1e3:9.3f}ms "
                    f"p95={record.get('p95', 0.0) * 1e3:9.3f}ms "
                    f"max={(record.get('max') or 0.0) * 1e3:9.3f}ms"
                )
            else:
                lines.append(f"{full:<52s} count=0")
        else:
            value = record.get("value", 0.0)
            text = f"{value:.0f}" if float(value).is_integer() else f"{value:.4f}"
            lines.append(f"{full:<52s} {text}")
    return "\n".join(lines)
