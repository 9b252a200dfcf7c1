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
from array import array
from bisect import bisect_right
import time
from collections import deque
from functools import reduce
from itertools import count as numbered, filterfalse, islice
from math import isnan
from operator import add
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

#: Each histogram's fold phase: the n-th built folds when its record
#: count plus n reaches a multiple of :data:`FOLD_AT`, so histograms fed
#: one value per task, built fewer than ``FOLD_AT`` apart, never fold on
#: the same task.
_phases = numbered()


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
    (most recent :data:`RESERVOIR_SIZE` observations, a ring of
    doubles) backs the mean/percentile summaries the CLI and benches
    print.

    Recording takes no lock: it appends to an unfolded ``deque``
    (``append`` is atomic) that every read, and the recorder at the
    histogram's fold phase (at most :data:`FOLD_AT` values on), folds in
    under the lock in recording order, so reads see what recording
    under the lock would have given.
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
        self._ring = array("d")  # grows to RESERVOIR_SIZE, then wraps
        self._head = 0           # the oldest sample once it wraps
        self._unfolded: deque[float] = deque()
        self._lag = next(_phases) % FOLD_AT  # records into the fold period
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self._unfolded.append(value)
        if len(self._unfolded) + self._lag >= FOLD_AT:
            with self._lock:
                self._fold_locked()

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a wave of observations."""
        self._unfolded.extend(values)
        if len(self._unfolded) + self._lag >= FOLD_AT:
            with self._lock:
                self._fold_locked()

    def _fold_locked(self) -> None:  # guarded-by: self._lock
        """Move the unfolded backlog into the buckets, oldest first, by
        builtins: ``reduce(add)`` sums left to right as a loop's ``+=``
        (``sum`` compensates from Python 3.12)."""
        unfolded = self._unfolded
        backlog = len(unfolded)
        if not backlog:
            return
        # ``None`` is never recorded: the drain's stop value, unreached.
        values = list(islice(iter(unfolded.popleft, None), backlog))
        self._count += backlog
        self._lag = (self._lag + backlog) % FOLD_AT
        self._sum = total = reduce(add, values, self._sum)
        self._min = min(self._min, min(values))  # ties keep the first,
        self._max = max(self._max, max(values))  # as the loop's < and >
        self._keep(values)
        # Bucket i holds values in (bound[i-1], bound[i]]; past the last,
        # +inf.  Counted off one sorted copy: the values up to a bound end
        # where ``bisect_right`` puts it.  A NaN, which ``bisect_left``
        # puts in bucket 0, would unsort the copy; only a NaN sum can
        # hide one.
        if total == total:
            ordered = sorted(values)
        else:
            ordered = sorted(filterfalse(isnan, values))
        counts = self._bucket_counts
        counts[0] += backlog - len(ordered)
        below = 0
        for index, bound in enumerate(self.buckets):
            upto = bisect_right(ordered, bound, below)
            counts[index] += upto - below
            below = upto
        counts[-1] += len(ordered) - below

    def _keep(self, values: list[float]) -> None:  # guarded-by: self._lock
        """Write ``values`` into the reservoir ring in order, over its
        oldest once it is full."""
        ring = self._ring
        fill = RESERVOIR_SIZE - len(ring)
        ring.extend(values[:fill])
        rest = values[fill:][-RESERVOIR_SIZE:]
        while rest:  # at most twice: up to the end, then from the start
            head = self._head
            written = rest[:RESERVOIR_SIZE - head]
            ring[head:head + len(written)] = array("d", written)
            self._head = (head + len(written)) % RESERVOIR_SIZE
            rest = rest[len(written):]

    def _kept(self) -> list[float]:  # guarded-by: self._lock
        """The reservoir ring, oldest first."""
        return self._ring[self._head:].tolist() + self._ring[:self._head].tolist()

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
            return self._kept()

    def _folded(self) -> tuple:  # guarded-by: self._lock
        """What a summary reads, from one fold."""
        self._fold_locked()
        return self._count, self._sum, self._min, self._max, self._ring.tolist()

    def summary(self) -> dict[str, float]:
        """Mean/median/p95/p99/min/max over the sample reservoir."""
        with self._lock:
            folded = self._folded()
        return _summarize(*folded)

    def snapshot(self) -> dict[str, Any]:
        """Every field from one fold: a record landing meanwhile is in
        none of them."""
        with self._lock:
            folded = self._folded()
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
            record.update({k: v for k, v in _summarize(*folded).items()
                           if k not in record})
        return record


def _summarize(count: int, total: float, minimum: float, maximum: float,
               samples: list[float]) -> dict[str, float]:
    """The summary of one fold; sorts ``samples`` in place.  Median and
    percentiles are numpy's ``median`` and linear ``percentile``,
    operation for operation, and equal to the bit but for a zero, which
    is always +0.0: numpy's sign there depends on how its partition
    orders ``0.0`` and ``-0.0``."""
    if not count:
        return {"count": 0}
    samples.sort()
    if any(map(isnan, samples)):  # numpy's answer whenever a NaN is kept
        median = p95 = p99 = float("nan")
    else:
        middle = len(samples) // 2  # numpy's mean of the middle one or two
        median = (samples[middle] if len(samples) % 2 else
                  (samples[middle - 1] + samples[middle]) / 2)
        p95, p99 = _percentile(samples, 0.95), _percentile(samples, 0.99)
    return {"count": count, "mean": total / count, "min": minimum,
            "max": maximum, "median": median + 0.0, "p95": p95 + 0.0,
            "p99": p99 + 0.0}  # x + 0.0 is x, but -0.0 + 0.0 is +0.0


def _percentile(ordered: list[float], q: float) -> float:
    """numpy's linear percentile ``q`` of sorted values: ``_lerp`` at
    index (n - 1) * q.  For a lone value numpy lerps from index -1 to
    the top value at weight 1, which ``last - 1`` reproduces."""
    last = len(ordered) - 1
    position = last * q
    low = min(int(position), last - 1)
    a, b = ordered[low], ordered[low + 1]
    t = position - low
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


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
