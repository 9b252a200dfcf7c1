"""A histogram records without a lock and folds on read.

``Histogram.observe``/``observe_many`` append to an unfolded backlog;
every read (``count``, ``total``, ``samples``, ``summary``,
``snapshot``) folds it under the lock, and the recording thread folds
in bulk once the backlog reaches ``FOLD_AT``.  Pinned here:

* differential: any schedule of records and reads, each run on the
  thread it names, reads exactly what the eager histogram (every record
  under the lock, kept below as the reference) reads;
* truly concurrent recorders lose nothing;
* the backlog stays bounded: below ``FOLD_AT`` whenever a lone
  recorder returns, and at most one pending value per recording thread
  above that while several record at once;
* the bulk fold in builtins leaves exactly the state the per-value
  fold loop (kept below) left, infinities included.
"""

from __future__ import annotations

import queue
import threading
from bisect import bisect_left
from collections import deque
from typing import Any, Iterable
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics import registry
from repro.metrics.registry import (
    COUNT_BUCKETS,
    FOLD_AT,
    RESERVOIR_SIZE,
    Histogram,
    MetricsRegistry,
)

WAIT = 30.0


class EagerHistogram:
    """The histogram as it was before recording went lock-free: every
    record updates the buckets under the lock.  The reference."""

    kind = "histogram"

    def __init__(self, name: str, labels=(), buckets=None):
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets or registry.DEFAULT_BUCKETS))
        self._bucket_counts = [0] * (len(self.buckets) + 1)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._samples: deque[float] = deque(maxlen=RESERVOIR_SIZE)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        with self._lock:
            for value in values:
                self._count += 1
                self._sum += value
                if value < self._min:
                    self._min = value
                if value > self._max:
                    self._max = value
                self._samples.append(value)
                self._bucket_counts[bisect_left(self.buckets, value)] += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def total(self) -> float:
        with self._lock:
            return self._sum

    def samples(self) -> list[float]:
        with self._lock:
            return list(self._samples)

    def summary(self) -> dict[str, float]:
        import numpy as np

        with self._lock:
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


class LoopFoldHistogram(Histogram):
    """The histogram with the fold it had before folding in builtins:
    one value at a time.  The reference for the bulk fold."""

    def _fold_locked(self) -> None:
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


def folded_state(histogram):
    """Everything a fold writes, as ``repr`` (``-0.0``, ``inf`` and
    ``nan`` compare exactly)."""
    with histogram._lock:
        histogram._fold_locked()
        return repr((histogram._count, histogram._sum, histogram._min,
                     histogram._max, histogram._bucket_counts,
                     list(histogram._samples)))


class Lanes:
    """One thread per lane: ``run(lane, fn)`` runs ``fn`` on that lane's
    thread and returns its result, so a schedule runs in exactly its
    order with each operation on the thread it names."""

    def __init__(self, count: int):
        self._inboxes = [queue.SimpleQueue() for _ in range(count)]
        self._threads = [threading.Thread(target=self._serve, args=(inbox,))
                         for inbox in self._inboxes]
        for thread in self._threads:
            thread.start()

    @staticmethod
    def _serve(inbox):
        while (item := inbox.get()) is not None:
            fn, done = item
            try:
                done.put((fn(), None))
            except BaseException as exc:   # handed to the scheduling thread
                done.put((None, exc))

    def run(self, lane: int, fn):
        done = queue.SimpleQueue()
        self._inboxes[lane].put((fn, done))
        result, exc = done.get(timeout=WAIT)
        if exc is not None:
            raise exc
        return result

    def close(self):
        for inbox in self._inboxes:
            inbox.put(None)
        for thread in self._threads:
            thread.join(WAIT)


READS = ("count", "total", "samples", "summary", "snapshot")
VALUES = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    st.sampled_from([0.0, 0.0005, 0.001, 1.0, 10.0, 1024.0]))
OPERATIONS = st.one_of(
    st.tuples(st.integers(0, 2), st.just("observe"), VALUES),
    st.tuples(st.integers(0, 2), st.just("observe_many"),
              st.lists(VALUES, max_size=12)),
    st.tuples(st.integers(0, 2), st.sampled_from(READS), st.none()),
)


def apply(histogram, kind, argument):
    if kind in ("observe", "observe_many"):
        return getattr(histogram, kind)(argument)
    if kind in ("count", "total"):
        return getattr(histogram, kind)
    return getattr(histogram, kind)()


class TestAgainstTheEagerHistogram:
    @given(schedule=st.lists(OPERATIONS, max_size=60),
           fold_at=st.integers(1, 9),
           buckets=st.sampled_from([None, COUNT_BUCKETS]))
    @settings(max_examples=150, deadline=None)
    def test_any_schedule_reads_what_eager_recording_reads(
            self, schedule, fold_at, buckets):
        lazy = Histogram("h", (("k", "v"),), buckets=buckets)
        eager = EagerHistogram("h", (("k", "v"),), buckets=buckets)
        lanes = Lanes(3)
        try:
            with mock.patch.object(registry, "FOLD_AT", fold_at):
                for lane, kind, argument in schedule:
                    got = lanes.run(lane, lambda: apply(lazy, kind, argument))
                    want = apply(eager, kind, argument)
                    assert repr(got) == repr(want), (kind, got, want)
                    assert len(lazy._unfolded) < fold_at
                assert repr(lazy.snapshot()) == repr(eager.snapshot())
        finally:
            lanes.close()

    def test_the_real_fold_bound_reads_the_same(self):
        lazy, eager = Histogram("h"), EagerHistogram("h")
        for i in range(3 * FOLD_AT + 7):
            value = (i % 97) * 0.013
            lazy.observe(value)
            eager.observe(value)
            if i % 50 == 0:
                lazy.observe_many([value] * (i % 5))
                eager.observe_many([value] * (i % 5))
        assert repr(lazy.snapshot()) == repr(eager.snapshot())
        assert lazy.samples() == eager.samples()


FOLDED = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from([float("inf"), float("-inf"), -0.0, 0.0, 1.0, 1024.0]))


class TestBulkFoldAgainstTheLoop:
    @given(waves=st.lists(st.lists(FOLDED, max_size=40), max_size=8),
           buckets=st.sampled_from([None, COUNT_BUCKETS]))
    @settings(max_examples=300, deadline=None)
    # Equal extremes keep the first seen, within a wave and across waves.
    @example(waves=[[0.0, -0.0], [-0.0], [0.0]], buckets=None)
    @example(waves=[[-0.0, 0.0], [0.0], [-0.0]], buckets=None)
    def test_every_fold_leaves_what_the_per_value_loop_left(
            self, waves, buckets):
        bulk = Histogram("h", buckets=buckets)
        loop = LoopFoldHistogram("h", buckets=buckets)
        for wave in waves:
            bulk.observe_many(wave)
            loop.observe_many(wave)
            assert folded_state(bulk) == folded_state(loop)


class TestConcurrentRecorders:
    def test_nothing_is_lost_and_reads_only_grow(self):
        # Whole-number values: the total is exact in any order, so the
        # concurrent run must end at the eager total for the same values.
        histogram = Histogram("h", buckets=COUNT_BUCKETS)
        threads, per_thread = 4, 600
        waves = [[float(t * per_thread + i) for i in range(per_thread)]
                 for t in range(threads)]
        start = threading.Barrier(threads + 1)
        stop = threading.Event()
        reads: list[int] = []

        def record(values):
            start.wait(WAIT)
            for index, value in enumerate(values):
                if index % 3:
                    histogram.observe(value)
                else:
                    histogram.observe_many([value])

        def read():
            start.wait(WAIT)
            while not stop.is_set():
                reads.append(histogram.snapshot()["count"])

        recorders = [threading.Thread(target=record, args=(values,))
                     for values in waves]
        reader = threading.Thread(target=read)
        for thread in (*recorders, reader):
            thread.start()
        for thread in recorders:
            thread.join(WAIT)
        stop.set()
        reader.join(WAIT)
        eager = EagerHistogram("h", buckets=COUNT_BUCKETS)
        eager.observe_many(value for values in waves for value in values)
        got, want = histogram.snapshot(), eager.snapshot()
        assert got["count"] == want["count"] == threads * per_thread
        assert got["sum"] == want["sum"]
        assert got["buckets"] == want["buckets"]
        assert (got["min"], got["max"]) == (want["min"], want["max"])
        assert sorted(histogram.samples()) == sorted(eager.samples())
        assert reads == sorted(reads)


class TestBacklogBound:
    def test_a_lone_recorder_leaves_less_than_the_bound(self):
        histogram = Histogram("h")
        for i in range(10 * FOLD_AT):
            if i % 7:
                histogram.observe(float(i))
            else:
                histogram.observe_many([float(i)] * (i % 11))
            assert len(histogram._unfolded) < FOLD_AT
        histogram.observe_many([1.0] * (3 * FOLD_AT))     # a huge wave
        assert len(histogram._unfolded) < FOLD_AT

    def test_concurrent_recorders_add_one_pending_value_each(self):
        histogram = Histogram("h")
        threads, per_thread = 4, 4 * FOLD_AT
        start = threading.Barrier(threads + 1)
        done = threading.Event()
        peak = [0]

        def record():
            start.wait(WAIT)
            for i in range(per_thread):
                histogram.observe(float(i))

        def sample():
            start.wait(WAIT)
            while not done.is_set():
                peak[0] = max(peak[0], len(histogram._unfolded))

        recorders = [threading.Thread(target=record) for _ in range(threads)]
        sampler = threading.Thread(target=sample)
        for thread in (*recorders, sampler):
            thread.start()
        for thread in recorders:
            thread.join(WAIT)
        done.set()
        sampler.join(WAIT)
        assert peak[0] <= FOLD_AT - 1 + threads
        assert histogram.count == threads * per_thread


class TestSamplesReader:
    def test_samples_are_the_reservoir_oldest_first(self):
        metrics = MetricsRegistry()
        histogram = metrics.histogram("h", stage="x")
        histogram.observe_many([3.0, 1.0, 2.0])
        histogram.observe(5.0)
        assert histogram.samples() == [3.0, 1.0, 2.0, 5.0]
        histogram.observe_many(float(i) for i in range(RESERVOIR_SIZE))
        assert histogram.samples() == [float(i) for i in range(RESERVOIR_SIZE)]
