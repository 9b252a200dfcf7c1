"""The simulator pays the heap per wave, not per task.

* a budget, counted: weak scaling does a twelfth of a ``heappush`` per
  task while ``events_processed`` still counts every logical event, and
  makes one scheduling call per push, so neither one-event-per-task-per-hop
  nor one-call-per-task-per-hop can creep back;
* durations that differ still complete, as waves of one;
* riding along changes nothing: any run equals the same run with every
  item of every ``join`` given its own ``schedule`` of a one-item wave,
  in the order the wave lists them — which is the
  per-task schedule the simulator had before waves — on platforms built
  so that every delay ties with every other;

and what rode along: ``SimReport.latency_timeline`` is one ``bincount``
pass, equal to the mask-per-bin loop it replaces.
"""

from __future__ import annotations

import heapq
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import FailureSchedule, SimFabric, kernel
from repro.sim.platform import CORI, THETA, SimPlatform
from repro.workloads.generators import ArrivalEvent, uniform_rate_arrivals


def _count_pushes(monkeypatch) -> list[int]:
    pushes = [0]

    def heappush(heap, entry):
        pushes[0] += 1
        heapq.heappush(heap, entry)

    monkeypatch.setattr(kernel, "heapq", SimpleNamespace(
        heappush=heappush, heappop=heapq.heappop))
    return pushes


def _count_calls(loop: kernel.EventLoop) -> list[int]:
    """Count ``schedule`` and ``join`` calls (``at`` goes through ``schedule``)."""
    calls = [0]

    def counted(method):
        def call(*args):
            calls[0] += 1
            return method(*args)
        return call

    loop.schedule, loop.join = counted(loop.schedule), counted(loop.join)
    return calls


def _spy_wave_sizes(fabric: SimFabric, name: str) -> list[int]:
    sizes, handler = [], getattr(fabric, name)

    def spy(wave):
        sizes.append(len(wave))
        handler(wave)

    setattr(fabric, name, spy)
    return sizes


class TestHeapBudget:
    def test_weak_scaling_pushes_a_twelfth_of_an_event_per_task(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        tasks = 16 * CORI.containers_per_node * 10
        fabric = SimFabric(CORI, managers=16)
        calls = _count_calls(fabric.loop)
        fabric.submit_batch(tasks, duration=1.0)
        report = fabric.run()
        assert report.tasks_completed == tasks == 40_960
        # One push per dispatch chunk for each of: the dispatch itself,
        # its arrivals, their finishes, their results, their credits —
        # plus the submission.  The per-task schedule pushed 164,481.
        assert pushes[0] == 5 * (tasks // SimFabric.DISPATCH_CHUNK) + 1 == 3_201
        assert pushes[0] <= 0.1 * tasks
        assert report.events_processed == 164_481   # logical events, as before
        # Calls, not time: every hop hands its wave to one ``join``, so a
        # call per task (164,481 of them) cannot creep back unseen.
        assert calls[0] == pushes[0]

    def test_mixed_durations_complete_as_waves_of_one(self, monkeypatch):
        pushes = _count_pushes(monkeypatch)
        fabric = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4)
        finishes = _spy_wave_sizes(fabric, "_finish_tasks")
        results = _spy_wave_sizes(fabric, "_results_at_agent")
        total = 300
        tasks = fabric.submit_stream(
            ArrivalEvent(time=i / 50.0, workload="task",
                         duration=0.05 + 1e-4 * i, index=i)
            for i in range(total))
        report = fabric.run()
        assert report.tasks_completed == total
        assert all(t.completed - t.started >= t.duration for t in tasks)
        assert finishes == [1] * total
        assert results == [1] * total
        # Nothing rides: every logical event but the arrivals that share a
        # dispatch chunk is its own heap entry.
        assert pushes[0] > 0.9 * report.events_processed


# ---------------------------------------------------------------------------
# riding along is the same schedule
# ---------------------------------------------------------------------------
def _rows(fabric: SimFabric):
    report = fabric.run(max_events=200_000)
    return ([(t.task_id, t.created, t.service_done, t.dispatched, t.started,
              t.completed, t.attempts, t.memo_hit) for t in fabric.completed],
            report.events_processed, report.reexecutions, report.memo_hits,
            fabric.loop.now)


#: Every delay of the model is 0 or one tick, so finishes, results, credit
#: returns, dispatches and arrivals all tie with one another.
_TICK = 0.01
_platforms = st.builds(
    SimPlatform,
    name=st.just("ties"),
    containers_per_node=st.integers(1, 4),
    agent_dispatch_overhead=st.just(_TICK),
    agent_result_overhead=st.sampled_from([0.0, _TICK]),
    manager_cycle=st.sampled_from([_TICK, 2 * _TICK]),
    dispatch_latency=st.sampled_from([0.0, _TICK]),
    single_task_cycle=st.just(_TICK),
    worker_overhead=st.sampled_from([0.0, _TICK]),
    container_cold_start=st.just(0.5),
)
_windows = st.tuples(st.floats(0.0, 3.0), st.floats(0.05, 2.0))


@given(
    platform=_platforms,
    managers=st.integers(1, 3),
    prefetch=st.integers(0, 4),
    internal_batching=st.booleans(),
    advertise_idle=st.booleans(),
    batch=st.integers(1, 120),
    stream=st.lists(st.sampled_from([0.0, _TICK, 2 * _TICK, 0.3]), max_size=80),
    through_service=st.booleans(),
    manager_failures=st.lists(st.tuples(_windows, st.integers(0, 2)), max_size=3),
    endpoint_failures=st.lists(_windows, max_size=2),
)
@example(
    # A queued task that starts when a slot frees finishes exactly when the
    # credit returns land: its finish must keep its place among them.
    platform=SimPlatform(name="ties", containers_per_node=1,
                         agent_dispatch_overhead=_TICK, manager_cycle=_TICK,
                         dispatch_latency=0.0, worker_overhead=0.0),
    managers=2, prefetch=1, internal_batching=True, advertise_idle=True,
    batch=8, stream=[], through_service=False,
    manager_failures=[], endpoint_failures=[],
)
@settings(max_examples=150, deadline=None)
def test_any_run_equals_the_same_run_with_no_riders(
        platform, managers, prefetch, internal_batching, advertise_idle, batch,
        stream, through_service, manager_failures, endpoint_failures):
    def build(ride: bool) -> SimFabric:
        fabric = SimFabric(platform, managers=managers, prefetch=prefetch,
                           internal_batching=internal_batching,
                           advertise_idle=advertise_idle, memoize=True,
                           memo_prewarmed=False, heartbeat_period=0.1,
                           heartbeat_grace=2)
        if not ride:
            loop = fabric.loop

            def join(delay, fn, items):
                for item in items:
                    loop.schedule(delay, fn, [item])

            loop.join = join
        fabric.submit_batch(batch, duration=_TICK, memo_keys=[i % 7 for i in range(batch)],
                            through_service=through_service)
        fabric.submit_stream(
            [ArrivalEvent(time=i * _TICK, workload="task", duration=d, index=i)
             for i, d in enumerate(stream)], through_service=through_service)
        fabric.apply_failures(FailureSchedule(
            manager_failures=tuple((at, at + down, index % managers)
                                   for (at, down), index in manager_failures),
            endpoint_failures=tuple((at, at + down) for at, down in endpoint_failures)))
        return fabric

    assert _rows(build(ride=True)) == _rows(build(ride=False))


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------
def test_latency_timeline_equals_the_mask_per_bin_loop():
    fabric = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                       heartbeat_period=0.2, heartbeat_grace=3)
    fabric.submit_stream(uniform_rate_arrivals(rate=60, total=600, duration=0.1))
    fabric.apply_failures(FailureSchedule(endpoint_failures=((2.0, 6.0),)))
    report = fabric.run()
    assert report.tasks_completed == 600
    for width in (0.25, 1.0, 7.0):
        bins = np.floor(report.completion_times / width).astype(int)
        unique = np.unique(bins)
        centers, means = report.latency_timeline(bin_width=width)
        assert np.array_equal(centers, (unique + 0.5) * width)
        np.testing.assert_allclose(
            means, [report.latencies[bins == b].mean() for b in unique],
            rtol=0, atol=1e-9)
    # Nothing completes while the endpoint is down: the timeline skips
    # those bins instead of reporting a mean over no tasks.
    centers, means = report.latency_timeline(bin_width=0.25)
    assert len(centers) < (centers[-1] - centers[0]) / 0.25
    assert not np.isnan(means).any()
    empty = SimFabric(THETA, managers=1).run()
    assert [a.size for a in empty.latency_timeline()] == [0, 0]
