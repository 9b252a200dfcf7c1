"""Unit and behaviour tests for the simulated funcX fabric."""

from __future__ import annotations

import pytest

from repro.sim import FailureSchedule, SimFabric
from repro.sim.platform import CORI, EC2, THETA
from repro.workloads.generators import uniform_rate_arrivals


class TestBasicExecution:
    def test_all_tasks_complete(self):
        fab = SimFabric(THETA, managers=2, workers_per_manager=8)
        fab.submit_batch(100, duration=0.01)
        report = fab.run()
        assert report.tasks_completed == 100
        assert report.completion_time > 0

    def test_latency_includes_duration(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=4)
        fab.submit_batch(4, duration=1.0)
        report = fab.run()
        assert (report.latencies >= 1.0).all()

    def test_sequential_when_one_worker(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=1)
        fab.submit_batch(5, duration=1.0)
        report = fab.run()
        assert report.completion_time >= 5.0

    def test_parallelism_speeds_up(self):
        def completion(workers):
            fab = SimFabric(THETA, managers=1, workers_per_manager=workers)
            fab.submit_batch(64, duration=1.0)
            return fab.run().completion_time

        assert completion(64) < completion(8) < completion(1)

    def test_agent_throughput_ceiling_respected(self):
        fab = SimFabric(THETA, managers=64, prefetch=64)
        fab.submit_batch(20_000, duration=0.0)
        report = fab.run()
        # Cannot beat the dispatch pipeline: 20k × 0.59 ms ≈ 11.8 s
        assert report.completion_time >= 20_000 * THETA.agent_dispatch_overhead * 0.95
        assert report.throughput <= THETA.agent_throughput_ceiling * 1.05

    def test_report_shapes(self):
        fab = SimFabric(EC2, managers=1, workers_per_manager=4)
        fab.submit_batch(10)
        report = fab.run()
        assert report.latencies.shape == (10,)
        assert report.completion_times.shape == (10,)
        assert report.events_processed > 0

    def test_stream_submission(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=4, prefetch=4)
        tasks = fab.submit_stream(uniform_rate_arrivals(rate=100, total=50, duration=0.01))
        report = fab.run()
        assert report.tasks_completed == 50
        assert tasks[0].created == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SimFabric(THETA, managers=0)
        fab = SimFabric(THETA, managers=1)
        with pytest.raises(ValueError):
            fab.submit_batch(3, memo_keys=[1])


class TestTaskViews:
    """A task is a row of the fabric's table; what the fabric hands out
    is a read-only view that reads the row as it is now."""

    def test_completed_is_a_sequence_of_views(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=4)
        fab.submit_batch(10, duration=0.01)
        fab.run()
        done = fab.completed
        assert len(done) == 10
        tasks = list(done)
        assert sorted(t.task_id for t in tasks) == list(range(10))
        assert done[0] == tasks[0] and done[-1] == tasks[-1]
        assert done[0] is not done[0]  # a fresh view per access
        assert [t.task_id for t in done[2:5]] == [t.task_id for t in tasks[2:5]]
        times = [t.completed for t in done]
        assert times == sorted(times) and min(times) > 0

    def test_submitted_views_read_the_final_stamps(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=2)
        batch = fab.submit_batch(4, duration=0.5, at=1.0, container_key="RAW")
        stream = fab.submit_stream(uniform_rate_arrivals(rate=10, total=3, duration=0.25))
        assert [t.completed for t in batch] == [-1.0] * 4
        assert batch[0].attempts == 0
        fab.run()
        for task in [*batch, *stream]:
            assert task.attempts == 1
            assert task.created <= task.service_done <= task.dispatched
            assert task.dispatched <= task.started < task.completed
            assert task.latency == task.completed - task.created
            assert task.memo_hit is False and task.memo_key is None
        assert {t.created for t in batch} == {1.0}
        assert {t.duration for t in batch} == {0.5}
        assert [t.task_id for t in stream] == [0, 1, 2]
        assert [t.created for t in stream] == [0.0, 0.1, 0.2]
        assert set(fab.completed) == {*batch, *stream}

    def test_a_memo_hit_reads_through_the_view(self):
        fab = SimFabric(THETA, managers=1, memoize=True)
        tasks = fab.submit_batch(3, duration=0.1, memo_keys=[5, 5, 6],
                                 through_service=True)
        fab.run()
        assert [t.memo_key for t in tasks] == [5, 5, 6]
        assert [t.memo_hit for t in tasks] == [False, True, False]
        assert tasks[1].dispatched == -1.0 and tasks[1].attempts == 0

    def test_a_view_is_read_only(self):
        fab = SimFabric(THETA, managers=1)
        [task] = fab.submit_batch(1, duration=0.1)
        fab.run()
        for name in ("completed", "attempts", "task_id", "created", "latency",
                     "memo_hit", "duration"):
            with pytest.raises(AttributeError):
                setattr(task, name, 0)
        with pytest.raises(AttributeError):
            task.note = "x"
        assert task.attempts == 1


class TestBatchingKnobs:
    def test_internal_batching_dramatically_faster(self):
        def completion(batching):
            fab = SimFabric(THETA, managers=4, internal_batching=batching)
            fab.submit_batch(2_000, duration=0.0)
            return fab.run().completion_time

        enabled, disabled = completion(True), completion(False)
        assert disabled > 5 * enabled  # the §5.5.2 gap (17x in the paper)

    def test_prefetch_reduces_completion(self):
        def completion(prefetch):
            fab = SimFabric(THETA, managers=4, prefetch=prefetch)
            fab.submit_batch(5_000, duration=0.01)
            return fab.run().completion_time

        times = [completion(p) for p in (0, 16, 64)]
        assert times[0] > times[1] >= times[2]

    def test_prefetch_diminishing_returns(self):
        def completion(prefetch):
            fab = SimFabric(THETA, managers=4, prefetch=prefetch)
            fab.submit_batch(5_000, duration=0.01)
            return fab.run().completion_time

        t64, t512 = completion(64), completion(512)
        assert t512 == pytest.approx(t64, rel=0.25)  # flat beyond 64/node


class TestMemoization:
    def _run(self, repeat_pct, n=2_000):
        n_rep = n * repeat_pct // 100
        keys = list(range(n - n_rep)) + [0] * n_rep
        fab = SimFabric(THETA, managers=4, memoize=True, prefetch=64)
        fab.submit_batch(n, duration=1.0, memo_keys=keys, through_service=True)
        return fab.run()

    def test_more_repeats_faster(self):
        t0 = self._run(0).completion_time
        t50 = self._run(50).completion_time
        t100 = self._run(100).completion_time
        assert t0 > t50 > t100

    def test_hit_counting(self):
        report = self._run(50)
        assert report.memo_hits == 1000
        assert report.tasks_completed == 2000

    def test_memo_disabled_ignores_keys(self):
        fab = SimFabric(THETA, managers=4, memoize=False)
        fab.submit_batch(100, duration=0.01, memo_keys=[0] * 100, through_service=True)
        report = fab.run()
        assert report.memo_hits == 0

    def test_unwarmed_cache_requires_first_completion(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=1,
                        memoize=True, memo_prewarmed=False)
        # Both tasks arrive back-to-back: second cannot hit (first still running).
        fab.submit_batch(2, duration=1.0, memo_keys=[7, 7], through_service=True)
        report = fab.run()
        assert report.memo_hits == 0

    def test_unwarmed_cache_hits_after_completion(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=1,
                        memoize=True, memo_prewarmed=False)
        fab.submit_batch(1, duration=0.5, memo_keys=[7], through_service=True)
        fab.submit_batch(1, duration=0.5, at=10.0, memo_keys=[7], through_service=True)
        report = fab.run()
        assert report.memo_hits == 1


class TestFailures:
    def test_manager_failure_no_task_loss(self):
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.2)
        fab.submit_stream(uniform_rate_arrivals(rate=60, total=600, duration=0.1))
        fab.apply_failures(FailureSchedule(manager_failures=((2.0, 4.0, 0),)))
        report = fab.run()
        assert report.tasks_completed == 600
        assert report.reexecutions > 0

    def test_manager_failure_latency_spike(self):
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.2)
        fab.submit_stream(uniform_rate_arrivals(rate=60, total=600, duration=0.1))
        fab.apply_failures(FailureSchedule(manager_failures=((2.0, 4.0, 0),)))
        report = fab.run()
        t, lat = report.latency_timeline(bin_width=0.5)
        before = lat[t < 2.0].mean()
        during = lat[(t > 2.0) & (t < 6.0)].max()
        after = lat[t > 8.0].mean()
        assert during > 3 * before          # visible spike
        assert after == pytest.approx(before, rel=0.2)  # full recovery

    def test_endpoint_failure_recovers_all_tasks(self):
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.5)
        fab.submit_stream(uniform_rate_arrivals(rate=20, total=1000, duration=0.1))
        fab.apply_failures(FailureSchedule(endpoint_failures=((10.0, 25.0),)))
        report = fab.run()
        assert report.tasks_completed == 1000

    def test_endpoint_failure_latency_spike_after_recovery(self):
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.5)
        fab.submit_stream(uniform_rate_arrivals(rate=20, total=1000, duration=0.1))
        fab.apply_failures(FailureSchedule(endpoint_failures=((10.0, 25.0),)))
        report = fab.run()
        t, lat = report.latency_timeline(bin_width=2.0)
        spike = lat[(t >= 25.0) & (t <= 32.0)].max()
        baseline = lat[t < 10.0].mean()
        assert spike > 10 * baseline

    def test_failure_schedule_validation(self):
        fab = SimFabric(THETA, managers=1)
        with pytest.raises(IndexError):
            fab.apply_failures(FailureSchedule(manager_failures=((1.0, 2.0, 5),)))
        with pytest.raises(ValueError):
            fab.apply_failures(FailureSchedule(manager_failures=((2.0, 1.0, 0),)))
        with pytest.raises(ValueError):
            fab.apply_failures(FailureSchedule(endpoint_failures=((2.0, 1.0),)))


class TestPlatformModels:
    def test_platform_throughputs_match_paper(self):
        assert THETA.agent_throughput_ceiling == pytest.approx(1694, rel=0.01)
        assert CORI.agent_throughput_ceiling == pytest.approx(1466, rel=0.01)

    def test_nodes_for(self):
        assert THETA.nodes_for(64) == 1
        assert THETA.nodes_for(65) == 2
        assert CORI.nodes_for(131_072) == 512

    def test_container_counts(self):
        assert THETA.containers_per_node == 64
        assert CORI.containers_per_node == 256

    def test_cold_starts_match_table2(self):
        assert THETA.container_cold_start == pytest.approx(10.40)
        assert CORI.container_cold_start == pytest.approx(8.49)

    def test_container_cold_start_applied_once_per_manager(self):
        fab = SimFabric(THETA, managers=1, workers_per_manager=2)
        fab.submit_batch(4, duration=0.01, container_key="singularity:img")
        report = fab.run()
        assert report.completion_time >= THETA.container_cold_start
        assert report.completion_time < 3 * THETA.container_cold_start


class TestAdvertiseIdleKnob:
    """The §5.5.5 advertisement mode: request exactly `prefetch` per cycle."""

    def _completion(self, prefetch):
        fab = SimFabric(THETA, managers=4, workers_per_manager=64,
                        prefetch=prefetch, advertise_idle=False, seed=1)
        fab.submit_batch(2_000, duration=0.01)
        return fab.run().completion_time

    def test_small_prefetch_starves_workers(self):
        assert self._completion(1) > 20 * self._completion(64)

    def test_monotone_in_prefetch(self):
        times = [self._completion(p) for p in (1, 4, 16, 64)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_saturates_at_worker_count(self):
        t64, t512 = self._completion(64), self._completion(512)
        assert abs(t64 - t512) / t512 < 0.3

    def test_zero_prefetch_clamped_to_one(self):
        # prefetch=0 in this mode still makes progress (credit >= 1)
        fab = SimFabric(THETA, managers=1, workers_per_manager=4,
                        prefetch=0, advertise_idle=False)
        fab.submit_batch(10, duration=0.0)
        assert fab.run().tasks_completed == 10


class TestRecoveryRaces:
    """Regression: overlapping recovery paths must not double-dispatch or
    leak worker slots (found by the conservation property test)."""

    def test_inflight_dispatch_plus_endpoint_failure(self):
        # endpoint fails while dispatches are in flight AND outstanding:
        # both the drop-path watchdog and the forwarder sweep see the same
        # tasks; each must be re-executed exactly once.
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.25, seed=1)
        fab.submit_batch(56, duration=0.2)
        fab.apply_failures(FailureSchedule(endpoint_failures=((1.125, 1.625),)))
        report = fab.run()
        assert report.tasks_completed == 56
        # every manager slot is free at the end (no zombie running tasks)
        for manager in fab.managers:
            assert len(manager.running) == 0
            assert len(manager.queue) == 0
            assert manager.idle == manager.workers

    def test_overlapping_manager_and_endpoint_failures(self):
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.25, seed=2)
        fab.submit_batch(120, duration=0.1)
        fab.apply_failures(FailureSchedule(
            manager_failures=((1.0, 3.0, 0),),
            endpoint_failures=((1.5, 2.5),),
        ))
        report = fab.run()
        assert report.tasks_completed == 120

    def test_duplicate_results_counted_once(self):
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.25, seed=3)
        fab.submit_batch(80, duration=0.2)
        fab.apply_failures(FailureSchedule(endpoint_failures=((0.5, 1.0),)))
        report = fab.run()
        assert report.tasks_completed == 80
        assert len({t.task_id for t in fab.completed}) == 80
