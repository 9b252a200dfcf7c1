"""Property-based tests on system-level invariants (hypothesis)."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.containers import ContainerRuntime, ContainerSpec, WarmPool
from repro.providers import SimpleScalingStrategy
from repro.sim import FailureSchedule, SimFabric
from repro.sim.platform import THETA


# ---------------------------------------------------------------------------
# Warm pool: conservation and TTL honesty
# ---------------------------------------------------------------------------
class TestWarmPoolProperties:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["acquire", "release", "evict"]),
                      st.floats(min_value=0.0, max_value=10.0)),
            min_size=1, max_size=60,
        ),
        ttl=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60)
    def test_pool_never_exceeds_capacity_and_never_double_issues(self, ops, ttl):
        pool = WarmPool(ttl=ttl, capacity=4)
        runtime = ContainerRuntime(seed=0)
        spec = ContainerSpec(image="img")
        held: list = []
        now = 0.0
        issued_ids: set[str] = set()
        for op, dt in ops:
            now += dt
            if op == "acquire":
                instance = pool.acquire(spec.key, now)
                if instance is not None:
                    # a warm instance is never handed out twice concurrently
                    assert instance.instance_id not in issued_ids
                    issued_ids.add(instance.instance_id)
                    held.append(instance)
            elif op == "release" and held:
                instance = held.pop()
                issued_ids.discard(instance.instance_id)
                pool.release(instance, now)
            else:
                pool.evict_expired(now)
            assert pool.warm_count(spec.key) <= 4

    @given(gap=st.floats(min_value=0.0, max_value=1000.0),
           ttl=st.floats(min_value=1.0, max_value=500.0))
    @settings(max_examples=60)
    def test_ttl_boundary_exact(self, gap, ttl):
        pool = WarmPool(ttl=ttl)
        runtime = ContainerRuntime(seed=1)
        inst = runtime.instantiate(ContainerSpec(image="i"))
        pool.release(inst, now=0.0)
        got = pool.acquire(inst.key, now=gap)
        if gap <= ttl:
            assert got is inst
        else:
            assert got is None


# ---------------------------------------------------------------------------
# Simulated fabric: no task is ever lost, whatever failures happen
# ---------------------------------------------------------------------------
class TestSimFabricConservation:
    @given(
        n_tasks=st.integers(min_value=1, max_value=200),
        duration=st.sampled_from([0.0, 0.05, 0.2]),
        fail_at=st.floats(min_value=0.5, max_value=5.0),
        outage=st.floats(min_value=0.5, max_value=5.0),
        which=st.sampled_from(["manager", "endpoint"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_tasks_complete_under_any_failure_window(
        self, n_tasks, duration, fail_at, outage, which
    ):
        fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                        heartbeat_period=0.25, seed=1)
        fab.submit_batch(n_tasks, duration=duration)
        if which == "manager":
            schedule = FailureSchedule(
                manager_failures=((fail_at, fail_at + outage, 0),)
            )
        else:
            schedule = FailureSchedule(
                endpoint_failures=((fail_at, fail_at + outage),)
            )
        fab.apply_failures(schedule)
        report = fab.run()
        assert report.tasks_completed == n_tasks
        # every latency is positive and each task completed after starting
        assert (report.latencies > 0).all()

    @given(
        prefetch=st.integers(min_value=0, max_value=64),
        batching=st.booleans(),
        n_tasks=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_tasks_complete_for_any_knob_setting(self, prefetch, batching, n_tasks):
        fab = SimFabric(THETA, managers=2, workers_per_manager=8,
                        prefetch=prefetch, internal_batching=batching, seed=2)
        fab.submit_batch(n_tasks, duration=0.001)
        report = fab.run()
        assert report.tasks_completed == n_tasks


# ---------------------------------------------------------------------------
# Scaling strategy: decisions always respect bounds
# ---------------------------------------------------------------------------
class TestStrategyProperties:
    @given(
        loads=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=5),
        supplies=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=5),
        max_units=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=80)
    def test_decisions_never_exceed_caps(self, loads, supplies, max_units):
        strategy = SimpleScalingStrategy(max_units_per_image=max_units,
                                         idle_grace=0.0)
        images = [f"img{i}" for i in range(max(len(loads), len(supplies)))]
        load = {img: loads[i % len(loads)] for i, img in enumerate(images)}
        supply = {img: supplies[i % len(supplies)] for i, img in enumerate(images)}
        for decision in strategy.decide(load, supply, now=0.0):
            current = supply.get(decision.image, 0)
            assert decision.count > 0
            if decision.action == "scale_out":
                assert current + decision.count <= max_units
            else:
                assert decision.count <= current

    @given(
        outstanding=st.integers(min_value=0, max_value=10_000),
        parallelism=st.floats(min_value=0.01, max_value=1.0),
        tasks_per_unit=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=80)
    def test_target_units_sane(self, outstanding, parallelism, tasks_per_unit):
        strategy = SimpleScalingStrategy(
            parallelism=parallelism, tasks_per_unit=tasks_per_unit
        )
        target = strategy.target_units(outstanding)
        assert target >= 0
        if outstanding > 0:
            assert target >= 1
            # enough capacity for the scaled demand
            assert target * tasks_per_unit >= outstanding * parallelism - tasks_per_unit
