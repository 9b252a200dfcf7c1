"""Backpressure proof suite: credit flow + adaptive waves under overload.

The tentpole claim (ISSUE 6): a 10:1 producer/consumer mismatch must shed
load into the bounded, observable service-side queue instead of growing
the in-flight population without bound.  This module proves it three ways:

* a chaos overload run — sustained mismatch with message drops and
  manager churn, checked by the ``bounded-in-flight`` invariant and by
  sampling the forwarder's open-lease table directly;
* hypothesis properties — the wave policy's hold is always bounded so
  a stalled consumer can never deadlock dispatch (liveness via
  injectable clocks);
* live credit flow — the same policy on a real :class:`LocalDeployment`:
  the forwarder's window converges to the agent's advertisement and a
  mismatch sheds into the service queue.

Selected with ``pytest -m chaos`` alongside the fault-plan runs.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DeploymentTimings, EndpointConfig, LocalDeployment
from repro.chaos import FaultPlan, FaultStep
from repro.core.flowcontrol import WavePolicy
from repro.store.queues import ReliableQueue

pytestmark = pytest.mark.chaos


def double(x):
    return x * 2


def slow_tick(x):
    import time as _time

    _time.sleep(0.05)
    return x * 2


def short_tick(x):
    import time as _time

    _time.sleep(0.03)
    return x + 1


def wait_until(predicate, timeout=10.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def drain_sampling_peak(world_or_dep, service, endpoint_id, forwarder,
                        timeout=30.0):
    """Drain the endpoint while sampling the forwarder's in-flight peak."""
    peak = 0
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        peak = max(peak, forwarder.outstanding)
        if service.outstanding_tasks(endpoint_id) == 0:
            return True, peak
        time.sleep(0.002)
    return False, peak


class TestChaosOverload:
    """10:1 mismatch with drops and manager churn: bounded and recoverable."""

    def test_overload_is_bounded_sheds_to_queue_and_recovers(self, chaos_world):
        world = chaos_world(seed=11)
        # One node of 2 workers + default prefetch 4 gives a manager
        # window of 6, plus the agent's pipeline buffer of two more
        # node-windows => an advertised window of 18, fed by a burst of
        # 60 submissions.
        ep = world.add_endpoint("ep", nodes=1, workers_per_node=2)
        forwarder = world.hooks["ep"].forwarder
        queue = world.deployment.service.task_queue(ep)
        assert wait_until(lambda: forwarder.credit_window == 18), \
            "endpoint never advertised its credit window"

        plan = FaultPlan(name="overload-churn", seed=11, steps=(
            FaultStep.make(0.10, "set_drop", "ep", probability=0.10),
            FaultStep.make(0.30, "kill_manager", "ep", index=0),
            FaultStep.make(0.90, "restart_manager", "ep"),
            FaultStep.make(1.20, "set_drop", "ep", probability=0.0),
        ))
        client = world.client()
        fid = client.register_function(slow_tick)
        world.start_plan(plan)
        futures = [client.submit(fid, ep, i) for i in range(60)]

        drained, peak = drain_sampling_peak(
            world, world.deployment.service, ep, forwarder, timeout=30.0)
        schedule = world.finish_plan()
        assert schedule is not None and not schedule.errors
        assert drained, "overload never drained"
        assert [f.result(timeout=30) for f in futures] == \
            [i * 2 for i in range(60)]

        # Bounded in flight: the lease table never exceeded the window,
        # even across the drop window and the manager kill/restart.
        assert peak <= 18, f"in-flight peaked at {peak} > window 18"
        # The mismatch was shed into the service-side queue, observably.
        assert queue.high_watermark >= 30
        # Zero-credit truncated waves were hit and counted.
        assert forwarder.credit_stalls > 0

        # Invariants (bounded-in-flight, queue conservation, ...) hold.
        report = world.check_final()
        assert report.ok, report.describe()
        assert report.events_seen > 0

        # Recovery to steady state: nothing in flight, window restored,
        # every manager's workers idle again.
        assert forwarder.outstanding == 0
        assert queue.depth == 0
        assert wait_until(lambda: forwarder.credit_window == 18, timeout=5)

        # Every worker slot comes home — possibly only after zombie
        # duplicate executions (redelivered tasks whose results the
        # service will reject) finish and free theirs.
        def nodes_settled():
            return all(
                set(manager._idle) == set(manager._workers)
                and manager.tracked_task_ids() == []
                for manager in world.hooks["ep"].endpoint.managers.values())

        assert wait_until(nodes_settled, timeout=10), [
            (manager.idle_count, manager.worker_count,
             manager.tracked_task_ids())
            for manager in world.hooks["ep"].endpoint.managers.values()]

    def test_endpoint_churn_under_overload(self, chaos_world):
        """Disconnect/reconnect the whole endpoint mid-overload."""
        world = chaos_world(seed=29)
        ep = world.add_endpoint("ep", nodes=1, workers_per_node=2)
        forwarder = world.hooks["ep"].forwarder
        assert wait_until(lambda: forwarder.credit_window == 18)

        plan = FaultPlan(name="overload-disconnect", seed=29, steps=(
            FaultStep.make(0.10, "set_drop", "ep", probability=0.10),
            FaultStep.make(0.25, "disconnect_endpoint", "ep"),
            FaultStep.make(0.80, "reconnect_endpoint", "ep"),
            FaultStep.make(1.00, "set_drop", "ep", probability=0.0),
        ))
        client = world.client()
        fid = client.register_function(slow_tick)
        world.start_plan(plan)
        futures = [client.submit(fid, ep, i) for i in range(40)]
        drained, peak = drain_sampling_peak(
            world, world.deployment.service, ep, forwarder, timeout=30.0)
        world.finish_plan()
        assert drained
        assert [f.result(timeout=30) for f in futures] == \
            [i * 2 for i in range(40)]
        assert peak <= 18
        report = world.check_final()
        assert report.ok, report.describe()


class TestWavePolicyLiveness:
    """The Nagle hold is bounded; a stalled consumer cannot deadlock it."""

    def test_zero_link_cost_dispatches_immediately(self):
        policy = WavePolicy(link_cost=lambda: 0.0)
        decision = policy.decide(depth=1, budget=8, enqueued_total=1, now=0.0)
        assert decision.size == 1
        assert decision.hold_until is None

    def test_zero_budget_never_starts_a_hold(self):
        # Stalled workers => zero credit.  The policy must not park a
        # hold deadline; the instant credit returns, dispatch proceeds.
        policy = WavePolicy(link_cost=lambda: 0.001)
        stalled = policy.decide(depth=5, budget=0, enqueued_total=5, now=0.0)
        assert stalled.size == 0
        assert stalled.hold_until is None
        resumed = policy.decide(depth=5, budget=2, enqueued_total=5, now=0.001)
        assert resumed.size == 2

    def test_hold_deadline_forces_dispatch(self):
        policy = WavePolicy(link_cost=lambda: 0.002)
        # Teach the EWMA a high arrival rate so fill > depth.
        policy.decide(depth=0, budget=8, enqueued_total=0, now=0.0)
        policy.decide(depth=0, budget=8, enqueued_total=1000, now=0.001)
        held = policy.decide(depth=1, budget=64, enqueued_total=1000, now=0.002)
        assert held.size == 0
        assert held.hold_until is not None
        assert held.hold_until <= 0.002 + policy.hold_cap + 1e-12
        fired = policy.decide(depth=1, budget=64, enqueued_total=1000,
                              now=held.hold_until)
        assert fired.size == 1
        assert fired.held_for == pytest.approx(policy.hold_budget())

    @given(
        steps=st.lists(
            st.tuples(st.integers(1, 32),      # depth
                      st.integers(1, 16),      # budget
                      st.integers(0, 50)),     # arrivals since last step
            min_size=1, max_size=40),
        cost=st.floats(min_value=0.0001, max_value=0.01),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_hold_resolves_within_the_cap(self, steps, cost):
        policy = WavePolicy(link_cost=lambda: cost)
        now = 0.0
        enqueued = 0
        for depth, budget, arrivals in steps:
            enqueued += arrivals
            decision = policy.decide(depth=depth, budget=budget,
                                     enqueued_total=enqueued, now=now)
            if decision.size == 0:
                # A held wave always names a deadline within the cap,
                # and at that deadline it must dispatch.
                assert decision.hold_until is not None
                assert decision.hold_until <= now + policy.hold_cap + 1e-9
                fired = policy.decide(depth=depth, budget=budget,
                                      enqueued_total=enqueued,
                                      now=decision.hold_until)
                assert 0 < fired.size <= min(depth, budget)
                now = decision.hold_until
            else:
                assert decision.size <= min(depth, budget)
            now += 0.0005


class TestQueueDepthWatermark:
    def test_depth_tracks_and_watermark_is_monotone(self):
        q = ReliableQueue()
        assert q.depth == 0 and q.high_watermark == 0
        for i in range(5):
            q.put(i)
        assert q.depth == 5 and q.high_watermark == 5
        leases = [q.lease_many(1, lease_timeout=10.0)[0] for _ in range(3)]
        assert q.depth == 2
        assert q.high_watermark == 5          # watermark never recedes
        q.requeue([leases[0].lease_id])
        assert q.depth == 3
        q.put_many(range(10, 14))
        assert q.depth == 7
        assert q.high_watermark == 7


class TestLiveCreditFlow:
    """Credit propagation and shedding on a real deployment."""

    def test_window_propagates_via_dirty_heartbeat(self):
        # A 5 s heartbeat period would leave the forwarder blind for the
        # whole test — the credit-dirty beat must report the window long
        # before the first periodic beat is due.
        config = EndpointConfig(workers_per_node=2, prefetch_capacity=1,
                                heartbeat_period=5.0)
        with LocalDeployment() as dep:
            ep = dep.create_endpoint("cluster", nodes=2, config=config)
            forwarder = dep.forwarder(ep)
            # 2 nodes x (2 workers + 1 prefetch) + 2-deep agent buffer = 12.
            assert wait_until(lambda: forwarder.credit_window == 12,
                              timeout=2.0), \
                f"window={forwarder.credit_window} (dirty beat never fired)"
            assert dep.endpoint(ep).agent.credit_window() == 12

    def test_mismatch_sheds_into_service_queue(self):
        # Window of 3 (one worker, no prefetch, plus the two-node-window
        # agent buffer) against a burst of 8: five tasks wait
        # server-side, visibly.
        config = EndpointConfig(workers_per_node=1, prefetch_capacity=0,
                                heartbeat_period=0.05)
        with LocalDeployment() as dep:
            ep = dep.create_endpoint("tiny", nodes=1, config=config)
            forwarder = dep.forwarder(ep)
            queue = dep.service.task_queue(ep)
            assert wait_until(lambda: forwarder.credit_window == 3)
            client = dep.client()
            fid = client.register_function(short_tick)
            futures = [client.submit(fid, ep, i) for i in range(8)]
            drained, peak = drain_sampling_peak(
                dep, dep.service, ep, forwarder, timeout=20.0)
            assert drained
            assert [f.result(timeout=10) for f in futures] == \
                [i + 1 for i in range(8)]
            assert peak <= 3
            assert queue.high_watermark >= 4
            assert forwarder.credit_stalls > 0

    def test_scale_from_zero_window_keeps_demand_observable(self):
        # An endpoint with no managers yet advertises one node's worth
        # of window, not zero: a zero window would stop dispatch
        # entirely, and an elasticity controller watching agent-side
        # load could then never see the demand it should scale out for.
        config = EndpointConfig(workers_per_node=2, prefetch_capacity=1,
                                heartbeat_period=0.05)
        with LocalDeployment() as dep:
            ep = dep.create_endpoint("elastic", nodes=0, config=config)
            forwarder = dep.forwarder(ep)
            agent = dep.endpoint(ep).agent
            assert agent.credit_window() == 6
            assert wait_until(lambda: forwarder.credit_window == 6)
            client = dep.client()
            fid = client.register_function(double)
            for i in range(8):
                client.submit(fid, ep, i)
            # Demand becomes visible agent-side, but stays bounded by
            # the pipeline buffer.
            assert wait_until(
                lambda: agent.pending_count() + agent.outstanding_count() > 0)
            assert agent.pending_count() + agent.outstanding_count() <= 6
            assert forwarder.outstanding <= 6

    def test_adaptive_batching_keeps_serial_link_throughput(self):
        # A costed serial link is exactly where nagling should win (or
        # at least never lose): the burst still completes promptly.
        timings = DeploymentTimings(service_endpoint_transfer_cost=0.0005)
        config = EndpointConfig(workers_per_node=4, heartbeat_period=0.05)
        with LocalDeployment(timings=timings) as dep:
            ep = dep.create_endpoint("wan", nodes=1, config=config)
            client = dep.client()
            fid = client.register_function(double)
            futures = [client.submit(fid, ep, i) for i in range(30)]
            assert [f.result(timeout=15) for f in futures] == \
                [i * 2 for i in range(30)]
