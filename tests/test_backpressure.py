"""Backpressure proof suite: credit flow + adaptive waves under overload.

The tentpole claim (ISSUE 6): a 10:1 producer/consumer mismatch must shed
load into the bounded, observable service-side queue instead of growing
the in-flight population without bound.  This module proves it three ways:

* a chaos overload run — sustained mismatch with message drops and
  manager churn, checked by the ``bounded-in-flight`` invariant and by
  sampling the forwarder's open-lease table directly;
* the link rule, stepped under a fake clock — a wave waits only while
  the link toward the agent is busy: a lone task is never held, a burst
  on a busy link gathers at least its arrivals per transfer time, and a
  held wave leaves at the instant the link frees, never later, and every
  hold resolves within one transfer (hypothesis properties: the liveness
  bound);
* live credit flow on a real :class:`LocalDeployment`:
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
from repro.auth import AuthService
from repro.chaos import FaultPlan, FaultStep
from repro.core.forwarder import Forwarder
from repro.core.service import FuncXService
from repro.serialize import FuncXSerializer
from repro.store.queues import ReliableQueue
from repro.transport.channel import Channel
from repro.transport.messages import Heartbeat, Registration, TaskBatchMessage

from tests.conftest import FakeClock

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


#: Transfer time and arrival gap, exact in binary: 4 arrivals per transfer.
COST = 2.0 ** -9
GAP = 2.0 ** -11


class LinkWorld:
    """A forwarder stepped under a fake clock over a link of ``cost``
    seconds per transfer, with a registered agent end the test reads.
    Not started, so only the forwarder's own schedules arm its
    ``Wakeup``."""

    def __init__(self, cost):
        self.clock = FakeClock()
        self.service = FuncXService(auth=AuthService(clock=self.clock),
                                    clock=self.clock)
        auth = self.service.auth
        token = auth.native_client_flow(auth.register_identity("alice")).token
        _identity, ep_token = auth.endpoint_client_flow("ep")
        endpoint_id = self.service.register_endpoint(ep_token.token, name="ep")
        serializer = FuncXSerializer()
        function_id = self.service.register_function(
            token, "double", serializer.serialize_function(double),
            public=True)
        payload = serializer.serialize(([1], {}))
        self.submit = lambda n: self.service.submit_batch(
            token, [(function_id, endpoint_id, payload)] * n)
        self.channel = Channel(clock=self.clock, transfer_cost=cost)
        self.forwarder = Forwarder(self.service, endpoint_id,
                                   self.channel.left, clock=self.clock)
        self.channel.right.send(Registration(sender="agent:x",
                                             component_type="endpoint"))
        self.clock.advance(cost)            # the registration's own transfer
        self.forwarder.step()
        assert self.forwarder.agent_connected
        self.waves: list[int] = []

    def step(self):
        """Step the forwarder, then note each wave that reached the agent."""
        self.forwarder.step()
        self.waves += [len(message.tasks) for message
                       in self.channel.right.recv_all_ready()
                       if isinstance(message, TaskBatchMessage)]

    def advance_to(self, when):
        self.clock.advance(when - self.clock.now)

    def holds(self):
        return self.service.metrics.histogram(
            "dispatch.wave_hold_seconds", component="forwarder",
            endpoint=self.forwarder.endpoint_id).samples()

    def close(self):
        self.service.close()


class TestLinkRule:
    """A wave waits only while the link toward the agent is busy."""

    def test_lone_task_on_a_costed_link_is_not_held(self):
        world = LinkWorld(COST)
        try:
            for _ in range(5):
                world.submit(1)
                world.step()                # sent, still on the wire
                world.clock.advance(COST)
                world.step()                # delivered
            assert world.waves == [1] * 5
            assert world.holds() == [0.0] * 5
        finally:
            world.close()

    def test_burst_on_a_busy_link_gathers_its_arrivals_per_transfer(self):
        # One arrival every GAP, a step after each: each wave behind the
        # first leaves when the link frees, with the COST / GAP arrivals
        # that came while it was busy.
        world = LinkWorld(COST)
        try:
            for _ in range(400):
                world.submit(1)
                world.step()
                world.clock.advance(GAP)
            for _ in range(2):              # the last wave, then its transfer
                world.clock.advance(COST)
                world.step()
            assert sum(world.waves) == 400
            # The first wave found the link idle, the last is what was
            # left when the arrivals stopped.
            held = world.waves[1:-1]
            assert world.waves[0] == 1
            assert min(held) >= COST / GAP
        finally:
            world.close()

    def test_zero_credit_starts_no_hold(self):
        # A wave stopped by credit is not waiting for the link: the
        # stall records no link wait, however long it lasts.
        world = LinkWorld(COST)
        try:
            world.channel.right.send(Heartbeat(sender="agent:x", credit=1))
            world.clock.advance(COST)
            world.submit(3)
            world.step()                    # one task: the window's worth
            for _ in range(4):              # stalled across the link's end
                world.clock.advance(COST / 2)
                world.step()
            world.channel.right.send(Heartbeat(sender="agent:x", credit=3))
            world.clock.advance(COST)
            world.step()
            world.clock.advance(COST)
            world.step()
            assert world.waves == [1, 2]
            assert world.holds() == [0.0, 0.0]
        finally:
            world.close()

    @given(
        steps=st.lists(st.tuples(st.integers(0, 8),      # arrivals
                                 st.integers(0, 16)),    # gap, in ticks
                       min_size=1, max_size=30),
        cost_ticks=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_held_wave_leaves_when_the_link_frees_never_later(
            self, steps, cost_ticks):
        tick = 2.0 ** -12
        world = LinkWorld(cost_ticks * tick)
        queue = world.service.task_queue(world.forwarder.endpoint_id)
        try:
            for arrivals, gap in steps:
                if arrivals:
                    world.submit(arrivals)
                world.step()
                free_at = world.channel.left.link_free_at
                if queue.depth:
                    # Held: only because the link is busy, and woken at
                    # the instant it frees, not before.
                    assert free_at > world.clock.now
                    assert not world.forwarder._wakeup.wait(0)
                    world.advance_to(free_at)
                    assert world.forwarder._wakeup.wait(0)
                    world.step()
                    assert queue.depth == 0
                world.clock.advance(gap * tick)
            # No wave waits out more than the one transfer in progress.
            assert all(0.0 <= hold <= cost_ticks * tick
                       for hold in world.holds())
        finally:
            world.close()

    @given(
        steps=st.lists(st.tuples(st.integers(0, 8),      # arrivals
                                 st.integers(0, 16)),    # gap, in ticks
                       min_size=1, max_size=30),
        cost_ticks=st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_hold_resolves_within_one_transfer(self, steps, cost_ticks):
        # Stepped only on an arrival or when the forwarder's own Wakeup
        # fires, as its loop would be: every task still reaches the
        # agent, and no wave waits longer than one transfer.
        tick = 2.0 ** -12
        world = LinkWorld(cost_ticks * tick)
        queue = world.service.task_queue(world.forwarder.endpoint_id)

        def run_ticks(n):
            for _ in range(n):
                world.clock.advance(tick)
                if world.forwarder._wakeup.wait(0):
                    world.step()

        try:
            for arrivals, gap in steps:
                if arrivals:
                    world.submit(arrivals)
                world.step()
                run_ticks(gap)
            run_ticks(cost_ticks + 1)       # the last hold runs out
            assert queue.depth == 0
            world.clock.advance(cost_ticks * tick)
            world.step()                    # the last wave is delivered
            assert sum(world.waves) == sum(n for n, _gap in steps)
            assert all(0.0 <= hold <= cost_ticks * tick
                       for hold in world.holds())
        finally:
            world.close()

    def test_removed_policy_knob_is_rejected(self):
        world = LinkWorld(COST)
        try:
            with pytest.raises(TypeError):
                Forwarder(world.service, world.forwarder.endpoint_id,
                          Channel().left, wave_policy=object())
        finally:
            world.close()


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
