"""Tests for the batched, event-driven dispatch fabric.

Covers the coalescing primitives (``send_many``, batch envelopes, the
serial-link transfer-cost model), the :class:`Wakeup` primitive that
replaces sleep-polling, queue lease ordering under batched lease/nack,
and envelope behavior across faulty channels.
"""

from __future__ import annotations

import logging
import threading
import time

import pytest

from repro.endpoint.config import EndpointConfig
from repro.errors import Disconnected
from repro.fabric import DeploymentTimings, LocalDeployment
from repro.store.queues import ReliableQueue
from repro.transport.channel import Channel
from repro.transport.messages import (
    Advertisement,
    CommandMessage,
    Heartbeat,
    Registration,
    ResultBatchMessage,
    TaskBatchMessage,
    TaskMessage,
)
from repro.transport.wakeup import Wakeup, run_loop

from conftest import unwrap_tasks


class TestWakeup:
    def test_set_latches_before_wait(self):
        wakeup = Wakeup()
        wakeup.set()
        assert wakeup.wait(0.0) is True
        assert wakeup.wait(0.0) is False  # signal was consumed

    def test_timeout_returns_false(self):
        wakeup = Wakeup()
        start = time.monotonic()
        assert wakeup.wait(0.02) is False
        assert time.monotonic() - start >= 0.015

    def test_set_at_past_time_fires_immediately(self, clock):
        wakeup = Wakeup(clock=clock)
        clock.advance(1.0)
        wakeup.set_at(0.5)
        assert wakeup.wait(0.0) is True

    def test_set_at_future_ripens_with_clock(self, clock):
        wakeup = Wakeup(clock=clock)
        wakeup.set_at(1.0)
        clock.advance(1.0)
        assert wakeup.wait(0.0) is True

    def test_set_at_coalesces_to_earliest(self, clock):
        wakeup = Wakeup(clock=clock)
        wakeup.set_at(2.0)
        wakeup.set_at(1.0)
        clock.advance(1.0)
        assert wakeup.wait(0.0) is True  # the earlier schedule won

    def test_consuming_earliest_keeps_later_schedules(self, clock):
        # Regression: with two transfers in flight, consuming the first
        # ripen time must not drop the second — otherwise the later
        # message sits unreceived until the fallback poll.
        wakeup = Wakeup(clock=clock)
        wakeup.set_at(1.0)
        wakeup.set_at(2.0)
        clock.advance(1.0)
        assert wakeup.wait(0.0) is True   # first ripen consumed
        assert wakeup.wait(0.0) is False  # second not ripe yet
        clock.advance(1.0)
        assert wakeup.wait(0.0) is True   # later schedule survived

    def test_cross_thread_wake(self):
        wakeup = Wakeup()
        woke = []
        waiter = threading.Thread(target=lambda: woke.append(wakeup.wait(5.0)))
        waiter.start()
        time.sleep(0.01)
        wakeup.set()
        waiter.join(1.0)
        assert woke == [True]


class TestCoalescedTransfers:
    def test_send_many_delivers_in_order(self, clock):
        channel = Channel(clock=clock)
        messages = [f"m{i}" for i in range(5)]
        assert channel.left.send_many(messages) == 5
        assert channel.right.recv_all_ready() == messages
        assert channel.coalesced_count == 5

    def test_send_many_empty_is_noop(self, clock):
        channel = Channel(clock=clock)
        assert channel.left.send_many([]) == 0
        assert channel.coalesced_count == 0

    def test_individual_sends_serialize_on_the_link(self, clock):
        channel = Channel(clock=clock, latency=0.001, transfer_cost=0.002)
        for i in range(5):
            channel.left.send(i)
        # Each transfer occupies the link for 2 ms: the first ripens at
        # 3 ms, the last not before 5 * 2 ms + 1 ms.
        clock.advance(0.003)
        assert channel.right.recv_all_ready() == [0]
        clock.advance(0.008)  # t = 11 ms
        assert channel.right.recv_all_ready() == [1, 2, 3, 4]

    def test_coalesced_batch_pays_transfer_cost_once(self, clock):
        channel = Channel(clock=clock, latency=0.001, transfer_cost=0.002)
        assert channel.left.send_many(range(5)) == 5
        clock.advance(0.003)  # one occupancy + latency covers all five
        assert channel.right.recv_all_ready() == list(range(5))

    def test_random_loss_drops_the_whole_transfer(self):
        channel = Channel(drop_probability=0.99, seed=7)
        assert channel.left.send_many(["a", "b", "c"]) == 0
        assert channel.dropped_count == 3
        assert channel.right.recv_all_ready() == []

    def test_send_many_toward_dead_peer_drops(self):
        channel = Channel()
        channel.right.disconnect()
        assert channel.left.send_many([1, 2]) == 0
        assert channel.dropped_count == 2

    def test_send_many_from_disconnected_end_raises(self):
        channel = Channel()
        channel.left.disconnect()
        with pytest.raises(Disconnected):
            channel.left.send_many([1])

    def test_recv_all_ready_bound(self, clock):
        channel = Channel(clock=clock)
        for i in range(10):
            channel.left.send(i)
        assert channel.right.recv_all_ready(4) == [0, 1, 2, 3]
        assert channel.right.recv_all_ready() == [4, 5, 6, 7, 8, 9]

    def test_wakeup_fired_with_delivery_time(self, clock):
        channel = Channel(clock=clock, latency=0.5)
        fired = []
        channel.right.wakeup = fired.append
        channel.left.send("x")
        channel.left.send_many(["y", "z"])
        assert fired == [0.5, 0.5]


class TestRunLoop:
    def test_raising_step_is_logged_once_and_the_loop_keeps_serving(
            self, caplog):
        stop, wakeup = threading.Event(), Wakeup()
        served = threading.Event()
        calls = []

        def step() -> int:
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("bad message")
            if len(calls) == 3:
                served.set()
            return 0

        thread = threading.Thread(
            target=run_loop, args=("agent:ep-1", step, stop, wakeup, 0.005),
            daemon=True)
        with caplog.at_level(logging.ERROR, logger="repro.transport.wakeup"):
            thread.start()
            assert served.wait(5.0), "the loop died with the raising step"
            stop.set()
            wakeup.set()
            thread.join(5.0)
        assert not thread.is_alive()
        failures = [r for r in caplog.records if r.exc_info]
        assert len(failures) == 1
        assert "agent:ep-1" in failures[0].getMessage()
        assert "bad message" in str(failures[0].exc_info[1])


class TestBatchEnvelopesUnderFaults:
    def _envelope(self):
        task = TaskMessage(sender="f", task_id="t1", function_id="fn")
        return TaskBatchMessage(
            sender="f", tasks=(task,), function_buffers={"fn": b"code"})

    def test_envelope_toward_dead_peer_is_observably_dropped(self, clock):
        channel = Channel(clock=clock)
        channel.right.disconnect()
        assert not channel.left.send(self._envelope())
        assert channel.dropped_count == 1  # sender sees the failure

    def test_envelope_round_trips_after_reconnect(self, clock):
        channel = Channel(clock=clock)
        channel.right.disconnect()
        assert not channel.left.send(self._envelope())
        channel.right.reconnect()
        assert channel.left.send(self._envelope())
        (got,) = channel.right.recv_all_ready()
        assert got.tasks[0].task_id == "t1"
        assert got.function_buffers["fn"] == b"code"


class TestLeaseManyOrdering:
    def test_lease_many_preserves_fifo(self):
        queue = ReliableQueue()
        for i in range(6):
            queue.put(i)
        leases = queue.lease_many(4)
        assert [lease.item for lease in leases] == [0, 1, 2, 3]
        assert [lease.item for lease in queue.lease_many(4)] == [4, 5]

    def test_partial_batch_nack_redelivers_before_new_work(self):
        queue = ReliableQueue()
        for i in range(5):
            queue.put(i)
        leases = {lease.item: lease for lease in queue.lease_many(5)}
        queue.ack(leases[0].lease_id)
        queue.ack(leases[3].lease_id)
        # Nack the failures newest-first so age order lands at the front.
        for item in (4, 2, 1):
            queue.requeue([leases[item].lease_id])
        queue.put(99)
        redelivered = queue.lease_many(10)
        assert [lease.item for lease in redelivered] == [1, 2, 4, 99]
        assert [lease.deliveries for lease in redelivered] == [2, 2, 2, 1]
        assert queue.conservation_delta() == 0

    def test_queue_wakeup_fires_on_put_and_nack(self):
        queue = ReliableQueue()
        fired = []
        queue.wakeup = lambda: fired.append(True)
        queue.put(1)
        assert len(fired) == 1
        (lease,) = queue.lease_many(1)
        queue.requeue([lease.lease_id])
        assert len(fired) == 2
        queue.put_many([2, 3])
        assert len(fired) == 3


def _double(x):
    return 2 * x


class TestDeploymentBatchingModes:
    def test_batched_deployment_coalesces_and_records_metrics(self):
        timings = DeploymentTimings(service_endpoint_latency=0.001)
        with LocalDeployment(timings=timings) as deployment:
            client = deployment.client()
            ep = deployment.create_endpoint("batchy", nodes=1, start=False)
            fid = client.register_function(_double)
            futures = [client.submit(fid, ep, i) for i in range(16)]
            # Start the endpoint with 16 tasks queued so the first
            # dispatch is observably a coalesced batch.
            deployment.forwarder(ep).start()
            deployment.endpoint(ep).start()
            assert [f.result(timeout=10) for f in futures] == [
                2 * i for i in range(16)]
            coalesced = deployment.metrics.value(
                "channel.coalesced_messages",
                component="forwarder", endpoint=ep)
            assert coalesced >= 16
            batch_hist = deployment.metrics.histogram(
                "dispatch.batch_size", component="forwarder", endpoint=ep)
            assert batch_hist.count >= 1
            assert batch_hist.summary()["max"] >= 2


def _nap(seconds):
    import time

    time.sleep(seconds)
    return seconds


class TestOnlyEnvelopesOnTheWire:
    """Tasks and results cross every link inside batch envelopes — a
    lone task, a burst, and the agent's own failure result alike."""

    def test_no_bare_task_or_result_crosses_any_channel(self):
        config = EndpointConfig(
            workers_per_node=2, heartbeat_period=0.1, heartbeat_grace=3,
            max_retries_on_loss=0)
        crossed = []
        with LocalDeployment() as deployment:
            client = deployment.client()
            ep = deployment.create_endpoint(
                "wire", nodes=1, config=config, start=False)
            for channel in deployment.network.channels:
                for end in (channel.left, channel.right):
                    def tap(now, latency, cost, messages, _real=end._deliver_batch):
                        crossed.extend(messages)
                        _real(now, latency, cost, messages)
                    end._deliver_batch = tap
            endpoint = deployment.endpoint(ep)
            deployment.forwarder(ep).start()
            endpoint.start()
            assert endpoint.wait_ready()

            double = client.register_function(_double)
            assert client.submit(double, ep, 21).result(timeout=10) == 42
            burst = [client.submit(double, ep, i) for i in range(32)]
            assert [f.result(timeout=10) for f in burst] == [
                2 * i for i in range(32)]

            # Manager lost with the re-execution budget at zero: the
            # agent itself reports the task failed (``_fail_task``).
            nap = client.register_function(_nap)
            doomed = client.submit(nap, ep, 1.0)
            agent = endpoint.agent
            deadline = time.monotonic() + 5.0
            while agent.outstanding_count() == 0:
                assert time.monotonic() < deadline, "task never reached a manager"
                time.sleep(0.002)
            killed = endpoint.kill_manager(agent.manager_ids()[0])
            try:
                with pytest.raises(Exception, match="retries exhausted"):
                    doomed.result(timeout=10)
            finally:
                killed.stop()

        envelopes = [m for m in crossed
                     if isinstance(m, (TaskBatchMessage, ResultBatchMessage))]
        tasks = len(unwrap_tasks(envelopes))
        results = [r for m in envelopes if isinstance(m, ResultBatchMessage)
                   for r in m.results]
        # service→agent and agent→manager for each of the 34 tasks; every
        # result twice too, except the agent's own, which crosses once.
        assert tasks == 2 * 34
        assert len(results) == 2 * 33 + 1
        assert [r.sender for r in results if not r.success] == [agent.name]
        others = [m for m in crossed if m not in envelopes]
        assert others, "no control traffic was observed"
        assert {type(m) for m in others} <= {
            Registration, Advertisement, Heartbeat, CommandMessage}
