"""Unit tests for the forwarder: dispatch, heartbeats, requeue-on-loss.

The forwarder is stepped manually against a fake agent on the other end
of a channel, so every scenario is deterministic.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.auth import AuthService
from repro.core.forwarder import Forwarder
from repro.core.service import FuncXService
from repro.core.tasks import TaskState, stage_seconds
from repro.endpoint.agent import FuncXAgent
from repro.serialize import FuncXSerializer
from repro.transport.channel import Channel
from repro.transport.messages import (
    Heartbeat,
    Registration,
    ResultBatchMessage,
    ResultMessage,
    TaskBatchMessage,
)

from conftest import unwrap_tasks


def send_results(agent_end, *results):
    """Results only ever cross the wire inside an envelope."""
    agent_end.send(ResultBatchMessage(sender="agent:x", results=results))


@pytest.fixture
def world(clock, request):
    """service + forwarder + the agent's channel end; an indirect
    parameter sets the heartbeat period (default 1 s)."""
    service = FuncXService(auth=AuthService(clock=clock), clock=clock)
    identity = service.auth.register_identity("alice")
    token = service.auth.native_client_flow(identity).token
    _, ep_tok = service.auth.endpoint_client_flow("ep")
    endpoint_id = service.register_endpoint(ep_tok.token, name="ep")
    serializer = FuncXSerializer()

    def double(x):
        return 2 * x

    function_id = service.register_function(
        token, "double", serializer.serialize_function(double), public=True
    )
    channel = Channel(clock=clock)
    forwarder = Forwarder(
        service, endpoint_id, channel.left,
        heartbeat_period=getattr(request, "param", 1.0), heartbeat_grace=3
    )
    agent_end = channel.right

    class World:
        pass

    w = World()
    w.clock = clock
    w.service = service
    w.forwarder = forwarder
    w.channel = channel
    w.agent = agent_end
    w.endpoint_id = endpoint_id
    w.function_id = function_id
    w.token = token
    w.serializer = serializer
    return w


def connect_agent(w):
    w.agent.send(Registration(sender="agent:x", component_type="endpoint"))
    w.forwarder.step()


def submit(w, value=1):
    payload = w.serializer.serialize(([value], {}))
    return w.service.submit(w.token, w.function_id, w.endpoint_id, payload)


class TestDispatch:
    def test_no_dispatch_until_agent_connects(self, world):
        submit(world)
        world.forwarder.step()
        assert world.agent.recv_all_ready() == []
        assert not world.forwarder.agent_connected

    def test_dispatch_after_registration(self, world):
        task_id = submit(world)
        connect_agent(world)
        world.forwarder.step()
        messages = world.agent.recv_all_ready()
        assert len(messages) == 1
        (msg,) = unwrap_tasks(messages)
        assert msg.task_id == task_id
        assert msg.function_buffer  # function body travels in the envelope
        assert world.service.task_by_id(task_id).state is TaskState.DISPATCHED

    def test_dispatch_batch(self, world):
        ids = {submit(world, i) for i in range(10)}
        connect_agent(world)
        world.forwarder.step()
        messages = world.agent.recv_all_ready()
        assert len(messages) == 1  # ten tasks coalesced into one transfer
        got = {m.task_id for m in unwrap_tasks(messages)}
        assert got == ids
        assert world.forwarder.tasks_forwarded == 10

    def test_cancelled_task_not_dispatched(self, world):
        task_id = submit(world)
        task = world.service.task_by_id(task_id)
        task.advance(TaskState.CANCELLED, 0.0)
        connect_agent(world)
        world.forwarder.step()
        assert world.agent.recv_all_ready() == []


class TestResults:
    def test_result_completes_task(self, world):
        task_id = submit(world, 21)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        result_buf = world.serializer.serialize(42, routing_tag=task_id)
        send_results(world.agent, ResultMessage(
            sender="w0", task_id=task_id, success=True, result_buffer=result_buf,
            execution_time=0.1, completed_at=world.clock(),
        ))
        world.forwarder.step()
        assert world.service.task_by_id(task_id).state is TaskState.SUCCESS
        assert world.service.get_result(world.token, task_id) == result_buf
        assert world.forwarder.outstanding == 0

    def test_failure_result_records_traceback(self, world):
        from repro.serialize.traceback import RemoteExceptionWrapper

        task_id = submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        try:
            raise ValueError("remote boom")
        except ValueError as exc:
            wrapper = RemoteExceptionWrapper(exc)
        buf = world.serializer.serialize(wrapper, routing_tag=task_id)
        send_results(world.agent, ResultMessage(
            sender="w0", task_id=task_id, success=False,
            result_buffer=buf, completed_at=world.clock()))
        world.forwarder.step()
        task = world.service.task_by_id(task_id)
        assert task.state is TaskState.FAILED
        assert "remote boom" in task.exception_text

    def test_undecodable_failure_buffer_is_logged_and_does_not_strand_the_wave(
            self, world, caplog):
        """Fail loud: the task whose failure buffer cannot be decoded keeps
        the fallback text, the log names it, and its neighbours in the
        same envelope are still applied."""
        first, garbled, last = (submit(world, i) for i in range(3))
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()

        def ok(task_id, value):
            return ResultMessage(
                sender="w0", task_id=task_id, success=True,
                result_buffer=world.serializer.serialize(
                    value, routing_tag=task_id),
                completed_at=world.clock())

        send_results(
            world.agent, ok(first, 10),
            ResultMessage(sender="w0", task_id=garbled, success=False,
                          result_buffer=b"\x00not a buffer",
                          completed_at=world.clock()),
            ok(last, 30))
        with caplog.at_level("WARNING", logger="repro.core.forwarder"):
            world.forwarder.step()
        assert world.service.task_by_id(first).state is TaskState.SUCCESS
        assert world.service.task_by_id(last).state is TaskState.SUCCESS
        failed = world.service.task_by_id(garbled)
        assert failed.state is TaskState.FAILED
        assert failed.exception_text == "remote execution failed"
        assert world.forwarder.outstanding == 0
        records = [r for r in caplog.records if garbled in r.getMessage()]
        assert len(records) == 1 and records[0].levelname == "WARNING"
        assert not any(first in r.getMessage() or last in r.getMessage()
                       for r in caplog.records)


class TestHeartbeatsAndLoss:
    def test_heartbeat_marks_endpoint_connected(self, world):
        connect_agent(world)
        world.agent.send(Heartbeat(sender="agent:x", timestamp=world.clock()))
        world.forwarder.step()
        record = world.service.endpoints.get(world.endpoint_id)
        assert record.connected

    def test_agent_loss_requeues_outstanding(self, world):
        task_id = submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        assert world.forwarder.outstanding == 1
        world.clock.advance(4.0)  # beyond period*grace = 3s
        world.forwarder.step()
        assert not world.forwarder.agent_connected
        task = world.service.task_by_id(task_id)
        assert task.state is TaskState.QUEUED
        assert len(world.service.task_queue(world.endpoint_id)) == 1
        assert world.forwarder.requeue_events == 1

    def test_redispatch_after_reconnection(self, world):
        task_id = submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        world.clock.advance(4.0)
        world.forwarder.step()  # loss detected, task requeued
        world.agent.send(Registration(sender="agent:x", component_type="endpoint"))
        world.forwarder.step()
        world.forwarder.step()
        redelivered = world.agent.recv_all_ready()
        assert [m.task_id for m in unwrap_tasks(redelivered)] == [task_id]
        assert world.service.task_by_id(task_id).attempts == 2

    def test_retry_budget_failure_after_repeated_loss(self, world):
        task_id = submit(world)
        world.service.task_by_id(task_id).max_retries = 1
        for _ in range(2):
            world.agent.send(Registration(sender="agent:x", component_type="endpoint"))
            world.forwarder.step()
            world.forwarder.step()
            world.agent.recv_all_ready()
            world.clock.advance(4.0)
            world.forwarder.step()
        task = world.service.task_by_id(task_id)
        assert task.state is TaskState.FAILED
        assert "retries exhausted" in task.exception_text

    def test_result_return_time_recorded(self, world):
        task_id = submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        world.clock.advance(1.0)  # a 0.0 stamp reads as "not stamped"
        completed_at = world.clock()
        world.clock.advance(0.5)
        send_results(world.agent, ResultMessage(
            sender="w", task_id=task_id, success=True,
            result_buffer=world.serializer.serialize(1),
            completed_at=completed_at))
        world.forwarder.step()
        task = world.service.task_by_id(task_id)
        assert task.state_times["worker_out"] == completed_at
        stages = stage_seconds(task.state_times, task.state.value)
        assert stages["result_return"] == pytest.approx(0.5)


class TestOneLeaseTable:
    """What is in flight is the endpoint queue's lease table: a shard
    kill empties it, and the forwarder's count and credit read it."""

    def test_kill_and_restart_keep_outstanding_on_the_queue(self, world):
        service, forwarder = world.service, world.forwarder
        queue = service.task_queue(world.endpoint_id)
        shard = service.shard_for_endpoint(world.endpoint_id)

        def in_step() -> int:
            assert forwarder.outstanding == queue.in_flight
            return queue.in_flight

        ids = {submit(world, i) for i in range(4)}
        connect_agent(world)
        world.agent.send(Heartbeat(sender="agent:x", timestamp=world.clock(),
                                   credit=4))
        forwarder.step()
        assert {m.task_id for m in unwrap_tasks(world.agent.recv_all_ready())} == ids
        assert in_step() == 4
        assert shard.kill() == 4
        assert in_step() == 0
        assert {service.task_by_id(t).state for t in ids} == {TaskState.QUEUED}
        service.restart_shard(shard.index)
        stalls = forwarder.credit_stalls
        forwarder.step()  # the first wave after restart: full credit
        assert forwarder.credit_stalls == stalls
        assert {m.task_id for m in unwrap_tasks(world.agent.recv_all_ready())} == ids
        assert in_step() == 4
        assert {service.task_by_id(t).state for t in ids} == {TaskState.DISPATCHED}
        send_results(world.agent, *(ResultMessage(
            sender="w0", task_id=task_id, success=True, result_buffer=b"r",
            execution_time=0.0, completed_at=world.clock()) for task_id in ids))
        forwarder.step()
        assert in_step() == 0
        assert queue.conservation_delta() == 0

    def test_kill_between_lease_and_mark_leaves_no_dispatched_ready_id(self, world):
        service, forwarder = world.service, world.forwarder
        queue = service.task_queue(world.endpoint_id)
        shard = service.shard_for_endpoint(world.endpoint_id)
        connect_agent(world)
        task_id = submit(world)
        send = forwarder.channel.send

        def killed_mid_send(message):
            shard.kill()
            return send(message)

        forwarder.channel.send = killed_mid_send
        forwarder.step()
        forwarder.channel.send = send
        ready, leased = queue.snapshot_items()
        assert (ready, leased) == ([task_id], [])
        assert service.task_by_id(task_id).state is TaskState.QUEUED
        service.restart_shard(shard.index)
        forwarder.step()  # redelivered: QUEUED -> DISPATCHED once more
        assert queue.leased() == [task_id]
        assert service.task_by_id(task_id).state is TaskState.DISPATCHED


class TestSiteContainerConversion:
    """§4.2: a Docker-format key is converted to the site's technology."""

    def test_converted_for_shifter_site(self, world):
        record = world.service.endpoints.get(world.endpoint_id)
        record.metadata["container_technology"] = "shifter"
        payload = world.serializer.serialize(([1], {}))
        token = world.token
        fid = world.service.register_function(
            token, "containerized", world.serializer.serialize_function(lambda x: x),
            container_image="docker:dials/stills:1", public=True,
        )
        world.service.submit(token, fid, world.endpoint_id, payload)
        connect_agent(world)
        world.forwarder.step()
        (message,) = unwrap_tasks(world.agent.recv_all_ready())
        assert message.container_image == "shifter:dials/stills:1"

    def test_untouched_without_site_technology(self, world):
        payload = world.serializer.serialize(([1], {}))
        fid = world.service.register_function(
            world.token, "containerized",
            world.serializer.serialize_function(lambda x: x),
            container_image="docker:dials/stills:1", public=True,
        )
        world.service.submit(world.token, fid, world.endpoint_id, payload)
        connect_agent(world)
        world.forwarder.step()
        (message,) = unwrap_tasks(world.agent.recv_all_ready())
        assert message.container_image == "docker:dials/stills:1"

    def test_bare_tasks_unaffected(self, world):
        record = world.service.endpoints.get(world.endpoint_id)
        record.metadata["container_technology"] = "singularity"
        task_id = submit(world)
        connect_agent(world)
        world.forwarder.step()
        (message,) = unwrap_tasks(world.agent.recv_all_ready())
        assert message.container_image is None


class TestDispatchBatching:
    def test_max_dispatch_per_step_bounds_each_iteration(self, world):
        world.forwarder.max_dispatch_per_step = 3
        for i in range(8):
            submit(world, i)
        connect_agent(world)  # performs one step -> first wave of 3
        first_wave = unwrap_tasks(world.agent.recv_all_ready())
        assert len(first_wave) == 3
        world.forwarder.step()
        world.forwarder.step()
        rest = unwrap_tasks(world.agent.recv_all_ready())
        assert len(rest) == 5

    @pytest.mark.parametrize("world", [60.0], indirect=True)
    def test_bounded_wave_re_arms_the_live_loop(self, world):
        # A wave cut at the per-step bound, backlog and credit left: the
        # loop must come straight back for the rest, not at the fallback
        # (30 s here; the fake clock never lets it fire at all).
        world.forwarder.max_dispatch_per_step = 3
        ids = {submit(world, i) for i in range(20)}
        arrived = threading.Event()
        world.agent.wakeup = lambda _when: arrived.set()
        world.forwarder.start()
        try:
            world.agent.send(Registration(sender="agent:x",
                                          component_type="endpoint"))
            got = []
            deadline = time.monotonic() + 2.0
            while len(got) < len(ids) and arrived.wait(
                    max(0.0, deadline - time.monotonic())):
                arrived.clear()
                got += unwrap_tasks(world.agent.recv_all_ready())
        finally:
            world.forwarder.stop()
        assert {m.task_id for m in got} == ids
        assert world.forwarder.tasks_forwarded == 20


class TestFunctionBufferCache:
    """Every envelope carries the body of each function its tasks name,
    once; no sender records what its receiver already holds."""

    # 128 is the wave the retired 2x e2e gate drove: what made it fast is
    # this count — one transfer and one body for the whole wave.
    @pytest.mark.parametrize("count", [5, 128])
    def test_buffer_shipped_once_per_batch(self, world, count):
        for i in range(count):
            submit(world, i)
        connect_agent(world)
        world.forwarder.step()
        (envelope,) = [m for m in world.agent.recv_all_ready()
                       if isinstance(m, TaskBatchMessage)]
        assert len(envelope.tasks) == count
        assert list(envelope.function_buffers) == [world.function_id]
        assert all(t.function_buffer == b"" for t in envelope.tasks)

    def test_buffer_cached_across_batches(self, world):
        submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        submit(world)
        world.forwarder.step()
        (envelope,) = [m for m in world.agent.recv_all_ready()
                       if isinstance(m, TaskBatchMessage)]
        # The agent already holds the body; the envelope carries it anyway.
        assert list(envelope.function_buffers) == [world.function_id]

    def test_reregistration_invalidates_cache(self, world):
        submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        connect_agent(world)  # the agent restarted and re-registered
        submit(world)
        world.forwarder.step()
        envelopes = [m for m in world.agent.recv_all_ready()
                     if isinstance(m, TaskBatchMessage)]
        assert any(world.function_id in e.function_buffers for e in envelopes)

    def test_redelivery_reships_buffer(self, world):
        submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        world.clock.advance(4.0)
        world.forwarder.step()  # loss detected, task requeued
        world.agent.send(Registration(sender="agent:x", component_type="endpoint"))
        world.forwarder.step()
        world.forwarder.step()
        (envelope,) = [m for m in world.agent.recv_all_ready()
                       if isinstance(m, TaskBatchMessage)]
        assert world.function_id in envelope.function_buffers

    def test_overtaken_envelope_strands_no_task(self, world):
        """Jitter reorders two waves on the forwarder→agent link: the
        second envelope, carrying task B, lands before the first, which
        carries task A.  B's own envelope holds its body, so the agent
        admits both with no lease timeout to redeliver a dropped one."""
        agent = FuncXAgent(world.endpoint_id, world.agent, clock=world.clock)
        agent.register_with_forwarder()
        world.forwarder.step()
        first = submit(world)
        world.channel.set_latency(0.2)
        world.forwarder.step()
        world.channel.set_latency(0.0)
        second = submit(world)
        world.forwarder.step()
        agent.step()
        world.clock.advance(0.2)
        agent.step()
        assert agent.tracked_task_ids() == [second, first]
        assert agent.metrics.value(
            "agent.buffer_misses", endpoint=world.endpoint_id) == 0
