"""Tests for the dispatch/result-path hardening fixes.

Covers the four satellite bugfixes of this change:

* orphaned queue entries no longer strand the dispatch batch (the
  ``TaskNotFound`` lease leak);
* stale-incarnation heartbeats cannot revive a reconnected agent's
  previous lifetime;
* duplicate results never mutate an already-terminal task;
* ``submit_batch`` validates the whole batch before enqueueing anything;

plus a chaos run asserting invariant violations name the tasks
involved, ids that resolve to their records.
"""

from __future__ import annotations

import pytest

from repro.auth import AuthService
from repro.core.forwarder import Forwarder
from repro.core.service import FuncXService
from repro.core.tasks import TaskState
from repro.errors import PayloadTooLarge
from repro.serialize import FuncXSerializer
from repro.transport.channel import Channel
from repro.transport.messages import (
    Heartbeat,
    Registration,
    ResultBatchMessage,
    ResultMessage,
)

from conftest import unwrap_tasks


@pytest.fixture
def world(clock):
    """service + forwarder + the agent's channel end."""
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
        service, endpoint_id, channel.left, heartbeat_period=1.0, heartbeat_grace=3
    )
    agent_end = channel.right

    class World:
        pass

    w = World()
    w.clock = clock
    w.service = service
    w.forwarder = forwarder
    w.agent = agent_end
    w.endpoint_id = endpoint_id
    w.function_id = function_id
    w.token = token
    w.serializer = serializer
    return w


def connect_agent(w, incarnation=1):
    w.agent.send(Registration(sender="agent:x", component_type="endpoint",
                              incarnation=incarnation))
    w.forwarder.step()


def submit(w, value=1):
    payload = w.serializer.serialize(([value], {}))
    return w.service.submit(w.token, w.function_id, w.endpoint_id, payload)


def send_result(w, result):
    """Results only ever cross the wire inside an envelope."""
    w.agent.send(ResultBatchMessage(sender="agent:x", results=(result,)))


def complete(w, task_id, value=42):
    buf = w.serializer.serialize(value, routing_tag=task_id)
    send_result(w, ResultMessage(
        sender="w0", task_id=task_id, success=True, result_buffer=buf,
        execution_time=0.1, completed_at=w.clock(),
    ))
    w.forwarder.step()
    return buf


class TestOrphanLeases:
    """Satellite 1: a purged task id in the queue must not leak its lease
    or strand the rest of the dispatch batch."""

    def test_forgotten_task_lease_is_acked(self, world):
        task_id = submit(world)
        assert world.service.forget_task(task_id)
        connect_agent(world)
        world.forwarder.step()
        assert world.agent.recv_all_ready() == []  # nothing dispatched
        assert world.forwarder.outstanding == 0
        assert world.forwarder.orphan_leases == 1
        queue = world.service.task_queue(world.endpoint_id)
        assert queue.conservation_delta() == 0
        assert len(queue) == 0  # the orphan id is gone for good

    def test_orphan_mid_batch_does_not_strand_later_tasks(self, world):
        first = submit(world, 1)
        victim = submit(world, 2)
        last = submit(world, 3)
        assert world.service.forget_task(victim)
        connect_agent(world)
        world.forwarder.step()
        got = {m.task_id for m in unwrap_tasks(world.agent.recv_all_ready())}
        assert got == {first, last}  # batch continued past the orphan
        assert world.forwarder.tasks_forwarded == 2
        assert world.forwarder.orphan_leases == 1
        queue = world.service.task_queue(world.endpoint_id)
        assert queue.conservation_delta() == 0

    def test_forget_unknown_task_returns_false(self, world):
        assert not world.service.forget_task("no-such-task")

    def test_result_for_forgotten_task_is_absorbed(self, world):
        task_id = submit(world)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        world.service.forget_task(task_id)
        complete(world, task_id)  # must not raise out of the step
        assert world.forwarder.orphan_leases == 1
        assert world.forwarder.results_returned == 0


class TestStaleIncarnations:
    """Satellite 2: heartbeats from a superseded agent lifetime must not
    revive the connection (their tasks were already requeued)."""

    def _lose_agent(self, world):
        world.clock.advance(10.0)  # > period * grace
        world.forwarder.step()
        assert not world.forwarder.agent_connected

    def test_stale_beat_does_not_revive(self, world):
        connect_agent(world, incarnation=1)
        self._lose_agent(world)
        connect_agent(world, incarnation=2)  # agent came back, new lifetime
        self._lose_agent(world)
        # a delayed beat from lifetime 1 arrives after lifetime 2 died
        world.agent.send(Heartbeat(sender="agent:x", timestamp=world.clock(),
                                   incarnation=1))
        world.forwarder.step()
        assert not world.forwarder.agent_connected
        assert world.forwarder.stale_beats == 1

    def test_current_incarnation_beat_still_revives(self, world):
        connect_agent(world, incarnation=1)
        self._lose_agent(world)
        # flap back via heartbeat (same lifetime) — must stay legal
        world.agent.send(Heartbeat(sender="agent:x", timestamp=world.clock(),
                                   incarnation=1))
        world.forwarder.step()
        assert world.forwarder.agent_connected
        assert world.forwarder.stale_beats == 0

    def test_stale_registration_is_ignored(self, world):
        connect_agent(world, incarnation=5)
        assert world.forwarder.agent_connected
        incarnation_before = world.forwarder.incarnation
        connect_agent(world, incarnation=3)  # delayed replay of an old one
        assert world.forwarder.incarnation == incarnation_before

    def test_untagged_beats_keep_working(self, world):
        # incarnation=0 means "sender does not track incarnations"
        connect_agent(world, incarnation=0)
        self._lose_agent(world)
        world.agent.send(Heartbeat(sender="agent:x", timestamp=world.clock()))
        world.forwarder.step()
        assert world.forwarder.agent_connected


class TestDuplicateResults:
    """Satellite 3: the first result wins; a redelivered duplicate must
    not mutate the recorded outcome."""

    def test_duplicate_result_does_not_mutate(self, world):
        task_id = submit(world, 21)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        first_buf = complete(world, task_id, value=42)
        task = world.service.task_by_id(task_id)
        assert task.state is TaskState.SUCCESS
        timeline = dict(task.state_times)

        world.clock.advance(5.0)
        duplicate_buf = world.serializer.serialize(-1, routing_tag=task_id)
        send_result(world, ResultMessage(
            sender="w1", task_id=task_id, success=False,
            result_buffer=duplicate_buf, execution_time=9.9,
            completed_at=world.clock(),
        ))
        world.forwarder.step()

        assert task.state is TaskState.SUCCESS
        assert task.result_buffer == first_buf
        assert task.state_times == timeline
        assert task.execution_time == pytest.approx(0.1)
        assert world.service.tasks_completed == 1
        assert world.service.duplicate_results == 1
        assert world.forwarder.results_returned == 1
        assert world.forwarder.duplicate_results == 1

    def test_duplicate_does_not_poison_memo(self, world):
        payload = world.serializer.serialize(([21], {}))
        task_id = world.service.submit(world.token, world.function_id,
                                       world.endpoint_id, payload, memoize=True)
        connect_agent(world)
        world.forwarder.step()
        world.agent.recv_all_ready()
        good = complete(world, task_id, value=42)

        # duplicate with different bytes must not overwrite the memo entry
        bad = world.serializer.serialize(-1, routing_tag=task_id)
        send_result(world, ResultMessage(
            sender="w1", task_id=task_id, success=True, result_buffer=bad,
            execution_time=0.1, completed_at=world.clock(),
        ))
        world.forwarder.step()

        memo_task = world.service.submit(world.token, world.function_id,
                                         world.endpoint_id, payload, memoize=True)
        assert world.service.task_by_id(memo_task).memo_hit
        assert world.service.get_result(world.token, memo_task) == good


class TestAtomicBatchValidation:
    """Satellite 4: a rejected batch member must reject the whole batch
    before any task is enqueued."""

    def test_oversized_member_rejects_whole_batch(self, world):
        ok_payload = world.serializer.serialize(([1], {}))
        huge = b"x" * (world.service.config.payload_limit + 1)
        received_before = world.service.tasks_received
        with pytest.raises(PayloadTooLarge):
            world.service.submit_batch(world.token, [
                (world.function_id, world.endpoint_id, ok_payload),
                (world.function_id, world.endpoint_id, huge),
            ])
        assert world.service.tasks_received == received_before
        assert len(world.service.task_queue(world.endpoint_id)) == 0
        assert world.service.iter_tasks() == []

    def test_valid_batch_still_enqueues_all(self, world):
        payloads = [world.serializer.serialize(([i], {})) for i in range(3)]
        ids = world.service.submit_batch(world.token, [
            (world.function_id, world.endpoint_id, p) for p in payloads
        ])
        assert len(ids) == 3
        assert world.service.tasks_received == 3
        assert len(world.service.task_queue(world.endpoint_id)) == 3


class TestChaosTraceStamping:
    """Invariant violations name the tasks involved; each id resolves to
    a record with a timeline."""

    def test_violation_carries_trace_id(self, chaos_world):
        world = chaos_world(seed=3)
        world.add_endpoint("ep")
        client = world.client()

        def inc(x):
            return x + 1

        fid = client.register_function(inc)
        task_id = client.run(fid, world.endpoint_id("ep"), 1)
        assert client.wait_for(task_id, timeout=30) == 2

        # Forge a second terminal completion for the same task: the
        # no-double-completion invariant must trip and the violation must
        # name the task.
        world.registry.dispatch("service", "task.completed",
                                {"task_id": task_id, "success": True})
        violations = [v for v in world.registry.violations
                      if v.invariant == "no-double-completion"]
        assert violations, "forged duplicate completion did not trip"
        for violation in violations:
            assert violation.task_ids == (task_id,)
            assert task_id in violation.describe()
        service = world.deployment.service
        record = service.task_info(client._token(), violation.task_ids[0])
        times = record["state_times"]
        chain = ["received", "queued", "dispatched", "agent_in", "agent_out",
                 "manager_in", "manager_out", "running", "worker_out",
                 "success"]
        assert [times[key] for key in chain] == sorted(
            times[key] for key in chain)
