"""The wave-native service data plane.

* a result envelope of n is the same as n envelopes of one: task states,
  accounting, counters and the probe-event multiset;
* a look-up budget per task, counted, so per-task re-derivation of the
  shard, the queue or the task record cannot creep back;
* ``submit_batch`` validates each distinct (function, endpoint) once and
  stays atomic;

and the regressions that rode along: trace eviction examines a bounded
number of entries per ``open``, and a subscription forgets a task once
its delivery is acked.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.auth import AuthService
from repro.core.admission import AdmissionController, TenantPolicy
from repro.core.forwarder import Forwarder
from repro.core.service import FuncXService, ServiceConfig
from repro.core.shard import ServiceShard, ShardMap
from repro.core.tasks import TaskState
from repro.errors import EndpointNotFound, FunctionNotFound, PayloadTooLarge
from repro.observability.trace import TraceContext, TraceStore
from repro.serialize import FuncXSerializer
from repro.transport.channel import Channel
from repro.transport.messages import (
    Registration,
    ResultBatchMessage,
    ResultMessage,
)

from conftest import FakeClock, unwrap_tasks

WAVE = 64


class World:
    """service + unstarted forwarder + the agent's channel end, with the
    service's event spine recording into ``events``."""

    def __init__(self, shards: int = 1):
        self.clock = FakeClock()
        self.service = FuncXService(
            auth=AuthService(clock=self.clock), clock=self.clock,
            config=ServiceConfig(shards=shards),
            admission=AdmissionController(
                default=TenantPolicy(max_outstanding=10_000), clock=self.clock))
        identity = self.service.auth.register_identity("alice")
        self.owner = identity.identity_id
        self.token = self.service.auth.native_client_flow(identity).token
        _, ep_token = self.service.auth.endpoint_client_flow("ep")
        self.endpoint_id = self.service.register_endpoint(ep_token.token, name="ep")
        self.serializer = FuncXSerializer()
        self.function_id = self.service.register_function(
            self.token, "identity",
            self.serializer.serialize_function(lambda x: x), public=True)
        channel = Channel(clock=self.clock)
        self.forwarder = Forwarder(self.service, self.endpoint_id, channel.left)
        self.agent = channel.right
        self.events: list[tuple[str, dict]] = []
        self.subscription = self.service.events.subscribe(
            lambda _source, kind, fields: self.events.append((kind, dict(fields))))
        self.agent.send(Registration(sender="agent:x", component_type="endpoint"))
        self.forwarder.step()

    def submit(self, count: int) -> list[str]:
        payload = self.serializer.serialize(([7], {}))
        return self.service.submit_batch(
            self.token, [(self.function_id, self.endpoint_id, payload)] * count)

    def dispatch(self) -> list[str]:
        """One forwarder step; the task ids the agent received."""
        self.forwarder.step()
        return [task.task_id
                for task in unwrap_tasks(self.agent.recv_all_ready())]

    def result(self, task_id: str, success: bool = True) -> ResultMessage:
        return ResultMessage(
            sender="w0", task_id=task_id, success=success,
            result_buffer=self.serializer.serialize(7, routing_tag=task_id),
            execution_time=0.1, completed_at=self.clock())

    def counters(self) -> dict[str, float]:
        return {
            json.dumps([record["name"], record["labels"]], sort_keys=True):
                record["value"]
            for record in self.service.metrics.snapshot()
            if record["kind"] == "counter"}


def _normalised(world: World, task_ids: list[str], value) -> str:
    """``value`` as text with this world's random ids replaced by their
    position, so two worlds compare equal."""
    text = json.dumps(value, sort_keys=True, default=str)
    for index, task_id in enumerate(task_ids):
        text = text.replace(task_id, f"<task {index}>")
    return (text.replace(world.endpoint_id, "<endpoint>")
            .replace(world.owner, "<owner>"))


class TestWaveEquivalence:
    """One envelope of n results leaves what n envelopes of one leave."""

    def _run(self, envelopes_of_one: bool):
        world = World()
        task_ids = world.submit(8)
        subscription = world.service.result_stream.subscribe(
            window=WAVE, auto_deliver=False)
        delivered: list[str] = []
        subscription.attach(lambda batch: delivered.extend(
            message.task_id for message in batch.results))
        subscription.watch_many(task_ids)
        assert sorted(world.dispatch()) == sorted(task_ids)
        world.clock.advance(0.5)
        # Every verdict in one wave: applied, failed, a duplicate inside
        # the wave, a result for a cancelled and for a purged task.
        assert world.service.cancel_task(world.token, task_ids[5])
        assert world.service.forget_task(task_ids[6])
        results = [world.result(task_id) for task_id in task_ids[:5]]
        results[1] = world.result(task_ids[1], success=False)
        results += [world.result(task_ids[2]), world.result(task_ids[5]),
                    world.result(task_ids[6]), world.result(task_ids[7])]
        before = len(world.events)
        if envelopes_of_one:
            for result in results:
                world.agent.send(ResultBatchMessage(
                    sender="agent:x", results=(result,)))
        else:
            world.agent.send(ResultBatchMessage(
                sender="agent:x", results=tuple(results)))
        world.forwarder.step()
        world.service.result_stream.step()
        tasks = world.service.shards[0].get_tasks(task_ids)
        return {
            "states": [task and task.state.value for task in tasks],
            "state_times": [task and sorted(task.state_times) for task in tasks],
            "outstanding": world.service.admission.outstanding(world.owner),
            "shards": world.service.shard_counters(),
            "counters": _normalised(world, task_ids, world.counters()),
            # ``tasks.terminal`` is one per wave, so the two runs differ
            # in it by design.
            "events": Counter(_normalised(world, task_ids, event)
                              for event in world.events[before:]
                              if event[0] != "tasks.terminal"),
            "delivered": sorted(task_ids.index(task_id) for task_id in delivered),
            "open_leases": world.forwarder.outstanding,
        }

    def test_one_wave_of_n_equals_n_waves_of_one(self):
        wave, singles = self._run(False), self._run(True)
        assert wave == singles
        assert wave["states"] == ["success", "failed", "success", "success",
                                  "success", "cancelled", None, "success"]
        assert wave["outstanding"] == 0 and wave["open_leases"] == 0
        assert wave["delivered"] == [0, 1, 2, 3, 4, 5, 7]
        kinds = Counter(json.loads(event)[0] for event in wave["events"].elements())
        assert kinds["task.completed"] == 6
        assert kinds["queue.ack"] == 8
        assert kinds["shard.accounting"] == 6
        assert kinds["task.duplicate_result"] == 1
        assert kinds["task.post_cancel_result"] == 1
        assert kinds["forwarder.orphan_result"] == 1


class _Calls:
    """Counts calls (and, for bulk reads, ids) through a method."""

    def __init__(self, monkeypatch, owner, name: str, ids_at: int | None = None):
        self.calls = self.ids = 0
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            if ids_at is not None:
                args = (*args[:ids_at], list(args[ids_at]), *args[ids_at + 1:])
                self.ids += len(args[ids_at])
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


class TestLookupBudget:
    """What one task may cost in routing and table reads, as counts.

    Before the data plane took waves a tiny task cost 6 ``shard_for_task``
    parses, 3 ring hashes and 5 task-table reads.
    """

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_wave_resolves_each_name_once(self, monkeypatch, shards):
        world = World(shards=shards)
        subscription = world.service.result_stream.subscribe(
            window=WAVE, auto_deliver=False)
        delivered: list[str] = []

        def consume(batch):
            delivered.extend(message.task_id for message in batch.results)
            subscription.ack(batch.delivery_id)

        subscription.attach(consume)
        parses = _Calls(monkeypatch, ShardMap, "shard_for_task")
        ring = _Calls(monkeypatch, ShardMap, "_lookup")
        reads = _Calls(monkeypatch, ServiceShard, "get_tasks", ids_at=1)
        watches = _Calls(monkeypatch, ServiceShard, "watch", ids_at=1)

        task_ids = world.submit(WAVE)
        subscription.watch_many(task_ids)
        assert sorted(world.dispatch()) == sorted(task_ids)
        world.agent.send(ResultBatchMessage(
            sender="agent:x",
            results=tuple(world.result(task_id) for task_id in task_ids)))
        world.forwarder.step()
        world.service.result_stream.step()

        assert sorted(delivered) == sorted(task_ids)
        assert ring.calls == 0
        # Only a subscription spanning shards routes a watch by task id.
        assert parses.calls == (0 if shards == 1 else WAVE)
        # watch (the shard's watch call reads the table), dispatch,
        # complete, deliver: one read each, one lock hold per wave.
        assert reads.ids + watches.ids == 4 * WAVE
        assert reads.calls + watches.calls == 4

    def test_wave_of_one_entry_points_cost_one_wave_each(self, monkeypatch):
        world = World()
        parses = _Calls(monkeypatch, ShardMap, "shard_for_task")
        reads = _Calls(monkeypatch, ServiceShard, "get_tasks", ids_at=1)
        watches = _Calls(monkeypatch, ServiceShard, "watch", ids_at=1)
        payload = world.serializer.serialize(([7], {}))
        task_id = world.service.submit(
            world.token, world.function_id, world.endpoint_id, payload)
        subscription = world.service.result_stream.subscribe(auto_deliver=False)
        subscription.watch(task_id)
        world.service.tasks_dispatched([world.service.task_by_id(task_id)])
        assert world.service.complete_task(task_id, success=True,
                                           result_buffer=b"r")
        assert world.service.task_by_id(task_id).state is TaskState.SUCCESS
        # submit: none; watch: a read (the shard's watch call); mark,
        # complete, task_by_id: a parse and a read each.
        assert (parses.calls, reads.calls + watches.calls,
                reads.ids + watches.ids) == (3, 4, 4)


class TestSingleValidation:
    """``submit_batch`` checks each distinct (function, endpoint) once and
    a bad member anywhere still rejects the whole batch."""

    def test_identical_members_are_validated_once(self, monkeypatch):
        world = World()
        invocable = _Calls(monkeypatch, world.service.functions, "check_invocable")
        usable = _Calls(monkeypatch, world.service.endpoints, "check_usable")
        puts = _Calls(monkeypatch, world.service.task_queue(world.endpoint_id),
                      "put_many")
        assert len(set(world.submit(WAVE))) == WAVE
        assert (invocable.calls, usable.calls, puts.calls) == (1, 1, 1)

    @pytest.mark.parametrize("position", [0, WAVE // 2, WAVE - 1])
    @pytest.mark.parametrize("bad", ["function", "endpoint", "payload"])
    def test_bad_member_anywhere_enqueues_nothing(self, position, bad):
        world = World()
        payload = world.serializer.serialize(([7], {}))
        requests = [(world.function_id, world.endpoint_id, payload)] * WAVE
        requests[position], error = {
            "function": (("no-such-function", world.endpoint_id, payload),
                         FunctionNotFound),
            "endpoint": ((world.function_id, "no-such-endpoint", payload),
                         EndpointNotFound),
            "payload": ((world.function_id, world.endpoint_id,
                         b"x" * (world.service.config.payload_limit + 1)),
                        PayloadTooLarge),
        }[bad]
        with pytest.raises(error):
            world.service.submit_batch(world.token, requests)
        assert world.service.tasks_received == 0
        assert world.service.iter_tasks() == []
        assert len(world.service.task_queue(world.endpoint_id)) == 0
        assert world.service.admission.outstanding(world.owner) == 0
        assert not [event for event, _ in world.events
                    if event in ("task.submitted", "queue.put")]


class TestTraceEvictionIsBounded:
    """Regression: past ``capacity`` every ``open`` rebuilt a list of all
    closed traces — an O(n) scan per submitted task from the service's
    100,001st task on."""

    def test_open_examines_a_bounded_number_of_entries(self, monkeypatch, clock):
        examined = 0
        closed = TraceContext.closed.fget

        def counting(context):
            nonlocal examined
            examined += 1
            return closed(context)

        monkeypatch.setattr(TraceContext, "closed", property(counting))
        store = TraceStore(clock=clock, capacity=32)
        straggler = store.open("straggler")  # live for the whole run
        worst = 0
        for index in range(10 * store.capacity):
            before = examined
            store.open(f"t{index}")
            worst = max(worst, examined - before)
            examined_by_open = examined
            store.finalize(f"t{index}")
            examined = examined_by_open  # finalize's own read is not eviction
        assert worst <= 4
        assert len(store) <= store.capacity + 1
        assert store.context_for("straggler") is straggler
        assert store.context_for("t0") is None
        assert store.context_for(f"t{10 * store.capacity - 1}") is not None


class TestSubscriptionForgetsAckedTasks:
    """Regression: a subscription's books gained an entry per task and
    never lost one, so a long-lived executor grew without bound."""

    def _round(self, world, subscription, count=4):
        task_ids = world.submit(count)
        for task_id in task_ids:
            subscription.watch(task_id)
            world.service.complete_task(task_id, success=True, result_buffer=b"r")
        return task_ids

    def test_watched_returns_to_zero(self):
        world = World()
        subscription = world.service.result_stream.subscribe(auto_deliver=False)
        batches = []
        subscription.attach(batches.append)
        for _ in range(5):
            self._round(world, subscription)
            assert world.service.result_stream.step() == 4
            assert subscription.watched == 4  # held until the ack
            subscription.ack(batches.pop().delivery_id)
            assert subscription.watched == 0
        assert all(task.readers == 0 for task in world.service.iter_tasks())
        assert subscription.backlog == 0 and subscription.unacked_results == 0

    def test_redelivery_before_the_ack_still_deduplicates(self):
        world = World()
        subscription = world.service.result_stream.subscribe(auto_deliver=False)
        batches = []
        subscription.attach(batches.append)
        task_ids = self._round(world, subscription)
        assert world.service.result_stream.step() == 4
        # The batch is lost, and the client watches the finished tasks
        # again: a second terminal notification for each.  Every result
        # must still come back exactly once.
        assert subscription.recover() == 4
        for task_id in task_ids:
            subscription.watch(task_id)
        assert world.service.result_stream.step() == 4
        assert world.service.result_stream.step() == 0
        assert sorted(m.task_id for m in batches[-1].results) == sorted(task_ids)
        subscription.ack(batches[-1].delivery_id)
        assert subscription.watched == 0 and subscription.backlog == 0
