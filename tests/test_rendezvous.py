"""The record is the rendezvous.

One terminal transition is announced once per wave and awaited one way:

* a waiter registers on the task record (``ServiceShard.when_terminal``)
  and the completing wave fires it exactly once — or it fires at
  registration if the wave has already been through;
* ``_retire`` emits one ``tasks.terminal`` spine event per wave, the
  records themselves, and both monitors read one event per record off
  it;
* nothing a waiter does (time out, raise, resubmit) leaves a waiter
  behind or stops the wave's other announcements.

As counts wherever a count exists (the ``test_wave_plane.py`` convention).
"""

from __future__ import annotations

import logging
import random
import sys
import threading

import pytest

from repro.accounting import UsageLedger
from repro.auth import AuthService
from repro.core.admission import AdmissionController, TenantPolicy
from repro.core.client import FuncXClient
from repro.core.service import FuncXService, ServiceConfig
from repro.core.tasks import TaskState
from repro.errors import TaskNotFound, TaskPending, ThrottleExceeded
from repro.monitoring import TaskEventLog
from repro.serialize import FuncXSerializer

from conftest import FakeClock


def double(x):
    return 2 * x


def on_terminal(events, callback) -> int:
    """Subscribe ``callback(tasks)`` to each ``tasks.terminal`` wave."""
    def subscriber(_source, kind, fields):
        if kind == "tasks.terminal":
            callback(fields["tasks"])
    return events.subscribe(subscriber)


class World:
    """A service on a fake clock with one client and one endpoint; tests
    play the forwarder by calling ``complete``."""

    def __init__(self, shards: int = 1, max_outstanding: int | None = None):
        self.clock = FakeClock()
        self.service = FuncXService(
            auth=AuthService(clock=self.clock), clock=self.clock,
            config=ServiceConfig(shards=shards),
            admission=AdmissionController(
                default=TenantPolicy(max_outstanding=max_outstanding),
                clock=self.clock))
        self.client = FuncXClient(
            self.service, self.service.auth.register_identity("alice"),
            clock=self.clock)
        _, ep_token = self.service.auth.endpoint_client_flow("ep")
        self.endpoint_id = self.service.register_endpoint(ep_token.token, name="ep")
        self.shard = self.service.shard_for_endpoint(self.endpoint_id)
        self.serializer = FuncXSerializer()
        self.function_id = self.client.register_function(double, public=True)

    def outcome(self, task_id: str, value=7, success: bool = True):
        return (task_id, success, self.serializer.serialize(value), None, 0.1, {})

    def complete(self, task_ids: list[str]) -> None:
        """One result wave, as a forwarder would report it."""
        verdicts = self.service.complete_tasks(
            self.shard, [self.outcome(task_id) for task_id in task_ids])
        assert verdicts == [True] * len(task_ids)

    def waiters(self) -> int:
        return sum(len(task.waiters or ()) for task in self.service.iter_tasks())


class TestOnePublishPerWave:
    def test_wave_of_n_is_one_publish_and_n_events_per_monitor(self):
        world = World()
        log = TaskEventLog(clock=world.clock)
        ledger = UsageLedger()
        log.attach(world.service)
        ledger.attach(world.service)
        waves: list[list] = []
        on_terminal(world.service.events, waves.append)
        n = 64
        task_ids = [world.client.run(world.function_id, world.endpoint_id, i)
                    for i in range(n)]
        assert waves == []  # nothing is announced before it is terminal
        world.clock.advance(2.5)
        world.complete(task_ids)
        assert len(waves) == 1
        assert [task.task_id for task in waves[0]] == task_ids
        events = log.events()
        assert [event.task_id for event in events] == task_ids
        assert {event.state for event in events} == {"success"}
        assert {event.timestamp for event in events} == {2.5}  # one clock read
        assert {event.endpoint_id for event in events} == {world.endpoint_id}
        usage = ledger.endpoint_usage(world.endpoint_id)
        assert usage.invocations == n
        assert usage.execution_seconds == pytest.approx(0.1 * n)
        assert world.service.events.subscriber_errors == 0

    def test_cancel_is_published_but_not_billed(self):
        world = World()
        log = TaskEventLog(clock=world.clock)
        ledger = UsageLedger()
        log.attach(world.service)
        ledger.attach(world.service)
        task_id = world.client.run(world.function_id, world.endpoint_id, 1)
        assert world.client.cancel(task_id)
        assert [event.state for event in log.events()] == ["cancelled"]
        assert ledger.endpoint_usage(world.endpoint_id).invocations == 0

    def test_detach_leaves_no_subscriber(self):
        world = World()
        log, ledger = TaskEventLog(clock=world.clock), UsageLedger()
        log.attach(world.service)
        ledger.attach(world.service)
        assert len(world.service.events) == 2
        log.detach()
        ledger.detach()
        assert len(world.service.events) == 0
        world.complete([world.client.run(world.function_id, world.endpoint_id, 1)])
        assert len(log) == 0


class TestWhenTerminal:
    def test_fires_once_from_the_wave_with_the_record(self):
        world = World()
        task_id = world.client.run(world.function_id, world.endpoint_id, 1)
        fired = []
        world.shard.when_terminal(task_id, fired.extend)
        world.shard.when_terminal(task_id, fired.extend)
        assert fired == [] and world.waiters() == 2
        world.complete([task_id])
        task = world.service.task_by_id(task_id)
        assert fired == [task, task]
        assert world.waiters() == 0
        # the wave has been through: a late waiter is called at once
        world.shard.when_terminal(task_id, fired.extend)
        assert len(fired) == 3 and world.waiters() == 0

    def test_settled_but_not_retired_registers_instead_of_firing_early(self):
        """``_settle`` writes the state before the wave takes the shard
        lock; a waiter arriving in between must ride the wave (fired
        after accounting and quota release), not be called on the spot
        and not be called twice."""
        world = World()
        task_id = world.client.run(world.function_id, world.endpoint_id, 1)
        task = world.service.task_by_id(task_id)
        world.service._settle(task, success=True,
                              result_buffer=world.serializer.serialize(2))
        assert task.state.terminal and task.expires_at is None
        fired = []
        world.shard.when_terminal(task_id, fired.extend)
        assert fired == []
        world.service._retire(world.shard, [task])
        assert fired == [task]

    def test_unknown_record_raises(self):
        world = World()
        with pytest.raises(TaskNotFound):
            world.shard.when_terminal("ghost-s0", lambda tasks: None)
        task_id = world.client.run(world.function_id, world.endpoint_id, 1)
        world.service.forget_task(task_id)
        with pytest.raises(TaskNotFound):
            world.shard.when_terminal(task_id, lambda tasks: None)

    def test_forgotten_while_completing_still_fires(self):
        """The waiter lives on the record, not in a table keyed by id: a
        record forgotten between settle and retire keeps its promise."""
        world = World()
        task_id = world.client.run(world.function_id, world.endpoint_id, 1)
        task = world.service.task_by_id(task_id)
        fired = []
        world.shard.when_terminal(task_id, fired.extend)
        world.service._settle(task, success=True,
                              result_buffer=world.serializer.serialize(2))
        world.service.forget_task(task_id)
        world.service._retire(world.shard, [task])
        assert fired == [task] and task.waiters is None

    def test_withdraw_removes_only_that_waiter(self):
        world = World()
        task_id = world.client.run(world.function_id, world.endpoint_id, 1)
        task = world.service.task_by_id(task_id)
        kept, gone = [], []
        world.shard.when_terminal(task_id, kept.extend)
        world.shard.when_terminal(task_id, gone.extend)
        world.shard.withdraw(task, gone.extend)
        world.shard.withdraw(task, gone.extend)  # idempotent
        assert world.waiters() == 1
        world.complete([task_id])
        assert kept == [task] and gone == []
        world.shard.withdraw(task, kept.extend)  # after firing: a no-op

    def test_registration_racing_completion_fires_exactly_once(self):
        """1,000 rounds of ``when_terminal`` against ``complete_tasks``
        on a second thread, released together: whichever wins the shard
        lock, the waiter is called once — never zero, never twice.  No
        sleeps: a spin that lengthens after each round the registration
        won and shortens after each it lost keeps the two arriving at
        the lock together, whatever the box's speed."""
        world = World()
        rounds = 1000
        rng = random.Random(22)
        task_ids = world.service.submit_batch(
            world.client._token(),
            [(world.function_id, world.endpoint_id,
              world.serializer.serialize(([1], {})))] * rounds)
        outcomes = [world.outcome(task_id) for task_id in task_ids]
        fired = [0] * rounds
        late_rounds = 0
        start = threading.Barrier(2)
        end = threading.Barrier(2)

        def completer():
            for outcome in outcomes:
                start.wait()
                world.service.complete_tasks(world.shard, [outcome])
                end.wait()

        thread = threading.Thread(target=completer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread.start()
            spin = 0
            for index, task_id in enumerate(task_ids):
                def bump(_tasks, index=index):
                    fired[index] += 1

                start.wait()
                for _ in range(spin + rng.randrange(40)):
                    pass
                world.shard.when_terminal(task_id, bump)
                late = fired[index]  # called at once: the wave got there first
                spin = max(0, spin + (-20 if late else 20))
                late_rounds += late
                end.wait()
            thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert fired == [1] * rounds
        assert world.waiters() == 0
        # The spin chases the hand-off, so both orders keep happening.
        assert 0 < late_rounds < rounds


class TestEverySingleWaitIsThatCall:
    def _prime_memo(self, world: World) -> None:
        first = world.client.run(world.function_id, world.endpoint_id, 7,
                                 memoize=True)
        world.service.complete_tasks(
            world.shard, [world.outcome(first, value=14)])

    def test_submit_on_memo_hit_resolves_before_returning(self):
        world = World()
        self._prime_memo(world)
        for _ in range(10):
            future = world.client.submit(world.function_id, world.endpoint_id,
                                         7, memoize=True)
            assert future.done() and future.result(timeout=0) == 14
        assert world.service.memo_completions == 10
        assert world.waiters() == 0

    def test_submit_resolves_from_the_completing_wave(self):
        world = World()
        future = world.client.submit(world.function_id, world.endpoint_id, 3)
        assert not future.done() and world.waiters() == 1
        world.complete([future.task_id])
        assert future.result(timeout=0) == 7
        assert world.waiters() == 0

    def test_get_result_timeout_leaves_no_waiter(self):
        world = World()
        task_id = world.client.run(world.function_id, world.endpoint_id, 3)
        with pytest.raises(TaskPending):
            world.client.get_result(task_id, timeout=0.01)
        with pytest.raises(TaskPending):
            world.client.wait_for(task_id, timeout=0.01)
        with pytest.raises(TaskPending):
            world.client.wait_all([task_id], timeout=0.01)
        assert world.waiters() == 0

    def test_get_result_blocks_until_a_second_thread_completes(self):
        world = World()
        task_id = world.client.run(world.function_id, world.endpoint_id, 3)
        registered = threading.Event()
        inner = world.shard.when_terminal

        def when_terminal(task_id, callback):
            inner(task_id, callback)
            registered.set()

        world.shard.when_terminal = when_terminal

        def completer():
            registered.wait(10.0)
            world.complete([task_id])

        thread = threading.Thread(target=completer)
        thread.start()
        assert world.client.wait_for(task_id, timeout=10.0) == 7
        thread.join()
        assert world.waiters() == 0

    def test_done_callback_that_resubmits_is_admitted_at_max_outstanding_1(self):
        """Waiters fire after ``admission.release``: the tenant's one
        slot is free again by the time a done-callback runs."""
        world = World(max_outstanding=1)
        future = world.client.submit(world.function_id, world.endpoint_id, 1)
        with pytest.raises(ThrottleExceeded):
            world.client.run(world.function_id, world.endpoint_id, 2)
        resubmitted: list[object] = []

        def resubmit(_future):
            try:
                resubmitted.append(
                    world.client.run(world.function_id, world.endpoint_id, 2))
            except Exception as exc:  # the future would swallow it
                resubmitted.append(exc)

        future.add_done_callback(resubmit)
        world.complete([future.task_id])
        assert len(resubmitted) == 1 and isinstance(resubmitted[0], str)
        assert world.service.task_by_id(resubmitted[0]).state is TaskState.QUEUED

    def test_cancelled_future_reports_its_own_cancel(self):
        world = World()
        future = world.client.submit(world.function_id, world.endpoint_id, 1)
        assert future.cancel() is True
        assert future.cancelled and world.waiters() == 0
        assert world.service.tasks_cancelled == 1


class TestABadWaiterStopsNothing:
    def test_raising_waiter_is_isolated_and_logged(self, caplog):
        world = World()
        first, second = (world.client.run(world.function_id,
                                          world.endpoint_id, i) for i in (1, 2))
        fired, published = [], []

        def bad(_tasks):
            raise RuntimeError("waiter crashed")

        world.shard.when_terminal(first, bad)
        world.shard.when_terminal(first, fired.extend)
        world.shard.when_terminal(second, fired.extend)
        # A stream watch is a waiter too, registered behind the bad one.
        stream = world.service.result_stream.subscribe(auto_deliver=False)
        stream.watch_many([first, second])
        on_terminal(world.service.events,
                    lambda tasks: published.append(len(tasks)))
        with caplog.at_level(logging.ERROR, logger="repro.core.service"):
            world.complete([first, second])
        assert [task.task_id for task in fired] == [first, second]
        assert published == [2] and stream.backlog == 2
        assert world.waiters() == 0
        assert sum("waiter for task" in record.message
                   for record in caplog.records) == 1
