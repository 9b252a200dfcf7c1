"""A task that travels alone is not held, and its delivery is one pass
over one subscription.

Everything here is a count (the ``tests/test_wave_plane.py`` convention)
and nothing sleeps to synchronise:

* the executor's Nagle hold is paid only by a wave that follows a wave
  with company — read off ``executor.wave_hold_seconds`` and a counting
  ``sleeper=``, with the batcher's submits let through one wave at a
  time where the test needs a particular wave shape;
* the result stream's pass visits only marked subscriptions — counted
  as ``_deliver`` and ``take`` calls;
* an ack marks its subscription only over a backlog;
* a raising pass leaves the delivery thread serving.
"""

from __future__ import annotations

import logging
import sys
import threading

import pytest

from repro import LocalDeployment
from repro.auth import AuthService
from repro.core.service import FuncXService
from repro.serialize import FuncXSerializer
from repro.transport.wakeup import IDLE_FALLBACK, run_loop

WAIT = 30.0


def double(x):
    return 2 * x


# ======================================================================
# the executor's hold
# ======================================================================
class Turnstile:
    """Stands in the batcher's ``batch_run``: each wave reports itself
    and waits to be let through, so the test decides what joins the
    next one.  ``open()`` lets everything through from then on."""

    def __init__(self, client):
        self._batch_run = client.batch_run
        self._entered = threading.Semaphore(0)
        self._go = threading.Semaphore(0)
        self._open = threading.Event()
        client.batch_run = self

    def __call__(self, calls, **kwargs):
        self._entered.release()
        if not self._open.is_set():
            assert self._go.acquire(timeout=WAIT)
        return self._batch_run(calls, **kwargs)

    def await_wave(self):
        """Block until the batcher stands inside its next submit."""
        assert self._entered.acquire(timeout=WAIT)

    def let_through(self):
        self._go.release()

    def open(self):
        self._open.set()
        self._go.release()


@pytest.fixture
def deployment():
    with LocalDeployment() as dep:
        yield dep


@pytest.fixture
def endpoint_id(deployment):
    return deployment.create_endpoint("lone-ep", nodes=1)


def holds(deployment):
    """Every wave's hold so far, oldest first."""
    return deployment.service.metrics.histogram(
        "executor.wave_hold_seconds").samples()


def wave_sizes(deployment):
    return deployment.service.metrics.histogram(
        "executor.submit_batch_size").samples()


class TestExecutorHold:
    def test_serial_lone_calls_are_never_held(self, deployment, endpoint_id):
        sleeps = []
        client = deployment.client()
        with client.executor(endpoint_id, sleeper=sleeps.append) as executor:
            for i in range(12):
                assert executor.submit(double, i).result(timeout=WAIT) == 2 * i
        assert wave_sizes(deployment) == [1.0] * 12
        assert holds(deployment) == [0.0] * 12
        assert sleeps == []

    def test_burst_holds_only_after_a_wave_with_company(
            self, deployment, endpoint_id):
        sleeps = []
        client = deployment.client()
        turnstile = Turnstile(client)
        executor = client.executor(endpoint_id, sleeper=sleeps.append)
        interval = executor.batch_interval
        with executor:
            # 64 calls from this thread.  The first wave leaves with what
            # had joined (one call), the second with the 31 that arrived
            # behind it — neither follows a wave with company.
            futures = [executor.submit(double, 0)]
            turnstile.await_wave()
            futures += [executor.submit(double, i) for i in range(1, 32)]
            turnstile.let_through()
            turnstile.await_wave()
            assert sleeps == []
            # The rest of the burst follows a wave of 31: held, once.
            futures += [executor.submit(double, i) for i in range(32, 64)]
            turnstile.let_through()
            turnstile.await_wave()
            assert sleeps == [interval]
            turnstile.open()
            assert [f.result(timeout=WAIT) for f in futures] == [
                2 * i for i in range(64)]
            assert wave_sizes(deployment) == [1.0, 31.0, 32.0]
            assert holds(deployment) == [0.0, 0.0, interval]
            # A lone call behind the burst's last multi-call wave cannot
            # know the burst is over: held once.  The one behind *it* is
            # behind a lone wave: not held.
            assert executor.submit(double, 64).result(timeout=WAIT) == 128
            assert sleeps == [interval, interval]
            assert executor.submit(double, 65).result(timeout=WAIT) == 130
            assert sleeps == [interval, interval]
        assert wave_sizes(deployment) == [1.0, 31.0, 32.0, 1.0, 1.0]
        assert holds(deployment) == [0.0, 0.0, interval, interval, 0.0]

    def test_free_running_burst_never_holds_longer_than_the_interval(
            self, deployment, endpoint_id):
        # No turnstile: whatever waves the scheduler makes of the burst,
        # a hold is the interval or nothing, and one sleep per held wave.
        sleeps = []
        client = deployment.client()
        with client.executor(endpoint_id, batch_interval=0.001,
                             sleeper=sleeps.append) as executor:
            futures = [executor.submit(double, i) for i in range(64)]
            assert [f.result(timeout=WAIT) for f in futures] == [
                2 * i for i in range(64)]
        assert set(holds(deployment)) <= {0.0, 0.001}
        assert sleeps == [hold for hold in holds(deployment) if hold]
        assert sum(wave_sizes(deployment)) == 64

    def test_call_landing_behind_the_drain_keeps_its_edge(
            self, deployment, endpoint_id):
        # A call appended just after the batcher's swap finds the list
        # empty and must wake the batcher itself; a lost edge leaves it
        # pending with nothing latched.  The executor's clock stands
        # still, so the idle fallback never rescues it — a lost edge is a
        # hang.
        client = deployment.client()
        executor = client.executor(endpoint_id, clock=lambda: 0.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with executor:
                for i in range(200):
                    pair = [executor.submit(double, i),
                            executor.submit(double, -i)]
                    assert [f.result(timeout=WAIT) for f in pair] == [
                        2 * i, -2 * i]
        finally:
            sys.setswitchinterval(interval)


# ======================================================================
# the stream's pass
# ======================================================================
@pytest.fixture
def service(clock):
    service = FuncXService(auth=AuthService(clock=clock), clock=clock)
    yield service
    service.close()


@pytest.fixture
def submit(service):
    """``submit() -> task_id`` of a registered function on one endpoint."""
    identity = service.auth.register_identity("alice")
    token = service.auth.native_client_flow(identity).token
    _identity, ep_token = service.auth.endpoint_client_flow("ep")
    endpoint_id = service.register_endpoint(ep_token.token, name="ep")
    serializer = FuncXSerializer()
    function_id = service.register_function(
        token, "double", serializer.serialize_function(double), public=True)
    payload = serializer.serialize(([1], {}))
    return lambda: service.submit(token, function_id, endpoint_id, payload)


class Consumer:
    """Records batches; acks inside the call (as the executor does) or
    leaves the ack to the test."""

    def __init__(self, sub, ack=True):
        self.sub = sub
        self.ack = ack
        self.batches = []
        self._arrived = threading.Semaphore(0)
        self._awaited = 0
        sub.attach(self)

    def __call__(self, batch):
        self.batches.append(batch)
        if self.ack:
            self.sub.ack(batch.delivery_id)
        self._arrived.release()

    def await_batch(self):
        """The next batch in delivery order (one test thread awaits)."""
        assert self._arrived.acquire(timeout=WAIT)
        self._awaited += 1
        return self.batches[self._awaited - 1]

    @property
    def task_ids(self):
        return [m.task_id for b in self.batches for m in b.results]


def count_calls(obj, name):
    """Wrap ``obj.name`` in place; returns the list its calls append to."""
    calls = []
    inner = getattr(obj, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    setattr(obj, name, counted)
    return calls


def complete(service, task_id, payload=b"r"):
    service.complete_task(task_id, success=True, result_buffer=payload)


class TestOnePassOneSubscription:
    def test_lone_delivery_touches_only_its_subscription(self, service, submit):
        server = service.result_stream
        subs = [server.subscribe(auto_deliver=False) for _ in range(4)]
        consumers = [Consumer(sub) for sub in subs]
        server.step()                       # the attaches' own pass
        task_id = submit()
        subs[2].watch(task_id)
        delivers = count_calls(server, "_deliver")
        takes = [count_calls(sub, "take") for sub in subs]
        complete(service, task_id)
        assert server.step() == 1
        assert [args[0] for args in delivers] == [subs[2]]
        assert [len(calls) for calls in takes] == [0, 0, 1, 0]
        assert consumers[2].task_ids == [task_id]

    def test_delivery_and_ack_cost_one_pass(self, service, submit):
        server = service.result_stream
        sub = server.subscribe(auto_deliver=False)
        consumer = Consumer(sub)            # acks inside the delivery
        server.step()
        task_id = submit()
        sub.watch(task_id)
        complete(service, task_id)
        delivers = count_calls(server, "_deliver")
        wakes = count_calls(server._wakeup, "set")
        assert server.step() == 1
        assert consumer.task_ids == [task_id] and sub.unacked_results == 0
        assert wakes == []                  # the ack woke nobody
        assert server.step() == 0
        assert len(delivers) == 1           # and marked nothing

    def test_live_thread_makes_one_deliver_call_per_lone_result(
            self, service, submit):
        server = service.result_stream
        sub = server.subscribe()
        delivers = count_calls(server, "_deliver")
        consumer = Consumer(sub)
        task_ids = [submit() for _ in range(3)]
        sub.watch_many(task_ids)
        complete(service, task_ids[0])
        consumer.await_batch()              # the attach's pass is behind us
        base = len(delivers)
        # A pass owed to an ack would run before the thread next sleeps,
        # so before it can be woken for the result after.
        for task_id in task_ids[1:]:
            complete(service, task_id)
            consumer.await_batch()
        assert consumer.task_ids == task_ids
        assert len(delivers) == base + 2
        assert server.step() == 0 and len(delivers) == base + 2

    def test_ack_over_a_backlog_is_the_wake_up(self, service, submit):
        server = service.result_stream
        sub = server.subscribe(window=2, auto_deliver=False)
        consumer = Consumer(sub, ack=False)
        task_ids = [submit() for _ in range(5)]
        sub.watch_many(task_ids)
        for task_id in task_ids:
            complete(service, task_id)
        stalls = service.metrics.counter("stream.credit_stalls")
        assert server.step() == 2           # stopped at the window
        assert server.step() == 0 and stalls.value == 1
        delivers = count_calls(server, "_deliver")
        assert server.step() == 0 and delivers == []    # parked, not spinning
        sub.ack(consumer.batches[0].delivery_id)
        assert server.step() == 2
        sub.ack(consumer.batches[1].delivery_id)
        assert server.step() == 1
        assert consumer.task_ids == task_ids
        # Last ack: empty backlog, nothing to mark.
        sub.ack(consumer.batches[2].delivery_id)
        before = len(delivers)
        assert server.step() == 0 and len(delivers) == before
        assert sub.window - sub.unacked_results == 2 and sub.backlog == 0

    def test_live_ack_frees_a_stalled_subscription(self, service, submit):
        server = service.result_stream
        sub = server.subscribe(window=1)
        consumer = Consumer(sub, ack=False)
        task_ids = [submit() for _ in range(3)]
        sub.watch_many(task_ids)
        for task_id in task_ids:
            complete(service, task_id)
        for _ in task_ids:
            # Nothing but the ack can wake the thread for the next one.
            sub.ack(consumer.await_batch().delivery_id)
        assert consumer.task_ids == task_ids
        assert service.metrics.counter("stream.credit_stalls").value >= 1

    def test_recover_marks_after_the_credits_are_back(self, service, submit):
        # recover() requeues the results and opens the window in one lock
        # hold, so no pass can find them back with the window still shut;
        # the mark it leaves is the whole redelivery.
        server = service.result_stream
        sub = server.subscribe(window=3, auto_deliver=False)
        consumer = Consumer(sub, ack=False)
        task_ids = [submit() for _ in range(3)]
        sub.watch_many(task_ids)
        for task_id in task_ids:
            complete(service, task_id)
        assert server.step() == 3 and sub.window - sub.unacked_results == 0
        assert sub.recover() == 3
        assert server.step() == 3
        assert sorted(consumer.task_ids[3:]) == sorted(task_ids)

    def test_batch_cap_keeps_the_subscription_marked(self, service, submit,
                                                     monkeypatch):
        monkeypatch.setattr("repro.core.stream.MAX_BATCH", 2)
        server = service.result_stream
        sub = server.subscribe(auto_deliver=False)
        consumer = Consumer(sub, ack=False)
        task_ids = [submit() for _ in range(5)]
        sub.watch_many(task_ids)
        for task_id in task_ids:
            complete(service, task_id)
        assert [server.step() for _ in range(4)] == [2, 2, 1, 0]
        assert consumer.task_ids == task_ids


class TestNoLostWakeUp:
    def test_racing_puts_and_acks_deliver_everything(self, service, submit):
        # Marks come from four completing threads, from this thread's
        # acks and from the delivery thread's own; a mark lost between a
        # pass taking the set and a credit coming back would strand a
        # result (the idle fallback serves only what is marked).
        server = service.result_stream
        subs = [server.subscribe(window=2) for _ in range(4)]
        consumers = [Consumer(sub, ack=bool(index % 2))
                     for index, sub in enumerate(subs)]
        task_ids = [[submit() for _ in range(60)] for _ in subs]
        for sub, ids in zip(subs, task_ids):
            sub.watch_many(ids)

        def completer(ids):
            for task_id in ids:
                complete(service, task_id)

        threads = [threading.Thread(target=completer, args=(ids,))
                   for ids in task_ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for sub, consumer, ids in zip(subs, consumers, task_ids):
                delivered = 0
                while delivered < len(ids):
                    batch = consumer.await_batch()
                    delivered += len(batch.results)
                    if not consumer.ack:
                        sub.ack(batch.delivery_id)
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(WAIT)
        assert not any(thread.is_alive() for thread in threads)
        for sub, consumer, ids in zip(subs, consumers, task_ids):
            assert sorted(consumer.task_ids) == sorted(ids)
            assert sub.backlog == 0 and sub.unacked_results == 0


    def test_racing_watches_and_acks_release_each_result_once(
            self, service, submit):
        # Eight subscriptions watch the same tasks while a ninth thread
        # completes them and the delivery thread acks: a lost update on
        # a record's ``readers`` would leave it above 0 (bytes pinned)
        # or release a result twice.
        server = service.result_stream
        task_ids = [submit() for _ in range(40)]
        subs = [server.subscribe(window=4) for _ in range(8)]
        consumers = [Consumer(sub) for sub in subs]
        start = threading.Barrier(len(subs) + 1)

        def watcher(sub):
            start.wait(WAIT)
            for task_id in task_ids:
                sub.watch(task_id)

        def completer():
            start.wait(WAIT)
            for task_id in task_ids:
                complete(service, task_id)

        threads = [threading.Thread(target=watcher, args=(sub,))
                   for sub in subs]
        threads.append(threading.Thread(target=completer))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for consumer in consumers:
                while len(consumer.task_ids) < len(task_ids):
                    consumer.await_batch()
        finally:
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(WAIT)
        assert not any(thread.is_alive() for thread in threads)
        for consumer in consumers:
            assert sorted(consumer.task_ids) == sorted(task_ids)
        records = [service.task_by_id(task_id) for task_id in task_ids]
        assert all(task.readers == 0 and task.released for task in records)
        assert service.metrics.counter(
            "service.results_purged").value == len(task_ids)


class TestRaisingPass:
    def test_thread_survives_and_nothing_is_released_twice(
            self, service, submit, monkeypatch):
        server = service.result_stream
        big = b"x" * (64 * 1024)
        sub = server.subscribe()
        consumer = Consumer(sub)
        task_ids = [submit(), submit()]
        sub.watch_many(task_ids)
        records = [service.task_by_id(task_id) for task_id in task_ids]
        build = server._result_message
        raised = []

        def fail_late(task, now):
            message = build(task, now)
            if task.task_id == task_ids[1] and not raised:
                # Both results of the wave are built by now.
                raised.append([(record.readers, record.released)
                               for record in records])
                raise OSError("delivery failed")
            return message

        server._result_message = fail_late
        failed = threading.Event()
        log = logging.getLogger("repro.transport.wakeup")
        monkeypatch.setattr(
            log, "exception", lambda *args, **kw: failed.set())
        service.complete_tasks(service.shards[0], [
            (task_id, True, big, None, 0.0, {}) for task_id in task_ids])
        assert failed.wait(WAIT)
        assert raised == [[(1, False), (1, False)]]
        assert server._thread.is_alive()
        # The failed pass gave back its results and woke nobody; the
        # next result's wake-up is the next pass, served by the same
        # thread, and it carries the two it owes.
        healthy = submit()
        sub.watch(healthy)
        complete(service, healthy)
        delivered = []
        while len(delivered) < 3:
            delivered += [m.task_id for m in consumer.await_batch().results]
        assert delivered == task_ids + [healthy]
        assert server._thread.is_alive()
        # Nothing released twice: the retry consumed the window once, the
        # acks (made inside the consumer call) returned all of it, and
        # each record lost its one reader and its bytes exactly once.
        assert service.metrics.counter("stream.redeliveries").value == 2
        assert sub.window - sub.unacked_results == sub.window
        assert sub.backlog == 0 and sub.unacked_results == 0
        records.append(service.task_by_id(healthy))
        assert [(record.readers, record.released) for record in records] == [
            (0, True)] * 3
        assert service.metrics.counter("service.results_purged").value == 3

    def test_raise_leaves_other_marked_subscriptions_their_turn(
            self, service, submit):
        server = service.result_stream
        bad = server.subscribe(auto_deliver=False)
        good = server.subscribe(auto_deliver=False)
        bad_consumer, good_consumer = Consumer(bad), Consumer(good)
        server.step()
        bad_task, good_task = submit(), submit()
        bad.watch(bad_task)
        good.watch(good_task)
        complete(service, bad_task)
        complete(service, good_task)
        build = server._result_message

        def raise_once(task, now):
            server._result_message = build
            raise OSError("delivery failed")

        server._result_message = raise_once
        with pytest.raises(OSError):
            server.step()
        # The pass went on to the subscription behind the one that raised.
        assert bad.backlog == 1 and good_consumer.task_ids == [good_task]
        assert server.step() == 1
        assert bad_consumer.task_ids == [bad_task]

    def test_persistent_failure_is_paced_by_the_idle_fallback(
            self, service, submit):
        # A pass that raises every time hands its leases back without a
        # wake-up: each failing pass is followed by a full idle wait, not
        # by an immediate retry.
        server = service.result_stream
        sub = server.subscribe(auto_deliver=False)
        Consumer(sub)
        server.step()
        task_id = submit()
        sub.watch(task_id)
        complete(service, task_id)
        builds = []

        def always_fail(task, now):
            builds.append(task.task_id)
            raise OSError("delivery failed")

        server._result_message = always_fail
        stop = threading.Event()
        latched = []

        class Idle:
            """``run_loop``'s wake-up: was anything latched, and for how
            long would the loop have slept?"""

            def wait(self, timeout):
                latched.append((server._wakeup.wait(0), timeout))
                if len(latched) == 3:
                    stop.set()

        assert server._wakeup.wait(0)       # the put's wake-up: pass one
        run_loop("result-stream:test", server.step, stop, Idle(),
                 IDLE_FALLBACK)
        assert latched == [(False, IDLE_FALLBACK)] * 3
        assert builds == [task_id] * 3      # retried once per idle wait
        assert sub.backlog == 1 and sub.window - sub.unacked_results == sub.window
