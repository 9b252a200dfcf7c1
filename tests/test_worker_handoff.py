"""A worker that finishes takes its next task itself.

Everything here is a count (the ``tests/test_wave_plane.py`` and
``tests/test_lone_task.py`` convention) and nothing sleeps to
synchronise: the manager is stepped by hand on the test's thread, the
workers run on theirs, every task parks on a gate the test opens, and
the test blocks on a semaphore the hand-off releases.

* a wave through one worker costs one inbox put and N−1 self-claims,
  starts in arrival order and comes back in one envelope;
* a head that needs another container, or whose body never arrived,
  is refused by the finishing worker and decided by the manager loop;
* the longest-idle worker is the redeploy victim, whatever the hash seed;
* one collect is one transfer (results and the advertisement together);
* the idle set is the node's capacity: a result and the slot it frees
  are seen together, and a task claimed into an inbox is outstanding;
* the idle set is whole at quiescence;
* a finish that leaves the node idle ships the node's results from the
  worker, with no manager step; any other finish wakes the loop;
* after ``kill()`` nothing queued starts, the worker threads exit, and
  a finishing worker ships nothing;
* a ``finished`` hand-off that raises is logged and the worker serves on;
* any interleaving of waves, finishes, ``suspend`` and ``kill`` starts
  every task that was not lost exactly once, in arrival order.
"""

from __future__ import annotations

import sys
import threading
from queue import SimpleQueue

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LocalDeployment
from repro.endpoint.config import EndpointConfig
from repro.endpoint.manager import Manager
from repro.endpoint.worker import Worker
from repro.serialize import FuncXSerializer
from repro.transport.channel import Channel
from repro.transport.messages import (
    Advertisement,
    CommandMessage,
    ResultBatchMessage,
    TaskBatchMessage,
    TaskMessage,
)

WAIT = 30.0
SERIALIZER = FuncXSerializer()
DOCKER_A = "docker:image-a"
DOCKER_B = "docker:image-b"

#: What the shipped function reaches through ``sys.modules`` (its source
#: is exec'd in a fresh namespace at the worker): the order tasks entered
#: user code in, and the gate each one parks on.
EXECUTED: list[str] = []
GATES: dict[str, threading.Event] = {}
OPEN = threading.Event()


def enter(task_id):
    EXECUTED.append(task_id)
    if not OPEN.is_set():
        assert GATES[task_id].wait(WAIT)


def held(task_id, module):
    import sys

    sys.modules[module].enter(task_id)
    return task_id


HELD_BODY = SERIALIZER.serialize_function(held)


class CountingInbox(SimpleQueue):
    """A worker inbox that counts the tasks put into it."""

    def __init__(self):
        super().__init__()
        self.tasks = 0

    def put(self, item):
        if item is not Worker.STOP:
            self.tasks += 1
        super().put(item)


class Node:
    """A hand-stepped (or ``live``) manager over started workers,
    hand-offs recorded.

    ``started`` is every claim in the order ``_claim_head`` made it
    (recorded under the manager's lock); ``handoff`` is released each
    time a worker comes out of ``_finished``.
    """

    def __init__(self, workers=1, live=False, **config):
        EXECUTED.clear()
        GATES.clear()
        OPEN.clear()
        self.channel = Channel()
        self.agent = self.channel.right
        self.manager = Manager("m", self.channel.left, EndpointConfig(
            workers_per_node=workers, heartbeat_period=3600.0,
            scale_cold_start=0.0, **config))
        self.started: list[tuple[str, str]] = []
        self.handoff = threading.Semaphore(0)
        self.envelopes: list[ResultBatchMessage] = []
        self.adverts: list[Advertisement] = []
        self.serial = 0

        claim_head = self.manager._claim_head

        def recording_claim(candidates):
            claim = claim_head(candidates)
            if claim is not None:
                self.started.append((claim[0].worker_id, claim[1].task_id))
            assert (self.manager.advertised_capacity()
                    <= self.manager.credit_window())
            return claim

        self.manager._claim_head = recording_claim

        def recording_finished(worker, result):
            try:
                return self.manager._finished(worker, result)
            finally:
                self.handoff.release()

        self.workers = list(self.manager._workers.values())
        for worker in self.workers:
            worker.inbox = CountingInbox()
            worker._finished = recording_finished
        if live:  # the manager loop on its own thread
            self.manager.start()
        else:
            for worker in self.workers:
                worker.start()
            self.manager.register()
            self.step()

    # -- driving ---------------------------------------------------------
    def wave(self, keys, bodies=True):
        """Send one envelope, a task per container key; returns the ids."""
        ids = []
        for key in keys:
            ids.append(f"t{self.serial}")
            GATES[ids[-1]] = threading.Event()
            self.serial += 1
        self.agent.send(TaskBatchMessage(
            sender="agent",
            function_buffers={"held": HELD_BODY} if bodies else {},
            tasks=tuple(
                TaskMessage(
                    sender="agent", task_id=task_id, function_id="held",
                    payload_buffer=SERIALIZER.serialize(
                        ([task_id, __name__], {})),
                    container_image=key)
                for task_id, key in zip(ids, keys))))
        return ids

    def step(self):
        self.manager.step()
        for message in self.agent.recv_all_ready():
            if isinstance(message, ResultBatchMessage):
                self.envelopes.append(message)
            elif isinstance(message, Advertisement):
                self.adverts.append(message)

    def finish(self, task_id):
        """Let ``task_id`` return; block until its worker has been
        through the hand-off (has its next task, or is idle)."""
        GATES[task_id].set()
        self.await_handoffs(1)

    def await_handoffs(self, count):
        for _ in range(count):
            assert self.handoff.acquire(timeout=WAIT)

    def results(self):
        return [r for envelope in self.envelopes for r in envelope.results]

    def counter(self, name):
        return int(self.manager.metrics.value(name, manager="m"))

    def inbox_puts(self):
        return sum(worker.inbox.tasks for worker in self.workers)

    def quiescent(self):
        manager = self.manager
        return (set(manager._idle) == set(manager._workers)
                and manager.tracked_task_ids() == [])

    def close(self):
        OPEN.set()
        for gate in list(GATES.values()):
            gate.set()
        self.manager.stop()
        for worker in self.workers:
            assert not worker_alive(worker)


def worker_alive(worker):
    thread = worker._thread
    return thread is not None and thread.is_alive()


# ======================================================================
# the wave
# ======================================================================
class TestWaveThroughOneWorker:
    def test_one_inbox_put_then_self_claims_in_arrival_order(self):
        node = Node(workers=1)
        try:
            first = node.wave([None] * 3)
            node.step()  # t0 to the idle worker; t1, t2 wait prefetched
            # A later envelope arrives while the worker is busy: the
            # dispatch pass has no idle worker to offer it to.
            second = node.wave([None] * 3)
            node.step()
            assert node.started == [("m/w0", "t0")]
            assert node.manager.tracked_task_ids() == (first + second)[1:]

            OPEN.set()
            GATES["t0"].set()
            node.await_handoffs(6)  # five claims, then idle
            assert node.envelopes == []  # nobody stepped the manager
            node.step()

            ids = first + second
            assert node.inbox_puts() == 1
            assert node.counter("manager.tasks_self_claimed") == len(ids) - 1
            assert node.started == [("m/w0", task_id) for task_id in ids]
            assert EXECUTED == ids
            assert len(node.envelopes) == 1
            assert [r.task_id for r in node.results()] == ids
            assert all(r.success for r in node.results())
            assert node.counter("manager.tasks_completed") == len(ids)
            assert node.quiescent()
        finally:
            node.close()

    def test_claimed_task_is_a_copy_with_the_body(self):
        """The wire form stays empty-bodied (the agent keeps it for
        re-execution); what the worker runs carries the body."""
        node = Node(workers=1)
        try:
            node.wave([None])
            wire = []
            recv = node.manager.channel.recv_all_ready

            def tap(limit):
                messages = recv(limit)
                wire.extend(messages)
                return messages

            node.manager.channel.recv_all_ready = tap
            node.step()
            node.finish("t0")
            node.step()
            (envelope,) = [m for m in wire if isinstance(m, TaskBatchMessage)]
            assert envelope.tasks[0].function_buffer == b""
            assert [r.success for r in node.results()] == [True]
        finally:
            node.close()

    def test_idle_workers_are_offered_the_head_oldest_first(self):
        node = Node(workers=3)
        try:
            node.wave([None] * 5)
            node.step()
            assert node.started == [
                ("m/w0", "t0"), ("m/w1", "t1"), ("m/w2", "t2")]
            node.finish("t1")  # w1 takes the head itself
            assert node.started[-1] == ("m/w1", "t3")
            node.finish("t0")
            assert node.started[-1] == ("m/w0", "t4")
            node.finish("t2")  # queue empty: idle
            assert len(node.started) == 5
            assert node.inbox_puts() == 3
            assert node.counter("manager.tasks_self_claimed") == 2
            OPEN.set()
            node.finish("t3")
            node.finish("t4")
            node.step()
            # Idle in the order they went idle, not by id.
            assert list(node.manager._idle) == ["m/w2", "m/w1", "m/w0"]
            node.wave([None])
            node.step()
            assert node.started[-1] == ("m/w2", "t5")
            node.await_handoffs(1)
            node.step()
            assert node.quiescent()
        finally:
            node.close()


# ======================================================================
# what a finishing worker leaves to the manager loop
# ======================================================================
class TestTheLoopsDecisions:
    def test_head_needing_another_container_waits_for_the_loop(self):
        node = Node(workers=1)
        try:
            node.wave([None, DOCKER_A, DOCKER_A])
            node.step()
            node.finish("t0")
            # The worker is bare, the head is not: it went idle instead.
            assert node.started == [("m/w0", "t0")]
            assert node.counter("manager.tasks_self_claimed") == 0
            assert node.manager.cold_starts == 0
            assert list(node.manager._idle) == ["m/w0"]

            node.step()  # the loop redeploys (§4.5) and hands t1 over
            assert node.manager.cold_starts == 1
            assert node.started[-1] == ("m/w0", "t1")
            assert DOCKER_A in node.manager.deployed_containers()
            node.finish("t1")  # now in the right container: self-claim
            assert node.started[-1] == ("m/w0", "t2")
            node.finish("t2")
            node.step()
            assert node.inbox_puts() == 2
            assert node.counter("manager.tasks_self_claimed") == 1
            assert node.manager.cold_starts == 1
            assert [r.task_id for r in node.results()] == ["t0", "t1", "t2"]
            assert all(r.success for r in node.results())
            assert node.quiescent()
        finally:
            node.close()

    def test_redeploy_victim_is_the_longest_idle_worker(self):
        node = Node(workers=3)
        try:
            node.wave([None, None])
            node.step()  # w0, w1 busy; w2 idle since deploy
            node.finish("t0")
            node.finish("t1")
            node.step()
            assert list(node.manager._idle) == ["m/w2", "m/w0", "m/w1"]
            node.wave([DOCKER_A, DOCKER_B])
            node.step()
            assert node.started[-2:] == [("m/w2", "t2"), ("m/w0", "t3")]
            assert node.manager.cold_starts == 2
            OPEN.set()
            node.finish("t2")
            node.finish("t3")
            node.step()
            assert node.quiescent()
        finally:
            node.close()

    def test_missing_body_is_failed_by_the_loop_not_claimed(self):
        node = Node(workers=1)
        try:
            node.wave([None])
            node.step()
            # Queued behind the running task without a manager step, so
            # the finishing worker is the first to meet the bodyless head.
            with node.manager._lock:
                node.manager._buffers.clear()
            orphan, after = node.wave([None, None], bodies=False)
            for message in node.manager.channel.recv_all_ready(8):
                node.manager._admit(message)
            node.finish("t0")
            assert node.started == [("m/w0", "t0")]
            assert list(node.manager._idle) == ["m/w0"]
            assert node.manager.tracked_task_ids() == [orphan, after]

            failed_on = []
            fail = node.manager._fail_unresolvable

            def recording_fail(message):
                failed_on.append(threading.current_thread())
                fail(message)

            node.manager._fail_unresolvable = recording_fail
            node.step()
            assert failed_on == [threading.current_thread()] * 2
            assert node.counter("manager.buffer_misses") == 2
            assert node.counter("manager.tasks_self_claimed") == 0
            failures = [r for r in node.results() if not r.success]
            assert [r.task_id for r in failures] == [orphan, after]
            assert {r.sender for r in failures} == {"m"}
            assert "unavailable" in SERIALIZER.deserialize(
                failures[0].result_buffer).exc_str
            assert EXECUTED == ["t0"]
            assert node.quiescent()
        finally:
            node.close()

    def test_one_collect_is_one_transfer(self):
        node = Node(workers=1)
        try:
            transfers = []
            deliver = node.agent._deliver_batch

            def tap(now, latency, cost, messages):
                transfers.append(tuple(type(m) for m in messages))
                deliver(now, latency, cost, messages)

            node.agent._deliver_batch = tap
            node.wave([None] * 3)
            node.step()
            node.finish("t0")  # w0 holds t1 now; t2 is queued
            assert transfers == []
            node.step()
            # The result and the advertisement its collection causes
            # (one task queued where none was advertised): together,
            # result first.
            assert transfers == [(ResultBatchMessage, Advertisement)]
            assert node.adverts[-1].prefetch_capacity == 3
            node.step()
            assert len(transfers) == 1  # nothing changed, nothing sent
            OPEN.set()
            GATES["t1"].set()
            node.await_handoffs(2)
            node.step()
            assert transfers[1:] == [(ResultBatchMessage, Advertisement)]
            assert len(node.envelopes[-1].results) == 2
            assert node.adverts[-1].idle_workers == 1
            assert node.quiescent()
        finally:
            node.close()

    def test_suspend_does_not_strand_the_queue(self):
        """Suspension is the agent's to enforce; a suspended node still
        finishes what it holds, by either caller."""
        node = Node(workers=1)
        try:
            node.wave([None, None, None])
            node.step()
            node.agent.send(CommandMessage(sender="agent", command="suspend"))
            node.step()
            assert node.adverts[-1].credit_window == 0
            OPEN.set()
            GATES["t0"].set()
            node.await_handoffs(3)
            node.step()
            assert [r.task_id for r in node.results()] == ["t0", "t1", "t2"]
            assert node.quiescent()
        finally:
            node.close()


# ======================================================================
# the idle set is the node's capacity
# ======================================================================
class TestCapacityIsTheIdleSet:
    def test_a_result_and_the_slot_it_frees_are_seen_together(self):
        """One worker, nothing queued once it finishes: the node is idle,
        so the worker ships the result itself and advertises itself idle,
        in one transfer."""
        node = Node(workers=1)
        try:
            prefetch = node.manager.config.prefetch_capacity
            node.wave([None, None])
            node.step()
            node.finish("t0")  # w0 takes t1: nothing is queued now
            node.step()
            assert node.adverts[-1].total_request == prefetch

            transfers = []
            deliver = node.agent._deliver_batch

            def tap(now, latency, cost, messages):
                transfers.append(tuple(type(m) for m in messages))
                deliver(now, latency, cost, messages)

            node.agent._deliver_batch = tap
            collected = []
            send_results = node.manager._send_results

            def recording_send(results, advert):
                collected.append(([r.task_id for r in results],
                                  node.manager.advertised_capacity()))
                send_results(results, advert)

            node.manager._send_results = recording_send
            node.finish("t1")
            # Before any step: the worker is idle, nothing is held, and
            # the result has left.
            assert node.manager.idle_count == 1
            assert node.manager.outstanding == 0
            assert node.manager.advertised_capacity() == 1 + prefetch
            assert collected == [(["t1"], 1 + prefetch)]
            node.step()
            assert len(collected) == 1
            assert transfers == [(ResultBatchMessage, Advertisement)]
            assert [r.task_id for r in node.envelopes[-1].results] == ["t1"]
            assert node.adverts[-1].idle_workers == 1
            assert node.adverts[-1].total_request == 1 + prefetch
            assert node.quiescent()
        finally:
            node.close()

    def test_a_task_claimed_into_an_inbox_is_outstanding(self):
        """Workers not started: the step's claim puts the task in
        ``m/w0``'s inbox, where no worker has taken it yet."""
        channel = Channel()
        manager = Manager("m", channel.left, EndpointConfig(
            workers_per_node=1, heartbeat_period=3600.0))
        try:
            channel.right.send(TaskBatchMessage(
                sender="agent", function_buffers={"held": HELD_BODY},
                tasks=(TaskMessage(
                    sender="agent", task_id="t0", function_id="held",
                    payload_buffer=SERIALIZER.serialize(
                        (["t0", __name__], {}))),)))
            manager.step()
            inbox = manager._workers["m/w0"].inbox
            assert inbox.qsize() == 1
            assert manager.tracked_task_ids() == []
            assert manager.outstanding == 1
            assert manager.idle_count == 0
        finally:
            manager.stop()


# ======================================================================
# an idle node ships its own results
# ======================================================================
class TestIdleNodeShips:
    def test_a_lone_result_reaches_the_agent_with_no_step_after_admission(
            self):
        node = Node(workers=4)
        try:
            node.wave([None])
            node.step()  # admission: t0 to an idle worker
            node.manager._wakeup.wait(0.0)  # the envelope's delivery
            steps = []
            step = node.manager.step
            node.manager.step = lambda: steps.append(1) or step()
            node.finish("t0")
            # The agent was last told 4 idle: the result travels alone.
            (shipped,) = node.agent.recv_all_ready()
            assert [r.task_id for r in shipped.results] == ["t0"]
            assert steps == []
            assert node.manager._wakeup.wait(0.0) is False  # nobody woke it
            assert node.counter("manager.tasks_completed") == 1
            assert node.quiescent()
        finally:
            node.close()

    def test_with_two_tasks_in_flight_the_first_finish_wakes_the_loop(self):
        node = Node(workers=2)
        try:
            node.wave([None, None])
            node.step()
            node.manager._wakeup.wait(0.0)  # the envelope's delivery
            assert len(node.started) == 2
            node.finish("t0")
            assert node.agent.recv_all_ready() == []  # the node is busy
            assert node.manager._wakeup.wait(0.0) is True
            node.step()
            assert [r.task_id for r in node.results()] == ["t0"]
            node.finish("t1")  # now idle: the worker ships t1 itself
            assert node.manager._wakeup.wait(0.0) is False
            node.step()
            assert [r.task_id for r in node.results()] == ["t0", "t1"]
            assert len(node.envelopes) == 2
        finally:
            node.close()


# ======================================================================
# kill
# ======================================================================
class TestKill:
    def test_nothing_queued_starts_after_kill_and_workers_exit(self):
        node = Node(workers=2)
        try:
            ids = node.wave([None] * 6)
            node.step()
            assert [task_id for _, task_id in node.started] == ids[:2]
            node.manager.kill()
            OPEN.set()
            node.finish("t0")
            node.finish("t1")
            for worker in node.workers:
                worker.join(WAIT)
                assert not worker_alive(worker)
            assert [task_id for _, task_id in node.started] == ids[:2]
            assert sorted(EXECUTED) == ids[:2]
            assert node.manager.tracked_task_ids() == ids[2:]
            assert node.counter("manager.tasks_self_claimed") == 0
            # A step after the fact starts nothing either.
            assert node.manager._dispatch_pending() == 0
            assert sum(w.tasks_executed for w in node.workers) == 2
        finally:
            node.close()

    def test_a_worker_finishing_after_kill_ships_nothing(
            self, monkeypatch, caplog):
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        node = Node(workers=1)
        try:
            node.wave([None])
            node.step()
            node.manager.kill()
            sent = node.channel.left.sent_count
            with caplog.at_level("ERROR"):
                node.finish("t0")
                (worker,) = node.workers
                worker.join(WAIT)
                assert not worker_alive(worker)
            assert node.channel.left.sent_count == sent
            assert node.agent.recv_all_ready() == []
            assert raised == [] and caplog.records == []
        finally:
            node.close()

    def test_kill_restart_cycles_leave_no_worker_threads(self):
        def worker_threads():
            return sorted(t.name for t in threading.enumerate()
                          if t.name.startswith("worker-") and t.is_alive())

        before = worker_threads()
        with LocalDeployment() as deployment:
            ep = deployment.create_endpoint(
                "cycles", nodes=1, config=EndpointConfig(workers_per_node=4))
            endpoint = deployment.endpoint(ep)
            assert endpoint.wait_ready()
            baseline = len(worker_threads())
            assert baseline == len(before) + 4
            for _ in range(5):
                (manager_id,) = list(endpoint.managers)
                killed = endpoint.kill_manager(manager_id)
                endpoint.restart_manager()
                for worker in killed._workers.values():
                    worker.join(WAIT)
                    assert not worker_alive(worker)
                assert len(worker_threads()) == baseline
        assert worker_threads() == before


# ======================================================================
# a worker never dies silently
# ======================================================================
def double(x):
    return 2 * x


class TestWorkerSurvivesItsHandOff:
    def test_a_raising_finished_is_logged_and_the_next_task_runs(
            self, caplog):
        results = []
        served = threading.Event()

        def finished(worker, result):
            results.append(result.task_id)
            if len(results) == 1:
                raise RuntimeError("hand-off failed")
            served.set()
            return None

        manager = Manager("m", Channel().left, EndpointConfig(
            workers_per_node=1))
        worker = Worker("m/w9", SimpleQueue(), finished,
                        manager._workers["m/w0"].container)
        body = SERIALIZER.serialize_function(double)
        worker.start()
        try:
            with caplog.at_level("ERROR", logger="repro.endpoint.worker"):
                for task_id in ("t0", "t1"):
                    worker.inbox.put(TaskMessage(
                        sender="m", task_id=task_id, function_id="double",
                        function_buffer=body,
                        payload_buffer=SERIALIZER.serialize(([1], {}))))
                assert served.wait(5.0), results
            assert results == ["t0", "t1"]
            assert [r.getMessage() for r in caplog.records] == [
                "m/w9: finished failed; continuing"]
        finally:
            worker.stop(WAIT)
        assert not worker_alive(worker)


# ======================================================================
# the live loop and the workers, racing
# ======================================================================
class TestLiveStress:
    def test_no_task_lost_or_run_twice_under_fast_thread_switching(self):
        """Four workers and the manager loop all claim from one queue
        with the interpreter switching threads every 10 µs: a lost or
        doubled claim shows as a missing or repeated result."""
        total, wave = 4800, 24
        node = Node(workers=4, live=True)
        OPEN.set()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            ids = []
            while len(ids) < total:
                ids += node.wave([None] * wave)
            results = []
            while len(results) < total:
                message = node.agent.recv(timeout=WAIT)
                assert message is not None, f"{len(results)} of {total} back"
                if isinstance(message, ResultBatchMessage):
                    results += message.results
            node.manager.stop()
            assert sorted(r.task_id for r in results) == sorted(ids)
            assert all(r.success for r in results)
            assert sorted(EXECUTED) == sorted(ids)
            assert [task_id for _, task_id in node.started] == ids
            assert (node.inbox_puts()
                    + node.counter("manager.tasks_self_claimed")) == total
            assert node.counter("manager.tasks_completed") == total
            assert node.quiescent()
        finally:
            sys.setswitchinterval(interval)
            node.close()


# ======================================================================
# any interleaving
# ======================================================================
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("wave"), st.lists(
            st.sampled_from([None, DOCKER_A]), min_size=1, max_size=5)),
        st.tuples(st.just("finish"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("step"), st.none()),
        st.tuples(st.just("suspend"), st.none()),
        st.tuples(st.just("kill"), st.none()),
    ),
    max_size=14)


class TestAnyInterleaving:
    @settings(max_examples=150, deadline=None)
    @given(workers=st.integers(min_value=1, max_value=3), ops=OPS)
    def test_every_task_not_lost_starts_exactly_once_in_order(
            self, workers, ops):
        node = Node(workers=workers)
        admitted: list[str] = []
        finished: set[str] = set()
        killed = False

        def running():
            return [task_id for _, task_id in node.started
                    if task_id not in finished]

        try:
            for op, arg in ops:
                if op == "finish":
                    if running():
                        task_id = running()[arg % len(running())]
                        finished.add(task_id)
                        node.finish(task_id)
                elif killed:
                    continue
                elif op == "wave":
                    admitted += node.wave(arg)
                    node.step()
                elif op == "step":
                    node.step()
                elif op == "suspend":
                    node.agent.send(
                        CommandMessage(sender="agent", command="suspend"))
                    node.step()
                elif op == "kill":
                    killed = True
                    lost = node.manager.tracked_task_ids()
                    node.manager.kill()

            # Drain: a live node is stepped (collect, dispatch) and the
            # oldest running task returns, until nothing is running.
            while True:
                if not killed:
                    node.step()
                if not running():
                    break
                task_id = running()[0]
                finished.add(task_id)
                node.finish(task_id)

            started = [task_id for _, task_id in node.started]
            if killed:
                assert started == admitted[:len(started)]
                assert started + lost == admitted
                for worker in node.workers:
                    worker.join(WAIT)
                    assert not worker_alive(worker)
            else:
                assert started == admitted
                assert sorted(r.task_id for r in node.results()) == sorted(
                    admitted)
                assert all(r.success for r in node.results())
                assert node.quiescent()
            # Exactly once, and per worker in the order it was claimed.
            assert sorted(EXECUTED) == sorted(started)
            for worker in node.workers:
                mine = [t for w, t in node.started if w == worker.worker_id]
                assert [t for t in EXECUTED if t in set(mine)] == mine
            assert (node.inbox_puts()
                    + node.counter("manager.tasks_self_claimed")
                    == len(started))
        finally:
            node.close()
