"""One step per wake-up: what a loop pass costs, and that none is lost.

``run_loop`` steps once per wake-up and then waits; a step that cuts its
own work short re-arms its own ``Wakeup``.  Everything here is a count
or a bounded wait, never a sleep that makes a test pass:

* a lone task costs each of the forwarder, agent and manager two
  passes (one out, one back) and the result stream one;
* each place a step leaves work behind on purpose — a manager drain at
  ``MAX_DRAIN``, a stream pass at ``MAX_BATCH`` — finishes the work
  with the liveness fallback out of reach (the forwarder's per-step
  bound is covered in ``tests/test_core_forwarder.py``);
* a forwarder whose agent end is down does not spin on its own nacks;
* an idle fabric wakes each loop at its liveness fallback plus once per
  heartbeat it receives, and no more.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from functools import partial
from types import SimpleNamespace

import pytest

from repro import LocalDeployment
from repro.auth import AuthService
from repro.core.forwarder import Forwarder
from repro.core.service import FuncXService
from repro.core.stream import ResultStreamServer
from repro.endpoint.agent import FuncXAgent
from repro.endpoint.config import EndpointConfig
from repro.endpoint.elasticity import ElasticityController
from repro.endpoint.manager import Manager
from repro.providers import LocalProvider
from repro.serialize import FuncXSerializer
from repro.transport.channel import Channel
from repro.transport.messages import Registration, TaskBatchMessage, TaskMessage
from repro.transport.wakeup import IDLE_FALLBACK, Wakeup, join_thread

WAIT = 30.0
#: Well inside what a stranded remainder would wait for: the fallback
#: below (half a 60 s heartbeat period), or forever for the stream.
PROMPT = 2.0
SERIAL = 200
LOOPS = (Forwarder, FuncXAgent, Manager, ResultStreamServer)


def double(x):
    return 2 * x


@pytest.fixture
def passes(monkeypatch):
    """Step calls per loop class, counted from outside every loop body."""
    counts: Counter = Counter()
    for cls in LOOPS:
        inner = cls.step

        def counted(self, _inner=inner, _name=cls.__name__):
            counts[_name] += 1
            return _inner(self)

        monkeypatch.setattr(cls, "step", counted)
    return counts


def extra_passes(elapsed, fallback):
    """Passes the liveness fallback may add over ``elapsed`` seconds."""
    return int(elapsed / fallback) + 1


@pytest.fixture
def service():
    service = FuncXService(auth=AuthService())
    yield service
    service.close()


@pytest.fixture
def endpoint(service):
    """``(endpoint_id, submit)``: ``submit(n)`` queues ``n`` tasks there."""
    identity = service.auth.register_identity("alice")
    token = service.auth.native_client_flow(identity).token
    _identity, ep_token = service.auth.endpoint_client_flow("ep")
    endpoint_id = service.register_endpoint(ep_token.token, name="ep")
    serializer = FuncXSerializer()
    function_id = service.register_function(
        token, "double", serializer.serialize_function(double), public=True)
    payload = serializer.serialize(([1], {}))
    return endpoint_id, lambda n: service.submit_batch(
        token, [(function_id, endpoint_id, payload)] * n)


class TestPassesPerLoneTask:
    def test_serial_tasks_cost_two_hop_passes_and_one_stream_pass(
            self, passes):
        config = EndpointConfig(heartbeat_period=60.0)
        fallback = 0.5 * config.heartbeat_period

        def serial(call):
            """Passes and seconds for ``SERIAL`` one-at-a-time calls."""
            for i in range(5):   # warm: registration, deploy, first body
                assert call(i).result(timeout=WAIT) == 2 * i
            passes.clear()
            started = time.monotonic()
            for i in range(SERIAL):
                assert call(i).result(timeout=WAIT) == 2 * i
            return dict(passes), time.monotonic() - started

        with LocalDeployment() as deployment:
            endpoint_id = deployment.create_endpoint(
                "passes", nodes=1, config=config)
            client = deployment.client()
            function_id = client.register_function(double)
            runs = [serial(partial(client.submit, function_id, endpoint_id))]
            with client.executor(endpoint_id) as executor:
                runs.append(serial(partial(executor.submit, double)))
        for counts, elapsed in runs:
            for name in ("Forwarder", "FuncXAgent", "Manager"):
                assert counts[name] <= (
                    2 * SERIAL + extra_passes(elapsed, fallback)), counts
        counts, elapsed = runs[1]
        assert counts["ResultStreamServer"] <= (
            SERIAL + extra_passes(elapsed, IDLE_FALLBACK)), counts


class TestCutShortReArms:
    def test_manager_drain_past_max_drain_finishes(self):
        # Tasks whose bodies never arrive: the manager fails each one
        # itself, so no worker's completion wakes it for the remainder.
        # All envelopes ride one transfer sent to a running loop: one
        # wake-up for the lot.
        channel = Channel()
        manager = Manager("m", channel.left, EndpointConfig(
            workers_per_node=1, heartbeat_period=60.0))
        envelopes = Manager.MAX_DRAIN + 50
        misses = manager.metrics.counter("manager.buffer_misses", manager="m")
        drained = threading.Event()
        step = manager.step

        def watched_step():
            events = step()
            if misses.value == envelopes:
                drained.set()
            return events

        manager.step = watched_step
        manager.start()
        try:
            channel.right.send_many(
                TaskBatchMessage(sender="agent", tasks=(TaskMessage(
                    sender="agent", task_id=f"t{i}", function_id="missing"),))
                for i in range(envelopes))
            assert drained.wait(PROMPT)
        finally:
            manager.stop()
        assert channel.left.pending() == 0

    def test_stream_pass_cut_at_max_batch_finishes(
            self, service, endpoint, monkeypatch):
        # Window 4 over batches of 2, and a client that acks only a full
        # window: after the first batch only the pass's own re-mark can
        # start the second (the idle fallback serves marked subscriptions
        # only).
        monkeypatch.setattr("repro.core.stream.MAX_BATCH", 2)
        _endpoint_id, submit = endpoint
        task_ids = submit(20)
        for task_id in task_ids:
            service.complete_task(task_id, success=True, result_buffer=b"r")
        sub = service.result_stream.subscribe(window=4)
        delivered: list[str] = []
        unacked: list[tuple[str, int]] = []
        done = threading.Event()

        def consumer(batch):
            delivered.extend(m.task_id for m in batch.results)
            unacked.append((batch.delivery_id, len(batch.results)))
            if sum(n for _, n in unacked) == 4:
                for delivery_id, _n in unacked:
                    sub.ack(delivery_id)
                unacked.clear()
            if len(delivered) == len(task_ids):
                done.set()

        sub.watch_many(task_ids)
        sub.attach(consumer)
        assert done.wait(PROMPT), len(delivered)
        assert sorted(delivered) == sorted(task_ids)


class TestDeadAgentEnd:
    def test_dropped_wave_waits_for_a_real_wake_up(
            self, service, endpoint, passes):
        # The agent registers, then its end goes down: every wave the
        # forwarder sends is dropped and its leases go back.  Handing
        # them back must not wake the loop that will lease them again.
        endpoint_id, submit = endpoint
        channel = Channel()
        forwarder = Forwarder(service, endpoint_id, channel.left,
                              heartbeat_period=1.0, heartbeat_grace=3)
        channel.right.send(Registration(sender="agent:x",
                                        component_type="endpoint"))
        forwarder.step()
        assert forwarder.agent_connected
        channel.right.disconnect()
        forwarder.start()
        try:
            passes.clear()
            submit(10)
            # One second: a third of the liveness timeout (period x grace),
            # two fallbacks.
            time.sleep(1.0)
            steps = passes["Forwarder"]
            assert forwarder.agent_connected
        finally:
            forwarder.stop()
        assert steps <= 10, steps


class TestIdleCost:
    def test_idle_loops_wake_at_their_fallback_and_inbound_beats(
            self, monkeypatch):
        # After warm-up nothing is submitted for IDLE_S seconds.  Each
        # loop's waits are counted per thread role: its fallback ticks,
        # plus one wake-up per heartbeat that reaches it (the agent's to
        # the forwarder, the manager's to the agent).  A loop that spins
        # or re-arms itself for nothing reads thousands.
        idle_s = 2.0
        config = EndpointConfig()
        period = config.heartbeat_period
        hop_fallback = 0.5 * period
        bounds = {
            "forwarder": idle_s * (1 / hop_fallback + 1 / period),
            "agent": idle_s * (1 / hop_fallback + 1 / period),
            "manager": idle_s / hop_fallback,
            "result-stream": idle_s / IDLE_FALLBACK,
            "funcx-executor": idle_s / IDLE_FALLBACK,
        }
        waits: Counter = Counter()
        counting = threading.Event()
        inner = Wakeup.wait

        def counted(self, timeout):
            if counting.is_set():
                name = threading.current_thread().name
                for role in bounds:
                    if name.startswith(role):
                        waits[role] += 1
            return inner(self, timeout)

        monkeypatch.setattr(Wakeup, "wait", counted)
        with LocalDeployment() as deployment:
            endpoint_id = deployment.create_endpoint(
                "idle", nodes=1, config=config)
            client = deployment.client()
            function_id = client.register_function(double)
            with client.executor(endpoint_id) as executor:
                for i in range(5):
                    assert client.submit(function_id, endpoint_id, i).result(
                        timeout=WAIT) == 2 * i
                    assert executor.submit(double, i).result(
                        timeout=WAIT) == 2 * i
                counting.set()
                time.sleep(idle_s)
                counting.clear()
        seen = dict(waits)
        assert set(seen) == set(bounds), seen
        for role, bound in bounds.items():
            assert seen[role] <= bound + 2, (role, seen)


class StuckThread:
    """A loop thread that never ends: ``join`` returns at once."""

    def __init__(self, name):
        self.name = name

    def join(self, timeout=None):
        pass

    def is_alive(self):
        return True


class TestStopIsNeverSilent:
    def test_a_killed_manager_loop_that_outlives_its_join_is_logged(
            self, caplog):
        manager = Manager("stuck", Channel().left,
                          EndpointConfig(workers_per_node=1))
        manager._thread = StuckThread("manager-stuck")
        with caplog.at_level("WARNING", logger="repro.transport.wakeup"):
            manager.kill()
        assert [record.getMessage() for record in caplog.records] == [
            "manager-stuck still alive 1 s after stop"]
        assert manager._thread is None

    def test_an_elasticity_loop_that_outlives_its_join_is_logged(
            self, caplog):
        controller = ElasticityController(
            SimpleNamespace(config=EndpointConfig()), provider=LocalProvider())
        controller._thread = StuckThread("elasticity")
        with caplog.at_level("WARNING", logger="repro.transport.wakeup"):
            controller.stop(timeout=0.01)
        assert [record.getMessage() for record in caplog.records] == [
            "elasticity still alive 0.01 s after stop"]
        assert controller._thread is None

    def test_a_thread_that_outlives_its_join_is_logged_by_name(self, caplog):
        release = threading.Event()
        stuck = threading.Thread(target=release.wait, name="manager-stuck",
                                 daemon=True)
        stuck.start()
        try:
            with caplog.at_level("WARNING", logger="repro.transport.wakeup"):
                join_thread(stuck, 0.01)
            assert [record.getMessage() for record in caplog.records] == [
                "manager-stuck still alive 0.01 s after stop"]
            release.set()
            caplog.clear()
            join_thread(stuck, WAIT)
            assert not stuck.is_alive() and caplog.records == []
        finally:
            release.set()
