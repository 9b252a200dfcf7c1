"""Unit tests for managers and agents, stepped deterministically.

Manager and agent are driven by manual ``step()`` calls (no threads) with
worker threads real — the same coupling the live fabric uses but under
test control.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro.containers.spec import ContainerTechnology
from repro.endpoint.agent import FuncXAgent
from repro.endpoint.config import EndpointConfig
from repro.endpoint.manager import Manager
from repro.serialize import FuncXSerializer
from repro.transport.channel import Channel
from repro.transport.messages import (
    Advertisement,
    CommandMessage,
    Heartbeat,
    Registration,
    ResultBatchMessage,
    ResultMessage,
    TaskBatchMessage,
    TaskMessage,
)

from conftest import unwrap_tasks

SERIALIZER = FuncXSerializer()


def unwrap_results(messages):
    """Expand result batch envelopes into individual result messages."""
    return [result for message in messages
            if isinstance(message, ResultBatchMessage)
            for result in message.results]


def task_batch(*tasks):
    """The wire form of ``tasks``: one envelope, bodies shipped beside."""
    return TaskBatchMessage(
        sender="test",
        tasks=tuple(replace(task, function_buffer=b"") for task in tasks),
        function_buffers={task.function_id: task.function_buffer
                          for task in tasks},
    )


def task_message(func, args=(), task_id="t1", container=None):
    return TaskMessage(
        sender="test",
        task_id=task_id,
        function_id=f"fn-{func.__name__}",
        function_buffer=SERIALIZER.serialize_function(func),
        payload_buffer=SERIALIZER.serialize((list(args), {})),
        container_image=container,
    )


def add_one(x):
    return x + 1


def pump(step_fn, predicate, timeout=5.0, interval=0.002):
    """Step a component until ``predicate()`` or timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        step_fn()
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def manager_world():
    config = EndpointConfig(workers_per_node=2, heartbeat_period=0.05,
                            scale_cold_start=0.0)
    channel = Channel()
    manager = Manager("mgr1", channel.left, config)
    for worker in manager._workers.values():
        worker.start()
    yield manager, channel.right
    manager.stop()


class TestManager:
    def test_registration_advertises_capacity(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        messages = agent_end.recv_all_ready()
        reg = [m for m in messages if isinstance(m, Registration)]
        adv = [m for m in messages if isinstance(m, Advertisement)]
        assert reg[0].capacity == 2
        assert adv and adv[0].idle_workers == 2

    def test_executes_task(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        agent_end.recv_all_ready()
        agent_end.send(task_batch(task_message(add_one, (41,))))
        assert pump(manager.step, lambda: manager.tasks_completed >= 1)

    def test_result_round_trip(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        agent_end.recv_all_ready()
        agent_end.send(task_batch(task_message(add_one, (41,), task_id="tx")))
        collected = []

        def drain():
            manager.step()
            collected.extend(unwrap_results(agent_end.recv_all_ready()))

        assert pump(drain, lambda: len(collected) >= 1)
        result = collected[0]
        assert result.task_id == "tx"
        assert SERIALIZER.deserialize(result.result_buffer) == 42

    def test_parallel_workers(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        agent_end.recv_all_ready()
        for i in range(6):
            agent_end.send(task_batch(task_message(add_one, (i,), task_id=f"t{i}")))
        collected = []

        def drain():
            manager.step()
            collected.extend(unwrap_results(agent_end.recv_all_ready()))

        assert pump(drain, lambda: len(collected) == 6)
        assert {m.task_id for m in collected} == {f"t{i}" for i in range(6)}

    def test_heartbeats_emitted(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        collected = []

        def drain():
            manager.step()
            collected.extend(
                m for m in agent_end.recv_all_ready() if isinstance(m, Heartbeat)
            )

        assert pump(drain, lambda: len(collected) >= 2)

    def test_container_redeploy_on_demand(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        agent_end.recv_all_ready()
        key = f"{ContainerTechnology.DOCKER.value}:sci-image"
        agent_end.send(task_batch(task_message(add_one, (1,), task_id="ct", container=key)))
        collected = []

        def drain():
            manager.step()
            collected.extend(unwrap_results(agent_end.recv_all_ready()))

        assert pump(drain, lambda: len(collected) == 1)
        assert collected[0].success
        assert manager.cold_starts == 1
        assert key in manager.deployed_containers()

    def test_warm_container_reused(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        agent_end.recv_all_ready()
        key = f"{ContainerTechnology.DOCKER.value}:sci-image"
        collected = []

        def drain():
            manager.step()
            collected.extend(unwrap_results(agent_end.recv_all_ready()))

        agent_end.send(task_batch(task_message(add_one, (1,), task_id="c1", container=key)))
        assert pump(drain, lambda: len(collected) == 1)
        agent_end.send(task_batch(task_message(add_one, (2,), task_id="c2", container=key)))
        assert pump(drain, lambda: len(collected) == 2)
        # Second task found the container already deployed on a worker.
        assert manager.cold_starts == 1

    def test_shutdown_command(self, manager_world):
        manager, agent_end = manager_world
        manager.register()
        agent_end.send(CommandMessage(sender="agent", command="shutdown"))
        manager.step()
        assert manager._stop.is_set()

    def test_advertised_capacity_without_batching(self):
        config = EndpointConfig(workers_per_node=4, internal_batching=False)
        channel = Channel()
        manager = Manager("m", channel.left, config)
        assert manager.advertised_capacity() == 1

    def test_advertised_capacity_with_prefetch(self):
        config = EndpointConfig(workers_per_node=4, prefetch_capacity=8)
        channel = Channel()
        manager = Manager("m", channel.left, config)
        assert manager.advertised_capacity() == 12


@pytest.fixture
def agent_world():
    config = EndpointConfig(workers_per_node=2, heartbeat_period=0.05,
                            heartbeat_grace=3, seed=1)
    fwd_channel = Channel()
    agent = FuncXAgent("ep-1", fwd_channel.right, config=config)
    mgr_channel = Channel()
    agent.attach_manager("mgr1", mgr_channel.right)
    return agent, fwd_channel.left, mgr_channel.left


class TestAgent:
    def test_registers_with_forwarder(self, agent_world):
        agent, forwarder_end, _ = agent_world
        agent.register_with_forwarder()
        messages = forwarder_end.recv_all_ready()
        assert isinstance(messages[0], Registration)
        assert messages[0].metadata["endpoint_id"] == "ep-1"

    def test_routes_task_to_advertised_manager(self, agent_world):
        agent, forwarder_end, manager_end = agent_world
        manager_end.send(Advertisement(sender="mgr1", manager_id="mgr1", idle_workers=2))
        agent.step()
        forwarder_end.send(task_batch(task_message(add_one, (1,), task_id="t1")))
        agent.step()
        delivered = manager_end.recv_all_ready()
        assert len(delivered) == 1
        (task,) = unwrap_tasks(delivered)
        assert task.task_id == "t1"
        assert task.function_buffer  # body travels with the envelope
        assert agent.outstanding_count() == 1

    def test_queues_when_no_capacity(self, agent_world):
        agent, forwarder_end, manager_end = agent_world
        forwarder_end.send(task_batch(task_message(add_one, (1,))))
        agent.step()
        assert manager_end.recv_all_ready() == []
        assert agent.pending_count() == 1

    def test_result_forwarded_and_tracking_cleared(self, agent_world):
        agent, forwarder_end, manager_end = agent_world
        manager_end.send(Advertisement(sender="mgr1", manager_id="mgr1", idle_workers=2))
        agent.step()
        forwarder_end.send(task_batch(task_message(add_one, (1,), task_id="t1")))
        agent.step()
        manager_end.recv_all_ready()
        manager_end.send(ResultBatchMessage(sender="mgr1", results=(
            ResultMessage(sender="w", task_id="t1", success=True,
                          result_buffer=SERIALIZER.serialize(2)),)))
        agent.step()
        out = unwrap_results(forwarder_end.recv_all_ready())
        assert len(out) == 1
        assert agent.outstanding_count() == 0

    def test_manager_loss_reexecutes_on_other_manager(self, agent_world, monkeypatch):
        agent, forwarder_end, manager_end = agent_world
        # Use a manual clock inside the agent's heartbeat tracker.
        manager_end.send(Advertisement(sender="mgr1", manager_id="mgr1", idle_workers=2))
        manager_end.send(Heartbeat(sender="mgr1"))
        agent.step()
        forwarder_end.send(task_batch(task_message(add_one, (1,), task_id="t1")))
        agent.step()
        assert len(manager_end.recv_all_ready()) == 1
        # Attach a second manager, then let mgr1 go silent past the grace.
        channel2 = Channel()
        agent.attach_manager("mgr2", channel2.right)
        channel2.left.send(Advertisement(sender="mgr2", manager_id="mgr2", idle_workers=2))
        channel2.left.send(Heartbeat(sender="mgr2"))
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and agent.outstanding_count() > 0:
            channel2.left.send(Heartbeat(sender="mgr2"))
            agent.step()
            time.sleep(0.02)
        redelivered = channel2.left.recv_all_ready()
        tasks = unwrap_tasks(redelivered)
        assert [t.task_id for t in tasks] == ["t1"]
        assert agent.tasks_reexecuted == 1

    def test_task_fails_after_reexecution_budget(self):
        config = EndpointConfig(
            workers_per_node=2, heartbeat_period=0.01, heartbeat_grace=1,
            max_retries_on_loss=0,
        )
        fwd_channel = Channel()
        agent = FuncXAgent("ep-x", fwd_channel.right, config=config)
        mgr_channel = Channel()
        agent.attach_manager("mgr1", mgr_channel.right)
        forwarder_end, manager_end = fwd_channel.left, mgr_channel.left
        manager_end.send(Advertisement(sender="mgr1", manager_id="mgr1", idle_workers=2))
        manager_end.send(Heartbeat(sender="mgr1"))
        agent.step()
        forwarder_end.send(task_batch(task_message(add_one, (1,), task_id="doomed")))
        agent.step()
        manager_end.recv_all_ready()
        time.sleep(0.05)  # silence exceeds 1 × 0.01s grace
        agent.step()
        failures = unwrap_results(forwarder_end.recv_all_ready())
        assert len(failures) == 1 and not failures[0].success

    def test_suspend_manager_stops_scheduling(self, agent_world):
        agent, forwarder_end, manager_end = agent_world
        manager_end.send(Advertisement(sender="mgr1", manager_id="mgr1", idle_workers=2))
        manager_end.send(Heartbeat(sender="mgr1"))
        agent.step()
        agent.suspend_manager("mgr1")
        cmd = [m for m in manager_end.recv_all_ready() if isinstance(m, CommandMessage)]
        assert cmd and cmd[0].command == "suspend"
        forwarder_end.send(task_batch(task_message(add_one, (1,))))
        agent.step()
        assert unwrap_tasks(manager_end.recv_all_ready()) == []
        assert agent.pending_count() == 1

    def test_shutdown_manager_detaches(self, agent_world):
        agent, _, manager_end = agent_world
        agent.shutdown_manager("mgr1")
        cmd = manager_end.recv_all_ready()
        assert any(isinstance(m, CommandMessage) and m.command == "shutdown" for m in cmd)
        assert agent.manager_ids() == []

    def test_heartbeats_to_forwarder(self, agent_world):
        agent, forwarder_end, _ = agent_world
        agent.register_with_forwarder()
        forwarder_end.recv_all_ready()
        time.sleep(0.06)
        agent.step()
        beats = [m for m in forwarder_end.recv_all_ready() if isinstance(m, Heartbeat)]
        assert beats

    def test_task_without_its_body_is_failed_not_dropped(self, agent_world):
        # An envelope lacking its tasks' body is a sender bug: the agent
        # reports each such task failed instead of dropping it silently.
        agent, forwarder_end, _ = agent_world
        task = replace(task_message(add_one, (1,), task_id="bodiless"),
                       function_buffer=b"")
        forwarder_end.send(TaskBatchMessage(sender="test", tasks=(task,)))
        agent.step()
        (failure,) = unwrap_results(forwarder_end.recv_all_ready())
        assert failure.task_id == "bodiless" and not failure.success
        assert "unavailable" in SERIALIZER.deserialize(
            failure.result_buffer).exc_str
        assert agent.tracked_task_ids() == []
        assert agent.metrics.value("agent.buffer_misses", endpoint="ep-1") == 1

    def test_overtaken_envelope_to_a_manager_runs_both_tasks(self, clock):
        """Jitter reorders two envelopes on the agent→manager link: the
        one carrying task B lands before the one carrying task A.  B's
        own envelope holds its body, so both tasks succeed."""
        config = EndpointConfig(workers_per_node=2, scale_cold_start=0.0)
        fwd_channel = Channel(clock=clock)
        agent = FuncXAgent("ep-1", fwd_channel.right, config=config,
                           clock=clock)
        mgr_channel = Channel(clock=clock)
        agent.attach_manager("mgr1", mgr_channel.right)
        manager = Manager("mgr1", mgr_channel.left, config, clock=clock)
        for worker in manager._workers.values():
            worker.start()
        try:
            manager.register()
            agent.step()
            forwarder_end = fwd_channel.left
            mgr_channel.set_latency(0.2)
            forwarder_end.send(task_batch(task_message(add_one, (1,), "A")))
            agent.step()
            mgr_channel.set_latency(0.0)
            forwarder_end.send(task_batch(task_message(add_one, (2,), "B")))
            agent.step()
            manager.step()
            clock.advance(0.2)
            results = []

            def both_done():
                agent.step()
                results.extend(unwrap_results(forwarder_end.recv_all_ready()))
                return len(results) == 2

            assert pump(manager.step, both_done)
            assert {r.task_id: r.success for r in results} == {
                "A": True, "B": True}
            assert manager.metrics.value(
                "manager.buffer_misses", manager="mgr1") == 0
        finally:
            manager.stop()
