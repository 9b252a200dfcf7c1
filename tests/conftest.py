"""Shared test fixtures."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.transport.messages import TaskBatchMessage

TURNSTILE_WAIT = 30.0


def unwrap_tasks(messages):
    """Tap a link: the tasks of the ``TaskBatchMessage`` envelopes among
    ``messages``, each with its body reattached from its own envelope.

    Asserts the wire rule on every envelope read: a task travels
    stripped, and its envelope carries the body of its function.
    """
    tasks = []
    for message in messages:
        if not isinstance(message, TaskBatchMessage):
            continue
        for task in message.tasks:
            assert not task.function_buffer
            assert task.function_id in message.function_buffers
            tasks.append(replace(task, function_buffer=(
                message.function_buffers[task.function_id])))
    return tasks


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
            assert self._go.acquire(timeout=TURNSTILE_WAIT)
        return self._batch_run(calls, **kwargs)

    def await_wave(self):
        """Block until the batcher stands inside its next submit."""
        assert self._entered.acquire(timeout=TURNSTILE_WAIT)

    def let_through(self):
        self._go.release()

    def open(self):
        self._open.set()
        self._go.release()


class FakeClock:
    """A manually-advanced clock for deterministic time-dependent tests."""

    def __init__(self, start: float = 0.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("cannot go backwards")
        self.now += seconds
        return self.now


@pytest.fixture
def clock() -> FakeClock:
    return FakeClock()


@pytest.fixture
def chaos_world():
    """A factory for instrumented chaos deployments (closed on teardown).

    Usage::

        def test_something(chaos_world):
            world = chaos_world(seed=7)
            world.add_endpoint("ep")
            ...
    """
    from repro.chaos import ChaosWorld

    worlds = []

    def factory(seed: int = 0, **kwargs) -> ChaosWorld:
        world = ChaosWorld(seed=seed, **kwargs)
        worlds.append(world)
        return world

    yield factory
    for world in worlds:
        world.close()
