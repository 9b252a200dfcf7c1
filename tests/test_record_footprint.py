"""What a finished task record keeps.

Every terminal record stays in its shard for ``result_ttl``, so the
service's memory is completion rate x TTL x bytes per record.  A record
whose stream reader acked it keeps one row of its shard's
:class:`~repro.core.shard.RetiredRows`; a record nobody streams keeps a
row too, plus its result bytes, once its batch of
:data:`~repro.core.shard.RETIRE_BATCH` retires.  These tests hold both
budgets, counted by ``tracemalloc`` over a live run, not read off an
RSS.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from typing import Callable

from repro.core.tasks import Task
from repro.fabric import LocalDeployment
from repro.metrics.registry import RESERVOIR_SIZE

#: Past every histogram's reservoir, so the window counts records only.
WARMUP = RESERVOIR_SIZE + 500
COUNT = 2000
#: Bytes a finished tiny task that no stream watches may keep, its
#: result bytes and its share of the batch not yet retired included:
#: ~400 measured on x86_64 with CPython 3.11.7, where its slotted
#: ``Task`` kept ~946 (and a ``__dict__`` record 1,733).
BUDGET = 450
#: Bytes a released tiny record may keep as a row: ~236 measured on
#: x86_64 with CPython 3.11.7, where its ``Task`` kept ~840.
RELEASED_BUDGET = 250


def identity(x):
    return x


def wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def bytes_per_record(run: Callable[..., None]) -> tuple[float, list[Task]]:
    """Bytes the service keeps per task over ``COUNT`` tasks run after
    ``WARMUP``, with every record still held; ``run(client, executor,
    function_id, service, count)`` takes ``count`` tasks to their
    results."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        with LocalDeployment() as deployment:
            service = deployment.service
            client = deployment.client()
            endpoint = deployment.create_endpoint("footprint", nodes=1)
            function_id = client.register_function(identity)
            with client.executor(endpoint) as executor:
                args = (client, executor, function_id, service)
                run(*args, WARMUP)
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                run(*args, COUNT)
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finished = service.iter_tasks()
    finally:
        if started:
            tracemalloc.stop()
    assert len(finished) == WARMUP + COUNT  # none swept yet
    return (after - before) / COUNT, finished


def streamed(client, executor, function_id, service, count: int) -> None:
    """Through the executor: each result's bytes leave the service on the
    stream's ack, and its record becomes a row."""
    purged = service.metrics.counter("service.results_purged")
    goal = purged.value + count
    futures = [executor.submit(function_id, i) for i in range(count)]
    assert [f.result(timeout=60) for f in futures] == list(range(count))
    assert wait_until(lambda: purged.value == goal)


def unwatched(client, executor, function_id, service, count: int) -> None:
    """``client.submit().result()``: no stream watches; the caller reads
    the live ``Task``, which retires to a row holding its result bytes
    with the next batch."""
    endpoint = executor.endpoint_id
    futures = [client.submit(function_id, endpoint, i) for i in range(count)]
    assert [f.result(timeout=60) for f in futures] == list(range(count))


def test_a_task_record_has_no_instance_dict():
    task = Task(function_id="f", endpoint_id="e")
    assert not hasattr(task, "__dict__")


def test_a_finished_record_keeps_at_most_its_budget():
    """A streamed record: released by the ack, kept as a row."""
    per_record, finished = bytes_per_record(streamed)
    assert per_record <= RELEASED_BUDGET, f"{per_record:.0f} B per released record"
    # The common path adds nothing per task beside the fields.
    assert not any(task.metadata for task in finished)
    assert all(task.released for task in finished)


def test_an_unwatched_record_keeps_at_most_its_budget():
    per_record, finished = bytes_per_record(unwatched)
    assert per_record <= BUDGET, f"{per_record:.0f} B per finished record"
    assert not any(task.metadata for task in finished)
    assert not any(task.released for task in finished)
