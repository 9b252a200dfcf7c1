"""What a finished task record keeps.

Every terminal record stays in its shard's table for ``result_ttl``, so
the service's memory is completion rate x TTL x bytes per record.  A
finished tiny task keeps its slotted :class:`~repro.core.tasks.Task`,
its ten-stamp timeline and an empty ``metadata``; these tests hold that
budget, counted by ``tracemalloc`` over a live run, not read off an RSS.
"""

from __future__ import annotations

import gc
import time
import tracemalloc

from repro.core.tasks import Task
from repro.fabric import LocalDeployment

WARMUP = 500
COUNT = 2000
#: Bytes a finished tiny task may keep: 1,161 measured on x86_64 with
#: CPython 3.11.7, where a ``__dict__`` record that stamped every state
#: twice and kept ``execution_time`` in ``metadata`` kept 1,733.
BUDGET = 1300


def identity(x):
    return x


def wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


def run(executor, function_id, service, count: int) -> None:
    """``count`` tasks to their results, and every result's bytes out
    of the service (the stream's ack released them)."""
    purged = service.metrics.counter("service.results_purged")
    goal = purged.value + count
    futures = [executor.submit(function_id, i) for i in range(count)]
    assert [future.result(timeout=60) for future in futures] == list(range(count))
    assert wait_until(lambda: purged.value == goal)


def test_a_task_record_has_no_instance_dict():
    task = Task(function_id="f", endpoint_id="e")
    assert not hasattr(task, "__dict__")


def test_a_finished_record_keeps_at_most_its_budget():
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        with LocalDeployment() as deployment:
            service = deployment.service
            client = deployment.client()
            endpoint = deployment.create_endpoint("footprint", nodes=1)
            function_id = client.register_function(identity)
            executor = client.executor(endpoint)
            try:
                run(executor, function_id, service, WARMUP)
                gc.collect()
                before = tracemalloc.get_traced_memory()[0]
                run(executor, function_id, service, COUNT)
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                executor.shutdown(wait=True)
            finished = service.iter_tasks()
    finally:
        if started:
            tracemalloc.stop()
    assert len(finished) == WARMUP + COUNT  # none swept yet
    per_record = (after - before) / COUNT
    assert per_record <= BUDGET, f"{per_record:.0f} B per finished record"
    # The common path adds nothing per task beside the fields.
    assert not any(task.metadata for task in finished)
