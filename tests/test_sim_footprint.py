"""What a simulated task costs to keep: a row of the fabric's task table.

* after the 40,960-task weak-Cori run (16 nodes, the golden replay's
  ``weak_cori_16_nodes``) the fabric keeps at most ``BUDGET`` bytes per
  task — ~54 measured on CPython 3.11.7; one slotted object per task
  kept ~169;
* ``submit_batch`` allocates a handful of blocks, whatever its count:
  no per-task object exists before a task is read.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np  # noqa: F401  (imported before tracing starts)

from repro.sim import SimFabric
from repro.sim.platform import CORI

BUDGET = 60  # bytes retained per task
TASKS = 16 * CORI.containers_per_node * 10


def _traced_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


def test_a_finished_run_keeps_at_most_the_budget_per_task():
    tracemalloc.start()
    try:
        before = _traced_bytes()
        fabric = SimFabric(CORI, managers=16)
        fabric.submit_batch(TASKS, duration=1.0)
        report = fabric.run()
        assert report.tasks_completed == TASKS
        del report
        per_task = (_traced_bytes() - before) / TASKS
    finally:
        tracemalloc.stop()
    assert len(fabric.completed) == TASKS
    assert per_task <= BUDGET, f"{per_task:.1f} B per task"


def test_submitting_a_batch_builds_no_object_per_task():
    fabric = SimFabric(CORI, managers=16)
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        tasks = fabric.submit_batch(100_000, duration=1.0)
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    blocks = sum(stat.count_diff for stat in after.compare_to(before, "filename"))
    assert len(tasks) == 100_000
    assert blocks < 1_000
