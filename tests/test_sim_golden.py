"""Golden replay: the simulated fabric must produce, task for task, the
schedule recorded in ``sim_golden.json``, which was generated at the
commit before the simulator's event plumbing moved from one heap event
per task per hop to one per wave.

Per scenario the record is a SHA-256 over every completed task's id and
seven fields (bit patterns, not reprs) in completion order, plus the
report's counters.  One scenario is also replayed in 0.25 s horizon
steps — the way ``bench/workloads.py::run_sim`` drives the loop — and
records ``len(fabric.completed)`` after every step.  After an
*intentional* change to the timing model, regenerate with::

    PYTHONPATH=src python tests/test_sim_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
import sys
from pathlib import Path

import pytest

from repro.sim import FailureSchedule, SimFabric
from repro.sim.platform import CORI, EC2, K8S, THETA
from repro.workloads.generators import ArrivalEvent, uniform_rate_arrivals

GOLDEN = Path(__file__).resolve().parent / "sim_golden.json"
_RECORD = struct.Struct("<q5dq?")


def _mixed_stream(total: int, rate: float, seed: int) -> list[ArrivalEvent]:
    """Uniform arrivals whose durations differ (waves of one)."""
    rng = random.Random(seed)
    return [ArrivalEvent(time=i / rate, workload="task",
                         duration=rng.choice((0.05, 0.1, 0.1, 0.2, 0.35)), index=i)
            for i in range(total)]


def _weak_cori():
    fab = SimFabric(CORI, managers=16)
    fab.submit_batch(16 * CORI.containers_per_node * 10, duration=1.0)
    return fab


def _strong_theta():
    fab = SimFabric(THETA, managers=32)
    fab.submit_batch(20_000, duration=0.1)
    return fab


def _ec2_result_delay_equals_refill():
    assert EC2.dispatch_latency + EC2.agent_result_overhead == EC2.manager_cycle
    fab = SimFabric(EC2, managers=4)
    fab.submit_batch(6_000, duration=0.01)
    return fab


def _prefetch_advertise_idle():
    fab = SimFabric(THETA, managers=4, prefetch=16)
    fab.submit_batch(6_000, duration=0.05)
    return fab


def _prefetch_only():
    fab = SimFabric(THETA, managers=4, workers_per_manager=64, prefetch=8,
                    advertise_idle=False)
    fab.submit_batch(4_000, duration=0.05)
    return fab


def _no_internal_batching():
    fab = SimFabric(THETA, managers=4, internal_batching=False)
    fab.submit_batch(1_500, duration=0.02)
    return fab


def _memo(prewarmed: bool):
    fab = SimFabric(THETA, managers=2, workers_per_manager=8, prefetch=8,
                    memoize=True, memo_prewarmed=prewarmed)
    keys = [i % 40 for i in range(3_000)]
    fab.submit_batch(3_000, duration=0.05, memo_keys=keys, through_service=True)
    fab.submit_batch(500, duration=0.05, at=3.0, memo_keys=keys[:500],
                     through_service=True)
    return fab


def _two_images():
    fab = SimFabric(THETA, managers=3, workers_per_manager=8, prefetch=4)
    fab.submit_batch(600, duration=0.5, container_key="image-a")
    fab.submit_batch(600, duration=0.25, at=1.0, container_key="image-b")
    fab.submit_batch(300, duration=0.5, at=20.0, container_key="image-a")
    return fab


def _manager_failure_mixed():
    fab = SimFabric(THETA, managers=3, workers_per_manager=4, prefetch=4,
                    heartbeat_period=0.2, heartbeat_grace=3, seed=3)
    fab.submit_stream(_mixed_stream(1_500, rate=90.0, seed=11))
    fab.apply_failures(FailureSchedule(
        manager_failures=((2.0, 4.0, 0), (6.0, 6.5, 1), (6.2, 9.0, 2))))
    return fab


def _endpoint_failure_mixed():
    fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                    heartbeat_period=0.2, heartbeat_grace=3, seed=3)
    fab.submit_stream(_mixed_stream(1_200, rate=60.0, seed=12), through_service=True)
    fab.apply_failures(FailureSchedule(
        endpoint_failures=((2.0, 4.0), (9.0, 9.3)),
        manager_failures=((12.0, 13.0, 1),)))
    return fab


def _k8s_ties():
    fab = SimFabric(K8S, managers=48, prefetch=2)
    fab.submit_batch(4_000, duration=0.02)
    fab.submit_batch(2_000, duration=0.02, at=1.0)
    return fab


def _long_tasks_outlive_a_failure():
    # Equal-duration batch whose first attempts are still "running" (as
    # stale finish events) when the re-executed attempts start.
    fab = SimFabric(THETA, managers=2, workers_per_manager=8, prefetch=8,
                    heartbeat_period=0.5, heartbeat_grace=2)
    fab.submit_batch(200, duration=6.0)
    fab.apply_failures(FailureSchedule(
        manager_failures=((1.0, 2.0, 0),), endpoint_failures=((14.0, 15.0),)))
    return fab


def _uniform_stream_at_capacity():
    fab = SimFabric(THETA, managers=2, workers_per_manager=4, prefetch=4,
                    heartbeat_period=0.2, heartbeat_grace=3, seed=3)
    fab.submit_stream(uniform_rate_arrivals(rate=60, total=600, duration=0.1))
    fab.apply_failures(FailureSchedule(manager_failures=((2.0, 4.0, 0),)))
    return fab


SCENARIOS = {
    "weak_cori_16_nodes": _weak_cori,
    "strong_theta_32_nodes": _strong_theta,
    "ec2_result_delay_equals_refill": _ec2_result_delay_equals_refill,
    "prefetch_advertise_idle": _prefetch_advertise_idle,
    "prefetch_only": _prefetch_only,
    "no_internal_batching": _no_internal_batching,
    "memo_prewarmed": lambda: _memo(True),
    "memo_cold": lambda: _memo(False),
    "two_container_images": _two_images,
    "manager_failure_mixed_durations": _manager_failure_mixed,
    "endpoint_failure_mixed_durations": _endpoint_failure_mixed,
    "k8s_ties": _k8s_ties,
    "long_tasks_outlive_a_failure": _long_tasks_outlive_a_failure,
    "uniform_stream_manager_failure": _uniform_stream_at_capacity,
}
#: Replayed a second time through ``loop.run(until=h)`` in 0.25 s steps.
STEPPED = "weak_cori_16_nodes"


def _digest(fabric: SimFabric) -> str:
    sha = hashlib.sha256()
    for t in fabric.completed:
        sha.update(_RECORD.pack(t.task_id, t.created, t.service_done, t.dispatched,
                                t.started, t.completed, t.attempts, t.memo_hit))
    return sha.hexdigest()


def _record(fabric: SimFabric) -> dict:
    report = fabric.run()
    return {
        "tasks_sha256": _digest(fabric),
        "completion_time": report.completion_time,
        "tasks_completed": report.tasks_completed,
        "reexecutions": report.reexecutions,
        "memo_hits": report.memo_hits,
        "events_processed": report.events_processed,
    }


def _stepped(fabric: SimFabric) -> dict:
    series, horizon = [], 0.0
    while fabric.loop.next_event_time() is not None:
        horizon += 0.25
        fabric.loop.run(until=horizon)
        series.append(len(fabric.completed))
    return {"completed_per_step": series, **_record(fabric)}


def collect() -> dict:
    golden = {name: _record(build()) for name, build in SCENARIOS.items()}
    golden[f"{STEPPED}@0.25s_steps"] = _stepped(SCENARIOS[STEPPED]())
    return golden


@pytest.mark.parametrize("name", SCENARIOS)
def test_schedule_matches_the_parent_generated_digest(name):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert _record(SCENARIOS[name]()) == golden[name]


def test_horizon_stepped_replay_matches_the_parent_generated_series():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    key = f"{STEPPED}@0.25s_steps"
    got = _stepped(SCENARIOS[STEPPED]())
    assert got == golden[key]
    # Stepping the horizon changes nothing about the schedule itself.
    assert got["tasks_sha256"] == golden[STEPPED]["tasks_sha256"]


if __name__ == "__main__" and "--write" in sys.argv:
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
