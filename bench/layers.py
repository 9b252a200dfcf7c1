"""Per-layer numbers a live run yields for free, read from outside.

Two sources, both sampled immediately before and after the measured
interval so the deltas cover exactly the tasks the end-to-end metrics
cover:

* per-thread CPU clocks (``time.pthread_getcpuclockid``) on the fabric's
  named threads, grouped into roles by thread-name prefix;
* the deployment's public ``MetricsRegistry`` plus the public send
  counters on its channels.

Nothing here wraps or patches the program, so it costs the measured run
nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Any

#: Thread-name prefix -> role.  The names are the ones the fabric gives
#: its threads (``forwarder-<ep>``, ``worker-<mgr>/w0`` ...).
ROLE_PREFIXES = (
    ("forwarder-", "forwarder"),
    ("agent-", "agent"),
    ("manager-", "manager"),
    ("worker-", "worker"),
    ("result-stream-", "stream"),
    ("funcx-executor", "executor"),
)
ROLES = ("client", "executor", "forwarder", "agent", "manager", "worker",
         "stream", "other")
#: The count-valued metrics :func:`counters` returns.
COUNTERS = (
    "executor.wave_size_mean", "forwarder.wave_size_mean",
    "forwarder.wave_hold_ms_mean", "forwarder.credit_stalls",
    "agent.dispatch_batch_mean", "manager.result_batch_mean",
    "stream.batch_size_mean", "stream.results_spilled", "stream.redeliveries",
    "stream.credit_stalls", "channel.transfers_per_task",
    "queues.high_watermark", "admission.throttled",
    "service.duplicate_results",
)


def _role_of(name: str) -> str | None:
    for prefix, role in ROLE_PREFIXES:
        if name.startswith(prefix):
            return role
    return None


class Snapshot:
    """Everything read at one edge of the measured interval."""

    def __init__(self, deployment: Any):
        self.process_cpu = time.process_time()
        self.thread_cpu: dict[int, tuple[str, float]] = {}
        for thread in threading.enumerate():
            if thread.ident is None:
                continue
            clock_id = time.pthread_getcpuclockid(thread.ident)
            self.thread_cpu[thread.ident] = (
                thread.name, time.clock_gettime(clock_id))
        self.generator = threading.get_ident()
        self.records = {
            (r["name"], tuple(sorted(r["labels"].items()))): r
            for r in deployment.metrics.snapshot()
        }
        self.sent = sum(
            channel.left.sent_count + channel.right.sent_count
            for channel in deployment.network.channels)


def cpu_split(before: Snapshot, after: Snapshot, tasks: int,
              probes_s: float = 0.0) -> dict[str, float]:
    """``<role>.cpu_us_per_task`` for every role.

    ``probes_s`` is the CPU the generator spent in the benchmark's own
    speed probes; it is taken out of ``client`` and of the process.

    ``other`` is process CPU minus the named roles: threads the fabric
    does not name, threads that exited inside the interval, and clock
    read skew.  It is the check that the split accounts for the process.
    """
    totals = dict.fromkeys(ROLES, 0.0)
    for ident, (name, cpu) in after.thread_cpu.items():
        if ident not in before.thread_cpu:
            continue
        delta = cpu - before.thread_cpu[ident][1]
        role = "client" if ident == after.generator else _role_of(name)
        if role is not None:
            totals[role] += delta
    totals["client"] -= probes_s
    named = sum(totals.values())
    totals["other"] = (after.process_cpu - before.process_cpu
                       - probes_s - named)
    return {f"{role}.cpu_us_per_task": totals[role] / tasks * 1e6
            for role in ROLES}


def _delta(before: Snapshot, after: Snapshot, name: str, field: str,
           **match: str) -> float:
    """Summed growth of ``field`` over every instrument called ``name``
    whose labels include ``match``."""
    total = 0.0
    for key, record in after.records.items():
        if key[0] != name:
            continue
        labels = record["labels"]
        if any(labels.get(k) != v for k, v in match.items()):
            continue
        previous = before.records.get(key, {})
        total += (record.get(field) or 0.0) - (previous.get(field) or 0.0)
    return total


def _mean(before: Snapshot, after: Snapshot, name: str, **match: str) -> float:
    count = _delta(before, after, name, "count", **match)
    return _delta(before, after, name, "sum", **match) / count if count else 0.0


def counters(before: Snapshot, after: Snapshot, tasks: int) -> dict[str, float]:
    """The count-valued per-layer metrics, as deltas over the interval."""
    watermark = max(
        (record["value"] for key, record in after.records.items()
         if key[0] == "queue.high_watermark"), default=0.0)
    return {
        "executor.wave_size_mean": _mean(
            before, after, "executor.submit_batch_size"),
        "forwarder.wave_size_mean": _mean(
            before, after, "dispatch.batch_size", component="forwarder"),
        "forwarder.wave_hold_ms_mean": 1e3 * _mean(
            before, after, "dispatch.wave_hold_seconds"),
        "forwarder.credit_stalls": _delta(
            before, after, "forwarder.credit_stalls", "value"),
        "agent.dispatch_batch_mean": _mean(
            before, after, "dispatch.batch_size", component="agent"),
        "manager.result_batch_mean": _mean(
            before, after, "result.batch_size", component="manager"),
        "stream.batch_size_mean": _mean(before, after, "stream.batch_size"),
        "stream.results_spilled": _delta(
            before, after, "stream.results_spilled", "value"),
        "stream.redeliveries": _delta(
            before, after, "stream.redeliveries", "value"),
        "stream.credit_stalls": _delta(
            before, after, "stream.credit_stalls", "value"),
        "channel.transfers_per_task": (after.sent - before.sent) / tasks,
        "queues.high_watermark": watermark,
        "admission.throttled": _delta(
            before, after, "tenant.throttled", "value"),
        "service.duplicate_results": _delta(
            before, after, "service.duplicate_results", "value"),
    }
