"""The five workloads, each run inside a fresh child process.

Every workload goes through the SDK surface only (``LocalDeployment``,
``client()``, ``create_endpoint``, ``register_function``, ``submit``,
``executor().submit``, futures, ``ServiceConfig(shards=)``,
``EndpointConfig(workers_per_node=)``, ``SimFabric``) with every other
setting at its default and all modelled costs zero.  Load comes from one
generator thread (the child's main thread); completions are recorded in
future callbacks.  Task counts are fixed by ``--seconds`` alone, never by
how fast the commit under test happens to be, so memory and counters are
comparable across commits.
"""

from __future__ import annotations

import collections
import os
import random
import resource
import sys
import threading
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import layers
from stats import Window, median, percentile, steady_windows

perf_counter = time.perf_counter

#: Tasks per second of ``--seconds``, sized so the seed commit, pinned to
#: one CPU, measures for 10-13 s of a 15 s run on the reference box and
#: still finishes when the box runs at half speed.
RATES = {
    "burst_tiny": 3000,
    "serial_rtt": 1500,
    "payload_128k": 200,
    "open_trickle": 300,
    "sim_weak_131k": 87_382,
}
#: ``payload_128k`` keeps ~3.4 copies of each 128 KiB payload alive, so
#: 3,000 tasks already peak near 1 GB: a run is several fresh processes
#: of at most this many tasks (``run.py``'s ``PLAN``), never one long one.
PAYLOAD_CAP = 3_000
PAYLOAD_BYTES = 128 * 1024
SIM_CONTAINERS = 131_072
SIM_TASKS_PER_CONTAINER = 10

#: No single wait may exceed this; a task that takes longer has failed.
WAIT_S = 30.0
#: Submission stops once measuring has taken this many times ``--seconds``
#: (whatever was not submitted counts as failed), so a commit that got
#: slow is reported, not waited for.
OVERRUN = 5.0
#: Throughput windows: whole ``WINDOW_S`` windows after ``SKIP_S`` of
#: ramp-up and before the drain that follows the last submit.
WINDOW_S = 0.25
SKIP_S = 1.0
#: The speed probe: a fixed pure-Python loop the generator thread times
#: (in its own CPU time) at every window edge.  How fast one core of this
#: box runs Python bytecode drifts by a fifth over tens of seconds; the
#: probe drifts with it and is reported as ``gen.cpu_speed``, the box's
#: speed during the run relative to ``PROBE_REFERENCE_S`` (what the loop
#: takes beside the simulator on the reference box in its usual state).
PROBE_LOOPS = 6_000
PROBE_REFERENCE_S = 1.1e-3


def task_count(name: str, seconds: float) -> int:
    count = max(1, round(RATES[name] * seconds))
    if name == "payload_128k":
        count = min(count, PAYLOAD_CAP)
    if name == "sim_weak_131k":
        count = min(count, SIM_CONTAINERS * SIM_TASKS_PER_CONTAINER)
    return count


# -- functions the workers execute (self-contained: shipped as source) ------
def identity(x):
    return x


def echo(blob):
    return blob


def nap(x):
    import time

    time.sleep(0.005)
    return x


# -- recording ---------------------------------------------------------------
def cpu_probe() -> float:
    """CPU seconds the calling thread needs for ``PROBE_LOOPS`` rounds of
    arithmetic, allocation and dictionary traffic."""
    started = time.thread_time()
    table: dict[int, tuple[int, str]] = {}
    total = 0
    for i in range(PROBE_LOOPS):
        table[i & 255] = (i, str(i))
        total += i * i % 7 + len(table)
    return time.thread_time() - started


@dataclass
class Run:
    """Raw observations of one measured interval."""

    count: int
    started: float = 0.0
    last_submit: float = 0.0
    finished: float = 0.0
    #: Latency origin per task: the submit time, or the due time in an
    #: open loop.
    origin: list[float] = field(init=False)
    done: list[float] = field(init=False)
    ok: list[bool] = field(init=False)
    lag: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    #: ``(wall, process CPU, probe CPU)`` read by the generator every
    #: ``WINDOW_S``: the window edges the steady-state medians are taken
    #: over, each followed by one speed probe.
    edges: list[tuple[float, float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.origin = [0.0] * self.count
        self.done = [0.0] * self.count
        self.ok = [False] * self.count

    def tick(self, now: float) -> None:
        if not self.edges or now - self.edges[-1][0] >= WINDOW_S:
            self.edges.append((now, time.process_time(), cpu_probe()))

    def callback(self, index: int, check: Callable[[int, Any], bool],
                 release: Callable[[], None] | None = None):
        """A done-callback recording task ``index``.

        The slot is released in ``finally``: an exception in a
        done-callback would otherwise stall a closed loop forever.
        """
        def on_done(future: Any) -> None:
            try:
                self.done[index] = perf_counter()
                self.ok[index] = bool(check(index, future.result(0)))
            except Exception as exc:  # a failed task, counted below
                self.errors.append(f"task {index}: {exc!r}")
            finally:
                if release is not None:
                    release()
        return on_done


def closed_loop(submit: Callable[[int], Any], check: Callable[[int, Any], bool],
                count: int, window: int, budget_s: float) -> Run:
    """Keep ``window`` tasks outstanding until ``count`` were submitted."""
    run = Run(count)
    slots = threading.Semaphore(window)
    freed: collections.deque[float] = collections.deque()

    def release() -> None:
        freed.append(perf_counter())
        slots.release()

    run.started = perf_counter()
    for index in range(count):
        if not slots.acquire(timeout=WAIT_S):
            run.errors.append(f"no slot freed within {WAIT_S}s at task {index}")
            break
        now = perf_counter()
        if now - run.started > budget_s:
            run.errors.append(f"over budget at task {index} of {count}")
            slots.release()
            break
        run.tick(now)
        if freed:
            # How long a freed slot sat unused: the closed-loop analogue
            # of an open loop's generator lag.
            run.lag.append(now - freed.popleft())
        run.origin[index] = now
        try:
            future = submit(index)
            future.add_done_callback(run.callback(index, check, release))
        except Exception as exc:
            run.errors.append(f"submit {index}: {exc!r}")
            release()
    run.last_submit = perf_counter()
    deadline = run.last_submit + WAIT_S
    for _ in range(window):
        if not slots.acquire(timeout=max(0.0, deadline - perf_counter())):
            run.errors.append("drain timed out")
            break
    run.finished = perf_counter()
    return run


def serial_loop(call: Callable[[int], Any], check: Callable[[int, Any], bool],
                count: int, budget_s: float) -> Run:
    """One outstanding task: submit, block for the result, repeat."""
    run = Run(count)
    run.started = previous_done = perf_counter()
    for index in range(count):
        now = perf_counter()
        if now - run.started > budget_s:
            run.errors.append(f"over budget at task {index} of {count}")
            break
        run.tick(now)
        run.lag.append(now - previous_done)
        run.origin[index] = now
        try:
            value = call(index).result(WAIT_S)
            previous_done = run.done[index] = perf_counter()
            run.ok[index] = bool(check(index, value))
        except Exception as exc:
            previous_done = perf_counter()
            run.errors.append(f"task {index}: {exc!r}")
    run.last_submit = run.finished = perf_counter()
    return run


def open_loop(submit: Callable[[int], Any], check: Callable[[int, Any], bool],
              due: list[float]) -> Run:
    """Submit task ``i`` at ``due[i]`` seconds whatever the backlog."""
    run = Run(len(due))
    futures = []
    run.started = perf_counter()
    for index, offset in enumerate(due):
        target = run.started + offset
        now = perf_counter()
        while now < target:
            time.sleep(target - now)
            now = perf_counter()
        run.tick(now)
        run.lag.append(now - target)
        run.origin[index] = target
        try:
            future = submit(index)
            future.add_done_callback(run.callback(index, check))
            futures.append(future)
        except Exception as exc:
            run.errors.append(f"submit {index}: {exc!r}")
    run.last_submit = perf_counter()
    deadline = run.last_submit + WAIT_S
    for future in futures:
        if not future.wait(max(0.0, deadline - perf_counter())):
            run.errors.append("drain timed out")
            break
    run.finished = max([run.last_submit] + run.done)
    return run


def _lower_decile(values: list[float]) -> float:
    return percentile(sorted(values), 10.0)


def steady_metrics(series: list[Window], rate: float, cost: float,
                   latencies: list[float], live: bool,
                   scheduled: bool = False) -> dict[str, float]:
    """The four time-based end-to-end metrics from the steady windows,
    plus ``gen.cpu_speed``, the box's speed relative to the reference.

    ``live``: each metric is the **lower decile** over the windows of the
    window's cost (seconds and CPU seconds per task, p50, p95): what the
    fabric costs in the tenth of the run the host disturbed least.  The
    host takes the virtual CPUs away in slices of a few milliseconds, for
    spells of seconds to minutes, unannounced (no steal time shows); the
    process is pinned to one CPU (``_pin_to_one_cpu``), so that is the
    only disturbance left and it only ever adds.  Medians over the windows
    moved up to twofold between runs of the same code, the lower deciles
    by a sixth.  ``scheduled`` (the open loop): ``tasks_per_s`` is
    ``rate``, completions over the whole run; the schedule sets it.

    Otherwise (the simulator): the median over the windows, brought to
    the reference CPU speed by the median speed probe.  Like the probe
    the simulator is one thread of pure Python, and scaling cut its
    spread from 8.5 % to 3.6 %; the live fabric's cost does not follow the
    probe (scaling made it noisier).

    With fewer than three windows (``--quick``) the whole run stands in,
    unscaled: ``rate`` tasks/s, ``cost`` CPU s/task and the sorted
    ``latencies``.
    """
    if len(series) < 3:
        return {
            "tasks_per_s": rate,
            "latency_p50_ms": 1e3 * percentile(latencies, 50.0),
            "latency_p95_ms": 1e3 * percentile(latencies, 95.0),
            "cpu_us_per_task": 1e6 * cost,
            "gen.cpu_speed": 1.0,
        }
    speed = PROBE_REFERENCE_S / median([w[5] for w in series])
    pick, scale = (_lower_decile, 1.0) if live else (median, speed)
    return {
        "tasks_per_s": (rate if scheduled else
                        1.0 / (pick([w[0] / w[1] for w in series]) * scale)),
        "latency_p50_ms": 1e3 * pick([w[3] for w in series]) * scale,
        "latency_p95_ms": 1e3 * pick([w[4] for w in series]) * scale,
        "cpu_us_per_task": 1e6 * pick([w[2] / w[1] for w in series]) * scale,
        "gen.cpu_speed": speed,
    }


# -- live workloads ----------------------------------------------------------
@dataclass
class Live:
    """A deployed, warmed-up live workload ready to be measured."""

    deployment: Any
    measure: Callable[[float], Run]
    close: Callable[[], None]
    open_loop: bool = False


def _warm_up(future: Any, expected: Any) -> None:
    value = future.result(WAIT_S)
    if value != expected:
        raise RuntimeError(f"warm-up returned {value!r}, not {expected!r}")


def _single_endpoint(function: Callable[..., Any]):
    from repro.endpoint.config import EndpointConfig
    from repro.fabric import LocalDeployment

    deployment = LocalDeployment()
    client = deployment.client()
    endpoint = deployment.create_endpoint(
        "bench", nodes=1, config=EndpointConfig(workers_per_node=4))
    return deployment, client, endpoint, client.register_function(function)


def burst_tiny(rng: random.Random, count: int) -> Live:
    values = [rng.randrange(1 << 31) for _ in range(count)]
    deployment, client, endpoint, function_id = _single_endpoint(identity)
    executor = client.executor(endpoint)
    _warm_up(executor.submit(function_id, 7), 7)

    def close() -> None:
        executor.shutdown(wait=False)
        deployment.shutdown()

    return Live(deployment, lambda budget_s: closed_loop(
        lambda i: executor.submit(function_id, values[i]),
        lambda i, value: value == values[i], count, 256, budget_s), close)


def serial_rtt(rng: random.Random, count: int) -> Live:
    values = [rng.randrange(1 << 31) for _ in range(count)]
    deployment, client, endpoint, function_id = _single_endpoint(identity)
    _warm_up(client.submit(function_id, endpoint, 7), 7)
    return Live(deployment, lambda budget_s: serial_loop(
        lambda i: client.submit(function_id, endpoint, values[i]),
        lambda i, value: value == values[i], count, budget_s),
        deployment.shutdown)


def payload_128k(rng: random.Random, count: int) -> Live:
    # 128 KiB: above the stream's 64 KiB spill threshold, under the
    # service's 512 KiB payload limit.
    blobs = [rng.randbytes(PAYLOAD_BYTES) for _ in range(32)]
    crcs = [zlib.crc32(blob) for blob in blobs]
    picks = [rng.randrange(len(blobs)) for _ in range(count)]
    deployment, client, endpoint, function_id = _single_endpoint(echo)
    executor = client.executor(endpoint)
    _warm_up(executor.submit(function_id, blobs[0]), blobs[0])

    def check(index: int, value: Any) -> bool:
        return (len(value) == PAYLOAD_BYTES
                and zlib.crc32(value) == crcs[picks[index]])

    def close() -> None:
        executor.shutdown(wait=False)
        deployment.shutdown()

    return Live(deployment, lambda budget_s: closed_loop(
        lambda i: executor.submit(function_id, blobs[picks[i]]),
        check, count, 8, budget_s), close)


def open_trickle(rng: random.Random, count: int) -> Live:
    from repro.core.admission import TenantPolicy
    from repro.core.service import ServiceConfig
    from repro.endpoint.config import EndpointConfig
    from repro.fabric import LocalDeployment

    duration = count / RATES["open_trickle"]
    # A Poisson process conditioned on its count: uniform order statistics.
    due = sorted(rng.uniform(0.0, duration) for _ in range(count))
    values = [rng.randrange(1 << 31) for _ in range(count)]
    lanes = [rng.randrange(4) for _ in range(count)]

    deployment = LocalDeployment(service_config=ServiceConfig(shards=2))
    service = deployment.service
    # Two endpoints on different shards: endpoint ids are random, so
    # create unstarted candidates until both shards are covered.
    by_shard: dict[int, str] = {}
    for attempt in range(64):
        endpoint = deployment.create_endpoint(
            f"bench-{attempt}", nodes=1,
            config=EndpointConfig(workers_per_node=4), start=False)
        by_shard.setdefault(service.shard_map.shard_for_endpoint(endpoint),
                            endpoint)
        if len(by_shard) == 2:
            break
    else:
        raise RuntimeError("could not place endpoints on both shards")
    endpoints = [by_shard[0], by_shard[1]]
    for endpoint in endpoints:
        deployment.forwarder(endpoint).start()
        deployment.endpoint(endpoint).start()
        if not deployment.endpoint(endpoint).wait_ready():
            raise RuntimeError(f"endpoint {endpoint} never became ready")

    executors, function_ids = [], []
    for tenant in ("tenant-a", "tenant-b"):
        client = deployment.client(tenant)
        # Finite, so admission does its token-bucket and quota arithmetic,
        # but far above the offered load, so nothing is ever throttled.
        service.admission.set_policy(
            client.identity.identity_id,
            TenantPolicy(rate=100_000.0, burst=100_000.0,
                         max_outstanding=100_000))
        function_id = client.register_function(nap)
        for endpoint in endpoints:
            executors.append(client.executor(endpoint))
            function_ids.append(function_id)
    for executor, function_id in zip(executors, function_ids):
        _warm_up(executor.submit(function_id, 7), 7)

    def close() -> None:
        for executor in executors:
            executor.shutdown(wait=False)
        deployment.shutdown()

    return Live(deployment, lambda _budget_s: open_loop(
        lambda i: executors[lanes[i]].submit(function_ids[lanes[i]], values[i]),
        lambda i, value: value == values[i], due), close, open_loop=True)


LIVE = {
    "burst_tiny": burst_tiny,
    "serial_rtt": serial_rtt,
    "payload_128k": payload_128k,
    "open_trickle": open_trickle,
}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _pin_to_one_cpu() -> None:
    """Keep this process, and every thread it starts from here on, on one
    CPU: the highest-numbered one it may use (device interrupts land on
    CPU 0).

    The fabric's threads take turns under the interpreter lock, so a
    second CPU adds no capacity, only what a hand-off between two virtual
    CPUs costs: an interrupt into a halted one.  On this box that doubles
    the cost of a task (``burst_tiny`` 585 us of CPU unpinned, 240 pinned;
    ``serial_rtt`` p50 0.98 ms against 0.42) and, worse for a benchmark,
    where the kernel puts the threads is a toss-up that lasts a whole run:
    left alone it stacks ``open_trickle``'s two dozen sleepers on one core
    (1,000 us per task), with any other process running now and then it
    spreads them over both (3.3 migrations per task, 1,500 us), while the
    same process makes ``serial_rtt`` a quarter *faster* by keeping a core
    awake.  Pinned, placement is the same in every run.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_live(name: str, rng: random.Random, seconds: float, spawned_at: float,
             setup_only: bool) -> dict[str, Any]:
    count = task_count(name, seconds)
    _pin_to_one_cpu()
    live = LIVE[name](rng, count)
    setup_s = time.time() - spawned_at
    if setup_only:
        live.close()
        return {"end_to_end": {"setup_s": setup_s}}
    try:
        before = layers.Snapshot(live.deployment)
        run = live.measure(OVERRUN * seconds)
        after = layers.Snapshot(live.deployment)
    finally:
        live.close()

    good = [i for i in range(count) if run.ok[i]]
    failed = count - len(good)
    result: dict[str, Any] = {
        "workload": name, "attempted": count, "failed": failed,
        "correct": failed == 0, "valid": True, "notes": run.errors[:5],
        "samples": len(good), "end_to_end": {"setup_s": setup_s},
        "per_layer": {}, "diagnostics": {},
    }
    if not good:
        return result
    samples = sorted((run.done[i], run.done[i] - run.origin[i], 1) for i in good)
    elapsed = run.finished - run.started
    probes_s = sum(edge[2] for edge in run.edges)
    cpu_s = after.process_cpu - before.process_cpu - probes_s
    series = steady_windows(run.edges, samples,
                            run.started + SKIP_S, run.last_submit)
    latencies = sorted(sample[1] for sample in samples)
    steady = steady_metrics(series, len(good) / elapsed, cpu_s / count,
                            latencies, live=True, scheduled=live.open_loop)
    speed = steady.pop("gen.cpu_speed")
    result["end_to_end"].update(steady, peak_rss_mb=_peak_rss_mb())
    per_layer = layers.cpu_split(before, after, count, probes_s)
    per_layer.update(layers.counters(before, after, count))
    lag = sorted(run.lag) or [0.0]
    per_layer["client.latency_p99_ms"] = 1e3 * percentile(latencies, 99.0)
    per_layer["gen.lag_p99_ms"] = 1e3 * percentile(lag, 99.0)
    per_layer["gen.cpu_speed"] = speed
    result["per_layer"] = per_layer
    result["diagnostics"] = {
        "measured_s": elapsed,
        "mean_tasks_per_s": len(good) / elapsed,
        "mean_cpu_us_per_task": 1e6 * cpu_s / count,
        "windows": series,
    }
    # One switch interval is the interpreter handing the lock over; a
    # generator that waits longer is being starved, and the run measured
    # the scheduler, not the fabric.
    max_lag_ms = 1e3 * sys.getswitchinterval()
    if live.open_loop and per_layer["gen.lag_p99_ms"] > max_lag_ms:
        result["valid"] = False
        result["notes"].append(
            f"generator lag p99 {per_layer['gen.lag_p99_ms']:.2f} ms exceeds "
            f"{max_lag_ms:.0f} ms: this run measured the scheduler")
    return result


# -- the simulator -----------------------------------------------------------
def run_sim(seed: int, seconds: float, spawned_at: float,
            setup_only: bool) -> dict[str, Any]:
    """Weak scaling at 131,072 containers (paper Fig. 5b).

    The DES takes no random input (``seed`` is passed through, the model
    draws nothing from it), so every run does the same work.
    ``loop.run(until=t)`` advances one simulated second per call; the
    wall time of each call is this workload's latency sample (what a user
    waits for per simulated second).
    """
    from repro.sim import SimFabric
    from repro.sim.platform import CORI

    count = task_count("sim_weak_131k", seconds)
    fabric = SimFabric(CORI, managers=CORI.nodes_for(SIM_CONTAINERS), seed=seed)
    fabric.submit_batch(count, duration=1.0)
    setup_s = time.time() - spawned_at
    if setup_only:
        return {"end_to_end": {"setup_s": setup_s}}

    cpu_before = time.process_time()
    main_before = time.thread_time()
    started = last = perf_counter()
    budget_s = OVERRUN * seconds
    edges, samples = [(started, cpu_before, cpu_probe())], []
    horizon, completed = 0.0, 0
    while fabric.loop.next_event_time() is not None:
        if last - started > budget_s:
            break  # never stall: whatever is unfinished counts as failed
        horizon += 1.0
        # The loop, not fabric.run(): the latter builds a full report
        # (arrays over every completed task) on every call.
        fabric.loop.run(until=horizon)
        now = perf_counter()
        samples.append((now, now - last, len(fabric.completed) - completed))
        completed = len(fabric.completed)
        last = now
        if now - edges[-1][0] >= WINDOW_S:
            edges.append((now, time.process_time(), cpu_probe()))
    report = fabric.run()
    finished = perf_counter()
    probes_s = sum(edge[2] for edge in edges)
    cpu_s = time.process_time() - cpu_before - probes_s
    main_cpu_s = time.thread_time() - main_before - probes_s

    # Correct means: every task completed exactly once, none faster than
    # its own duration, and the makespan sits where the agent's serialized
    # dispatch ceiling puts it (count / ceiling, plus the last task's run).
    floor = count * CORI.agent_dispatch_overhead
    notes = []
    if len({task.task_id for task in fabric.completed}) != report.tasks_completed:
        notes.append("a task completed twice")
    if report.latencies.size and float(report.latencies.min()) < 1.0:
        notes.append("a task finished faster than its duration")
    if not floor <= report.completion_time <= floor + 5.0:
        notes.append(f"completion time {report.completion_time:.3f} s is "
                     f"outside [{floor:.3f}, {floor + 5.0:.3f}]")
    # A wrong schedule taints every task; otherwise only the missing fail.
    failed = count if notes else count - min(count, report.tasks_completed)
    if report.tasks_completed != count:
        notes.append(f"{report.tasks_completed} of {count} tasks completed")
    series = steady_windows(edges, samples, started + SKIP_S, finished)
    elapsed = finished - started
    ordered = sorted(sample[1] for sample in samples)
    per_layer = dict.fromkeys(
        (f"{role}.cpu_us_per_task" for role in layers.ROLES), 0.0)
    # The DES is one thread: the generator *is* the program.
    per_layer["client.cpu_us_per_task"] = 1e6 * main_cpu_s / count
    per_layer["other.cpu_us_per_task"] = 1e6 * (cpu_s - main_cpu_s) / count
    per_layer.update(dict.fromkeys(layers.COUNTERS, 0.0))
    steady = steady_metrics(series, report.tasks_completed / elapsed,
                            cpu_s / count, ordered, live=False)
    per_layer["client.latency_p99_ms"] = 1e3 * percentile(ordered, 99.0)
    per_layer["gen.lag_p99_ms"] = 0.0
    per_layer["gen.cpu_speed"] = steady.pop("gen.cpu_speed")
    return {
        "workload": "sim_weak_131k", "attempted": count, "failed": failed,
        "correct": not notes, "valid": True, "notes": notes,
        "samples": len(samples),
        "end_to_end": {
            "setup_s": setup_s, **steady, "peak_rss_mb": _peak_rss_mb(),
        },
        "per_layer": per_layer,
        "diagnostics": {
            "measured_s": elapsed,
            "mean_tasks_per_s": report.tasks_completed / elapsed,
            "mean_cpu_us_per_task": 1e6 * cpu_s / count,
            "sim_completion_time_s": report.completion_time,
            "sim_events_processed": report.events_processed,
            "sim_events_per_s": report.events_processed / elapsed,
            "windows": series,
        },
    }


def run_workload(name: str, seed: int, part: int, seconds: float,
                 spawned_at: float, setup_only: bool = False) -> dict[str, Any]:
    if name == "sim_weak_131k":
        return run_sim(seed, seconds, spawned_at, setup_only)
    # A string seed is hashed stably (SHA-512), unlike ``hash()``.
    rng = random.Random(f"{name}:{seed}:{part}")
    return run_live(name, rng, seconds, spawned_at, setup_only)
