"""End-to-end performance measurement for the dispatch fabric.

Drives a full :class:`~repro.fabric.LocalDeployment` (service → forwarder
→ agent → manager → worker) under an injected channel-latency model and
measures throughput (tasks/s over a submission wave) and round-trip
latency percentiles for sequential single tasks.

The interesting knob is ``transfer_cost``: each transfer occupies the
receiving link serially, so N individual sends would pay N × cost while
the fabric's one coalesced batch pays it once.  The per-message,
sleep-polling fabric this one replaced is kept only as the recorded
:data:`PER_MESSAGE_BASELINE` row.  Used by
``benchmarks/bench_e2e_throughput.py`` (which gates the ≥2x speedup over
that row) and the ``repro bench`` CLI subcommand.
"""

from __future__ import annotations

import time

from repro.endpoint.config import EndpointConfig
from repro.errors import TaskPending
from repro.fabric import DeploymentTimings, LocalDeployment

#: The last measurement of the per-message fabric (one transfer per
#: task/result, bodies inline, 2 ms sleep-polling loops) before it was
#: deleted: 128 tasks, 4 workers, 1 ms one-way latency, 1 ms transfer
#: cost.  Both numbers are set by the modelled transfer cost and the
#: poll quantum rather than by the host, so they carry across machines.
PER_MESSAGE_BASELINE = {
    "commit": "2ffdbd3",
    "tasks_per_second": 893.37,
    "p50_s": 0.010736,
    "p99_s": 0.012982,
}


def _identity(x):
    return x


def _sleep_for(seconds):
    import time as _time

    _time.sleep(seconds)
    return seconds


def _config(workers: int) -> EndpointConfig:
    return EndpointConfig(workers_per_node=workers, heartbeat_period=0.2)


def _timings(latency: float, transfer_cost: float) -> DeploymentTimings:
    return DeploymentTimings(
        service_endpoint_latency=latency,
        service_endpoint_transfer_cost=transfer_cost,
    )


def _percentile(sorted_values: list[float], q: float) -> float:
    idx = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[idx]


def measure_throughput(
    *,
    tasks: int = 128,
    latency: float = 0.001,
    transfer_cost: float = 0.0005,
    workers: int = 4,
) -> float:
    """Seconds from submit to last result for one wave of trivial calls."""
    with LocalDeployment(timings=_timings(latency, transfer_cost)) as deployment:
        client = deployment.client()
        ep = deployment.create_endpoint(
            "perf", nodes=1, config=_config(workers))
        fid = client.register_function(_identity, public=True)
        # Warm-up: ships the function body and spins up the worker pool
        # so the measured wave sees a steady-state fabric.
        client.submit(fid, ep, -1).result(timeout=30)
        start = time.perf_counter()
        futures = [client.submit(fid, ep, i) for i in range(tasks)]
        for future in futures:
            future.result(timeout=120)
        return time.perf_counter() - start


def measure_latency(
    *,
    samples: int = 30,
    latency: float = 0.001,
    transfer_cost: float = 0.0,
    workers: int = 2,
) -> dict:
    """Round-trip percentiles for sequential single-task submissions."""
    with LocalDeployment(timings=_timings(latency, transfer_cost)) as deployment:
        client = deployment.client()
        ep = deployment.create_endpoint(
            "perf", nodes=1, config=_config(workers))
        fid = client.register_function(_identity, public=True)
        client.submit(fid, ep, -1).result(timeout=30)  # warm-up
        durations: list[float] = []
        for i in range(samples):
            start = time.perf_counter()
            client.submit(fid, ep, i).result(timeout=30)
            durations.append(time.perf_counter() - start)
    durations.sort()
    return {
        "samples": samples,
        "p50_s": _percentile(durations, 0.50),
        "p99_s": _percentile(durations, 0.99),
        "mean_s": sum(durations) / len(durations),
    }


def measure_backpressure(
    *,
    tasks: int = 120,
    workers: int = 2,
    prefetch: int = 2,
    task_duration: float = 0.02,
    latency: float = 0.0,
    transfer_cost: float = 0.0,
    sample_interval: float = 0.002,
) -> dict:
    """Sustained overload against a credited endpoint; returns a dict.

    Submits a burst of ``tasks`` sleeper calls against a single node
    whose credit window is ``workers + prefetch`` for the manager plus
    the agent's two-node-window pipeline buffer — with the defaults, a
    120-task burst against a window of 12, a 10:1 offered/consumable
    mismatch.  While the burst drains, the forwarder's open-lease
    population is sampled every ``sample_interval`` seconds.

    The returned dict carries everything the no-unbounded-memory gate
    needs: the credit window, the sampled in-flight peak (bounded by the
    window), per-half peaks (the plateau check — in-flight must not grow
    between the first and second half of the run), the service queue's
    high watermark (where the mismatch went instead), the zero-credit
    stall count, and sustained tasks/s.
    """
    # Manager window plus the agent's pipeline buffer of
    # ``pipeline_depth`` (default 2) further node windows.
    window = 3 * (workers + prefetch)
    config = EndpointConfig(
        workers_per_node=workers,
        prefetch_capacity=prefetch,
        heartbeat_period=0.05,
    )
    with LocalDeployment(timings=_timings(latency, transfer_cost)) as deployment:
        client = deployment.client()
        ep = deployment.create_endpoint("overload", nodes=1, config=config)
        forwarder = deployment.forwarder(ep)
        queue = deployment.service.task_queue(ep)
        fid = client.register_function(_sleep_for, public=True)
        client.submit(fid, ep, 0.0).result(timeout=30)  # warm-up
        deadline = time.monotonic() + 10.0
        while forwarder.credit_window != window:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"credit window never reached {window} "
                    f"(at {forwarder.credit_window})")
            time.sleep(0.002)

        start = time.perf_counter()
        futures = [client.submit(fid, ep, task_duration) for _ in range(tasks)]
        in_flight: list[int] = []
        while not all(f.done() for f in futures):
            in_flight.append(forwarder.outstanding)
            time.sleep(sample_interval)
        for future in futures:
            future.result(timeout=60)
        elapsed = time.perf_counter() - start

        half = max(1, len(in_flight) // 2)
        first_half, second_half = in_flight[:half], in_flight[half:]
        return {
            "params": {
                "tasks": tasks,
                "workers": workers,
                "prefetch": prefetch,
                "task_duration_s": task_duration,
                "channel_latency_s": latency,
                "transfer_cost_s": transfer_cost,
                "sample_interval_s": sample_interval,
            },
            "window": window,
            "mismatch": tasks / window,
            "seconds": elapsed,
            "tasks_per_second": tasks / elapsed if elapsed > 0 else 0.0,
            "ideal_tasks_per_second": workers / task_duration,
            "in_flight_samples": len(in_flight),
            "peak_in_flight": max(in_flight, default=0),
            "first_half_peak": max(first_half, default=0),
            "second_half_peak": max(second_half, default=0),
            "mean_in_flight": (sum(in_flight) / len(in_flight)
                               if in_flight else 0.0),
            "queue_high_watermark": queue.high_watermark,
            "credit_stalls": forwarder.credit_stalls,
        }


def measure_result_stream(
    *,
    tasks: int = 64,
    samples: int = 30,
    latency: float = 0.001,
    poll_interval: float = 0.01,
    workers: int = 4,
) -> dict:
    """Push-based result delivery vs the polling client, as a dict.

    Two result paths over the same 1 ms-latency fabric:

    * **push** — a :class:`~repro.core.executor.FuncXExecutor`:
      submissions coalesce into ``submit_batch`` waves and futures
      resolve from the service's result subscription stream the moment
      a batch is pushed.
    * **poll** — the paper-era REST client: submit, then loop
      ``get_result(timeout=0)`` / ``sleep(poll_interval)``.  Observed
      latency is quantized up to the next poll tick, so its floor is
      the poll interval itself.

    The latency comparison is sequential single tasks (p50/p99);
    throughput is one ``tasks``-wave through the executor, with the
    stream's delivery-batch stats reported alongside.
    """
    with LocalDeployment(timings=_timings(latency, 0.0)) as deployment:
        client = deployment.client()
        ep = deployment.create_endpoint(
            "stream", nodes=1, config=_config(workers))
        fid = client.register_function(_identity, public=True)

        # --- push mode: executor + subscription stream -----------------
        with client.executor(ep, batch_interval=0.0) as executor:
            executor.submit(fid, -1).result(timeout=30)  # warm-up
            push_durations: list[float] = []
            for i in range(samples):
                start = time.perf_counter()
                executor.submit(fid, i).result(timeout=30)
                push_durations.append(time.perf_counter() - start)
            wave_start = time.perf_counter()
            futures = [executor.submit(fid, i) for i in range(tasks)]
            for future in futures:
                future.result(timeout=120)
            wave_elapsed = time.perf_counter() - wave_start

        # --- poll mode: the paper-era polling client -------------------
        poll_durations: list[float] = []
        for i in range(samples):
            start = time.perf_counter()
            task_id = client.run(fid, ep, i)
            while True:
                try:
                    client.get_result(task_id, timeout=0.0)
                    break
                except TaskPending:
                    time.sleep(poll_interval)
            poll_durations.append(time.perf_counter() - start)

        batch_stats = deployment.metrics.histogram(
            "stream.batch_size").summary()
        delivered = deployment.metrics.counter(
            "stream.results_delivered").value
        batches = deployment.metrics.counter(
            "stream.batches_delivered").value

    push_durations.sort()
    poll_durations.sort()
    return {
        "params": {
            "tasks": tasks,
            "samples": samples,
            "channel_latency_s": latency,
            "poll_interval_s": poll_interval,
            "workers": workers,
        },
        "push": {
            "p50_s": _percentile(push_durations, 0.50),
            "p99_s": _percentile(push_durations, 0.99),
            "mean_s": sum(push_durations) / len(push_durations),
        },
        "poll": {
            "p50_s": _percentile(poll_durations, 0.50),
            "p99_s": _percentile(poll_durations, 0.99),
            "mean_s": sum(poll_durations) / len(poll_durations),
        },
        "throughput": {
            "tasks": tasks,
            "seconds": wave_elapsed,
            "tasks_per_second": tasks / wave_elapsed if wave_elapsed > 0 else 0.0,
        },
        "stream": {
            "results_delivered": int(delivered),
            "batches_delivered": int(batches),
            "mean_batch_size": batch_stats.get("mean", 0.0),
            "max_batch_size": batch_stats.get("max", 0.0),
        },
        "p50_speedup": (
            _percentile(poll_durations, 0.50) /
            max(_percentile(push_durations, 0.50), 1e-9)),
    }


def _register_bench_endpoint(service, name: str) -> str:
    _identity, token = service.auth.endpoint_client_flow(name)
    return service.register_endpoint(token.token, name=name)


def _cover_shards(service, token) -> list[str]:
    """Register endpoints until every shard owns one; returns one per shard.

    Endpoint ids are random UUIDs, so consistent-hash placement cannot be
    chosen — we roll until the ring has covered every shard (64 vnodes
    per shard make the expected roll count small).
    """
    n = len(service.shards)
    chosen: dict[int, str] = {}
    attempt = 0
    while len(chosen) < n:
        attempt += 1
        if attempt > 128 * n:
            raise RuntimeError(f"could not cover {n} shards with endpoints")
        ep = _register_bench_endpoint(service, f"shard-ep-{attempt}")
        chosen.setdefault(service.shard_map.shard_for_endpoint(ep), ep)
    return [chosen[i] for i in range(n)]


def _drive_shard(service, token, function_id, endpoint_id, count, wave) -> None:
    """One shard's synthetic lifecycle driver: submit → lease → complete.

    Plays both the tenant and the shard's forwarder: each wave is
    submitted through the authenticated facade, leased back off the
    endpoint's queue, marked dispatched, completed, and acked.  Every
    store write charges the owning shard's pacer *in this thread*, so N
    drivers against N shards overlap their modeled store occupancy —
    the parallelism the benchmark measures.
    """
    queue = service.task_queue(endpoint_id)
    done = 0
    while done < count:
        n = min(wave, count - done)
        service.submit_batch(
            token, [(function_id, endpoint_id, b"p")] * n)
        drained = 0
        while drained < n:
            for lease in queue.lease_many(n - drained):
                service.mark_dispatched(lease.item)
                service.complete_task(lease.item, success=True,
                                      result_buffer=b"r")
                queue.ack(lease.lease_id)
                drained += 1
        done += n


def measure_shard_scale(
    *,
    shard_counts: tuple[int, ...] = (1, 2, 4),
    tasks: int = 384,
    op_cost: float = 0.001,
    wave: int = 32,
    fairness_rounds: int = 60,
    fairness_mix: int = 10,
    fairness_window: int = 12,
) -> dict:
    """Aggregate tasks/s of the sharded service plane, 1 → N shards.

    **Scaling half.**  For each shard count a fresh service is built with
    ``shard_op_cost=op_cost`` — every task pays two modeled store writes
    (insert + completion) on its shard's serial pacer, the per-partition
    backing-store occupancy that bounds a real service plane.  One driver
    thread per shard runs the full task lifecycle against an endpoint on
    that shard; the *same fixed total* of ``tasks`` is split across the
    drivers, so aggregate tasks/s rises with the shard count only if the
    partitions genuinely proceed in parallel (pacer sleeps release the
    GIL; shard locks are disjoint).

    **Fairness half.**  A single-shard service with two tenants on one
    endpoint: *aggressive* submits ``fairness_mix`` tasks for every one
    *polite* submits.  The queue's DRR dequeue is then drained serially
    and the lane of each dequeue recorded; over windows of
    ``fairness_window`` dequeues (taken while both lanes stay
    backlogged) the normalized inter-tenant throughput gap
    ``|agg − polite| / window`` must stay bounded — equal-weight DRR
    alternates lanes, so a 10:1 offered-load mismatch must not become a
    10:1 service share.
    """
    import threading

    from repro.auth import AuthService
    from repro.core.service import FuncXService, ServiceConfig

    def _build(shards: int, cost: float) -> tuple:
        service = FuncXService(
            auth=AuthService(),
            config=ServiceConfig(shards=shards, shard_op_cost=cost,
                                 tracing=False),
        )
        identity = service.auth.register_identity("bench-tenant")
        token = service.auth.native_client_flow(identity).token
        fid = service.register_function(token, "noop", b"\x00bench-noop",
                                        public=True)
        return service, token, fid

    # --- scaling half ---------------------------------------------------
    runs: list[dict] = []
    for shards in shard_counts:
        service, token, fid = _build(shards, op_cost)
        endpoints = _cover_shards(service, token)
        share, extra = divmod(tasks, shards)
        counts = [share + (1 if i < extra else 0) for i in range(shards)]
        start_gate = threading.Event()

        def _run(ep: str, count: int) -> None:
            start_gate.wait()
            _drive_shard(service, token, fid, ep, count, wave)

        threads = [
            threading.Thread(target=_run, args=(ep, count),
                             name=f"shard-driver-{i}", daemon=True)
            for i, (ep, count) in enumerate(zip(endpoints, counts))
        ]
        for thread in threads:
            thread.start()
        begin = time.perf_counter()
        start_gate.set()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - begin
        service.close()
        runs.append({
            "shards": shards,
            "tasks": tasks,
            "seconds": elapsed,
            "tasks_per_second": tasks / elapsed if elapsed > 0 else 0.0,
        })

    base = runs[0]["tasks_per_second"]
    top = runs[-1]["tasks_per_second"]

    # --- fairness half --------------------------------------------------
    service, _token, fid = _build(1, 0.0)
    agg = service.auth.register_identity("aggressive")
    pol = service.auth.register_identity("polite")
    agg_token = service.auth.native_client_flow(agg).token
    pol_token = service.auth.native_client_flow(pol).token
    ep = _register_bench_endpoint(service, "shared-ep")
    for round_ in range(fairness_rounds):
        service.submit_batch(agg_token, [(fid, ep, b"p")] * fairness_mix)
        service.submit_batch(pol_token, [(fid, ep, b"p")])
    queue = service.task_queue(ep)
    # Equal-weight DRR serves the polite lane one slot in two, so both
    # lanes stay backlogged for ~2x the polite backlog; sample inside
    # that region only (beyond it the gap measures queue *emptiness*,
    # not unfairness).
    drain = (2 * fairness_rounds // fairness_window) * fairness_window
    lanes: list[str] = []
    while len(lanes) < drain:
        for lease in queue.lease_many(drain - len(lanes)):
            lanes.append(lease.lane)
            service.mark_dispatched(lease.item)
            service.complete_task(lease.item, success=True, result_buffer=b"r")
            queue.ack(lease.lease_id)
    service.close()
    gaps: list[float] = []
    for i in range(0, drain, fairness_window):
        window = lanes[i:i + fairness_window]
        polite_n = sum(1 for lane in window if lane == pol.identity_id)
        gaps.append(abs(len(window) - 2 * polite_n) / len(window))
    gaps.sort()
    polite_total = sum(1 for lane in lanes if lane == pol.identity_id)
    arrival_gap = abs(fairness_mix - 1) / (fairness_mix + 1)

    return {
        "params": {
            "shard_counts": list(shard_counts),
            "tasks": tasks,
            "op_cost_s": op_cost,
            "wave": wave,
            "fairness_rounds": fairness_rounds,
            "fairness_mix": fairness_mix,
            "fairness_window": fairness_window,
        },
        "scaling": {
            "runs": runs,
            "speedup": top / base if base > 0 else 0.0,
        },
        "fairness": {
            "dequeues_sampled": drain,
            "windows": len(gaps),
            "p99_gap": _percentile(gaps, 0.99),
            "mean_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            "polite_share": polite_total / drain if drain else 0.0,
            "arrival_gap": arrival_gap,
        },
    }


def measure_e2e(
    *,
    tasks: int = 128,
    samples: int = 30,
    latency: float = 0.001,
    transfer_cost: float = 0.0005,
    workers: int = 4,
    runs: int = 3,
) -> dict:
    """Throughput and latency of the fabric against the frozen baseline.

    The throughput wave is repeated ``runs`` times and the best kept, so
    a GC pause or scheduler hiccup in one run cannot decide the verdict;
    latency percentiles come from one sequential-sample run.  Returns a
    plain dict ready for JSON serialization.
    """
    seconds = min(
        measure_throughput(tasks=tasks, latency=latency,
                           transfer_cost=transfer_cost, workers=workers)
        for _ in range(runs))
    rate = tasks / seconds
    lat = measure_latency(samples=samples, latency=latency, workers=workers)
    return {
        "params": {
            "tasks": tasks,
            "samples": samples,
            "channel_latency_s": latency,
            "transfer_cost_s": transfer_cost,
            "workers": workers,
            "runs": runs,
        },
        "throughput": {
            "tasks": tasks,
            "seconds": seconds,
            "tasks_per_second": rate,
        },
        "latency": lat,
        "baseline": dict(PER_MESSAGE_BASELINE),
        "speedup": rate / PER_MESSAGE_BASELINE["tasks_per_second"],
        "p50_improvement_s": PER_MESSAGE_BASELINE["p50_s"] - lat["p50_s"],
    }
