"""Isolated drives: one public function at a time, single-threaded.

Each drive loops over one public entry point with nothing else running
and reports microseconds per operation (or operations per second) as
the median of ``BATCHES`` batches.  They are the per-layer numbers an
optimisation of that layer should move first; the interaction table in
``README.md`` says which end-to-end metric should follow.

Every drive catches its own errors: if a later refactor renames an entry
point the drive reports ``None`` plus the reason, and nothing else in the
benchmark is affected.
"""

from __future__ import annotations

import random
import subprocess
import sys
import threading
import time
from typing import Any, Callable

from stats import median
from workloads import PAYLOAD_BYTES, WAIT_S, echo, identity

perf_counter = time.perf_counter

BATCHES = 5
WAVE = 64


def _us_per_op(batch: Callable[[], tuple[float, int]]) -> float:
    """Median microseconds per operation over ``BATCHES`` calls of
    ``batch``, which returns ``(timed seconds, operations)``."""
    return 1e6 * median([seconds / ops for seconds, ops in
                         (batch() for _ in range(BATCHES))])


def _loop(ops: int, body: Callable[[], Any]) -> Callable[[], tuple[float, int]]:
    """A batch that calls ``body`` ``ops`` times inside the timed region."""
    def batch() -> tuple[float, int]:
        started = perf_counter()
        for _ in range(ops):
            body()
        return perf_counter() - started, ops
    return batch


class Bench:
    """What the drives share: the scale, seeded inputs, and a wired-up
    service with one user, one function and one endpoint."""

    def __init__(self, seed: int, scale: float):
        self.scale = scale
        self.blob = random.Random(f"drives:{seed}").randbytes(PAYLOAD_BYTES)

    def ops(self, full: int) -> int:
        return max(4, round(full * self.scale))

    def service(self, function: Callable[..., Any] = identity):
        from repro.auth.service import AuthClient, AuthService
        from repro.core.client import FuncXClient
        from repro.core.service import FuncXService

        auth = AuthService()
        service = FuncXService(auth=auth)
        user = auth.register_identity("bench")
        client = FuncXClient(service, user)
        _endpoint_identity, endpoint_token = auth.endpoint_client_flow("bench")
        endpoint_id = service.register_endpoint(endpoint_token.token, name="bench")
        function_id = client.register_function(function)
        token = AuthClient(auth, user).bearer_token()
        return service, client, token, function_id, endpoint_id


# -- serialize ---------------------------------------------------------------
def serialize_args_tiny(bench: Bench) -> float:
    from repro.serialize import FuncXSerializer

    serializer = FuncXSerializer()
    return _us_per_op(_loop(bench.ops(4000),
                            lambda: serializer.serialize(([7], {}))))


def serialize_args_128k(bench: Bench) -> float:
    from repro.serialize import FuncXSerializer

    serializer, payload = FuncXSerializer(), ([bench.blob], {})
    return _us_per_op(_loop(bench.ops(200),
                            lambda: serializer.serialize(payload)))


def serialize_result_128k(bench: Bench) -> float:
    """Worker-side serialize plus client-side deserialize of one result."""
    from repro.serialize import FuncXSerializer

    serializer = FuncXSerializer()
    return _us_per_op(_loop(bench.ops(200), lambda: serializer.deserialize(
        serializer.serialize(bench.blob, routing_tag="task"))))


def serialize_function(bench: Bench) -> float:
    """Client-side serialize plus worker-side deserialize of a function."""
    from repro.serialize import FuncXSerializer

    serializer = FuncXSerializer()
    return _us_per_op(_loop(bench.ops(1000), lambda: serializer.deserialize(
        serializer.serialize_function(identity))))


# -- queues, admission ---------------------------------------------------------
def _put_lease_ack(queue: Any, ops: int, lanes: tuple[str, ...]):
    def batch() -> tuple[float, int]:
        started = perf_counter()
        for index in range(ops):
            queue.put(index, lane=lanes[index % len(lanes)])
        leased = 0
        while leased < ops:
            for lease in queue.lease_many(WAVE):
                queue.ack(lease.lease_id)
                leased += 1
        return perf_counter() - started, ops
    return batch


def queues_put_lease_ack(bench: Bench) -> float:
    from repro.store.queues import ReliableQueue

    return _us_per_op(_put_lease_ack(ReliableQueue(), bench.ops(2000), ("",)))


def queues_fair_put_lease_ack(bench: Bench) -> float:
    from repro.store.queues import FairReliableQueue

    return _us_per_op(_put_lease_ack(FairReliableQueue(), bench.ops(2000),
                                     ("tenant-a", "tenant-b")))


def admission_admit_release(bench: Bench) -> float:
    from repro.core.admission import AdmissionController, TenantPolicy

    controller = AdmissionController()
    controller.set_policy("tenant", TenantPolicy(
        rate=1e9, burst=1e9, max_outstanding=1_000_000))

    def body() -> None:
        controller.admit("tenant")
        controller.release("tenant")

    return _us_per_op(_loop(bench.ops(4000), body))


# -- service -------------------------------------------------------------------
def service_submit(bench: Bench) -> float:
    service, client, token, function_id, endpoint_id = bench.service()
    payload = client.serializer.serialize(([7], {}))
    try:
        return _us_per_op(_loop(bench.ops(1000), lambda: service.submit(
            token, function_id, endpoint_id, payload)))
    finally:
        service.close()


def service_submit_batch(bench: Bench) -> float:
    """Per task, in waves of ``WAVE``."""
    service, client, token, function_id, endpoint_id = bench.service()
    wave = [(function_id, endpoint_id,
             client.serializer.serialize(([7], {})))] * WAVE
    waves = max(1, bench.ops(1000) // WAVE)

    def batch() -> tuple[float, int]:
        started = perf_counter()
        for _ in range(waves):
            service.submit_batch(token, wave)
        return perf_counter() - started, waves * WAVE

    try:
        return _us_per_op(batch)
    finally:
        service.close()


def _submitted(bench: Bench, ops: int):
    service, client, token, function_id, endpoint_id = bench.service()
    payload = client.serializer.serialize(([7], {}))
    result = client.serializer.serialize(7, routing_tag="task")

    def submit() -> list[str]:
        return service.submit_batch(
            token, [(function_id, endpoint_id, payload)] * ops)

    return service, token, result, submit


def service_complete(bench: Bench) -> float:
    ops = bench.ops(1000)
    service, _token, result, submit = _submitted(bench, ops)

    def batch() -> tuple[float, int]:
        task_ids = submit()
        started = perf_counter()
        for task_id in task_ids:
            service.complete_task(task_id, success=True, result_buffer=result)
        return perf_counter() - started, ops

    try:
        return _us_per_op(batch)
    finally:
        service.close()


def service_get_result(bench: Bench) -> float:
    ops = bench.ops(1000)
    service, token, result, submit = _submitted(bench, ops)

    def batch() -> tuple[float, int]:
        task_ids = submit()
        for task_id in task_ids:
            service.complete_task(task_id, success=True, result_buffer=result)
        started = perf_counter()
        for task_id in task_ids:
            if service.get_result(token, task_id) != result:
                raise RuntimeError("get_result returned another buffer")
        return perf_counter() - started, ops

    try:
        return _us_per_op(batch)
    finally:
        service.close()


# -- channel, pubsub, stream, staging ----------------------------------------
def channel_send_recv(bench: Bench) -> float:
    from repro.transport.channel import Channel
    from repro.transport.messages import TaskMessage

    channel = Channel("bench")
    message = TaskMessage(sender="bench", task_id="task")

    def body() -> None:
        channel.left.send(message)
        if channel.right.recv_all_ready() != [message]:
            raise RuntimeError("message did not cross the channel")

    try:
        return _us_per_op(_loop(bench.ops(4000), body))
    finally:
        channel.close()


def pubsub_publish(bench: Bench) -> float:
    """One subscribe, publish, unsubscribe cycle on an exact topic: what
    each task's future costs the pubsub."""
    from repro.store.pubsub import PubSub

    pubsub = PubSub()
    seen: list[Any] = []

    def body() -> None:
        token = pubsub.subscribe("task.id", lambda _topic, m: seen.append(m))
        pubsub.publish("task.id", "success")
        pubsub.unsubscribe(token)

    value = _us_per_op(_loop(bench.ops(4000), body))
    if len(seen) != BATCHES * bench.ops(4000):
        raise RuntimeError("a published message was not delivered")
    return value


def stream_deliver(bench: Bench) -> float:
    """Watch, deliver and ack one finished task's result, stepped by hand."""
    ops = bench.ops(1000)
    service, _token, result, submit = _submitted(bench, ops)
    subscription = service.result_stream.subscribe(auto_deliver=False)
    delivered: list[int] = []

    def consumer(batch: Any) -> None:
        delivered.append(len(batch.results))
        subscription.ack(batch.delivery_id)

    subscription.attach(consumer)

    def batch() -> tuple[float, int]:
        task_ids = submit()
        for task_id in task_ids:
            service.complete_task(task_id, success=True, result_buffer=result)
        delivered.clear()
        started = perf_counter()
        for task_id in task_ids:
            subscription.watch(task_id)
        while service.result_stream.step():
            pass
        elapsed = perf_counter() - started
        if sum(delivered) != ops:
            raise RuntimeError(f"delivered {sum(delivered)} of {ops} results")
        return elapsed, ops

    try:
        return _us_per_op(batch)
    finally:
        service.close()


def staging_put_fetch_128k(bench: Bench) -> float:
    """Spill, resolve and delete one 128 KiB result."""
    from repro.staging.transfer import (
        DataStore, fetch_ref, register_store, unregister_store)

    store = register_store(DataStore("bench-drive"))

    def body() -> None:
        ref = store.put(bench.blob, key="task")
        if len(fetch_ref(ref.as_argument())) != PAYLOAD_BYTES:
            raise RuntimeError("staged object came back with another size")
        store.delete("task")

    try:
        return _us_per_op(_loop(bench.ops(400), body))
    finally:
        unregister_store(store.name)


# -- worker, manager, executor -------------------------------------------------
def _task_message(function: Callable[..., Any], argument: Any):
    from repro.serialize import FuncXSerializer
    from repro.transport.messages import TaskMessage

    serializer = FuncXSerializer()
    return TaskMessage(
        sender="bench", task_id="task", function_id="function",
        function_buffer=serializer.serialize_function(function),
        payload_buffer=serializer.serialize(([argument], {})))


def _execute(bench: Bench, function: Callable[..., Any], argument: Any,
             ops: int) -> float:
    from repro.endpoint.worker import execute_task_message
    from repro.serialize import FuncXSerializer

    message, serializer = _task_message(function, argument), FuncXSerializer()
    cache: dict[str, Any] = {}

    def body() -> None:
        if not execute_task_message(message, serializer, cache).success:
            raise RuntimeError("the task failed")

    return _us_per_op(_loop(bench.ops(ops), body))


def worker_execute(bench: Bench) -> float:
    return _execute(bench, identity, 7, 2000)


def worker_execute_128k(bench: Bench) -> float:
    return _execute(bench, echo, bench.blob, 200)


def manager_per_task(bench: Bench) -> float:
    """Process CPU per task of a started ``Manager`` (its loop plus four
    worker threads) fed ``WAVE``-task waves over a zero-latency channel."""
    from dataclasses import replace

    from repro.endpoint.config import EndpointConfig
    from repro.endpoint.manager import Manager
    from repro.transport.channel import Channel
    from repro.transport.messages import (
        ResultBatchMessage, ResultMessage, TaskBatchMessage)

    channel = Channel("bench")
    manager = Manager("bench-mgr", channel.left,
                      EndpointConfig(workers_per_node=4))
    template = _task_message(identity, 7)
    bodies = {template.function_id: template.function_buffer}
    stripped = replace(template, function_buffer=b"")
    waves = max(1, bench.ops(1024) // WAVE)
    serial = iter(range(1 << 30))

    def batch() -> tuple[float, int]:
        started = time.process_time()
        for _ in range(waves):
            channel.right.send(TaskBatchMessage(
                sender="bench", function_buffers=bodies, tasks=tuple(
                    replace(stripped, task_id=f"task-{next(serial)}")
                    for _ in range(WAVE))))
            results, deadline = 0, perf_counter() + WAIT_S
            while results < WAVE:
                message = channel.right.recv(timeout=deadline - perf_counter())
                if message is None:
                    raise RuntimeError(f"{results} of {WAVE} results came back")
                if isinstance(message, ResultBatchMessage):
                    results += len(message.results)
                elif isinstance(message, ResultMessage):
                    results += 1
        return time.process_time() - started, waves * WAVE

    manager.start()
    try:
        return _us_per_op(batch)
    finally:
        manager.stop()
        channel.close()


def executor_submit(bench: Bench) -> float:
    """The caller's side of ``FuncXExecutor.submit``; the batching thread
    is parked on a gate so nothing else runs."""
    service, client, _token, function_id, endpoint_id = bench.service()
    gate = threading.Event()
    executor = client.executor(endpoint_id, sleeper=lambda _s: gate.wait(WAIT_S))
    try:
        return _us_per_op(_loop(bench.ops(2000),
                                lambda: executor.submit(function_id, 7)))
    finally:
        executor.shutdown(wait=False, cancel_futures=True)
        gate.set()
        service.close()


# -- metrics, trace, simulator, import ----------------------------------------
def metrics_inc(bench: Bench) -> float:
    from repro.metrics.registry import MetricsRegistry

    counter = MetricsRegistry().counter("bench.ops", layer="drive")
    return _us_per_op(_loop(bench.ops(8000), counter.inc))


def trace_span(bench: Bench) -> float:
    from repro.observability.trace import TraceStore

    context = TraceStore().open("task", at=0.0)
    return _us_per_op(_loop(bench.ops(4000), lambda: context.record(
        "stage", "bench", start=0.0, end=1.0)))


def _per_second(batch: Callable[[], tuple[float, int]]) -> float:
    return median([ops / seconds for seconds, ops in
                   (batch() for _ in range(BATCHES))])


def sim_kernel_events(bench: Bench) -> float:
    from repro.sim.kernel import EventLoop

    ops = bench.ops(20_000)

    def batch() -> tuple[float, int]:
        loop = EventLoop()
        started = perf_counter()
        for index in range(ops):
            loop.schedule(index * 1e-6, int)
        processed = loop.run()
        return perf_counter() - started, processed

    return _per_second(batch)


def sim_fabric_events(bench: Bench) -> float:
    from repro.sim import SimFabric
    from repro.sim.platform import CORI

    nodes = max(1, round(4 * bench.scale))

    def batch() -> tuple[float, int]:
        fabric = SimFabric(CORI, managers=nodes)
        fabric.submit_batch(nodes * CORI.containers_per_node * 10, duration=1.0)
        started = perf_counter()
        report = fabric.run()
        return perf_counter() - started, report.events_processed

    return _per_second(batch)


def import_fabric(bench: Bench) -> float:
    """Seconds a fresh interpreter needs for ``import repro.fabric``."""
    source = next(path for path in sys.path if path.endswith("src"))
    program = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
               "t = time.perf_counter(); import repro.fabric; "
               "print(time.perf_counter() - t)")
    return median([float(subprocess.run(
        [sys.executable, "-c", program, source], check=True, timeout=60,
        capture_output=True, text=True).stdout)
        for _ in range(3 if bench.scale >= 1 else 1)])


DRIVES: dict[str, Callable[[Bench], float]] = {
    "serialize.args_tiny_us": serialize_args_tiny,
    "serialize.args_128k_us": serialize_args_128k,
    "serialize.result_128k_us": serialize_result_128k,
    "serialize.function_us": serialize_function,
    "queues.put_lease_ack_us": queues_put_lease_ack,
    "queues.fair_put_lease_ack_us": queues_fair_put_lease_ack,
    "admission.admit_release_us": admission_admit_release,
    "service.submit_us": service_submit,
    "service.submit_batch_us": service_submit_batch,
    "service.complete_us": service_complete,
    "service.get_result_us": service_get_result,
    "channel.send_recv_us": channel_send_recv,
    "pubsub.publish_us": pubsub_publish,
    "stream.deliver_us": stream_deliver,
    "staging.put_fetch_128k_us": staging_put_fetch_128k,
    "worker.execute_us": worker_execute,
    "worker.execute_128k_us": worker_execute_128k,
    "executor.submit_us": executor_submit,
    "manager.us_per_task": manager_per_task,
    "metrics.inc_us": metrics_inc,
    "trace.span_us": trace_span,
    "sim.kernel_events_per_s": sim_kernel_events,
    "sim.fabric_events_per_s": sim_fabric_events,
    "import.fabric_s": import_fabric,
}


def run_drives(seed: int, scale: float) -> dict[str, Any]:
    bench = Bench(seed, scale)
    values: dict[str, float | None] = {}
    reasons: dict[str, str] = {}
    for name, drive in DRIVES.items():
        try:
            values[name] = drive(bench)
        except Exception as exc:  # the boundary that keeps the rest running
            values[name] = None
            reasons[name] = f"{type(exc).__name__}: {exc}"
    return {"per_layer": values, "reasons": reasons}
