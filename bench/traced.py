"""The traced run: per-layer self time with no threads anywhere.

The live fabric's cost per task is work plus coordination (wake-ups,
lock hand-offs, the interpreter lock).  This run measures the work
alone: service, forwarder and agent are built unstarted and stepped by
hand in dispatch order, a benchmark-owned manager stub stands in for the
node (it holds the manager end of the channel and calls
``execute_task_message`` itself), and a hand-stepped result subscription
resolves the futures.

Spans come from timing wrappers this file puts on the public entry
points of each layer *from outside* (instance attributes shadowing the
methods; the program is not edited): one span per call with its name,
layer, start, end, parent and wave.  A layer's self time is its spans'
duration minus the part their child spans cover.  The same loop runs
with the wrappers removed; the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import operator
import random
import time
import zlib
from dataclasses import replace
from pathlib import Path
from types import FunctionType
from typing import Any, Callable

from workloads import PAYLOAD_BYTES, echo, identity

perf_counter = time.perf_counter

LAYERS = ("client", "serialize", "service", "queues", "forwarder", "channel",
          "agent", "worker", "stream", "futures")
COLUMNS = ("name", "layer", "start_us", "end_us", "parent", "wave")
#: ``(waves, tasks per wave)`` per input at full scale.
INPUTS = {"tiny": (100, 64), "128k": (80, 8)}
#: Traced and untraced waves alternate in blocks of this many, so both see
#: the same drift in the box's speed.
BLOCK = 10
#: A wave that has not come back after this many rounds of stepping has
#: lost a task.
MAX_ROUNDS = 50
#: The forwarder must dispatch real waves: a loop that lets one task
#: through per step measures step overhead, not task cost.
MIN_TINY_WAVE = 32


class Tracer:
    """In-memory spans: ``[name, layer, start, end, parent, wave]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.wave = -1
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str]] = []

    def wrap(self, function: Callable[..., Any], name: str,
             layer: str) -> Callable[..., Any]:
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.wave]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return traced

    def install(self, target: Any, layer: str, skip: tuple[str, ...] = ()) -> None:
        """Shadow every public method of ``target`` with a timing wrapper."""
        kind = type(target)
        for name in dir(kind):
            if name.startswith("_") or name in skip:
                continue
            if isinstance(getattr(kind, name), FunctionType):
                setattr(target, name, self.wrap(
                    getattr(target, name), f"{kind.__name__}.{name}", layer))
                self._installed.append((target, name))

    def uninstall(self) -> None:
        for target, name in self._installed:
            delattr(target, name)
        self._installed.clear()

    def self_times(self) -> tuple[dict[str, float], float]:
        """``(self seconds per layer, seconds in root spans)``."""
        covered = [0.0] * len(self.spans)
        for _name, _layer, start, end, parent, _wave in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        layers = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for index, (_name, layer, start, end, parent, _wave) in enumerate(self.spans):
            layers[layer] += end - start - covered[index]
            if parent < 0:
                roots += end - start
        return layers, roots

    def export(self, facts: dict[str, Any]) -> dict[str, Any]:
        """The spans as ``COLUMNS`` rows; ``README.md`` says how to read
        them.  Names and layers become indices, times microseconds since
        the first span."""
        names = sorted({span[0] for span in self.spans})
        name_index = {name: index for index, name in enumerate(names)}
        origin = self.spans[0][2] if self.spans else 0.0
        return {
            **facts,
            "names": names,
            "spans": [
                [name_index[name], LAYERS.index(layer),
                 round(1e6 * (start - origin), 2),
                 round(1e6 * (end - origin), 2), parent, wave]
                for name, layer, start, end, parent, wave in self.spans],
        }


class ManagerStub:
    """Holds the manager end of the agent's channel; runs tasks inline."""

    name = "stub-mgr"

    def __init__(self, channel_end: Any, capacity: int):
        from repro.endpoint.worker import execute_task_message
        from repro.serialize import FuncXSerializer
        from repro.transport import messages

        self.channel = channel_end
        self.capacity = capacity
        self._execute = execute_task_message
        self._messages = messages
        self._serializer = FuncXSerializer()
        self._bodies: dict[str, bytes] = {}
        self._functions: dict[str, Any] = {}

    def announce(self) -> None:
        self.channel.send(self._messages.Registration(
            sender=self.name, component_type="manager", capacity=self.capacity))
        self._advertise()

    def _advertise(self) -> None:
        self.channel.send(self._messages.Advertisement(
            sender=self.name, manager_id=self.name, idle_workers=self.capacity,
            credit_window=self.capacity))

    def step(self) -> int:
        results = []
        for message in self.channel.recv_all_ready():
            if not isinstance(message, self._messages.TaskBatchMessage):
                continue
            self._bodies.update(message.function_buffers)
            for task in message.tasks:
                results.append(self._execute(
                    replace(task, function_buffer=self._bodies[task.function_id]),
                    self._serializer, self._functions, worker_id=self.name))
        if results:
            self.channel.send(self._messages.ResultBatchMessage(
                sender=self.name, results=tuple(results)))
            self._advertise()
        return len(results)


class Rig:
    """The hand-stepped fabric for one input."""

    def __init__(self, function: Callable[..., Any], per_wave: int):
        from repro.fabric import LocalDeployment

        self.deployment = LocalDeployment()
        self.client = self.deployment.client()
        self.endpoint_id = self.deployment.create_endpoint(
            "traced", nodes=0, start=False)
        self.forwarder = self.deployment.forwarder(self.endpoint_id)
        self.agent = self.deployment.endpoint(self.endpoint_id).agent
        link = self.deployment.network.create_channel("agent<->stub")
        self.agent.attach_manager(ManagerStub.name, link.right)
        self.stub = ManagerStub(link.left, per_wave)
        self.function_id = self.client.register_function(function)
        self.subscription = self.deployment.service.result_stream.subscribe(
            window=per_wave, auto_deliver=False)
        self.futures: dict[str, Any] = {}
        self.links = (self.forwarder.channel, self.agent.forwarder,
                      link.left, link.right)
        self.tracer = Tracer()
        self.trace(False)
        # The agent's credit window must reach the forwarder before the
        # first wave, or the forwarder dispatches against a zero window.
        self.agent.register_with_forwarder()
        self.stub.announce()
        for _ in range(MAX_ROUNDS):
            self.agent.step()
            self.forwarder.step()
            if self.forwarder.credit_window >= per_wave:
                break
        else:
            raise RuntimeError(
                f"the credit window stayed at {self.forwarder.credit_window}")

    def consume(self, batch: Any) -> None:
        """The client's end of the stream: resolve futures, then ack."""
        from repro.staging.transfer import fetch_ref

        for message in batch.results:
            buffer = message.result_buffer
            if message.result_ref is not None:
                buffer = fetch_ref(message.result_ref)
            self.futures.pop(message.task_id).set_result(
                self.client.serializer.deserialize(buffer))
        self.subscription.ack(batch.delivery_id)

    def trace(self, on: bool) -> None:
        """Install or remove the wrappers.  The steps the driver calls
        itself become root spans; what they call into becomes children."""
        tracer = self.tracer
        tracer.uninstall()
        roots = {
            "batch_run": (self.client.batch_run, "client"),
            "watch": (self.subscription.watch, "stream"),
            "forwarder_step": (self.forwarder.step, "forwarder"),
            "agent_step": (self.agent.step, "agent"),
            "stub_step": (self.stub.step, "worker"),
            "stream_step": (self.deployment.service.result_stream.step, "stream"),
        }
        if on:
            roots = {key: (tracer.wrap(call, key, layer), layer)
                     for key, (call, layer) in roots.items()}
        for key, (call, _layer) in roots.items():
            setattr(self, key, call)
        self.subscription.attach(
            tracer.wrap(self.consume, "consume", "futures") if on
            else self.consume)
        if on:
            service = self.deployment.service
            tracer.install(self.client.serializer, "serialize")
            # The facade's entry points; its clock and its own routing
            # helpers are not calls into the layer.
            tracer.install(service, "service", skip=(
                "now", "shard_for_endpoint", "shard_for_task"))
            tracer.install(service.task_queue(self.endpoint_id), "queues")
            for end in self.links:
                tracer.install(end, "channel")
            tracer.install(self.subscription, "stream", skip=("watch",))

    def wave(self, arguments: list[Any]) -> list[Any]:
        """Push one wave through every hop; returns the futures."""
        from repro.core.futures import FuncXFuture

        task_ids = self.batch_run(
            [(self.function_id, self.endpoint_id, (argument,), {})
             for argument in arguments])
        futures = [FuncXFuture(task_id) for task_id in task_ids]
        self.futures.update(zip(task_ids, futures))
        for task_id in task_ids:
            self.watch(task_id)
        for _ in range(MAX_ROUNDS):
            self.forwarder_step()
            self.agent_step()
            self.stub_step()
            self.agent_step()
            self.forwarder_step()
            while self.stream_step():
                pass
            if not self.futures:
                return futures
        raise RuntimeError(f"{len(self.futures)} tasks of a wave never came back")

    def close(self) -> None:
        self.tracer.uninstall()
        self.deployment.shutdown()


def _same_bytes(sent: bytes, got: bytes) -> bool:
    return len(got) == PAYLOAD_BYTES and zlib.crc32(got) == zlib.crc32(sent)


def trace_input(name: str, seed: int, scale: float) -> tuple[dict[str, float], Tracer, dict[str, Any]]:
    """Run one input traced and untraced.

    Returns its per-layer metrics, the tracer holding the spans, and the
    facts about the run that go into ``trace.json`` beside them.
    """
    import layers

    waves, per_wave = INPUTS[name]
    waves = max(2, round(waves * scale))
    block = max(1, min(BLOCK, waves // 2))
    rng = random.Random(f"traced:{name}:{seed}")
    if name == "tiny":
        function, same = identity, operator.eq
        pool = [rng.randrange(1 << 31) for _ in range(256)]
    else:
        function, same = echo, _same_bytes
        pool = [rng.randbytes(PAYLOAD_BYTES) for _ in range(8)]

    rig = Rig(function, per_wave)
    wall = {True: 0.0, False: 0.0}
    tasks = {True: 0, False: 0}
    try:
        rig.wave([pool[0]] * per_wave)  # warm-up: bodies shipped, caches filled
        before = layers.Snapshot(rig.deployment)
        for index in range(2 * waves):
            on = (index // block) % 2 == 0
            if index % block == 0:
                rig.trace(on)
            arguments = [rng.choice(pool) for _ in range(per_wave)]
            rig.tracer.wave = index
            started = perf_counter()
            futures = rig.wave(arguments)
            wall[on] += perf_counter() - started
            tasks[on] += per_wave
            for sent, future in zip(arguments, futures):
                if not same(sent, future.result(0)):
                    raise RuntimeError(f"wave {index} returned a wrong value")
        after = layers.Snapshot(rig.deployment)
    finally:
        rig.close()

    forwarder_wave = layers.counters(
        before, after, tasks[True] + tasks[False])["forwarder.wave_size_mean"]
    if name == "tiny" and forwarder_wave < min(MIN_TINY_WAVE, per_wave):
        raise RuntimeError(
            f"mean forwarder wave {forwarder_wave:.1f} is under {MIN_TINY_WAVE}: "
            "the loop measured step overhead, not task cost")
    by_layer, roots = rig.tracer.self_times()
    metrics = {f"{layer}.self_us_per_task": 1e6 * seconds / tasks[True]
               for layer, seconds in by_layer.items()}
    metrics["trace.total_us_per_task"] = 1e6 * roots / tasks[True]
    per_task_on = wall[True] / tasks[True]
    per_task_off = wall[False] / tasks[False]
    metrics["trace.overhead_share"] = (per_task_on - per_task_off) / per_task_on
    return metrics, rig.tracer, {
        "seed": seed, "tasks_per_wave": per_wave, "traced_tasks": tasks[True],
        "forwarder_wave_size_mean": forwarder_wave,
        "wall_us_per_task_traced": 1e6 * per_task_on,
        "wall_us_per_task_untraced": 1e6 * per_task_off,
    }


def run_traced(inputs: str, seed: int, scale: float, out: str) -> dict[str, Any]:
    """Trace each of the comma-separated ``inputs`` (``tiny``, ``128k``)
    and write their spans to ``<out>/trace.json``."""
    names = ([f"{layer}.self_us_per_task" for layer in LAYERS]
             + ["trace.total_us_per_task", "trace.overhead_share"])
    record: dict[str, Any] = {"inputs": {}}
    dumped: dict[str, Any] = {}
    for name in filter(None, inputs.split(",")):
        try:
            metrics, tracer, facts = trace_input(name, seed, scale)
            record["inputs"][name] = {"per_layer": metrics, "reasons": {}}
            dumped[name] = tracer.export(facts)
        except Exception as exc:  # the boundary that keeps the rest running
            reason = f"{type(exc).__name__}: {exc}"
            record["inputs"][name] = {"per_layer": dict.fromkeys(names),
                                      "reasons": dict.fromkeys(names, reason)}
    if out and dumped:
        path = Path(out) / "trace.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump({"layers": list(LAYERS), "columns": list(COLUMNS),
                       "inputs": dumped}, handle, separators=(",", ":"))
    return record
