"""The event spine: one subscribe point per deployment.

* the stepped ``World`` of ``test_wave_plane.py`` emits exactly the
  ordered ``(kind, fields)`` list in ``event_golden.json`` — generated
  from the commit before the spine, where the same transitions reached
  per-component ``probe`` hooks and the per-wave ``tasks.terminal``
  was a pubsub publish.  Regenerate only after an intentional event
  change, with ``PYTHONPATH=src python tests/test_event_spine.py
  --write``;
* as counts: with no subscriber a 64-task wave reaches the fan-out 0
  times, and a subscriber that raises is counted and logged while the
  wave it fired on is enqueued whole;
* two chaos worlds alive at once each see only their own deployment;
* every kind the source emits is in the table in
  ``docs/OBSERVABILITY.md``, and the table lists nothing else.
"""

from __future__ import annotations

import ast
import json
import logging
import re
import sys
from collections import Counter
from pathlib import Path

from repro.core.tasks import Task
from repro.transport.messages import Heartbeat, Registration, ResultBatchMessage

sys.path.insert(0, str(Path(__file__).resolve().parent))
from test_wave_plane import WAVE, World  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "event_golden.json"
REPO = Path(__file__).resolve().parent.parent


def drive(world: World) -> list[str]:
    """Submit, dispatch, complete, a duplicate, a cancel, a forget, a
    memo store and hit, a requeue and an exhausted retry budget, on one
    stepped world.  Returns the task ids in the order they were made."""
    ids = world.submit(4)
    world.agent.send(Heartbeat(sender="agent:x", timestamp=world.clock(),
                               credit=16))
    assert sorted(world.dispatch()) == sorted(ids)
    world.clock.advance(0.5)
    assert world.service.cancel_task(world.token, ids[2])
    assert world.service.forget_task(ids[3])
    world.agent.send(ResultBatchMessage(sender="agent:x", results=(
        world.result(ids[0]), world.result(ids[1], success=False),
        world.result(ids[0]), world.result(ids[2]), world.result(ids[3]))))
    world.forwarder.step()
    payload = world.serializer.serialize(([9], {}))
    stored = world.service.submit(world.token, world.function_id,
                                  world.endpoint_id, payload, memoize=True)
    assert world.dispatch() == [stored]
    world.agent.send(ResultBatchMessage(sender="agent:x",
                                        results=(world.result(stored),)))
    world.forwarder.step()
    hit = world.service.submit(world.token, world.function_id,
                               world.endpoint_id, payload, memoize=True)
    [lost] = world.submit(1)
    for _attempt in range(2):
        assert world.dispatch() == [lost]
        world.clock.advance(5.0)  # the agent falls silent: requeue, then give up
        world.forwarder.step()
        world.agent.send(Registration(sender="agent:x",
                                      component_type="endpoint"))
    world.forwarder.step()
    return [*ids, stored, hit, lost]


def normalised(world: World, task_ids: list[str]) -> list:
    """``world.events`` as JSON data, with this world's random ids, the
    memo keys and the result digests replaced by their first-seen rank."""
    renames: dict[str, str] = {world.endpoint_id: "<endpoint>",
                               world.owner: "<owner>"}
    renames.update((task_id, f"<task {index}>")
                   for index, task_id in enumerate(task_ids))
    ranks: dict[str, dict[str, str]] = {"key": {}, "result_sha": {}}
    out = []
    for kind, fields in world.events:
        fields = dict(fields)
        for name, seen in ranks.items():
            if name in fields:
                fields[name] = seen.setdefault(fields[name],
                                               f"<{name} {len(seen)}>")
        text = json.dumps([kind, fields], sort_keys=True, default=_plain)
        for old, new in renames.items():
            text = text.replace(old, new)
        out.append(json.loads(text))
    return out


def _plain(value):
    if isinstance(value, Task):
        return value.task_id
    raise TypeError(f"unexpected {type(value).__name__} in event fields")


def collect() -> list:
    world = World()
    return normalised(world, drive(world))


class TestGolden:
    def test_stepped_world_emits_the_parent_event_list(self):
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        assert collect() == golden

    def test_golden_covers_every_transition_it_names(self):
        kinds = {kind for kind, _fields in json.loads(
            GOLDEN.read_text(encoding="utf-8"))}
        assert {"task.submitted", "queue.put", "queue.lease_many",
                "flow.wave", "task.completed", "task.duplicate_result",
                "task.cancelled", "task.post_cancel_result", "memo.store",
                "memo.hit", "task.requeued", "queue.nack",
                "task.retries_exhausted", "task.forgotten", "queue.ack",
                "shard.accounting", "tasks.terminal"} <= kinds


def double(x):
    return 2 * x


def complete_wave(world: World, count: int = WAVE) -> list[str]:
    """Submit, dispatch, complete and deliver one wave of ``count``."""
    subscription = world.service.result_stream.subscribe(
        window=count, auto_deliver=False)
    subscription.attach(lambda batch: subscription.ack(batch.delivery_id))
    task_ids = world.submit(count)
    subscription.watch_many(task_ids)
    assert sorted(world.dispatch()) == sorted(task_ids)
    world.agent.send(ResultBatchMessage(sender="agent:x", results=tuple(
        world.result(task_id) for task_id in task_ids)))
    world.forwarder.step()
    assert world.service.result_stream.step() == count
    subscription.close()
    return task_ids


class TestCounts:
    def test_a_wave_with_no_subscriber_reaches_the_fan_out_0_times(
            self, monkeypatch):
        from repro.observability.events import EventSpine

        world = World()
        assert world.service.events.unsubscribe(world.subscription)
        kinds: list[str] = []
        fan_out = EventSpine.emit

        def counted(spine, source, kind, fields):
            kinds.append(kind)
            fan_out(spine, source, kind, fields)

        monkeypatch.setattr(EventSpine, "emit", counted)
        complete_wave(world)
        assert kinds == []
        # The same wave with one subscriber: the zero above is not vacuous.
        world.service.events.subscribe(lambda source, kind, fields: None)
        complete_wave(world)
        per_task = ("shard.accounting", "task.submitted", "queue.put",
                    "task.completed", "queue.ack")
        assert Counter(kinds) == {
            **{kind: WAVE for kind in per_task},
            "shard.accounting": 2 * WAVE,  # insert and terminal
            "queue.lease_many": 1, "flow.wave": 1, "tasks.terminal": 1}

    def test_a_raising_subscriber_is_counted_and_logged_and_the_wave_enqueued(
            self, caplog):
        world = World()
        events = world.service.events
        after: list[str] = []

        def crash(source, kind, fields):
            raise RuntimeError("subscriber crashed")

        events.subscribe(crash)
        events.subscribe(lambda source, kind, fields: after.append(kind))
        before = len(world.events)
        with caplog.at_level(logging.ERROR, logger="repro.observability.events"):
            world.submit(WAVE)
        assert len(world.service.task_queue(world.endpoint_id)) == WAVE
        # shard.accounting, task.submitted and queue.put, per task
        assert events.subscriber_errors == 3 * WAVE
        assert len(caplog.records) == 3 * WAVE
        assert caplog.records[0].exc_info[0] is RuntimeError
        assert len(world.events) - before == len(after) == 3 * WAVE


class TestSpine:
    def test_tokens_unsubscribe_once(self):
        from repro.observability.events import EventSpine

        events = EventSpine()
        assert not events and len(events) == 0
        first = events.subscribe(lambda *event: None)
        second = events.subscribe(lambda *event: None)
        assert first != second and len(events) == 2
        assert events.unsubscribe(first) is True
        assert events.unsubscribe(first) is False
        assert events.unsubscribe(12345) is False
        assert len(events) == 1

    def test_unsubscribing_mid_emit_leaves_that_fan_out_whole(self):
        """Copy-on-write: an emit walks the subscribers it started with."""
        from repro.observability.events import EventSpine

        events = EventSpine()
        seen: list[tuple[str, str]] = []
        tokens: dict[str, int] = {}

        def first(source, kind, fields):
            seen.append(("first", kind))
            events.unsubscribe(tokens["second"])

        tokens["first"] = events.subscribe(first)
        tokens["second"] = events.subscribe(
            lambda source, kind, fields: seen.append(("second", kind)))
        events.emit("test", "a", {})
        events.emit("test", "b", {})
        assert seen == [("first", "a"), ("second", "a"), ("first", "b")]


class TestTwoChaosWorlds:
    """Two worlds alive at once: closing one must neither blind the other
    nor leave its checks listening to deployments built later."""

    def test_each_world_sees_only_its_own_deployment(self):
        from repro.chaos import ChaosWorld
        from repro.chaos.invariants import Invariant
        from repro.fabric import LocalDeployment

        class Deliveries(Invariant):
            name = "deliveries"

            def __init__(self):
                self.task_ids: list[str] = []

            def on_event(self, source, event, fields, record):
                if event == "future.delivered":
                    self.task_ids.append(fields["task_id"])

        def resolve_one(deployment) -> str:
            client = deployment.client()
            endpoint_id = deployment.create_endpoint("ep", nodes=0,
                                                     start=False)
            future = client.submit(client.register_function(double),
                                   endpoint_id, 21)
            deployment.service.complete_task(
                future.task_id, success=True,
                result_buffer=client.serializer.serialize(42))
            assert future.result(timeout=0) == 42
            return future.task_id

        seen_a, seen_b = Deliveries(), Deliveries()
        world_a = ChaosWorld(invariants=[seen_a])
        world_b = ChaosWorld(invariants=[seen_b])
        try:
            world_a.close()
            task_id = resolve_one(world_b.deployment)
            assert seen_b.task_ids == [task_id]
        finally:
            world_a.close()
            world_b.close()
        with LocalDeployment() as fresh:
            resolve_one(fresh)
        assert seen_a.task_ids == []
        assert seen_b.task_ids == [task_id]


class TestDocsTable:
    def test_the_kinds_table_in_observability_md_matches_the_source(self):
        emitted: dict[str, set[str]] = {}
        dynamic = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "emit" and len(node.args) == 3):
                    continue
                source, kind = node.args[:2]
                # A kind is a literal, or a choice between literals.
                kinds = ([kind.body, kind.orelse] if isinstance(kind, ast.IfExp)
                         else [kind])
                if not all(isinstance(arg, ast.Constant)
                           for arg in (source, *kinds)):
                    dynamic.append(f"{path.name}:{node.lineno}")
                    continue
                for literal in kinds:
                    emitted.setdefault(literal.value, set()).add(source.value)
        assert dynamic == []  # a computed kind could escape the table
        text = (REPO / "docs" / "OBSERVABILITY.md").read_text(encoding="utf-8")
        section = text.split("\n## The event spine\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `([a-z_.]+)` \| (\w+) \|", section, re.M)
        documented: dict[str, set[str]] = {}
        for kind, source in rows:
            assert kind not in documented, f"{kind} is listed twice"
            documented[kind] = {source}
        assert documented == emitted


if __name__ == "__main__" and "--write" in sys.argv:
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
