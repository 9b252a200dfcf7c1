"""System-wide invariants checked continuously under fault injection.

The registry subscribes to a deployment's event spine
(:mod:`repro.observability.events`), which carries every component's
transitions.  Each built-in invariant consumes the event stream — or
inspects the world at quiescence — and records a structured
:class:`InvariantViolation` naming the fault-plan step that was being
applied when it tripped.

Built-in invariants (tentpole spec):

* **queue-conservation** — ``enqueued = acked + in-flight + ready`` for
  every reliable queue, after every mutation.
* **no-double-completion** — a task reaches a terminal state exactly
  once at the service (later completions must be ignored, not applied).
* **no-double-delivery** — no future resolves twice.
* **memo-consistency** — a memoizer hit returns exactly the bytes last
  stored under that (function, payload) hash, never another entry's.
* **monotone-liveness** — per agent incarnation, liveness transitions
  alternate (alive→lost→alive…), a revival is justified by a
  registration or heartbeat, and incarnations strictly increase.
* **no-task-lost** — at quiescence, every non-terminal task is still
  reachable by the redelivery machinery (queue, open lease, agent, or
  manager); a task in limbo while retries remain was permanently lost.
* **bounded-in-flight** — credit-based backpressure holds: no dispatch
  wave exceeds the endpoint's remaining credit (``flow.wave`` events),
  and at quiescence the endpoint-side holdings (agent pending +
  assigned) fit the advertised window plus lease-redelivery slack.
* **shard-conservation** — every service shard's accounting identity
  (``open == received - terminated - forgotten_open``) closes on every
  ``shard.accounting`` event.
* **cross-shard-conservation** — at quiescence the shard partition
  covers the task population exactly: summed shard counters match the
  facade counters and a direct table scan, every task record lives
  on the shard its id routes to, and each shard's ``retained_bytes``
  is the argument and result bytes its records hold, rows included.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.chaos.plan import FaultStep

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.world import ChaosWorld


@dataclass(frozen=True)
class InvariantViolation:
    """A structured invariant-violation report.

    ``task_ids`` names the task(s) the details mention (``task_id`` /
    ``task_ids``), so a violation can be followed into the timeline of
    the exact request that tripped it (``FuncXService.task_info``).
    """

    invariant: str
    message: str
    fault_step: FaultStep | None = None
    details: dict[str, Any] = field(default_factory=dict)
    task_ids: tuple[str, ...] = ()

    def describe(self) -> str:
        step = self.fault_step.describe() if self.fault_step else "no active fault step"
        text = f"[{self.invariant}] {self.message} (during: {step})"
        if self.task_ids:
            text += f" [tasks: {', '.join(self.task_ids)}]"
        return text


class Invariant:
    """Base class: consume events and/or inspect the world at the end."""

    name = "invariant"

    def on_event(self, source: str, event: str, fields: dict[str, Any],
                 record: Callable[[str, dict[str, Any]], None]) -> None:
        """React to one spine event; call ``record(message, details)``."""

    def check_final(self, world: "ChaosWorld | None",
                    record: Callable[[str, dict[str, Any]], None]) -> None:
        """Inspect the quiesced world for terminal-state violations."""


class QueueConservation(Invariant):
    name = "queue-conservation"

    def on_event(self, source, event, fields, record):
        if not event.startswith("queue."):
            return
        if not all(k in fields for k in ("enqueued", "acked", "in_flight", "ready")):
            return
        delta = (fields["enqueued"] - fields["acked"]
                 - fields["in_flight"] - fields["ready"])
        if delta != 0:
            record(
                f"queue {fields.get('queue', source)} leaks {delta} item(s): "
                f"enqueued={fields['enqueued']} != acked={fields['acked']} "
                f"+ in_flight={fields['in_flight']} + ready={fields['ready']}",
                dict(fields),
            )


class NoDoubleCompletion(Invariant):
    name = "no-double-completion"

    def __init__(self) -> None:
        self._completed: dict[str, int] = {}

    def on_event(self, source, event, fields, record):
        if event != "task.completed":
            return
        task_id = fields["task_id"]
        count = self._completed.get(task_id, 0) + 1
        self._completed[task_id] = count
        if count > 1:
            record(
                f"task {task_id} reached a terminal state {count} times",
                dict(fields),
            )


class NoDoubleDelivery(Invariant):
    name = "no-double-delivery"

    def __init__(self) -> None:
        self._delivered: dict[str, int] = {}

    def on_event(self, source, event, fields, record):
        if event != "future.delivered":
            return
        task_id = fields["task_id"]
        count = self._delivered.get(task_id, 0) + 1
        self._delivered[task_id] = count
        if count > 1:
            record(
                f"future for task {task_id} resolved {count} times",
                dict(fields),
            )


class MemoConsistency(Invariant):
    name = "memo-consistency"

    def __init__(self) -> None:
        self._stored: dict[str, str] = {}

    def on_event(self, source, event, fields, record):
        if event == "memo.store":
            # Re-storing the same key is legal (re-executed deterministic
            # task); the cache must serve whatever was stored last.
            self._stored[fields["key"]] = fields["result_sha"]
        elif event == "memo.hit":
            expected = self._stored.get(fields["key"])
            if expected is None:
                record(
                    f"memo hit for key {fields['key'][:16]}… that was never stored",
                    dict(fields),
                )
            elif expected != fields["result_sha"]:
                record(
                    f"memo hit for key {fields['key'][:16]}… returned bytes for a "
                    "different argument hash",
                    {**fields, "expected_sha": expected},
                )


class MonotoneLiveness(Invariant):
    name = "monotone-liveness"

    def __init__(self) -> None:
        # Incarnations (from registrations) and alive/lost transitions are
        # tracked separately: a registration is always accompanied by its
        # own alive transition, so folding them together would make every
        # reconnect look like a duplicate.
        self._incarnation: dict[str, int] = {}
        self._transition: dict[str, tuple[int, bool]] = {}

    def on_event(self, source, event, fields, record):
        component = fields.get("component")
        if component is None:
            return
        if event == "liveness.registered":
            incarnation = fields["incarnation"]
            previous = self._incarnation.get(component)
            if previous is not None and incarnation <= previous:
                record(
                    f"incarnation of {component} went {previous} -> "
                    f"{incarnation} (must strictly increase)",
                    dict(fields),
                )
            self._incarnation[component] = incarnation
        elif event == "liveness.transition":
            alive = fields["alive"]
            incarnation = fields["incarnation"]
            previous = self._transition.get(component)
            if previous == (incarnation, alive):
                record(
                    f"duplicate liveness transition for {component}: already "
                    f"{'alive' if alive else 'lost'} in incarnation {incarnation}",
                    dict(fields),
                )
            if alive and fields.get("via") not in ("registration", "heartbeat"):
                record(
                    f"{component} revived without a registration or heartbeat "
                    f"(via={fields.get('via')!r})",
                    dict(fields),
                )
            self._transition[component] = (incarnation, alive)


class NoTaskLost(Invariant):
    name = "no-task-lost"

    def check_final(self, world, record):
        if world is None:
            return
        for task_id, state, endpoint_id in world.unaccounted_tasks():
            # Attribute the loss to the disruptive fault that plausibly
            # caused it (the quiescence check itself runs under no step).
            step = world.suspect_step(endpoint_id)
            record(
                f"task {task_id} is non-terminal ({state}) but unreachable by "
                "any redelivery path: not queued, not under an open lease, "
                "not held by the agent or a manager — permanently lost while "
                "retries remain",
                {"task_id": task_id, "state": state, "endpoint_id": endpoint_id},
                step,
            )


class BoundedInFlight(Invariant):
    """Credit-based flow control bounds the dispatch in-flight tables.

    Event check: every ``flow.wave`` the forwarder emits must fit the
    endpoint's remaining credit — ``size ≤ max(0, window - in_flight)``.
    Waves dispatched while the window is unknown (``-1``, flow control
    off or no credit report yet) are exempt.  Only dispatch instants are
    checked: a window *shrinking* below the current in-flight count
    (manager death) is a legal transient that drains, not a violation.

    Quiescence check: the endpoint-side holdings (agent pending +
    assigned) must fit the advertised window plus the queue's
    redelivery count — lease-timeout redelivery can legally leave stale
    duplicates parked at the agent, one per redelivery at worst.
    """

    name = "bounded-in-flight"

    def on_event(self, source, event, fields, record):
        if event != "flow.wave":
            return
        window = fields.get("window", -1)
        if window is None or window < 0:
            return
        size = fields.get("size", 0)
        in_flight = fields.get("in_flight", 0)
        if size > max(0, window - in_flight):
            record(
                f"dispatch wave of {size} exceeds remaining credit "
                f"(window={window}, in_flight={in_flight}): the forwarder "
                "overshot the endpoint's advertised window",
                dict(fields),
            )

    def check_final(self, world, record):
        if world is None:
            return
        for hooks in world.hooks.values():
            window = getattr(hooks.forwarder, "credit_window", -1)
            if window is None or window < 0:
                continue
            agent = hooks.endpoint.agent
            holdings = agent.pending_count() + agent.outstanding_count()
            slack = hooks.queue.total_redelivered
            if holdings > window + slack:
                record(
                    f"endpoint {hooks.name} holds {holdings} task(s) "
                    f"(pending+assigned) at quiescence, above its credit "
                    f"window {window} + redelivery slack {slack} — "
                    "backpressure failed to bound the in-flight tables",
                    {"endpoint_id": hooks.endpoint_id, "holdings": holdings,
                     "window": window, "redelivered": slack},
                )


class ShardConservation(Invariant):
    """Each service shard's accounting identity closes on every mutation.

    The sharded service plane emits ``shard.accounting`` snapshots from
    every task-table mutation (insert / terminal / forget).  Per shard::

        open == received - terminated - forgotten_open

    A drift means a task crossed shards (routing bug) or a counter was
    torn from the table it summarizes (locking bug).
    """

    name = "shard-conservation"

    def on_event(self, source, event, fields, record):
        if event != "shard.accounting":
            return
        if not all(k in fields for k in
                   ("received", "terminated", "forgotten_open", "open")):
            return
        expected = (fields["received"] - fields["terminated"]
                    - fields["forgotten_open"])
        if fields["open"] != expected:
            record(
                f"shard {fields.get('shard')} accounting drifted: open="
                f"{fields['open']} != received={fields['received']} - "
                f"terminated={fields['terminated']} - forgotten_open="
                f"{fields['forgotten_open']}",
                dict(fields),
            )


class CrossShardConservation(Invariant):
    """The shard partition covers the task population exactly.

    At quiescence, three independent views of the service plane must
    agree:

    * the **sum of shard counters** (received / open across partitions),
    * the **facade counters** (``tasks_received``, forgotten),
    * a **direct task-table scan** (every record lives on the shard its
      id routes to, and the non-terminal population matches the summed
      ``open``).

    * a **byte recount** (each shard's ``retained_bytes`` is what its
      records, ``Task`` objects and rows alike, hold).

    Divergence means a task was double-counted across shards, landed on
    the wrong partition, or escaped the shard map entirely.
    """

    name = "cross-shard-conservation"

    def check_final(self, world, record):
        if world is None:
            return
        service = world.deployment.service
        counters = service.shard_counters()
        total_received = sum(c["received"] for c in counters)
        total_open = sum(c["open"] for c in counters)
        facade_received = service.tasks_received
        if total_received != facade_received:
            record(
                f"shards account for {total_received} received task(s) but "
                f"the facade counted {facade_received} — a submission "
                "bypassed (or double-entered) the shard partition",
                {"shards": counters, "facade_received": facade_received},
            )
        open_scan = 0
        misrouted = 0
        for shard in service.shards:
            tasks = shard.iter_tasks()
            held = sum(len(t.payload_buffer) + len(t.result_buffer or b"")
                       for t in tasks)
            if held != (retained := shard.retained_bytes()):
                record(f"shard {shard.index} counts {retained} retained byte(s)"
                       f" but its records hold {held}",
                       {"shard": shard.index, "held": held, "retained": retained})
            for task in tasks:
                if not task.state.terminal:
                    open_scan += 1
                owner = service.shard_map.shard_for_task(task.task_id)
                if owner != shard.index:
                    misrouted += 1
                    record(
                        f"task {task.task_id} lives on shard {shard.index} "
                        f"but its id routes to shard {owner}",
                        {"task_id": task.task_id, "shard": shard.index,
                         "routed": owner},
                    )
        if misrouted == 0 and open_scan != total_open:
            record(
                f"shard counters say {total_open} open task(s) but the "
                f"table scan finds {open_scan} — the O(1) accounting "
                "diverged from the tables it summarizes",
                {"shards": counters, "open_scan": open_scan},
            )


def default_invariants() -> list[Invariant]:
    return [
        QueueConservation(),
        NoDoubleCompletion(),
        NoDoubleDelivery(),
        MemoConsistency(),
        MonotoneLiveness(),
        NoTaskLost(),
        BoundedInFlight(),
        ShardConservation(),
        CrossShardConservation(),
    ]


class InvariantRegistry:
    """Routes spine events to invariants and collects violations.

    :meth:`dispatch` is what a chaos world subscribes to its
    deployment's spine; the chaos scheduler calls :meth:`set_step` around
    each fault step so violations are attributed to the step that
    triggered them.
    """

    def __init__(self, invariants: Iterable[Invariant] | None = None):
        self.invariants: list[Invariant] = (
            list(invariants) if invariants is not None else default_invariants()
        )
        self._lock = threading.Lock()
        self.violations: list[InvariantViolation] = []
        self.current_step: FaultStep | None = None
        self.events_seen = 0

    # ------------------------------------------------------------------
    def set_step(self, step: FaultStep | None) -> None:
        with self._lock:
            self.current_step = step

    def dispatch(self, source: str, event: str, fields: dict[str, Any]) -> None:
        with self._lock:
            step = self.current_step
            self.events_seen += 1
        for invariant in self.invariants:

            def record(message: str, details: dict[str, Any],
                       _inv: Invariant = invariant, _step: FaultStep | None = step) -> None:
                self.record(_inv.name, message, details, _step)

            try:
                invariant.on_event(source, event, fields, record)
            except Exception as exc:  # invariant bugs must never sink the fabric
                self.record(invariant.name,
                            f"invariant checker raised {type(exc).__name__}: {exc}",
                            {"source": source, "event": event}, step)

    def record(self, invariant: str, message: str,
               details: dict[str, Any] | None = None,
               step: FaultStep | None = None) -> None:
        details = details or {}
        task_ids = [details["task_id"]] if details.get("task_id") else []
        task_ids.extend(details.get("task_ids") or ())
        violation = InvariantViolation(
            invariant=invariant, message=message,
            fault_step=step if step is not None else self.current_step,
            details=details,
            task_ids=tuple(dict.fromkeys(map(str, task_ids))),
        )
        with self._lock:
            self.violations.append(violation)

    # ------------------------------------------------------------------
    def check_final(self, world: "ChaosWorld | None" = None) -> list[InvariantViolation]:
        """Run every invariant's quiescence check; returns new violations."""
        before = len(self.violations)
        for invariant in self.invariants:

            def record(message: str, details: dict[str, Any],
                       step: FaultStep | None = None,
                       _inv: Invariant = invariant) -> None:
                self.record(_inv.name, message, details, step)

            try:
                invariant.check_final(world, record)
            except Exception as exc:
                self.record(invariant.name,
                            f"final check raised {type(exc).__name__}: {exc}", {})
        with self._lock:
            return self.violations[before:]

    @property
    def ok(self) -> bool:
        with self._lock:
            return not self.violations
