"""Invariant registry unit tests (synthetic event streams, no live world)."""

from __future__ import annotations

from types import SimpleNamespace

from repro.auth import AuthService
from repro.chaos import FaultStep, InvariantRegistry
from repro.chaos.invariants import CrossShardConservation, Invariant
from repro.core.service import FuncXService, ServiceConfig
from repro.observability.events import EventSpine
from repro.serialize import FuncXSerializer


def queue_event(registry, *, enqueued, acked, in_flight, ready,
                event="queue.put", name="q"):
    registry.dispatch("queue", event, {
        "queue": name, "enqueued": enqueued, "acked": acked,
        "in_flight": in_flight, "ready": ready,
    })


class TestQueueConservation:
    def test_balanced_snapshot_passes(self):
        registry = InvariantRegistry()
        queue_event(registry, enqueued=10, acked=4, in_flight=2, ready=4)
        assert registry.ok

    def test_leak_detected(self):
        registry = InvariantRegistry()
        queue_event(registry, enqueued=10, acked=4, in_flight=2, ready=3)
        assert not registry.ok
        violation = registry.violations[0]
        assert violation.invariant == "queue-conservation"
        assert "leaks 1 item" in violation.message

    def test_non_queue_events_ignored(self):
        registry = InvariantRegistry()
        registry.dispatch("service", "task.completed", {"task_id": "t1"})
        assert registry.ok


class TestNoDoubleCompletion:
    def test_single_completion_ok(self):
        registry = InvariantRegistry()
        registry.dispatch("service", "task.completed", {"task_id": "t1"})
        registry.dispatch("service", "task.completed", {"task_id": "t2"})
        assert registry.ok

    def test_double_completion_flagged(self):
        registry = InvariantRegistry()
        registry.dispatch("service", "task.completed", {"task_id": "t1"})
        registry.dispatch("service", "task.completed", {"task_id": "t1"})
        assert [v.invariant for v in registry.violations] == ["no-double-completion"]

    def test_guarded_duplicate_is_not_a_violation(self):
        # "task.duplicate_completion" is the service *rejecting* a second
        # result — the at-least-once design working as intended.
        registry = InvariantRegistry()
        registry.dispatch("service", "task.completed", {"task_id": "t1"})
        registry.dispatch("service", "task.duplicate_completion", {"task_id": "t1"})
        assert registry.ok


class TestNoDoubleDelivery:
    def test_double_future_delivery_flagged(self):
        registry = InvariantRegistry()
        registry.dispatch("futures", "future.delivered", {"task_id": "t1"})
        registry.dispatch("futures", "future.deliver_attempt", {"task_id": "t1"})
        assert registry.ok  # a blocked attempt is fine
        registry.dispatch("futures", "future.delivered", {"task_id": "t1"})
        assert [v.invariant for v in registry.violations] == ["no-double-delivery"]


class TestMemoConsistency:
    def test_hit_matches_store(self):
        registry = InvariantRegistry()
        registry.dispatch("memo", "memo.store", {"key": "k1", "result_sha": "aa"})
        registry.dispatch("memo", "memo.hit", {"key": "k1", "result_sha": "aa"})
        assert registry.ok

    def test_hit_with_wrong_bytes_flagged(self):
        registry = InvariantRegistry()
        registry.dispatch("memo", "memo.store", {"key": "k1", "result_sha": "aa"})
        registry.dispatch("memo", "memo.hit", {"key": "k1", "result_sha": "bb"})
        assert [v.invariant for v in registry.violations] == ["memo-consistency"]
        assert "different argument hash" in registry.violations[0].message

    def test_hit_without_store_flagged(self):
        registry = InvariantRegistry()
        registry.dispatch("memo", "memo.hit", {"key": "k1", "result_sha": "aa"})
        assert not registry.ok

    def test_restore_updates_expectation(self):
        registry = InvariantRegistry()
        registry.dispatch("memo", "memo.store", {"key": "k1", "result_sha": "aa"})
        registry.dispatch("memo", "memo.store", {"key": "k1", "result_sha": "bb"})
        registry.dispatch("memo", "memo.hit", {"key": "k1", "result_sha": "bb"})
        assert registry.ok


class TestMonotoneLiveness:
    @staticmethod
    def registered(registry, incarnation):
        registry.dispatch("fwd", "liveness.registered",
                          {"component": "agent", "incarnation": incarnation})
        registry.dispatch("fwd", "liveness.transition",
                          {"component": "agent", "alive": True,
                           "incarnation": incarnation, "via": "registration"})

    @staticmethod
    def lost(registry, incarnation):
        registry.dispatch("fwd", "liveness.transition",
                          {"component": "agent", "alive": False,
                           "incarnation": incarnation, "via": "heartbeat-timeout"})

    def test_normal_flap_cycle_ok(self):
        registry = InvariantRegistry()
        self.registered(registry, 1)
        self.lost(registry, 1)
        self.registered(registry, 2)
        self.lost(registry, 2)
        assert registry.ok

    def test_incarnation_must_increase(self):
        registry = InvariantRegistry()
        self.registered(registry, 2)
        self.lost(registry, 2)
        self.registered(registry, 2)  # repeated incarnation
        assert any(v.invariant == "monotone-liveness" and "strictly increase"
                   in v.message for v in registry.violations)

    def test_duplicate_transition_flagged(self):
        registry = InvariantRegistry()
        self.registered(registry, 1)
        self.lost(registry, 1)
        self.lost(registry, 1)  # already lost
        assert any("duplicate liveness transition" in v.message
                   for v in registry.violations)

    def test_revival_needs_registration_or_heartbeat(self):
        registry = InvariantRegistry()
        self.registered(registry, 1)
        self.lost(registry, 1)
        registry.dispatch("fwd", "liveness.transition",
                          {"component": "agent", "alive": True,
                           "incarnation": 1, "via": "gut-feeling"})
        assert any("without a registration or heartbeat" in v.message
                   for v in registry.violations)


class TestRegistryMechanics:
    def test_violation_names_current_fault_step(self):
        registry = InvariantRegistry()
        step = FaultStep.make(0.5, "disconnect_endpoint", "ep")
        registry.set_step(step)
        queue_event(registry, enqueued=5, acked=5, in_flight=1, ready=0)
        registry.set_step(None)
        violation = registry.violations[0]
        assert violation.fault_step == step
        assert "disconnect_endpoint" in violation.describe()

    def test_probe_tags_source(self):
        seen = []

        class Spy(Invariant):
            name = "spy"

            def on_event(self, source, event, fields, record):
                seen.append((source, event))

        registry = InvariantRegistry([Spy()])
        events = EventSpine()
        events.subscribe(registry.dispatch)
        events.emit("channel", "channel.dropped", {"reason": "x"})
        assert seen == [("channel", "channel.dropped")]

    def test_broken_invariant_does_not_propagate(self):
        class Broken(Invariant):
            name = "broken"

            def on_event(self, source, event, fields, record):
                raise RuntimeError("checker bug")

        registry = InvariantRegistry([Broken()])
        registry.dispatch("queue", "queue.put", {})  # must not raise
        assert registry.violations[0].invariant == "broken"
        assert "checker bug" in registry.violations[0].message

    def test_check_final_runs_quiescence_checks(self):
        class FinalOnly(Invariant):
            name = "final-only"

            def check_final(self, world, record):
                record("world is None here", {"world": repr(world)})

        registry = InvariantRegistry([FinalOnly()])
        assert registry.ok
        new = registry.check_final(None)
        assert len(new) == 1
        assert new[0].invariant == "final-only"


def double(x):
    return 2 * x


class TestCrossShardBytes:
    def test_a_result_that_leaves_its_count_behind_is_flagged(self, clock):
        service = FuncXService(auth=AuthService(clock=clock), clock=clock,
                               config=ServiceConfig(shards=2))
        token = service.auth.native_client_flow(
            service.auth.register_identity("alice")).token
        _identity, ep_token = service.auth.endpoint_client_flow("ep")
        endpoint_id = service.register_endpoint(ep_token.token, name="ep")
        function_id = service.register_function(
            token, "double", FuncXSerializer().serialize_function(double),
            public=True)
        payload = FuncXSerializer().serialize(([1], {}))
        done, _open = (service.submit(token, function_id, endpoint_id,
                                        payload) for _ in range(2))
        service.complete_task(done, True, b"r" * 10)
        world = SimpleNamespace(deployment=SimpleNamespace(service=service))
        registry = InvariantRegistry([CrossShardConservation()])
        assert registry.check_final(world) == []
        service.task_by_id(done).result_buffer = None  # uncounted
        [violation] = registry.check_final(world)
        assert violation.invariant == "cross-shard-conservation"
        assert violation.details["retained"] - violation.details["held"] == 10
