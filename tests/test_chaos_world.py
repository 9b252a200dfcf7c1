"""Live chaos runs: fault plans against a real deployment, invariants on.

These are the paper's §5.4 fault-tolerance experiments turned into
continuously-checked tests (select with ``pytest -m chaos``).  Every run
is seeded — the world's channel RNGs and the fault plan share a
deterministic schedule — so failures replay exactly.
"""

from __future__ import annotations

import time

import pytest

from repro.chaos import ChaosWorld, FaultPlan, FaultStep, generate_plan
from repro.chaos.invariants import Invariant, default_invariants

pytestmark = pytest.mark.chaos


def double(x):
    return x * 2


def slow_double(x):
    import time as _time

    _time.sleep(0.25)
    return x * 2


def wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestDisconnectMidFlight:
    """Paper fig. 8: kill an endpoint with tasks in flight, recover it."""

    def test_invariants_hold_and_all_tasks_complete(self, chaos_world):
        world = chaos_world(seed=13)
        ep = world.add_endpoint("ep", nodes=1, workers_per_node=4)
        plan = FaultPlan(name="fig8-disconnect", seed=13, steps=(
            FaultStep.make(0.10, "set_drop", "ep", probability=0.15),
            FaultStep.make(0.20, "disconnect_endpoint", "ep"),
            FaultStep.make(0.60, "reconnect_endpoint", "ep"),
            FaultStep.make(0.70, "set_drop", "ep", probability=0.0),
        ))
        client = world.client()
        fid = client.register_function(double)
        world.start_plan(plan)
        futures = [client.submit(fid, ep, i) for i in range(40)]
        schedule = world.finish_plan()
        assert schedule is not None and not schedule.errors
        assert world.drain(timeout=30)
        results = [f.result(timeout=30) for f in futures]
        assert results == [i * 2 for i in range(40)]
        report = world.check_final()
        assert report.ok, report.describe()
        assert report.events_seen > 0

    def test_generated_plan_smoke(self, chaos_world):
        """Deterministic-seed smoke: a generated plan with every fault kind."""
        world = chaos_world(seed=21)
        ep = world.add_endpoint("ep", nodes=2, workers_per_node=2)
        plan = generate_plan("smoke", seed=21, duration=0.8, endpoints=["ep"],
                             drop_windows=1, max_drop=0.2, latency_spikes=1,
                             disconnects=1, manager_kills=1)
        client = world.client()
        fid = client.register_function(double)
        world.start_plan(plan)
        futures = [client.submit(fid, ep, i) for i in range(25)]
        world.finish_plan()
        assert world.drain(timeout=30)
        assert [f.result(timeout=30) for f in futures] == [i * 2 for i in range(25)]
        report = world.check_final()
        assert report.ok, report.describe()


class TestBrokenInvariantIsCaught:
    """Disable the forwarder's requeue path: tasks must be reported lost,
    naming the fault step that stranded them."""

    def test_disabled_requeue_reported_as_task_loss(self, chaos_world):
        world = chaos_world(seed=5)
        ep = world.add_endpoint("ep", nodes=1, workers_per_node=2)
        forwarder = world.hooks["ep"].forwarder
        service = world.deployment.service
        queue = service.task_queue(ep)

        def broken_requeue(endpoint_id, task_ids, reason, wake=True):
            # The bug under test: leases are acked (dropped for good)
            # instead of requeued into the task queue.
            queue.ack_many(task_ids)
            return []

        service.requeue_tasks = broken_requeue

        client = world.client()
        fid = client.register_function(slow_double)
        futures = [client.submit(fid, ep, i) for i in range(6)]
        assert wait_until(lambda: forwarder.outstanding >= 6)
        # Disconnect with everything in flight; never reconnect.
        plan = FaultPlan(name="broken-requeue", seed=5, steps=(
            FaultStep.make(0.05, "disconnect_endpoint", "ep"),
        ))
        world.run_plan(plan)
        # Wait out the heartbeat grace so the forwarder declares the agent
        # lost and runs the (broken) requeue path.
        assert wait_until(lambda: not forwarder.agent_connected, timeout=10)
        assert wait_until(lambda: forwarder.outstanding == 0, timeout=10)

        report = world.check_final()
        assert not report.ok
        lost = [v for v in report.violations if v.invariant == "no-task-lost"]
        assert lost, report.describe()
        # The report names both the violated invariant and the fault step.
        violation = lost[0]
        assert violation.fault_step is not None
        assert violation.fault_step.action == "disconnect_endpoint"
        assert "no-task-lost" in violation.describe()
        assert "disconnect_endpoint" in violation.describe()
        del futures  # never resolve: the tasks were permanently lost


class TestHeartbeatSkew:
    def test_skewed_heartbeats_flap_liveness_monotonically(self, chaos_world):
        transitions = []

        class LivenessSpy(Invariant):
            name = "liveness-spy"

            def on_event(self, source, event, fields, record):
                if event == "liveness.transition":
                    transitions.append(fields["alive"])

        world = chaos_world(seed=9, invariants=default_invariants() + [LivenessSpy()])
        world.add_endpoint("ep", nodes=1, workers_per_node=2,
                           heartbeat_period=0.05, heartbeat_grace=4)
        forwarder = world.hooks["ep"].forwarder
        plan = FaultPlan(name="skew", seed=9, steps=(
            FaultStep.make(0.05, "skew_heartbeats", "ep", skew=30.0),
            FaultStep.make(0.70, "skew_heartbeats", "ep", skew=0.0),
        ))
        world.run_plan(plan)
        assert wait_until(lambda: forwarder.agent_connected, timeout=10)
        assert wait_until(lambda: False in transitions and transitions[-1] is True,
                          timeout=10)
        report = world.check_final()
        assert report.ok, report.describe()


class TestSanitizedChaosRun:
    """The runtime lock-order sanitizer rides a full fault-plan run: every
    lock-acquisition-order edge actually observed must already be known
    to the static lock-order graph.  The fabric holds one lock at a time,
    so that graph is empty and any nesting escapes, including one between
    two instances of one class."""

    def test_runtime_lock_graph_is_subgraph_of_static(self, chaos_world):
        from pathlib import Path

        from repro.analysis.runner import iter_python_files
        from repro.analysis.source import load_source, module_name_for

        world = chaos_world(seed=29, sanitize_locks=True)
        ep = world.add_endpoint("ep", nodes=2, workers_per_node=2)
        plan = FaultPlan(name="sanitized-run", seed=29, steps=(
            FaultStep.make(0.10, "set_drop", "ep", probability=0.15),
            FaultStep.make(0.25, "disconnect_endpoint", "ep"),
            FaultStep.make(0.55, "reconnect_endpoint", "ep"),
            FaultStep.make(0.65, "set_drop", "ep", probability=0.0),
        ))
        client = world.client()
        fid = client.register_function(double)
        world.start_plan(plan)
        futures = [client.submit(fid, ep, i) for i in range(30)]
        world.finish_plan()
        assert world.drain(timeout=30)
        assert [f.result(timeout=30) for f in futures] == [i * 2 for i in range(30)]
        assert world.check_final().ok

        recorder = world.deployment.lock_recorder
        assert recorder is not None
        assert recorder.acquisitions > 0

        repo_root = Path(__file__).resolve().parent.parent
        sources = [load_source(p, str(p.relative_to(repo_root)),
                               module_name_for(p))
                   for p in iter_python_files(repo_root / "src")]
        assert recorder.escapes(sources) == []

    def test_runtime_cross_role_attrs_within_static_shared_set(self, chaos_world):
        """Thread-role acceptance gate: every attribute the AccessRecorder
        observed from ≥ 2 thread roles during a fault-plan run must already
        be in the static pass's inferred shared-set — a cross-role access
        the inference missed means the race detector has a blind spot."""
        from pathlib import Path

        from repro.analysis.runner import iter_python_files
        from repro.analysis.source import load_source, module_name_for
        from repro.analysis.threadroles import build_role_report

        world = chaos_world(seed=31, sanitize_locks=True)
        ep = world.add_endpoint("ep", nodes=2, workers_per_node=2)
        plan = generate_plan("role-twin", seed=31, duration=0.6,
                             endpoints=["ep"], drop_windows=1, max_drop=0.2)
        client = world.client()
        fid = client.register_function(double)
        world.start_plan(plan)
        futures = [client.submit(fid, ep, i) for i in range(30)]
        world.finish_plan()
        assert world.drain(timeout=30)
        assert [f.result(timeout=30) for f in futures] == [i * 2 for i in range(30)]

        recorder = world.deployment.access_recorder
        assert recorder is not None
        observed = recorder.observed_roles()
        assert observed, "sanitized chaos run recorded no attribute accesses"
        # Every observing thread mapped onto the static role taxonomy.
        for key, roles in observed.items():
            assert roles, key

        repo_root = Path(__file__).resolve().parent.parent
        sources = [load_source(p, str(p.relative_to(repo_root)),
                               module_name_for(str(p.relative_to(repo_root))))
                   for p in iter_python_files(repo_root / "src")]
        shared = build_role_report(sources).shared_attrs()
        extra = recorder.cross_role_attrs() - shared
        assert not extra, (
            f"runtime cross-role attribute accesses unknown to the static "
            f"shared-set: {sorted(extra)}")
        assert recorder.escapes(sources) == []


class TestArtifactReplay:
    def test_failure_artifact_rebuilds_world_and_plan(self, chaos_world, tmp_path):
        plan = generate_plan("replayable", seed=17, duration=0.5,
                             endpoints=["ep"], drop_windows=1, max_drop=0.2)
        world = chaos_world(seed=17)
        world.add_endpoint("ep", nodes=1, workers_per_node=2,
                           drop_probability=0.05, lease_timeout=0.4)
        path = tmp_path / "failure.json"
        world.save_artifact(str(path), plan)
        world.close()

        replayed, replayed_plan = ChaosWorld.replay(str(path))
        with replayed:
            assert replayed_plan.schedule_bytes() == plan.schedule_bytes()
            assert replayed.seed == 17
            hooks = replayed.hooks["ep"]
            assert hooks.spec["drop_probability"] == 0.05
            assert hooks.spec["lease_timeout"] == 0.4
            assert hooks.forwarder.lease_timeout == 0.4
            # The replayed world actually runs the recorded plan.
            client = replayed.client()
            fid = client.register_function(double)
            ep = replayed.endpoint_id("ep")
            replayed.start_plan(replayed_plan)
            futures = [client.submit(fid, ep, i) for i in range(10)]
            replayed.finish_plan()
            assert replayed.drain(timeout=30)
            assert [f.result(timeout=30) for f in futures] == [i * 2 for i in range(10)]
            assert replayed.check_final().ok

    def test_replay_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="unsupported artifact version"):
            ChaosWorld.replay(str(path))


class TestShardKillMidStorm:
    """Kill a service shard with tasks in flight, restart it: the
    partition's durable queues redeliver every yanked lease and the
    per-shard + cross-shard conservation invariants must close."""

    def test_no_tasks_lost_across_shard_kill_restart(self, chaos_world):
        world = chaos_world(seed=31, shards=2)
        ep = world.add_endpoint("ep", nodes=1, workers_per_node=4)
        service = world.deployment.service
        shard = service.shard_map.shard_for_endpoint(ep)
        plan = FaultPlan(name="shard-kill", seed=31, steps=(
            FaultStep.make(0.15, "kill_shard", shard=shard),
            FaultStep.make(0.45, "restart_shard", shard=shard),
        ))
        client = world.client()
        fid = client.register_function(slow_double)
        world.start_plan(plan)
        futures = [client.submit(fid, ep, i) for i in range(30)]
        schedule = world.finish_plan()
        assert schedule is not None and not schedule.errors
        assert world.drain(timeout=60)
        assert [f.result(timeout=60) for f in futures] == [
            i * 2 for i in range(30)]
        report = world.check_final()
        assert report.ok, report.describe()
        # the kill really happened on the endpoint's shard
        assert service.shards[shard].counters()["received"] == 30
        assert service.shards[1 - shard].counters()["received"] == 0

    def test_submissions_rejected_while_killed_resume_after_restart(
            self, chaos_world):
        from repro.errors import ShardDraining

        world = chaos_world(seed=32, shards=2)
        ep = world.add_endpoint("ep", nodes=1, workers_per_node=2)
        service = world.deployment.service
        shard = service.shard_map.shard_for_endpoint(ep)
        client = world.client()
        fid = client.register_function(double)

        world.apply_step(FaultStep.make(0.0, "kill_shard", shard=shard))
        with pytest.raises(ShardDraining):
            client.run(fid, ep, 1)
        world.apply_step(FaultStep.make(0.0, "restart_shard", shard=shard))
        assert client.submit(fid, ep, 21).result(timeout=30) == 42
        report = world.check_final()
        assert report.ok, report.describe()


class TestAddEndpointFailsLoud:
    """``add_endpoint`` used to drop both of its 10 s waits' results and
    hand back an endpoint that was not there."""

    def test_unreachable_forwarder_raises_naming_it(self, chaos_world, clock,
                                                    monkeypatch):
        from repro.core.forwarder import Forwarder

        # The forwarder never runs, so the agent's registration is never
        # read; the world's own clock and sleeper make the 10 s instant.
        monkeypatch.setattr(Forwarder, "start", lambda self: None)
        sleeps = []

        def sleeper(seconds):
            sleeps.append(seconds)
            clock.advance(seconds)

        world = chaos_world(seed=3, clock=clock, sleeper=sleeper)
        with pytest.raises(RuntimeError, match="'ep'.*did not reach its forwarder"):
            world.add_endpoint("ep")
        assert clock() >= 10.0 and sleeps
        assert "ep" not in world.hooks

    def test_unready_managers_raise_naming_them(self, chaos_world, monkeypatch):
        from repro.endpoint.endpoint import Endpoint

        monkeypatch.setattr(Endpoint, "wait_ready", lambda self: False)
        world = chaos_world(seed=3)
        with pytest.raises(RuntimeError, match="'ep'.*2 manager"):
            world.add_endpoint("ep", nodes=2)
        assert "ep" not in world.hooks
