"""Thread-role inference units: role graph, lock attribution, waivers,
the live-fabric spawn map, and the src-clean tier-1 gate.

The fixture corpus in test_analysis.py covers the finding-level
contract (EXPECT markers); these tests pin the *intermediate* artifacts
— which roles the graph assigns to which functions, which locks an
access is attributed, and that every ``threading.Thread`` spawn in the
live fabric resolves to a named role.
"""

from __future__ import annotations

import threading
from pathlib import Path

from repro.analysis.runner import iter_python_files, run_analysis
from repro.analysis.source import load_source, module_name_for, parse_source
from repro.analysis.threadroles import (
    ROLES,
    UNKNOWN_ROLE,
    build_role_report,
    canonical_role,
    check_thread_roles,
    make_thread_roles_check,
    role_for_thread,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _parse(text: str, path: str = "inline.py"):
    return parse_source(text, path=path, module="repro.core.inline")


def _src_sources():
    sources = []
    for p in iter_python_files(REPO_ROOT / "src"):
        rel = str(p.relative_to(REPO_ROOT))
        sources.append(load_source(p, rel, module_name_for(rel)))
    return sources


# ----------------------------------------------------------------------
# role vocabulary
# ----------------------------------------------------------------------
class TestRoleNames:
    def test_canonical_role_aliases_and_prefixes(self):
        assert canonical_role("forwarder") == "forwarder-loop"
        assert canonical_role("forwarder-ep1") == "forwarder-loop"
        assert canonical_role("manager-m07") == "manager-loop"
        assert canonical_role("worker-3") == "worker"
        assert canonical_role("result-stream") == "stream-delivery"
        assert canonical_role("funcx-executor") == "executor-batcher"
        assert canonical_role("chaos-scheduler") == "chaos-scheduler"
        assert canonical_role("MainThread") == "main"

    def test_role_for_thread_collapses_unknown_onto_callback(self):
        assert role_for_thread("MainThread") == "main"
        assert role_for_thread("agent-ep1") == "agent-loop"
        assert role_for_thread("Thread-17") == "callback"
        assert role_for_thread("pytest-watcher") == "callback"

    def test_taxonomy_is_closed(self):
        assert len(ROLES) == 10
        assert UNKNOWN_ROLE not in ROLES


# ----------------------------------------------------------------------
# role graph units
# ----------------------------------------------------------------------
ENGINE = '''
import threading


class Engine:
    def __init__(self):
        self._lock = threading.Lock()
        self._thread = None
        self.jobs = 0  # guarded-by: self._lock

    def start(self):
        self._thread = threading.Thread(target=self._run, name="agent-x")
        self._thread.start()

    def _run(self):
        self._step()

    def _step(self):
        with self._lock:
            self.jobs += 1

    def poke(self):
        with self._lock:
            self.jobs += 1
'''


class TestRoleGraph:
    def test_spawn_role_propagates_through_calls(self):
        report = build_role_report([_parse(ENGINE)])
        assert "agent-loop" in report.roles_of("Engine", "_run")
        # _step is reached from _run, so the spawn role flows through.
        assert "agent-loop" in report.roles_of("Engine", "_step")
        # public entry points carry the main role
        assert "main" in report.roles_of("Engine", "start")
        assert "main" in report.roles_of("Engine", "poke")
        # private helpers are not main entries by themselves
        assert "main" not in report.roles_of("Engine", "_run")

    def test_accesses_carry_holding_locks(self):
        report = build_role_report([_parse(ENGINE)])
        accesses = report.accesses[("Engine", "jobs")]
        assert accesses, "expected recorded accesses for Engine.jobs"
        for access in accesses:
            assert any(lock.endswith("._lock") for lock in access.locks), (
                access,)

    def test_shared_attrs_requires_two_roles(self):
        report = build_role_report([_parse(ENGINE)])
        assert "Engine.jobs" in report.shared_attrs()
        # _thread is only ever touched from main -> not shared
        assert "Engine._thread" not in report.shared_attrs()

    def test_must_hold_locks_flow_into_callees(self):
        text = '''
import threading


class Inner:
    def __init__(self):
        self._lock = threading.Lock()
        self._thread = None
        self.count = 0  # guarded-by: self._lock

    def start(self):
        self._thread = threading.Thread(target=self._loop, name="worker-0")
        self._thread.start()

    def _loop(self):
        with self._lock:
            self._bump()

    def bump_locked(self):
        with self._lock:
            self._bump()

    def _bump(self):
        self.count += 1
'''
        report = build_role_report([_parse(text)])
        accesses = report.accesses[("Inner", "count")]
        # the write inside _bump inherits the lock every call site holds
        assert all(a.locks for a in accesses if a.kind == "write")
        # and the finding-level result is clean: common lock exists
        findings = list(check_thread_roles([_parse(text)]))
        assert [f for f in findings if f.severity == "error"] == []

    def test_bound_method_passed_to_a_loop_helper_gets_the_spawn_role(self):
        text = '''
import threading

from repro.transport.wakeup import run_loop


class Engine:
    def __init__(self):
        self.jobs = 0

    def start(self):
        thread = threading.Thread(
            target=run_loop, name="manager-m1",
            args=("m1", self.step, threading.Event()))
        thread.start()

    def step(self):
        self._work()

    def _work(self):
        self.jobs += 1
'''
        report = build_role_report([_parse(text)])
        assert "manager-loop" in report.roles_of("Engine", "step")
        assert "manager-loop" in report.roles_of("Engine", "_work")
        # handed to the thread, not registered as somebody's callback
        assert "callback" not in report.roles_of("Engine", "step")

    def test_unresolvable_spawn_is_an_error(self):
        text = '''
import threading


def kickoff(fn):
    thread = threading.Thread(target=fn)
    thread.start()
    return thread
'''
        findings = list(check_thread_roles([_parse(text)]))
        assert len(findings) == 1
        assert "no resolvable role" in findings[0].message


# ----------------------------------------------------------------------
# parameterized spawn sites (one thread per shard)
# ----------------------------------------------------------------------
SHARDED = '''
import threading


class Shard:
    def __init__(self, index):
        self._lock = threading.Lock()
        self.index = index
        self.handled = 0  # guarded-by: self._lock

    def run(self):
        with self._lock:
            self.handled += 1

    def poke(self):
        with self._lock:
            self.handled += 1


class Plane:
    def __init__(self, count):
        self.shards: list[Shard] = [Shard(i) for i in range(count)]

    def start(self):
        for shard in self.shards:
            threading.Thread(target=shard.run,
                             name=f"worker-{shard.index}").start()

    def poke_all(self):
        for shard in self.shards:
            shard.poke()
'''


class TestParameterizedSpawns:
    """The sharded-plane shape: a loop over a typed container spawning
    one thread per element, named by an f-string."""

    def test_loop_spawn_over_typed_container_resolves(self):
        report = build_role_report([_parse(SHARDED)])
        spawn = next(s for s in report.spawns if s.symbol == "Plane.start")
        # loop variable typed from the list[Shard] annotation, target
        # resolved through it, role from the f-string's literal stem
        assert spawn.target == ("Shard", "run")
        assert spawn.role == "worker"
        assert "worker" in report.roles_of("Shard", "run")

    def test_guarded_shard_state_stays_clean(self):
        findings = list(check_thread_roles([_parse(SHARDED)]))
        assert [f for f in findings if f.severity == "error"] == []


# ----------------------------------------------------------------------
# --roles subset filter
# ----------------------------------------------------------------------
class TestRoleFilter:
    def test_subset_filter_drops_unrelated_findings(self):
        bad = (REPO_ROOT / "tests/analysis_fixtures/threadrole_bad.py"
               ).read_text(encoding="utf-8")
        source = _parse(bad, path="threadrole_bad.py")
        full = [f for f in check_thread_roles([source])
                if f.severity == "error"]
        assert len(full) == 2
        worker_only = make_thread_roles_check(["worker"])
        filtered = [f for f in worker_only([source])
                    if f.severity == "error"]
        # only the worker-vs-main race survives; the callback race drops
        assert len(filtered) == 1
        assert "worker" in filtered[0].message
        elasticity_only = make_thread_roles_check(["elasticity"])
        assert [f for f in elasticity_only([source])
                if f.severity == "error"] == []


# ----------------------------------------------------------------------
# the live fabric: every spawn resolves, src is clean
# ----------------------------------------------------------------------
EXPECTED_SPAWNS = {
    ("src/repro/chaos/scheduler.py", "chaos-scheduler"),
    ("src/repro/core/executor.py", "executor-batcher"),
    ("src/repro/core/forwarder.py", "forwarder-loop"),
    ("src/repro/core/stream.py", "stream-delivery"),
    ("src/repro/endpoint/agent.py", "agent-loop"),
    ("src/repro/endpoint/elasticity.py", "elasticity"),
    ("src/repro/endpoint/manager.py", "manager-loop"),
    ("src/repro/endpoint/worker.py", "worker"),
}


class TestLiveFabric:
    def test_every_thread_spawn_resolves_to_a_named_role(self):
        report = build_role_report(_src_sources())
        spawned = {(spawn.path, spawn.role) for spawn in report.spawns}
        assert EXPECTED_SPAWNS <= spawned, EXPECTED_SPAWNS - spawned
        unknown = [s for s in report.spawns if s.role == UNKNOWN_ROLE]
        assert unknown == [], unknown

    def test_src_tree_is_clean(self):
        """Tier-1 gate: the audited fabric has no unwaived cross-role
        races and no unwaived stale annotations."""
        report = run_analysis([REPO_ROOT / "src"], repo_root=REPO_ROOT)
        assert report.errors == []
        assert report.findings == [], [f.format() for f in report.findings]
        assert report.infos == [], [f.format() for f in report.infos]


# ----------------------------------------------------------------------
# regression: the AuthClient token race the pass found
# ----------------------------------------------------------------------
class TestAuthClientRegression:
    def test_concurrent_refresh_is_single_flight(self):
        """Racing bearer_token() callers used to double-spend the
        single-use refresh token (AuthenticationFailed: unknown refresh
        token); the refresh lock serializes the swap."""
        from repro.auth.service import AuthClient, AuthService

        now = [0.0]
        service = AuthService(token_lifetime=100.0, clock=lambda: now[0])
        identity = service.register_identity("ada", provider="institution")
        client = AuthClient(service, identity)

        workers, rounds = 8, 20
        errors = []
        start = threading.Barrier(workers + 1)
        done = threading.Barrier(workers + 1)

        def hammer():
            try:
                for _ in range(rounds):
                    start.wait(timeout=10)
                    token = client.bearer_token()
                    assert service.introspect(token).identity == identity
                    done.wait(timeout=10)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer, name=f"hammer-{i}")
                   for i in range(workers)]
        for thread in threads:
            thread.start()
        # Each round steps the frozen clock into the refresh window
        # (remaining 5 < lifetime * 0.1), then releases all workers at
        # once: exactly one may spend the single-use refresh token.
        for _ in range(rounds):
            now[0] += 95.0
            start.wait(timeout=10)
            done.wait(timeout=10)
        for thread in threads:
            thread.join(timeout=30)
        assert errors == [], errors
