"""Unit and integration tests for the runtime lock-order sanitizer."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

from repro.analysis.runner import iter_python_files
from repro.analysis.protocols import protocol_sites
from repro.analysis.sanitizer import (
    HOLD_OUTLIER_SECONDS,
    LockOrderRecorder,
    ProtocolRecorder,
    SanitizedLock,
    sanitize_events,
    sanitize_lock,
)
from repro.analysis.source import load_source, module_name_for
from repro.fabric import LocalDeployment
from repro.metrics.registry import MetricsRegistry
from repro.monitoring import TaskEventLog

REPO_ROOT = Path(__file__).resolve().parent.parent


class FakeClock:
    def __init__(self):
        self.now = 0.0
        self.step = 0.0

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def _locks(recorder, *names):
    return [SanitizedLock(threading.Lock(), name, recorder) for name in names]


class TestEdgeRecording:
    def test_nested_acquisition_records_instance_and_class_edge(self):
        recorder = LockOrderRecorder()
        a, b = _locks(recorder, "A._lock", "B._lock")
        with a:
            with b:
                pass
        # one edge between the two instances, keyed by their classes
        assert recorder.events() == {("A._lock", "B._lock"): 1}
        assert recorder.observed() == {("A._lock", "B._lock")}

    def test_reentrant_same_instance_is_not_an_edge(self):
        recorder = LockOrderRecorder()
        inner = threading.RLock()
        lock = SanitizedLock(inner, "A._lock", recorder)
        with lock:
            with lock:
                pass
        assert recorder.events() == {}
        assert recorder.acquisitions == 2

    def test_two_instances_of_one_class_nesting_escapes(self):
        recorder = LockOrderRecorder()
        q1, q2 = _locks(recorder, "Q._lock", "Q._lock")
        with q1:
            with q2:
                pass
        # the static side drops class-level self-edges, so a nesting of
        # two instances of one class is always an escape
        assert recorder.escapes([]) == [("Q._lock", "Q._lock")]

    def test_abba_nesting_detects_cycle_live(self):
        recorder = LockOrderRecorder()
        a, b = _locks(recorder, "A._lock", "B._lock")
        with a:
            with b:
                pass
        assert recorder.escapes([]) == [("A._lock", "B._lock")]
        with b:
            with a:
                pass
        assert recorder.escapes([]) == [("A._lock", "B._lock"),
                                        ("B._lock", "A._lock")]


class TestMetricsExport:
    def test_acquisition_and_contention_counters(self):
        metrics = MetricsRegistry()
        clock = FakeClock()
        clock.step = 0.01  # every clock() call advances 10ms -> "contended"
        recorder = LockOrderRecorder(metrics=metrics, clock=clock)
        (a,) = _locks(recorder, "A._lock")
        with a:
            pass
        assert metrics.counter("sanitizer.lock_acquisitions").value == 1
        assert metrics.counter("sanitizer.lock_contention").value == 1
        assert recorder.acquisitions == 1

    def test_hold_time_outlier_flagged(self):
        metrics = MetricsRegistry()
        clock = FakeClock()
        recorder = LockOrderRecorder(metrics=metrics, clock=clock)
        (a,) = _locks(recorder, "A._lock")
        a.acquire()
        clock.now += 40 * HOLD_OUTLIER_SECONDS
        a.release()
        assert len(recorder.outliers) == 1
        assert recorder.outliers[0].lock == "A._lock"
        assert recorder.outliers[0].seconds >= 10.0
        assert metrics.counter("sanitizer.lock_hold_outliers").value == 1


class TestConditionProtocol:
    def test_wait_notify_roundtrip(self):
        recorder = LockOrderRecorder()
        cond = SanitizedLock(threading.Condition(), "Q._lock", recorder)
        ready = []

        def consumer():
            with cond:
                while not ready:
                    cond.wait(timeout=5.0)

        thread = threading.Thread(target=consumer)
        thread.start()
        with cond:
            ready.append(1)
            cond.notify_all()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert recorder.events() == {}

    def test_wait_releases_held_stack(self):
        # While a thread sleeps in cond.wait() it does NOT hold the lock;
        # edges recorded by other threads during that window must not
        # originate from the waiter's stale stack entry.
        recorder = LockOrderRecorder()
        cond = SanitizedLock(threading.Condition(), "Q._lock", recorder)
        other = SanitizedLock(threading.Lock(), "R._lock", recorder)
        entered = threading.Event()
        release = threading.Event()

        def waiter():
            with cond:
                entered.set()
                cond.wait_for(release.is_set, timeout=5.0)

        thread = threading.Thread(target=waiter)
        thread.start()
        assert entered.wait(timeout=5.0)
        # main thread takes both locks in Q -> R order while the waiter
        # sleeps; if the waiter's stack still claimed Q this would be
        # impossible (Q is actually free only inside wait)
        with cond:
            with other:
                release.set()
            cond.notify_all()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert recorder.observed() == {("Q._lock", "R._lock")}


class TestSanitizeHelper:
    def test_wraps_and_is_idempotent(self):
        class Holder:
            def __init__(self):
                self._lock = threading.Lock()

        recorder = LockOrderRecorder()
        holder = Holder()
        wrapped = sanitize_lock(holder, recorder)
        assert isinstance(holder._lock, SanitizedLock)
        assert wrapped.class_name == "Holder._lock"
        assert sanitize_lock(holder, recorder) is wrapped


class TestDeploymentIntegration:
    def test_sanitized_deployment_runs_and_stays_within_static_graph(self):
        def add(x, y):
            return x + y

        with LocalDeployment(sanitize_locks=True) as deployment:
            client = deployment.client()
            ep = deployment.create_endpoint("sanitized", nodes=1)
            fid = client.register_function(add)
            future = client.submit(fid, ep, 2, 3)
            assert future.result(timeout=30) == 5
            recorder = deployment.lock_recorder
            assert recorder is not None
            assert recorder.acquisitions > 0

        sources = [load_source(p, str(p.relative_to(REPO_ROOT)),
                               module_name_for(p))
                   for p in iter_python_files(REPO_ROOT / "src")]
        # every nesting escapes the (empty) static edge set, same-class
        # instance pairs included
        assert recorder.escapes(sources) == []

    def test_unsanitized_deployment_has_no_recorder(self):
        with LocalDeployment() as deployment:
            assert deployment.lock_recorder is None

    def test_plain_deployment_never_imports_the_analyzer(self):
        """A deployment that does not sanitize pays nothing for the
        linter: no ``repro.analysis`` module is loaded."""
        code = (
            "import sys\n"
            "import repro.fabric\n"
            "from repro.fabric import LocalDeployment\n"
            "LocalDeployment().shutdown()\n"
            "loaded = sorted(m for m in sys.modules\n"
            "                if m.startswith('repro.analysis'))\n"
            "assert not loaded, loaded\n")
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_sanitized_deployment_and_chaos_world_get_all_three_recorders(self):
        from repro.analysis.sanitizer import AccessRecorder
        from repro.chaos import ChaosWorld

        world = ChaosWorld(seed=3, sanitize_locks=True)
        try:
            deployments = [world.deployment]
            with LocalDeployment(sanitize_locks=True) as plain:
                deployments.append(plain)
                for deployment in deployments:
                    assert isinstance(deployment.lock_recorder,
                                      LockOrderRecorder)
                    assert isinstance(deployment.protocol_recorder,
                                      ProtocolRecorder)
                    assert isinstance(deployment.access_recorder,
                                      AccessRecorder)
        finally:
            world.close()


class TestProtocolRecorderUnits:
    def test_sanitized_events_balance_unsubscribes(self):
        from repro.observability.events import EventSpine

        recorder = ProtocolRecorder()
        events = sanitize_events(EventSpine(), recorder)
        assert sanitize_events(events, recorder) is events
        token = events.subscribe(lambda source, kind, fields: None)
        assert events.unsubscribe(token) is True
        # Idempotent second unsubscribe must not count as an event.
        assert events.unsubscribe(token) is False
        assert recorder.count("subscription", "subscribe") == 1
        assert recorder.count("subscription", "unsubscribe") == 1


class TestProtocolRecorderIntegration:
    def test_runtime_events_stay_within_static_sites(self):
        """The acceptance gate: every (protocol, verb) pair a sanitized
        deployment observes has a lexical site the static engine
        analyzed, and the balance law the checks promise holds."""

        def add(x, y):
            return x + y

        with LocalDeployment(sanitize_locks=True) as deployment:
            client = deployment.client()
            ep = deployment.create_endpoint("protocols", nodes=1)
            fid = client.register_function(add)
            # The monitors are the spine's subscribers (a client future
            # is a waiter on the task record, not a token).
            log = TaskEventLog()
            log.attach(deployment.service)
            assert client.submit(fid, ep, 2, 3).result(timeout=30) == 5
            with client.executor(ep) as pool:
                assert pool.submit(fid, 4, 5).result(timeout=30) == 9
            log.detach()
            assert len(log) == 2
            recorder = deployment.protocol_recorder
            assert recorder is not None
            observed = recorder.observed()
            assert ("subscription", "subscribe") in observed
            assert ("subscription", "unsubscribe") in observed
            assert ("stream", "subscribe") in observed
            assert ("stream", "close") in observed
            assert (recorder.count("subscription", "unsubscribe")
                    <= recorder.count("subscription", "subscribe"))

        sources = [load_source(p, str(p.relative_to(REPO_ROOT)),
                               module_name_for(p))
                   for p in iter_python_files(REPO_ROOT / "src")]
        sites = protocol_sites(sources)
        for protocol, verb in sorted(observed):
            assert sites[protocol].get(verb), (
                f"runtime event ({protocol}, {verb}) has no static site")
        assert recorder.escapes(sources) == []

    def test_unsanitized_deployment_has_no_protocol_recorder(self):
        with LocalDeployment() as deployment:
            assert deployment.protocol_recorder is None


class TestAccessRecorderUnits:
    """The thread-role runtime twin: class-swap tracking, role tagging,
    exact counts, and idempotency."""

    def _tracked_counter(self, recorder):
        from repro.analysis.sanitizer import sanitize_access

        class Counter:
            def __init__(self):
                self.value = 0
                self.untracked = 0

            def bump(self):
                self.value += 1

        counter = Counter()
        sanitize_access(counter, recorder, ("value",), class_name="Counter")
        return counter

    def test_reads_and_writes_tagged_with_thread_role(self):
        from repro.analysis.sanitizer import AccessRecorder

        recorder = AccessRecorder()
        counter = self._tracked_counter(recorder)
        counter.bump()          # read + write from MainThread
        _ = counter.value       # read
        counter.untracked += 1  # not tracked

        observed = recorder.observed_roles()
        assert set(observed) == {"Counter.value"}
        assert observed["Counter.value"] == frozenset({"main"})
        kinds = {kind for (_, _, kind) in recorder.counts()}
        assert kinds == {"read", "write"}

    def test_cross_role_attrs_needs_two_roles(self):
        from repro.analysis.sanitizer import AccessRecorder

        recorder = AccessRecorder()
        counter = self._tracked_counter(recorder)
        counter.bump()
        assert recorder.cross_role_attrs() == set()

        worker = threading.Thread(target=counter.bump, name="worker-9")
        worker.start()
        worker.join()
        assert recorder.cross_role_attrs() == {"Counter.value"}
        assert recorder.cross_role_writers() == {"Counter.value"}
        assert recorder.observed_roles()["Counter.value"] == frozenset(
            {"main", "worker"})

    def test_unknown_thread_names_collapse_onto_callback(self):
        from repro.analysis.sanitizer import AccessRecorder

        recorder = AccessRecorder()
        counter = self._tracked_counter(recorder)
        anon = threading.Thread(target=counter.bump)  # "Thread-N"
        anon.start()
        anon.join()
        assert recorder.observed_roles()["Counter.value"] == frozenset(
            {"callback"})

    def test_counts_are_exact_per_role_and_kind(self):
        from repro.analysis.sanitizer import AccessRecorder

        recorder = AccessRecorder()
        counter = self._tracked_counter(recorder)
        for _ in range(30):
            counter.bump()
        assert recorder.counts() == {
            ("Counter.value", "main", "read"): 30,
            ("Counter.value", "main", "write"): 30}

    def test_sanitize_access_is_idempotent(self):
        from repro.analysis.sanitizer import AccessRecorder, sanitize_access

        recorder = AccessRecorder()
        counter = self._tracked_counter(recorder)
        cls = type(counter)
        sanitize_access(counter, recorder, ("value",), class_name="Counter")
        assert type(counter) is cls

    def test_unsanitized_deployment_has_no_access_recorder(self):
        with LocalDeployment() as deployment:
            assert deployment.access_recorder is None
