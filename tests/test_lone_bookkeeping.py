"""A lone task pays only the bookkeeping that is due or that arrived.

Counts per task, taken by wrapping classes from outside over ``SERIAL``
serial ``client.submit(...).result()`` calls after warm-up (the
``serial_rtt`` shape: one endpoint, one node of four workers, default
heartbeats):

* liveness scans (``HeartbeatTracker.lost_components``) and the agent's
  credit-window sum run when a deadline or a beat is due, not per step;
* ``HeartbeatTracker.is_alive`` is the agent's one look per scheduled
  task plus one per due beat;
* the link toward the agent is read at most once per forwarder step,
  and only with a wave to send;
* admission looks no instrument up by name;
* recording a number takes no histogram lock; the bulk fold that keeps
  the unfolded backlog bounded is the only record-path acquisition.

Plus what scanning only when due must not move, on an injected clock:
a silent manager or agent is still declared lost at the first step at
or after its deadline; and the race the liveness scan used to lose,
iterating the tracker while another thread forgets and re-beats.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import pytest

from repro import LocalDeployment
from repro.auth import AuthService
from repro.core.forwarder import Forwarder
from repro.core.service import FuncXService
from repro.endpoint.agent import FuncXAgent
from repro.endpoint.config import EndpointConfig
from repro.metrics.registry import Histogram, MetricsRegistry
from repro.transport.channel import Channel, ChannelEnd
from repro.transport.heartbeat import HeartbeatTracker
from repro.transport.messages import Heartbeat, Registration

WAIT = 30.0
SERIAL = 200


def double(x):
    return 2 * x


class CountingLock:
    """A histogram's lock that counts acquisitions made while its own
    thread is inside a record call."""

    def __init__(self, lock, counts, recording):
        self._lock = lock
        self._counts = counts
        self._recording = recording

    def _note(self):
        if getattr(self._recording, "depth", 0):
            self._counts["histogram_lock"] += 1

    def __enter__(self):
        self._note()
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)

    def acquire(self, *args, **kwargs):
        self._note()
        return self._lock.acquire(*args, **kwargs)

    def release(self):
        return self._lock.release()

    def locked(self):
        return self._lock.locked()


@pytest.fixture
def counts(monkeypatch):
    """Calls per wrapped method, plus histogram records and the lock
    acquisitions made on their path."""
    counts: Counter = Counter()

    def count(cls, name, key):
        inner = getattr(cls, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(HeartbeatTracker, "lost_components", "lost_components")
    count(HeartbeatTracker, "is_alive", "is_alive")
    count(FuncXAgent, "credit_window", "credit_window")
    count(Forwarder, "step", "forwarder_steps")
    link_free_at = ChannelEnd.link_free_at.fget

    def counted_link_read(self):
        counts["link_reads"] += 1
        return link_free_at(self)

    monkeypatch.setattr(ChannelEnd, "link_free_at", property(counted_link_read))
    count(MetricsRegistry, "_get_or_create", "get_or_create")

    recording = threading.local()
    observe_many = Histogram.observe_many

    def counted_observe_many(self, values):
        values = list(values)
        counts["records"] += len(values)
        recording.depth = getattr(recording, "depth", 0) + 1
        try:
            return observe_many(self, values)
        finally:
            recording.depth -= 1

    def counted_observe(self, value):
        return counted_observe_many(self, (value,))

    monkeypatch.setattr(Histogram, "observe_many", counted_observe_many)
    monkeypatch.setattr(Histogram, "observe", counted_observe)
    counts.recording = recording
    return counts


def watch_histogram_locks(registry, counts):
    """Fold every histogram, then count its record-path acquisitions."""
    for metric in registry.instruments():
        if isinstance(metric, Histogram):
            assert metric.count >= 0            # a read folds the backlog
            metric._lock = CountingLock(metric._lock, counts, counts.recording)


class TestLoneTaskBookkeeping:
    def test_serial_tasks_pay_only_what_is_due(self, counts):
        config = EndpointConfig(workers_per_node=4)
        period = config.heartbeat_period
        with LocalDeployment() as deployment:
            endpoint_id = deployment.create_endpoint(
                "lone", nodes=1, config=config)
            client = deployment.client()
            function_id = client.register_function(double)
            for i in range(5):   # warm: registration, deploy, first body
                assert client.submit(function_id, endpoint_id, i).result(
                    timeout=WAIT) == 2 * i
            watch_histogram_locks(deployment.service.metrics, counts)
            counts.clear()
            started = time.monotonic()
            for i in range(SERIAL):
                assert client.submit(function_id, endpoint_id, i).result(
                    timeout=WAIT) == 2 * i
            elapsed = time.monotonic() - started
            seen = dict(counts)
        text = f"{seen} over {elapsed:.2f} s"
        # One agent beat (and its window sum) per period at most.
        beats_due = int(elapsed / period) + 1
        assert seen.get("lost_components", 0) <= 0.05 * SERIAL, text
        assert seen.get("credit_window", 0) <= min(
            0.05 * SERIAL, beats_due), text
        assert seen.get("is_alive", 0) <= SERIAL + beats_due, text
        assert seen.get("link_reads", 0) <= min(
            SERIAL, seen["forwarder_steps"]), text
        assert seen.get("get_or_create", 0) == 0, text
        assert seen["records"] >= 10 * SERIAL, text
        assert seen.get("histogram_lock", 0) <= 0.1 * SERIAL, text


class TestDetectionInstants:
    """Deadline 3 s (period 1 s x grace 3); the boundary is inclusive."""

    def test_agent_declares_each_manager_lost_at_its_deadline(self, clock):
        config = EndpointConfig(heartbeat_period=1.0, heartbeat_grace=3)
        agent = FuncXAgent("ep", Channel(clock=clock).right, config=config,
                           clock=clock)
        ends = {}
        for name in ("m1", "m2", "m3"):
            channel = Channel(clock=clock)
            agent.attach_manager(name, channel.right)
            ends[name] = channel.left

        def at(when, *beating):
            clock.advance(when - clock.now)
            for name in beating:
                ends[name].send(Heartbeat(sender=name))
            agent.step()
            return agent.heartbeats.tracked()

        for name in ends:
            ends[name].send(Registration(sender=name, component_type="manager",
                                         capacity=1))
            if name == "m1":
                assert at(0.0) == ["m1"]
        assert at(1.0) == ["m1", "m2", "m3"]        # registered after a scan
        agent.detach_manager("m3")                  # off-loop forget
        assert at(2.5, "m2") == ["m1", "m2"]
        assert at(3.0) == ["m1", "m2"]              # m1 at its deadline
        assert at(3.001) == ["m2"]                  # ... and just past it
        assert at(5.5) == ["m2"]                    # m2 refreshed at 2.5
        assert at(5.501) == []

    def test_forwarder_declares_the_agent_lost_at_its_deadline(self, clock):
        service = FuncXService(auth=AuthService(clock=clock), clock=clock)
        _identity, token = service.auth.endpoint_client_flow("ep")
        endpoint_id = service.register_endpoint(token.token, name="ep")
        channel = Channel(clock=clock)
        forwarder = Forwarder(service, endpoint_id, channel.left,
                              heartbeat_period=1.0, heartbeat_grace=3,
                              clock=clock)

        def at(when, *messages):
            clock.advance(when - clock.now)
            for message in messages:
                channel.right.send(message)
            forwarder.step()
            return forwarder.agent_connected

        assert at(0.0, Registration(sender="agent:x",
                                    component_type="endpoint"))
        assert at(2.0, Heartbeat(sender="agent:x"))
        assert at(4.5, Heartbeat(sender="agent:other"))   # not the agent's
        assert at(5.0)
        assert not at(5.001)
        assert at(6.0, Heartbeat(sender="agent:x"))
        assert at(9.0) and not at(9.001)
        service.close()


NAMES = [f"m{i}" for i in range(200)]
SILENT = set(NAMES[::2])         # last beat at 0: lost at t = 10
CHURNED = NAMES[::7]             # forgotten and re-beaten, silent, in a loop


def churned_tracker():
    """A tracker at t = 10 with half its 200 managers lost."""
    tracker = HeartbeatTracker(period=1.0, grace_periods=1,
                               clock=lambda: 10.0)
    for name in NAMES:
        tracker.beat(name, timestamp=0.0 if name in SILENT else None)
    return tracker


def scan_while_churning(tracker, scan, rounds=300):
    """``scan()`` ``rounds`` times while another thread forgets and
    re-beats ``CHURNED``; returns what each call gave or raised."""
    stop = threading.Event()

    def churn():
        while not stop.is_set():
            for name in CHURNED:
                tracker.forget(name)
                tracker.beat(name, timestamp=0.0)

    outcomes = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    churner = threading.Thread(target=churn)
    churner.start()
    try:
        for _ in range(rounds):
            try:
                outcomes.append(scan())
            except RuntimeError as exc:
                outcomes.append(exc)
    finally:
        stop.set()
        churner.join(WAIT)
        sys.setswitchinterval(interval)
    return outcomes


class TestTrackerIterationRace:
    def test_liveness_scans_survive_concurrent_forget_and_beat(self):
        tracker = churned_tracker()
        outcomes = scan_while_churning(tracker, lambda: (
            tracker.lost_components(), tracker.alive_components()))
        assert [o for o in outcomes if isinstance(o, Exception)] == []
        for lost, alive in outcomes:
            assert set(lost) <= SILENT | set(CHURNED)
            assert not set(alive) & SILENT

    def test_oldest_beat_survives_concurrent_forget_and_beat(self):
        tracker = churned_tracker()
        outcomes = scan_while_churning(
            tracker, lambda: tracker.oldest_beat(default=10.0))
        assert outcomes == [0.0] * len(outcomes)
