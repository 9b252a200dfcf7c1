"""Unit tests for channels: ordering, latency, failures."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ChannelClosed, Disconnected
from repro.transport import Channel, Network

WAIT = 30.0


class TestBasicMessaging:
    def test_bidirectional_send_recv(self, clock):
        ch = Channel(clock=clock)
        ch.left.send("ping")
        ch.right.send("pong")
        assert ch.right.recv() == "ping"
        assert ch.left.recv() == "pong"

    def test_ordering_preserved(self, clock):
        ch = Channel(clock=clock)
        for i in range(10):
            ch.left.send(i)
        assert ch.right.recv_all_ready() == list(range(10))

    def test_poll_empty_returns_none(self, clock):
        ch = Channel(clock=clock)
        assert ch.right.recv(timeout=0.0) is None

    def test_counters(self, clock):
        ch = Channel(clock=clock)
        ch.left.send("a")
        ch.right.recv()
        assert ch.left.sent_count == 1
        assert ch.right.received_count == 1

    def test_pending(self, clock):
        ch = Channel(clock=clock)
        ch.left.send("a")
        ch.left.send("b")
        assert ch.right.pending() == 2


class TestLatency:
    def test_message_not_ripe_before_latency(self, clock):
        ch = Channel(clock=clock, latency=0.5)
        ch.left.send("late")
        assert ch.right.recv(timeout=0.0) is None
        clock.advance(0.4)
        assert ch.right.recv(timeout=0.0) is None
        clock.advance(0.2)
        assert ch.right.recv(timeout=0.0) == "late"

    def test_callable_latency(self, clock):
        values = iter([1.0, 0.1])
        ch = Channel(clock=clock, latency=lambda: next(values))
        ch.left.send("slow")
        ch.left.send("fast")
        clock.advance(0.2)
        # The fast message ripens first even though sent second.
        assert ch.right.recv_all_ready() == ["fast"]
        clock.advance(1.0)
        assert ch.right.recv_all_ready() == ["slow"]

    def test_real_blocking_recv_waits_out_latency(self):
        ch = Channel(latency=0.05)
        ch.left.send("x")
        assert ch.right.recv(timeout=2.0) == "x"

    def test_negative_latency_clamped(self, clock):
        ch = Channel(clock=clock, latency=lambda: -5.0)
        ch.left.send("now")
        assert ch.right.recv(timeout=0.0) == "now"


class TestFailures:
    def test_send_from_disconnected_end_raises(self, clock):
        ch = Channel(clock=clock)
        ch.left.disconnect()
        with pytest.raises(Disconnected):
            ch.left.send("x")

    def test_send_to_disconnected_peer_drops(self, clock):
        ch = Channel(clock=clock)
        ch.right.disconnect()
        assert ch.left.send("lost") is False
        assert ch.dropped_count == 1

    def test_disconnect_drops_inbox(self, clock):
        ch = Channel(clock=clock)
        ch.left.send("inflight")
        ch.right.disconnect()
        ch.right.reconnect()
        assert ch.right.recv(timeout=0.0) is None

    def test_disconnect_keep_inbox(self, clock):
        ch = Channel(clock=clock)
        ch.left.send("kept")
        ch.right.disconnect(drop_inbox=False)
        ch.right.reconnect()
        assert ch.right.recv(timeout=0.0) == "kept"

    def test_reconnect_restores_flow(self, clock):
        ch = Channel(clock=clock)
        ch.right.disconnect()
        ch.right.reconnect()
        assert ch.left.send("hello")
        assert ch.right.recv(timeout=0.0) == "hello"

    def test_deterministic_drops(self, clock):
        ch = Channel(clock=clock, drop_probability=0.5, seed=42)
        sent = [ch.left.send(i) for i in range(100)]
        received = ch.right.recv_all_ready()
        assert len(received) == sum(sent)
        assert 20 < len(received) < 80  # statistically sane
        assert ch.dropped_count == 100 - len(received)

    def test_closed_end_raises(self, clock):
        ch = Channel(clock=clock)
        ch.left.close()
        with pytest.raises(ChannelClosed):
            ch.left.send("x")
        with pytest.raises(ChannelClosed):
            ch.left.recv()

    def test_reconnect_after_close_raises(self, clock):
        ch = Channel(clock=clock)
        ch.left.close()
        with pytest.raises(ChannelClosed):
            ch.left.reconnect()

    def test_invalid_drop_probability(self):
        with pytest.raises(ValueError):
            Channel(drop_probability=1.5)


class TestNetwork:
    def test_creates_channels_with_default_latency(self, clock):
        net = Network(clock=clock, default_latency=1.0)
        ch = net.create_channel("a")
        ch.left.send("x")
        assert ch.right.recv(timeout=0.0) is None
        clock.advance(1.1)
        assert ch.right.recv(timeout=0.0) == "x"

    def test_per_channel_latency_override(self, clock):
        net = Network(clock=clock, default_latency=1.0)
        ch = net.create_channel("fast", latency=0.0)
        ch.left.send("x")
        assert ch.right.recv(timeout=0.0) == "x"

    def test_close_all(self, clock):
        net = Network(clock=clock)
        ch = net.create_channel("a")
        net.close_all()
        with pytest.raises(ChannelClosed):
            ch.left.send("x")

    def test_total_dropped(self, clock):
        net = Network(clock=clock)
        ch = net.create_channel("a")
        ch.right.disconnect()
        ch.left.send("lost")
        assert net.total_dropped() == 1


class CountingCondition(threading.Condition):
    """A channel end's ``_arrival`` that counts what is asked of it and
    says when a receiver has started to wait."""

    def __init__(self, lock):
        super().__init__(lock)
        self.calls = 0
        self.waiting = threading.Event()
        self.woken = threading.Event()

    def wait(self, timeout=None):
        self.calls += 1
        self.waiting.set()  # still holding the end's lock
        notified = super().wait(timeout)
        if notified:
            self.woken.set()
        return notified

    def notify_all(self):
        self.calls += 1
        super().notify_all()


class TestBlockingRecv:
    """A blocked ``recv`` is woken by a delivery, a disconnect and a
    close; a delivery nobody blocks for leaves the condition alone."""

    def blocked(self, end):
        """Start a ``recv`` on ``end``; return the outcome and thread
        once it waits (``end``'s lock is taken only after it does)."""
        arrival = end._arrival = CountingCondition(end._lock)
        outcome = {}

        def receive():
            try:
                outcome["message"] = end.recv(timeout=WAIT)
            except ChannelClosed as exc:
                outcome["raised"] = exc

        thread = threading.Thread(target=receive, name="receiver")
        thread.start()
        assert arrival.waiting.wait(WAIT)
        return arrival, outcome, thread

    def test_a_delivery_wakes_a_blocked_recv(self):
        channel = Channel()
        _arrival, outcome, thread = self.blocked(channel.right)
        channel.left.send("hello")
        thread.join(WAIT)
        assert outcome == {"message": "hello"}

    def test_a_disconnect_wakes_a_blocked_recv(self):
        channel = Channel()
        arrival, outcome, thread = self.blocked(channel.right)
        channel.right.disconnect()
        try:
            assert arrival.woken.wait(WAIT)
        finally:
            channel.right.close()
            thread.join(WAIT)
        assert isinstance(outcome.get("raised"), ChannelClosed)

    def test_a_close_wakes_a_blocked_recv(self):
        channel = Channel()
        _arrival, outcome, thread = self.blocked(channel.right)
        channel.right.close()
        thread.join(WAIT)
        assert isinstance(outcome.get("raised"), ChannelClosed)

    def test_a_delivery_with_no_receiver_blocked_leaves_the_condition_alone(
            self):
        channel = Channel()
        end = channel.right
        arrival = end._arrival = CountingCondition(end._lock)
        channel.left.send("one")
        channel.left.send_many(("two", "three"))
        assert end.recv_all_ready() == ["one", "two", "three"]
        assert arrival.calls == 0
