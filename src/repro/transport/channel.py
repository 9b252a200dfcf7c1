"""Bidirectional in-process channels with latency and failure injection.

A :class:`Channel` joins two :class:`ChannelEnd` objects.  Each end has an
inbox ordered by *delivery time*: a send stamps the message with
``now + latency`` and the receiving end only surfaces messages whose
delivery time has arrived.  Under the wall clock a blocking ``recv`` waits
out the remaining latency, so injected latency is physically real in the
live fabric; under a simulation clock the DES advances time instead.

Failure injection supports the paper's fault-tolerance experiments
(section 5.4):

* ``disconnect()`` — the end goes down; sends toward it are dropped (as a
  crashed process would drop them) and peers observe missing heartbeats.
* ``reconnect()`` — the end comes back; queued *new* traffic flows again.
* ``drop_probability`` — random message loss for stress testing the
  at-least-once delivery machinery.

An end's inbox is under a C ``Lock``; a delivery notifies the
``Condition`` of a blocking ``recv`` only while one waits.
"""

from __future__ import annotations

import heapq
import itertools
import random
import threading
import time
from typing import Any, Callable

from repro.errors import ChannelClosed, Disconnected
from repro.observability.events import EventSpine


class ChannelEnd:
    """One side of a channel: ``send`` to the peer, ``recv`` from it."""

    def __init__(self, name: str, clock: Callable[[], float]):
        self.name = name
        self._clock = clock
        self._peer: "ChannelEnd | None" = None
        self._channel: "Channel | None" = None
        self._lock = threading.Lock()
        self._arrival = threading.Condition(self._lock)
        self._receivers = 0  # guarded-by: self._lock
        self._inbox: list[tuple[float, int, Any]] = []
        self._seq = itertools.count()
        self._connected = True
        self._closed = False
        # Serial-link model: the instant this end's *incoming* link is
        # free again.  Each transfer occupies the link for the channel's
        # ``transfer_cost`` seconds, so N individual sends serialize while
        # one coalesced batch pays the cost once (the per-message framing/
        # syscall overhead real message fabrics amortize with batching).
        self._busy_until = 0.0  # guarded-by: self._lock
        self.sent_count = 0  # guarded-by: self._lock
        self.received_count = 0  # guarded-by: self._lock
        # Wakeup hook: called with the delivery time of each arriving
        # transfer, *after* the inbox lock is released.  Event-driven
        # receivers point this at Wakeup.set_at so they block on arrival
        # instead of sleep-polling.
        self.wakeup: Callable[[float], None] | None = None

    @property
    def transfer_cost(self) -> float:
        """The bound channel's per-transfer link occupancy (0 if unbound).

        Senders sizing coalesced waves (the forwarder's adaptive Nagle
        policy) read this to scale their hold budget to what a transfer
        actually costs on this link.
        """
        channel = self._channel
        return channel.transfer_cost if channel is not None else 0.0

    # -- wiring -----------------------------------------------------------
    def _bind(self, peer: "ChannelEnd", channel: "Channel") -> None:
        self._peer = peer
        self._channel = channel

    def _lost(self, reason: str, count: int) -> None:
        """Account one lost transfer of ``count`` messages."""
        channel = self._channel
        assert channel is not None
        channel.dropped_count += count
        events = channel._events
        if events:
            events.emit("channel", "channel.dropped", {
                "channel": channel.name, "end": self.name,
                "reason": reason, "count": count})

    # -- sending ------------------------------------------------------------
    def send(self, message: Any) -> bool:
        """Send ``message`` to the peer.

        Returns ``True`` if the message was handed to the network.  Sends
        from a disconnected end raise :class:`Disconnected`; messages
        toward a disconnected peer are silently dropped (the network
        accepted them but the crashed process never sees them), mirroring
        how a real ZeroMQ peer failure manifests.
        """
        return self.send_many((message,)) == 1

    def send_many(self, messages: Any) -> int:
        """Send several messages as *one* transfer.

        All messages share a single latency sample and a single
        transfer-cost occupancy of the link, and are delivered together —
        the coalescing primitive batch envelopes and piggybacked control
        traffic (heartbeat + advertisement) ride on.  A random loss drops
        the whole transfer, as it would a single framed batch.

        Returns the number of messages handed to the network (all of
        them, or 0).
        """
        messages = tuple(messages)
        count = len(messages)
        if not count:
            return 0
        if self._closed:
            raise ChannelClosed(f"channel end {self.name} is closed")
        if not self._connected:
            raise Disconnected(f"channel end {self.name} is disconnected")
        assert self._peer is not None and self._channel is not None
        channel = self._channel
        if channel.rng.random() < channel.drop_probability:
            self._lost("random-loss", count)
            return 0
        if not self._peer._connected or self._peer._closed:
            self._lost("peer-down", count)
            return 0
        latency = channel.sample_latency()
        self._peer._deliver_batch(self._clock(), latency,
                                  channel.transfer_cost, messages)
        with self._lock:
            self.sent_count += count
        if count > 1:
            channel.coalesced_count += count
        return count

    def _deliver_batch(self, now: float, latency: float, cost: float,
                       messages: tuple) -> None:
        """Deliver one transfer: occupy the incoming link for ``cost``
        seconds past any transfer already in progress, then add the
        propagation ``latency``."""
        with self._lock:
            if cost > 0.0:
                start = max(now, self._busy_until)
                self._busy_until = start + cost
                deliver_at = start + cost + latency
            else:
                deliver_at = now + latency
            for message in messages:
                heapq.heappush(self._inbox,
                               (deliver_at, next(self._seq), message))
            if self._receivers:
                self._arrival.notify_all()
        # Fire the wakeup outside the inbox lock: the hook takes the
        # receiver's wakeup lock and must stay a leaf acquisition.
        wakeup = self.wakeup
        if wakeup is not None:
            wakeup(deliver_at)

    # -- receiving -------------------------------------------------------------
    def recv(self, timeout: float | None = 0.0) -> Any | None:
        """Receive the next ripe message.

        Parameters
        ----------
        timeout:
            ``0`` polls, ``None`` blocks indefinitely, otherwise blocks up
            to ``timeout`` seconds (wall-clock fabrics only).
        """
        deadline = None if timeout is None else self._clock() + (timeout or 0.0)
        with self._lock:
            while True:
                if self._closed:
                    raise ChannelClosed(f"channel end {self.name} is closed")
                now = self._clock()
                if self._inbox and self._inbox[0][0] <= now:
                    _, _, message = heapq.heappop(self._inbox)
                    self.received_count += 1
                    return message
                # Determine how long to wait: until the next message ripens,
                # the deadline, or a notification.
                wait = None
                if self._inbox:
                    wait = self._inbox[0][0] - now
                if deadline is not None:
                    remaining = deadline - now
                    if remaining <= 0:
                        return None
                    wait = remaining if wait is None else min(wait, remaining)
                if timeout == 0.0 and (wait is None or wait > 0):
                    # Pure poll: nothing ripe right now.
                    if not self._inbox or self._inbox[0][0] > now:
                        return None
                self._receivers += 1
                self._arrival.wait(wait)
                self._receivers -= 1

    def recv_all_ready(self, max_messages: int | None = None) -> list[Any]:
        """Drain ripe messages without blocking.

        ``max_messages`` bounds the drain so one flooded channel cannot
        monopolize a component's step (heartbeat/liveness handling runs
        between drains); ``None`` drains everything ripe.
        """
        messages: list[Any] = []
        with self._lock:
            inbox = self._inbox
            if not inbox:  # a loop's drain of an idle link reads no clock
                return messages
            now = self._clock()
            while inbox and inbox[0][0] <= now:
                if max_messages is not None and len(messages) >= max_messages:
                    break
                messages.append(heapq.heappop(inbox)[2])
            self.received_count += len(messages)
        return messages

    def pending(self) -> int:
        """Messages queued for this end (ripe or still in flight)."""
        with self._lock:
            return len(self._inbox)

    # -- failure injection ---------------------------------------------------------
    @property
    def connected(self) -> bool:
        return self._connected and not self._closed

    def disconnect(self, drop_inbox: bool = True) -> None:
        """Simulate this end's process dying or losing the network.

        With ``drop_inbox`` (default) any undelivered messages are lost,
        as they would be in a crashed process's memory.
        """
        with self._lock:
            self._connected = False
            if drop_inbox:
                if self._channel is not None and self._inbox:
                    self._lost("disconnect", len(self._inbox))
                self._inbox.clear()
            self._arrival.notify_all()

    def reconnect(self) -> None:
        with self._lock:
            if self._closed:
                raise ChannelClosed(f"channel end {self.name} is closed")
            self._connected = True
            self._arrival.notify_all()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._inbox.clear()
            self._arrival.notify_all()


class Channel:
    """A pair of linked channel ends with a shared latency/failure model.

    Parameters
    ----------
    name:
        Diagnostic label.
    clock:
        Shared time source for both ends.
    latency:
        Fixed one-way latency in seconds, or a zero-argument callable
        sampling a latency per message.
    drop_probability:
        Probability an accepted message is lost in transit.
    transfer_cost:
        Seconds each *transfer* occupies the link (per-message framing /
        syscall overhead).  Individual sends serialize behind each other;
        a coalesced ``send_many`` or batch envelope pays it once — the
        overhead the paper's batching (§4.7, §5.5.2) amortizes.  ``0``
        (default) models an infinitely fast link, the pre-batching
        behavior.
    seed:
        Seed for the channel's private RNG (reproducible drops/jitter).
    events:
        The deployment's event spine: every lost transfer emits
        ``channel.dropped``.
    """

    def __init__(
        self,
        name: str = "channel",
        clock: Callable[[], float] | None = None,
        latency: float | Callable[[], float] = 0.0,
        drop_probability: float = 0.0,
        transfer_cost: float = 0.0,
        seed: int | None = None,
        events: EventSpine | None = None,
    ):
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop_probability must be in [0, 1)")
        if transfer_cost < 0.0:
            raise ValueError("transfer_cost must be non-negative")
        self.name = name
        clock = clock or time.monotonic
        self.set_latency(latency)
        self.drop_probability = drop_probability
        self.transfer_cost = transfer_cost
        self.rng = random.Random(seed)
        self.dropped_count = 0
        # Messages that crossed the channel inside a coalesced transfer.
        self.coalesced_count = 0
        self._events = events
        self.left = ChannelEnd(f"{name}.left", clock)
        self.right = ChannelEnd(f"{name}.right", clock)
        self.left._bind(self.right, self)
        self.right._bind(self.left, self)

    def set_latency(self, latency: float | Callable[[], float]) -> None:
        """Swap the latency model at runtime (chaos latency spikes)."""
        self._latency = latency
        # Clamped once; ``None``: a model sampled per transfer.
        self._fixed = None if callable(latency) else max(0.0, float(latency))

    def sample_latency(self) -> float:
        if self._fixed is not None:
            return self._fixed
        return max(0.0, float(self._latency()))

    def close(self) -> None:
        self.left.close()
        self.right.close()


class Network:
    """Factory for channels sharing a clock and default latency model.

    Used by the live fabric to wire service↔endpoint↔manager↔worker links
    with realistic latencies (e.g. 18.2 ms WAN to the service, <1 ms
    intra-site, per paper section 5.1).  Every channel it creates emits
    its losses on ``events``, the deployment's spine.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        default_latency: float | Callable[[], float] = 0.0,
        seed: int | None = None,
        events: EventSpine | None = None,
    ):
        self._clock = clock or time.monotonic
        self._events = events
        self._default_latency = default_latency
        self._seed_counter = itertools.count(seed if seed is not None else 0)
        self._use_seed = seed is not None
        self.channels: list[Channel] = []

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    def create_channel(
        self,
        name: str,
        latency: float | Callable[[], float] | None = None,
        drop_probability: float = 0.0,
        transfer_cost: float = 0.0,
    ) -> Channel:
        channel = Channel(
            name=name,
            clock=self._clock,
            latency=self._default_latency if latency is None else latency,
            drop_probability=drop_probability,
            transfer_cost=transfer_cost,
            seed=next(self._seed_counter) if self._use_seed else None,
            events=self._events,
        )
        self.channels.append(channel)
        return channel

    def find(self, name: str) -> Channel | None:
        """The channel created under ``name``, or ``None``."""
        for channel in self.channels:
            if channel.name == name:
                return channel
        return None

    def close_all(self) -> None:
        for channel in self.channels:
            channel.close()

    def total_dropped(self) -> int:
        return sum(c.dropped_count for c in self.channels)
