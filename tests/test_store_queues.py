"""Unit tests for the reliable (at-least-once) queue and its lane-fair
subclass."""

from __future__ import annotations

import threading

import pytest

from repro.store import ReliableQueue
from repro.store.queues import FairReliableQueue


def expire(q, clock) -> int:
    """Requeue every lease past its deadline, as the forwarder does;
    returns how many went back."""
    return len(q.requeue(q.leased(due=clock()))[0])


class TestBasicFifo:
    def test_put_lease_ack(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("a")
        (lease,) = q.lease_many(1)
        assert lease.item == "a"
        assert q.ack(lease.lease_id)
        assert len(q) == 0 and q.in_flight == 0

    def test_fifo_order(self, clock):
        q = ReliableQueue(clock=clock)
        for item in "abc":
            q.put(item)
        assert [q.lease_many(1)[0].item for _ in range(3)] == ["a", "b", "c"]

    def test_empty_poll_returns_none(self, clock):
        q = ReliableQueue(clock=clock)
        assert q.lease_many(1) == []

    def test_put_many(self, clock):
        q = ReliableQueue(clock=clock)
        assert q.put_many(range(5)) == 5
        assert len(q) == 5

    def test_lease_many_bulk(self, clock):
        q = ReliableQueue(clock=clock)
        q.put_many(range(10))
        leases = q.lease_many(4)
        assert [l.item for l in leases] == [0, 1, 2, 3]
        assert q.in_flight == 4
        assert len(q) == 6

    def test_lease_many_drains_at_most_available(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("only")
        assert len(q.lease_many(100)) == 1

    def test_counters(self, clock):
        q = ReliableQueue(clock=clock)
        q.put_many(range(3))
        leases = q.lease_many(3)
        q.ack(leases[0].lease_id)
        q.requeue([leases[1].lease_id])
        assert q.total_enqueued == 3
        assert q.total_acked == 1


class TestRedelivery:
    def test_nack_returns_to_front(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("a")
        q.put("b")
        (lease,) = q.lease_many(1)
        assert lease.item == "a"
        q.requeue([lease.lease_id])
        assert q.lease_many(1)[0].item == "a"  # redelivered before b

    def test_nack_increments_delivery_count(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("a")
        (lease,) = q.lease_many(1)
        q.requeue([lease.lease_id])
        (lease2,) = q.lease_many(1)
        assert lease2.deliveries == 2
        assert q.total_redelivered == 1

    def test_double_ack_is_false(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("a")
        (lease,) = q.lease_many(1)
        assert q.ack(lease.lease_id)
        assert not q.ack(lease.lease_id)
        assert q.requeue([lease.lease_id]) == ([], [])

    def test_nack_all_preserves_age_order(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("old")
        clock.advance(1.0)
        q.put("new")
        (l1,) = q.lease_many(1)
        (l2,) = q.lease_many(1)
        assert (l1.item, l2.item) == ("old", "new")
        assert q.requeue(["new", "old"]) == (["new", "old"], [])
        assert q.lease_many(1)[0].item == "old"
        assert q.lease_many(1)[0].item == "new"

    def test_lease_timeout_requeues(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("a")
        q.lease_many(1, lease_timeout=5.0)
        clock.advance(6.0)
        assert expire(q, clock) == 1
        assert q.lease_many(1)[0].item == "a"

    def test_unexpired_lease_not_requeued(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("a")
        q.lease_many(1, lease_timeout=5.0)
        clock.advance(4.0)
        assert expire(q, clock) == 0

    def test_per_lease_timeout_override(self, clock):
        q = ReliableQueue(clock=clock)
        q.put_many(["a", "b"])
        q.lease_many(1, lease_timeout=1.0)
        q.lease_many(1)  # no timeout: never falls due
        clock.advance(2.0)
        assert q.leased(due=clock()) == ["a"]
        assert expire(q, clock) == 1


class TestBlockingAndLifecycle:
    # Nobody blocks *inside* the queue: ``lease`` never waits.  A
    # consumer parks on its own event and points ``wakeup`` at it, as
    # the forwarder and the stream delivery thread do.
    def test_blocking_lease_wakes_on_put(self):
        q = ReliableQueue()
        ready = threading.Event()
        q.wakeup = ready.set
        result = []

        def consumer():
            assert q.lease_many(1) == []  # empty: returns at once
            ready.wait(timeout=5.0)
            (lease,) = q.lease_many(1)
            result.append(lease.item if lease else None)

        t = threading.Thread(target=consumer)
        t.start()
        q.put("wake")
        t.join(timeout=5.0)
        assert result == ["wake"]

    def test_every_requeue_path_fires_the_wakeup(self, clock):
        q = ReliableQueue(clock=clock)
        fired = []
        q.wakeup = lambda: fired.append(1)
        q.put_many(["a", "b", "c"])
        assert len(fired) == 1  # one per wave, not per item
        (first,) = q.lease_many(1)
        q.requeue([first.lease_id])
        assert len(fired) == 2
        q.lease_many(3)
        assert len(q.requeue(q.leased())[0]) == 3 and len(fired) == 3
        q.lease_many(3, lease_timeout=1.0)
        clock.advance(2.0)
        assert expire(q, clock) == 3 and len(fired) == 4
        assert expire(q, clock) == 0 and len(fired) == 4
        q.lease_many(1)
        assert q.requeue(["a"], wake=False) == (["a"], []) and len(fired) == 4


class TestLeaseExpirySemantics:
    """Pin the *lazy* expiry contract around ack timing.

    A deadline passing does not by itself revoke a lease: revocation
    happens only when a consumer requeues the ids ``leased(due=now)``
    reads.  Consumers that finish late but before that may therefore
    still ack successfully — and the conservation law must hold exactly
    through every such interleaving.  A lease is named by its item, so
    an ack after the item was requeued and leased again retires the
    fresh lease: the item is done, whichever delivery finished it.
    """

    def test_ack_after_deadline_before_scan_succeeds(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("t")
        (lease,) = q.lease_many(1, lease_timeout=1.0)
        clock.advance(5.0)  # deadline long past, but nobody scanned
        assert q.ack(lease.lease_id) is True
        assert q.total_acked == 1
        assert expire(q, clock) == 0  # nothing left to revoke
        assert q.conservation_delta() == 0

    def test_ack_after_scan_is_rejected(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("t")
        (lease,) = q.lease_many(1, lease_timeout=1.0)
        clock.advance(1.0)
        assert expire(q, clock) == 1  # scan revokes the lease
        assert q.ack(lease.lease_id) is False
        assert q.total_acked == 0
        # The item is redelivered under a fresh lease with a bumped count,
        # named, like every lease, by its item.
        (redelivery,) = q.lease_many(1)
        assert redelivery.item == "t"
        assert redelivery.deliveries == 2
        assert redelivery.lease_id == lease.lease_id == "t"
        assert q.total_redelivered == 1
        assert q.conservation_delta() == 0

    def test_late_ack_retires_the_redelivered_item(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("t")
        (stale,) = q.lease_many(1, lease_timeout=1.0)
        clock.advance(2.0)
        expire(q, clock)
        (fresh,) = q.lease_many(1)
        # The stale consumer finishes after all: its ack names the item,
        # so it retires the fresh lease, once, and the fresh ack is late.
        assert q.ack(stale.lease_id) is True
        assert q.in_flight == 0
        assert q.ack(fresh.lease_id) is False
        assert q.total_acked == 1
        assert q.conservation_delta() == 0

    def test_double_ack_counts_once(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("t")
        (lease,) = q.lease_many(1)
        assert q.ack(lease.lease_id) is True
        assert q.ack(lease.lease_id) is False
        assert q.requeue([lease.lease_id]) == ([], [])  # requeue after ack also dead
        assert q.total_acked == 1
        assert q.conservation_delta() == 0

    def test_nack_then_ack_is_rejected(self, clock):
        q = ReliableQueue(clock=clock)
        q.put("t")
        (lease,) = q.lease_many(1)
        assert q.requeue([lease.lease_id]) == (["t"], [])
        assert q.ack(lease.lease_id) is False  # lease died with the nack
        assert q.total_acked == 0
        assert len(q) == 1
        assert q.conservation_delta() == 0

    def test_conservation_holds_through_expiry_churn(self, clock):
        q = ReliableQueue(clock=clock)
        q.put_many(range(6))
        for _round in range(4):
            leases = q.lease_many(3, lease_timeout=0.5)
            q.ack(leases[0].lease_id)  # one completes
            clock.advance(1.0)  # rest expire
            expire(q, clock)
            assert q.conservation_delta() == 0
        assert q.total_acked == 4
        assert q.total_acked + len(q) + q.in_flight == q.total_enqueued


class TestFairDequeue:
    """Deficit-round-robin across lanes, as exact dequeue counts."""

    @pytest.mark.parametrize("weights, share", [
        ({}, (6, 6)),
        ({"aggressive": 3.0}, (9, 3)),
    ], ids=["equal", "3:1"])
    def test_backlogged_lanes_split_every_window_by_weight(
            self, clock, weights, share):
        q = FairReliableQueue(
            clock=clock, weight_for=lambda lane: weights.get(lane, 1.0))
        # Offered load is 10:1; service must follow the weights instead.
        for i in range(60):
            q.put_many([f"a{i}.{j}" for j in range(10)], lane="aggressive")
            q.put(f"p{i}", lane="polite")
        # polite holds 60 items and gets at most 6 of a window's 12, so
        # both lanes are backlogged through all ten windows.
        for _ in range(10):
            lanes = [lease.lane for lease in q.lease_many(12)]
            assert (lanes.count("aggressive"), lanes.count("polite")) == share

    def test_nack_returns_to_the_front_of_its_own_lane(self, clock):
        q = FairReliableQueue(clock=clock)
        q.put_many(["a1", "a2"], lane="a")
        q.put_many(["b1", "b2"], lane="b")
        (first,) = q.lease_many(1)
        assert first.item == "a1"
        q.requeue([first.lease_id])
        leases = q.lease_many(4)
        assert [l.item for l in leases if l.lane == "a"] == ["a1", "a2"]
        assert [l.item for l in leases if l.lane == "b"] == ["b1", "b2"]
        assert {l.item: l.deliveries for l in leases}["a1"] == 2

    def test_drained_lane_forfeits_its_deficit(self, clock):
        q = FairReliableQueue(
            clock=clock, weight_for={"heavy": 3.0, "light": 1.0}.get)
        q.put_many([f"l{i}" for i in range(8)], lane="light")
        q.put("h0", lane="heavy")
        # heavy earns 3 slots, spends 1 on h0 and runs dry with 2 unspent.
        assert [l.lane for l in q.lease_many(2)] == ["light", "heavy"]
        q.put_many([f"h{i}" for i in range(1, 7)], lane="heavy")
        # It comes back as a new lane would: it waits for a top-up, then
        # takes exactly its 3 per round.  Banked slots would put "h"
        # second, or make the first run 5 long.
        order = "".join(lease.lane[0] for lease in q.lease_many(9))
        assert order == "llhhhlhhh"
