"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import partition_iterator
from repro.core.memoization import Memoizer
from repro.serialize import FuncXSerializer
from repro.serialize.buffers import pack_buffer, unpack_buffer
from repro.sim.kernel import EventLoop
from repro.store.queues import ReliableQueue


# ---------------------------------------------------------------------------
# Serialization round-trips
# ---------------------------------------------------------------------------
json_like = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**9), 10**9) |
    st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=40),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=10), children, max_size=5),
    max_leaves=25,
)

picklable = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=30)
    | st.binary(max_size=30) | st.floats(allow_nan=False),
    lambda children: st.lists(children, max_size=4)
    | st.tuples(children, children)
    | st.dictionaries(st.text(max_size=8), children, max_size=4)
    | st.frozensets(st.integers(), max_size=4),
    max_leaves=20,
)


class TestSerializerProperties:
    @given(obj=json_like)
    @settings(max_examples=150)
    def test_roundtrip_json_like(self, obj):
        s = FuncXSerializer()
        assert s.deserialize(s.serialize(obj)) == obj

    @given(obj=picklable)
    @settings(max_examples=150)
    def test_roundtrip_arbitrary_picklable(self, obj):
        s = FuncXSerializer()
        assert s.deserialize(s.serialize(obj)) == obj

    @given(
        payload=st.binary(max_size=2000),
        tag=st.text(
            alphabet=st.characters(blacklist_characters="\x1f\n", blacklist_categories=("Cs",)),
            max_size=50,
        ),
    )
    @settings(max_examples=150)
    def test_buffer_roundtrip(self, payload, tag):
        header, out = unpack_buffer(pack_buffer("01", tag, payload))
        assert out == payload
        assert header.routing_tag == tag

    @given(obj=json_like, tag=st.text(alphabet="abcdef0123456789-", max_size=36))
    @settings(max_examples=60)
    def test_routing_tag_readable_without_decode(self, obj, tag):
        s = FuncXSerializer()
        assert s.routing_tag(s.serialize(obj, routing_tag=tag)) == tag

    @given(args=st.lists(picklable, max_size=5),
           kwargs=st.dictionaries(
               st.text(alphabet="abcdefghij_", min_size=1, max_size=8),
               picklable, max_size=4))
    @settings(max_examples=100)
    def test_roundtrip_call_payload(self, args, kwargs):
        """The (args, kwargs) payload shape the client ships with a task."""
        s = FuncXSerializer()
        payload = (list(args), kwargs)
        restored_args, restored_kwargs = s.deserialize(s.serialize(payload))
        assert restored_args == list(args)
        assert restored_kwargs == kwargs


exception_types = st.sampled_from(
    [ValueError, TypeError, RuntimeError, KeyError, OSError, ZeroDivisionError]
)


class TestSerializerExceptionProperties:
    """Remote exceptions survive the wire with type, message, and frames."""

    @staticmethod
    def _raise_wrapped(exc_type, message):
        """Raise through a helper so the traceback has real frames."""
        from repro.serialize.traceback import RemoteExceptionWrapper

        def inner():
            raise exc_type(message)

        try:
            inner()
        except Exception as exc:
            return RemoteExceptionWrapper(exc)
        raise AssertionError("unreachable")

    @given(exc_type=exception_types, message=st.text(max_size=60))
    @settings(max_examples=100)
    def test_wrapper_roundtrip_preserves_identity(self, exc_type, message):
        s = FuncXSerializer()
        wrapper = self._raise_wrapped(exc_type, message)
        restored = s.deserialize(s.serialize(wrapper))
        assert restored.exc_type_name == exc_type.__name__
        assert restored.exc_str == wrapper.exc_str
        # The captured frames survive serialization, innermost included.
        assert restored.traceback.frames == wrapper.traceback.frames
        assert any(f.name == "inner" for f in restored.traceback.frames)
        formatted = restored.format()
        assert formatted.startswith("Traceback (most recent call last):")
        assert exc_type.__name__ in formatted

    @given(exc_type=exception_types, message=st.text(max_size=40))
    @settings(max_examples=60)
    def test_reraise_restores_original_type(self, exc_type, message):
        import pytest as _pytest

        s = FuncXSerializer()
        restored = s.deserialize(s.serialize(self._raise_wrapped(exc_type, message)))
        with _pytest.raises(exc_type) as excinfo:
            restored.reraise()
        assert str(excinfo.value) == restored.exc_str

    @given(message=st.text(max_size=40))
    @settings(max_examples=30)
    def test_unpicklable_exception_degrades_to_wrapped_type(self, message):
        from repro.errors import TaskExecutionFailed

        class Unpicklable(Exception):  # locally-defined: cannot unpickle
            pass

        import pytest as _pytest

        wrapper = self._raise_wrapped(Unpicklable, message)
        restored = FuncXSerializer().deserialize(FuncXSerializer().serialize(wrapper))
        assert restored.exc_type_name == "Unpicklable"
        with _pytest.raises(TaskExecutionFailed) as excinfo:
            restored.reraise()
        assert "Unpicklable" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Reliable queue: at-least-once delivery under arbitrary ack/nack patterns
# ---------------------------------------------------------------------------
class TestQueueProperties:
    # An item sits in its queue at most once (the service's are task
    # ids), so the generated items are distinct.
    @given(
        items=st.lists(st.integers(), min_size=1, max_size=40, unique=True),
        decisions=st.lists(st.booleans(), min_size=100, max_size=100),
        requeues=st.lists(st.lists(st.integers(0, 39), max_size=6),
                          max_size=30),
    )
    @settings(max_examples=80)
    def test_every_item_eventually_acked_exactly_once(self, items, decisions,
                                                      requeues):
        """Whatever interleaving of nacks and requeue-by-ids decisions
        (over ids leased, ready or already acked) happens, finishing with
        acks delivers every item and loses nothing — and no id is ever
        both ready and leased."""
        q = ReliableQueue()
        q.put_many(items)
        delivered = []
        decision_iter = iter(decisions)
        requeue_iter = iter(requeues)

        def check():
            ready, leased = q.snapshot_items()
            assert not set(ready) & set(leased)
            assert q.conservation_delta() == 0

        while len(q) or q.in_flight:
            leases = q.lease_many(2)
            check()
            q.requeue([items[i % len(items)] for i in next(requeue_iter, [])])
            check()
            for lease in leases:
                if lease.item not in q.leased():
                    continue  # the requeue above took it back
                if next(decision_iter, True):
                    delivered.append(lease.item)
                    assert q.ack(lease.lease_id)
                else:
                    assert q.requeue([lease.lease_id]) == ([lease.item], [])
                check()
        assert sorted(delivered) == sorted(items)
        assert q.total_acked == len(items)

    @given(items=st.lists(st.integers(), min_size=1, max_size=30, unique=True))
    @settings(max_examples=50)
    def test_nack_all_preserves_multiset(self, items):
        q = ReliableQueue()
        q.put_many(items)
        q.lease_many(len(items))
        assert sorted(q.requeue(q.leased())[0]) == sorted(items)
        redelivered = [l.item for l in q.lease_many(len(items))]
        assert sorted(redelivered) == sorted(items)

    @given(
        items=st.lists(st.integers(), min_size=1, max_size=30),
        chunk=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=50)
    def test_fifo_order_without_nacks(self, items, chunk):
        q = ReliableQueue()
        q.put_many(items)
        seen = []
        while True:
            leases = q.lease_many(chunk)
            if not leases:
                break
            seen.extend(l.item for l in leases)
            for l in leases:
                q.ack(l.lease_id)
        assert seen == items


# ---------------------------------------------------------------------------
# Memoizer
# ---------------------------------------------------------------------------
class TestMemoizerProperties:
    @given(
        entries=st.lists(
            st.tuples(st.binary(min_size=1, max_size=16), st.binary(max_size=16),
                      st.binary(max_size=16)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=80)
    def test_lookup_returns_last_stored(self, entries):
        memo = Memoizer()
        latest = {}
        for func, payload, result in entries:
            memo.store(func, payload, result)
            latest[(func, payload)] = result
        for (func, payload), expected in latest.items():
            assert memo.lookup(func, payload) == expected

    @given(
        keys=st.lists(
            st.tuples(st.binary(min_size=1, max_size=8), st.binary(max_size=8)),
            min_size=1, max_size=50, unique=True,
        ),
        capacity=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60)
    def test_capacity_never_exceeded(self, keys, capacity):
        memo = Memoizer(capacity=capacity)
        for func, payload in keys:
            memo.store(func, payload, b"r")
            assert len(memo) <= capacity


# ---------------------------------------------------------------------------
# Event kernel ordering
# ---------------------------------------------------------------------------
class TestKernelProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=60))
    @settings(max_examples=80)
    def test_execution_times_monotone(self, delays):
        loop = EventLoop()
        fired = []
        for delay in delays:
            loop.schedule(delay, lambda: fired.append(loop.now))
        loop.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40),
        horizon=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=80)
    def test_run_until_boundary(self, delays, horizon):
        loop = EventLoop()
        fired = []
        for delay in delays:
            loop.schedule(delay, lambda d=delay: fired.append(d))
        loop.run(until=horizon)
        assert all(d <= horizon for d in fired)
        assert sorted(fired) == sorted(d for d in delays if d <= horizon)


# ---------------------------------------------------------------------------
# Batch partitioning
# ---------------------------------------------------------------------------
class TestPartitionProperties:
    @given(
        n=st.integers(min_value=0, max_value=500),
        batch_size=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100)
    def test_partition_by_size_lossless(self, n, batch_size):
        batches = list(partition_iterator(range(n), batch_size=batch_size))
        assert [x for b in batches for x in b] == list(range(n))
        assert all(len(b) <= batch_size for b in batches)
        assert all(batches)  # no empty batches

    @given(
        n=st.integers(min_value=1, max_value=500),
        batch_count=st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=100)
    def test_partition_by_count_lossless(self, n, batch_count):
        batches = list(partition_iterator(range(n), batch_count=batch_count))
        assert [x for b in batches for x in b] == list(range(n))
        assert len(batches) <= batch_count

    @given(n=st.integers(min_value=1, max_value=200), count=st.integers(min_value=1, max_value=20))
    @settings(max_examples=60)
    def test_partition_by_count_balanced(self, n, count):
        batches = list(partition_iterator(range(n), batch_count=count))
        sizes = {len(b) for b in batches}
        assert max(sizes) - min(sizes) <= max(sizes)  # sanity
        # all batches but the last have the same size
        assert len({len(b) for b in batches[:-1]}) <= 1


# ---------------------------------------------------------------------------
# Scheduler never over-commits
# ---------------------------------------------------------------------------
class TestSchedulerProperties:
    @given(
        capacities=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=8),
        n_tasks=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=100)
    def test_assignments_respect_capacity(self, capacities, n_tasks, seed):
        from repro.endpoint.scheduling import ManagerView, RandomizedScheduler

        views = [ManagerView(manager_id=str(i), capacity=c) for i, c in enumerate(capacities)]
        scheduler = RandomizedScheduler(seed=seed)
        assigned = 0
        for _ in range(n_tasks):
            chosen = scheduler.select(views, None)
            if chosen is None:
                break
            assert chosen.available > 0
            chosen.outstanding += 1
            assigned += 1
        assert assigned <= sum(capacities)
        if n_tasks >= sum(capacities):
            assert assigned == sum(capacities)  # work-conserving


# ---------------------------------------------------------------------------
# REST facade robustness: arbitrary requests never raise
# ---------------------------------------------------------------------------
class TestRestProperties:
    @given(
        method=st.sampled_from(["GET", "POST", "PUT", "DELETE", "PATCH"]),
        path=st.text(max_size=60),
        body=st.dictionaries(
            st.text(max_size=12),
            st.none() | st.booleans() | st.integers() | st.text(max_size=20),
            max_size=4,
        ),
        with_token=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_request_yields_a_status_not_an_exception(
        self, method, path, body, with_token
    ):
        from repro.auth import AuthService
        from repro.core.rest import RestApi
        from repro.core.service import FuncXService

        auth = AuthService()
        service = FuncXService(auth=auth)
        api = RestApi(service)
        token = None
        if with_token:
            token = auth.native_client_flow(auth.register_identity("u")).token
        response = api.request(method, path, token=token, body=body)
        assert 200 <= response.status < 600
        assert isinstance(response.body, dict)
