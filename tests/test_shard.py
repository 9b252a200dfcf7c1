"""The sharded service plane: shard map, per-shard accounting, routing.

Covers the consistent-hash :class:`~repro.core.shard.ShardMap`, the
per-shard O(1) accounting block (the satellite fix for the old
full-table scans), drain/kill/restart lifecycle, shard independence
(one shard's task lifecycle takes no other shard's lock), and the
facade's cross-shard routing — including the one result stream that
delivers from every shard, and a live multi-shard deployment.
"""

from __future__ import annotations

import contextlib
import threading
import time
import uuid

import pytest

from repro.analysis.sanitizer import LockOrderRecorder, sanitize_lock
from repro.auth import AuthService
from repro.core.service import FuncXService, ServiceConfig
from repro.core.shard import ShardMap
from repro.core.tasks import TaskState
from repro.errors import ShardDraining, TaskNotFound
from repro.serialize import FuncXSerializer


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def make_service(shards: int, clock=None, **config) -> FuncXService:
    return FuncXService(
        auth=AuthService(clock=clock) if clock else AuthService(),
        config=ServiceConfig(shards=shards, **config),
        clock=clock,
    )


def user_token(service, name="alice"):
    identity = service.auth.register_identity(name)
    return service.auth.native_client_flow(identity).token


def endpoint_on(service, shard_index: int, attempts: int = 512) -> str:
    """Register endpoints until one lands on ``shard_index``."""
    for i in range(attempts):
        _ident, tok = service.auth.endpoint_client_flow(f"ep-{shard_index}-{i}")
        ep = service.register_endpoint(tok.token, name=f"ep-{shard_index}-{i}")
        if service.shard_map.shard_for_endpoint(ep) == shard_index:
            return ep
    raise AssertionError(f"no endpoint landed on shard {shard_index}")


def any_endpoint(service) -> str:
    _ident, tok = service.auth.endpoint_client_flow("ep")
    return service.register_endpoint(tok.token, name="ep")


def register_noop(service, token) -> str:
    serializer = FuncXSerializer()
    return service.register_function(
        token, "noop", serializer.serialize_function(lambda x: x), public=True)


def submit_one(service, token, fid, ep) -> str:
    payload = FuncXSerializer().serialize(([1], {}))
    return service.submit(token, fid, ep, payload)


def start_endpoint_per_shard(deployment) -> list[str]:
    """One started endpoint on each shard of a live deployment: endpoint
    ids are random, so create unstarted candidates until every shard is
    covered, then start one per shard."""
    service = deployment.service
    by_shard: dict[int, str] = {}
    for attempt in range(64):
        ep = deployment.create_endpoint(f"ep-{attempt}", nodes=1, start=False)
        by_shard.setdefault(service.shard_map.shard_for_endpoint(ep), ep)
        if len(by_shard) == len(service.shards):
            break
    else:
        raise AssertionError("no endpoint placement covered every shard")
    endpoints = [by_shard[index] for index in range(len(service.shards))]
    for ep in endpoints:
        deployment.forwarder(ep).start()
        deployment.endpoint(ep).start()
        assert deployment.endpoint(ep).wait_ready()
    return endpoints


def new_threads(before: set[threading.Thread], *prefixes: str) -> list[str]:
    """Names of live threads started since ``before`` with a prefix."""
    return [thread.name for thread in threading.enumerate()
            if thread not in before and thread.name.startswith(prefixes)]


# ----------------------------------------------------------------------
# ShardMap
# ----------------------------------------------------------------------
class TestShardMap:
    def test_shard_count_validated(self):
        with pytest.raises(ValueError):
            ShardMap(0)

    def test_one_shard_ring_routes_everything_to_shard_zero(self):
        smap = ShardMap(1)
        assert smap.shard_for_endpoint("anything") == 0
        assert smap.shard_for_task(smap.tag("tagged", 0)) == 0
        assert smap.shard_for_task("untagged") == 0
        assert smap.shard_for_task("abc-s9") == 0  # tag out of range

    def test_placement_is_stable_across_instances(self):
        a, b = ShardMap(4), ShardMap(4)
        for _ in range(64):
            key = str(uuid.uuid4())
            assert a.shard_for_endpoint(key) == b.shard_for_endpoint(key)

    def test_placement_covers_all_shards(self):
        smap = ShardMap(4)
        seen = {smap.shard_for_endpoint(f"endpoint-{i}") for i in range(200)}
        assert seen == {0, 1, 2, 3}

    def test_tagged_task_id_routes_to_its_shard(self):
        smap = ShardMap(4)
        for index in range(4):
            tagged = smap.tag(str(uuid.uuid4()), index)
            assert smap.shard_for_task(tagged) == index

    def test_untagged_id_falls_back_to_ring_deterministically(self):
        a, b = ShardMap(4), ShardMap(4)
        raw = str(uuid.uuid4())
        assert a.shard_for_task(raw) == b.shard_for_task(raw)
        assert 0 <= a.shard_for_task(raw) < 4

    def test_out_of_range_tag_falls_back_to_ring(self):
        smap = ShardMap(2)
        # "-s9" looks like a tag but names a shard that does not exist.
        assert 0 <= smap.shard_for_task("abc-s9") < 2


# ----------------------------------------------------------------------
# facade routing + per-shard accounting
# ----------------------------------------------------------------------
class TestShardedFacade:
    def test_task_id_carries_owning_shard(self):
        service = make_service(4)
        token = user_token(service)
        fid = register_noop(service, token)
        for index in (0, 3):
            ep = endpoint_on(service, index)
            task_id = submit_one(service, token, fid, ep)
            assert task_id.endswith(f"-s{index}")
            assert service.shard_map.shard_for_task(task_id) == index

    def test_counters_close_on_complete_and_forget(self):
        service = make_service(2)
        token = user_token(service)
        fid = register_noop(service, token)
        ep = endpoint_on(service, 1)
        shard = service.shards[1]

        done = submit_one(service, token, fid, ep)
        open_ = submit_one(service, token, fid, ep)
        assert shard.open_tasks() == 2
        assert shard.outstanding(ep) == 2

        service.complete_task(done, success=True, result_buffer=b"r")
        assert shard.open_tasks() == 1
        assert shard.outstanding(ep) == 1

        assert service.forget_task(open_)
        counters = shard.counters()
        assert counters["received"] == 2
        assert counters["terminated"] == 1
        assert counters["forgotten_open"] == 1
        # the conservation identity the chaos invariant checks
        assert counters["open"] == (counters["received"]
                                    - counters["terminated"]
                                    - counters["forgotten_open"]) == 0
        # the untouched shard saw none of it
        assert service.shards[0].counters()["received"] == 0

    def test_status_batch_fans_out_across_shards(self):
        service = make_service(4)
        token = user_token(service)
        fid = register_noop(service, token)
        ids = []
        for index in range(4):
            ep = endpoint_on(service, index)
            ids.append(submit_one(service, token, fid, ep))
        service.complete_task(ids[2], success=True, result_buffer=b"r")
        states = service.status_batch(token, ids)
        assert set(states) == set(ids)
        assert states[ids[2]] == TaskState.SUCCESS.value
        assert states[ids[0]] == TaskState.QUEUED.value
        with pytest.raises(TaskNotFound):
            service.status_batch(token, ids + ["missing-task"])

    def test_draining_shard_rejects_submissions(self):
        service = make_service(2)
        token = user_token(service)
        fid = register_noop(service, token)
        ep = endpoint_on(service, 0)
        other = endpoint_on(service, 1)
        service.drain_shard(0)
        with pytest.raises(ShardDraining) as exc_info:
            submit_one(service, token, fid, ep)
        assert exc_info.value.shard_index == 0
        # the sibling shard still accepts
        submit_one(service, token, fid, other)
        service.restart_shard(0)
        submit_one(service, token, fid, ep)
        assert int(service.metrics.counter("shard.draining_rejects").value) == 1

    def test_batch_rejected_atomically_when_one_member_hits_drain(self):
        service = make_service(2)
        token = user_token(service)
        fid = register_noop(service, token)
        ep0, ep1 = endpoint_on(service, 0), endpoint_on(service, 1)
        payload = FuncXSerializer().serialize(([1], {}))
        service.drain_shard(1)
        before = service.tasks_received
        with pytest.raises(ShardDraining):
            service.submit_batch(token, [(fid, ep0, payload), (fid, ep1, payload)])
        assert service.tasks_received == before  # nothing partially admitted

    def test_kill_yanks_leases_and_restart_redelivers(self):
        service = make_service(2)
        token = user_token(service)
        fid = register_noop(service, token)
        ep = endpoint_on(service, 0)
        task_id = submit_one(service, token, fid, ep)
        queue = service.task_queue(ep)
        (lease,) = queue.lease_many(1)
        assert lease.item == task_id

        yanked = service.shards[0].kill()
        assert yanked == 1
        assert not queue.ack(lease.lease_id)  # the old lease is dead
        service.restart_shard(0)
        (redelivered,) = queue.lease_many(1)
        assert redelivered.item == task_id
        assert redelivered.deliveries == 2  # at-least-once redelivery
        assert queue.ack(redelivered.lease_id)

    def test_shard_counters_sum_to_facade_counters(self):
        service = make_service(4)
        token = user_token(service)
        fid = register_noop(service, token)
        eps = [endpoint_on(service, index) for index in range(4)]
        ids = [submit_one(service, token, fid, ep) for ep in eps for _ in range(3)]
        for task_id in ids[:5]:
            service.complete_task(task_id, success=True, result_buffer=b"r")
        totals = {key: sum(c[key] for c in service.shard_counters())
                  for key in ("received", "terminated", "open")}
        assert totals["received"] == service.tasks_received == 12
        assert totals["terminated"] == 5
        assert totals["open"] == len(service.iter_tasks()) - 5


# ----------------------------------------------------------------------
# nothing in the plane serializes: one shard's traffic is one shard's work
# ----------------------------------------------------------------------
class TestShardIndependence:
    def test_lifecycle_on_one_shard_never_touches_the_others(self):
        service = make_service(4)
        token = user_token(service)
        fid = register_noop(service, token)
        eps = [endpoint_on(service, index) for index in range(4)]
        # Recorders go on after setup: registering an endpoint takes its
        # home shard's lock once, which is not per-task work.
        busy, idle = LockOrderRecorder(), LockOrderRecorder()
        sanitize_lock(service.shards[0], busy)
        for shard in service.shards[1:]:
            sanitize_lock(shard, idle)

        payload = FuncXSerializer().serialize(([1], {}))
        ids = service.submit_batch(token, [(fid, eps[0], payload)] * 32)
        queue = service.task_queue(eps[0])
        leases = queue.lease_many(32)
        assert [lease.item for lease in leases] == ids
        shard = service.shards[0]
        service.tasks_dispatched(shard.get_tasks(ids))
        verdicts = service.complete_tasks(
            shard, [(task_id, True, b"r", None, 0.0, {}) for task_id in ids])
        assert verdicts == [True] * 32
        assert queue.ack_many([lease.lease_id for lease in leases]) == 32

        assert busy.acquisitions > 0
        assert idle.acquisitions == 0
        assert shard.counters() == {
            "received": 32, "terminated": 32, "forgotten_open": 0, "open": 0}
        for other in service.shards[1:]:
            assert set(other.counters().values()) == {0}


# ----------------------------------------------------------------------
# satellite: the hot paths must be O(1), not table scans
# ----------------------------------------------------------------------
class TestConstantTimeAccounting:
    @staticmethod
    def _populate(service, token, fid, ep, count):
        payload = FuncXSerializer().serialize(([1], {}))
        for chunk_start in range(0, count, 256):
            chunk = min(256, count - chunk_start)
            service.submit_batch(token, [(fid, ep, payload)] * chunk)

    @staticmethod
    def _time_reads(fn, reps=4000) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        return time.perf_counter() - start

    def test_outstanding_and_open_gauge_do_not_scale_with_open_tasks(self):
        gauge_reads = []
        outstanding_reads = []
        for count in (16, 4096):
            service = make_service(1)
            token = user_token(service)
            fid = register_noop(service, token)
            ep = any_endpoint(service)
            self._populate(service, token, fid, ep, count)
            gauge = service.metrics.gauge("service.tasks_live")
            gauge_reads.append(self._time_reads(lambda: gauge.value))
            outstanding_reads.append(
                self._time_reads(lambda: service.outstanding_tasks(ep)))
            service.close()
        # 256x the open tasks must not make the reads meaningfully
        # slower; a table scan would blow this bound by two orders of
        # magnitude, constant-time counters sit near 1x.
        assert gauge_reads[1] < 10 * gauge_reads[0], gauge_reads
        assert outstanding_reads[1] < 10 * outstanding_reads[0], outstanding_reads


# ----------------------------------------------------------------------
# one result stream over every shard
# ----------------------------------------------------------------------
class TestOneResultStream:
    @staticmethod
    def _finished_on_each_shard(service, token, count):
        fid = register_noop(service, token)
        ids = []
        for index in range(len(service.shards)):
            ep = endpoint_on(service, index)
            for _ in range(count):
                task_id = submit_one(service, token, fid, ep)
                service.complete_task(task_id, success=True,
                                      result_buffer=b"r" * 8)
                ids.append(task_id)
        return ids

    def test_window_bounds_unacked_results_across_shards(self):
        service = make_service(2)
        ids = self._finished_on_each_shard(service, user_token(service), 6)
        subscription = service.result_stream.subscribe(
            window=4, auto_deliver=False)
        batches = []
        subscription.attach(batches.append)
        subscription.watch_many(ids)
        # One window for the subscription, not one per shard.
        assert service.result_stream.step() == 4
        assert subscription.unacked_results == 4
        assert service.result_stream.step() == 0
        delivered = []
        while batches:
            batch = batches.pop()
            delivered += [message.task_id for message in batch.results]
            subscription.ack(batch.delivery_id)
            service.result_stream.step()
        assert sorted(delivered) == sorted(ids)

    def test_last_ack_releases_bytes_on_each_owning_shard(self):
        service = make_service(2)
        ids = self._finished_on_each_shard(service, user_token(service), 3)
        assert [shard.retained_bytes() for shard in service.shards] == [24, 24]
        subscription = service.result_stream.subscribe(auto_deliver=False)
        subscription.attach(lambda batch: subscription.ack(batch.delivery_id))
        subscription.watch_many(ids)
        assert service.result_stream.step() == 6
        assert [shard.retained_bytes() for shard in service.shards] == [0, 0]
        assert subscription.watched == 0


# ----------------------------------------------------------------------
# live multi-shard deployment (one delivery thread end to end)
# ----------------------------------------------------------------------
class TestLiveMultiShard:
    def test_executor_results_stream_across_shards(self):
        from repro.core.stream import ResultStreamServer
        from repro.fabric import LocalDeployment

        with LocalDeployment() as single:
            assert isinstance(single.service.result_stream, ResultStreamServer)
        before = set(threading.enumerate())
        with LocalDeployment(
            service_config=ServiceConfig(shards=4)
        ) as deployment, contextlib.ExitStack() as stack:
            assert isinstance(deployment.service.result_stream,
                              ResultStreamServer)
            client = deployment.client()
            endpoints = start_endpoint_per_shard(deployment)
            fid = client.register_function(lambda x: x * 2)
            executors = [
                stack.enter_context(client.executor(ep))
                for ep in endpoints]
            futures = [executor.submit(fid, i)
                       for i in range(3) for executor in executors]
            assert [f.result(timeout=30) for f in futures] == [
                i * 2 for i in range(3) for _ in executors]
            assert len(new_threads(before, "result-stream-")) == 1

    def test_shutdown_leaves_no_loop_thread_alive(self):
        from repro.fabric import LocalDeployment

        before = set(threading.enumerate())
        deployment = LocalDeployment(service_config=ServiceConfig(shards=2))
        try:
            client = deployment.client()
            fid = client.register_function(lambda x: x + 1)
            for ep in start_endpoint_per_shard(deployment):
                with client.executor(ep) as executor:
                    futures = [executor.submit(fid, i) for i in range(3)]
                    assert [f.result(timeout=30) for f in futures] == [1, 2, 3]
        finally:
            deployment.shutdown()
        assert new_threads(before, "forwarder-", "agent-", "manager-",
                           "worker-", "result-stream-") == []
