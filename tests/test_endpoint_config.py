"""Guard on the configuration space.

``EndpointConfig`` carries the switches the paper ablates and no others:
every extra on/off field doubles the configurations the tests and
benchmarks would have to cover.  The same holds for the options that
existed only to be measured by a retired gate (``shard_op_cost``), that
nothing ever set (``manager_transfer_cost``) or that hand-copied a live
policy into the simulator: they are gone, not defaulted.  A task
transition is observed one way, through the deployment's event spine:
no component grows a hook attribute of its own again.  And a task's
timeline lives on its record: no trace object rides the messages.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro import DeploymentTimings
from repro.chaos import InvariantRegistry
from repro.core.forwarder import Forwarder
from repro.core.futures import FuncXFuture
from repro.core.memoization import Memoizer
from repro.core.service import FuncXService, ServiceConfig
from repro.endpoint.config import EndpointConfig
from repro.sim import SimFabric
from repro.sim.platform import CORI
from repro.store.queues import ReliableQueue
from repro.transport.channel import Channel
from repro.transport.messages import ResultMessage, TaskMessage

REMOVED = ("message_batching", "event_driven", "adaptive_batching",
           "flow_control")


def test_internal_batching_is_the_only_boolean_field():
    booleans = {f.name for f in dataclasses.fields(EndpointConfig)
                if isinstance(f.default, bool)}
    assert booleans == {"internal_batching"}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_compatibility_switches_are_rejected(name):
    with pytest.raises(TypeError):
        EndpointConfig(**{name: True})


REMOVED_ELSEWHERE = [
    (ServiceConfig, "shard_op_cost"),
    (ServiceConfig, "tracing"),
    (ServiceConfig, "trace_capacity"),
    (DeploymentTimings, "manager_transfer_cost"),
    *((functools.partial(SimFabric, CORI, managers=1), name)
      for name in ("adaptive_batching", "hold_scale", "result_delivery",
                   "result_latency", "poll_interval", "service_shards")),
]


@pytest.mark.parametrize("build, name", REMOVED_ELSEWHERE,
                         ids=[name for _build, name in REMOVED_ELSEWHERE])
def test_removed_measurement_and_mirror_options_are_rejected(build, name):
    with pytest.raises(TypeError):
        build(**{name: 1})


@pytest.fixture
def former_hook_owners():
    """A fresh instance of every class that once carried its own
    observation hook."""
    service = FuncXService()
    _, token = service.auth.endpoint_client_flow("ep")
    endpoint_id = service.register_endpoint(token.token, name="ep")
    yield {
        "ReliableQueue": ReliableQueue(),
        "Channel": Channel(),
        "Forwarder": Forwarder(service, endpoint_id, Channel().left),
        "FuncXService": service,
        "ServiceShard": service.shards[0],
        "Memoizer": Memoizer(),
        "FuncXFuture": FuncXFuture("t"),
        "InvariantRegistry": InvariantRegistry(),
    }
    service.close()


@pytest.mark.parametrize("name", ["probe", "observer", "callback_error_hook",
                                  "pubsub"])
def test_removed_observation_hooks_stay_removed(former_hook_owners, name):
    assert [owner for owner, instance in former_hook_owners.items()
            if hasattr(instance, name)] == []


def test_the_trace_is_off_the_fabric():
    assert [name for name in ("traces", "mark_running")
            if hasattr(FuncXService, name)] == []
    for message in (TaskMessage, ResultMessage):
        with pytest.raises(TypeError):
            message(sender="s", trace=object())
