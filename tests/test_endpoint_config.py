"""Guard on the endpoint's configuration space.

``EndpointConfig`` carries the switches the paper ablates and no others:
every extra on/off field doubles the configurations the tests and
benchmarks would have to cover.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.endpoint.config import EndpointConfig

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
