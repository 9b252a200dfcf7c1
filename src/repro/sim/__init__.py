"""Discrete-event simulation fabric.

The paper's scale experiments run on Theta (4392 KNL nodes) and Cori
(9688 KNL nodes) with up to 131,072 concurrent containers — hardware this
reproduction does not have.  Per the substitution rule, this package
models the paper's protocol logic (hierarchical queueing, advertisements,
prefetching, internal batching, heartbeats, failure recovery,
memoization) under a discrete-event kernel with platform models
calibrated to the paper's measured ceilings, so every scaling, elasticity
and fault-tolerance figure can be regenerated at full scale in simulated
time.
"""

from repro.sim.kernel import Event, EventLoop
from repro.sim.platform import PLATFORMS, SimPlatform
from repro.sim.fabric import FailureSchedule, SimFabric, SimReport, SimTask

__all__ = [
    "EventLoop",
    "Event",
    "SimPlatform",
    "PLATFORMS",
    "SimFabric",
    "SimTask",
    "SimReport",
    "FailureSchedule",
]
