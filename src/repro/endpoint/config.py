"""Endpoint configuration.

Users deploying an agent specify the provider, per-node worker count,
container handling and performance knobs (paper sections 4.3-4.7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.containers.spec import ContainerTechnology


@dataclass(frozen=True)
class EndpointConfig:
    """Deployment-time endpoint settings.

    Attributes
    ----------
    workers_per_node:
        Workers (container slots) each manager partitions its node into.
    system:
        Platform name selecting container cold-start models
        ("ec2", "theta", "cori", "local").
    container_technology:
        Technology workers launch containers with.
    warm_ttl:
        Container warming window, seconds (5-10 minutes in the paper).
    heartbeat_period:
        Agent→forwarder and manager→agent heartbeat interval.
    heartbeat_grace:
        Missed periods before a component is declared lost.
    prefetch_capacity:
        Extra tasks a manager requests beyond idle workers (§4.7
        "advertising with opportunistic prefetching"); 0 disables.
    internal_batching:
        Whether managers lease many tasks per request (§4.7 "internal
        batching"); disabling reproduces the §5.5.2 baseline.
    pipeline_depth:
        Agent-side pipeline buffer, in units of one node's credit
        window, added to the advertised aggregate.  Keeps the
        forwarder→agent link full across its round trip: capping
        in-flight at exactly worker capacity would throttle throughput
        to ``capacity / RTT`` on a long link even with every worker
        idle.  Also what keeps demand observable for elastic
        scale-from-zero (with no live manager the window is the buffer
        alone).  0 means strict worker capacity — and a dead stop at
        zero managers.
    scheduler_policy:
        Agent manager-selection policy: "randomized" (paper), or the
        ablation policies "round_robin" / "first_fit".
    scale_cold_start:
        Multiplier applied to sampled container cold-start times on the
        live fabric (tests compress 10 s Singularity starts to ~10 ms).
    max_retries_on_loss:
        Agent-side re-execution budget for tasks lost with a manager.
    """

    workers_per_node: int = 4
    system: str = "local"
    container_technology: ContainerTechnology = ContainerTechnology.NONE
    warm_ttl: float = 300.0
    heartbeat_period: float = 0.5
    heartbeat_grace: int = 3
    prefetch_capacity: int = 4
    internal_batching: bool = True
    pipeline_depth: int = 2
    scheduler_policy: str = "randomized"
    scale_cold_start: float = 1.0
    max_retries_on_loss: int = 1
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers_per_node < 1:
            raise ValueError("workers_per_node must be positive")
        if self.warm_ttl < 0:
            raise ValueError("warm_ttl must be non-negative")
        if self.heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if self.prefetch_capacity < 0:
            raise ValueError("prefetch_capacity must be non-negative")
        if self.pipeline_depth < 0:
            raise ValueError("pipeline_depth must be non-negative")
        if self.scale_cold_start < 0:
            raise ValueError("scale_cold_start must be non-negative")
