"""Behaviour tests for the figure-6 elasticity simulation."""

from __future__ import annotations

import pytest

from repro.providers import KubernetesProvider, SimpleScalingStrategy
from repro.sim.elasticity import ElasticitySimulation
from repro.workloads.generators import burst_arrivals


def paper_workload(bursts=3):
    """1x1s, 5x10s, 20x20s every 120 s (§5.3)."""
    return list(
        burst_arrivals(
            120.0, bursts, [("1s", 1, 1.0), ("10s", 5, 10.0), ("20s", 20, 20.0)]
        )
    )


def make_sim(**kwargs):
    provider = KubernetesProvider(
        max_pods_per_image=kwargs.pop("max_pods", 10),
        startup_mean=2.0,
        startup_jitter=0.1,
        seed=11,
    )
    strategy = SimpleScalingStrategy(
        max_units_per_image=provider.max_pods_per_image,
        min_units_per_image=0,
        idle_grace=kwargs.pop("idle_grace", 5.0),
    )
    return ElasticitySimulation(provider=provider, strategy=strategy, **kwargs)


class TestFigure6Behaviour:
    def test_all_functions_complete(self):
        sim = make_sim()
        sim.submit(paper_workload())
        timelines = sim.run(until=420.0)
        assert timelines.completed == 3 * 26

    def test_pod_counts_track_demand(self):
        sim = make_sim()
        sim.submit(paper_workload())
        timelines = sim.run(until=420.0)
        # "funcX provisioned one, five, and ten (ten is the maximum) pods"
        assert timelines.peak_pods("1s") == 1
        assert timelines.peak_pods("10s") == 5
        assert timelines.peak_pods("20s") == 10

    def test_pods_reclaimed_when_idle(self):
        sim = make_sim()
        sim.submit(paper_workload(bursts=1))
        timelines = sim.run(until=200.0)
        times, pods = timelines.active_pods.series("20s")
        # pods scale out, then back to zero well before the horizon
        assert pods.max() == 10
        assert pods[-1] == 0

    def test_each_burst_rescales(self):
        sim = make_sim()
        sim.submit(paper_workload(bursts=3))
        timelines = sim.run(until=420.0)
        grid = [float(t) for t in range(0, 420, 2)]
        pods = timelines.active_pods.step_resample("20s", grid)
        # pods rise after each burst arrival (t=0,120,240)
        for burst_start in (0, 120, 240):
            idx = grid.index(float(burst_start))
            window = pods[idx : idx + 15]
            assert window.max() >= 9

    def test_outstanding_drains_between_bursts(self):
        sim = make_sim()
        sim.submit(paper_workload(bursts=2))
        timelines = sim.run(until=300.0)
        grid = [110.0, 115.0]
        outstanding = timelines.outstanding.step_resample("20s", grid)
        assert (outstanding == 0).all()


class TestConfigurationVariants:
    def test_lower_pod_cap_slows_completion(self):
        def finish_time(max_pods):
            sim = make_sim(max_pods=max_pods)
            sim.submit(paper_workload(bursts=1))
            tl = sim.run(until=500.0)
            times, values = tl.outstanding.series("20s")
            drained = times[values == 0]
            return float(drained[0]) if drained.size else 500.0

        assert finish_time(2) > finish_time(10)

    def test_zero_grace_reclaims_faster(self):
        sim_fast = make_sim(idle_grace=0.0)
        sim_fast.submit(paper_workload(bursts=1))
        tl = sim_fast.run(until=120.0)
        _, pods = tl.active_pods.series("1s")
        assert pods[-1] == 0

    def test_empty_workload(self):
        sim = make_sim()
        sim.submit([])
        tl = sim.run(until=10.0)
        assert tl.completed == 0
