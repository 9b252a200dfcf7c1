"""Figure 6 — elasticity: pods tracking function load on Kubernetes.

Paper protocol (§5.3): three sleep functions (1 s, 10 s, 20 s), each in
its own container, capped at 0–10 pods.  Every 120 s the client submits
one 1 s, five 10 s and twenty 20 s functions.  The figure shows pending+
executing functions (top) and active pods (bottom) over time.

Reproduction: the event-driven elasticity simulation drives the real
KubernetesProvider and SimpleScalingStrategy policy objects.
"""

from __future__ import annotations

import numpy as np

from benchmarks.harness import ExperimentReport
from repro.providers import KubernetesProvider, SimpleScalingStrategy
from repro.sim.elasticity import ElasticitySimulation
from repro.workloads.generators import burst_arrivals

HORIZON = 420.0


def run_elasticity():
    provider = KubernetesProvider(
        max_pods_per_image=10, startup_mean=2.0, startup_jitter=0.3, seed=7
    )
    strategy = SimpleScalingStrategy(
        max_units_per_image=10, min_units_per_image=0, idle_grace=5.0
    )
    sim = ElasticitySimulation(provider=provider, strategy=strategy)
    sim.submit(
        list(
            burst_arrivals(
                120.0, 3, [("1s", 1, 1.0), ("10s", 5, 10.0), ("20s", 20, 20.0)]
            )
        )
    )
    return sim.run(until=HORIZON)


def test_fig6_elasticity(benchmark):
    timelines = benchmark.pedantic(run_elasticity, rounds=1, iterations=1)

    report = ExperimentReport(
        "fig6_elasticity", "Concurrent functions and active pods over time"
    )
    grid = np.arange(0.0, HORIZON, 10.0)
    rows = []
    for t in grid:
        row = [f"{t:.0f}"]
        for image in ("1s", "10s", "20s"):
            row.append(int(timelines.outstanding.step_resample(image, [t])[0]))
        for image in ("1s", "10s", "20s"):
            row.append(int(timelines.active_pods.step_resample(image, [t])[0]))
        rows.append(row)
    report.rows(
        ["t (s)", "fn 1s", "fn 10s", "fn 20s", "pods 1s", "pods 10s", "pods 20s"],
        rows,
    )
    report.line("")
    report.line(
        "peak pods per image: "
        + ", ".join(
            f"{img}={timelines.peak_pods(img):.0f}" for img in ("1s", "10s", "20s")
        )
        + "   (paper: 1, 5, 10 — ten is the cap)"
    )
    report.note("functions completed: "
                f"{timelines.completed} of 78 submitted across 3 bursts")
    report.finish()

    # Paper findings: pods scale to 1 / 5 / 10 at each burst and unused
    # pods are terminated between bursts.
    assert timelines.peak_pods("1s") == 1
    assert timelines.peak_pods("10s") == 5
    assert timelines.peak_pods("20s") == 10
    assert timelines.completed == 78
    # pods reclaimed before the next burst (t≈110 s)
    idle_pods = timelines.active_pods.step_resample("20s", [110.0])[0]
    assert idle_pods == 0
