"""Figure 10 — effect of batch size (1–1024) on the science case studies.

Paper protocol (§5.5.4): for a subset of the case studies (functions of
~0.5 s to ~1 min), submit batches of increasing size to one container
and report average latency per request (batch completion time / batch
size).  Finding: batching slashes per-request latency for the shortest
functions, with diminishing returns at large batch sizes; long-running
functions barely benefit.

Reproduction: the live fabric runs real sleep-based stand-ins whose
durations are the case-study means *scaled down 100x* (XPCS's 50 s
becomes 0.5 s) so the sweep completes in bench time, over a channel
with injected client↔site latency (the paper's per-request overhead is
a WAN round trip to the cloud service, not a local function call); the
overhead being amortized (round trips, dispatch, worker messaging) is
the real thing, so the crossover shape is preserved.
"""

from __future__ import annotations

import time

from benchmarks.harness import ExperimentReport, quick_mode
from repro import EndpointConfig, LocalDeployment
from repro.fabric import DeploymentTimings
from repro.workloads import CASE_STUDIES

SCALE = 0.01
BATCH_SIZES = [1, 4, 16, 64, 256]
CASES = ["metadata", "ml_inference", "ssx", "xpcs"]  # the paper's subset

#: One-way service↔endpoint latency (s): a scaled-down stand-in for the
#: paper's client→cloud→HPC round trip that each unbatched request pays.
WAN_LATENCY = 0.005
WAN_TRANSFER_COST = 0.001


def make_case_sleeper(duration: float):
    def case_fn(_x: int) -> float:
        import time

        time.sleep(duration)
        return duration

    case_fn.__name__ = f"case_{duration:g}"
    return case_fn


def measure_case(duration: float, batch_sizes: list[int]) -> dict[int, float]:
    """Average latency per request (ms) for each batch size."""
    out = {}
    timings = DeploymentTimings(
        service_endpoint_latency=WAN_LATENCY,
        service_endpoint_transfer_cost=WAN_TRANSFER_COST,
    )
    with LocalDeployment(timings=timings) as dep:
        client = dep.client()
        ep = dep.create_endpoint(
            "fig10-ep", nodes=1,
            config=EndpointConfig(workers_per_node=1, heartbeat_period=0.2),
        )
        fid = client.register_function(make_case_sleeper(duration), public=True)
        for batch in batch_sizes:
            start = time.perf_counter()
            result = client.map(fid, range(batch), ep, batch_size=batch)
            assert result.wait(timeout=300)
            elapsed = time.perf_counter() - start
            out[batch] = elapsed / batch * 1000.0
    return out


def test_fig10_batching_case_studies(benchmark):
    batch_sizes = [1, 16] if quick_mode() else BATCH_SIZES

    def sweep():
        rows = {}
        for case in CASES:
            mean_duration = CASE_STUDIES[case].median * SCALE
            rows[case] = (mean_duration, measure_case(mean_duration, batch_sizes))
        return rows

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report = ExperimentReport(
        "fig10_batch_casestudies",
        f"Average latency per request vs batch size (ms; durations x{SCALE:g})",
    )
    table = []
    for case, (duration, per_batch) in results.items():
        table.append([case, f"{duration * 1000:.0f}ms"]
                     + [per_batch[b] for b in batch_sizes])
    report.rows(["case study", "fn time"] + [f"B={b}" for b in batch_sizes], table)
    report.note("paper: batching dramatically reduces per-request latency for "
                "the shortest functions; little effect for long functions; "
                "diminishing returns beyond tens-to-hundreds per batch")
    report.finish()

    # Short functions gain a lot...
    fast = results["ml_inference"][1]
    assert fast[batch_sizes[0]] > 3 * fast[batch_sizes[-1]]
    # ...long functions barely move (latency dominated by execution).
    slow_duration_ms = results["xpcs"][0] * 1000
    slow = results["xpcs"][1]
    assert slow[batch_sizes[-1]] > 0.8 * slow_duration_ms
    assert slow[batch_sizes[0]] < 2.0 * slow[batch_sizes[-1]]
