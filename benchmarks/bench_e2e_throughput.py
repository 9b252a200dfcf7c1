"""End-to-end throughput gate: the fabric must beat per-message dispatch.

Drives a full live deployment (service → forwarder → agent → manager →
worker) over a channel with 1 ms injected one-way latency and a serial
per-transfer occupancy, and gates it against the frozen measurement of
the per-message, polling fabric it replaced
(``repro.perf.PER_MESSAGE_BASELINE``, recorded in the artifact's
``baseline`` block):

* **throughput** — a wave of trivial tasks; individual sends serialized
  on the occupied link while a coalesced batch envelope pays the
  transfer cost once, so the fabric must deliver ≥2x the baseline tasks/s;
* **latency** — sequential single-task round trips; the baseline's
  fixed 2 ms poll interval quantized p50, the wakeup-driven fabric must
  stay at least one poll quantum below it.

Artifacts: ``BENCH_e2e_throughput.json`` at the repo root and the usual
``benchmarks/results`` text report.
"""

from __future__ import annotations

import json
from pathlib import Path

from benchmarks.harness import ExperimentReport, quick_mode
from repro.perf import measure_e2e

RESULT_JSON = Path(__file__).resolve().parent.parent / "BENCH_e2e_throughput.json"

#: Throughput waves; best-of filters scheduler noise.
RUNS = 3
RUNS_QUICK = 2
TASKS = 128
TASKS_QUICK = 64
SAMPLES = 30
SAMPLES_QUICK = 15

#: One-way service↔endpoint latency (s) — the "1 ms injected latency"
#: operating point of the gate.
CHANNEL_LATENCY = 0.001
#: Serial per-transfer link occupancy (s): what coalescing amortizes.
TRANSFER_COST = 0.001

#: Gate thresholds.
MIN_SPEEDUP = 2.0
MIN_P50_IMPROVEMENT = 0.002  # one poll quantum of the baseline's loops


def test_e2e_throughput_gate():
    quick = quick_mode()
    result = measure_e2e(
        tasks=TASKS_QUICK if quick else TASKS,
        samples=SAMPLES_QUICK if quick else SAMPLES,
        latency=CHANNEL_LATENCY,
        transfer_cost=TRANSFER_COST,
        runs=RUNS_QUICK if quick else RUNS,
    )
    speedup = result["speedup"]
    p50_gain = result["p50_improvement_s"]

    RESULT_JSON.write_text(json.dumps({
        **result,
        "gates": {
            "min_speedup": MIN_SPEEDUP,
            "min_p50_improvement_s": MIN_P50_IMPROVEMENT,
        },
        "quick": quick,
    }, indent=2, sort_keys=True) + "\n")

    throughput, latency = result["throughput"], result["latency"]
    baseline = result["baseline"]
    report = ExperimentReport(
        "e2e_throughput",
        "dispatch fabric vs the frozen per-message baseline at 1 ms "
        "channel latency",
    )
    report.rows(
        ["fabric", "tasks/s", "p50 (ms)", "p99 (ms)"],
        [["this checkout", throughput["tasks_per_second"],
          latency["p50_s"] * 1e3, latency["p99_s"] * 1e3],
         [f"per-message @{baseline['commit']}", baseline["tasks_per_second"],
          baseline["p50_s"] * 1e3, baseline["p99_s"] * 1e3]],
    )
    report.line("")
    report.line(f"throughput speedup: {speedup:.2f}x (gate: >={MIN_SPEEDUP:.1f}x)")
    report.line(f"p50 improvement: {p50_gain * 1e3:.2f} ms "
                f"(gate: >= {MIN_P50_IMPROVEMENT * 1e3:.0f} ms, one poll "
                f"quantum of the baseline)")
    report.note("best-of waves; the baseline's per-message sends serialized "
                "on the occupied link while one batch envelope pays the "
                "transfer cost once")
    report.finish()

    assert speedup >= MIN_SPEEDUP, (
        f"the fabric delivers only {speedup:.2f}x the per-message baseline "
        f"({throughput['tasks_per_second']:.0f} vs "
        f"{baseline['tasks_per_second']:.0f} tasks/s)"
    )
    assert p50_gain >= MIN_P50_IMPROVEMENT, (
        f"p50 ({latency['p50_s'] * 1e3:.2f} ms) is only "
        f"{p50_gain * 1e3:.2f} ms below the polling baseline "
        f"({baseline['p50_s'] * 1e3:.2f} ms)"
    )
