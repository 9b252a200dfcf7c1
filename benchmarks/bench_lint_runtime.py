"""Lint runtime gate: the full-src analyzer must stay fast enough to
run on every commit.

``repro lint`` carries a CFG + dataflow engine (the typestate protocol
fleet) and two cross-file passes that read one shared program model
(lock-order, thread-roles).  What CI and a
``repro lint --changed`` user pay is the *first* run of a process —
parse, comment harvest and model build with every cache cold — so that
is the run this gate times against the budget that keeps lint viable as
a tier-1 pre-commit step.  The warm best-of-N (parsed sources and models
cached) and the per-check seconds of a warm run are recorded beside it,
not gated.

Artifact: ``BENCH_lint_runtime.json`` at the repo root (full runs only;
a ``REPRO_BENCH_QUICK=1`` run gates and prints, and writes nothing).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from benchmarks.harness import ExperimentReport, persist, quick_mode
from repro.analysis import run_analysis
from repro.analysis import source as analysis_source
from repro.analysis.runner import ALL_CHECKS, GLOBAL_CHECKS

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_JSON = REPO_ROOT / "BENCH_lint_runtime.json"

RUNS = 3
RUNS_QUICK = 2

#: Gate threshold: a cold full-src lint must finish in under 3 seconds.
MAX_SECONDS = 3.0


def test_lint_runtime_gate():
    runs = RUNS_QUICK if quick_mode() else RUNS
    src = REPO_ROOT / "src"
    # Cold: whatever an earlier test in this process parsed is dropped.
    analysis_source._SOURCE_CACHE.clear()
    times: list[float] = []
    report_obj = None
    for _ in range(runs):
        start = time.perf_counter()
        report_obj = run_analysis([src], repo_root=REPO_ROOT)
        times.append(time.perf_counter() - start)
    assert report_obj is not None
    assert not report_obj.errors, report_obj.errors
    first, best = times[0], min(times[1:])

    sources = [entry[1] for entry in analysis_source._SOURCE_CACHE.values()]
    per_check: dict[str, float] = {}
    for check_id, check in ALL_CHECKS.items():
        start = time.perf_counter()
        for source in sources:
            list(check(source))
        per_check[check_id] = time.perf_counter() - start
    for check_id, check in GLOBAL_CHECKS.items():
        start = time.perf_counter()
        list(check(sources))
        per_check[check_id] = time.perf_counter() - start

    persist(RESULT_JSON, json.dumps({
        "runs": runs,
        "seconds_per_run": times,
        "first_seconds": first,
        "best_seconds": best,
        "per_check_seconds": per_check,
        "max_seconds": MAX_SECONDS,
        "files_analyzed": report_obj.files_analyzed,
        "findings": len(report_obj.findings),
    }, indent=2, sort_keys=True) + "\n")

    report = ExperimentReport(
        "lint_runtime",
        "full-src static-analysis wall-time gate (all checks)",
    )
    report.rows(
        ["files", "first run (s)", f"warm best of {runs - 1} (s)", "gate (s)"],
        [[report_obj.files_analyzed, first, best, MAX_SECONDS]],
    )
    report.note("the gate holds the first run (parse + model build, caches "
                "cold); warm runs reuse the parsed sources and the program "
                "model, so they pay only the checks' own fixpoints")
    report.finish()

    assert first < MAX_SECONDS, (
        f"cold full-src lint took {first:.2f}s (gate: <{MAX_SECONDS:.1f}s, "
        f"{report_obj.files_analyzed} files)"
    )
