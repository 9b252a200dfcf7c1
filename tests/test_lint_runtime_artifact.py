"""``BENCH_lint_runtime.json`` describes the analyzer as it is.

The artifact is rewritten only by a full run of
``benchmarks/bench_lint_runtime.py``; this test fails when a check was
added or removed, or ``src/`` gained or lost a file, since that run.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.runner import ALL_CHECKS, GLOBAL_CHECKS, iter_python_files

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACT = REPO_ROOT / "BENCH_lint_runtime.json"
REGENERATE = "regenerate it: PYTHONPATH=src:. python -m pytest benchmarks/bench_lint_runtime.py"


def test_artifact_times_every_registered_check_and_no_other():
    timed = set(json.loads(ARTIFACT.read_text())["per_check_seconds"])
    registered = set(ALL_CHECKS) | set(GLOBAL_CHECKS)
    assert timed == registered, (
        f"timed but gone: {sorted(timed - registered)}; registered but "
        f"untimed: {sorted(registered - timed)}; {REGENERATE}")


def test_artifact_counts_the_files_repro_lint_reads():
    recorded = json.loads(ARTIFACT.read_text())["files_analyzed"]
    read = len(list(iter_python_files(REPO_ROOT / "src")))
    assert recorded == read, f"{recorded} recorded, {read} read; {REGENERATE}"
