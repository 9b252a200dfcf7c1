"""Smoke test of the benchmark itself: ``pytest bench/tests``.

Outside tier-1's ``testpaths`` on purpose: it starts the live fabric a
dozen times and takes about half a minute.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
LIVE = ("burst_tiny", "serial_rtt", "payload_128k", "open_trickle")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def quick(tmp_path_factory) -> tuple[dict, str, Path]:
    out = tmp_path_factory.mktemp("bench-out")
    done = subprocess.run(RUN + ["--quick", "--seed", "5", "--out", str(out)],
                          capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    return result, done.stdout, out


def declared(spec: dict, section: str) -> list[str]:
    return [entry["name"] for entry in spec[section]]


def test_declaration_is_within_the_limits(spec):
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [name for section in ("workloads", "end_to_end", "per_layer")
             for name in declared(spec, section)]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert any(entry["name"] == "setup_s" and entry["unit"] == "s"
               and entry["better"] == "lower" for entry in spec["end_to_end"])
    assert all(0 < entry["bound"] <= 0.25 for entry in spec["end_to_end"])


def test_what_is_printed_is_what_is_declared(spec, quick):
    result, printed, _out = quick
    assert list(result["workloads"]) == declared(spec, "workloads")
    ledger = set(result["drives"])
    for metrics in result["traced"].values():
        ledger |= set(metrics)
    for workload, record in result["workloads"].items():
        assert set(record["end_to_end"]) == set(declared(spec, "end_to_end")), workload
        assert set(record["per_layer"]) | ledger == set(declared(spec, "per_layer")), workload
    for name in declared(spec, "end_to_end") + declared(spec, "per_layer"):
        assert re.search(rf"^\s+{re.escape(name)}\s", printed, re.M), name


def test_every_output_was_right_and_every_layer_reported(quick):
    result, _printed, _out = quick
    for workload, record in result["workloads"].items():
        assert record["failed_share"] == 0 and record["correct"], workload
        assert all(value > 0 for value in record["end_to_end"].values()), workload
    assert result["reasons"] == {}
    assert all(value is not None for value in result["drives"].values())
    assert set(result["provenance"]) == {
        "commit", "python", "cpu_count", "timestamp", "seed", "quick"}


def test_thread_roles_account_for_the_process(quick):
    result, _printed, _out = quick
    for workload in LIVE:
        split = {name: value
                 for name, value in result["workloads"][workload]["per_layer"].items()
                 if name.endswith(".cpu_us_per_task")}
        assert abs(split["other.cpu_us_per_task"]) <= 0.02 * sum(split.values()), workload


def test_layer_self_times_add_up_to_the_trace(quick):
    result, _printed, out = quick
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    assert set(trace["inputs"]) == set(result["traced"]) == {"tiny", "128k"}
    for name, metrics in result["traced"].items():
        layers = sum(value for key, value in metrics.items()
                     if key.endswith(".self_us_per_task"))
        assert layers == pytest.approx(metrics["trace.total_us_per_task"], rel=0.05)
        assert metrics["trace.overhead_share"] < 1
        assert trace["inputs"][name]["spans"]


def test_live_metrics_come_from_the_least_disturbed_windows(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import PROBE_REFERENCE_S, steady_metrics

    # (seconds, tasks, CPU s, p50 s, p95 s, probe s): a quarter of the
    # windows quiet, the rest taking and costing twice as much.
    quiet = (0.25, 100, 100 * 1e-3, 8e-3, 9e-3, PROBE_REFERENCE_S)
    disturbed = (0.5, 100, 100 * 2e-3, 16e-3, 18e-3, PROBE_REFERENCE_S)
    series = [disturbed] * 30 + [quiet] * 10
    simulator = steady_metrics(series, 290.0, 2e-3, [], live=False)
    closed = steady_metrics(series, 290.0, 2e-3, [], live=True)
    opened = steady_metrics(series, 290.0, 2e-3, [], live=True, scheduled=True)
    assert simulator["cpu_us_per_task"] == pytest.approx(2000.0)
    assert simulator["tasks_per_s"] == pytest.approx(200.0)
    for live in (closed, opened):
        assert live["cpu_us_per_task"] == pytest.approx(1000.0)
        assert live["latency_p50_ms"] == pytest.approx(8.0)
        assert live["latency_p95_ms"] == pytest.approx(9.0)
    assert closed["tasks_per_s"] == pytest.approx(400.0)
    assert opened["tasks_per_s"] == 290.0  # the schedule's, over the whole run


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_declared_form_prints_one_result(spec, tmp_path, trace, section):
    done = subprocess.run(
        RUN + ["--workload", "serial_rtt", "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == declared(spec, section)
    units = {entry["name"]: entry["unit"] for entry in spec[section]}
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"} and metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float)), name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "burst_tiny", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path)
    assert done.returncode != 0
    assert "metrics" not in done.stdout
