"""The repo benchmark: one command, every metric by name with its unit.

    python3 bench/run.py [--seed N] [--out DIR] [--quick] [--selfcheck]

runs the five workloads, the isolated drives and the traced run, checks
every output, prints the end-to-end and per-layer metrics and writes
``DIR/result.json`` and ``DIR/trace.json``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

is the form ``BENCHMARK.json`` declares: it runs one workload and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

Every part runs in a fresh child process (``child.py``); this file only
starts them, enforces their deadlines and aggregates what they print.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from stats import median, quartile_spread  # noqa: E402
from workloads import OVERRUN, task_count  # noqa: E402

#: Per workload: measured processes, further set-up-only processes (so
#: ``setup_s`` is a median of five; seven for ``payload_128k``, whose
#: set-ups follow a 1 GB teardown and scatter more; three for the
#: simulator, whose set-up takes seconds), and the traced run's input that
#: resembles it.  ``payload_128k`` measures five times because one of its
#: processes may hold only 3,000 tasks, which it finishes in under 3 s.
PLAN = {
    "burst_tiny": (1, 4, "tiny"),
    "serial_rtt": (1, 4, "tiny"),
    "payload_128k": (5, 2, "128k"),
    "open_trickle": (1, 4, "tiny"),
    "sim_weak_131k": (1, 2, ""),
}
#: ``--quick`` divides every count by this.
QUICK = 20
#: A child that has not finished by then is killed and counted all-failed.
CHILD_GRACE_S = 45.0
#: The declared form must end within 180 s whatever happens.
CONTRACT_BUDGET_S = 170.0


class Spec:
    """``BENCHMARK.json``: the declared workloads, metrics and bounds."""

    def __init__(self) -> None:
        with (ROOT / "BENCHMARK.json").open(encoding="utf-8") as handle:
            raw = json.load(handle)
        self.run_seconds = float(raw["run_seconds"])
        self.workloads = [entry["name"] for entry in raw["workloads"]]
        self.end_to_end = {entry["name"]: entry for entry in raw["end_to_end"]}
        self.per_layer = {entry["name"]: entry for entry in raw["per_layer"]}

    def unit(self, name: str) -> str:
        entry = self.end_to_end.get(name) or self.per_layer.get(name) or {}
        return entry.get("unit", "?")


# -- children ----------------------------------------------------------------
def spawn(arguments: list[str], cap_s: float) -> dict[str, Any]:
    """Run ``child.py`` and return the JSON it printed last, or
    ``{"error": reason}`` if it crashed, hung (it is killed) or printed
    something else."""
    command = [sys.executable, str(BENCH / "child.py"), *arguments,
               "--spawned-at", repr(time.time())]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(1.0, cap_s), cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"killed after {cap_s:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = (done.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"exit code {done.returncode}: {tail}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        return {"error": f"unreadable output: {exc}"}


def child_cap(seconds: float, deadline: float | None) -> float:
    cap = OVERRUN * seconds + CHILD_GRACE_S
    return cap if deadline is None else min(cap, deadline - time.monotonic())


def measure(workload: str, seed: int, seconds: float, parts: int,
            setups: int, deadline: float | None) -> dict[str, Any]:
    """Run a workload's measured and set-up-only processes, one after the
    other; each end-to-end metric is the median over the processes that
    report it."""
    values: dict[str, list[float]] = {}
    record: dict[str, Any] = {
        "attempted": 0, "failed": 0, "samples": 0, "correct": True,
        "valid": True, "notes": [], "per_layer": {}, "diagnostics": []}
    for part in range(parts + setups):
        arguments = ["workload", workload, "--seed", str(seed),
                     "--part", str(part), "--seconds", repr(seconds)]
        measured = part < parts
        if not measured:
            arguments.append("--setup-only")
        child = spawn(arguments, child_cap(seconds, deadline))
        if "error" in child:
            record["notes"].append(f"process {part}: {child['error']}")
            if measured:  # lost with everything it was to run
                count = task_count(workload, seconds)
                record["attempted"] += count
                record["failed"] += count
                record["correct"] = False
            continue
        for name, value in child["end_to_end"].items():
            values.setdefault(name, []).append(value)
        if measured:
            for key in ("attempted", "failed", "samples"):
                record[key] += child[key]
            record["correct"] &= child["correct"]
            record["valid"] &= child["valid"]
            record["notes"] += child["notes"]
            record["per_layer"] = child["per_layer"]
            record["diagnostics"].append(child["diagnostics"])
    record["end_to_end"] = {name: median(series) for name, series in values.items()}
    record["failed_share"] = record["failed"] / max(1, record["attempted"])
    return record


def drives(seed: int, scale: float, deadline: float | None) -> dict[str, Any]:
    """The isolated drives: ``{"per_layer": ..., "reasons": ...}``."""
    child = spawn(["drives", "--seed", str(seed), "--scale", repr(scale)],
                  child_cap(12.0, deadline))
    if "error" in child:
        return {"per_layer": {}, "reasons": {"drives": child["error"]}}
    return child


def traced(inputs: list[str], seed: int, scale: float, out: Path,
           deadline: float | None) -> dict[str, dict[str, Any]]:
    """The traced run of each input: ``{input: {"per_layer": ..., "reasons":
    ...}}``; writes ``out/trace.json``."""
    child = spawn(["traced", ",".join(inputs), "--seed", str(seed), "--scale",
                   repr(scale), "--out", str(out)], child_cap(12.0, deadline))
    if "error" in child:
        return {name: {"per_layer": {}, "reasons": {"traced run": child["error"]}}
                for name in inputs}
    return child["inputs"]


# -- the declared form ---------------------------------------------------------
def run_declared(spec: Spec, args: argparse.Namespace) -> int:
    deadline = time.monotonic() + CONTRACT_BUDGET_S
    workload, seconds = args.workload, args.seconds
    parts, setups, traced_input = PLAN[workload]
    if args.trace:
        scale = min(1.0, seconds / spec.run_seconds)
        record = measure(workload, args.seed, seconds, 1, 0, deadline)
        ledgers = [drives(args.seed, scale, deadline)]
        if traced_input:
            ledgers.append(traced([traced_input], args.seed, scale, args.out,
                                  deadline)[traced_input])
        found, reasons = dict(record["per_layer"]), {}
        for part in ledgers:
            found.update(part["per_layer"])
            reasons.update(part["reasons"])
        if not traced_input:
            # The simulator passes through none of the traced layers.
            found.update({name: 0.0 for name in spec.per_layer
                          if name.endswith(".self_us_per_task")
                          or name.startswith("trace.")})
        declared = spec.per_layer
    else:
        record = measure(workload, args.seed, seconds, parts, setups, deadline)
        found, reasons, declared = record["end_to_end"], {}, spec.end_to_end
    for note in record["notes"]:
        print(f"note: {note}", file=sys.stderr)
    for name in declared:
        if found.get(name) is None:
            print(f"note: {name} is null: {reasons.get(name, 'not reported')}",
                  file=sys.stderr)
    print(json.dumps({
        "correct": bool(record["correct"] and record["failed"] == 0),
        "attempted": max(1, record["attempted"]),
        "failed": record["failed"],
        "metrics": {name: {"value": found.get(name), "unit": entry["unit"]}
                    for name, entry in declared.items()},
    }))
    return 0


# -- the whole benchmark ---------------------------------------------------------
def provenance(seed: int, quick: bool) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "seed": seed,
        "quick": quick,
    }


def run_all(spec: Spec, seed: int, quick: bool, out: Path,
            layers: bool = True) -> dict[str, Any]:
    seconds = spec.run_seconds / QUICK if quick else spec.run_seconds
    scale = 1.0 / QUICK if quick else 1.0
    result: dict[str, Any] = {
        "provenance": provenance(seed, quick), "workloads": {},
        "drives": {}, "traced": {}, "reasons": {}}
    for workload in spec.workloads:
        parts, setups, _traced = PLAN[workload]
        if quick:
            parts, setups = 1, 0
        result["workloads"][workload] = measure(
            workload, seed, seconds, parts, setups, None)
    if layers:
        ledger = drives(seed, scale, None)
        result["drives"] = ledger["per_layer"]
        result["reasons"].update(ledger["reasons"])
        for name, part in traced(["tiny", "128k"], seed, scale, out, None).items():
            result["traced"][name] = part["per_layer"]
            result["reasons"].update(
                {f"{name}: {key}": why for key, why in part["reasons"].items()})
    return result


def show(spec: Spec, result: dict[str, Any]) -> None:
    def line(name: str, value: Any, extra: str = "") -> None:
        text = "null" if value is None else f"{value:14.4f}"
        print(f"  {name:32s} {text:>14s} {spec.unit(name):6s}{extra}")

    print("provenance: " + json.dumps(result["provenance"]))
    for workload, record in result["workloads"].items():
        flag = "" if record["valid"] else "  INVALID"
        print(f"\n== {workload}: {record['attempted']} attempted, "
              f"{record['failed']} failed (failed_share "
              f"{record['failed_share']:.4f}), {record['samples']} latency "
              f"samples{flag}")
        for name, entry in spec.end_to_end.items():
            line(name, record["end_to_end"].get(name),
                 f" (may worsen by {100 * entry['bound']:.0f} %)")
        print("  -- per layer, from the same run")
        for name, value in record["per_layer"].items():
            line(name, value)
        for note in record["notes"]:
            print(f"  note: {note}")
    if result["drives"]:
        print("\n== isolated drives")
        for name, value in result["drives"].items():
            line(name, value)
    for name, metrics in result["traced"].items():
        print(f"\n== traced run, {name} input")
        for key, value in metrics.items():
            line(key, value)
    for name, reason in result["reasons"].items():
        print(f"note: {name}: {reason}")


def failures(spec: Spec, result: dict[str, Any]) -> list[str]:
    """What makes a run of the whole benchmark fail."""
    found = []
    for workload, record in result["workloads"].items():
        if record["failed"] or not record["correct"]:
            found.append(f"{workload}: {record['failed']} of "
                         f"{record['attempted']} tasks failed")
        missing = set(spec.end_to_end) - set(record["end_to_end"])
        if missing:
            found.append(f"{workload}: no {', '.join(sorted(missing))}")
    return found


def selfcheck(spec: Spec, seed: int, out: Path) -> int:
    """Two sets of three runs of the same checkout must agree within the
    bounds; prints the spread of all six per metric and workload."""
    sets: list[list[dict[str, Any]]] = []
    for first in (seed, seed + 3):
        sets.append([run_all(spec, first + offset, False, out, layers=False)
                     for offset in range(3)])
    disagreements = 0
    print(f"{'workload':16s} {'metric':18s} {'set 1':>12s} {'set 2':>12s} "
          f"{'shift':>8s} {'spread':>8s} {'bound':>6s}")
    for workload in spec.workloads:
        for name, entry in spec.end_to_end.items():
            series = [[run["workloads"][workload]["end_to_end"][name]
                       for run in runs] for runs in sets]
            first, second = (median(values) for values in series)
            shift = abs(second - first) / first
            spread = quartile_spread(series[0] + series[1])
            bad = shift > entry["bound"]
            disagreements += bad
            print(f"{workload:16s} {name:18s} {first:12.4f} {second:12.4f} "
                  f"{100 * shift:7.2f}% {100 * spread:7.2f}% "
                  f"{100 * entry['bound']:5.0f}%{'  DISAGREE' if bad else ''}")
    failed = [text for runs in sets for run in runs
              for text in failures(spec, run)]
    for text in failed:
        print(f"failed: {text}")
    return 1 if disagreements or failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    parser.add_argument("--quick", action="store_true",
                        help=f"counts divided by {QUICK}: a smoke run")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--workload", choices=sorted(PLAN))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is missing: no {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    spec = Spec()
    if args.workload:
        if args.seconds is None:
            args.seconds = spec.run_seconds
        return run_declared(spec, args)
    if args.selfcheck:
        return selfcheck(spec, args.seed, args.out)
    result = run_all(spec, args.seed, args.quick, args.out)
    show(spec, result)
    args.out.mkdir(parents=True, exist_ok=True)
    with (args.out / "result.json").open("w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    failed = failures(spec, result)
    for text in failed:
        print(f"failed: {text}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
