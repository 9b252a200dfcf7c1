"""Interpreter calls per task, per thread role: a committed ledger.

A lone task on this fabric is CPU-bound interpreter work, and each
role's share of Python calls tracks its share of CPU.  A call count is
a count, so unlike a time it does not move with the box's speed state:
a change that makes a role do more per task shows here as a number.

A profile hook (``threading.setprofile`` plus ``sys.setprofile`` for
the calling thread) is installed before the deployment starts, so every
fabric thread is counted from its first call, keyed by thread and read
back by thread name as a role (``forwarder``, ``agent``, ``manager``,
``worker``, ``result-stream``, ``funcx-executor``; the calling thread
is ``caller``).  Two shapes, counted after warm-up:

* ``lone``: ``client.submit(...).result()`` one at a time (the
  ``serial_rtt`` shape);
* ``burst``: an executor given ``BURST`` calls at once, awaited, over
  and over (the ``burst_tiny`` shape: tiny tasks through every batched
  hop).

``tests/call_ledger.json`` holds, per shape and role, the median and
maximum calls per task over ``RUNS`` runs made one after another.  The
test fails when a run's count rises more than ``SLACK`` above the
recorded maximum.  Counts depend on the interpreter (3.12 inlines
comprehensions, for one), so the ledger names the Python version it was
recorded on and the test runs only on that version.  A change that moves the counts on purpose rewrites
the file with ``PYTHONPATH=src python -m tests.test_call_ledger`` and
reports the deltas.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro import LocalDeployment
from repro.endpoint.config import EndpointConfig

LEDGER = Path(__file__).with_name("call_ledger.json")
PYTHON = "%d.%d" % sys.version_info[:2]
SLACK = 0.02
RUNS = 10
WAIT = 30.0
LONE = 100
BURST = 64
BURSTS = 8


def double(x):
    return 2 * x


def role(name: str) -> str:
    if name == threading.main_thread().name:
        return "caller"
    for prefix in ("result-stream", "funcx-executor"):
        if name.startswith(prefix):
            return prefix
    return name.split("-", 1)[0]


class CallCounter:
    """Python calls per thread, from a profile hook on every thread
    started after :meth:`install` and on the installing thread."""

    def __init__(self):
        self.calls: Counter = Counter()
        get_ident = threading.get_ident
        calls = self.calls

        def hook(_frame, event, _arg):
            if event == "call":
                calls[get_ident()] += 1

        self._hook = hook

    def install(self) -> None:
        threading.setprofile(self._hook)
        sys.setprofile(self._hook)

    def remove(self) -> None:
        sys.setprofile(None)
        threading.setprofile(None)

    def by_role(self, before: Counter, tasks: int) -> dict[str, float]:
        """Calls per task since ``before``, summed per live thread's role."""
        names = {thread.ident: thread.name for thread in threading.enumerate()}
        roles: Counter = Counter()
        for ident, count in (self.calls - before).items():
            if ident in names:
                roles[role(names[ident])] += count
        return {name: count / tasks for name, count in sorted(roles.items())}


def measure() -> dict[str, dict[str, float]]:
    """One run of each shape: calls per task by role, plus ``total``."""
    counter = CallCounter()
    counter.install()
    try:
        with LocalDeployment() as deployment:
            endpoint_id = deployment.create_endpoint(
                "ledger", nodes=1, config=EndpointConfig(workers_per_node=4))
            client = deployment.client()
            function_id = client.register_function(double)
            for i in range(5):   # warm: registration, deploy, first body
                assert client.submit(function_id, endpoint_id, i).result(
                    timeout=WAIT) == 2 * i
            before = Counter(counter.calls)
            for i in range(LONE):
                assert client.submit(function_id, endpoint_id, i).result(
                    timeout=WAIT) == 2 * i
            lone = counter.by_role(before, LONE)
            with client.executor(endpoint_id) as executor:
                assert executor.submit(double, 1).result(timeout=WAIT) == 2
                before = Counter(counter.calls)
                for _ in range(BURSTS):
                    futures = [executor.submit(double, i)
                               for i in range(BURST)]
                    assert [f.result(timeout=WAIT) for f in futures] == [
                        2 * i for i in range(BURST)]
                burst = counter.by_role(before, BURST * BURSTS)
    finally:
        counter.remove()
    shapes = {"lone": lone, "burst": burst}
    for counts in shapes.values():
        counts["total"] = sum(counts.values())
    return shapes


def over(measured, ledger) -> list[str]:
    """Every (shape, role) whose count rose past the ledger's maximum."""
    return [
        f"{shape}/{name}: {count:.1f} calls/task > max "
        f"{ledger[shape][name]['max']:.1f} (+{SLACK:.0%})"
        for shape, counts in measured.items()
        for name, count in counts.items()
        if count > ledger[shape].get(name, {"max": 0.0})["max"] * (1 + SLACK)
    ]


class TestCallLedger:
    def test_no_role_makes_more_calls_per_task(self):
        recorded = json.loads(LEDGER.read_text())
        if recorded["python"] != PYTHON:
            pytest.skip(f"ledger recorded on Python {recorded['python']}")
        ledger = recorded["shapes"]
        measured = measure()
        # One rerun forgives a run that caught a periodic beat or fold;
        # a real rise fails both.
        rises = over(measured, ledger) and over(measure(), ledger)
        assert not rises, rises


def main() -> None:
    """Rewrite the ledger from ``RUNS`` runs and print the deltas."""
    runs = [measure() for _ in range(RUNS)]
    old = json.loads(LEDGER.read_text())["shapes"] if LEDGER.exists() else {}
    shapes = {}
    for shape in runs[0]:
        names = sorted({name for run in runs for name in run[shape]})
        shapes[shape] = {}
        for name in names:
            counts = [run[shape].get(name, 0.0) for run in runs]
            row = {"median": round(statistics.median(counts), 1),
                   "max": round(max(counts), 1)}
            shapes[shape][name] = row
            was = old.get(shape, {}).get(name, {}).get("median")
            delta = "" if was is None else f"  (was {was})"
            print(f"{shape:6s} {name:15s} median {row['median']:8.1f} "
                  f"max {row['max']:8.1f}{delta}")
    rows = ",\n".join(
        f'  "{shape}": {{\n' + ",\n".join(
            f'   "{name}": {json.dumps(row)}' for name, row in roles.items())
        + "\n  }" for shape, roles in shapes.items())
    LEDGER.write_text(
        f'{{\n "python": "{PYTHON}", "runs": {RUNS}, "lone_tasks": {LONE}, '
        f'"bursts": {BURSTS}, "burst_size": {BURST},\n'
        f' "shapes": {{\n{rows}\n }}\n}}\n')


if __name__ == "__main__":
    main()
