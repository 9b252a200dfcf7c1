#!/usr/bin/env python3
"""Gate a declared `python3 bench/run.py --workload W ...` run in CI.

The run prints its result as JSON on its last line; the step passes
only if that result is `correct` and nothing `failed`.

usage: bench_run_ok.py <file holding the run's output>
"""

import json
import sys


def main(path: str) -> int:
    with open(path, encoding="utf-8") as output:
        lines = output.read().splitlines()
    if not lines:
        print(f"{path}: the run printed nothing")
        return 1
    last = json.loads(lines[-1])
    if last["correct"] is True and last["failed"] == 0:
        return 0
    print(f"{path}: correct={last['correct']!r} failed={last['failed']!r}")
    return 1


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
