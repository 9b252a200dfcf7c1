"""Child-process entry point: run one part of the benchmark, print JSON.

``run.py`` starts every part in a fresh interpreter so that
``peak_rss_mb`` is the part's own, no heap or global state crosses from
one workload to the next, and a part that hangs can be killed without
losing the others.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("kind", choices=("workload", "drives", "traced"))
    parser.add_argument("name", nargs="?", default="")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--part", type=int, default=0,
                        help="which of a workload's measured processes this is")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of the full drive and traced-run sizes")
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"the program under test is missing: no {source}/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))

    if args.kind == "workload":
        from workloads import run_workload

        record = run_workload(args.name, args.seed, args.part, args.seconds,
                              args.spawned_at, args.setup_only)
    elif args.kind == "drives":
        from drives import run_drives

        record = run_drives(args.seed, args.scale)
    else:
        from traced import run_traced

        record = run_traced(args.name, args.seed, args.scale, args.out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
