"""Command-line interface for the reproduction.

Offline-friendly subcommands::

    python -m repro.cli demo                 # end-to-end live demo
    python -m repro.cli scale --platform cori --containers 1024
    python -m repro.cli elasticity           # figure-6 scenario
    python -m repro.cli casestudies          # figure-1 distributions
    python -m repro.cli platforms            # list platform models
    python -m repro.cli trace <task-id>      # a task's per-stage timeline
    python -m repro.cli metrics              # render an exported registry
    python -m repro.cli lint                 # fabric static analyzer

``demo --trace-out traces.jsonl --metrics-out metrics.jsonl`` exports the
task records and the metrics registry the ``trace``/``metrics``
subcommands read.

Each prints the same rows the corresponding benchmark regenerates, at a
smaller default scale suited to interactive use.  Performance is measured
from outside the package, by the checkout's ``python3 bench/run.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import EndpointConfig, LocalDeployment

    def double(x):
        return 2 * x

    with LocalDeployment() as deployment:
        client = deployment.client("demo-user")
        ep = deployment.create_endpoint(
            "demo-ep", nodes=args.nodes,
            config=EndpointConfig(workers_per_node=args.workers),
        )
        fid = client.register_function(double)
        print(f"registered function {fid}")
        task = client.run(fid, ep, 21)
        print(f"double(21) -> {client.wait_for(task, timeout=30)}")
        print(f"task id: {task}")
        mapped = client.map(fid, range(args.tasks), ep, batch_size=16)
        values = mapped.result(timeout=60)
        print(f"map over {args.tasks} inputs -> first 5: {values[:5]}")
        # Executor-grade SDK: batched submits, push-streamed results.
        with client.executor(ep) as executor:
            futures = [executor.submit(fid, i) for i in range(5)]
            streamed = [f.result(timeout=30) for f in futures]
        print(f"executor (push stream) double(0..4) -> {streamed}")
        if args.trace_out:
            records = [t.to_record() for t in deployment.service.iter_tasks()]
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, sort_keys=True) + "\n")
            print(f"wrote {len(records)} task records to {args.trace_out} "
                  f"(inspect with: repro trace {task} --input {args.trace_out})")
        if args.metrics_out:
            count = deployment.metrics.dump_jsonl(args.metrics_out)
            print(f"wrote {count} metrics to {args.metrics_out} "
                  f"(inspect with: repro metrics --input {args.metrics_out})")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.tasks import STAGES, stage_seconds

    try:
        with open(args.input, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    wanted = [r for r in records if r["task_id"].startswith(args.task_id)]
    if not wanted:
        print(f"no task record for id {args.task_id!r} in {args.input}",
              file=sys.stderr)
        return 1
    for record in wanted:
        times, state = record["state_times"], record["state"]
        print(f"task {record['task_id']}  {state}  attempts={record['attempts']}")
        seconds = stage_seconds(times, state)
        for stage, _start, _end in STAGES:
            text = (f"{seconds[stage] * 1e3:9.3f}ms" if stage in seconds
                    else "  (not stamped)")
            print(f"  {stage:<20s} {text:>14s}")
        if "received" in times and state in times:
            print(f"  end-to-end: {(times[state] - times['received']) * 1e3:.3f}ms")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.metrics.registry import MetricsRegistry, render_records

    try:
        records = MetricsRegistry.load_jsonl(args.input)
    except OSError as exc:
        print(f"cannot read {args.input}: {exc}", file=sys.stderr)
        return 1
    if args.name:
        records = [r for r in records if args.name in r["name"]]
    if not records:
        print("no matching metrics", file=sys.stderr)
        return 1
    print(render_records(records))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.sim import SimFabric
    from repro.sim.platform import PLATFORMS

    platform = PLATFORMS[args.platform]
    managers = platform.nodes_for(args.containers)
    workers = min(args.containers, platform.containers_per_node)
    fab = SimFabric(platform, managers=managers, workers_per_manager=workers,
                    prefetch=args.prefetch, seed=1)
    total = args.tasks if args.tasks else args.containers * 10
    fab.submit_batch(total, duration=args.duration)
    report = fab.run()
    print(f"platform={platform.name} containers={args.containers} "
          f"managers={managers}")
    print(f"tasks={report.tasks_completed:,} duration={args.duration}s each")
    print(f"completion: {report.completion_time:.2f}s "
          f"throughput: {report.throughput:,.0f} tasks/s "
          f"(agent ceiling {platform.agent_throughput_ceiling:,.0f}/s)")
    return 0


def _cmd_elasticity(args: argparse.Namespace) -> int:
    from repro.sim.elasticity import ElasticitySimulation
    from repro.workloads.generators import burst_arrivals

    sim = ElasticitySimulation()
    sim.submit(list(burst_arrivals(
        120.0, args.bursts, [("1s", 1, 1.0), ("10s", 5, 10.0), ("20s", 20, 20.0)]
    )))
    timelines = sim.run(until=args.bursts * 120.0 + 60.0)
    print("image  peak-pods  (cap 10)")
    for image in ("1s", "10s", "20s"):
        print(f"{image:>5s}  {timelines.peak_pods(image):9.0f}")
    print(f"functions completed: {timelines.completed}")
    return 0


def _cmd_casestudies(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.workloads import CASE_STUDIES

    print(f"{'case study':<14s} {'median':>8s} {'p95':>8s}  description")
    for name, study in sorted(CASE_STUDIES.items()):
        samples = study.sample_many(args.samples, seed=1)
        print(f"{name:<14s} {np.median(samples):8.3f} "
              f"{np.percentile(samples, 95):8.3f}  {study.description}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    """Exit codes: 0 = clean, 1 = findings, 2 = usage or internal error."""
    import inspect
    from pathlib import Path

    from repro.analysis import Baseline, run_analysis
    from repro.analysis.baseline import BASELINE_VERSION
    from repro.analysis.runner import ALL_CHECKS, GLOBAL_CHECKS

    if args.explain:
        known = {**ALL_CHECKS, **GLOBAL_CHECKS}
        check = known.get(args.explain)
        if check is None:
            print(f"unknown check {args.explain!r}; available: "
                  f"{', '.join(sorted(known))}", file=sys.stderr)
            return 2
        print(f"[{args.explain}]")
        print(inspect.getdoc(check))
        return 0

    roles = None
    if args.roles:
        from repro.analysis.threadroles import ROLES, canonical_role

        roles = [canonical_role(name) for spec in args.roles
                 for name in spec.split(",") if name.strip()]
        unknown_roles = sorted(set(roles) - set(ROLES))
        if unknown_roles:
            print(f"unknown role(s): {', '.join(unknown_roles)}; available: "
                  f"{', '.join(ROLES)}", file=sys.stderr)
            return 2

    checks = global_checks = None
    if args.protocols:
        names = [name.strip()
                 for spec in args.protocols for name in spec.split(",")
                 if name.strip()]
        unknown = sorted(set(names) - set(ALL_CHECKS) - set(GLOBAL_CHECKS))
        if unknown:
            print(f"unknown check(s): {', '.join(unknown)}; available: "
                  f"{', '.join(sorted({**ALL_CHECKS, **GLOBAL_CHECKS}))}",
                  file=sys.stderr)
            return 2
        checks = {n: ALL_CHECKS[n] for n in ALL_CHECKS if n in names}
        global_checks = {n: GLOBAL_CHECKS[n] for n in GLOBAL_CHECKS
                         if n in names}

    repo_root = Path(args.root).resolve()
    paths = [Path(p) for p in args.paths]
    for pattern in args.path_globs or []:
        matched = sorted(repo_root.glob(pattern))
        if not matched:
            print(f"--paths pattern {pattern!r} matched nothing under "
                  f"{repo_root}", file=sys.stderr)
            return 2
        paths.extend(matched)
    if args.changed:
        import subprocess
        try:
            diff = subprocess.run(
                ["git", "diff", "--name-only", "HEAD"],
                cwd=repo_root, capture_output=True, text=True, check=True)
            untracked = subprocess.run(
                ["git", "ls-files", "--others", "--exclude-standard"],
                cwd=repo_root, capture_output=True, text=True, check=True)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"--changed requires a git checkout at {repo_root}: {exc}",
                  file=sys.stderr)
            return 2
        changed = sorted({
            line.strip()
            for out in (diff.stdout, untracked.stdout)
            for line in out.splitlines() if line.strip().endswith(".py")
        })
        changed_paths = [repo_root / rel for rel in changed
                         if (repo_root / rel).exists()]
        if not changed_paths:
            print("no changed Python files; nothing to lint")
            return 0
        paths.extend(changed_paths)
    if not paths:
        paths = [repo_root / "src"]
    baseline_path = Path(args.baseline) if args.baseline else (
        repo_root / "analysis-baseline.json")

    if args.no_baseline:
        baseline = None
    else:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, json.JSONDecodeError) as exc:
            print(f"cannot read baseline {baseline_path}: {exc}", file=sys.stderr)
            return 2

    report = run_analysis(paths, repo_root=repo_root, baseline=baseline,
                          checks=checks, global_checks=global_checks,
                          roles=roles)

    if args.update_baseline:
        refreshed = Baseline.from_findings(report.all_findings())
        refreshed.save(baseline_path)
        print(f"baseline updated: {len(refreshed)} entr"
              f"{'y' if len(refreshed) == 1 else 'ies'} -> {baseline_path}")
        return 0

    if args.format == "json":
        print(json.dumps(report.to_record(), indent=2, sort_keys=True))
        return 0 if report.ok else 1
    if args.format == "sarif":
        from repro.analysis.sarif import to_sarif
        print(json.dumps(to_sarif(report), indent=2, sort_keys=True))
        return 0 if report.ok else 1

    for error in report.errors:
        print(f"error: {error}")
    for finding in report.findings:
        print(finding.format())
    for finding in report.infos:
        print(finding.format())
    parts = [f"{report.files_analyzed} files analyzed",
             f"{len(report.findings)} violation(s)"]
    if report.infos:
        parts.append(f"{len(report.infos)} advisory")
    if report.suppressed:
        parts.append(f"{len(report.suppressed)} baselined")
    if report.stale:
        parts.append(f"{len(report.stale)} stale baseline entr"
                     f"{'y' if len(report.stale) == 1 else 'ies'}")
    print("; ".join(parts))
    for entry in report.stale:
        print(f"  stale: [{entry.check}] {entry.path} {entry.symbol}: "
              f"{entry.line_text!r} (run --update-baseline to prune)")
    return 0 if report.ok else 1


def _cmd_platforms(args: argparse.Namespace) -> int:
    from repro.sim.platform import PLATFORMS

    print(f"{'platform':<8s} {'ctr/node':>8s} {'ceiling/s':>10s} {'cold(s)':>8s}")
    for name, platform in PLATFORMS.items():
        print(f"{name:<8s} {platform.containers_per_node:8d} "
              f"{platform.agent_throughput_ceiling:10.0f} "
              f"{platform.container_cold_start:8.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="funcX reproduction (HPDC 2020) command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run a live end-to-end demo")
    demo.add_argument("--nodes", type=int, default=1)
    demo.add_argument("--workers", type=int, default=4)
    demo.add_argument("--tasks", type=int, default=50)
    demo.add_argument("--trace-out", default="",
                      help="write every task record, timeline included "
                           "(JSON lines), to this path")
    demo.add_argument("--metrics-out", default="",
                      help="write the metrics registry (JSON lines) to this path")
    demo.set_defaults(func=_cmd_demo)

    trace = sub.add_parser(
        "trace", help="show a task's per-stage timeline")
    trace.add_argument("task_id", help="task id (prefix accepted)")
    trace.add_argument("--input", default="traces.jsonl",
                       help="task records written by 'demo --trace-out' "
                            "(default: traces.jsonl)")
    trace.set_defaults(func=_cmd_trace)

    metrics = sub.add_parser(
        "metrics", help="render an exported metrics registry")
    metrics.add_argument("--input", default="metrics.jsonl",
                         help="metrics dump written by 'demo --metrics-out' "
                              "(default: metrics.jsonl)")
    metrics.add_argument("--name", default="",
                         help="only show metrics whose name contains this")
    metrics.set_defaults(func=_cmd_metrics)

    scale = sub.add_parser("scale", help="simulate an agent scaling run")
    scale.add_argument("--platform", choices=["theta", "cori", "ec2", "k8s"],
                       default="theta")
    scale.add_argument("--containers", type=int, default=256)
    scale.add_argument("--tasks", type=int, default=0,
                       help="total tasks (default: 10 per container)")
    scale.add_argument("--duration", type=float, default=0.0)
    scale.add_argument("--prefetch", type=int, default=0)
    scale.set_defaults(func=_cmd_scale)

    elas = sub.add_parser("elasticity", help="simulate the figure-6 scenario")
    elas.add_argument("--bursts", type=int, default=3)
    elas.set_defaults(func=_cmd_elasticity)

    cases = sub.add_parser("casestudies", help="sample the figure-1 distributions")
    cases.add_argument("--samples", type=int, default=100)
    cases.set_defaults(func=_cmd_casestudies)

    plats = sub.add_parser("platforms", help="list platform models")
    plats.set_defaults(func=_cmd_platforms)

    lint = sub.add_parser(
        "lint",
        help="run the fabric static analyzer (guarded-by, determinism, "
             "wire-compat, blocking-under-lock, clock-domain, lease-ack, "
             "subscription-lifecycle, future-resolution, lock-order, "
             "handler-exhaustiveness, threadroles)",
        description="Exit codes: 0 = clean, 1 = findings reported, "
                    "2 = usage or internal error (bad baseline, unknown "
                    "check, glob matched nothing).")
    lint.add_argument("paths", nargs="*",
                      help="files or directories to analyze (default: src/)")
    lint.add_argument("--paths", dest="path_globs", action="append",
                      metavar="GLOB", default=[],
                      help="glob (relative to --root) selecting files to "
                           "analyze; repeatable; a pattern matching nothing "
                           "is an error (exit 2)")
    lint.add_argument("--changed", action="store_true",
                      help="analyze only Python files changed in the git "
                           "checkout (vs HEAD, plus untracked); exits 0 "
                           "when nothing changed, 2 outside a git repo")
    lint.add_argument("--protocols", dest="protocols", action="append",
                      metavar="NAME[,NAME]", default=[],
                      help="run only the named checks (comma-separated, "
                           "repeatable); unknown names are an error (exit 2)")
    lint.add_argument("--explain", metavar="CHECK", default="",
                      help="print what CHECK enforces and exit (exit 2 if "
                           "unknown)")
    lint.add_argument("--roles", action="append", metavar="ROLE[,ROLE]",
                      default=[],
                      help="restrict the threadroles pass to findings "
                           "involving these thread roles (comma-separated, "
                           "repeatable); unknown roles are an error (exit 2)")
    lint.add_argument("--root", default=".",
                      help="repository root for relative paths and the "
                           "default baseline location (default: .)")
    lint.add_argument("--baseline", default="",
                      help="baseline file (default: <root>/analysis-baseline.json)")
    lint.add_argument("--no-baseline", action="store_true",
                      help="report every finding, ignoring the baseline")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite the baseline to grandfather current findings")
    lint.add_argument("--format", choices=["text", "json", "sarif"],
                      default="text",
                      help="output format (default: text); sarif emits a "
                           "SARIF 2.1.0 document for code-scanning upload")
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
