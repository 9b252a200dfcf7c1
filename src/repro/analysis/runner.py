"""Run the checks over files and fold in waivers and the baseline."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.checks import (
    check_blocking_under_lock,
    check_clock_domain,
    check_determinism,
    check_guarded_by,
    check_lease_ack,
    check_wire_compat,
)
from repro.analysis.findings import Finding, sort_findings
from repro.analysis.lockorder import check_lock_order
from repro.analysis.protocols import (
    check_future_resolution,
    check_handler_exhaustiveness,
    check_subscription_lifecycle,
)
from repro.analysis.source import SourceFile, load_source, module_name_for
from repro.analysis.threadroles import check_thread_roles, make_thread_roles_check

Check = Callable[[SourceFile], Iterator[Finding]]
GlobalCheck = Callable[[list[SourceFile]], Iterator[Finding]]

#: Check-id → implementation; order is report order for same-line findings.
ALL_CHECKS: dict[str, Check] = {
    "guarded-by": check_guarded_by,
    "determinism": check_determinism,
    "wire-compat": check_wire_compat,
    "blocking-under-lock": check_blocking_under_lock,
    "clock-domain": check_clock_domain,
    "lease-ack": check_lease_ack,
    "subscription-lifecycle": check_subscription_lifecycle,
    "future-resolution": check_future_resolution,
}

#: Checks that need the whole tree at once (cross-file graphs and
#: cross-component resource protocols).  They run after the per-file
#: pass; waivers still apply per finding line.
GLOBAL_CHECKS: dict[str, GlobalCheck] = {
    "lock-order": check_lock_order,
    "handler-exhaustiveness": check_handler_exhaustiveness,
    "threadroles": check_thread_roles,
}


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced."""

    findings: list[Finding] = field(default_factory=list)   # new (not baselined)
    infos: list[Finding] = field(default_factory=list)       # advisory severity
    suppressed: list[Finding] = field(default_factory=list)  # matched by baseline
    stale: list[BaselineEntry] = field(default_factory=list)
    files_analyzed: int = 0
    errors: list[str] = field(default_factory=list)          # unparseable files

    @property
    def ok(self) -> bool:
        """Build health: info-severity findings never fail a run."""
        return not self.findings and not self.errors

    def all_findings(self) -> list[Finding]:
        return sort_findings(self.findings + self.suppressed)

    def to_record(self) -> dict:
        def emit(findings: list[Finding]) -> list[dict]:
            # Byte-stable JSON: deterministic (check, path, line) order,
            # independent of check registration / dict iteration order.
            ordered = sorted(findings, key=lambda f: (f.check, f.path, f.line))
            return [f.to_record() for f in ordered]

        return {
            "ok": self.ok,
            "files_analyzed": self.files_analyzed,
            "findings": emit(self.findings),
            "infos": emit(self.infos),
            "suppressed": emit(self.suppressed),
            "stale": [e.to_record() for e in self.stale],
            "errors": list(self.errors),
        }


def analyze_source(source: SourceFile,
                   checks: dict[str, Check] | None = None) -> list[Finding]:
    """All non-waived findings for one parsed file (global checks run
    over the single file, so fixtures exercise them too)."""
    active = checks if checks is not None else ALL_CHECKS
    findings: list[Finding] = []
    for check_id, check in active.items():
        for finding in check(source):
            if not source.is_ignored(finding.line, check_id):
                findings.append(finding)
    if checks is None:
        findings.extend(_run_global_checks([source]))
    return sort_findings(findings)


def _run_global_checks(sources: list[SourceFile],
                       global_checks: dict[str, GlobalCheck] | None = None
                       ) -> list[Finding]:
    active = global_checks if global_checks is not None else GLOBAL_CHECKS
    by_path = {source.path: source for source in sources}
    findings: list[Finding] = []
    for check_id, check in active.items():
        for finding in check(sources):
            source = by_path.get(finding.path)
            if source is not None and source.is_ignored(finding.line, check_id):
                continue
            findings.append(finding)
    return findings


def iter_python_files(root: Path) -> Iterator[Path]:
    """Python files under ``root`` (a file or directory), sorted, skipping
    caches and hidden directories."""
    if root.is_file():
        if root.suffix == ".py":
            yield root
        return
    for path in sorted(root.rglob("*.py")):
        if any(part.startswith(".") or part == "__pycache__"
               for part in path.parts):
            continue
        yield path


def analyze_paths(paths: list[Path], repo_root: Path | None = None,
                  checks: dict[str, Check] | None = None,
                  global_checks: dict[str, GlobalCheck] | None = None,
                  roles: list[str] | None = None) -> AnalysisReport:
    """Analyze every Python file under ``paths`` (no baseline applied).

    ``checks``/``global_checks`` select subsets (``repro lint
    --protocols``); with both ``None`` every registered check runs.
    Passing only ``checks`` keeps the historical behavior of skipping
    the global pass entirely.  ``roles`` restricts the thread-role pass
    to findings involving those roles (``repro lint --roles``).
    """
    repo_root = repo_root or Path.cwd()
    if roles is not None:
        global_checks = dict(global_checks if global_checks is not None
                             else GLOBAL_CHECKS)
        if "threadroles" in global_checks:
            global_checks["threadroles"] = make_thread_roles_check(roles)
    if checks is None and global_checks is None:
        global_checks = GLOBAL_CHECKS
    report = AnalysisReport()
    sources: list[SourceFile] = []
    for root in paths:
        for file_path in iter_python_files(root):
            try:
                rel = file_path.resolve().relative_to(repo_root.resolve())
                rel_path = rel.as_posix()
            except ValueError:
                rel_path = file_path.as_posix()
            module = module_name_for(rel_path) or file_path.stem
            try:
                sources.append(load_source(file_path, rel_path, module))
            except (SyntaxError, UnicodeDecodeError) as exc:
                report.errors.append(f"{rel_path}: {exc}")
    report.files_analyzed = len(sources)
    # The cross-file checks go first: they build the program model over
    # the whole tree (so the lock-order graph sees every edge), and the
    # per-file lock checks then read the same per-file models instead of
    # building their own against a one-file context.
    if global_checks:
        report.findings.extend(_run_global_checks(sources, global_checks))
    for source in sources:
        report.findings.extend(analyze_source(
            source, checks if checks is not None else ALL_CHECKS))
    report.infos = sort_findings(
        [f for f in report.findings if f.severity != "error"])
    report.findings = sort_findings(
        [f for f in report.findings if f.severity == "error"])
    return report


def run_analysis(paths: list[Path], repo_root: Path | None = None,
                 baseline: Baseline | None = None,
                 checks: dict[str, Check] | None = None,
                 global_checks: dict[str, GlobalCheck] | None = None,
                 roles: list[str] | None = None) -> AnalysisReport:
    """Analyze ``paths`` and split findings against ``baseline``.

    Only error-severity findings are baselined (and only they gate
    :attr:`AnalysisReport.ok`); info findings ride along unfiltered.
    """
    report = analyze_paths(paths, repo_root=repo_root, checks=checks,
                           global_checks=global_checks, roles=roles)
    if baseline is not None and len(baseline):
        new, suppressed, stale = baseline.apply(report.findings)
        report.findings = new
        report.suppressed = suppressed
        report.stale = stale
    return report
