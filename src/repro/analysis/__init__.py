"""repro.analysis: a repo-specific static analyzer for the fabric.

Shared state touched outside its lock, and nondeterminism leaking past
the injectable clock/RNG boundary (which silently breaks byte-for-byte
chaos replay), kept being re-found by hand; this package makes those
bug classes — and the reliability protocols around them — unmergeable.
Stdlib :mod:`ast` + :mod:`tokenize` only.  ``repro lint --explain
<check>`` prints what each check enforces; ``docs/ANALYSIS.md`` has the
annotation syntax, the baseline workflow and how to add a check.

Module map:

:mod:`source`, :mod:`findings`, :mod:`baseline`, :mod:`sarif`, :mod:`runner`
    Parsed files with their comment markers (``# guarded-by``,
    ``# clock-domain``, ``# thread-confined``, ``# handoff``,
    ``# lint: ignore``), findings and fingerprints, and the driver.
:mod:`model`
    The one program model: class table, receiver typing, call and lock
    resolution, and the held-lock walk.  Read by ``guarded-by``,
    ``blocking-under-lock``, ``lock-order`` and ``threadroles``.
:mod:`checks`
    The lexical checks: ``guarded-by``, ``determinism``,
    ``wire-compat``, ``blocking-under-lock``, ``clock-domain``.
:mod:`cfg`, :mod:`dataflow`, :mod:`protocols`
    Statement-level CFGs, forward dataflow, and the typestate registry
    on top: ``lease-ack``, ``subscription-lifecycle``,
    ``future-resolution``, plus the cross-file
    ``handler-exhaustiveness``.
:mod:`lockorder`, :mod:`threadroles`
    The cross-file lock-acquisition-order graph and the thread-role
    race inference.
:mod:`sanitizer`
    Their runtime twins (``SanitizedLock`` and the three recorders),
    opt-in via ``LocalDeployment(sanitize_locks=True)``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry
from repro.analysis.findings import Finding
from repro.analysis.lockorder import LockOrderGraph, extract_lock_graph
from repro.analysis.runner import (
    ALL_CHECKS,
    GLOBAL_CHECKS,
    AnalysisReport,
    analyze_paths,
    analyze_source,
    run_analysis,
)
from repro.analysis.sanitizer import (
    AccessRecorder,
    LockOrderRecorder,
    SanitizedLock,
    sanitize_access,
    sanitize_lock,
)
from repro.analysis.threadroles import (
    ROLES,
    RoleReport,
    build_role_report,
    canonical_role,
    role_for_thread,
)

__all__ = [
    "ALL_CHECKS",
    "GLOBAL_CHECKS",
    "AccessRecorder",
    "AnalysisReport",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "LockOrderGraph",
    "LockOrderRecorder",
    "ROLES",
    "RoleReport",
    "SanitizedLock",
    "analyze_paths",
    "analyze_source",
    "build_role_report",
    "canonical_role",
    "extract_lock_graph",
    "role_for_thread",
    "run_analysis",
    "sanitize_access",
    "sanitize_lock",
]
