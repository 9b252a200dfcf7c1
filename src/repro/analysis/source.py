"""The analyzer's view of one Python source file.

:class:`SourceFile` bundles the parsed AST with the comment markers the
checks consume.  Comments are extracted with :mod:`tokenize` (never by
string-scanning raw lines) so a ``#`` inside a string literal can never
masquerade as an annotation.

Recognized markers (all trailing comments):

``# guarded-by: self._lock``
    On an attribute assignment (``self._pending = ...``): declares the
    attribute guarded by that lock.  On a ``def`` line: declares that
    callers invoke the function with the lock already held.
``# clock-domain: monotonic`` / ``# clock-domain: wall``
    Declares which time domain the assigned clock belongs to.
``# thread-confined: <role>``
    On an attribute assignment: declares that the attribute, despite
    being written from what looks like several thread roles, is only
    ever touched by the named role at runtime (publish-before-start:
    the other writes happen before the owning thread exists).
``# handoff``
    On an attribute write: declares a deliberate cross-thread transfer
    (queue-handoff idiom) whose happens-before edge is provided by the
    transfer mechanism itself; the write site is excluded from the
    thread-role race computation.
``# lint: ignore`` / ``# lint: ignore[check-id, ...]``
    Waives findings on that line (all checks, or the listed ones).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.analysis.findings import Finding

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*(?:self\.)?([A-Za-z_]\w*)")
_CLOCK_DOMAIN_RE = re.compile(r"#\s*clock-domain:\s*(monotonic|wall)\b")
_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([^\]]*)\])?")
_CONFINED_RE = re.compile(r"#\s*thread-confined:\s*([A-Za-z][\w-]*)")
_HANDOFF_RE = re.compile(r"#\s*handoff\b")


@dataclass
class SourceFile:
    """A parsed module plus its analyzer annotations."""

    path: str                      # repo-relative posix path (report key)
    module: str                    # dotted module name, e.g. "repro.core.service"
    text: str
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)      # line -> comment
    ignores: dict[int, frozenset[str]] = field(default_factory=dict)
    guard_comments: dict[int, str] = field(default_factory=dict)  # line -> lock name
    clock_domains: dict[int, str] = field(default_factory=dict)   # line -> domain
    confined_roles: dict[int, str] = field(default_factory=dict)  # line -> role
    handoff_lines: set[int] = field(default_factory=set)

    #: Lazily-built derived structures shared by every pass that looks at
    #: this file (class defs, symbol intervals, the program model, ...) so
    #: the fourth global pass costs walks, not re-walks.  Keyed by the
    #: deriving helper; see :meth:`derived`.
    _derived: dict = field(default_factory=dict, repr=False)

    def derived(self, key: str, build, still_valid=None):
        """Cache ``build()`` under ``key`` for the life of this parse
        (rebuilt when ``still_valid(cached)`` says the entry is stale)."""
        cached = self._derived.get(key)
        if cached is None or (still_valid is not None
                              and not still_valid(cached)):
            cached = self._derived[key] = build()
        return cached

    def definitions(self) -> list[tuple[ast.AST, str]]:
        """Every def/class with its qualified name, outermost first in
        source order (cached; one statement-level walk serves the class
        table, the function list and :meth:`symbol_at`)."""
        return self.derived(
            "definitions", lambda: _definitions(self.tree.body, ""))

    def symbol_at(self, lineno: int) -> str:
        """Qualified name of the innermost def/class containing ``lineno``."""
        best = "<module>"
        best_span = None
        for node, qname in self.definitions():
            end = getattr(node, "end_lineno", node.lineno)
            if node.lineno <= lineno <= end:
                span = end - node.lineno
                if best_span is None or span <= best_span:
                    best, best_span = qname, span
        return best

    @property
    def lines(self) -> list[str]:
        return self.derived("lines", self.text.splitlines)

    def line_text(self, lineno: int) -> str:
        lines = self.lines
        if 1 <= lineno <= len(lines):
            return lines[lineno - 1].strip()
        return ""

    def is_ignored(self, lineno: int, check: str) -> bool:
        waived = self.ignores.get(lineno)
        if waived is None:
            return False
        return "*" in waived or check in waived

    def finding(self, check: str, where: ast.AST | int, message: str,
                hint: str, symbol: str | None = None,
                severity: str = "error") -> Finding:
        """A finding anchored at ``where``: an AST node, or a bare line
        number (column 0).  ``symbol`` defaults to the innermost def or
        class around it."""
        lineno = where if isinstance(where, int) else getattr(where, "lineno", 1)
        return Finding(
            check=check,
            path=self.path,
            line=lineno,
            col=getattr(where, "col_offset", 0),
            symbol=symbol or self.symbol_at(lineno),
            message=message,
            hint=hint,
            line_text=self.line_text(lineno),
            severity=severity,
        )


def parse_source(text: str, path: str, module: str) -> SourceFile:
    """Parse ``text`` into a :class:`SourceFile` (raises ``SyntaxError``)."""
    tree = ast.parse(text, filename=path)
    source = SourceFile(path=path, module=module, text=text, tree=tree)
    _collect_comments(source)
    return source


#: Process-wide parsed-source cache.  ``checks``/``protocols``/``lockorder``
#: and the thread-role pass all analyze the same tree; repeated
#: ``run_analysis`` calls (the lint-runtime bench, the CLI after a test
#: run) should pay the read+parse once per file *content*, not per pass
#: per run.  Keyed by absolute path; invalidated by (mtime_ns, size).
_SOURCE_CACHE: dict[str, tuple[tuple[int, int], SourceFile]] = {}


def load_source(file_path: Path, rel_path: str, module: str) -> SourceFile:
    try:
        stat = file_path.stat()
        signature = (stat.st_mtime_ns, stat.st_size)
    except OSError:
        signature = None
    key = str(file_path.resolve())
    if signature is not None:
        cached = _SOURCE_CACHE.get(key)
        if (cached is not None and cached[0] == signature
                and cached[1].path == rel_path):
            return cached[1]
    text = file_path.read_text(encoding="utf-8")
    source = parse_source(text, path=rel_path, module=module)
    if signature is not None:
        _SOURCE_CACHE[key] = (signature, source)
    return source


def module_name_for(rel_path: str) -> str | None:
    """Dotted module for a repo-relative path (``src`` layout aware).

    ``src/repro/core/service.py`` → ``repro.core.service``; paths outside
    a recognizable package root fall back to the stem chain.
    """
    parts = list(Path(rel_path).with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else None


def _collect_comments(source: SourceFile) -> None:
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source.text).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            lineno = token.start[0]
            comment = token.string
            source.comments[lineno] = comment
            guard = _GUARDED_BY_RE.search(comment)
            if guard:
                source.guard_comments[lineno] = guard.group(1)
            domain = _CLOCK_DOMAIN_RE.search(comment)
            if domain:
                source.clock_domains[lineno] = domain.group(1)
            confined = _CONFINED_RE.search(comment)
            if confined:
                source.confined_roles[lineno] = confined.group(1)
            if _HANDOFF_RE.search(comment):
                source.handoff_lines.add(lineno)
            ignore = _IGNORE_RE.search(comment)
            if ignore:
                listed = ignore.group(1)
                if listed is None:
                    source.ignores[lineno] = frozenset({"*"})
                else:
                    checks = frozenset(
                        item.strip() for item in listed.split(",") if item.strip()
                    )
                    source.ignores[lineno] = checks or frozenset({"*"})
    except tokenize.TokenError:
        # A file that parses but fails tokenization (rare) simply loses
        # its comment annotations; the AST checks still run.
        pass


# ----------------------------------------------------------------------
# shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.expr) -> str | None:
    """``self._lock`` / ``queue.ack`` → the dotted path, else ``None``."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


#: Where a statement keeps nested statements (``handlers`` and ``cases``
#: hold ExceptHandler / match_case nodes, which have a ``body`` too).
_BLOCKS = ("body", "orelse", "finalbody", "handlers", "cases")

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def iter_statements(body) -> Iterator[ast.AST]:
    """Every statement under ``body`` in source order — nested blocks and
    nested def/class bodies included, expressions never entered."""
    for stmt in body:
        yield stmt
        for block in _BLOCKS:
            yield from iter_statements(getattr(stmt, block, ()))


def _definitions(body, prefix: str) -> list[tuple[ast.AST, str]]:
    found: list[tuple[ast.AST, str]] = []
    for stmt in body:
        if isinstance(stmt, _DEFINITIONS):
            qname = f"{prefix}.{stmt.name}" if prefix else stmt.name
            found.append((stmt, qname))
            found.extend(_definitions(stmt.body, qname))
        else:
            for block in _BLOCKS:
                found.extend(_definitions(getattr(stmt, block, ()), prefix))
    return found
