"""Thread-role inference and cross-role race detection.

The ``guarded-by`` check *verifies* annotations; this pass *discovers*
the shared state nobody annotated (the RacerD direction: infer which
threads can execute which code, then intersect).  It runs in three
stages over the whole tree:

1. **Role graph.**  Every ``threading.Thread(target=...)`` spawn site is
   harvested and its thread *role* resolved from the ``name=`` keyword
   (``name=f"worker-{id}"`` → role ``worker``), normalized through the
   fabric taxonomy: ``main``, ``forwarder-loop``, ``agent-loop``,
   ``manager-loop``, ``worker``, ``stream-delivery``,
   ``executor-batcher``, ``elasticity``, ``chaos-scheduler``,
   ``callback``.  Entry seeds: spawn targets get their spawn role,
   public methods/functions get ``main`` (any caller thread can reach
   them; ``__init__`` is excluded — construction owns the object), and
   method references that *escape* as values (passed to ``subscribe``/
   ``attach``/stored in a field) get ``callback`` — they run on whatever
   thread fires them.  Roles then propagate caller → callee over the
   call sites the program model (:mod:`repro.analysis.model`) resolved
   — the same ones the lock-order pass follows — so each method ends
   with the set of roles that can execute it.

2. **Access sets.**  For every ``self.<attr>`` read/write outside
   ``__init__`` the pass takes the access kind and the lock set the
   model's held-lock walk recorded there — lexical ``with`` scopes and
   ``# guarded-by`` held-marker methods — *plus* a must-hold
   intersection propagated through call sites (a private helper only
   ever invoked under ``self._lock`` inherits that lock).

3. **Findings.**  *Sufficiency*: an attribute **written from ≥ 2 roles
   with no common lock and no ``guarded-by`` annotation** is a race
   candidate (error).  *Necessity*: an annotated attribute only ever
   touched from one role is a stale annotation (info — it does not fail
   the build).  Two waivers cover the idioms that are safe without
   locks: ``# thread-confined: <role>`` on the attribute's declaration
   (publish-before-start — later writes happen-before the thread
   exists) and ``# handoff`` on a write site (queue-transfer — the
   queue provides the happens-before edge).

The runtime twin is :class:`repro.analysis.sanitizer.AccessRecorder`:
it tags guarded-class attribute accesses with the executing thread's
role (same taxonomy, via :func:`role_for_thread`) so chaos runs can
assert every *observed* cross-role attribute is in the static shared
set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.model import (
    Key,
    build_program,
    looks_like_lock,
    propagate,
    resolved,
)
from repro.analysis.source import SourceFile

THREAD_ROLES = "threadroles"

#: The fabric's thread-role taxonomy.  ``callback`` is the role of any
#: method reference that escapes as a value: it executes on whichever
#: thread fires it.
ROLES: Tuple[str, ...] = (
    "main",
    "forwarder-loop",
    "agent-loop",
    "manager-loop",
    "worker",
    "stream-delivery",
    "executor-batcher",
    "elasticity",
    "chaos-scheduler",
    "callback",
)

UNKNOWN_ROLE = "unknown"

#: Thread-name stem → canonical role.  The stems are the literal
#: ``name=`` prefixes at the eight live spawn sites, so the static
#: role graph and the runtime :func:`role_for_thread` tagger agree.
_ROLE_ALIASES: Dict[str, str] = {
    "forwarder": "forwarder-loop",
    "agent": "agent-loop",
    "manager": "manager-loop",
    "worker": "worker",
    "result-stream": "stream-delivery",
    "funcx-executor": "executor-batcher",
    "elasticity": "elasticity",
    "chaos-scheduler": "chaos-scheduler",
    "main": "main",
    "MainThread": "main",
}

_RACE_HINT = (
    "either guard every write with one lock and annotate the attribute "
    "`# guarded-by: self._lock`, or declare the idiom: "
    "`# thread-confined: <role>` on the declaration for "
    "publish-before-start state, `# handoff` on the write site for "
    "queue-transfer ownership moves; see docs/ANALYSIS.md \"Thread-role "
    "inference\""
)
_STALE_HINT = (
    "the annotation demands a lock for state the role graph says only "
    "one thread ever touches; drop the annotation (and its lock scopes) "
    "if the confinement is intentional, or leave it if the attribute is "
    "about to go cross-thread"
)
_UNKNOWN_HINT = (
    "give the thread a recognizable role: pass name=\"<role>\" (or a "
    "f\"<role>-{id}\" prefix) to threading.Thread so the role graph and "
    "the runtime AccessRecorder can attribute its accesses"
)


def canonical_role(raw: str) -> str:
    """Normalize a thread-name stem to its canonical role."""
    stem = raw.strip().strip("-_ ")
    if not stem:
        return UNKNOWN_ROLE
    if stem in _ROLE_ALIASES:
        return _ROLE_ALIASES[stem]
    for prefix, role in _ROLE_ALIASES.items():
        if stem.startswith(prefix + "-"):
            return role
    return stem.lower().replace("_", "-")


def role_for_thread(thread_name: str) -> str:
    """Runtime twin of :func:`canonical_role`: the role of a live thread.

    Thread names the taxonomy does not know (pool threads, test
    helpers) collapse onto ``callback`` — they are executing someone's
    callback, and collapsing them *under*-counts cross-role pairs, which
    keeps the runtime ⊆ static acceptance gate conservative.
    """
    role = canonical_role(thread_name)
    known = set(_ROLE_ALIASES.values())
    return role if role in known else "callback"


# ======================================================================
# the report
# ======================================================================
@dataclass(frozen=True)
class SpawnSite:
    """One ``threading.Thread(target=...)`` occurrence."""

    path: str
    line: int
    symbol: str
    role: str
    target: Optional[Key]


@dataclass(frozen=True)
class Access:
    """One ``self.<attr>`` touch, attributed to one executing role."""

    role: str
    kind: str               # "read" | "write"
    locks: FrozenSet[str]
    path: str
    line: int
    symbol: str
    handoff: bool = False


@dataclass
class RoleReport:
    """Everything the inference produced, for findings and for tests."""

    spawns: List[SpawnSite] = field(default_factory=list)
    roles: Dict[Key, FrozenSet[str]] = field(default_factory=dict)
    #: (ClassName, attr) -> attributed accesses
    accesses: Dict[Tuple[str, str], List[Access]] = field(default_factory=dict)
    #: (ClassName, attr) -> guard lock name, for annotated attributes
    guards: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (ClassName, attr) -> declared confinement role
    confined: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (ClassName, attr) -> (path, line) of the declaration to report on
    decl_sites: Dict[Tuple[str, str], Tuple[str, int]] = field(
        default_factory=dict)

    def roles_of(self, owner: str, func: str) -> FrozenSet[str]:
        return self.roles.get((owner, func), frozenset())

    def shared_attrs(self) -> Set[str]:
        """``ClassName.attr`` touched (read or write) from ≥ 2 roles —
        the static shared-state set the runtime AccessRecorder gate
        compares against."""
        shared: Set[str] = set()
        for (cls, attr), accesses in self.accesses.items():
            if len({a.role for a in accesses}) >= 2:
                shared.add(f"{cls}.{attr}")
        return shared


# ======================================================================
# inference
# ======================================================================
def _is_main_entry(name: str) -> bool:
    """Public methods/functions are callable from the caller's thread."""
    if name == "__init__":
        return False
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith("_")


def build_role_report(sources: Sequence[SourceFile]) -> RoleReport:
    """Run the full inference over ``sources``."""
    report = RoleReport()
    program = build_program(sources)
    functions = program.functions
    callback_seeds: Set[Key] = set()
    for file in program.files:
        for cls in file.classes:
            for attr, lock in cls.guards.items():
                report.guards[(cls.name, attr)] = lock
            for attr, role in cls.confined.items():
                report.confined[(cls.name, attr)] = canonical_role(role)
            for attr, line in cls.decl_sites.items():
                report.decl_sites.setdefault((cls.name, attr),
                                             (file.source.path, line))
        for fn in file.functions:
            callback_seeds.update(fn.escapes)
            for spawn in fn.spawns:
                first = spawn.targets[0]
                if spawn.name_stem:
                    role = canonical_role(spawn.name_stem)
                elif first is not None:
                    role = canonical_role(first[1].split(".")[-1])
                else:
                    role = UNKNOWN_ROLE
                for target in spawn.targets:
                    report.spawns.append(SpawnSite(
                        path=file.source.path, line=spawn.node.lineno,
                        symbol=fn.qualname, role=role, target=target))
    #: per function: (resolved locks held at the call site, callee)
    calls: Dict[Key, List[Tuple[FrozenSet[str], Key]]] = {
        key: [(frozenset(resolved(call.held)), call.callee)
              for call in fn.calls if call.callee in functions]
        for key, fn in functions.items()}

    # -- seeds ----------------------------------------------------------
    roles: Dict[Key, Set[str]] = {key: set() for key in functions}
    entries: Set[Key] = set(callback_seeds)
    for spawn in report.spawns:
        if spawn.target is not None and spawn.target in roles:
            roles[spawn.target].add(spawn.role)
            entries.add(spawn.target)
    for key in callback_seeds:
        if key in roles:
            roles[key].add("callback")
    for key in functions:
        if "." not in key[1] and _is_main_entry(key[1]):
            roles[key].add("main")
            entries.add(key)

    # -- role propagation (caller → callee fixpoint) --------------------
    propagate(roles, [(key, callee) for key in functions
                      for _held, callee in calls[key]])

    # -- must-hold propagation (intersection over call sites) -----------
    # A helper only ever invoked under a lock inherits that lock for its
    # accesses.  Entry-seeded functions start from their own markers
    # (callers from other threads hold nothing); everything else starts
    # at ⊤ (None) and narrows by intersection.
    TOP = None
    markers = {key: frozenset(resolved(fn.marker))
               for key, fn in functions.items()}
    must: Dict[Key, Optional[FrozenSet[str]]] = {
        key: markers[key] if roles[key] and key in entries else TOP
        for key in functions}
    changed = True
    while changed:
        changed = False
        for key in functions:
            incoming = must[key]
            if incoming is TOP:
                continue
            for held, callee in calls[key]:
                arriving = incoming | held | markers[callee]
                current = must[callee]
                narrowed = (arriving if current is TOP
                            else current & arriving)
                if narrowed != current:
                    must[callee] = narrowed
                    changed = True

    report.roles = {key: frozenset(role_set)
                    for key, role_set in roles.items()}

    # -- attribute access attribution -----------------------------------
    for key, fn in functions.items():
        role_set = sorted(roles[key])
        # Construction owns the object: writes inside __init__ happen
        # before the instance is published to any other thread.
        if not role_set or fn.cls is None or fn.name == "__init__":
            continue
        cls, source = fn.cls, fn.file.source
        inherited = must[key] or frozenset()
        for node, held in fn.accesses:
            attr = node.attr
            if (attr in cls.method_names or looks_like_lock(attr)
                    or attr in cls.lock_names):
                continue
            kind = "read" if isinstance(node.ctx, ast.Load) else "write"
            locks = frozenset(resolved(held)) | inherited
            handoff = node.lineno in source.handoff_lines
            for role in role_set:
                report.accesses.setdefault((cls.name, attr), []).append(Access(
                    role=role, kind=kind, locks=locks, path=source.path,
                    line=node.lineno, symbol=fn.qualname, handoff=handoff))
    return report


# ======================================================================
# the check
# ======================================================================
def check_thread_roles(sources: Sequence[SourceFile],
                       only_roles: Optional[FrozenSet[str]] = None
                       ) -> Iterator[Finding]:
    """Infer which thread roles execute which methods and flag the
    shared state nobody annotated.

    *Sufficiency* (error): an attribute **written from two or more
    thread roles with no lock common to every write and no
    ``guarded-by`` annotation** is a data race candidate — exactly the
    state the annotation-verifying checks cannot see.  *Necessity*
    (info): an annotated attribute only ever touched from one role is a
    stale annotation.  A spawn site whose role cannot be resolved (no
    ``name=`` and no resolvable target) is an error: unattributable
    threads make every inference unsound.  Waivers:
    ``# thread-confined: <role>`` on the attribute declaration
    (publish-before-start) and ``# handoff`` on a write site
    (queue-transfer); both are trusted, not verified.
    """
    report = build_role_report(sources)
    by_path = {source.path: source for source in sources}

    def finding(path: str, line: int, symbol: str, message: str, hint: str,
                severity: str = "error") -> Finding:
        return by_path[path].finding(THREAD_ROLES, line, message, hint,
                                     symbol=symbol, severity=severity)

    for spawn in report.spawns:
        if spawn.role == UNKNOWN_ROLE:
            yield finding(
                spawn.path, spawn.line, spawn.symbol,
                "thread spawned here has no resolvable role (no name= and "
                "no resolvable target=); its accesses cannot be attributed",
                _UNKNOWN_HINT)

    for (cls, attr), accesses in sorted(report.accesses.items()):
        writes = [a for a in accesses if a.kind == "write" and not a.handoff]
        writer_roles = {a.role for a in writes}
        if only_roles is not None and not (writer_roles & only_roles):
            continue
        if len(writer_roles) < 2:
            continue
        if (cls, attr) in report.guards:
            continue
        if (cls, attr) in report.confined:
            continue
        common = frozenset.intersection(*(a.locks for a in writes))
        if common:
            continue
        first = min(writes, key=lambda a: (a.path, a.line))
        witnesses = []
        for role in sorted(writer_roles):
            site = min((a for a in writes if a.role == role),
                       key=lambda a: (a.path, a.line))
            witnesses.append(f"{role} at {site.path}:{site.line} "
                             f"in {site.symbol}")
        yield finding(
            first.path, first.line, first.symbol,
            f"self.{attr} is written from {len(writer_roles)} thread roles "
            f"with no common lock and no guarded-by annotation: "
            + "; ".join(witnesses),
            _RACE_HINT)

    for (cls, attr), lock in sorted(report.guards.items()):
        touched = {a.role for a in report.accesses.get((cls, attr), [])}
        if only_roles is not None and touched and not (touched & only_roles):
            continue
        if len(touched) >= 2:
            continue
        decl = report.decl_sites.get((cls, attr))
        if decl is None:
            continue
        roles_text = (f"only ever touched from role "
                      f"{next(iter(touched))!r}" if touched
                      else "never touched outside __init__")
        yield finding(
            *decl, f"{cls}.{attr}",
            f"self.{attr} is annotated guarded-by self.{lock} but "
            f"{roles_text}: the annotation looks stale",
            _STALE_HINT, severity="info")


def make_thread_roles_check(roles: Sequence[str]):
    """A ``threadroles`` check restricted to findings involving any of
    ``roles`` (the ``repro lint --roles`` subset filter)."""
    wanted = frozenset(canonical_role(r) for r in roles)

    def check(sources: Sequence[SourceFile]) -> Iterator[Finding]:
        yield from check_thread_roles(sources, only_roles=wanted)

    check.__doc__ = check_thread_roles.__doc__
    check.__name__ = "check_thread_roles"
    return check
