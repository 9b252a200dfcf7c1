"""The lexical fabric checks.

Each per-file check is a function ``(SourceFile) -> Iterator[Finding]``;
the runner composes them and applies per-line waivers and the baseline.
The two lock-aware checks (guarded-by, blocking-under-lock) are queries
over the records of the program model's held-lock walk
(:mod:`repro.analysis.model`); the flow-sensitive checks are specs on
the typestate engine in :mod:`repro.analysis.protocols` (lease-ack
keeps its entry point here), and the cross-file checks live with their
engines.  Check ids are stable — they appear in baselines and waiver
comments.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.model import file_model, is_self_attr, looks_like_lock
from repro.analysis.protocols import (
    LEASE_PROTOCOL,
    WIRE_MODULE,
    run_value_protocol,
)
from repro.analysis.source import SourceFile, dotted_name

GUARDED_BY = "guarded-by"
DETERMINISM = "determinism"
WIRE_COMPAT = "wire-compat"
BLOCKING_UNDER_LOCK = "blocking-under-lock"
CLOCK_DOMAIN = "clock-domain"

#: Packages whose modules must route time/randomness through the
#: injectable clock/RNG boundary (repro.workloads and benchmarks are
#: exempt: they model user code, not fabric).
DETERMINISM_SCOPE = (
    "repro.core",
    "repro.endpoint",
    "repro.transport",
    "repro.store",
    "repro.chaos",
)


# ======================================================================
# 1. guarded-by
# ======================================================================
def check_guarded_by(source: SourceFile) -> Iterator[Finding]:
    """Guarded attributes may only be touched under their declared lock.

    Scope is the declaring class: ``self.<attr>`` accesses in any method
    (or closure defined inside one) must sit inside a ``with
    self.<lock>:`` block, a held-marker method, or ``__init__`` (the
    object is not yet shared during construction).
    """
    for cls in file_model(source).classes:
        if not cls.guards:
            continue
        for method in cls.methods:
            if method.name == "__init__":
                continue
            for fn in method.tree():
                for node, held in fn.accesses:
                    lock = cls.guards.get(node.attr)
                    if lock is None or any(h.name == lock for h in held):
                        continue
                    yield source.finding(
                        GUARDED_BY, node,
                        f"self.{node.attr} is guarded by self.{lock} but "
                        f"accessed without holding it",
                        f"wrap the access in `with self.{lock}:` (or mark the "
                        f"method `# guarded-by: self.{lock}` if every caller "
                        f"already holds it)",
                        symbol=method.qualname)


# ======================================================================
# 2. determinism boundary
# ======================================================================
_TIME_FORBIDDEN = {
    "time", "monotonic", "sleep", "perf_counter", "process_time",
    "thread_time", "monotonic_ns", "time_ns", "perf_counter_ns",
}
_RNG_CONSTRUCTORS = {"Random", "SystemRandom"}
_DATETIME_FORBIDDEN = {
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_DETERMINISM_HINT = (
    "route through the injectable clock/RNG (self._clock(), self._sleep(...), "
    "a seeded random.Random instance); a bare reference as a constructor "
    "default (`clock or time.monotonic`) is the allowed boundary"
)


def in_determinism_scope(module: str) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in DETERMINISM_SCOPE)


def check_determinism(source: SourceFile) -> Iterator[Finding]:
    """No direct wall-clock/global-RNG *calls* inside the fabric packages.

    References (``clock or time.monotonic``) are fine — that is exactly
    how the boundary defaults are declared; only calls execute outside
    the injectable path and diverge between a run and its chaos replay.
    """
    if not in_determinism_scope(source.module):
        return
    aliases = _import_aliases(source.tree)
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call):
            continue
        canonical = _canonical_call(node.func, aliases)
        if canonical is None:
            continue
        message = _determinism_violation(canonical)
        if message is not None:
            yield source.finding(DETERMINISM, node, message, _DETERMINISM_HINT)


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name → canonical dotted origin, for time/random/datetime."""
    interesting = {"time", "random", "datetime"}
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in interesting:
                    aliases[alias.asname or root] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in interesting and node.level == 0:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}")
    return aliases


def _canonical_call(func: ast.expr, aliases: dict[str, str]) -> str | None:
    dotted = dotted_name(func)
    if dotted is None:
        return None
    first, _, rest = dotted.partition(".")
    origin = aliases.get(first)
    if origin is None:
        return None
    return f"{origin}.{rest}" if rest else origin


def _determinism_violation(canonical: str) -> str | None:
    parts = canonical.split(".")
    if parts[0] == "time" and len(parts) == 2 and parts[1] in _TIME_FORBIDDEN:
        return (f"direct call to time.{parts[1]}() bypasses the injectable "
                f"clock and breaks chaos replay")
    if parts[0] == "random" and len(parts) == 2:
        if parts[1] in _RNG_CONSTRUCTORS:
            return None  # constructing a seeded RNG *is* the boundary
        return (f"random.{parts[1]}() uses the global RNG; seed a "
                f"random.Random(seed) at the boundary instead")
    if canonical in _DATETIME_FORBIDDEN or (
            parts[0] == "datetime"
            and parts[-1] in {"now", "utcnow", "today"}):
        return (f"{canonical}() reads the wall clock; timestamps must come "
                f"from the injectable clock")
    return None


# ======================================================================
# 3. wire-compat
# ======================================================================
_WIRE_SAFE_NAMES = {
    "str", "bytes", "bool", "int", "float", "None", "Any", "bytearray",
}
#: Non-primitive types the serializer is pinned to round-trip: the batch
#: envelopes nest the task/result dataclasses the hypothesis suites
#: round-trip.
_WIRE_SAFE_EXTRA = {"TaskMessage", "ResultMessage"}
_WIRE_SAFE_CONTAINERS = {
    "tuple", "Tuple", "dict", "Dict", "list", "List", "frozenset",
    "FrozenSet", "set", "Set", "Optional", "Union",
}
#: Fields that predate the wire-compat rule and may stay default-free.
_SEED_REQUIRED_FIELDS = {("Message", "sender")}

_WIRE_TYPE_HINT = (
    "wire messages must round-trip the serializer: use str/bytes/bool/int/"
    "float/None, containers of those, or a registered wire-safe type "
    "(TaskMessage, ResultMessage); move richer objects into serialized "
    "buffers"
)
_WIRE_DEFAULT_HINT = (
    "fields added after the seed need a default so messages recorded by "
    "older versions (chaos artifacts, queued tasks) still construct"
)


def check_wire_compat(source: SourceFile) -> Iterator[Finding]:
    """Wire-message dataclasses stay replayable across versions."""
    if source.module != WIRE_MODULE:
        return
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.ClassDef) or not _is_dataclass(node):
            continue
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            if not isinstance(stmt.target, ast.Name):
                continue
            if _is_classvar(stmt.annotation):
                continue
            field_name = stmt.target.id
            if not _wire_safe_annotation(stmt.annotation):
                yield source.finding(
                    WIRE_COMPAT, stmt,
                    f"{node.name}.{field_name} has a non-serializer-safe "
                    f"type annotation "
                    f"({ast.unparse(stmt.annotation)})",
                    _WIRE_TYPE_HINT,
                )
            if stmt.value is None and (node.name, field_name) not in _SEED_REQUIRED_FIELDS:
                yield source.finding(
                    WIRE_COMPAT, stmt,
                    f"{node.name}.{field_name} was added without a default",
                    _WIRE_DEFAULT_HINT,
                )


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target) or ""
        if name.split(".")[-1] == "dataclass":
            return True
    return False


def _is_classvar(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = dotted_name(target) or ""
    return name.split(".")[-1] == "ClassVar"


def _wire_safe_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant):
        if annotation.value is None or annotation.value is Ellipsis:
            return True
        if isinstance(annotation.value, str):  # quoted forward reference
            try:
                parsed = ast.parse(annotation.value, mode="eval")
            except SyntaxError:
                return False
            return _wire_safe_annotation(parsed.body)
        return False
    if isinstance(annotation, (ast.Name, ast.Attribute)):
        name = (dotted_name(annotation) or "").split(".")[-1]
        return (name in _WIRE_SAFE_NAMES or name in _WIRE_SAFE_EXTRA
                or name in _WIRE_SAFE_CONTAINERS)
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return (_wire_safe_annotation(annotation.left)
                and _wire_safe_annotation(annotation.right))
    if isinstance(annotation, ast.Subscript):
        if not _wire_safe_annotation(annotation.value):
            return False
        elems = (annotation.slice.elts
                 if isinstance(annotation.slice, ast.Tuple)
                 else [annotation.slice])
        return all(_wire_safe_annotation(e) for e in elems)
    return False


# ======================================================================
# 4. blocking-under-lock
# ======================================================================
_CHANNEL_OPS = {"send", "recv", "recv_all_ready"}
_QUEUE_OPS = {
    "put", "put_many", "put_nowait", "get_nowait", "lease", "lease_many",
    "ack", "nack", "nack_all", "requeue_expired",
}
_BLOCKING_HINT = (
    "take a snapshot under the lock, release it, then perform the blocking "
    "call on the copied state (see Forwarder._requeue_outstanding for the "
    "pattern)"
)


def check_blocking_under_lock(source: SourceFile) -> Iterator[Finding]:
    """No sleep, channel send/recv, or queue operation under a lock.

    Lock scopes come from the same inference as ``guarded-by``; calls on
    the lock object itself (``self._lock.wait()`` releases it) are fine,
    as is ``self.c.wait()`` holding only ``x`` of ``Condition(self.x)``.
    ``dict.get`` is deliberately not treated as a queue op — only the
    unambiguous queue verbs are.
    """
    model = file_model(source)
    methods = [m for cls in model.classes for m in cls.methods]
    releases_of = {c.qualname: _condition_locks(c.node) for c in model.classes}
    for method in methods + model.module_level:
        known_locks = method.cls.lock_names if method.cls else frozenset()
        releases = releases_of[method.cls.qualname] if method.cls else {}
        for fn in method.tree():
            for node, _callee, held in fn.calls:
                label = (_blocking_call(node, known_locks, held, releases)
                         if held else None)
                if label is None:
                    continue
                locks = ", ".join(sorted({f"self.{h.name}" for h in held}))
                yield source.finding(
                    BLOCKING_UNDER_LOCK, node,
                    f"{label} while holding {locks}", _BLOCKING_HINT,
                    symbol=method.qualname)


def _condition_locks(node: ast.ClassDef) -> dict[str, set[str]]:
    """``self.c = threading.Condition(self.x)``: ``self.c.wait()`` frees c, x."""
    found: dict[str, set[str]] = {}
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Assign) and is_self_attr(sub.targets[0])
                and isinstance(sub.value, ast.Call)
                and (dotted_name(sub.value.func) or "").endswith("Condition")):
            base = [a.attr for a in sub.value.args[:1] if is_self_attr(a)]
            found[f"self.{sub.targets[0].attr}"] = {sub.targets[0].attr, *base}
    return found


def _blocking_call(node: ast.Call, known_locks: frozenset[str], held,
                   releases: dict[str, set[str]]) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return "sleep()" if func.id == "sleep" else None
    if not isinstance(func, ast.Attribute):
        return None
    receiver = dotted_name(func.value)
    if receiver is not None:
        last = receiver.split(".")[-1]
        if looks_like_lock(last) or last in known_locks:
            return None  # Condition.wait/notify release or need the lock
    attr = func.attr
    if attr == "sleep" or (isinstance(func.value, ast.Name)
                           and func.value.id in ("time", "_time")
                           and attr == "sleep"):
        return f"{receiver or '<expr>'}.sleep()"
    if attr in _CHANNEL_OPS:
        return f"channel operation {receiver or '<expr>'}.{attr}()"
    if attr in _QUEUE_OPS:
        return f"queue operation {receiver or '<expr>'}.{attr}()"
    if attr == "wait":
        if {h.name for h in held} <= releases.get(receiver, set()):
            return None  # threading.Condition(x).wait() releases x
        return f"blocking wait {receiver or '<expr>'}.wait()"
    return None


# ======================================================================
# 5. clock-domain
# ======================================================================
_CLOCK_DOMAIN_HINT = (
    "deadlines must be computed within one clock domain; convert at the "
    "boundary (or re-mark the source with `# clock-domain: ...` if the "
    "declaration is wrong)"
)


def check_clock_domain(source: SourceFile) -> Iterator[Finding]:
    """Arithmetic must never mix monotonic- and wall-domain clocks.

    Domains are declared with ``# clock-domain: monotonic|wall`` trailing
    comments on clock (or derived-deadline) assignments.  The check flags
    any ``+``/``-`` expression or comparison whose operands draw from
    different declared domains.
    """
    if not source.clock_domains:
        return
    domains = _declared_domains(source)
    if not domains:
        return
    for node in ast.walk(source.tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            sides = [_subtree_domains(node.left, domains),
                     _subtree_domains(node.right, domains)]
        elif isinstance(node, ast.Compare):
            sides = [_subtree_domains(node.left, domains)]
            sides.extend(_subtree_domains(c, domains) for c in node.comparators)
        else:
            continue
        seen = [s for s in sides if s]
        merged = set().union(*seen) if seen else set()
        if len(merged) > 1 and any(len(s) < len(merged) for s in seen):
            yield source.finding(
                CLOCK_DOMAIN, node,
                f"expression mixes clock domains {sorted(merged)}",
                _CLOCK_DOMAIN_HINT,
            )


def _declared_domains(source: SourceFile) -> dict[tuple[str, str], str]:
    """(kind, name) → domain, from marker comments on assignments."""
    declared: dict[tuple[str, str], str] = {}
    for node in ast.walk(source.tree):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        domain = source.clock_domains.get(node.lineno)
        if domain is None:
            continue
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if is_self_attr(target):
                declared[("attr", target.attr)] = domain
            elif isinstance(target, ast.Name):
                declared[("name", target.id)] = domain
    return declared


def _subtree_domains(node: ast.expr, declared: dict[tuple[str, str], str]) -> set[str]:
    found: set[str] = set()
    for sub in ast.walk(node):
        if is_self_attr(sub):
            domain = declared.get(("attr", sub.attr))
        elif isinstance(sub, ast.Name):
            domain = declared.get(("name", sub.id))
        else:
            continue
        if domain is not None:
            found.add(domain)
    return found


# ======================================================================
# 6. lease-ack discipline (flow-sensitive)
# ======================================================================
# The analysis itself lives in repro.analysis.protocols: lease-ack was
# the original hand-written typestate check (PR 4) and is now one
# declarative ProtocolSpec on the shared engine — same facts, same
# waivers, same findings.
def check_lease_ack(source: SourceFile) -> Iterator[Finding]:
    """Every lease obtained from ``ReliableQueue.lease``/``lease_many``
    must reach ``ack``/``nack`` on *every* path to function exit.

    The at-least-once queue re-delivers an expired lease eventually, but
    a leaked lease stalls its task for a full ``lease_timeout`` — the
    "lost task / stuck executor" incident class.  Disposal is any of:
    an ``ack``/``nack`` call, passing the lease to *any* call (handoff),
    returning or yielding it, or storing it into a field or container
    (escape — the caller or a reclaim loop now owns it).  ``if lease is
    None:`` / ``if not leases:`` branches and drained loop collections
    are understood flow-sensitively.
    """
    yield from run_value_protocol(source, LEASE_PROTOCOL)
