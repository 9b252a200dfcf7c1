"""Parametric resource-protocol (typestate) engine.

PR 4's lease-ack check hard-wired one acquire/release discipline into a
CFG + forward-dataflow pass.  The fabric has since grown more
resources with exactly that shape — spine/stream subscriptions and
result futures — so this
module generalizes the pass into a declarative registry: a
:class:`ProtocolSpec` names a protocol's acquire sites, release sites,
escape waivers, and refinements, and one shared engine
(:func:`scan_protocol`) verifies every registered protocol.

Engine semantics (identical to the PR 4 lease analysis, parameterized):

* **Acquire** — a call whose method name matches ``acquire_methods``
  (optionally constrained to receivers whose last segment is in
  ``acquire_receivers``), or a bare constructor call in
  ``acquire_constructors``; transparent sequence wrappers
  (``list(q.lease_many(n))``) see through to the inner call.  The bound
  variable's facts are ``{(origin_line, open)}``; aliases inherit the
  origin, tuple-unpack binds every element name.
* **Release** — a call with the tracked value as *any* argument
  (handoff waiver), a ``Return``/``Yield`` of it (caller owns it now),
  storing it into a field/subscript/container (escape waiver),
  iterating it from a comprehension, or a method from
  ``release_methods`` invoked *on* the tracked value itself
  (``future.set_result(...)``).  Disposal acts on the resource, so it
  reaches every alias sharing the origin.
* **Refinement** — ``if x:`` / ``if not x:`` / ``is None`` /
  ``is not None`` emptiness tests close the absent branch, and
  ``for item in batch:`` transfers ownership of a tracked collection's
  elements to the loop variable.
* ``waive_on_raise`` — protocols whose unreleased value is garbage-
  collectable (futures) treat an explicit ``raise`` as disposal; the
  strict protocols (leases, subscriptions) do not, which is
  exactly how the PR 7 ``_future_for`` subscription leak class is
  caught mechanically.

A leak is reported at the acquisition line when any path reaches the
function exit with the resource still open.  One protocol does not fit
the per-value shape and runs as a cross-file (global) check:
:func:`check_handler_exhaustiveness` checks that every concrete
``repro.transport.messages`` type is consumed by an ``isinstance`` (or
``match``) dispatch somewhere in the analyzed set.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.cfg import build_cfg, header_parts
from repro.analysis.dataflow import Facts, ForwardAnalysis, run_forward
from repro.analysis.findings import Finding
from repro.analysis.source import SourceFile

LEASE_ACK = "lease-ack"
SUBSCRIPTION_LIFECYCLE = "subscription-lifecycle"
FUTURE_RESOLUTION = "future-resolution"
HANDLER_EXHAUSTIVENESS = "handler-exhaustiveness"

#: Module whose concrete Message subclasses form the dispatch universe.
WIRE_MODULE = "repro.transport.messages"

_OPEN = "open"
_DONE = "done"

#: Transparent sequence wrappers acquire through: ``list(q.lease_many(n))``.
_WRAPPERS = frozenset({"deque", "list", "sorted", "tuple", "reversed"})


@dataclass(frozen=True)
class ProtocolSpec:
    """One declarative resource protocol the shared engine verifies.

    Attributes
    ----------
    check_id:
        Stable id used in findings, waiver comments, and baselines.
    resource:
        Human noun for messages (``"lease(s)"``).
    acquire_methods:
        Attribute-call names whose result is the tracked resource.
    acquire_receivers:
        When non-empty, an ``acquire_methods`` call only acquires if the
        receiver's last segment is in this set (``{"queue"}`` admits
        ``self.queue.put`` and refuses ``self.cache.put``).
    acquire_constructors:
        Bare constructor names that acquire (``FuncXFuture``).
    release_methods:
        Method names that dispose the resource when invoked *on* it
        (receiver-based release: ``future.set_result(...)``).
    release_verbs:
        Message tail: "... without {release_verbs} on some path".
    waive_on_raise:
        Treat an explicit ``raise`` statement as disposing every open
        resource (for values that are garbage-collectable unreleased).
    leak_message:
        Finding text; ``{names}`` is what holds the leaked resource.
    hint:
        Fix guidance appended to each finding.
    """

    check_id: str
    resource: str
    release_verbs: str
    hint: str
    acquire_methods: FrozenSet[str] = frozenset()
    acquire_receivers: FrozenSet[str] = frozenset()
    acquire_constructors: FrozenSet[str] = frozenset()
    release_methods: FrozenSet[str] = frozenset()
    waive_on_raise: bool = False
    leak_message: str = (
        "{resource} acquired here (held in {names}) may reach the exit of "
        "{func}() without {release_verbs} on some path")


LEASE_PROTOCOL = ProtocolSpec(
    check_id=LEASE_ACK,
    resource="lease(s)",
    release_verbs="ack/nack",
    acquire_methods=frozenset({"lease", "lease_many", "lease_batch"}),
    hint=(
        "every path to exit must ack/nack the lease (or hand it off: storing "
        "it in a field, returning it, or passing it to another call are "
        "explicit waivers); for deliberate drops add `# lint: ignore[lease-ack]` "
        "on the acquisition line"
    ),
)

SUBSCRIPTION_PROTOCOL = ProtocolSpec(
    check_id=SUBSCRIPTION_LIFECYCLE,
    resource="subscription(s)",
    release_verbs="unsubscribe/detach",
    acquire_methods=frozenset({"subscribe"}),
    release_methods=frozenset({"unsubscribe", "detach", "close"}),
    hint=(
        "every path to exit — error and raise paths included — must "
        "unsubscribe/detach/close the subscription or hand it off (store it "
        "in a field, return it, or pass it to another call); a leaked token "
        "delivers into dead callbacks forever; for deliberate leaks add "
        "`# lint: ignore[subscription-lifecycle]` on the acquisition line"
    ),
)

FUTURE_PROTOCOL = ProtocolSpec(
    check_id=FUTURE_RESOLUTION,
    resource="future(s)",
    release_verbs="set_result/set_exception/cancel",
    acquire_constructors=frozenset({"FuncXFuture"}),
    release_methods=frozenset({"set_result", "set_exception", "cancel"}),
    waive_on_raise=True,
    hint=(
        "a created future must reach set_result/set_exception/cancel, be "
        "returned, stored, or passed onward on every non-raising path — a "
        "dropped unresolved future blocks its waiter forever (raise paths "
        "are waived: an unresolved local is collectable); for deliberate "
        "drops add `# lint: ignore[future-resolution]` on the creation line"
    ),
)

#: The declarative registry: the typestate protocols the shared engine
#: runs as per-file checks.
VALUE_PROTOCOLS: Dict[str, ProtocolSpec] = {
    spec.check_id: spec
    for spec in (LEASE_PROTOCOL, SUBSCRIPTION_PROTOCOL, FUTURE_PROTOCOL)
}

#: Global protocol ids handled by dedicated engines below (same
#: registry surface for coverage tests and docs).
RECEIVER_PROTOCOLS: Tuple[str, ...] = (HANDLER_EXHAUSTIVENESS,)


def _all_functions(source: SourceFile) -> List[ast.FunctionDef]:
    return [node for node, _qualname in source.definitions()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _call_names(func: ast.FunctionDef) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(attribute-call names, bare-name call ids) in ``func`` — the
    cheap superset guard each protocol intersects with its acquire
    sets before building a CFG.  Cached on the function node."""
    cached = getattr(func, "_protocol_call_names", None)
    if cached is None:
        attrs: Set[str] = set()
        names: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Attribute):
                    attrs.add(node.func.attr)
                elif isinstance(node.func, ast.Name):
                    names.add(node.func.id)
        cached = (frozenset(attrs), frozenset(names))
        func._protocol_call_names = cached
    return cached


def _names_in(expr: ast.AST) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


def _last_segment(expr: ast.expr) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None


def _is_acquire(expr: ast.expr, spec: ProtocolSpec) -> Optional[ast.Call]:
    """Return the acquiring Call if ``expr`` produces tracked value(s)."""
    if not isinstance(expr, ast.Call):
        return None
    func = expr.func
    if isinstance(func, ast.Attribute) and func.attr in spec.acquire_methods:
        if (not spec.acquire_receivers
                or _last_segment(func.value) in spec.acquire_receivers):
            return expr
    if isinstance(func, ast.Name):
        if func.id in spec.acquire_constructors:
            return expr
        if func.id in _WRAPPERS and len(expr.args) == 1:
            return _is_acquire(expr.args[0], spec)
    return None


class _TypestateAnalysis(ForwardAnalysis):
    """Facts: var -> {(origin_line, "open"|"done")}, per ``spec``."""

    def __init__(self, spec: ProtocolSpec):
        self.spec = spec

    def transfer(self, stmt: ast.AST, facts: Facts) -> Facts:
        facts = dict(facts)
        self._dispose_events(stmt, facts)
        if isinstance(stmt, ast.Assign):
            self._bind(stmt.targets, stmt.value, facts)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind([stmt.target], stmt.value, facts)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind([item.optional_vars], item.context_expr, facts)
        if self.spec.waive_on_raise and isinstance(stmt, ast.Raise):
            for var, pairs in list(facts.items()):
                facts[var] = frozenset((o, _DONE) for o, _ in pairs)
        return facts

    def _bind(self, targets: List[ast.expr], value: ast.expr,
              facts: Facts) -> None:
        acquiring = _is_acquire(value, self.spec)
        inherited: FrozenSet[Tuple] = frozenset()
        if acquiring is None:
            for name in _names_in(value):
                inherited |= facts.get(name, frozenset())
        for target in targets:
            if isinstance(target, ast.Name):
                if acquiring is not None:
                    facts[target.id] = frozenset({(acquiring.lineno, _OPEN)})
                elif inherited:
                    facts[target.id] = inherited
            elif isinstance(target, ast.Tuple):
                # Tuple unpack of tracked values: track each element name.
                pairs = (frozenset({(acquiring.lineno, _OPEN)})
                         if acquiring is not None else inherited)
                if pairs:
                    for elt in target.elts:
                        if isinstance(elt, ast.Name):
                            facts[elt.id] = pairs
            else:
                # Escape: storing into a field / subscript disposes the
                # stored resource(s).
                if acquiring is not None:
                    continue
                self._dispose_names(_names_in(value), facts)

    def _dispose_events(self, stmt: ast.AST, facts: Facts) -> None:
        disposed: Set[str] = set()
        for part in header_parts(stmt):
            for node in ast.walk(part):
                disposed |= self._disposals_in(node, facts)
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if not isinstance(target, (ast.Name, ast.Tuple)):
                    disposed |= _names_in(stmt.value) & facts.keys()
        self._dispose_names(disposed, facts)

    def _disposals_in(self, node: ast.AST, facts: Facts) -> Set[str]:
        disposed: Set[str] = set()
        if isinstance(node, ast.Call):
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                disposed |= _names_in(arg) & facts.keys()
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.spec.release_methods):
                # Release invoked on the resource itself:
                # ``future.set_result(...)``, ``ref.as_argument()``.
                disposed |= _names_in(node.func.value) & facts.keys()
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                disposed |= _names_in(node.value) & facts.keys()
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            for gen in node.generators:
                disposed |= _names_in(gen.iter) & facts.keys()
        return disposed

    def _dispose_names(self, names: Set[str], facts: Facts) -> None:
        if not names:
            return
        origins: Set[int] = set()
        for name in names:
            origins |= {origin for origin, _ in facts.get(name, frozenset())}
        if not origins:
            return
        # Disposal acts on the resource itself, so it reaches every alias
        # sharing the origin — not just the variable named at the site.
        for var, pairs in list(facts.items()):
            facts[var] = frozenset(
                (origin, _DONE if origin in origins else state)
                for origin, state in pairs)

    def refine(self, cond: Optional[ast.expr], branch: Optional[bool],
               facts: Facts) -> Facts:
        if cond is None or branch is None:
            return facts
        if isinstance(cond, (ast.For, ast.AsyncFor)):
            return self._refine_for(cond, branch, facts)
        var, empty_when = self._emptiness_test(cond)
        if var is None or var not in facts:
            return facts
        if branch == empty_when:
            facts = dict(facts)
            facts[var] = frozenset((o, _DONE) for o, _ in facts[var])
        return facts

    def _refine_for(self, stmt: ast.AST, branch: bool, facts: Facts) -> Facts:
        pairs: FrozenSet[Tuple] = frozenset()
        acquiring = _is_acquire(stmt.iter, self.spec)
        iter_names = _names_in(stmt.iter) & facts.keys()
        if acquiring is not None:
            # `for lease in queue.lease_many(n):` — each element is a
            # fresh resource bound to the loop variable.
            pairs = frozenset({(acquiring.lineno, _OPEN)})
        elif iter_names:
            facts = dict(facts)
            for name in iter_names:
                pairs |= facts[name]
                # Iterating the collection transfers ownership of its
                # elements to the loop variable.
                facts[name] = frozenset((o, _DONE) for o, _ in facts[name])
        else:
            return facts
        if branch and isinstance(stmt.target, ast.Name):
            facts = dict(facts)
            facts[stmt.target.id] = pairs
        return facts

    @staticmethod
    def _emptiness_test(cond: ast.expr) -> Tuple[Optional[str], Optional[bool]]:
        """Recognize None/emptiness tests: returns (var, branch-on-which-
        the-value-is-absent)."""
        if isinstance(cond, ast.Name):
            return cond.id, False          # `if lease:` — false branch: absent
        if (isinstance(cond, ast.UnaryOp) and isinstance(cond.op, ast.Not)
                and isinstance(cond.operand, ast.Name)):
            return cond.operand.id, True   # `if not leases:` — true: absent
        if (isinstance(cond, ast.Compare) and len(cond.ops) == 1
                and isinstance(cond.left, ast.Name)
                and isinstance(cond.comparators[0], ast.Constant)
                and cond.comparators[0].value is None):
            if isinstance(cond.ops[0], ast.Is):
                return cond.left.id, True   # `if lease is None:`
            if isinstance(cond.ops[0], ast.IsNot):
                return cond.left.id, False  # `if lease is not None:`
        return None, None


def scan_protocol(source: SourceFile, func: ast.FunctionDef,
                  spec: ProtocolSpec) -> Iterator[Finding]:
    """Run one protocol's typestate analysis over one function."""
    attr_calls, name_calls = _call_names(func)
    if not (attr_calls & spec.acquire_methods
            or name_calls & spec.acquire_constructors):
        return
    leaked = _open_at_exit(func, _TypestateAnalysis(spec))
    for origin in sorted(leaked):
        yield source.finding(
            spec.check_id, origin,
            spec.leak_message.format(
                resource=spec.resource, names=", ".join(sorted(leaked[origin])),
                func=func.name, release_verbs=spec.release_verbs),
            spec.hint,
        )


def _open_at_exit(func: ast.AST,
                  analysis: ForwardAnalysis) -> Dict[int, Set[str]]:
    """Origin line → the fact keys still open there at function exit."""
    cfg = build_cfg(func)
    leaked: Dict[int, Set[str]] = {}
    for key, pairs in run_forward(cfg, analysis).get(cfg.exit, {}).items():
        for origin, state in pairs:
            if state == _OPEN:
                leaked.setdefault(origin, set()).add(key)
    return leaked


def run_value_protocol(source: SourceFile,
                       spec: ProtocolSpec) -> Iterator[Finding]:
    for func in _all_functions(source):
        yield from scan_protocol(source, func, spec)


def check_subscription_lifecycle(source: SourceFile) -> Iterator[Finding]:
    """Every subscription opened via ``events.subscribe`` or a stream
    ``subscribe`` must reach ``unsubscribe``/``detach``/``close`` on
    *every* path to function exit — error and raise paths included.

    A leaked spine token keeps delivering into a dead callback forever
    (the PR 7 ``_future_for`` leak class); a leaked stream subscription
    pins a reader on every record it watches.  Handoffs waive: storing the
    token in a field, returning it, or passing it to any call
    transfers ownership to the holder.
    """
    yield from run_value_protocol(source, SUBSCRIPTION_PROTOCOL)


def check_future_resolution(source: SourceFile) -> Iterator[Finding]:
    """A created ``FuncXFuture`` must reach exactly one of
    ``set_result``/``set_exception``/``cancel`` — or escape to an owner
    (returned, stored, passed onward) — on every non-raising path in
    the creating function.

    The static side enforces *at-least-once* resolution per path
    (a dropped unresolved future blocks its waiter forever); the
    runtime side of exactly-once is the future's own double-resolve
    ``RuntimeError``.  Explicit ``raise`` paths are waived: an
    unresolved local future is garbage-collectable.
    """
    yield from run_value_protocol(source, FUTURE_PROTOCOL)


# ======================================================================
# handler-exhaustiveness: global wire-message dispatch coverage
# ======================================================================
_HANDLER_HINT = (
    "add an isinstance (or match-case) arm consuming this message type in "
    "the forwarder/agent/manager/service/stream dispatch layer, or delete "
    "the type; an unconsumed wire type is dropped on the floor at runtime; "
    "for deliberately send-only types add "
    "`# lint: ignore[handler-exhaustiveness]` on the class line"
)


def _type_names(node: ast.expr) -> Set[str]:
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.Tuple):
        names: Set[str] = set()
        for elt in node.elts:
            names |= _type_names(elt)
        return names
    return set()


def _wire_universe(sources: List[SourceFile]) -> Dict[str, Tuple]:
    """Concrete Message subclasses in the wire module: name -> (source,
    classdef).  Subclassing is resolved transitively within the module."""
    universe: Dict[str, Tuple] = {}
    for source in sources:
        if source.module != WIRE_MODULE:
            continue
        classes = {node.name: node for node in source.tree.body
                   if isinstance(node, ast.ClassDef)}
        base_names = {name: {b for cls_base in cls.bases
                             for b in _type_names(cls_base)}
                      for name, cls in classes.items()}

        def derives_from_message(name: str, seen: Set[str]) -> bool:
            if name in seen:
                return False
            seen.add(name)
            bases = base_names.get(name, set())
            if "Message" in bases:
                return True
            return any(b in classes and derives_from_message(b, seen)
                       for b in bases)

        for name, cls in classes.items():
            if name != "Message" and derives_from_message(name, set()):
                universe[name] = (source, cls)
    return universe


def check_handler_exhaustiveness(sources: List[SourceFile]) -> Iterator[Finding]:
    """Every concrete wire message type (``repro.transport.messages``)
    must be consumed by an ``isinstance`` or ``match-case`` dispatch
    somewhere in the analyzed sources.

    The transport is duck-typed: a message nobody dispatches on is
    silently dropped by every ``step()`` loop, which is how a new
    message type ships half-wired.  The check arms only when the
    analyzed set contains a dispatch layer (at least one wire type is
    consumed), so scanning the wire module alone stays quiet.
    """
    universe = _wire_universe(sources)
    if not universe:
        return
    consumed: Set[str] = set()
    for source in sources:
        for node in ast.walk(source.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance"
                    and len(node.args) == 2):
                consumed |= _type_names(node.args[1])
            elif isinstance(node, ast.MatchClass):
                consumed |= _type_names(node.cls)
    if not (consumed & set(universe)):
        return  # no dispatch layer in this set: not armed
    for name in sorted(set(universe) - consumed):
        source, cls = universe[name]
        yield source.finding(
            HANDLER_EXHAUSTIVENESS, cls,
            f"wire message type {name} is never consumed by an isinstance/"
            f"match dispatch anywhere in the analyzed sources",
            _HANDLER_HINT,
        )


# ======================================================================
# static site export for the runtime ProtocolRecorder acceptance gate
# ======================================================================
def protocol_sites(sources: List[SourceFile]) -> Dict[str, Dict[str, List[str]]]:
    """Static acquire/release sites per runtime protocol.

    Returns ``{protocol: {verb: ["module:line", ...]}}`` in the same
    (protocol, verb) vocabulary :class:`repro.analysis.sanitizer.
    ProtocolRecorder` records, so the chaos acceptance gate can assert
    every runtime-observed event has a static site
    (``observed ⊆ sites``), mirroring the lock-graph subset gate.
    """
    sites: Dict[str, Dict[str, List[str]]] = {
        "subscription": {}, "stream": {},
    }

    def add(protocol: str, verb: str, source: SourceFile,
            node: ast.AST) -> None:
        sites[protocol].setdefault(verb, []).append(
            f"{source.module}:{getattr(node, 'lineno', 0)}")

    for source in sources:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            attr = node.func.attr
            recv = _last_segment(node.func.value)
            if recv == "events" and attr in {"subscribe", "unsubscribe"}:
                add("subscription", attr, source, node)
            elif recv == "result_stream" and attr == "subscribe":
                add("stream", "subscribe", source, node)
            elif recv in {"subscription", "sub"} and attr in {"close",
                                                              "detach"}:
                add("stream", attr, source, node)
    return sites
