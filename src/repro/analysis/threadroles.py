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
   thread fires them.  Roles then propagate caller → callee through the
   same call-through fixpoint the lock-order pass uses (constructor and
   annotation receiver typing included), so each method ends with the
   set of roles that can execute it.

2. **Access sets.**  For every ``self.<attr>`` read/write outside
   ``__init__`` the pass records the access kind and the lock set held
   there — lexical ``with`` scopes, ``# guarded-by`` held-marker
   methods, *and* a must-hold intersection propagated through call
   sites (a private helper only ever invoked under ``self._lock``
   inherits that lock).

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
import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.lockorder import (
    _attribute_types,
    _local_constructor_types,
    _looks_like_lock,
)
from repro.analysis.lockscope import iter_classes
from repro.analysis.source import SourceFile, dotted_name

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
# extraction
# ======================================================================
#: A function's identity: (owner class name or module, dotted path of
#: the def inside that owner — ``"start.loop"`` for a closure).
Key = Tuple[str, str]


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
class _FuncInfo:
    key: Key
    qualname: str
    path: str
    marker_locks: FrozenSet[str] = frozenset()
    #: (held locks at the call site, callee key)
    calls: List[Tuple[Tuple[str, ...], Key]] = field(default_factory=list)
    #: (attr, kind, held locks, line, handoff-waived)
    accesses: List[Tuple[str, str, Tuple[str, ...], int, bool]] = field(
        default_factory=list)


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


class _Extractor:
    """Walks one class (or module scope) collecting calls, spawn sites,
    attribute accesses with held locks, and callback escapes."""

    def __init__(self, source: SourceFile, class_name: Optional[str],
                 guard_locks: FrozenSet[str], attr_types: Dict[str, str],
                 attr_elem_types: Dict[str, str],
                 known_classes: Set[str], method_names: Set[str],
                 module_functions: Set[str],
                 functions: Dict[Key, _FuncInfo],
                 spawns: List[SpawnSite],
                 callback_seeds: Set[Key],
                 return_types: Dict[Key, str]) -> None:
        self.source = source
        self.class_name = class_name
        self.owner = class_name or source.module
        self.guard_locks = guard_locks
        self.attr_types = attr_types
        self.attr_elem_types = attr_elem_types
        self.known_classes = known_classes
        self.method_names = method_names
        self.module_functions = module_functions
        self.functions = functions
        self.spawns = spawns
        self.callback_seeds = callback_seeds
        self.return_types = return_types
        self._local_types: Dict[str, str] = {}
        self._local_elems: Dict[str, str] = {}
        self._closures: Dict[str, Key] = {}

    # -- entry ----------------------------------------------------------
    def scan_function(self, func: ast.AST, func_path: str, qualname: str,
                      initial_held: Tuple[str, ...],
                      marker_locks: FrozenSet[str],
                      base_types: Optional[Dict[str, str]] = None
                      ) -> _FuncInfo:
        info = _FuncInfo(key=(self.owner, func_path), qualname=qualname,
                         path=self.source.path, marker_locks=marker_locks)
        self.functions[info.key] = info
        saved_types = self._local_types
        saved_elems = self._local_elems
        saved_closures = self._closures
        self._local_types = dict(base_types or {})
        self._local_elems = dict(saved_elems) if base_types else {}
        self._closures = {}
        self._infer_local_types(func)
        for stmt in getattr(func, "body", []):
            self._walk(stmt, initial_held, info, func_path)
        self._local_types = saved_types
        self._local_elems = saved_elems
        self._closures = saved_closures
        return info

    def _infer_local_types(self, func: ast.AST) -> None:
        """Populate local name → class from constructor assignments,
        annotated parameters/locals, return annotations of resolvable
        calls (``queue = self.service.task_queue(ep)``), and elements
        pulled out of typed containers (``queue =
        self._task_queues[ep]``, ``for sub in self._subs.values():``)."""
        self._local_types.update(
            _local_constructor_types(func, self.known_classes))
        types = self._local_types
        for arg in (list(func.args.args) + list(func.args.kwonlyargs)
                    if hasattr(func, "args") else []):
            cls = _annotation_class(arg.annotation, self.known_classes)
            if cls is not None:
                types[arg.arg] = cls
        # Lexical (pre-order) traversal: a later loop over an earlier
        # assignment's container must see the element type already bound
        # (ast.walk is breadth-first and would visit siblings too early).
        for node in _pre_order(func):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                cls = _annotation_class(node.annotation, self.known_classes)
                if cls is not None:
                    types[node.target.id] = cls
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                name = node.targets[0].id
                cls = self._instance_type(node.value)
                if cls is not None:
                    types[name] = cls
                else:
                    elem = self._container_elem(node.value)
                    if elem is not None:
                        self._local_elems[name] = elem
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._type_loop_target(node, types)

    def _self_container(self, expr: ast.expr) -> Optional[str]:
        """``self.<attr>`` whose declared annotation is a container of a
        known class → that element class."""
        if (isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"):
            return self.attr_elem_types.get(expr.attr)
        return None

    def _instance_type(self, value: ast.expr) -> Optional[str]:
        """Class of ``self._queues[k]`` / ``self._queues.get(k)`` /
        ``self._peer`` / ``self.service.task_queue(ep)``."""
        elem = self._element_type(value)
        if elem is not None:
            return elem
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self"):
            return self.attr_types.get(value.attr)
        if isinstance(value, ast.Call):
            callee = self._resolve_callee(value)
            if callee is not None:
                return self.return_types.get(callee)
        return None

    def _element_type(self, value: ast.expr) -> Optional[str]:
        """Type of ``self._queues[k]`` / ``self._queues.get(k)``."""
        if isinstance(value, ast.Subscript):
            container = self._self_container(value.value)
            if container is not None:
                return container
            if isinstance(value.value, ast.Name):
                return self._local_elems.get(value.value.id)
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and value.func.attr in ("get", "pop", "setdefault")):
            return self._self_container(value.func.value)
        return None

    def _container_elem(self, expr: ast.expr) -> Optional[str]:
        """Element class of an iterable expression, through ``list()``
        copies, ``.values()`` views, and comprehensions over typed
        containers."""
        if isinstance(expr, ast.Attribute):
            return self._self_container(expr)
        if isinstance(expr, ast.Name):
            return self._local_elems.get(expr.id)
        if isinstance(expr, ast.Call):
            func = expr.func
            if (isinstance(func, ast.Name)
                    and func.id in ("list", "sorted", "tuple", "set")
                    and expr.args):
                return self._container_elem(expr.args[0])
            if isinstance(func, ast.Attribute) and func.attr == "values":
                return self._self_container(func.value)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._element_type(expr.elt)
        return None

    def _type_loop_target(self, node: ast.AST,
                          types: Dict[str, str]) -> None:
        it = node.iter
        elem = None
        values_position = 0
        if (isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
                and it.func.attr == "items"):
            elem = self._self_container(it.func.value)
            values_position = 1
        else:
            elem = self._container_elem(it)
        if elem is None:
            return
        target = node.target
        if isinstance(target, ast.Name):
            types[target.id] = elem
        elif (isinstance(target, ast.Tuple)
                and len(target.elts) > values_position
                and isinstance(target.elts[values_position], ast.Name)):
            types[target.elts[values_position].id] = elem

    # -- traversal ------------------------------------------------------
    def _walk(self, node: ast.AST, held: Tuple[str, ...],
              info: _FuncInfo, func_path: str) -> None:
        if isinstance(node, ast.ClassDef):
            return  # nested classes are scanned as their own owner
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def is its own role-graph node: its body runs when
            # someone (a thread, a callback dispatcher) invokes it, not
            # when it is defined — so held locks reset and accesses are
            # attributed to the closure's key, not the definer's.
            closure_path = f"{func_path}.{node.name}"
            self._closures[node.name] = (self.owner, closure_path)
            marker = self.source.guard_comments.get(node.lineno)
            marker_locks = (frozenset({self._qualify_lock(marker)})
                            if marker else frozenset())
            initial = tuple(sorted(marker_locks))
            saved_closures = dict(self._closures)
            self.scan_function(node, closure_path,
                               f"{info.qualname}.{node.name}", initial,
                               marker_locks, base_types=self._local_types)
            self._closures = saved_closures
            return
        if isinstance(node, ast.Lambda):
            for child in ast.iter_child_nodes(node):
                self._walk(child, (), info, func_path)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            current = held
            for item in node.items:
                self._walk(item.context_expr, held, info, func_path)
                lock = self._resolve_lock(item.context_expr)
                if lock is not None and lock not in current:
                    current = current + (lock,)
            for stmt in node.body:
                self._walk(stmt, current, info, func_path)
            return
        if isinstance(node, ast.Attribute):
            self._record_access(node, held, info)
        elif isinstance(node, ast.Call):
            if self._is_thread_spawn(node):
                self._record_spawn(node, info)
                # Still walk operands for accesses, but suppress the
                # callback-escape seeding of the target (its role comes
                # from the spawn, not from "escapes as a value").
                for child in ast.iter_child_nodes(node):
                    self._walk_no_escape(child, held, info, func_path)
                return
            callee = self._resolve_callee(node)
            if callee is not None:
                info.calls.append((held, callee))
            self._seed_escapes(
                list(node.args) + [kw.value for kw in node.keywords])
        elif isinstance(node, ast.Assign):
            self._seed_escapes([node.value])
        for child in ast.iter_child_nodes(node):
            self._walk(child, held, info, func_path)

    def _walk_no_escape(self, node: ast.AST, held: Tuple[str, ...],
                        info: _FuncInfo, func_path: str) -> None:
        if isinstance(node, ast.Attribute):
            self._record_access(node, held, info)
        for child in ast.iter_child_nodes(node):
            self._walk_no_escape(child, held, info, func_path)

    # -- accesses -------------------------------------------------------
    def _record_access(self, node: ast.Attribute, held: Tuple[str, ...],
                       info: _FuncInfo) -> None:
        if self.class_name is None:
            return
        # Construction owns the object: writes inside __init__ happen
        # before the instance is published to any other thread.
        if info.key[1].split(".")[-1] == "__init__":
            return
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return
        attr = node.attr
        if attr in self.method_names:
            return
        if _looks_like_lock(attr) or attr in self.guard_locks:
            return
        kind = "read" if isinstance(node.ctx, ast.Load) else "write"
        handoff = node.lineno in self.source.handoff_lines
        info.accesses.append((attr, kind, held, node.lineno, handoff))

    # -- spawn sites ----------------------------------------------------
    @staticmethod
    def _is_thread_spawn(node: ast.Call) -> bool:
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        return (dotted.split(".")[-1] == "Thread"
                and any(kw.arg == "target" for kw in node.keywords))

    def _record_spawn(self, node: ast.Call, info: _FuncInfo) -> None:
        target_key: Optional[Key] = None
        raw_name: Optional[str] = None
        passed: List[Optional[Key]] = []
        for kw in node.keywords:
            if kw.arg == "target":
                target_key = self._resolve_target(kw.value)
            elif kw.arg == "name":
                raw_name = _literal_name_stem(kw.value)
            elif kw.arg == "args" and isinstance(kw.value, ast.Tuple):
                # Bound methods handed to a shared loop helper
                # (``target=run_loop, args=(..., self.step, ...)``) are
                # what the thread runs.
                passed = [self._resolve_target(elt) for elt in kw.value.elts
                          if isinstance(elt, ast.Attribute)
                          and elt.attr in self.method_names]
        targets = [target_key] if target_key is not None else passed or [None]
        if raw_name:
            role = canonical_role(raw_name)
        elif targets[0] is not None:
            role = canonical_role(targets[0][1].split(".")[-1])
        else:
            role = UNKNOWN_ROLE
        for target in targets:
            self.spawns.append(SpawnSite(
                path=self.source.path, line=node.lineno,
                symbol=info.qualname, role=role, target=target))

    def _resolve_target(self, expr: ast.expr) -> Optional[Key]:
        if isinstance(expr, ast.Name):
            if expr.id in self._closures:
                return self._closures[expr.id]
            if expr.id in self.module_functions:
                return (self.source.module, expr.id)
            return None
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and self.class_name is not None:
            if len(parts) == 2:
                return (self.class_name, parts[1])
            if len(parts) == 3:
                owner = self.attr_types.get(parts[1])
                if owner is not None:
                    return (owner, parts[2])
        if len(parts) == 2:
            owner = self._local_types.get(parts[0])
            if owner is not None:
                return (owner, parts[1])
        return None

    # -- callback escapes ----------------------------------------------
    def _seed_escapes(self, exprs: List[ast.expr]) -> None:
        """A method reference used as a *value* (callback registration,
        stored handler) runs on whoever's thread fires it: seed the
        ``callback`` role on the referenced function.  Nested calls are
        pruned — they get their own visit, where a ``Thread(target=...)``
        suppresses the escape (the target's role comes from the spawn)."""
        for expr in exprs:
            self._seed_escape_expr(expr)

    def _seed_escape_expr(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            return
        if (isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
                and node.attr in self.method_names
                and self.class_name is not None):
            self.callback_seeds.add((self.class_name, node.attr))
            return
        if (isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in self._closures):
            self.callback_seeds.add(self._closures[node.id])
            return
        for child in ast.iter_child_nodes(node):
            self._seed_escape_expr(child)

    # -- lock / callee resolution (lock-order vocabulary) ---------------
    def _qualify_lock(self, attr: str) -> str:
        return f"{self.owner}.{attr}"

    def _resolve_lock(self, expr: ast.expr) -> Optional[str]:
        target = expr
        if isinstance(target, ast.Call):
            target = target.func
            if isinstance(target, ast.Attribute):
                target = target.value
        dotted = dotted_name(target)
        if dotted is None:
            return None
        parts = dotted.split(".")
        attr = parts[-1]
        if not (_looks_like_lock(attr) or attr in self.guard_locks):
            return None
        if parts[0] == "self" and self.class_name is not None:
            if len(parts) == 2:
                return f"{self.class_name}.{attr}"
            if len(parts) == 3:
                owner = self.attr_types.get(parts[1])
                if owner is not None:
                    return f"{owner}.{attr}"
            return None
        if len(parts) == 1:
            return f"{self.source.module}.{attr}"
        if len(parts) == 2:
            owner = self._local_types.get(parts[0])
            if owner is not None:
                return f"{owner}.{attr}"
        return None

    def _resolve_callee(self, node: ast.Call) -> Optional[Key]:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in self._closures:
                return self._closures[func.id]
            if func.id in self.module_functions:
                return (self.source.module, func.id)
            if func.id in self.known_classes:
                return (func.id, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            # self._queues[ep].put(...) — receiver through a typed container
            elem = self._element_type(func.value)
            if elem is not None:
                return (elem, func.attr)
        dotted = dotted_name(func)
        if dotted is None:
            return None
        parts = dotted.split(".")
        if parts[0] == "self" and self.class_name is not None:
            if len(parts) == 2:
                return (self.class_name, parts[1])
            if len(parts) == 3:
                owner = self.attr_types.get(parts[1])
                if owner is not None:
                    return (owner, parts[2])
            return None
        if len(parts) == 2:
            owner = self._local_types.get(parts[0])
            if owner is not None:
                return (owner, parts[1])
        return None


_CONTAINER_NAMES = {"dict", "Dict", "list", "List", "set", "Set",
                    "tuple", "Tuple", "deque", "OrderedDict", "defaultdict",
                    "Mapping", "MutableMapping", "Sequence", "Iterable"}

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def _annotation_class(annotation: Optional[ast.expr],
                      known_classes: Set[str]) -> Optional[str]:
    """The known class named by a (possibly stringized, possibly
    optional/unioned) annotation: ``ChannelEnd``, ``"ChannelEnd |
    None"``, ``Optional[Worker]`` all resolve."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value,
                                                           str):
        for ident in _IDENT_RE.findall(annotation.value):
            if ident in known_classes:
                return ident
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op,
                                                        ast.BitOr):
        return (_annotation_class(annotation.left, known_classes)
                or _annotation_class(annotation.right, known_classes))
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return _annotation_class(annotation.slice, known_classes)
        return None
    dotted = dotted_name(annotation)
    if dotted is not None and dotted.split(".")[-1] in known_classes:
        return dotted.split(".")[-1]
    return None


def _attribute_ann_types(node: ast.ClassDef,
                         known_classes: Set[str]) -> Dict[str, str]:
    """``self._peer: "ChannelEnd | None" = None`` → ``{"_peer":
    "ChannelEnd"}`` — instance typing from attribute annotations."""
    types: Dict[str, str] = {}
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(method):
            if (isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Attribute)
                    and isinstance(sub.target.value, ast.Name)
                    and sub.target.value.id == "self"):
                cls = _annotation_class(sub.annotation, known_classes)
                if cls is not None:
                    types[sub.target.attr] = cls
    return types


def _return_types(sources: Sequence[SourceFile],
                  known_classes: Set[str]) -> Dict[Key, str]:
    """(owner, method) → class, from ``-> ClassName`` annotations, so
    ``queue = self.service.task_queue(ep)`` types the local."""
    table: Dict[Key, str] = {}
    for source in sources:
        for node in source.class_defs():
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                cls = _annotation_class(method.returns, known_classes)
                if cls is not None:
                    table[(node.name, method.name)] = cls
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls = _annotation_class(stmt.returns, known_classes)
                if cls is not None:
                    table[(source.module, stmt.name)] = cls
    return table


def _attribute_element_types(node: ast.ClassDef,
                             known_classes: Set[str]) -> Dict[str, str]:
    """``self._queues: dict[str, ReliableQueue] = {}`` → ``{"_queues":
    "ReliableQueue"}`` — the element typing that lets container-mediated
    calls resolve."""
    types: Dict[str, str] = {}
    for method in node.body:
        if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for sub in ast.walk(method):
            if not (isinstance(sub, ast.AnnAssign)
                    and isinstance(sub.target, ast.Attribute)
                    and isinstance(sub.target.value, ast.Name)
                    and sub.target.value.id == "self"):
                continue
            ann = sub.annotation
            if not isinstance(ann, ast.Subscript):
                continue
            base = dotted_name(ann.value)
            if base is None or base.split(".")[-1] not in _CONTAINER_NAMES:
                continue
            slice_expr = ann.slice
            candidates = (slice_expr.elts if isinstance(slice_expr, ast.Tuple)
                          else [slice_expr])
            # dict[K, V]: the value type is the element; list[T]: T.
            elem = dotted_name(candidates[-1])
            if elem is not None and elem.split(".")[-1] in known_classes:
                types[sub.target.attr] = elem.split(".")[-1]
    return types


def _pre_order(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first pre-order node traversal (source order)."""
    for child in ast.iter_child_nodes(node):
        yield child
        yield from _pre_order(child)


def _literal_name_stem(expr: ast.expr) -> Optional[str]:
    """The literal prefix of a thread ``name=``: a string constant, or
    the leading constant part of an f-string (``f"worker-{id}"`` →
    ``"worker-"``)."""
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.JoinedStr) and expr.values:
        first = expr.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


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
    functions: Dict[Key, _FuncInfo] = {}
    callback_seeds: Set[Key] = set()
    known_classes: Set[str] = set()
    for source in sources:
        for node in source.class_defs():
            known_classes.add(node.name)
    return_types = _return_types(sources, known_classes)

    for source in sources:
        module_functions = {
            stmt.name for stmt in source.tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))}
        for info in _classes_of(source):
            node = info.node
            method_names = {
                s.name for s in node.body
                if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))}
            attr_types = dict(_attribute_types(node, known_classes))
            attr_types.update(_attribute_ann_types(node, known_classes))
            attr_elem_types = _attribute_element_types(node, known_classes)
            extractor = _Extractor(
                source, node.name, info.lock_names | frozenset(
                    info.guards.values()),
                attr_types, attr_elem_types, known_classes, method_names,
                module_functions, functions, report.spawns, callback_seeds,
                return_types)
            for method in node.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                markers = frozenset(
                    f"{node.name}.{lock}"
                    for lock in info.held_markers.get(method, frozenset()))
                extractor.scan_function(
                    method, method.name, f"{info.qualname}.{method.name}",
                    tuple(sorted(markers)), markers)
            _collect_declarations(source, info, report)
        extractor = _Extractor(
            source, None, frozenset(), {}, {}, known_classes, set(),
            module_functions, functions, report.spawns, callback_seeds,
            return_types)
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                extractor.scan_function(stmt, stmt.name, stmt.name, (),
                                        frozenset())

    # -- seeds ----------------------------------------------------------
    roles: Dict[Key, Set[str]] = {key: set() for key in functions}
    for spawn in report.spawns:
        if spawn.target is not None and spawn.target in roles:
            roles[spawn.target].add(spawn.role)
    for key in callback_seeds:
        if key in roles:
            roles[key].add("callback")
    for (owner, func_path), info in functions.items():
        name = func_path.split(".")[-1]
        if "." not in func_path and _is_main_entry(name):
            roles[(owner, func_path)].add("main")

    # -- role propagation (caller → callee fixpoint) --------------------
    changed = True
    rounds = 0
    while changed and rounds < 100:
        changed = False
        rounds += 1
        for key, info in functions.items():
            mine = roles[key]
            if not mine:
                continue
            for _held, callee in info.calls:
                target = roles.get(callee)
                if target is not None and not mine <= target:
                    target |= mine
                    changed = True

    # -- must-hold propagation (intersection over call sites) -----------
    # A helper only ever invoked under a lock inherits that lock for its
    # accesses.  Entry-seeded functions start from their own markers
    # (callers from other threads hold nothing); everything else starts
    # at ⊤ (None) and narrows by intersection.
    TOP = None
    must: Dict[Key, Optional[FrozenSet[str]]] = {}
    for key, info in functions.items():
        seeded = roles[key] and (
            key in callback_seeds
            or any(s.target == key for s in report.spawns)
            or ("." not in key[1] and _is_main_entry(key[1].split(".")[-1])))
        must[key] = info.marker_locks if seeded else TOP
    changed = True
    rounds = 0
    while changed and rounds < 100:
        changed = False
        rounds += 1
        for key, info in functions.items():
            incoming = must[key]
            if incoming is TOP:
                continue
            for held, callee in info.calls:
                if callee not in must:
                    continue
                arriving = (incoming | frozenset(held)
                            | functions[callee].marker_locks)
                current = must[callee]
                narrowed = (arriving if current is TOP
                            else current & arriving)
                if narrowed != current:
                    must[callee] = narrowed
                    changed = True

    report.roles = {key: frozenset(role_set)
                    for key, role_set in roles.items()}

    # -- attribute access attribution -----------------------------------
    for key, info in functions.items():
        role_set = roles[key]
        if not role_set:
            continue
        owner = key[0]
        inherited = must[key] or frozenset()
        for attr, kind, held, line, handoff in info.accesses:
            locks = frozenset(held) | inherited
            for role in sorted(role_set):
                report.accesses.setdefault((owner, attr), []).append(Access(
                    role=role, kind=kind, locks=locks, path=info.path,
                    line=line, symbol=info.qualname, handoff=handoff))
    return report


def _classes_of(source: SourceFile):
    """:func:`repro.analysis.lockscope.iter_classes` (cached there)."""
    return iter_classes(source)


def _collect_declarations(source: SourceFile, info, report: RoleReport) -> None:
    """Guard/confinement declarations plus a reportable site per attr."""
    cls = info.node.name
    for attr, lock in info.guards.items():
        report.guards[(cls, attr)] = lock
    for sub in ast.walk(info.node):
        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (sub.targets if isinstance(sub, ast.Assign)
                   else [sub.target])
        for target in targets:
            attr = None
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                attr = target.attr
            if attr is None:
                continue
            report.decl_sites.setdefault((cls, attr),
                                         (source.path, sub.lineno))
            role = source.confined_roles.get(sub.lineno)
            if role is not None:
                report.confined[(cls, attr)] = canonical_role(role)
        # the _GUARDED registry form: declaration site is the dict line
        if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
                and sub.targets[0].id == "_GUARDED"
                and isinstance(sub.value, ast.Dict)):
            for k in sub.value.keys:
                if isinstance(k, ast.Constant) and isinstance(k.value, str):
                    report.decl_sites.setdefault(
                        (cls, k.value), (source.path, k.lineno))


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

    def line_text(path: str, line: int) -> str:
        source = by_path.get(path)
        return source.line_text(line) if source else ""

    for spawn in report.spawns:
        if spawn.role == UNKNOWN_ROLE:
            yield Finding(
                check=THREAD_ROLES, path=spawn.path, line=spawn.line, col=0,
                symbol=spawn.symbol,
                message=("thread spawned here has no resolvable role "
                         "(no name= and no resolvable target=); its "
                         "accesses cannot be attributed"),
                hint=_UNKNOWN_HINT,
                line_text=line_text(spawn.path, spawn.line),
            )

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
        yield Finding(
            check=THREAD_ROLES, path=first.path, line=first.line, col=0,
            symbol=first.symbol,
            message=(f"self.{attr} is written from {len(writer_roles)} "
                     f"thread roles with no common lock and no guarded-by "
                     f"annotation: " + "; ".join(witnesses)),
            hint=_RACE_HINT,
            line_text=line_text(first.path, first.line),
        )

    for (cls, attr), lock in sorted(report.guards.items()):
        touched = {a.role for a in report.accesses.get((cls, attr), [])}
        if only_roles is not None and touched and not (touched & only_roles):
            continue
        if len(touched) >= 2:
            continue
        decl = report.decl_sites.get((cls, attr))
        if decl is None:
            continue
        path, line = decl
        roles_text = (f"only ever touched from role "
                      f"{next(iter(touched))!r}" if touched
                      else "never touched outside __init__")
        yield Finding(
            check=THREAD_ROLES, path=path, line=line, col=0,
            symbol=f"{cls}.{attr}",
            message=(f"self.{attr} is annotated guarded-by self.{lock} "
                     f"but {roles_text}: the annotation looks stale"),
            hint=_STALE_HINT,
            line_text=line_text(path, line),
            severity="info",
        )


def make_thread_roles_check(roles: Sequence[str]):
    """A ``threadroles`` check restricted to findings involving any of
    ``roles`` (the ``repro lint --roles`` subset filter)."""
    wanted = frozenset(canonical_role(r) for r in roles)

    def check(sources: Sequence[SourceFile]) -> Iterator[Finding]:
        yield from check_thread_roles(sources, only_roles=wanted)

    check.__doc__ = check_thread_roles.__doc__
    check.__name__ = "check_thread_roles"
    return check
