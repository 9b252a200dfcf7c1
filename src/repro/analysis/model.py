"""The analyzer's one program model.

Every lock- or call-aware check asks the same three questions — *what
class is this receiver*, *what does this call resolve to*, *which locks
are held at this node*.  They are answered here, once per parsed file
(see docs/ANALYSIS.md, "Architecture"):

* **Class table** — each class with its declarations (``# guarded-by``
  comments, ``_GUARDED`` registries, ``# thread-confined`` roles;
  :func:`iter_classes`) and its instance typing: ``self.attr`` classes
  from constructor assignments, annotated parameters assigned through
  and attribute annotations, plus container element classes.
* **Function table** — one :class:`FunctionModel` per ``def`` (a nested
  ``def`` is its own entry: it runs when invoked, not when defined) with
  its local typing, the one lock resolver (:meth:`~FunctionModel.
  lock_of`) and the one callee resolver (:meth:`~FunctionModel.resolve`).
* **The held-lock walk** — one ordered traversal per function recording
  every ``self.<attr>`` access, call site, lock acquisition, thread
  spawn and escaping method reference with the locks held there.  A
  lock is held inside ``with`` bodies (nested and multi-item forms
  accumulate left to right) and in methods whose ``def`` line carries a
  ``# guarded-by`` held marker.  ``def``/``lambda`` bodies restart from
  their own marker (closures run after the ``with`` exits) while their
  decorators and defaults evaluate in place; list/set/dict
  comprehensions evaluate in place; a *generator expression* keeps the
  held set only for its outermost iterable — the element and later
  clauses run at consumption time.

Lock recognition is name-based (the final attribute contains ``lock``,
``cond`` or ``mutex``, or is a declared guard lock of the class).

Typing needs the class names and return annotations of the *whole*
analyzed set, so :func:`build_program` derives that context first and
builds (or reuses) one :class:`FileModel` per source against it; the
model is cached on the :class:`SourceFile` and rebuilt only when the
same file is analyzed inside a different set.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from repro.analysis.source import SourceFile, dotted_name, iter_statements

GUARDED_REGISTRY_NAME = "_GUARDED"

#: A function's identity: (owner class name or module, dotted path of
#: the def inside that owner — ``"start.loop"`` for a closure).
Key = Tuple[str, str]

_FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def looks_like_lock(name: str) -> bool:
    lowered = name.lower()
    return "lock" in lowered or "cond" in lowered or "mutex" in lowered


def is_self_attr(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


# ======================================================================
# class table: guard declarations (context-free, cached per parse)
# ======================================================================
@dataclass
class ClassLockInfo:
    """What one class definition declares about its ``self.<attr>`` slots."""

    node: ast.ClassDef
    qualname: str
    guards: Dict[str, str] = field(default_factory=dict)   # attr -> lock attr
    #: attr -> ``# thread-confined:`` role as written
    confined: Dict[str, str] = field(default_factory=dict)
    #: attr -> line that declares it (registry key, else first assignment)
    decl_sites: Dict[str, int] = field(default_factory=dict)
    #: every statement assigning to a ``self.<attr>``, in source order
    assignments: List[ast.stmt] = field(default_factory=list)

    @property
    def lock_names(self) -> FrozenSet[str]:
        return frozenset(self.guards.values())


def iter_classes(source: SourceFile) -> List[ClassLockInfo]:
    """Every class in the module (nested ones included, outermost first)
    with its guard declarations resolved.  Cached on the
    :class:`SourceFile`; treat the entries as read-only."""
    return source.derived("classes", lambda: [
        _class_info(source, node, qualname)
        for node, qualname in source.definitions()
        if isinstance(node, ast.ClassDef)])


def _class_info(source: SourceFile, node: ast.ClassDef,
                qualname: str) -> ClassLockInfo:
    info = ClassLockInfo(node=node, qualname=qualname)
    # 1. class-level registry: _GUARDED = {"_attr": "_lock", ...}
    for stmt in node.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == GUARDED_REGISTRY_NAME
                and isinstance(stmt.value, ast.Dict)):
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    info.decl_sites.setdefault(key.value, key.lineno)
                    if (isinstance(value, ast.Constant)
                            and isinstance(value.value, str)):
                        info.guards[key.value] = value.value
    # 2. self.<attr> assignments anywhere in the class body: comment
    #    declarations, and the statements instance typing reads.
    for sub in iter_statements(node.body):
        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
            continue
        lock = source.guard_comments.get(sub.lineno)
        role = source.confined_roles.get(sub.lineno)
        targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
        for target in targets:
            if not is_self_attr(target):
                continue
            info.assignments.append(sub)
            info.decl_sites.setdefault(target.attr, sub.lineno)
            if lock is not None:
                info.guards[target.attr] = lock
            if role is not None:
                info.confined[target.attr] = role
    return info


# ======================================================================
# typing helpers
# ======================================================================
_CONTAINER_NAMES = {"dict", "Dict", "list", "List", "set", "Set",
                    "tuple", "Tuple", "deque", "OrderedDict", "defaultdict",
                    "Mapping", "MutableMapping", "Sequence", "Iterable"}

_IDENT_RE = re.compile(r"[A-Za-z_]\w*")


def annotation_class(annotation: Optional[ast.expr],
                     known: FrozenSet[str]) -> Optional[str]:
    """The known class named by a (possibly stringized, possibly
    optional/unioned) annotation: ``ChannelEnd``, ``"ChannelEnd |
    None"``, ``Optional[Worker]`` all resolve."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value,
                                                           str):
        for ident in _IDENT_RE.findall(annotation.value):
            if ident in known:
                return ident
        return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op,
                                                        ast.BitOr):
        return (annotation_class(annotation.left, known)
                or annotation_class(annotation.right, known))
    if isinstance(annotation, ast.Subscript):
        base = dotted_name(annotation.value)
        if base is not None and base.split(".")[-1] == "Optional":
            return annotation_class(annotation.slice, known)
        return None
    dotted = dotted_name(annotation)
    if dotted is not None and dotted.split(".")[-1] in known:
        return dotted.split(".")[-1]
    return None


def _element_annotation(annotation: ast.expr,
                        known: FrozenSet[str]) -> Optional[str]:
    """``dict[str, ReliableQueue]`` / ``list[Shard]`` → the element
    class (a mapping's *value* type is its element)."""
    if not isinstance(annotation, ast.Subscript):
        return None
    base = dotted_name(annotation.value)
    if base is None or base.split(".")[-1] not in _CONTAINER_NAMES:
        return None
    inner = annotation.slice
    last = inner.elts[-1] if isinstance(inner, ast.Tuple) else inner
    elem = dotted_name(last)
    if elem is not None and elem.split(".")[-1] in known:
        return elem.split(".")[-1]
    return None


def _direct_methods(node: ast.ClassDef) -> List[ast.FunctionDef]:
    return [s for s in node.body if isinstance(s, _FUNCTION_DEFS)]


def _definition_time_exprs(node: ast.AST) -> List[ast.expr]:
    """Decorators and argument defaults: evaluated where the def is."""
    exprs: List[ast.expr] = list(getattr(node, "decorator_list", []))
    exprs.extend(d for d in node.args.defaults if d is not None)
    exprs.extend(d for d in node.args.kw_defaults if d is not None)
    return exprs


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
# the records the held-lock walk produces
# ======================================================================
class Held(NamedTuple):
    """One lock held at a node: the lexical name of the ``with``
    expression's last segment, and its resolved ``Class.attr`` identity
    (``None`` when the receiver's class is unknown)."""

    name: str
    lock: Optional[str]


HeldLocks = Tuple[Held, ...]


def resolved(held: HeldLocks) -> Tuple[str, ...]:
    """The resolved identities of ``held``, outermost first."""
    return tuple(h.lock for h in held if h.lock is not None)


class Access(NamedTuple):
    """One ``self.<attr>`` touch (``node.ctx`` says read or write)."""

    node: ast.Attribute
    held: HeldLocks


class CallSite(NamedTuple):
    node: ast.Call
    callee: Optional[Key]
    held: HeldLocks


class Acquire(NamedTuple):
    """A ``with`` item that resolved to a lock, and what was held then."""

    lock: str
    held: HeldLocks
    node: ast.expr


class Spawn(NamedTuple):
    """One ``threading.Thread(target=...)`` occurrence: what the thread
    runs (bound methods in ``args=`` when the target is a shared loop
    helper) and the literal stem of its ``name=``."""

    node: ast.Call
    targets: List[Optional[Key]]
    name_stem: Optional[str]


# ======================================================================
# per-class and per-function models
# ======================================================================
class ClassModel:
    """One class: its guards plus instance typing against ``known``."""

    def __init__(self, info: ClassLockInfo, known: FrozenSet[str]) -> None:
        self.node = info.node
        self.name = info.node.name
        self.qualname = info.qualname
        self.guards = info.guards
        self.lock_names = info.lock_names
        self.confined = info.confined
        self.decl_sites = info.decl_sites
        self.method_names = {m.name for m in _direct_methods(info.node)}
        self.methods: List[FunctionModel] = []
        #: self.attr -> class;  self.attr -> element class of a container
        self.attr_types: Dict[str, str] = {}
        self.elem_types: Dict[str, str] = {}
        annotated: Dict[str, str] = {}
        param_types: Dict[str, str] = {}
        for method in _direct_methods(info.node):
            for arg in list(method.args.args) + list(method.args.kwonlyargs):
                ann = dotted_name(arg.annotation) if arg.annotation else None
                if ann is not None and ann.split(".")[-1] in known:
                    param_types[arg.arg] = ann.split(".")[-1]
        for sub in info.assignments:
            if isinstance(sub, ast.AnnAssign):
                cls = annotation_class(sub.annotation, known)
                if cls is not None:
                    annotated[sub.target.attr] = cls
                elem = _element_annotation(sub.annotation, known)
                if elem is not None:
                    self.elem_types[sub.target.attr] = elem
            elif len(sub.targets) == 1:
                target, value = sub.targets[0], sub.value
                if (isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id in known):
                    self.attr_types[target.attr] = value.func.id
                elif isinstance(value, ast.Name) and value.id in param_types:
                    self.attr_types[target.attr] = param_types[value.id]
        self.attr_types.update(annotated)   # a declared type wins


class FunctionModel:
    """One ``def``: local typing, the resolvers, and what the held-lock
    walk recorded in its body (nested defs are separate entries)."""

    def __init__(self, file: "FileModel", cls: Optional[ClassModel],
                 node: ast.AST, path: str, qualname: str,
                 outer: Optional["FunctionModel"] = None) -> None:
        self.file = file
        self.cls = cls
        self.node = node
        self.owner = cls.name if cls is not None else file.source.module
        self.key: Key = (self.owner, path)
        self.qualname = qualname
        marker = file.source.guard_comments.get(node.lineno)
        #: what every caller already holds (``# guarded-by`` on the def)
        self.marker: HeldLocks = (
            (Held(marker, f"{self.owner}.{marker}"),) if marker else ())
        self.local_types: Dict[str, str] = (
            dict(outer.local_types) if outer else {})
        self.local_elems: Dict[str, str] = (
            dict(outer.local_elems) if outer else {})
        self.closures: Dict[str, Key] = {}
        self.nested: List[FunctionModel] = []
        self.accesses: List[Access] = []
        self.calls: List[CallSite] = []
        self.acquires: List[Acquire] = []
        self.spawns: List[Spawn] = []
        #: functions referenced as *values* here (callback registration,
        #: stored handler): they run on whoever's thread fires them
        self.escapes: List[Key] = []
        file.functions.append(self)
        self._infer_local_types()
        for stmt in node.body:
            self._walk(stmt, self.marker)

    @property
    def name(self) -> str:
        return self.node.name

    def tree(self) -> Iterator["FunctionModel"]:
        """This function and every def nested inside it."""
        yield self
        for inner in self.nested:
            yield from inner.tree()

    # -- local typing ---------------------------------------------------
    def _infer_local_types(self) -> None:
        """Local name → class from constructor assignments, annotated
        parameters/locals, return annotations of resolvable calls
        (``queue = self.service.task_queue(ep)``), and elements pulled
        out of typed containers (``queue = self._task_queues[ep]``,
        ``for sub in self._subs.values():``)."""
        known = self.file.known
        types = self.local_types
        args = self.node.args
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            cls = annotation_class(arg.annotation, known)
            if cls is not None:
                types[arg.arg] = cls
        # Source order: a later loop over an earlier assignment's
        # container must see the element type already bound.
        for node in iter_statements(self.node.body):
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                cls = annotation_class(node.annotation, known)
                if cls is not None:
                    types[node.target.id] = cls
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                name = node.targets[0].id
                cls = self.instance_type(node.value)
                if cls is not None:
                    types[name] = cls
                else:
                    elem = self._container_elem(node.value)
                    if elem is not None:
                        self.local_elems[name] = elem
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._type_loop_target(node)

    def _self_container(self, expr: ast.expr) -> Optional[str]:
        """``self.<attr>`` declared as a container of a known class →
        that element class."""
        if self.cls is not None and is_self_attr(expr):
            return self.cls.elem_types.get(expr.attr)
        return None

    def instance_type(self, value: ast.expr) -> Optional[str]:
        """Class of ``ClassName(...)`` / ``self._queues[k]`` /
        ``self._queues.get(k)`` / ``self._peer`` / a typed local /
        ``self.service.task_queue(ep)``."""
        elem = self._element_type(value)
        if elem is not None:
            return elem
        if isinstance(value, ast.Name):
            return self.local_types.get(value.id)
        if self.cls is not None and is_self_attr(value):
            return self.cls.attr_types.get(value.attr)
        if isinstance(value, ast.Call):
            callee = self.resolve(value.func)
            if callee is not None:
                if callee[1] == "__init__" and callee[0] in self.file.known:
                    return callee[0]
                return self.file.returns.get(callee)
        return None

    def _element_type(self, value: ast.expr) -> Optional[str]:
        """Type of ``self._queues[k]`` / ``self._queues.get(k)``."""
        if isinstance(value, ast.Subscript):
            container = self._self_container(value.value)
            if container is not None:
                return container
            if isinstance(value.value, ast.Name):
                return self.local_elems.get(value.value.id)
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
            return self.local_elems.get(expr.id)
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

    def _type_loop_target(self, node: ast.AST) -> None:
        it = node.iter
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
            self.local_types[target.id] = elem
        elif (isinstance(target, ast.Tuple)
                and len(target.elts) > values_position
                and isinstance(target.elts[values_position], ast.Name)):
            self.local_types[target.elts[values_position].id] = elem

    # -- the resolvers --------------------------------------------------
    def _member(self, parts: List[str]) -> Optional[Key]:
        """``self.m`` / ``self.attr.m`` / ``local.m`` → (class, m)."""
        if parts[0] == "self" and self.cls is not None:
            if len(parts) == 2:
                return (self.cls.name, parts[1])
            if len(parts) == 3:
                owner = self.cls.attr_types.get(parts[1])
                if owner is not None:
                    return (owner, parts[2])
            return None
        if len(parts) == 2:
            owner = self.local_types.get(parts[0])
            if owner is not None:
                return (owner, parts[1])
        return None

    def lock_of(self, expr: ast.expr) -> Optional[Held]:
        """The lock a ``with`` item acquires, or ``None``.  Accepts
        ``self._lock``, a bare ``lock`` variable, a typed receiver's
        lock, and ``self._lock.acquire_timeout(...)``-style calls."""
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
        if not (looks_like_lock(attr)
                or (self.cls is not None and attr in self.cls.lock_names)):
            return None
        if len(parts) == 1:
            return Held(attr, f"{self.file.source.module}.{attr}")
        member = self._member(parts)
        return Held(attr, f"{member[0]}.{attr}" if member else None)

    def resolve(self, func: ast.expr) -> Optional[Key]:
        """What a called (or spawned, or registered) expression denotes:
        a closure, a module function, a constructor, or a method on a
        typed receiver (``self._queues[ep].put`` included)."""
        if isinstance(func, ast.Name):
            if func.id in self.closures:
                return self.closures[func.id]
            if func.id in self.file.module_functions:
                return (self.file.source.module, func.id)
            if func.id in self.file.known:
                return (func.id, "__init__")
            return None
        if isinstance(func, ast.Attribute):
            elem = self._element_type(func.value)
            if elem is not None:
                return (elem, func.attr)
        dotted = dotted_name(func)
        if dotted is None:
            return None
        return self._member(dotted.split("."))

    # -- the held-lock walk ---------------------------------------------
    def _walk(self, node: ast.AST, held: HeldLocks) -> None:
        if isinstance(node, ast.ClassDef):
            return  # nested classes are their own owner
        if isinstance(node, _FUNCTION_DEFS):
            for expr in _definition_time_exprs(node):
                self._walk(expr, held)
            path = f"{self.key[1]}.{node.name}"
            self.closures[node.name] = (self.owner, path)
            self.nested.append(FunctionModel(
                self.file, self.cls, node, path,
                f"{self.qualname}.{node.name}", outer=self))
            return
        if isinstance(node, ast.Lambda):
            for expr in _definition_time_exprs(node):
                self._walk(expr, held)
            self._walk(node.body, ())
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            inner = held
            for item in node.items:
                self._walk(item.context_expr, held)
                if item.optional_vars is not None:
                    self._walk(item.optional_vars, held)
                lock = self.lock_of(item.context_expr)
                if lock is not None:
                    if lock.lock is not None:
                        self.acquires.append(
                            Acquire(lock.lock, inner, item.context_expr))
                    inner = inner + (lock,)
            for stmt in node.body:
                self._walk(stmt, inner)
            return
        if isinstance(node, ast.GeneratorExp):
            # Only the outermost iterable is evaluated eagerly; the
            # element and every later clause run when the generator is
            # consumed — typically after the with-block has exited.
            first = node.generators[0]
            self._walk(first.iter, held)
            for lazy in ([first.target] + first.ifs
                         + [part for gen in node.generators[1:]
                            for part in [gen.target, gen.iter] + gen.ifs]
                         + [node.elt]):
                self._walk(lazy, ())
            return
        if isinstance(node, ast.Attribute):
            if self.cls is not None and is_self_attr(node):
                self.accesses.append(Access(node, held))
        elif isinstance(node, ast.Call):
            self.calls.append(CallSite(node, self.resolve(node.func), held))
            if _is_thread_spawn(node):
                # the target's role comes from the spawn, not from
                # "escapes as a value"
                self._record_spawn(node)
            else:
                for operand in node.args + [kw.value for kw in node.keywords]:
                    self._seed_escapes(operand)
        elif isinstance(node, ast.Assign):
            self._seed_escapes(node.value)
        for child in ast.iter_child_nodes(node):
            self._walk(child, held)

    def _record_spawn(self, node: ast.Call) -> None:
        target: Optional[Key] = None
        name_stem: Optional[str] = None
        passed: List[Optional[Key]] = []
        for kw in node.keywords:
            if kw.arg == "target":
                target = self.resolve(kw.value)
            elif kw.arg == "name":
                name_stem = _literal_name_stem(kw.value)
            elif (kw.arg == "args" and isinstance(kw.value, ast.Tuple)
                    and self.cls is not None):
                # Bound methods handed to a shared loop helper
                # (``target=run_loop, args=(..., self.step, ...)``) are
                # what the thread runs.
                passed = [self.resolve(elt) for elt in kw.value.elts
                          if isinstance(elt, ast.Attribute)
                          and elt.attr in self.cls.method_names]
        targets = [target] if target is not None else passed or [None]
        self.spawns.append(Spawn(node, targets, name_stem))

    def _seed_escapes(self, node: ast.AST) -> None:
        """Record method/closure references used as values in ``node``.
        Nested calls are pruned — they get their own visit."""
        if isinstance(node, ast.Call):
            return
        if (self.cls is not None and is_self_attr(node)
                and isinstance(node.ctx, ast.Load)
                and node.attr in self.cls.method_names):
            self.escapes.append((self.cls.name, node.attr))
            return
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in self.closures):
            self.escapes.append(self.closures[node.id])
            return
        for child in ast.iter_child_nodes(node):
            self._seed_escapes(child)


def _is_thread_spawn(node: ast.Call) -> bool:
    dotted = dotted_name(node.func)
    return (dotted is not None and dotted.split(".")[-1] == "Thread"
            and any(kw.arg == "target" for kw in node.keywords))


# ======================================================================
# per-file model and the cross-file program
# ======================================================================
class FileModel:
    """Every class and function of one source, typed against the class
    names (``known``) and return annotations (``returns``) of the set it
    was analyzed in."""

    def __init__(self, source: SourceFile, known: FrozenSet[str],
                 returns: Dict[Key, str]) -> None:
        self.source = source
        self.known = known
        self.returns = returns
        self.module_functions = {
            stmt.name for stmt in source.tree.body
            if isinstance(stmt, _FUNCTION_DEFS)}
        self.classes: List[ClassModel] = []
        #: every def, definers before the closures they define
        self.functions: List[FunctionModel] = []
        #: top-level defs only (``fn.tree()`` reaches the rest)
        self.module_level: List[FunctionModel] = []
        for info in iter_classes(source):
            cls = ClassModel(info, known)
            self.classes.append(cls)
            for method in _direct_methods(info.node):
                cls.methods.append(FunctionModel(
                    self, cls, method, method.name,
                    f"{info.qualname}.{method.name}"))
        for stmt in source.tree.body:
            if isinstance(stmt, _FUNCTION_DEFS):
                self.module_level.append(
                    FunctionModel(self, None, stmt, stmt.name, stmt.name))


class Program:
    """The per-file models of one analyzed set, plus the merged function
    table the cross-file fixpoints iterate (a later definition of the
    same key replaces an earlier one)."""

    def __init__(self, files: List[FileModel]) -> None:
        self.files = files
        self.all_functions: List[FunctionModel] = [
            fn for file in files for fn in file.functions]
        self.functions: Dict[Key, FunctionModel] = {
            fn.key: fn for fn in self.all_functions}


def propagate(values: Dict[Key, set], edges: Sequence[Tuple[Key, Key]]) -> None:
    """Least fixpoint of ``values[dst] |= values[src]`` over the call
    graph ``edges`` — how roles flow to callees and acquired locks flow
    to callers."""
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            flowing = values[src]
            if flowing and not flowing <= values[dst]:
                values[dst] |= flowing
                changed = True


def _declarations(source: SourceFile):
    """(class names, [(key, return annotation)]) — the context-free part
    of a file's contribution to the program-wide typing context."""
    def build():
        returns = []
        classes = [info.node for info in iter_classes(source)]
        for node in classes:
            returns.extend(((node.name, m.name), m.returns)
                           for m in _direct_methods(node)
                           if m.returns is not None)
        returns.extend(((source.module, stmt.name), stmt.returns)
                       for stmt in source.tree.body
                       if isinstance(stmt, _FUNCTION_DEFS)
                       and stmt.returns is not None)
        return frozenset(node.name for node in classes), returns

    return source.derived("declarations", build)


def build_program(sources: Sequence[SourceFile]) -> Program:
    """The model of ``sources``.  Per-file models are cached on each
    :class:`SourceFile` and reused as long as the surrounding set
    declares the same classes and return types."""
    declared = [_declarations(source) for source in sources]
    known: FrozenSet[str] = frozenset().union(*(names for names, _ in declared))
    returns: Dict[Key, str] = {}
    for _, annotated in declared:
        for key, annotation in annotated:
            cls = annotation_class(annotation, known)
            if cls is not None:
                returns[key] = cls
    return Program([
        source.derived(
            "model", lambda source=source: FileModel(source, known, returns),
            still_valid=lambda m: m.known == known and m.returns == returns)
        for source in sources])


def file_model(source: SourceFile) -> FileModel:
    """The model the per-file checks read: whatever set the file was
    last analyzed in, else the file on its own."""
    return source.derived("model", lambda: build_program([source]).files[0])
