"""Intraprocedural control-flow graphs over ``ast`` function bodies.

The lexical checks in :mod:`repro.analysis.checks` reason per statement
or per ``with`` scope; the flow-sensitive checks (lease-ack discipline
and the other resource protocols) need to know *every path* from a
function's entry to its exit.  This module builds a small statement-level CFG:

* one node per simple statement (plus synthetic ENTRY and EXIT nodes);
* branch edges labelled with the test expression and the truth value
  taken, so analyses can refine facts on e.g. the ``if lease is None``
  edge;
* loops with back edges, ``break``/``continue`` routed to the loop exit
  and header;
* ``return``/``raise`` edges to EXIT;
* ``try``/``except``/``finally`` modelled conservatively: every
  statement in a ``try`` body gets an *exceptional* edge to each
  handler (and to the ``finally`` body when present).  Exceptional
  edges carry the facts holding *before* the raising statement, since
  the exception may fire mid-statement.

Deliberate approximations (documented in docs/ANALYSIS.md): implicit
exceptions outside ``try`` blocks are not modelled (only explicit
``raise`` and ``try`` bodies create exceptional flow), and a ``raise``
inside an ``except`` handler goes straight to EXIT without re-entering
``finally``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

ENTRY = "entry"
EXIT = "exit"
STMT = "stmt"
JOIN = "join"


@dataclass
class Node:
    """A CFG node: a statement, or the synthetic entry/exit."""

    index: int
    kind: str
    stmt: Optional[ast.AST] = None

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)


@dataclass(frozen=True)
class Edge:
    """Directed edge ``src -> dst``.

    ``cond``/``branch`` label conditional edges (the test expression and
    whether this edge is the true or false outcome).  ``exceptional``
    marks edges that model an exception escaping a statement; dataflow
    propagates the *incoming* facts of ``src`` along them.
    """

    src: int
    dst: int
    cond: Optional[ast.expr] = None
    branch: Optional[bool] = None
    exceptional: bool = False


@dataclass
class CFG:
    nodes: List[Node] = field(default_factory=list)
    edges: List[Edge] = field(default_factory=list)
    entry: int = 0
    exit: int = 1

    def successors(self, index: int) -> Iterator[Edge]:
        for edge in self.edges:
            if edge.src == index:
                yield edge


# A "frontier" is the set of dangling exits of the region built so far:
# (node index, cond, branch) triples waiting to be wired to the next
# statement's node.
_Frontier = List[Tuple[int, Optional[ast.expr], Optional[bool]]]


class _LoopContext:
    def __init__(self, header: int) -> None:
        self.header = header
        self.breaks: _Frontier = []


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self._entry = self._new_node(ENTRY)
        self._exit = self._new_node(EXIT)
        self.cfg.entry = self._entry.index
        self.cfg.exit = self._exit.index
        self._loops: List[_LoopContext] = []
        # Stack of handler-entry node lists for enclosing try blocks:
        # statements built inside a try body add exceptional edges to
        # each of these targets.
        self._exception_targets: List[List[int]] = []

    def _new_node(self, kind: str, stmt: Optional[ast.AST] = None) -> Node:
        node = Node(index=len(self.cfg.nodes), kind=kind, stmt=stmt)
        self.cfg.nodes.append(node)
        return node

    def _edge(self, src: int, dst: int, cond: Optional[ast.expr] = None,
              branch: Optional[bool] = None, exceptional: bool = False) -> None:
        self.cfg.edges.append(Edge(src, dst, cond, branch, exceptional))

    def _connect(self, frontier: _Frontier, dst: int) -> None:
        for src, cond, branch in frontier:
            self._edge(src, dst, cond, branch)

    def _stmt_node(self, stmt: ast.AST, frontier: _Frontier) -> Node:
        node = self._new_node(STMT, stmt)
        self._connect(frontier, node.index)
        for targets in self._exception_targets:
            for target in targets:
                self._edge(node.index, target, exceptional=True)
        return node

    def build(self, func: ast.AST) -> CFG:
        body = getattr(func, "body", [])
        frontier = self._body(body, [(self._entry.index, None, None)])
        self._connect(frontier, self._exit.index)
        return self.cfg

    def _body(self, stmts: Sequence[ast.stmt], frontier: _Frontier) -> _Frontier:
        for stmt in stmts:
            frontier = self._stmt(stmt, frontier)
        return frontier

    def _stmt(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        if isinstance(stmt, ast.If):
            return self._if(stmt, frontier)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, frontier)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, frontier)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        node = self._stmt_node(stmt, frontier)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._edge(node.index, self._exit.index)
            return []
        if isinstance(stmt, ast.Break):
            if self._loops:
                self._loops[-1].breaks.append((node.index, None, None))
            return []
        if isinstance(stmt, ast.Continue):
            if self._loops:
                self._edge(node.index, self._loops[-1].header)
            return []
        return [(node.index, None, None)]

    def _if(self, stmt: ast.If, frontier: _Frontier) -> _Frontier:
        test = self._stmt_node(stmt, frontier)
        out = self._body(stmt.body, [(test.index, stmt.test, True)])
        if stmt.orelse:
            out += self._body(stmt.orelse, [(test.index, stmt.test, False)])
        else:
            out.append((test.index, stmt.test, False))
        return out

    def _while(self, stmt: ast.While, frontier: _Frontier) -> _Frontier:
        test = self._stmt_node(stmt, frontier)
        loop = _LoopContext(test.index)
        self._loops.append(loop)
        body_out = self._body(stmt.body, [(test.index, stmt.test, True)])
        self._loops.pop()
        self._connect(body_out, test.index)
        out: _Frontier = list(loop.breaks)
        if not _is_constant_true(stmt.test):
            out.append((test.index, stmt.test, False))
        if stmt.orelse:
            out = self._body(stmt.orelse, out) + list(loop.breaks)
        return out

    def _for(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        # The For node itself is passed as the edge condition so analyses
        # can model the iteration binding (true edge: the target holds an
        # element; false edge: the iterable is exhausted).
        head = self._stmt_node(stmt, frontier)
        loop = _LoopContext(head.index)
        self._loops.append(loop)
        body_out = self._body(stmt.body, [(head.index, stmt, True)])
        self._loops.pop()
        self._connect(body_out, head.index)
        out: _Frontier = [(head.index, stmt, False)] + list(loop.breaks)
        orelse = getattr(stmt, "orelse", [])
        if orelse:
            out = self._body(orelse, [(head.index, stmt, False)]) + list(loop.breaks)
        return out

    def _with(self, stmt: ast.stmt, frontier: _Frontier) -> _Frontier:
        head = self._stmt_node(stmt, frontier)
        return self._body(stmt.body, [(head.index, None, None)])

    def _try(self, stmt: ast.Try, frontier: _Frontier) -> _Frontier:
        handler_entries: List[int] = []
        handler_nodes: List[Node] = []
        for handler in stmt.handlers:
            node = self._new_node(STMT, handler)
            handler_entries.append(node.index)
            handler_nodes.append(node)

        final_join: Optional[Node] = None
        if stmt.finalbody and not stmt.handlers:
            # try/finally with no handlers: an exception in the body
            # still runs finally, then propagates.  Exceptional edges
            # target a synthetic join in front of the finally body.
            final_join = self._new_node(JOIN)

        targets = handler_entries if handler_entries else (
            [final_join.index] if final_join is not None else [])
        self._exception_targets.append(targets)
        body_out = self._body(stmt.body, frontier)
        self._exception_targets.pop()

        if stmt.orelse:
            body_out = self._body(stmt.orelse, body_out)

        out: _Frontier = list(body_out)
        for node, handler in zip(handler_nodes, stmt.handlers):
            out += self._body(handler.body, [(node.index, None, None)])
        if stmt.finalbody:
            if final_join is not None:
                self._connect(out, final_join.index)
                out = [(final_join.index, None, None)]
            out = self._body(stmt.finalbody, out)
            if final_join is not None:
                # After an unhandled exception runs the finally body,
                # it keeps propagating: the finally exit also reaches
                # function EXIT.
                self._connect(out, self._exit.index)
        return out

    def _match(self, stmt: ast.Match, frontier: _Frontier) -> _Frontier:
        head = self._stmt_node(stmt, frontier)
        out: _Frontier = [(head.index, None, None)]
        for case in stmt.cases:
            out += self._body(case.body, [(head.index, None, None)])
        return out


def _is_constant_true(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Constant) and expr.value is True


def build_cfg(func: ast.AST) -> CFG:
    """Build the CFG for a FunctionDef/AsyncFunctionDef (or any node
    with a ``body`` of statements)."""
    return _Builder().build(func)


def header_parts(stmt: ast.AST) -> List[ast.AST]:
    """The sub-expressions that execute *at* a statement's CFG node.

    Compound statements (``if``/``while``/``for``/``with``/``try``) keep
    their own AST node in the CFG but their bodies become separate
    nodes; a dataflow transfer must therefore only look at the header
    (test, iterable, context managers) or it would double-count the
    body's effects at the header node.
    """
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, ast.ExceptHandler):
        return [stmt.type] if stmt.type is not None else []
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return [stmt]
