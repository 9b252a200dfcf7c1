"""Static lock-acquisition-order graph and deadlock (cycle) detection.

Two threads that acquire the same two locks in opposite orders can
deadlock; the classic prevention is a global acquisition order.  This
module extracts that order statically from every ``with <lock>:`` scope
in the tree:

* **Nodes** are locks named ``ClassName.attr`` (``Forwarder._lock``,
  ``ReliableQueue._lock``) — instance locks are collapsed per class,
  matching the names the runtime sanitizer
  (:mod:`repro.analysis.sanitizer`) reports, so the two graphs are
  directly comparable.
* **Direct edges** come from lexically nested ``with`` scopes (and the
  left-to-right items of ``with a, b:``).
* **Call-through edges** come from a fixpoint over the call sites the
  program model (:mod:`repro.analysis.model`) resolved: if a method
  calls ``self.other()`` or ``self.attr.m()`` while holding lock A,
  every lock the callee (transitively) acquires gets an ``A -> lock``
  edge.  Unresolvable receivers are skipped.
* **Self-loops are ignored**: re-acquiring ``self._lock`` is legal for
  RLocks, and two *instances* of the same class collapse onto one node
  (the runtime sanitizer distinguishes instances and catches real
  same-class inversions live).

Cycles are reported once per strongly connected component, with one
witness (file:line) per edge so both halves of the inversion are shown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding
from repro.analysis.model import (
    Key,
    Program,
    build_program,
    propagate,
    resolved,
)
from repro.analysis.source import SourceFile

LOCK_ORDER = "lock-order"

_LOCK_ORDER_HINT = (
    "pick one global acquisition order for these locks and restructure the "
    "losing side (usually: snapshot under the first lock, release it, then "
    "take the second); see docs/ANALYSIS.md \"Reading a lock-order cycle "
    "report\""
)


@dataclass(frozen=True)
class Witness:
    """Where an edge was observed: a file:line plus what happened there."""

    path: str
    line: int
    symbol: str
    detail: str

    def format(self) -> str:
        return f"{self.path}:{self.line} in {self.symbol} ({self.detail})"


@dataclass
class LockOrderGraph:
    """Directed lock-order graph shared by the static extractor and the
    runtime sanitizer (which merges its observed edges into the same
    shape for subgraph comparison)."""

    edges: Dict[Tuple[str, str], List[Witness]] = field(default_factory=dict)

    def add_edge(self, src: str, dst: str, witness: Witness) -> None:
        if src == dst:
            return
        self.edges.setdefault((src, dst), []).append(witness)

    @property
    def nodes(self) -> Set[str]:
        found: Set[str] = set()
        for src, dst in self.edges:
            found.add(src)
            found.add(dst)
        return found

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self.edges

    def successors(self, node: str) -> List[str]:
        return sorted(dst for (src, dst) in self.edges if src == node)

    def is_subgraph_of(self, other: "LockOrderGraph") -> bool:
        return all(edge in other.edges for edge in self.edges)

    def missing_from(self, other: "LockOrderGraph") -> List[Tuple[str, str]]:
        return sorted(edge for edge in self.edges if edge not in other.edges)

    def cycles(self) -> List[List[Tuple[str, str]]]:
        """One representative simple cycle per non-trivial SCC, as a
        list of edges; deterministic order."""
        sccs = _tarjan_sccs(self)
        found: List[List[Tuple[str, str]]] = []
        for scc in sccs:
            if len(scc) < 2:
                continue
            members = set(scc)
            start = min(scc)
            path = _find_cycle_path(self, start, members)
            if path:
                found.append(path)
        return found


def _tarjan_sccs(graph: LockOrderGraph) -> List[List[str]]:
    index_of: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    sccs: List[List[str]] = []
    counter = [0]

    def strongconnect(node: str) -> None:
        index_of[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for succ in graph.successors(node):
            if succ not in index_of:
                strongconnect(succ)
                low[node] = min(low[node], low[succ])
            elif succ in on_stack:
                low[node] = min(low[node], index_of[succ])
        if low[node] == index_of[node]:
            scc: List[str] = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                scc.append(member)
                if member == node:
                    break
            sccs.append(sorted(scc))

    for node in sorted(graph.nodes):
        if node not in index_of:
            strongconnect(node)
    return sorted(sccs)


def _find_cycle_path(graph: LockOrderGraph, start: str,
                     members: Set[str]) -> Optional[List[Tuple[str, str]]]:
    """DFS for a simple cycle start -> ... -> start inside one SCC."""
    stack: List[Tuple[str, List[Tuple[str, str]]]] = [(start, [])]
    while stack:
        node, path = stack.pop()
        for succ in reversed(graph.successors(node)):
            if succ not in members:
                continue
            edge = (node, succ)
            if succ == start:
                return path + [edge]
            if any(src == succ for src, _ in path) or succ == start:
                continue
            if len(path) < len(members):
                stack.append((succ, path + [edge]))
    return None


# ======================================================================
# Static extraction
# ======================================================================
def extract_lock_graph(sources: Sequence[SourceFile]) -> LockOrderGraph:
    """Build the global static lock-order graph over ``sources``."""
    graph = LockOrderGraph()
    program = build_program(sources)
    for fn in program.all_functions:
        for lock, held, node in fn.acquires:
            outer = resolved(held)
            witness = Witness(
                path=fn.file.source.path,
                line=node.lineno,
                symbol=fn.qualname,
                detail=f"acquires {lock} while holding "
                       f"{', '.join(outer) if outer else 'nothing'}",
            )
            for held_lock in outer:
                graph.add_edge(held_lock, lock, witness)
    _propagate_call_locks(graph, program)
    return graph


def _propagate_call_locks(graph: LockOrderGraph, program: Program) -> None:
    """Fixpoint: locks(m) = direct(m) ∪ locks(callees); then add edges
    held-at-call-site -> every lock the callee acquires.  A function
    also counts as reaching the closures it defines (with nothing held):
    whoever it hands them to usually runs them on its behalf."""
    functions = program.functions
    all_locks: Dict[Key, Set[str]] = {
        key: {acquire.lock for acquire in fn.acquires}
        for key, fn in functions.items()}
    propagate(all_locks, [
        (callee, key) for key, fn in functions.items()
        for callee in [call.callee for call in fn.calls
                       if call.callee in all_locks]
        + list(fn.closures.values())])

    for key in sorted(functions):
        fn = functions[key]
        for node, callee, held in fn.calls:
            outer = resolved(held)
            if not outer or callee not in all_locks:
                continue
            for lock in sorted(all_locks[callee]):
                witness = Witness(
                    path=fn.file.source.path,
                    line=node.lineno,
                    symbol=fn.qualname,
                    detail=(f"call to {callee[0]}.{callee[1]}() acquires {lock} "
                            f"while holding {', '.join(outer)}"),
                )
                for held_lock in outer:
                    graph.add_edge(held_lock, lock, witness)


# ======================================================================
# The check
# ======================================================================
def check_lock_order(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """Flag cycles in the global lock-acquisition-order graph.

    An edge ``A -> B`` means some code path acquires B while holding A;
    a cycle means two code paths acquire the same locks in opposite
    orders — a potential deadlock under the right interleaving.  Each
    cycle is reported once, with a witness (file:line) for every edge so
    both sides of the inversion are visible.
    """
    graph = extract_lock_graph(sources)
    by_path = {source.path: source for source in sources}
    for cycle in graph.cycles():
        first_witness = graph.edges[cycle[0]][0]
        legs = []
        for src, dst in cycle:
            witness = graph.edges[(src, dst)][0]
            extra = len(graph.edges[(src, dst)]) - 1
            more = f" (+{extra} more witness{'es' if extra > 1 else ''})" if extra else ""
            legs.append(f"{src} -> {dst} at {witness.format()}{more}")
        names = " -> ".join([cycle[0][0]] + [dst for _, dst in cycle])
        yield by_path[first_witness.path].finding(
            LOCK_ORDER, first_witness.line,
            f"lock-order cycle {names}: " + "; ".join(legs),
            _LOCK_ORDER_HINT, symbol=first_witness.symbol)
