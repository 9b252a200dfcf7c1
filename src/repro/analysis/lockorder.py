"""Static lock nesting: the fabric holds one lock at a time.

Two threads that acquire the same two locks in opposite orders can
deadlock.  The fabric rules that out by a stricter rule than a global
acquisition order: it releases one lock before it takes the next
(snapshot under the lock, release it, then call out).  This module
extracts every place that rule is broken, over every ``with <lock>:``
scope in the tree, as the edges of a lock-order graph:

* **Nodes** are locks named ``ClassName.attr`` (``Forwarder._lock``,
  ``ReliableQueue._lock``) — instance locks are collapsed per class,
  matching the names the runtime sanitizer
  (:mod:`repro.analysis.sanitizer`) reports, so the two edge sets are
  directly comparable.
* **Direct edges** come from lexically nested ``with`` scopes (and the
  left-to-right items of ``with a, b:``).
* **Call-through edges** come from a fixpoint over the call sites the
  program model (:mod:`repro.analysis.model`) resolved: if a method
  calls ``self.other()`` or ``self.attr.m()`` while holding lock A,
  every lock the callee (transitively) acquires gets an ``A -> lock``
  edge.  Unresolvable receivers are skipped.
* **Self-loops are ignored**: re-acquiring ``self._lock`` is legal for
  RLocks.  Two *instances* of one class collapse onto one node here;
  the runtime sanitizer tells instances apart and reports their nesting.

Every edge is one finding, anchored at its first witness (file:line).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

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
    "hold one lock at a time: snapshot what you need under the first lock, "
    "release it, then take the second lock or make the call; see "
    "docs/ANALYSIS.md \"Reading a nesting finding\""
)


@dataclass(frozen=True)
class Witness:
    """Where an edge was observed: a file:line plus what happened there."""

    path: str
    line: int
    symbol: str
    detail: str


#: ``(held, acquired)`` lock names -> every site that nests them.
LockEdges = Dict[Tuple[str, str], List[Witness]]


def _add_edge(edges: LockEdges, held: str, acquired: str,
              witness: Witness) -> None:
    if held != acquired:
        edges.setdefault((held, acquired), []).append(witness)


# ======================================================================
# Static extraction
# ======================================================================
def extract_lock_graph(sources: Sequence[SourceFile]) -> LockEdges:
    """Every lock-order edge over ``sources``, with its witnesses."""
    edges: LockEdges = {}
    program = build_program(sources)
    for fn in program.all_functions:
        for lock, held, node in fn.acquires:
            for held_lock in resolved(held):
                _add_edge(edges, held_lock, lock, Witness(
                    path=fn.file.source.path,
                    line=node.lineno,
                    symbol=fn.qualname,
                    detail=f"acquires {lock} while holding {held_lock}",
                ))
    _propagate_call_locks(edges, program)
    return edges


def _propagate_call_locks(edges: LockEdges, program: Program) -> None:
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
            if callee not in all_locks:
                continue
            for held_lock in resolved(held):
                for lock in sorted(all_locks[callee]):
                    _add_edge(edges, held_lock, lock, Witness(
                        path=fn.file.source.path,
                        line=node.lineno,
                        symbol=fn.qualname,
                        detail=(f"call to {callee[0]}.{callee[1]}() acquires "
                                f"{lock} while holding {held_lock}"),
                    ))


# ======================================================================
# The check
# ======================================================================
def check_lock_order(sources: Sequence[SourceFile]) -> Iterator[Finding]:
    """Flag every lock acquired while another lock is held.

    The fabric holds one lock at a time: it releases a lock before it
    takes the next one, so no two locks can ever be taken in opposite
    orders.  An edge ``A -> B`` means some code path acquires B while
    holding A, either in a nested ``with`` (or ``with a, b:``) or
    through a call made under A.  Each edge is one finding, anchored at
    its first witness site, with a count of the other sites that make
    it.  Re-entering the same lock (an RLock) is not an edge.  Fix by
    taking a snapshot under A, releasing A, then acquiring B.
    """
    edges = extract_lock_graph(sources)
    by_path = {source.path: source for source in sources}
    for edge in sorted(edges):
        first, *others = edges[edge]
        more = (f" (+{len(others)} more site{'s' if len(others) > 1 else ''})"
                if others else "")
        yield by_path[first.path].finding(
            LOCK_ORDER, first.line, first.detail + more,
            _LOCK_ORDER_HINT, symbol=first.symbol)
