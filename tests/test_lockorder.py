"""Unit tests for the static lock-nesting check (repro.analysis.lockorder)."""

from __future__ import annotations

from pathlib import Path

from repro.analysis.lockorder import (
    LockEdges,
    check_lock_order,
    extract_lock_graph,
)
from repro.analysis.runner import iter_python_files
from repro.analysis.source import load_source, module_name_for, parse_source

REPO_ROOT = Path(__file__).resolve().parent.parent


def _sources(*texts: str):
    return [parse_source(text, path=f"mod{i}.py", module=f"fixtures.mod{i}")
            for i, text in enumerate(texts)]


def _graph(*texts: str) -> LockEdges:
    return extract_lock_graph(_sources(*texts))


NESTED = """
import threading


class Pair:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def run(self):
        with self._a_lock:
            with self._b_lock:
                pass
"""

MULTI_ITEM = """
import threading


class Pair:
    def __init__(self):
        self._a_lock = threading.Lock()
        self._b_lock = threading.Lock()

    def run(self):
        with self._a_lock, self._b_lock:
            pass
"""


class TestEdgeExtraction:
    def test_nested_with_produces_ordered_edge(self):
        graph = _graph(NESTED)
        assert ("Pair._a_lock", "Pair._b_lock") in graph
        assert ("Pair._b_lock", "Pair._a_lock") not in graph

    def test_multi_item_with_orders_left_to_right(self):
        graph = _graph(MULTI_ITEM)
        assert ("Pair._a_lock", "Pair._b_lock") in graph
        assert ("Pair._b_lock", "Pair._a_lock") not in graph

    def test_reentrant_same_lock_is_not_an_edge(self):
        graph = _graph("""
import threading


class Solo:
    def __init__(self):
        self._lock = threading.RLock()

    def run(self):
        with self._lock:
            with self._lock:
                pass
""")
        assert graph == {}

    def test_witness_records_file_line_and_symbol(self):
        graph = _graph(NESTED)
        (witness,) = graph[("Pair._a_lock", "Pair._b_lock")]
        assert (witness.path, witness.line, witness.symbol) == (
            "mod0.py", 12, "Pair.run")
        assert witness.detail == "acquires Pair._b_lock while holding Pair._a_lock"

    def test_call_through_edge_via_typed_attribute(self):
        graph = _graph("""
import threading


class Inner:
    def __init__(self):
        self._inner_lock = threading.Lock()

    def poke(self):
        with self._inner_lock:
            pass


class Outer:
    def __init__(self):
        self._outer_lock = threading.Lock()
        self.inner = Inner()

    def run(self):
        with self._outer_lock:
            self.inner.poke()
""")
        assert ("Outer._outer_lock", "Inner._inner_lock") in graph

    def test_call_through_edges_cross_files(self):
        inner = """
import threading


class Inner:
    def __init__(self):
        self._inner_lock = threading.Lock()

    def poke(self):
        with self._inner_lock:
            pass
"""
        outer = """
import threading


class Outer:
    def __init__(self, inner: Inner):
        self._outer_lock = threading.Lock()
        self.inner = inner

    def run(self):
        with self._outer_lock:
            self.inner.poke()
"""
        graph = extract_lock_graph(_sources(inner, outer))
        assert ("Outer._outer_lock", "Inner._inner_lock") in graph


class TestGraphHelpers:
    def test_self_edges_are_dropped(self):
        # A call made under a lock to a method that re-takes the same
        # lock is RLock re-entry, not an edge, through calls as lexically.
        graph = _graph("""
import threading


class Solo:
    def __init__(self):
        self._lock = threading.RLock()

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            pass
""")
        assert graph == {}


ABBA_LEFT = """
import threading


class Left:
    def __init__(self, right: Right):
        self._left_lock = threading.Lock()
        self.right = right

    def poke(self):
        with self._left_lock:
            with self.right._right_lock:
                pass
"""

ABBA_RIGHT = """
import threading


class Right:
    def __init__(self):
        self._right_lock = threading.Lock()
        self.left = None

    def attach(self, left: Left):
        self.left = left

    def poke(self):
        with self._right_lock:
            with self.left._left_lock:
                pass
"""


class TestCycleFindings:
    def test_abba_cycle_reported_with_both_witnesses(self):
        findings = list(check_lock_order(_sources(ABBA_LEFT, ABBA_RIGHT)))
        # one finding per edge: each leg of the inversion at its own site
        assert [(f.check, f.path, f.symbol, f.message) for f in findings] == [
            ("lock-order", "mod0.py", "Left.poke",
             "acquires Right._right_lock while holding Left._left_lock"),
            ("lock-order", "mod1.py", "Right.poke",
             "acquires Left._left_lock while holding Right._right_lock"),
        ]


class TestNestingFindings:
    """The rule is stricter than an acyclic order: any nesting is a
    finding, even one taken in a single consistent order."""

    def test_one_way_nesting_is_flagged(self):
        findings = list(check_lock_order(_sources(NESTED)))
        assert [(f.line, f.symbol, f.message) for f in findings] == [
            (12, "Pair.run",
             "acquires Pair._b_lock while holding Pair._a_lock")]
        assert "one lock at a time" in findings[0].hint

    def test_call_through_nesting_is_flagged_once_per_edge(self):
        findings = list(check_lock_order(_sources("""
import threading


class Inner:
    def __init__(self):
        self._inner_lock = threading.Lock()

    def poke(self):
        with self._inner_lock:
            pass


class Outer:
    def __init__(self):
        self._outer_lock = threading.Lock()
        self.inner = Inner()

    def run(self):
        with self._outer_lock:
            self.inner.poke()

    def again(self):
        with self._outer_lock:
            self.inner.poke()
""")))
        assert [(f.symbol, f.message) for f in findings] == [
            ("Outer.again",
             "call to Inner.poke() acquires Inner._inner_lock while holding "
             "Outer._outer_lock (+1 more site)")]


class TestFullSourceTree:
    def test_src_lock_graph_is_acyclic(self):
        """The fabric holds one lock at a time: no edge at all."""
        sources = [load_source(p, str(p.relative_to(REPO_ROOT)), module_name_for(p))
                   for p in iter_python_files(REPO_ROOT / "src")]
        assert extract_lock_graph(sources) == {}
