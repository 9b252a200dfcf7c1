"""Unit tests for the CFG builder and forward-dataflow engine that power
the flow-sensitive checks (lease-ack and the other resource protocols)."""

from __future__ import annotations

import ast

from repro.analysis.cfg import (
    ENTRY,
    EXIT,
    JOIN,
    STMT,
    build_cfg,
    header_parts,
)
from repro.analysis.dataflow import Facts, ForwardAnalysis, join_facts, run_forward


def _func(src: str) -> ast.FunctionDef:
    module = ast.parse(src)
    func = module.body[0]
    assert isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
    return func


def _stmt_nodes(cfg):
    return [n for n in cfg.nodes if n.kind == STMT]


# ----------------------------------------------------------------------
# CFG structure
# ----------------------------------------------------------------------
class TestCfgStructure:
    def test_straight_line(self):
        cfg = build_cfg(_func("def f():\n    a = 1\n    b = 2\n"))
        kinds = [n.kind for n in cfg.nodes]
        assert kinds.count(ENTRY) == 1 and kinds.count(EXIT) == 1
        assert len(_stmt_nodes(cfg)) == 2
        # entry -> a -> b -> exit, one linear chain
        assert any(e.src == cfg.entry for e in cfg.edges)
        assert any(e.dst == cfg.exit for e in cfg.edges)

    def test_if_else_branch_labels(self):
        cfg = build_cfg(_func(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    else:\n"
            "        a = 2\n"
            "    return a\n"))
        branch_edges = [e for e in cfg.edges if e.branch is not None]
        assert {e.branch for e in branch_edges} == {True, False}
        # both carry the test expression
        assert all(isinstance(e.cond, ast.Name) for e in branch_edges)

    def test_if_without_else_has_fallthrough_false_edge(self):
        cfg = build_cfg(_func(
            "def f(x):\n"
            "    if x:\n"
            "        a = 1\n"
            "    return 0\n"))
        if_node = next(n for n in _stmt_nodes(cfg)
                       if isinstance(n.stmt, ast.If))
        out = {e.branch for e in cfg.successors(if_node.index)}
        assert out == {True, False}

    def test_while_has_back_edge_and_exit_edge(self):
        cfg = build_cfg(_func(
            "def f(n):\n"
            "    while n:\n"
            "        n -= 1\n"
            "    return n\n"))
        head = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.While))
        body = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.AugAssign))
        assert any(e.dst == head.index for e in cfg.successors(body.index))
        assert any(e.branch is False for e in cfg.successors(head.index))

    def test_while_true_has_no_false_edge(self):
        cfg = build_cfg(_func(
            "def f():\n"
            "    while True:\n"
            "        break\n"))
        head = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.While))
        assert not any(e.branch is False for e in cfg.successors(head.index))

    def test_break_exits_loop_continue_returns_to_header(self):
        cfg = build_cfg(_func(
            "def f(items):\n"
            "    for item in items:\n"
            "        if item:\n"
            "            break\n"
            "        continue\n"
            "    return 1\n"))
        head = next(n for n in _stmt_nodes(cfg) if isinstance(n.stmt, ast.For))
        cont = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.Continue))
        brk = next(n for n in _stmt_nodes(cfg)
                   if isinstance(n.stmt, ast.Break))
        ret = next(n for n in _stmt_nodes(cfg)
                   if isinstance(n.stmt, ast.Return))
        assert any(e.dst == head.index for e in cfg.successors(cont.index))
        assert any(e.dst == ret.index for e in cfg.successors(brk.index))

    def test_for_edges_carry_the_for_statement_as_cond(self):
        cfg = build_cfg(_func(
            "def f(items):\n"
            "    for item in items:\n"
            "        pass\n"))
        head = next(n for n in _stmt_nodes(cfg) if isinstance(n.stmt, ast.For))
        conds = {type(e.cond) for e in cfg.successors(head.index)
                 if e.cond is not None}
        assert conds == {ast.For}

    def test_return_goes_straight_to_exit(self):
        cfg = build_cfg(_func(
            "def f(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"))
        returns = [n for n in _stmt_nodes(cfg)
                   if isinstance(n.stmt, ast.Return)]
        assert len(returns) == 2
        for node in returns:
            assert any(e.dst == cfg.exit for e in cfg.successors(node.index))

    def test_try_body_statements_get_exceptional_edges_to_handler(self):
        cfg = build_cfg(_func(
            "def f():\n"
            "    try:\n"
            "        a = 1\n"
            "        b = 2\n"
            "    except ValueError:\n"
            "        c = 3\n"))
        handler = next(n for n in _stmt_nodes(cfg)
                       if isinstance(n.stmt, ast.ExceptHandler))
        body_nodes = [n for n in _stmt_nodes(cfg)
                      if isinstance(n.stmt, ast.Assign)
                      and n.stmt.targets[0].id in ("a", "b")]
        assert len(body_nodes) == 2
        for node in body_nodes:
            edges = [e for e in cfg.successors(node.index)
                     if e.dst == handler.index]
            assert edges and all(e.exceptional for e in edges)

    def test_try_finally_without_handlers_routes_through_join_to_exit(self):
        cfg = build_cfg(_func(
            "def f():\n"
            "    try:\n"
            "        a = 1\n"
            "    finally:\n"
            "        b = 2\n"
            "    return b\n"))
        joins = [n for n in cfg.nodes if n.kind == JOIN]
        assert len(joins) == 1
        body = next(n for n in _stmt_nodes(cfg)
                    if isinstance(n.stmt, ast.Assign)
                    and n.stmt.targets[0].id == "a")
        assert any(e.dst == joins[0].index and e.exceptional
                   for e in cfg.successors(body.index))
        # the finally exit also reaches EXIT (unhandled propagation)
        fin = next(n for n in _stmt_nodes(cfg)
                   if isinstance(n.stmt, ast.Assign)
                   and n.stmt.targets[0].id == "b")
        assert any(e.dst == cfg.exit for e in cfg.successors(fin.index))


class TestHeaderParts:
    def test_compound_headers_expose_only_their_own_expressions(self):
        func = _func(
            "def f(items, cm):\n"
            "    for item in items:\n"
            "        consume(item)\n"
            "    with cm as h:\n"
            "        h.use()\n"
            "    if items:\n"
            "        pass\n")
        for_stmt, with_stmt, if_stmt = func.body
        assert header_parts(for_stmt) == [for_stmt.iter]
        assert header_parts(with_stmt) == [with_stmt.items[0].context_expr]
        assert header_parts(if_stmt) == [if_stmt.test]
        # a body call never appears in its compound header
        call = for_stmt.body[0]
        assert all(call not in header_parts(s) for s in func.body)

    def test_simple_statement_is_its_own_header(self):
        func = _func("def f():\n    a = 1\n")
        assert header_parts(func.body[0]) == [func.body[0]]


# ----------------------------------------------------------------------
# dataflow engine
# ----------------------------------------------------------------------
class _AssignedMay(ForwardAnalysis):
    """Toy may-analysis: which names have been assigned on some path."""

    def transfer(self, stmt, facts: Facts) -> Facts:
        if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
            out = dict(facts)
            out[stmt.targets[0].id] = frozenset({("set", stmt.lineno)})
            return out
        return facts


class TestForwardDataflow:
    def test_join_is_keywise_union(self):
        a: Facts = {"x": frozenset({(1,)})}
        b: Facts = {"x": frozenset({(2,)}), "y": frozenset({(3,)})}
        joined = join_facts(a, b)
        assert joined["x"] == frozenset({(1,), (2,)})
        assert joined["y"] == frozenset({(3,)})

    def test_branch_only_assignment_is_a_may_fact_at_exit(self):
        cfg = build_cfg(_func(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"
            "    y = 2\n"))
        facts = run_forward(cfg, _AssignedMay())
        at_exit = facts[cfg.exit]
        assert "x" in at_exit and "y" in at_exit

    def test_loop_reaches_fixpoint(self):
        cfg = build_cfg(_func(
            "def f(n):\n"
            "    while n:\n"
            "        x = 1\n"
            "        n = 0\n"
            "    return n\n"))
        facts = run_forward(cfg, _AssignedMay())
        assert "x" in facts[cfg.exit]
        assert "n" in facts[cfg.exit]

    def test_exceptional_edges_carry_pre_transfer_facts(self):
        # x is assigned inside the try; on the exceptional edge out of
        # that very statement the assignment has NOT happened yet, so the
        # handler must not see x from that edge alone.
        cfg = build_cfg(_func(
            "def f():\n"
            "    try:\n"
            "        x = compute()\n"
            "    except ValueError:\n"
            "        pass\n"))
        facts = run_forward(cfg, _AssignedMay())
        handler = next(n for n in cfg.nodes
                       if isinstance(n.stmt, ast.ExceptHandler))
        assert "x" not in facts[handler.index]

    def test_refine_called_on_labelled_edges(self):
        calls = []

        class Spy(_AssignedMay):
            def refine(self, cond, branch, facts):
                calls.append(branch)
                return facts

        cfg = build_cfg(_func(
            "def f(c):\n"
            "    if c:\n"
            "        x = 1\n"))
        run_forward(cfg, Spy())
        assert True in calls and False in calls
