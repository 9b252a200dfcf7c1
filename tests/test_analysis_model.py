"""The one program model (repro.analysis.model): every engine resolves
the same receiver forms to the same callee and lock, and the model is
built at most once per SourceFile per run."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import model as model_mod
from repro.analysis import source as source_mod
from repro.analysis.lockorder import extract_lock_graph
from repro.analysis.model import build_program, file_model
from repro.analysis.runner import ALL_CHECKS, GLOBAL_CHECKS, run_analysis
from repro.analysis.source import parse_source
from repro.analysis.threadroles import build_role_report

REPO_ROOT = Path(__file__).resolve().parent.parent

# ``Outer`` reaches a ``CreditLedger`` through {receiver}; ``_run`` (a
# worker thread) pokes it under ``_outer_lock``.
TEMPLATE = '''
import threading
from typing import Optional


class CreditLedger:
    def __init__(self):
        self._lock = threading.Lock()
        self.level = 0

    def _poke(self):
        with self._lock:
            self.level += 1


class Outer:
    def __init__(self{params}):
        self._outer_lock = threading.Lock()
        {init}

    def pick(self) -> CreditLedger:
        return CreditLedger()

    def start(self):
        threading.Thread(target=self._run, name="worker-0").start()

    def _run(self):
        {prelude}
        with self._outer_lock:
            {call}
'''

#: name -> (extra __init__ params, __init__ body, method prelude, receiver)
RECEIVER_FORMS = {
    "constructor assignment":
        ("", "self.ledger = CreditLedger()", "pass", "self.ledger"),
    "annotated parameter assigned through":
        (", ledger: CreditLedger", "self.ledger = ledger", "pass",
         "self.ledger"),
    "string union attribute annotation":
        ("", 'self.ledger: "CreditLedger | None" = None', "pass",
         "self.ledger"),
    "Optional attribute annotation":
        ("", "self.ledger: Optional[CreditLedger] = None", "pass",
         "self.ledger"),
    "dict element":
        ("", "self.ledgers: dict[str, CreditLedger] = {}", "pass",
         'self.ledgers["a"]'),
    "return annotation":
        ("", "pass", "ledger = self.pick()", "ledger"),
    "local constructor":
        ("", "pass", "ledger = CreditLedger()", "ledger"),
}


def _source(params, init, prelude, receiver, call=None):
    text = TEMPLATE.format(params=params, init=init, prelude=prelude,
                           receiver=receiver,
                           call=call or f"{receiver}._poke()")
    return parse_source(text, path="forms.py", module="fixtures.forms")


def _assert_all_engines_agree(source):
    # lock-order: the call under _outer_lock reaches CreditLedger._poke,
    # whose lock resolves to CreditLedger._lock
    graph = extract_lock_graph([source])
    assert ("Outer._outer_lock", "CreditLedger._lock") in graph
    # thread-roles: the same callee gets the worker role, and its write
    # inherits the same held lock through the same call site
    report = build_role_report([source])
    assert "worker" in report.roles_of("CreditLedger", "_poke")
    writes = [a for a in report.accesses[("CreditLedger", "level")]
              if a.kind == "write"]
    assert writes and all(
        a.locks == {"CreditLedger._lock", "Outer._outer_lock"}
        for a in writes)


@pytest.mark.parametrize("form", sorted(RECEIVER_FORMS))
def test_every_engine_resolves_the_receiver_form(form):
    _assert_all_engines_agree(_source(*RECEIVER_FORMS[form]))


def test_every_engine_resolves_a_bare_name_closure():
    source = _source(
        "", "pass",
        "ledger = CreditLedger()\n"
        "        def visit():\n"
        "            ledger._poke()",
        "ledger", call="visit()")
    _assert_all_engines_agree(source)


def test_one_closure_and_generator_rule_for_every_consumer():
    """Under ``with self._lock`` a lambda body, a nested def body and a
    generator's element run later (nothing held); a default argument,
    a list comprehension and the generator's outermost iterable run in
    place."""
    source = parse_source('''
import threading


class Table:
    def __init__(self):
        self._lock = threading.Lock()
        self.rows = {}

    def scan(self, keys):
        with self._lock:
            later = lambda: self.a
            def closure(default=self.b):
                return self.c
            lazy = (self.d for _ in self.e)
            eager = [self.f for _ in keys]
        return later, closure, lazy, eager
''', path="rule.py", module="fixtures.rule")
    (scan,) = [m for m in file_model(source).classes[0].methods
               if m.name == "scan"]
    held = {access.node.attr: bool(access.held)
            for fn in scan.tree() for access in fn.accesses}
    assert held == {"_lock": False, "a": False, "b": True, "c": False,
                    "d": False, "e": True, "f": True}


class _CountingFileModel(model_mod.FileModel):
    built: list = []

    def __init__(self, source, known, returns):
        self.built.append(source.path)
        super().__init__(source, known, returns)


def test_model_is_built_at_most_once_per_source_per_run(monkeypatch):
    monkeypatch.setattr(source_mod, "_SOURCE_CACHE", {})
    monkeypatch.setattr(model_mod, "FileModel", _CountingFileModel)
    monkeypatch.setattr(_CountingFileModel, "built", [])
    built = _CountingFileModel.built
    report = run_analysis([REPO_ROOT / "src"], repo_root=REPO_ROOT)
    assert report.files_analyzed > 50
    # thread-roles, lock-order, guarded-by and blocking-under-lock all
    # ran; each file's model was built once
    assert sorted(built) == sorted(set(built))
    assert len(built) == report.files_analyzed
    # a warm run (parsed sources cached) reuses every model
    run_analysis([REPO_ROOT / "src"], repo_root=REPO_ROOT)
    assert len(built) == report.files_analyzed
    # and so does each model-reading check run on its own
    sources = [entry[1] for entry in source_mod._SOURCE_CACHE.values()]
    for check in ("lock-order", "threadroles"):
        list(GLOBAL_CHECKS[check](sources))
    for check in ("guarded-by", "blocking-under-lock"):
        for source in sources:
            list(ALL_CHECKS[check](source))
    assert len(built) == report.files_analyzed


def test_a_file_analyzed_in_a_different_set_is_retyped():
    """The cached model is stamped with the class table it was typed
    against: analyzed alone, ``self.peer`` is untyped; analyzed with
    the module declaring ``Peer``, the call-through edge appears."""
    user = parse_source('''
import threading


class User:
    def __init__(self, peer: Peer):
        self._lock = threading.Lock()
        self.peer = peer

    def run(self):
        with self._lock:
            self.peer.poke()
''', path="user.py", module="fixtures.user")
    peer = parse_source('''
import threading


class Peer:
    def __init__(self):
        self._peer_lock = threading.Lock()

    def poke(self):
        with self._peer_lock:
            pass
''', path="peer.py", module="fixtures.peer")
    assert extract_lock_graph([user]) == {}
    assert ("User._lock", "Peer._peer_lock") in extract_lock_graph(
        [user, peer])
    alone = build_program([user]).files[0]
    assert build_program([user]).files[0] is alone
