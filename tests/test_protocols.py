"""Unit tests for the parametric resource-protocol (typestate) engine.

Three layers:

* port parity — ``lease-ack`` is now an instance of the shared engine
  and must reproduce the PR 4 findings (same lines, same message
  shape) on the lease fixture corpus;
* the handler-exhaustiveness arming gate;
* registry coverage — every src module that touches a protocol
  resource must appear in the static site export the runtime
  :class:`~repro.analysis.sanitizer.ProtocolRecorder` gate consumes.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from repro.analysis.checks import check_lease_ack, in_determinism_scope
from repro.analysis.model import build_program, resolved
from repro.analysis.protocols import (
    LEASE_PROTOCOL,
    RECEIVER_PROTOCOLS,
    VALUE_PROTOCOLS,
    WIRE_MODULE,
    check_handler_exhaustiveness,
    protocol_sites,
    run_value_protocol,
)
from repro.analysis.runner import (
    ALL_CHECKS,
    GLOBAL_CHECKS,
    iter_python_files,
)
from repro.analysis.source import load_source, module_name_for, parse_source
from repro.analysis.threadroles import build_role_report

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def _parse(text: str, module: str = "fixtures.inline"):
    return parse_source(text, path=f"{module.replace('.', '/')}.py",
                        module=module)


def _src_sources():
    sources = []
    for path in iter_python_files(REPO_ROOT / "src"):
        rel = path.relative_to(REPO_ROOT).as_posix()
        sources.append(load_source(path, rel, module_name_for(rel)))
    return sources


# ----------------------------------------------------------------------
# port parity: lease-ack is the engine parameterized, not a rewrite
# ----------------------------------------------------------------------
class TestLeaseAckPortParity:
    def _fixture(self, name):
        text = (FIXTURES / name).read_text(encoding="utf-8")
        return parse_source(text, path=f"tests/analysis_fixtures/{name}",
                            module="fixtures.lease")

    def test_check_is_the_engine_instance(self):
        for name in ("lease_bad.py", "lease_good.py"):
            source = self._fixture(name)
            direct = list(run_value_protocol(source, LEASE_PROTOCOL))
            via_check = list(check_lease_ack(source))
            assert direct == via_check

    def test_pr4_findings_reproduced_exactly(self):
        source = self._fixture("lease_bad.py")
        findings = list(check_lease_ack(source))
        assert [f.line for f in findings] == [11, 20, 29, 34]
        first = findings[0]
        assert first.check == "lease-ack"
        assert first.message == (
            "lease(s) acquired here (held in lease) may reach the exit of "
            "drop_on_early_return() without ack/nack on some path")
        assert "ack/nack the lease" in first.hint

    def test_good_fixture_only_trips_the_waived_drop(self):
        # The raw check still sees the deliberate drop; the runner's
        # `# lint: ignore[lease-ack]` waiver removes it (the corpus test
        # asserts the post-waiver result is empty).
        source = self._fixture("lease_good.py")
        raw = list(check_lease_ack(source))
        assert [f for f in raw
                if not source.is_ignored(f.line, f.check)] == []


# ----------------------------------------------------------------------
# registry wiring
# ----------------------------------------------------------------------
def test_registry_protocols_are_wired_into_the_runner():
    assert set(VALUE_PROTOCOLS) <= set(ALL_CHECKS)
    assert set(RECEIVER_PROTOCOLS) <= set(GLOBAL_CHECKS)


def test_every_value_protocol_has_a_subject_in_src():
    """The analyzer is sized to the fabric: each registered protocol
    acquires its resource somewhere in ``src/repro``, as its spec's
    ``acquire_*`` fields spell the acquisition."""
    acquired: set[str] = set()
    for source in _src_sources():
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            for spec in VALUE_PROTOCOLS.values():
                if isinstance(func, ast.Attribute):
                    receiver = func.value
                    last = (receiver.attr if isinstance(receiver, ast.Attribute)
                            else getattr(receiver, "id", None))
                    if func.attr in spec.acquire_methods and (
                            not spec.acquire_receivers
                            or last in spec.acquire_receivers):
                        acquired.add(spec.check_id)
                elif (isinstance(func, ast.Name)
                        and func.id in spec.acquire_constructors):
                    acquired.add(spec.check_id)
    assert acquired == set(VALUE_PROTOCOLS)


def test_cross_file_checks_have_a_subject_in_src():
    """The cross-file checks are sized to the fabric too: ``threadroles``
    finds attributes touched from two roles in ``src/repro``.
    ``handler-exhaustiveness``'s subject test is
    :func:`test_real_wire_module_is_fully_consumed_by_src`."""
    assert len(build_role_report(_src_sources()).shared_attrs()) >= 1


def _message_dataclasses(sources):
    return [node for source in sources if source.module == WIRE_MODULE
            for node in ast.walk(source.tree)
            if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(d) for d in node.decorator_list)]


def _calls_under_lock(sources, resolved_only=False):
    return [call for fn in build_program(sources).all_functions
            for call in fn.calls
            if call.held and (not resolved_only or (
                call.callee is not None and resolved(call.held)))]


def _lock_order_subject(sources):
    """Both halves of the rule: a lock taken, and a resolved call made
    while one is held (a call-through nesting would be found there)."""
    acquired = [a for fn in build_program(sources).all_functions
                for a in fn.acquires]
    return min(len(acquired), len(_calls_under_lock(sources, True)))


#: What each lexical check (and ``lock-order``) reads in ``src/repro``;
#: none of them may pass only because it has nothing to look at.
LEXICAL_SUBJECTS = {
    "guarded-by": lambda sources: sum(
        len(source.guard_comments) for source in sources),
    "determinism": lambda sources: sum(
        in_determinism_scope(source.module) for source in sources),
    "wire-compat": lambda sources: len(_message_dataclasses(sources)),
    "blocking-under-lock": lambda sources: len(_calls_under_lock(sources)),
    "clock-domain": lambda sources: sum(
        len(source.clock_domains) for source in sources),
    "lock-order": _lock_order_subject,
}


@pytest.mark.parametrize("check", sorted(LEXICAL_SUBJECTS))
def test_lexical_checks_have_a_subject_in_src(check):
    assert check in set(ALL_CHECKS) | set(GLOBAL_CHECKS)
    assert LEXICAL_SUBJECTS[check](_src_sources()) >= 1


# ----------------------------------------------------------------------
# handler-exhaustiveness arming gate
# ----------------------------------------------------------------------
def test_wire_module_without_a_dispatch_layer_stays_quiet():
    """Scanning the message definitions alone (no isinstance consumer
    anywhere in the set) must not fire — the check arms only when the
    analyzed set contains a dispatch layer."""
    text = (FIXTURES / "wire_good.py").read_text(encoding="utf-8")
    source = parse_source(text, path="tests/analysis_fixtures/wire_good.py",
                          module="repro.transport.messages")
    assert list(check_handler_exhaustiveness([source])) == []


def test_real_wire_module_is_fully_consumed_by_src():
    """Tier-1: every concrete wire message type is dispatch-consumed
    somewhere in src/ — except ``ResultMessage``, which only ever
    travels inside a ``ResultBatchMessage`` and says so with a waiver on
    its class line (the whole-tree run must stay clean)."""
    sources = _src_sources()
    unconsumed = list(check_handler_exhaustiveness(sources))
    assert [f.message.split()[3] for f in unconsumed] == ["ResultMessage"]
    wire = next(s for s in sources if s.path == unconsumed[0].path)
    assert wire.is_ignored(unconsumed[0].line, "handler-exhaustiveness")


# ----------------------------------------------------------------------
# registry coverage of the real fabric call sites
# ----------------------------------------------------------------------
def test_protocol_sites_cover_the_fabric_modules():
    sites = protocol_sites(_src_sources())

    def modules(protocol, verb):
        return {site.rsplit(":", 1)[0]
                for site in sites[protocol].get(verb, [])}

    assert "repro.monitoring" in modules("subscription", "subscribe")
    assert "repro.monitoring" in modules("subscription", "unsubscribe")
    assert "repro.core.executor" in modules("stream", "subscribe")
    assert "repro.core.executor" in modules("stream", "close")
    assert "repro.core.stream" in modules("stream", "detach")


def test_every_protocol_call_site_module_is_in_the_export():
    """Independent textual scan: any src module spelling a protocol
    operation must appear in the site export (guards against the AST
    scan silently losing a module to a rename)."""
    sources = _src_sources()
    sites = protocol_sites(sources)
    covered = {site.rsplit(":", 1)[0]
               for verbs in sites.values()
               for site_list in verbs.values()
               for site in site_list}
    patterns = [
        re.compile(r"\bevents\.(subscribe|unsubscribe)\("),
        re.compile(r"\bresult_stream\.subscribe\("),
    ]
    for source in sources:
        text = "\n".join(source.lines)
        if any(p.search(text) for p in patterns):
            assert source.module in covered, source.module
