"""Tier-1 gate and unit tests for the ``repro.analysis`` static analyzer.

Three layers:

* the fixture corpus under ``tests/analysis_fixtures/`` — every line
  marked ``# EXPECT: <check-id>`` must be reported, and nothing else;
* regression tests that re-introduce the historical bugs the analyzer
  exists to catch (the unlocked ``Manager._pending`` access, a raw
  ``time.time()`` in ``repro.core``) and assert they are flagged;
* the gate itself: ``src/`` must analyze clean against the committed
  baseline, and the baseline must carry no stale entries.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import Baseline, analyze_source, run_analysis
from repro.analysis.runner import ALL_CHECKS, GLOBAL_CHECKS
from repro.analysis.source import parse_source
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

_MODULE_RE = re.compile(r"^#\s*module:\s*(\S+)", re.MULTILINE)
_EXPECT_RE = re.compile(r"#\s*EXPECT:\s*([a-z-]+)")


def _load_fixture(name: str):
    text = (FIXTURES / name).read_text(encoding="utf-8")
    match = _MODULE_RE.search(text)
    assert match, f"fixture {name} must declare '# module: ...'"
    return parse_source(text, path=f"tests/analysis_fixtures/{name}",
                        module=match.group(1))


def _expected_markers(source) -> set[tuple[str, int]]:
    expected = set()
    for lineno, line in enumerate(source.lines, start=1):
        for check in _EXPECT_RE.findall(line):
            expected.add((check, lineno))
    return expected


# ----------------------------------------------------------------------
# fixture corpus: bad fixtures report exactly their EXPECT markers,
# good fixtures report nothing
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.py")))
def test_fixture_corpus(name):
    source = _load_fixture(name)
    expected = _expected_markers(source)
    got = {(f.check, f.line) for f in analyze_source(source)}
    assert got == expected, (
        f"{name}: analyzer disagrees with EXPECT markers\n"
        f"  missing: {sorted(expected - got)}\n"
        f"  extra:   {sorted(got - expected)}"
    )


def test_corpus_covers_every_check_both_ways():
    """Each check id has at least one bad and one good fixture case."""
    bad_checks: set[str] = set()
    good_files_by_check = {
        "guarded-by": "guarded_good.py",
        "determinism": "determinism_good.py",
        "wire-compat": "wire_good.py",
        "blocking-under-lock": "blocking_good.py",
        "clock-domain": "clock_good.py",
        "lease-ack": "lease_good.py",
        "subscription-lifecycle": "subscription_good.py",
        "future-resolution": "future_good.py",
        "lock-order": "lockorder_good.py",
        "handler-exhaustiveness": "handlers_good.py",
        "threadroles": "threadrole_good.py",
    }
    assert set(good_files_by_check) == set(ALL_CHECKS) | set(GLOBAL_CHECKS), (
        "every registered check needs fixture coverage; update this map")
    for path in FIXTURES.glob("*_bad.py"):
        source = _load_fixture(path.name)
        bad_checks.update(check for check, _ in _expected_markers(source))
    assert bad_checks == set(good_files_by_check), bad_checks
    for check, good_name in good_files_by_check.items():
        source = _load_fixture(good_name)
        assert analyze_source(source) == [], f"{good_name} must be clean"


# ----------------------------------------------------------------------
# regression: the analyzer catches the historical fabric bugs
# ----------------------------------------------------------------------
def test_reintroduced_unlocked_pending_access_is_flagged():
    """Stripping the lock around Manager.tracked_task_ids (the PR 2 bug
    shape) must produce a guarded-by finding."""
    path = REPO_ROOT / "src/repro/endpoint/manager.py"
    text = path.read_text(encoding="utf-8")
    locked = ("        with self._lock:\n"
              "            return [m.task_id for m, _arrived in self._pending]\n")
    assert locked in text, "manager.py changed; update this regression test"
    broken = text.replace(
        locked, "        return [m.task_id for m, _arrived in self._pending]\n")
    source = parse_source(broken, path="src/repro/endpoint/manager.py",
                          module="repro.endpoint.manager")
    findings = [f for f in analyze_source(source)
                if f.check == "guarded-by" and "_pending" in f.message]
    assert findings, "unlocked Manager._pending access was not flagged"

    clean = parse_source(text, path="src/repro/endpoint/manager.py",
                         module="repro.endpoint.manager")
    assert [f for f in analyze_source(clean) if f.check == "guarded-by"] == []


def test_reintroduced_leaked_lease_in_forwarder_is_flagged():
    """Restoring the pre-PR-4 ``_dispatch_tasks`` shape — a pop-and-send
    loop whose exception handler nacked only the leases still in
    ``pending`` and let the popped in-flight lease leak on an unexpected
    error — must produce a lease-ack finding anchored at the
    ``lease_many`` acquisition."""
    path = REPO_ROOT / "src/repro/core/forwarder.py"
    text = path.read_text(encoding="utf-8")
    fixed = "        dispatched = self._dispatch_batch(queue, pending)\n"
    assert text.count(fixed) == 1, (
        "forwarder.py changed; update this regression test")
    old_handler = """        dispatched = 0
        try:
            while pending:
                lease = pending.popleft()
                dispatched += self._dispatch_one(queue, lease)
        except Exception:
            for lease in pending:
                queue.nack(lease.lease_id)
            raise
"""
    broken = text.replace(fixed, old_handler)
    source = parse_source(broken, path="src/repro/core/forwarder.py",
                          module="repro.core.forwarder")
    findings = [f for f in analyze_source(source) if f.check == "lease-ack"]
    assert findings, "leaked in-flight lease was not flagged"
    lease_line = next(i for i, line in enumerate(broken.splitlines(), start=1)
                      if "queue.lease_many(" in line)
    assert any(f.line == lease_line for f in findings), (
        f"finding not anchored at the lease_many acquisition "
        f"(line {lease_line}): {[f.line for f in findings]}")

    clean = parse_source(text, path="src/repro/core/forwarder.py",
                         module="repro.core.forwarder")
    assert [f for f in analyze_source(clean) if f.check == "lease-ack"] == []


def test_reintroduced_lock_order_cycle_is_flagged():
    """Appending a pair of classes that acquire each other's locks in
    opposite orders to a src file must produce a lock-order cycle
    finding against the full source tree."""
    from repro.analysis.lockorder import check_lock_order
    from repro.analysis.runner import iter_python_files
    from repro.analysis.source import load_source, module_name_for

    inversion = '''

class _ReproGrip:
    def __init__(self, peer: _ReproPeer):
        self._grip_lock = threading.RLock()
        self.peer = peer

    def poke(self):
        with self._grip_lock:
            with self.peer._peer_lock:
                pass


class _ReproPeer:
    def __init__(self):
        self._peer_lock = threading.RLock()
        self.grip = None

    def adopt(self, grip: _ReproGrip):
        self.grip = grip

    def poke(self):
        with self._peer_lock:
            with self.grip._grip_lock:
                pass
'''
    sources = []
    for file_path in iter_python_files(REPO_ROOT / "src"):
        rel = str(file_path.relative_to(REPO_ROOT))
        if rel.endswith("core/forwarder.py"):
            text = file_path.read_text(encoding="utf-8") + inversion
            sources.append(parse_source(text, path=rel,
                                        module="repro.core.forwarder"))
        else:
            sources.append(load_source(file_path, rel,
                                       module_name_for(file_path)))
    findings = [f for f in check_lock_order(sources)]
    assert len(findings) == 1, [f.message for f in findings]
    assert "_ReproGrip._grip_lock" in findings[0].message
    assert "_ReproPeer._peer_lock" in findings[0].message


def test_reintroduced_raw_time_call_in_core_is_flagged():
    """Appending a raw ``time.time()`` call to a repro.core module must
    produce a determinism finding."""
    path = REPO_ROOT / "src/repro/core/client.py"
    text = path.read_text(encoding="utf-8")
    broken = text + "\n\ndef _wall_now():\n    return time.time()\n"
    source = parse_source(broken, path="src/repro/core/client.py",
                          module="repro.core.client")
    findings = [f for f in analyze_source(source) if f.check == "determinism"]
    assert len(findings) == 1
    assert findings[0].symbol == "_wall_now"


# ----------------------------------------------------------------------
# baseline semantics
# ----------------------------------------------------------------------
def _bad_findings(extra: str = ""):
    text = (FIXTURES / "determinism_bad.py").read_text(encoding="utf-8") + extra
    source = parse_source(text, path="tests/analysis_fixtures/determinism_bad.py",
                          module="repro.core.fixture")
    return [f for f in analyze_source(source) if f.check == "determinism"]


def test_baseline_suppresses_known_findings():
    findings = _bad_findings()
    assert findings
    baseline = Baseline.from_findings(findings)
    new, suppressed, stale = baseline.apply(findings)
    assert new == [] and stale == []
    assert len(suppressed) == len(findings)


def test_baseline_surfaces_new_findings():
    baseline = Baseline.from_findings(_bad_findings())
    grown = _bad_findings("\n\ndef extra():\n    return _time.time()\n")
    new, suppressed, _stale = baseline.apply(grown)
    assert [f.symbol for f in new] == ["extra"]
    assert len(suppressed) == len(grown) - 1


def test_baseline_reports_stale_entries():
    baseline = Baseline.from_findings(
        _bad_findings("\n\ndef extra():\n    return _time.time()\n"))
    new, _suppressed, stale = baseline.apply(_bad_findings())
    assert new == []
    assert len(stale) == 1 and stale[0].symbol == "extra"


def test_baseline_fingerprints_survive_line_drift():
    findings = _bad_findings()
    baseline = Baseline.from_findings(findings)
    text = (FIXTURES / "determinism_bad.py").read_text(encoding="utf-8")
    shifted = text.replace("import random", "import random\n\n# drift\n", 1)
    source = parse_source(shifted, path="tests/analysis_fixtures/determinism_bad.py",
                          module="repro.core.fixture")
    drifted = [f for f in analyze_source(source) if f.check == "determinism"]
    assert [f.line for f in drifted] != [f.line for f in findings]
    new, suppressed, stale = baseline.apply(drifted)
    assert new == [] and stale == [] and len(suppressed) == len(findings)


def test_baseline_counts_bound_duplicate_fingerprints():
    dup = ("# module: repro.core.fixture\n"
           "import time as _time\n\n\n"
           "def f():\n"
           "    _time.sleep(0.1)\n"
           "    _time.sleep(0.1)\n")
    source = parse_source(dup, path="dup.py", module="repro.core.fixture")
    findings = analyze_source(source)
    assert len(findings) == 2
    baseline = Baseline.from_findings(findings)
    entry = next(iter(baseline.entries.values()))
    assert entry.count == 2
    tripled = dup + "    _time.sleep(0.1)\n"
    source3 = parse_source(tripled, path="dup.py", module="repro.core.fixture")
    new, suppressed, _ = baseline.apply(analyze_source(source3))
    assert len(new) == 1 and len(suppressed) == 2


def test_baseline_round_trips_through_disk(tmp_path):
    baseline = Baseline.from_findings(_bad_findings())
    target = tmp_path / "baseline.json"
    baseline.save(target)
    loaded = Baseline.load(target)
    assert loaded.entries == baseline.entries
    assert Baseline.load(tmp_path / "missing.json").entries == {}


def test_baseline_rejects_unknown_version(tmp_path):
    target = tmp_path / "baseline.json"
    target.write_text(json.dumps({"version": 99, "entries": []}))
    with pytest.raises(ValueError):
        Baseline.load(target)


# ----------------------------------------------------------------------
# waivers
# ----------------------------------------------------------------------
def test_lint_ignore_waives_only_listed_checks():
    text = ("# module: repro.core.fixture\n"
            "import time as _time\n\n\n"
            "def f():\n"
            "    _time.sleep(0.1)  # lint: ignore[determinism]\n"
            "    _time.sleep(0.2)  # lint: ignore[guarded-by]\n"
            "    _time.sleep(0.3)  # lint: ignore\n")
    source = parse_source(text, path="waive.py", module="repro.core.fixture")
    findings = analyze_source(source)
    assert [f.line for f in findings] == [7]  # only the mismatched waiver


# ----------------------------------------------------------------------
# the tier-1 gate: src/ analyzes clean against the committed baseline
# ----------------------------------------------------------------------
def test_src_is_clean_against_committed_baseline():
    baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
    report = run_analysis([REPO_ROOT / "src"], repo_root=REPO_ROOT,
                          baseline=baseline)
    assert report.errors == []
    assert report.files_analyzed > 50
    details = "\n".join(f.format() for f in report.findings)
    assert report.findings == [], f"non-baselined analyzer findings:\n{details}"
    stale = "\n".join(f"{e.check} {e.path} {e.symbol}" for e in report.stale)
    assert report.stale == [], f"stale baseline entries (prune them):\n{stale}"


def test_wire_messages_module_is_covered():
    """The real wire module must actually be in the wire-compat scope
    (guards against a silent rename disabling the check)."""
    path = REPO_ROOT / "src/repro/transport/messages.py"
    text = path.read_text(encoding="utf-8")
    source = parse_source(text, path="src/repro/transport/messages.py",
                          module="repro.transport.messages")
    broken = text.replace("class TaskMessage(Message):",
                          "class TaskMessage(Message):\n    sneaky: object = None",
                          1)
    assert broken != text
    bad = parse_source(broken, path="src/repro/transport/messages.py",
                       module="repro.transport.messages")
    assert [f for f in analyze_source(bad) if f.check == "wire-compat"]
    assert [f for f in analyze_source(source) if f.check == "wire-compat"] == []


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def _make_mini_repo(tmp_path: Path) -> Path:
    pkg = tmp_path / "src" / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "src" / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "import time\n\n\ndef now():\n    return time.time()\n")
    return tmp_path


def test_cli_lint_reports_and_baselines(tmp_path, capsys):
    root = _make_mini_repo(tmp_path)
    assert cli_main(["lint", "--root", str(root)]) == 1
    out = capsys.readouterr().out
    assert "[determinism]" in out and "time.time" in out

    assert cli_main(["lint", "--root", str(root), "--update-baseline"]) == 0
    capsys.readouterr()
    assert cli_main(["lint", "--root", str(root)]) == 0
    assert "0 violation(s)" in capsys.readouterr().out
    assert cli_main(["lint", "--root", str(root), "--no-baseline"]) == 1


def test_cli_lint_json_format(tmp_path, capsys):
    root = _make_mini_repo(tmp_path)
    assert cli_main(["lint", "--root", str(root), "--format", "json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is False
    assert data["findings"][0]["check"] == "determinism"
    assert data["findings"][0]["fingerprint"]


def test_cli_lint_flags_stale_entries(tmp_path, capsys):
    root = _make_mini_repo(tmp_path)
    assert cli_main(["lint", "--root", str(root), "--update-baseline"]) == 0
    (root / "src" / "repro" / "core" / "mod.py").write_text(
        "def now(clock):\n    return clock()\n")
    capsys.readouterr()
    assert cli_main(["lint", "--root", str(root)]) == 0
    assert "stale" in capsys.readouterr().out


def test_cli_lint_explicit_paths(tmp_path, capsys):
    root = _make_mini_repo(tmp_path)
    clean = root / "src" / "repro" / "core" / "__init__.py"
    assert cli_main(["lint", "--root", str(root), str(clean)]) == 0


def test_cli_lint_paths_glob(tmp_path, capsys):
    root = _make_mini_repo(tmp_path)
    assert cli_main(["lint", "--root", str(root),
                     "--paths", "src/repro/core/mod.py"]) == 1
    assert "[determinism]" in capsys.readouterr().out
    assert cli_main(["lint", "--root", str(root),
                     "--paths", "src/**/__init__.py"]) == 0


def test_cli_lint_paths_glob_matching_nothing_is_usage_error(tmp_path, capsys):
    root = _make_mini_repo(tmp_path)
    assert cli_main(["lint", "--root", str(root),
                     "--paths", "no/such/*.py"]) == 2
    assert "matched nothing" in capsys.readouterr().err


def test_cli_lint_explain(capsys):
    assert cli_main(["lint", "--explain", "lease-ack"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[lease-ack]")
    assert "ack" in out and "nack" in out

    assert cli_main(["lint", "--explain", "no-such-check"]) == 2
    err = capsys.readouterr().err
    assert "unknown check" in err and "lock-order" in err


def test_cli_lint_explain_covers_every_check(capsys):
    for check in sorted(set(ALL_CHECKS) | set(GLOBAL_CHECKS)):
        assert cli_main(["lint", "--explain", check]) == 0
        assert capsys.readouterr().out.startswith(f"[{check}]")
