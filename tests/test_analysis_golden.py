"""Golden equivalence: the analyzer's *raw* findings (in-line waivers
disabled) over ``src/`` and the fixture corpus must equal the records
in ``analysis_golden.json``, which were generated at the commit before
the analyzer moved onto one shared program model.

Fixtures are compared as full ``Finding`` records.  ``src/`` is compared
as ``(check, symbol, message, severity, fingerprint)`` with ``:<line>``
references inside messages normalized, so unrelated edits that shift
code do not churn the file.  After an *intentional* change to what a
check reports, regenerate with::

    PYTHONPATH=src python tests/test_analysis_golden.py --write
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

from repro.analysis.runner import ALL_CHECKS, GLOBAL_CHECKS, iter_python_files
from repro.analysis.source import load_source, module_name_for, parse_source

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"
GOLDEN = Path(__file__).resolve().parent / "analysis_golden.json"

_MODULE_RE = re.compile(r"^#\s*module:\s*(\S+)", re.MULTILINE)
_LINE_REF_RE = re.compile(r"(\.py):\d+")


def _raw(sources):
    """Every finding of every check over ``sources``, nothing waived."""
    found = []
    for source in sources:
        for check in ALL_CHECKS.values():
            found.extend(check(source))
    for check in GLOBAL_CHECKS.values():
        found.extend(check(sources))
    return found


def collect() -> dict:
    fixtures = {}
    for path in sorted(FIXTURES.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        source = parse_source(text, path=f"tests/analysis_fixtures/{path.name}",
                              module=_MODULE_RE.search(text).group(1))
        fixtures[path.name] = sorted(
            (f.to_record() for f in _raw([source])),
            key=lambda r: (r["line"], r["col"], r["check"], r["message"]))
    sources = []
    for path in iter_python_files(REPO_ROOT / "src"):
        rel = path.relative_to(REPO_ROOT).as_posix()
        sources.append(load_source(path, rel, module_name_for(rel)))
    src = sorted(
        [f.check, f.symbol, _LINE_REF_RE.sub(r"\1:N", f.message), f.severity,
         f.fingerprint()]
        for f in _raw(sources))
    return {"fixtures": fixtures, "src": src}


def test_raw_findings_match_the_parent_generated_records():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = collect()
    assert got["src"] == golden["src"]
    assert sorted(got["fixtures"]) == sorted(golden["fixtures"])
    for name, records in golden["fixtures"].items():
        assert got["fixtures"][name] == records, name


if __name__ == "__main__" and "--write" in sys.argv:
    GOLDEN.write_text(json.dumps(collect(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
