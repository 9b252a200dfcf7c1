"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_scale_defaults(self):
        args = build_parser().parse_args(["scale"])
        assert args.platform == "theta"
        assert args.containers == 256

    def test_scale_platform_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["scale", "--platform", "summit"])

    def test_bench_is_not_a_subcommand(self, capsys):
        # Performance is measured from outside the package
        # (``python3 bench/run.py``); the CLI carries no second harness.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCommands:
    def test_platforms(self, capsys):
        assert main(["platforms"]) == 0
        out = capsys.readouterr().out
        assert "theta" in out and "cori" in out
        assert "1694" in out

    def test_casestudies(self, capsys):
        assert main(["casestudies", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "xpcs" in out and "metadata" in out

    def test_scale(self, capsys):
        assert main(["scale", "--containers", "64", "--tasks", "640"]) == 0
        out = capsys.readouterr().out
        assert "completion" in out and "throughput" in out

    def test_elasticity(self, capsys):
        assert main(["elasticity", "--bursts", "1"]) == 0
        out = capsys.readouterr().out
        assert "peak-pods" in out
        assert "functions completed: 26" in out

    def test_demo(self, capsys):
        assert main(["demo", "--tasks", "8"]) == 0
        out = capsys.readouterr().out
        assert "double(21) -> 42" in out


class TestLintFlags:
    """The git-scoped and protocol-scoped lint entry points."""

    @staticmethod
    def _seed_repo(tmp_path):
        pkg = tmp_path / "src" / "repro" / "core"
        pkg.mkdir(parents=True)
        (tmp_path / "src" / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "clean.py").write_text("def add(x, y):\n    return x + y\n")
        return pkg

    @staticmethod
    def _git(root, *argv):
        import subprocess

        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
            cwd=root, check=True, capture_output=True)

    def test_protocols_selects_checks(self, tmp_path, capsys):
        pkg = self._seed_repo(tmp_path)
        # One determinism violation and one subscription leak: scoping to
        # the protocol checks must hide the former and keep the latter.
        (pkg / "mod.py").write_text(
            "import time\n\n\n"
            "def leak(pubsub, cb):\n"
            "    token = pubsub.subscribe('t', cb)\n"
            "    if time.time() > 0:\n"
            "        raise RuntimeError('leak')\n"
            "    pubsub.unsubscribe(token)\n")
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--protocols", "subscription-lifecycle"]) == 1
        out = capsys.readouterr().out
        assert "[subscription-lifecycle]" in out
        assert "[determinism]" not in out
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--protocols", "handler-exhaustiveness"]
                    ) == 0
        assert "0 violation(s)" in capsys.readouterr().out

    def test_protocols_unknown_name_is_usage_error(self, tmp_path, capsys):
        self._seed_repo(tmp_path)
        assert main(["lint", "--root", str(tmp_path),
                     "--protocols", "no-such-protocol"]) == 2
        err = capsys.readouterr().err
        assert "unknown check(s): no-such-protocol" in err
        assert "subscription-lifecycle" in err

    def test_changed_scopes_to_git_diff(self, tmp_path, capsys):
        pkg = self._seed_repo(tmp_path)
        (pkg / "mod.py").write_text("def ok():\n    return 1\n")
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-q", "-m", "seed")

        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--changed"]) == 0
        assert "nothing to lint" in capsys.readouterr().out

        # A tracked edit and an untracked file are both in scope; the
        # committed-but-unchanged violation is not.
        (pkg / "mod.py").write_text(
            "import time\n\n\ndef now():\n    return time.time()\n")
        (pkg / "fresh.py").write_text(
            "import random\n\n\ndef roll():\n    return random.random()\n")
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--changed"]) == 1
        out = capsys.readouterr().out
        assert "2 files analyzed" in out
        assert "time.time" in out and "random.random" in out

    def test_changed_outside_git_is_usage_error(self, tmp_path, capsys):
        self._seed_repo(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--changed"]) == 2
        assert "requires a git checkout" in capsys.readouterr().err


class TestLintThreadRoles:
    """The threadroles CLI surface: --roles filter, --explain, --format
    sarif, and the uniform 0/1/2 exit codes."""

    _RACY = (
        "import threading\n\n\n"
        "class Pipeline:\n"
        "    def __init__(self):\n"
        "        self._thread = None\n"
        "        self.processed = 0\n\n"
        "    def start(self):\n"
        "        self._thread = threading.Thread(target=self._run,\n"
        "                                        name='worker-0')\n"
        "        self._thread.start()\n\n"
        "    def _run(self):\n"
        "        self.processed += 1\n\n"
        "    def nudge(self):\n"
        "        self.processed += 1\n")

    def _seed(self, tmp_path):
        pkg = TestLintFlags._seed_repo(tmp_path)
        (pkg / "racy.py").write_text(self._RACY)
        return pkg

    def test_race_reported_and_roles_filter(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "[threadroles]" in out
        assert "worker" in out
        # scoped to an uninvolved role the finding disappears
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--roles", "elasticity"]) == 0
        assert "0 violation(s)" in capsys.readouterr().out
        # scoped to an involved role it stays
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--roles", "worker,main"]) == 1

    def test_unknown_role_is_usage_error(self, tmp_path, capsys):
        self._seed(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--roles", "no-such-role"]) == 2
        err = capsys.readouterr().err
        assert "unknown role(s): no-such-role" in err
        assert "forwarder-loop" in err

    def test_explain_threadroles(self, capsys):
        assert main(["lint", "--explain", "threadroles"]) == 0
        out = capsys.readouterr().out
        assert "[threadroles]" in out
        assert "thread roles" in out

    def test_sarif_output_is_valid_and_fingerprinted(self, tmp_path, capsys):
        import json

        self._seed(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
        run = doc["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert "threadroles" in rule_ids
        assert rule_ids == sorted(rule_ids)
        results = run["results"]
        assert results, "expected at least the threadroles result"
        hit = next(r for r in results if r["ruleId"] == "threadroles")
        assert hit["level"] == "error"
        assert hit["partialFingerprints"]["reproFingerprint/v1"]
        location = hit["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("racy.py")
        assert location["region"]["startLine"] > 0
        # rule index round-trips
        assert run["tool"]["driver"]["rules"][hit["ruleIndex"]]["id"] == (
            "threadroles")

    def test_sarif_clean_tree_exits_zero(self, tmp_path, capsys):
        import json

        TestLintFlags._seed_repo(tmp_path)
        assert main(["lint", "--root", str(tmp_path), "--no-baseline",
                     "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"] == []
