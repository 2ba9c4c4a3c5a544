"""Reporters, the JSON schema consumed by CI, and CLI exit codes."""

from __future__ import annotations

import json

from repro.lint import Finding, Severity, all_rules, render_json, render_text
from repro.lint.cli import main as lint_main

from .conftest import run_lint, rule_ids

#: One fixture tree tripping every rule at once (the acceptance scenario).
#: ``bad.py`` trips the per-module rules; ``race.py`` + ``fallback.py``
#: trip the whole-program rules across a module boundary (RL010 needs a
#: hot loop reachable from the cascade entry, RL011 a source→sink flow).
ALL_RULES_FIXTURE = {
    "src/repro/cuts/bad.py": (
        '"""Implements Lemma 9.9."""\n'
        "import repro.cli\n"
        "\n"
        "def f(net, side, k):\n"
        '    """Doc."""\n'
        "    total = 0.0\n"
        "    for u, v in net.edges:\n"
        "        total += side[u] != side[v]\n"
        "    for mask in range(1 << k):\n"
        "        total += mask\n"
        "    net._edges = None\n"
        "    return total == 0.5\n"
    ),
    "src/repro/cuts/race.py": (
        '"""Implements Lemma 9.9."""\n'
        "import time\n"
        "\n"
        "def sweep(cache, items):\n"
        '    cache.put_certificate("k", time.time())\n'
        "    return items\n"
        "\n"
        "def churn(net):\n"
        "    while net:\n"
        "        net = sweep(None, [net])\n"
        "    return net\n"
    ),
    "src/repro/core/fallback.py": (
        '"""Implements Theorem 1."""\n'
        "from ..cuts.race import churn\n"
        "\n"
        "def solve_with_fallback(net):\n"
        '    """Doc."""\n'
        "    return churn(net)\n"
    ),
}


def test_all_static_rules_fire_on_fixture():
    findings = run_lint(ALL_RULES_FIXTURE)
    assert rule_ids(findings) >= {
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL008",
        "RL010", "RL011",
    }


def test_syntax_error_becomes_rl000():
    findings = run_lint({"src/repro/cuts/broken.py": "def f(:\n"})
    assert rule_ids(findings) == {"RL000"}


class TestJson:
    def test_schema(self):
        findings = run_lint(ALL_RULES_FIXTURE)
        doc = json.loads(render_json(findings))
        assert doc["version"] == 1
        assert doc["summary"]["total"] == len(findings)
        assert sum(doc["summary"]["by_rule"].values()) == len(findings)
        for item in doc["findings"]:
            assert set(item) == {"rule", "path", "line", "col", "message", "severity"}
            assert isinstance(item["line"], int) and item["line"] >= 1
            assert item["severity"] in {"error", "warning", "info"}

    def test_empty_run(self):
        doc = json.loads(render_json([]))
        assert doc["findings"] == [] and doc["summary"]["total"] == 0


class TestText:
    def test_one_line_per_finding_plus_summary(self):
        f = Finding("a.py", 3, 0, "RL004", "msg", Severity.ERROR)
        out = render_text([f])
        assert "a.py:3:0: RL004 error: msg" in out
        assert "1 finding(s)" in out

    def test_clean_run(self):
        assert "no findings" in render_text([])


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "topology"
        pkg.mkdir(parents=True)
        (pkg / "ok.py").write_text('"""Doc."""\nX = 1\n')
        assert lint_main([str(tmp_path / "src")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "cuts"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(ALL_RULES_FIXTURE["src/repro/cuts/bad.py"])
        assert lint_main([str(tmp_path / "src")]) == 1

    def test_json_output_parses(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "cuts"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(ALL_RULES_FIXTURE["src/repro/cuts/bad.py"])
        lint_main(["--format", "json", str(tmp_path / "src")])
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] > 0

    def test_select_restricts_rules(self, tmp_path, capsys):
        pkg = tmp_path / "src" / "repro" / "cuts"
        pkg.mkdir(parents=True)
        (pkg / "bad.py").write_text(ALL_RULES_FIXTURE["src/repro/cuts/bad.py"])
        lint_main(["--format", "json", "--select", "RL005", str(tmp_path / "src")])
        doc = json.loads(capsys.readouterr().out)
        assert set(doc["summary"]["by_rule"]) == {"RL005"}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rid in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006",
                    "RL007", "RL008", "RL010", "RL011"):
            assert rid in out


def test_registry_has_the_shipped_rules():
    assert set(all_rules()) == {
        "RL001", "RL002", "RL003", "RL004", "RL005", "RL006", "RL007",
        "RL008", "RL010", "RL011",
    }
