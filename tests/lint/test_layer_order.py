"""RL002: the import layer DAG, its exceptions, and stdlib-only packages."""

from __future__ import annotations

from .conftest import run_lint, rule_ids

_SELECT = {"select": frozenset({"RL002"})}


class TestDag:
    def test_upward_import_allowed(self):
        src = '"""Doc."""\nfrom repro.topology.base import Network\n'
        assert run_lint({"src/repro/cuts/m.py": src}, **_SELECT) == []

    def test_downward_import_flagged(self):
        src = '"""Doc."""\nimport repro.cuts\n'
        findings = run_lint({"src/repro/topology/m.py": src}, **_SELECT)
        assert rule_ids(findings) == {"RL002"}
        assert "layer violation" in findings[0].message

    def test_relative_import_resolved(self):
        src = '"""Doc."""\nfrom ..cuts import cut\n'
        findings = run_lint({"src/repro/topology/m.py": src}, **_SELECT)
        assert rule_ids(findings) == {"RL002"}

    def test_function_level_import_checked(self):
        src = '"""Doc."""\ndef f():\n    from repro.cli import main\n'
        findings = run_lint({"src/repro/topology/m.py": src}, **_SELECT)
        assert rule_ids(findings) == {"RL002"}

    def test_undeclared_package_flagged(self):
        src = '"""Doc."""\nimport repro.topology\n'
        findings = run_lint({"src/repro/newpkg/m.py": src}, **_SELECT)
        assert any("not declared in the layer DAG" in f.message for f in findings)


class TestExceptions:
    def test_module_granular_exception_allowed(self):
        src = '"""Doc."""\nfrom repro.routing.paths import dimension_paths\n'
        assert run_lint({"src/repro/embeddings/m.py": src}, **_SELECT) == []

    def test_exception_does_not_widen_to_package(self):
        src = '"""Doc."""\nfrom repro.routing.flows import extract_paths\n'
        findings = run_lint({"src/repro/embeddings/m.py": src}, **_SELECT)
        assert rule_ids(findings) == {"RL002"}


class TestStdlibOnly:
    def test_lint_package_may_use_stdlib(self):
        src = '"""Doc."""\nimport ast\nimport tokenize\n'
        assert run_lint({"src/repro/lint/m.py": src}, **_SELECT) == []

    def test_lint_package_may_not_use_third_party(self):
        src = '"""Doc."""\nimport numpy as np\n'
        findings = run_lint({"src/repro/lint/m.py": src}, **_SELECT)
        assert any("stdlib-only" in f.message for f in findings)


class TestVerifyIndependence:
    """No solver package may import the independent checker, at any depth."""

    @staticmethod
    def _one_error(path, src):
        findings = run_lint({path: src}, **_SELECT)
        assert [(f.rule_id, f.severity.value) for f in findings] == [
            ("RL002", "error")
        ]

    def test_module_level_import_in_a_solver_is_flagged(self):
        self._one_error(
            "src/repro/cuts/m.py", "from repro.verify import check_certificate\n"
        )

    def test_plain_import_is_flagged(self):
        self._one_error("src/repro/perf/m.py", "import repro.verify.checker\n")

    def test_function_level_import_is_flagged(self):
        src = (
            "def solve():\n"
            "    from repro.verify.checker import recount_capacity\n"
            "    return recount_capacity\n"
        )
        self._one_error("src/repro/cuts/m.py", src)

    def test_relative_import_is_flagged(self):
        self._one_error("src/repro/cuts/m.py", "from ..verify import checker\n")

    def test_from_repro_import_verify_is_flagged(self):
        self._one_error("src/repro/perf/m.py", "from repro import verify\n")

    def test_non_solver_packages_may_import_verify(self):
        findings = run_lint(
            {
                "src/repro/core/m.py": "from repro.verify import checker\n",
                "src/repro/serve/m.py": "import repro.verify\n",
            },
            **_SELECT,
        )
        assert findings == []

    def test_other_imports_in_solvers_are_fine(self):
        findings = run_lint(
            {"src/repro/cuts/m.py": "from repro.topology import butterfly\n"},
            **_SELECT,
        )
        assert findings == []
