"""Command-line front end: ``repro-lint`` / ``python -m repro.lint``.

Exit status is 0 when no ERROR-severity finding survives suppression, 1
otherwise, 2 for usage errors — so CI can gate on it directly.

``repro-lint graph [paths]`` is a subcommand: instead of findings it
emits the whole-program call graph + taint summary as JSON
(``repro-lint-graph/1``, schema-checked before printing), for the lint
wall-time benchmark and for poking at reachability by hand.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .config import LintConfig
from .findings import Severity
from .registry import all_rules
from .reporters import render_json, render_text
from .runner import collect_files, lint_paths

__all__ = ["main"]


def _cache_dir_default() -> str | None:
    return os.environ.get("REPRO_LINT_CACHE_DIR") or None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis for the butterfly-reproduction invariants: "
            "claim citations, layer order, hot-path vectorization, float "
            "comparison, frozen state, and the whole-program budget/"
            "determinism rules (RL010-RL011)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--disable", metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="fan the per-module rule phase over N worker processes "
             "(project-phase rules stay serial; finding order is "
             "identical either way)",
    )
    parser.add_argument(
        "--analysis-cache", metavar="DIR", default=_cache_dir_default(),
        help="directory for digest-keyed module-summary cache "
             "(default: $REPRO_LINT_CACHE_DIR; unset = no cache)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _graph_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint graph",
        description=(
            "Export the whole-program call graph + taint edges as "
            "repro-lint-graph/1 JSON."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("json",), default="json",
        help="output format (json only)",
    )
    parser.add_argument(
        "--output", metavar="FILE",
        help="write the graph to FILE instead of stdout",
    )
    parser.add_argument(
        "--analysis-cache", metavar="DIR", default=_cache_dir_default(),
        help="directory for digest-keyed module-summary cache "
             "(default: $REPRO_LINT_CACHE_DIR; unset = no cache)",
    )
    return parser


def _run_graph(argv: list[str]) -> int:
    from .analysis.cache import SummaryCache
    from .analysis.project import build_project_analysis, validate_graph
    from .model import ModuleInfo

    args = _graph_parser().parse_args(argv)
    config = LintConfig.load(Path.cwd())
    modules = []
    for f in collect_files(args.paths):
        try:
            modules.append(ModuleInfo.from_source(f, f.read_text(encoding="utf-8")))
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            print(f"repro-lint graph: skipping {f}: {exc}", file=sys.stderr)
    cache = SummaryCache(args.analysis_cache) if args.analysis_cache else None
    analysis = build_project_analysis(modules, config, cache=cache)
    doc = analysis.to_graph_dict()
    problems = validate_graph(doc)
    if problems:
        for p in problems:
            print(f"repro-lint graph: invalid export: {p}", file=sys.stderr)
        return 2
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "graph":
        return _run_graph(argv[1:])
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rid, rule in all_rules().items():
            print(f"{rid}  {rule.name}: {rule.description}")
        return 0

    overrides = {}
    if args.select:
        overrides["select"] = frozenset(
            r.strip() for r in args.select.split(",") if r.strip()
        )
    if args.disable:
        overrides["disable"] = frozenset(
            r.strip() for r in args.disable.split(",") if r.strip()
        )
    config = LintConfig.load(Path.cwd(), **overrides)

    findings = lint_paths(
        args.paths, config,
        jobs=max(1, args.jobs),
        analysis_cache=args.analysis_cache,
    )
    render = render_json if args.format == "json" else render_text
    print(render(findings))
    errors = [f for f in findings if f.severity is Severity.ERROR]
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
