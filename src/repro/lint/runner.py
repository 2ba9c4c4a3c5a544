"""Run the enabled rules over sources, apply suppressions, sort findings.

The runner is the only place that knows about files, suppressions and
enablement; rules stay pure (module in, findings out).  Unparseable files
become unconditional ``RL000`` findings rather than crashes, so a syntax
error in one module never hides findings in the rest.

Two phases per run: the per-module phase (every rule's ``check`` on every
module — embarrassingly parallel, fanned out over the supervised worker
pool when ``jobs > 1``) and the project phase (``check_project``, always
serial: it sees the whole module list at once).  When an interprocedural
rule (RL010-RL011) is enabled, the runner first builds the whole-program
analysis (:mod:`repro.lint.analysis`) and attaches it to the context,
routing per-module summary extraction through the digest-keyed on-disk
cache when one is configured.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from .config import LintConfig
from .findings import Finding
from .model import LintContext, ModuleInfo
from .registry import iter_enabled
from .suppressions import collect_suppressions, find_suppression

__all__ = ["collect_files", "lint_sources", "lint_paths"]

_SKIP_DIRS = {"__pycache__", ".git", ".ruff_cache", ".pytest_cache"}

#: Rules that need the whole-program analysis attached to the context.
_ANALYSIS_RULES = frozenset({"RL010", "RL011"})


def collect_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into the sorted list of ``.py`` files.

    Deduplicates on ``Path.resolve()`` so overlapping roots (``src`` and
    ``src/repro``, or relative + absolute spellings of the same tree)
    yield each file once — duplicate report keys would double findings
    and split suppressions.  The *reported* path stays as given: the
    first spelling that reaches a file wins.
    """
    by_real: dict[Path, Path] = {}
    for p in paths:
        p = Path(p)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if not any(
                    part in _SKIP_DIRS or part.endswith(".egg-info")
                    for part in f.parts
                ):
                    by_real.setdefault(f.resolve(), f)
        elif p.suffix == ".py":
            by_real.setdefault(p.resolve(), p)
    return sorted(by_real.values())


# ------------------------------------------------------------------ #
# Parallel per-module phase plumbing.  Workers rebuild the module list
# from the pickled sources once per process (initializer), then each
# task is just an index into it; the parent reassembles results in task
# order, so the finding stream is bit-identical to a serial run.
# ------------------------------------------------------------------ #

_WORKER: dict = {}


def _init_lint_worker(source_items: tuple, config: LintConfig) -> None:
    modules = []
    for path, source in source_items:
        try:
            modules.append(ModuleInfo.from_source(Path(path), source))
        except SyntaxError:
            continue  # RL000 already emitted by the parent
    _WORKER["ctx"] = LintContext(config=config, modules=modules)
    _WORKER["rules"] = list(iter_enabled(config))


def _lint_module_task(index: int) -> list[Finding]:
    ctx = _WORKER["ctx"]
    module = ctx.modules[index]
    out: list[Finding] = []
    for rule in _WORKER["rules"]:
        out.extend(rule.check(module, ctx))
    return out


def lint_sources(
    sources: dict[str, str],
    config: LintConfig | None = None,
    *,
    jobs: int = 1,
    analysis_cache: Path | str | None = None,
) -> list[Finding]:
    """Lint in-memory ``{path: source}`` pairs (the test-fixture entry point)."""
    config = config or LintConfig()
    modules: list[ModuleInfo] = []
    findings: list[Finding] = []
    for path, source in sources.items():
        try:
            modules.append(ModuleInfo.from_source(Path(path), source))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    str(path), exc.lineno or 1, (exc.offset or 1) - 1, "RL000",
                    f"syntax error: {exc.msg}",
                )
            )
    ctx = LintContext(config=config, modules=modules)

    raw: list[Finding] = []
    rules = list(iter_enabled(config))
    if jobs > 1 and len(modules) > 1:
        raw.extend(_parallel_module_phase(modules, config, jobs))
    else:
        for module in modules:
            for rule in rules:
                raw.extend(rule.check(module, ctx))

    if any(r.rule_id in _ANALYSIS_RULES for r in rules):
        # Attach the whole-program analysis before the project phase so
        # RL010-RL011 share one build (and one summary-cache pass).
        from .analysis.cache import SummaryCache
        from .analysis.project import build_project_analysis

        cache = SummaryCache(analysis_cache) if analysis_cache else None
        ctx.analysis = build_project_analysis(modules, config, cache=cache)
    for rule in rules:
        raw.extend(rule.check_project(ctx))

    suppressions = {
        str(m.path): collect_suppressions(m.source) for m in modules
    }
    stmt_spans = {str(m.path): _statement_spans(m.tree) for m in modules}
    for finding in raw:
        sups = suppressions.get(finding.path, [])
        sup = find_suppression(sups, finding.line, finding.rule_id)
        if sup is None:
            # Multi-line statements: a suppression on the logical line's
            # first physical line covers findings reported anywhere in
            # the statement (innermost enclosing statement first).
            for start in _enclosing_starts(
                stmt_spans.get(finding.path, []), finding.line
            ):
                sup = find_suppression(sups, start, finding.rule_id)
                if sup is not None:
                    break
        if sup is None:
            findings.append(finding)
        elif (
            finding.rule_id in config.justification_required
            and not sup.justification
        ):
            findings.append(
                Finding(
                    finding.path, finding.line, finding.col, finding.rule_id,
                    finding.message
                    + " (suppression of this rule requires a '-- justification')",
                    finding.severity,
                )
            )
    return sorted(findings)


def _parallel_module_phase(
    modules: list[ModuleInfo], config: LintConfig, jobs: int
) -> list[Finding]:
    # Lazy import: the lint package is stdlib-only until --jobs asks for
    # the pool (module-granular layer exception, see config.py).
    from ..resilience.supervise import supervised_map

    items = tuple((str(m.path), m.source) for m in modules)
    results = supervised_map(
        _lint_module_task,
        list(range(len(modules))),
        workers=jobs,
        initializer=_init_lint_worker,
        initargs=(items, config),
    )
    out: list[Finding] = []
    for per_module in results:  # task order == module order
        out.extend(per_module or [])
    return out


def _statement_spans(tree: ast.Module) -> list[tuple[int, int]]:
    """(start, end) line spans of multi-line statements, for suppression
    lookup on the logical-line start."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt):
            end = getattr(node, "end_lineno", None)
            if end is not None and end > node.lineno:
                spans.append((node.lineno, end))
    return spans


def _enclosing_starts(spans: list[tuple[int, int]], line: int) -> list[int]:
    """Start lines of statements spanning ``line``, innermost first."""
    return sorted(
        {s for s, e in spans if s <= line <= e and s != line}, reverse=True
    )


def lint_paths(
    paths: Iterable[Path | str],
    config: LintConfig | None = None,
    *,
    jobs: int = 1,
    analysis_cache: Path | str | None = None,
) -> list[Finding]:
    """Lint files and directories from disk."""
    files = collect_files(paths)
    sources: dict[str, str] = {}
    findings: list[Finding] = []
    for f in files:
        try:
            sources[str(f)] = f.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(str(f), 1, 0, "RL000", f"unreadable: {exc}"))
    findings.extend(
        lint_sources(sources, config, jobs=jobs, analysis_cache=analysis_cache)
    )
    return sorted(findings)
