"""Whole-program analysis substrate for the interprocedural lint rules.

The per-module rules (RL001-RL008) see one AST at a time; the properties
RL010-RL011 enforce live *between* modules: whether a hot loop reachable
from the solve cascade ever consults its Budget, and whether an unseeded
RNG value can flow into a certificate or cache key.  This package
supplies the three layers those rules stand on:

* :mod:`~repro.lint.analysis.summaries` — a per-module extraction pass:
  resolved import aliases, top-level defs, call sites with locally
  propagated taint atoms, loops, budget polls.  The
  output is plain JSON-able data, which is what makes the on-disk cache
  sound: a summary depends only on one file's source and the analysis
  config.
* :mod:`~repro.lint.analysis.cache` — the digest-keyed summary store, so
  warm lint runs re-extract only modules whose bytes changed.
* :mod:`~repro.lint.analysis.project` — the whole-program phase: a call
  graph over all summaries, worklist fixpoints
  (:mod:`~repro.lint.analysis.dataflow`) for budget-poll propagation,
  return-taint and parameter-to-sink summaries, entry-point reachability,
  and the ``repro-lint graph`` JSON export.

Everything here is stdlib-only, like the rest of ``repro.lint``.
"""

from .cache import SummaryCache
from .dataflow import solve_fixpoint
from .project import (
    GRAPH_FORMAT,
    ProjectAnalysis,
    build_project_analysis,
    validate_graph,
)
from .summaries import (
    ModuleSummary,
    extract_module_summary,
    resolve_import_aliases,
    summarize_modules,
)

__all__ = [
    "GRAPH_FORMAT",
    "ModuleSummary",
    "ProjectAnalysis",
    "SummaryCache",
    "build_project_analysis",
    "extract_module_summary",
    "resolve_import_aliases",
    "solve_fixpoint",
    "summarize_modules",
    "validate_graph",
]
