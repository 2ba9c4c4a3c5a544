"""repro.lint: repo-aware static analysis for the paper-contract invariants.

The codebase's correctness story rests on conventions — every module cites
the paper claim it implements, the package layers form a DAG, hot paths
never loop over edge arrays in Python, float equality goes through
``isclose``, and ``Network``/``Cut`` private state is written only by its
owner.  This package enforces them with ``ast``-based rules, pure stdlib,
offline:

========  =============================================================
RL001     claim-citation: docstrings in ``cuts``/``embeddings``/
          ``expansion``/``core`` must cite claims from
          :mod:`repro.core.claims`; flags stale references and registry
          gaps against the DESIGN.md claim table.
RL002     layer-order: imports must respect the package layer DAG
          (topology → cuts/embeddings/routing → expansion → core → cli).
RL003     vectorization: no Python ``for`` loop over ``.edges`` arrays in
          declared hot-path modules (suppression requires justification).
RL004     float-compare: no ``==``/``!=`` against float expressions or
          paper constants like ``math.sqrt(2) - 1``; use ``isclose``.
RL005     frozen-mutation: no writes to ``Network``/``Cut`` private state
          (``._edges``, ``._labels``, ``._side``, ``.side``) outside the
          defining class.
RL006     benchmark-drift (warning): committed ``benchmarks/results/``
          tables must agree with the paper constants.
RL007     obs-timing (warning): no raw monotonic clocks in instrumented
          packages; measure through :func:`repro.obs.trace`.
RL008     complexity-budget: exhaustive kernels must keep the batched
          O(E)-per-batch contract (suppression requires justification).
RL010     budget-threading: loops reachable from the solve cascade into
          ``cuts``/``routing`` must reach a ``Budget`` poll, directly or
          via a callee (suppression requires justification).
RL011     determinism-sanitizer: unseeded RNGs, wall-clock reads and
          set-iteration order must not flow into certificates, cache
          writes or canonical fingerprints (interprocedural taint).
========  =============================================================

RL010–RL011 are whole-program rules: they run on a project-wide call
graph and dataflow fixpoint built by :mod:`repro.lint.analysis`, with
per-module summaries cached on disk keyed by file digest
(``--analysis-cache`` / ``$REPRO_LINT_CACHE_DIR``).  ``repro-lint graph
PATHS`` exports that call graph and taint state as JSON.

Run ``repro-lint PATHS``, ``python -m repro.lint PATHS`` or
``repro-butterfly lint PATHS`` (``--jobs N`` parallelizes the per-module
phase with bit-identical output).  Suppress a finding inline with
``# repro-lint: disable=RL004 -- justification`` on (or directly above)
the offending line.
"""

from .findings import Finding, Severity
from .config import LintConfig
from .registry import Rule, all_rules, get_rule
from .runner import lint_paths, lint_sources
from .reporters import render_text, render_json

__all__ = [
    "Finding",
    "Severity",
    "LintConfig",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_sources",
    "render_text",
    "render_json",
]
