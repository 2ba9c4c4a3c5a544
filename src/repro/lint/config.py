"""Lint configuration: rule selection and the repo's declared invariants.

The layer DAG, hot-path module set and claim-citation scope are *data*, so
adding a package or promoting a module to the hot path is a config change
here (plus a ``[tool.repro-lint]`` override in ``pyproject.toml`` for rule
selection), not a rule rewrite.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "LintConfig",
    "DEFAULT_LAYER_DAG",
    "DEFAULT_LAYER_EXCEPTIONS",
    "DEFAULT_BUDGET_ENTRY_POINTS",
    "DEFAULT_BUDGET_HOT_PACKAGES",
    "DEFAULT_BUDGET_POLL_METHODS",
    "DEFAULT_TAINT_SOURCES",
    "DEFAULT_TAINT_SINKS",
]


#: Allowed package→package imports inside ``repro`` (the layer DAG).
#: Top-level modules (``cli``, ``__init__``, ``__main__``) are
#: treated as single-module layers.  A package absent from this map is an
#: RL002 finding itself — new packages must declare their layer.
DEFAULT_LAYER_DAG: dict[str, frozenset[str]] = {
    "obs": frozenset(),  # stdlib-only leaf: anything may observe, it imports nothing
    "topology": frozenset(),
    "resilience": frozenset({"topology", "obs"}),
    "cuts": frozenset({"topology", "resilience", "obs"}),
    "perf": frozenset({"topology", "cuts", "resilience", "obs"}),
    # Independent verification: first-principles edge counting only.  The
    # checker may see topology and obs (plus the pure claim table, via a
    # module-granular exception below); the fuzz harness drives the whole
    # solver stack through further module-granular exceptions.  No solver
    # package may depend on verify: the checker's independence from the
    # solvers it checks is one-directional.
    "verify": frozenset({"topology", "obs"}),
    # Distributed coordination: shard workers drive the cuts kernels under
    # resilience primitives.  Deliberately verify-free: the cascade
    # certifies distributed results, dist only produces them.
    "dist": frozenset({"topology", "cuts", "resilience", "obs"}),
    "embeddings": frozenset({"topology"}),
    "routing": frozenset({"topology", "obs"}),
    "expansion": frozenset({"topology", "cuts", "routing"}),
    "analysis": frozenset({"topology", "cuts", "embeddings", "expansion"}),
    "core": frozenset(
        {
            "topology", "cuts", "embeddings", "expansion", "routing",
            "analysis", "resilience", "obs", "perf", "verify", "dist",
        }
    ),
    # The serving layer fronts the cascade: it may see the solve entry
    # point (core), the canonical fingerprints and cache (perf), the
    # supervised pool and budgets (resilience), certificate round-trips
    # (verify — serve is not a solver package)
    # and obs.  It must never reach into cuts/routing directly: all
    # solving goes through core's degradation cascade.
    "serve": frozenset({"topology", "core", "perf", "resilience", "verify", "obs"}),
    "lint": frozenset(),  # stdlib-only by design: must not import the package
    "cli": frozenset(
        {
            "topology", "cuts", "embeddings", "expansion", "routing",
            "analysis", "core", "lint", "resilience", "obs", "perf",
            "verify", "dist", "serve",
        }
    ),
    "__init__": frozenset({"topology", "core"}),
    "__main__": frozenset({"cli"}),
}

#: Module-granular exceptions to the package DAG, as (importer prefix,
#: imported-module prefix) dotted pairs.  The routing↔embeddings pair is
#: mutually dependent at package level but acyclic at module level; these
#: two entries pin exactly the module edges that keep it so.
DEFAULT_LAYER_EXCEPTIONS: frozenset[tuple[str, str]] = frozenset(
    {
        ("repro.embeddings", "repro.routing.paths"),
        ("repro.routing.emulation", "repro.embeddings.embedding"),
        # The checker re-derives paper inequalities from the pure claim
        # table only — never from solver code; core.claims imports nothing,
        # so the core→verify edge above stays acyclic at module level.
        ("repro.verify.checker", "repro.core.claims"),
        # The fuzz harness *drives* every solver, the cascade, the cache
        # and the fault injector against the checker.  These edges point
        # from the verifier down into what it tests; the reverse direction
        # is what the DAG forbids.
        ("repro.verify.fuzz", "repro.cuts"),
        ("repro.verify.fuzz", "repro.core.fallback"),
        # ... and cross-checks the product/fabric closed forms against
        # the same pure claim table the checker reads.
        ("repro.verify.fuzz", "repro.core.claims"),
        ("repro.verify.fuzz", "repro.perf.cache"),
        ("repro.verify.fuzz", "repro.resilience.faults"),
        # The lint runner's optional --jobs mode fans the per-module rule
        # phase out over the supervised worker pool.  The import is lazy
        # (jobs > 1 only), so the lint package stays loadable stdlib-only;
        # this single edge is the whole exception.
        ("repro.lint.runner", "repro.resilience.supervise"),
    }
)

#: Hot-path modules (repo-relative inside ``repro``): the "no Python loop
#: ever touches edges" promise of ``topology/base.py`` and the cut solvers.
DEFAULT_HOT_PATHS: tuple[str, ...] = ("topology/base.py", "cuts/*.py")

#: Packages whose modules must cite paper claims (RL001).
DEFAULT_CLAIM_PACKAGES: tuple[str, ...] = ("cuts", "embeddings", "expansion", "core")

# --------------------------------------------------------------------- #
# Whole-program analysis (RL010-RL011; see repro.lint.analysis)
# --------------------------------------------------------------------- #

#: Call-graph roots for RL010 reachability: the cascade and the CLI solve
#: path.  Everything in the hot packages reachable from these must thread
#: the solve's Budget into its loops.
DEFAULT_BUDGET_ENTRY_POINTS: tuple[str, ...] = (
    "repro.core.fallback.solve_with_fallback",
    "repro.cli._cmd_solve",
    "repro.serve.jobs.solve_job",
)

#: Packages whose reachable loops RL010 holds to the budget contract.
#: ``dist`` is hot because its worker/monitor loops run unbounded sweeps:
#: a loop there that forgets to poll its budget hangs a whole fleet.
DEFAULT_BUDGET_HOT_PACKAGES: tuple[str, ...] = ("cuts", "routing", "dist")

#: Method names that count as consulting a Budget (cooperative polls).
DEFAULT_BUDGET_POLL_METHODS: tuple[str, ...] = (
    "expired", "remaining", "check", "tick",
)

#: RL011 taint sources, per external module: ``(dotted callable, mode)``.
#: Mode ``always`` taints every call; ``unseeded`` taints only zero-
#: argument calls (a seeded ``default_rng(seed)`` is deterministic, a bare
#: ``default_rng()`` is not).  Set/dict-iteration-order sources
#: (``list(set(...))`` and friends) are recognized structurally, not here.
DEFAULT_TAINT_SOURCES: tuple[tuple[str, str], ...] = (
    ("numpy.random.default_rng", "unseeded"),
    ("numpy.random.RandomState", "unseeded"),
    ("numpy.random.SeedSequence", "unseeded"),
    ("random.Random", "unseeded"),
    ("numpy.random.rand", "always"),
    ("numpy.random.randn", "always"),
    ("numpy.random.randint", "always"),
    ("numpy.random.random", "always"),
    ("numpy.random.choice", "always"),
    ("numpy.random.permutation", "always"),
    ("numpy.random.shuffle", "always"),
    ("random.random", "always"),
    ("random.randint", "always"),
    ("random.randrange", "always"),
    ("random.choice", "always"),
    ("random.sample", "always"),
    ("random.shuffle", "always"),
    ("random.uniform", "always"),
    ("random.getrandbits", "always"),
    ("time.time", "always"),
    ("time.time_ns", "always"),
    ("time.monotonic", "always"),
    ("time.monotonic_ns", "always"),
    ("time.perf_counter", "always"),
    ("time.perf_counter_ns", "always"),
    ("datetime.datetime.now", "always"),
    ("datetime.datetime.utcnow", "always"),
    ("datetime.date.today", "always"),
    ("os.urandom", "always"),
    ("uuid.uuid1", "always"),
    ("uuid.uuid4", "always"),
    ("secrets.token_bytes", "always"),
    ("secrets.token_hex", "always"),
)

#: RL011 sinks: anything that ends up in a certificate file, a cache key,
#: or a canonical fingerprint.  Entries are dotted repro function ids, or
#: ``.method`` patterns matched by attribute name on any receiver (the
#: cache's put methods, whatever the receiver variable is called).
DEFAULT_TAINT_SINKS: tuple[str, ...] = (
    "repro.verify.serialize.write_certificate",
    "repro.verify.serialize.certificate_to_data",
    "repro.verify.serialize.network_spec",
    "repro.verify.fuzz.save_case",
    "repro.verify.fuzz.case_from_network",
    "repro.perf.canonical.canonical_form",
    ".put_certificate",
    ".put_profile",
    ".put_warm_start",
)

@dataclass(frozen=True)
class LintConfig:
    """Immutable configuration for one lint run."""

    select: frozenset[str] | None = None  # None = all registered rules
    disable: frozenset[str] = frozenset()
    layer_dag: dict[str, frozenset[str]] = field(
        default_factory=lambda: dict(DEFAULT_LAYER_DAG)
    )
    layer_exceptions: frozenset[tuple[str, str]] = DEFAULT_LAYER_EXCEPTIONS
    hot_paths: tuple[str, ...] = DEFAULT_HOT_PATHS
    claim_packages: tuple[str, ...] = DEFAULT_CLAIM_PACKAGES
    #: rules whose inline suppression must carry a ``-- justification``
    justification_required: frozenset[str] = frozenset({"RL003", "RL008", "RL010"})
    # Whole-program analysis knobs (RL010-RL011).
    budget_entry_points: tuple[str, ...] = DEFAULT_BUDGET_ENTRY_POINTS
    budget_hot_packages: tuple[str, ...] = DEFAULT_BUDGET_HOT_PACKAGES
    budget_poll_methods: tuple[str, ...] = DEFAULT_BUDGET_POLL_METHODS
    taint_sources: tuple[tuple[str, str], ...] = DEFAULT_TAINT_SOURCES
    taint_sinks: tuple[str, ...] = DEFAULT_TAINT_SINKS

    def analysis_digest(self) -> str:
        """A short digest of the analysis-relevant knobs.

        Folded into the summary-cache key so a config change (new sink,
        different poll set) invalidates cached module summaries exactly
        like a source change would.
        """
        import hashlib

        blob = repr((
            self.budget_entry_points, self.budget_hot_packages,
            self.budget_poll_methods, self.taint_sources, self.taint_sinks,
        ))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def rule_enabled(self, rule_id: str) -> bool:
        if rule_id in self.disable:
            return False
        return self.select is None or rule_id in self.select

    def is_hot_path(self, repro_relpath: str) -> bool:
        """Whether a path like ``cuts/layered_dp.py`` is declared hot."""
        return any(fnmatch.fnmatch(repro_relpath, pat) for pat in self.hot_paths)

    @classmethod
    def load(cls, root: Path | None = None, **overrides) -> "LintConfig":
        """Build a config, merging ``[tool.repro-lint]`` from pyproject.toml.

        Only rule selection is file-configurable (``select``/``disable``
        lists); the structural invariants stay in code so they are
        reviewed like code.  Silently skips when tomllib or the file is
        unavailable (Python 3.10 / bare checkouts).
        """
        cfg = cls()
        pyproject = (root or Path.cwd()) / "pyproject.toml"
        try:
            import tomllib
        except ImportError:  # pragma: no cover - Python 3.10
            tomllib = None
        if tomllib is not None and pyproject.is_file():
            try:
                data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
            except (OSError, ValueError):  # pragma: no cover - malformed file
                data = {}
            section = data.get("tool", {}).get("repro-lint", {})
            if section.get("select"):
                cfg = replace(cfg, select=frozenset(section["select"]))
            if section.get("disable"):
                cfg = replace(cfg, disable=frozenset(section["disable"]))
        if overrides:
            cfg = replace(cfg, **overrides)
        return cfg
