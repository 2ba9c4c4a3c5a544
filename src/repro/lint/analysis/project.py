"""Whole-program phase: link module summaries, run fixpoints, answer rules.

:class:`ProjectAnalysis` is built once per lint run (when any of
RL010-RL011 is enabled) from the per-module summaries and attached to the
``LintContext``.  It owns:

* a project symbol table — dotted name → function/class, following
  aliases and package ``__init__`` re-exports, so ``from ..cuts import
  kernighan_lin_bisection`` resolves to the defining module;
* the call graph (call edges plus reference edges for functions passed
  as values) and entry-point reachability for RL010;
* three fixpoints over that graph via
  :func:`~repro.lint.analysis.dataflow.solve_fixpoint`:
  ``POLLS`` (calling f eventually polls a Budget), ``RET`` (what a call
  to f returns, as source witnesses and parameter passthroughs), and
  ``SINK_PARAMS`` (which parameters of f flow into a determinism sink);
* the ``repro-lint graph`` JSON export and its schema checker.

Everything is computed eagerly in ``__init__`` — summaries are cheap to
link, and the rules then only read.
"""

from __future__ import annotations

from .dataflow import solve_fixpoint
from .summaries import ModuleSummary, summarize_modules

__all__ = ["ProjectAnalysis", "validate_graph", "GRAPH_FORMAT"]

GRAPH_FORMAT = "repro-lint-graph/1"

_MAX_RESOLVE_DEPTH = 12


class ProjectAnalysis:
    """Linked view over all module summaries of one lint run."""

    def __init__(self, summaries: dict[str, ModuleSummary], config,
                 cache_stats: dict[str, int] | None = None):
        self.config = config
        self.cache_stats = cache_stats
        #: report path → summary, in deterministic (sorted-path) order
        self.summaries = {p: summaries[p] for p in sorted(summaries)}

        self.modules: dict[str, ModuleSummary] = {}
        self.functions: dict[str, object] = {}       # fid → FunctionSummary
        self.fn_module: dict[str, ModuleSummary] = {}
        self.classes: set[str] = set()
        for s in self.summaries.values():
            if s.module is None:
                continue
            self.modules[s.module] = s
            if s.module != s.namespace:
                self.modules.setdefault(s.namespace, s)
            for name, kind in s.defs.items():
                if kind == "class":
                    self.classes.add(f"{s.namespace}.{name}")
            for fn in s.functions:
                fid = f"{s.namespace}.{fn.name}"
                self.functions[fid] = fn
                self.fn_module[fid] = s

        self._resolve_cache: dict[str, tuple[str, str] | None] = {}
        self._link_edges()
        self._run_fixpoints()

    # ------------------------------------------------------ resolution

    def resolve(self, dotted: str | None) -> tuple[str, str] | None:
        """Resolve a dotted name to ``("func", fid)`` or ``("class", id)``.

        Follows import aliases and package re-exports (``from .kl import
        kernighan_lin_bisection`` in ``cuts/__init__.py``); returns None
        for externals and unresolvable names.
        """
        if dotted is None:
            return None
        if dotted in self._resolve_cache:
            return self._resolve_cache[dotted]
        out = self._resolve(dotted, 0)
        self._resolve_cache[dotted] = out
        return out

    def _resolve(self, dotted: str, depth: int) -> tuple[str, str] | None:
        if depth > _MAX_RESOLVE_DEPTH:
            return None
        if dotted in self.functions:
            return ("func", dotted)
        if dotted in self.classes:
            return ("class", dotted)
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:i])
            if mod not in self.modules:
                continue
            s = self.modules[mod]
            rest = parts[i:]
            cand = f"{s.namespace}.{'.'.join(rest)}"
            if cand in self.functions:
                return ("func", cand)
            if cand in self.classes:
                return ("class", cand)
            head = rest[0]
            if head in s.aliases:
                target = s.aliases[head]
                if len(rest) > 1:
                    target = f"{target}.{'.'.join(rest[1:])}"
                return self._resolve(target, depth + 1)
            return None
        return None

    def resolve_function(self, dotted: str | None) -> str | None:
        """Like :meth:`resolve`, but classes land on their ``__init__``."""
        r = self.resolve(dotted)
        if r is None:
            return None
        kind, target = r
        if kind == "func":
            return target
        init = f"{target}.__init__"
        return init if init in self.functions else None

    # ----------------------------------------------------------- edges

    def _link_edges(self) -> None:
        self.call_edges: dict[str, set[str]] = {f: set() for f in self.functions}
        self.ref_edges: dict[str, set[str]] = {f: set() for f in self.functions}
        self.callers: dict[str, set[str]] = {f: set() for f in self.functions}
        self.site_target: dict[tuple[str, int], str | None] = {}
        for fid, fn in self.functions.items():
            for site in fn.calls:
                target = self.resolve_function(site.callee)
                self.site_target[(fid, site.index)] = target
                if target is not None:
                    self.call_edges[fid].add(target)
                    self.callers[target].add(fid)
            for ref in fn.refs:
                target = self.resolve_function(ref)
                if target is not None and target not in self.call_edges[fid]:
                    self.ref_edges[fid].add(target)

        # Entry-point reachability (call + ref edges), with provenance.
        self.entry_points: list[str] = []
        self.reachable_from: dict[str, str] = {}
        for entry in self.config.budget_entry_points:
            fid = self.resolve_function(entry)
            if fid is None:
                continue
            self.entry_points.append(fid)
            queue = [fid]
            while queue:
                cur = queue.pop()
                if cur in self.reachable_from:
                    continue
                self.reachable_from[cur] = entry
                for nxt in sorted(self.call_edges[cur] | self.ref_edges[cur]):
                    if nxt not in self.reachable_from:
                        queue.append(nxt)

    # ------------------------------------------------------- fixpoints

    def _run_fixpoints(self) -> None:
        fids = sorted(self.functions)
        dependents = lambda f: sorted(self.callers[f])  # noqa: E731

        self.polls: dict[str, bool] = solve_fixpoint(
            fids,
            initial=lambda f: self.functions[f].polls,
            transfer=lambda f, facts: (
                self.functions[f].polls
                or any(facts[g] for g in sorted(self.call_edges[f]))
            ),
            dependents=dependents,
        )

        self.rets: dict[str, frozenset] = solve_fixpoint(
            fids,
            initial=lambda f: frozenset(),
            transfer=self._ret_transfer,
            dependents=dependents,
        )

        self.sink_params: dict[str, frozenset] = solve_fixpoint(
            fids,
            initial=lambda f: frozenset(),
            transfer=self._sink_transfer,
            dependents=dependents,
        )

    # -- RET: what calling f returns ------------------------------------

    def _ret_transfer(self, fid: str, rets) -> frozenset:
        fn = self.functions[fid]
        out: set = set()
        for atom in fn.returns:
            out |= self._flow(fid, atom, rets, set())
        return frozenset(out)

    def _flow(self, fid: str, atom, rets, seen) -> set:
        """Expand one local atom of ``fid`` into global form.

        Output atoms are ``("src", origin, "path:line")`` witnesses and
        ``("param", i)`` passthroughs of ``fid``'s own parameters.
        """
        kind = atom[0]
        if kind == "src":
            loc = atom[2]
            if isinstance(loc, int):  # local atom: globalize the witness
                loc = f"{self.fn_module[fid].path}:{loc}"
            return {("src", atom[1], loc)}
        if kind == "param":
            return {("param", atom[1])}
        if kind != "call":
            return set()
        key = (fid, atom[1])
        if key in seen:
            return set()
        seen.add(key)
        fn = self.functions[fid]
        site = fn.calls[atom[1]] if atom[1] < len(fn.calls) else None
        if site is None:
            return set()
        target = self.site_target.get(key)
        if target is None:
            # repro class without __init__ (dataclass ctor) or unresolved
            # repro name: conservatively pass all arguments through.
            out: set = set()
            for atoms in list(site.args) + list(site.kwargs.values()):
                for a in atoms:
                    out |= self._flow(fid, a, rets, seen)
            for a in site.receiver:
                out |= self._flow(fid, a, rets, seen)
            return out
        out = set()
        for r in rets.get(target, frozenset()):
            if r[0] == "src":
                out.add(r)  # already a global witness
            elif r[0] == "param":
                for a in self._site_arg_atoms(target, site, r[1]):
                    out |= self._flow(fid, a, rets, seen)
        if target.endswith(".__init__"):
            # Constructor: the object carries whatever it was built from
            # (an __init__ has no return, so RET alone would drop it).
            for atoms in list(site.args) + list(site.kwargs.values()):
                for a in atoms:
                    out |= self._flow(fid, a, rets, seen)
        return out

    def _site_arg_atoms(self, target_fid: str, site, j: int) -> list:
        """Atoms of the value bound to ``target``'s parameter ``j`` here."""
        if j < len(site.args):
            return site.args[j]
        params = self.functions[target_fid].params
        if j < len(params):
            return site.kwargs.get(params[j], [])
        return []

    # -- SINK_PARAMS: which params of f reach a sink --------------------

    def _sink_info(self):
        if not hasattr(self, "_sink_fids"):
            fids, methods = {}, set()
            for entry in self.config.taint_sinks:
                if entry.startswith("."):
                    methods.add(entry[1:])
                else:
                    fid = self.resolve_function(entry)
                    if fid is not None:
                        fids[fid] = entry.rsplit(".", 1)[-1]
            self._sink_fids, self._sink_methods = fids, methods
        return self._sink_fids, self._sink_methods

    def _site_sink_label(self, fid: str, site) -> str | None:
        sink_fids, sink_methods = self._sink_info()
        target = self.site_target.get((fid, site.index))
        if target in sink_fids:
            return sink_fids[target]
        if site.method in sink_methods:
            return site.method
        return None

    def _sink_transfer(self, fid: str, facts) -> frozenset:
        fn = self.functions[fid]
        path = self.fn_module[fid].path
        out: set = set()
        for site in fn.calls:
            label = self._site_sink_label(fid, site)
            if label is not None:
                loc = f"{path}:{site.lineno}"
                for atoms in list(site.args) + list(site.kwargs.values()):
                    for a in atoms:
                        for g in self._flow(fid, a, self.rets, set()):
                            if g[0] == "param":
                                out.add((g[1], label, loc))
            target = self.site_target.get((fid, site.index))
            if target is None:
                continue
            for j, label, loc in facts.get(target, frozenset()):
                for a in self._site_arg_atoms(target, site, j):
                    for g in self._flow(fid, a, self.rets, set()):
                        if g[0] == "param":
                            out.add((g[1], label, loc))
        return frozenset(out)

    # ------------------------------------------------- rule interfaces

    def budget_violations(self) -> list[dict]:
        """RL010: reachable hot-package loops that never reach a poll."""
        hot = tuple(self.config.budget_hot_packages)
        out = []
        for fid in sorted(self.reachable_from):
            s = self.fn_module.get(fid)
            if s is None or s.module is None:
                continue
            parts = s.module.split(".")
            if len(parts) < 2 or parts[1] not in hot:
                continue
            fn = self.functions[fid]
            for loop in fn.loops:
                if loop.polls:
                    continue
                targets = [
                    self.site_target.get((fid, i)) for i in loop.call_indices
                ]
                if any(t is not None and self.polls[t] for t in targets):
                    continue
                repro_call = any(
                    fn.calls[i].callee is not None
                    and fn.calls[i].callee.startswith("repro.")
                    for i in loop.call_indices
                    if i < len(fn.calls)
                )
                if loop.kind != "while" and not repro_call:
                    continue  # straight numpy/local loop: RL003's turf
                out.append(
                    {
                        "path": s.path, "lineno": loop.lineno, "col": loop.col,
                        "function": fid, "kind": loop.kind,
                        "entry": self.reachable_from[fid],
                    }
                )
        return out

    def determinism_violations(self) -> list[dict]:
        """RL011: source witnesses whose value reaches a sink."""
        found: set[tuple] = set()
        for fid in sorted(self.functions):
            fn = self.functions[fid]
            path = self.fn_module[fid].path
            for site in fn.calls:
                hits: set[tuple] = set()
                label = self._site_sink_label(fid, site)
                if label is not None:
                    for atoms in list(site.args) + list(site.kwargs.values()):
                        for a in atoms:
                            for g in self._flow(fid, a, self.rets, set()):
                                if g[0] == "src":
                                    hits.add((g[1], g[2], label,
                                              f"{path}:{site.lineno}"))
                target = self.site_target.get((fid, site.index))
                if target is not None:
                    for j, slabel, sloc in self.sink_params.get(
                        target, frozenset()
                    ):
                        for a in self._site_arg_atoms(target, site, j):
                            for g in self._flow(fid, a, self.rets, set()):
                                if g[0] == "src":
                                    hits.add((g[1], g[2], slabel, sloc))
                for origin, src_at, slabel, sink_at in hits:
                    found.add(
                        (path, site.lineno, site.col, origin, src_at,
                         slabel, sink_at)
                    )
        return [
            {
                "path": p, "lineno": ln, "col": col, "source": origin,
                "source_at": src_at, "sink": slabel, "sink_at": sink_at,
            }
            for p, ln, col, origin, src_at, slabel, sink_at in sorted(found)
        ]

    # ------------------------------------------------------ graph JSON

    def to_graph_dict(self) -> dict:
        """The ``repro-lint graph`` export (see :func:`validate_graph`)."""
        modules = [
            {
                "module": s.module,
                "path": s.path,
                "functions": len(s.functions),
            }
            for s in self.summaries.values()
            if s.module is not None
        ]
        functions = [
            {
                "id": fid,
                "module": self.fn_module[fid].module,
                "lineno": self.functions[fid].lineno,
                "polls": self.polls[fid],
                "reachable": fid in self.reachable_from,
                "loops": len(self.functions[fid].loops),
            }
            for fid in sorted(self.functions)
        ]
        calls = []
        for fid in sorted(self.functions):
            for site in self.functions[fid].calls:
                target = self.site_target.get((fid, site.index))
                if target is not None:
                    calls.append(
                        {"from": fid, "to": target, "lineno": site.lineno,
                         "kind": "call"}
                    )
            for target in sorted(self.ref_edges[fid]):
                calls.append({"from": fid, "to": target, "kind": "ref"})
        taint = {
            "returns": [
                {"function": fid, "atoms": sorted(
                    [list(a) for a in self.rets[fid]], key=repr
                )}
                for fid in sorted(self.functions) if self.rets[fid]
            ],
            "sink_params": [
                {"function": fid, "param": j, "sink": label, "at": loc}
                for fid in sorted(self.functions)
                for j, label, loc in sorted(self.sink_params[fid])
            ],
            "violations": self.determinism_violations(),
        }
        return {
            "format": GRAPH_FORMAT,
            "entry_points": sorted(self.entry_points),
            "modules": modules,
            "functions": functions,
            "calls": calls,
            "taint": taint,
            "stats": {
                "modules": len(modules),
                "functions": len(functions),
                "call_edges": sum(1 for c in calls if c["kind"] == "call"),
                "ref_edges": sum(1 for c in calls if c["kind"] == "ref"),
                "reachable": len(self.reachable_from),
                "cache": self.cache_stats,
            },
        }


def validate_graph(doc: dict) -> list[str]:
    """Schema-check a graph export; returns a list of problems (empty=ok).

    Hand-rolled on purpose: the lint layer is stdlib-only, so no
    jsonschema.  Checks structure, types, id uniqueness, and that every
    edge endpoint is a known function id.
    """
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["graph document is not an object"]
    if doc.get("format") != GRAPH_FORMAT:
        errors.append(f"format: expected {GRAPH_FORMAT!r}, got {doc.get('format')!r}")
    for key in ("entry_points", "modules", "functions", "calls", "taint", "stats"):
        if key not in doc:
            errors.append(f"missing top-level key: {key}")
    if errors:
        return errors

    fids: set[str] = set()
    for i, fn in enumerate(doc["functions"]):
        if not isinstance(fn, dict) or not isinstance(fn.get("id"), str):
            errors.append(f"functions[{i}]: malformed entry")
            continue
        if fn["id"] in fids:
            errors.append(f"functions[{i}]: duplicate id {fn['id']!r}")
        fids.add(fn["id"])
        for key, typ in (("lineno", int), ("polls", bool),
                         ("reachable", bool), ("loops", int)):
            if not isinstance(fn.get(key), typ):
                errors.append(f"functions[{i}].{key}: expected {typ.__name__}")
    for i, mod in enumerate(doc["modules"]):
        if not isinstance(mod, dict) or not isinstance(mod.get("module"), str):
            errors.append(f"modules[{i}]: malformed entry")
    for i, edge in enumerate(doc["calls"]):
        if not isinstance(edge, dict):
            errors.append(f"calls[{i}]: malformed entry")
            continue
        if edge.get("kind") not in ("call", "ref"):
            errors.append(f"calls[{i}].kind: {edge.get('kind')!r}")
        for end in ("from", "to"):
            if edge.get(end) not in fids:
                errors.append(f"calls[{i}].{end}: unknown function {edge.get(end)!r}")
    for entry in doc["entry_points"]:
        if entry not in fids:
            errors.append(f"entry_points: unknown function {entry!r}")
    taint = doc["taint"]
    if not isinstance(taint, dict):
        errors.append("taint: not an object")
    else:
        for key in ("returns", "sink_params", "violations"):
            if not isinstance(taint.get(key), list):
                errors.append(f"taint.{key}: expected list")
        for i, sp in enumerate(taint.get("sink_params", [])):
            if isinstance(sp, dict) and sp.get("function") not in fids:
                errors.append(
                    f"taint.sink_params[{i}]: unknown function"
                    f" {sp.get('function')!r}"
                )
    stats = doc["stats"]
    if not isinstance(stats, dict):
        errors.append("stats: not an object")
    else:
        for key in ("modules", "functions", "call_edges", "reachable"):
            if not isinstance(stats.get(key), int):
                errors.append(f"stats.{key}: expected int")
    return errors


def build_project_analysis(modules, config, cache=None) -> ProjectAnalysis:
    """Summarize ``modules`` (through ``cache`` if given) and link them."""
    summaries = summarize_modules(modules, config, cache=cache)
    stats = cache.stats() if cache is not None else None
    return ProjectAnalysis(summaries, config, cache_stats=stats)


def ensure_analysis(ctx, cache=None) -> ProjectAnalysis:
    """The context's :class:`ProjectAnalysis`, building it on first use.

    The runner pre-attaches one (with the on-disk summary cache) when an
    interprocedural rule is enabled; rules call this so they also work
    under bare ``lint_sources`` in tests.
    """
    if ctx.analysis is None:
        ctx.analysis = build_project_analysis(ctx.modules, ctx.config, cache=cache)
    return ctx.analysis
