"""Per-module analysis summaries: the cacheable half of the whole program.

One summary is extracted from one source file and depends on nothing else
— not on other modules, not on the filesystem — which is exactly what
lets :mod:`~repro.lint.analysis.cache` key it by source digest.  The
whole-program phase (:mod:`~repro.lint.analysis.project`) then links
summaries into a call graph and runs its fixpoints without re-touching
any AST.

The local dataflow is deliberately modest: flow-insensitive taint over
function locals, with three atom shapes::

    ("src",   <origin>, lineno)   # a taint source observed here
    ("param", <index>)            # the function's own parameter
    ("call",  <site-index>)       # return value of a repro-internal call

``("call", i)`` atoms are the interprocedural hooks: the project phase
expands them through callee return summaries, substituting ``("param",
j)`` atoms with the recorded atoms of argument ``j`` at that site.  Calls
into *external* code (numpy, stdlib) instead pass their argument and
receiver atoms straight through — ``rng.integers(...)`` is tainted iff
``rng`` is — which is the conservative choice for code we do not analyze.

Set-iteration order is the one structural source: ``list({...})``,
``tuple(set(...))`` and ``for x in {...}`` mint a ``set-order`` atom, and
``sorted(...)`` is the only cleanser.  Dict iteration is insertion-
ordered on every Python we support, so it is deliberately *not* a source.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "SUMMARY_FORMAT",
    "CallSite",
    "LoopSummary",
    "FunctionSummary",
    "ModuleSummary",
    "resolve_import_aliases",
    "extract_module_summary",
    "summarize_modules",
]

#: Bump when the summary shape changes; part of every cache key.
SUMMARY_FORMAT = "repro-lint-summary/2"

_SET_BUILTINS = frozenset({"set", "frozenset"})


def resolve_import_aliases(
    tree: ast.Module, repro_parts: tuple[str, ...] | None
) -> dict[str, str]:
    """Map local names to dotted import targets for one module.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from .enumerate_exact
    import cut_profile`` inside ``repro/cuts/x.py`` → ``{"cut_profile":
    "repro.cuts.enumerate_exact.cut_profile"}``.  Relative imports need
    the module's package coordinates; outside the repro tree
    (``repro_parts is None``) they are skipped.
    """
    pkg: tuple[str, ...] | None = None
    if repro_parts is not None:
        pkg = ("repro",) + tuple(repro_parts[:-1])
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    top = a.name.split(".", 1)[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                base = node.module or ""
            else:
                if pkg is None or node.level - 1 > len(pkg):
                    continue
                stem = pkg if node.level == 1 else pkg[: len(pkg) - (node.level - 1)]
                base = ".".join(stem)
                if node.module:
                    base = f"{base}.{node.module}" if base else node.module
            for a in node.names:
                if a.name == "*":
                    continue
                local = a.asname or a.name
                aliases[local] = f"{base}.{a.name}" if base else a.name
    return aliases


@dataclass
class CallSite:
    """One ``Call`` node, with locally resolved callee and argument taint."""

    index: int
    lineno: int
    col: int
    callee: str | None          # dotted resolution, None if unknown
    method: str | None          # attribute name for obj.method(...) calls
    args: list[list] = field(default_factory=list)
    kwargs: dict[str, list] = field(default_factory=dict)
    receiver: list = field(default_factory=list)  # atoms of obj in obj.m()

    def to_dict(self) -> dict:
        return {
            "index": self.index, "lineno": self.lineno, "col": self.col,
            "callee": self.callee, "method": self.method, "args": self.args,
            "kwargs": self.kwargs, "receiver": self.receiver,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CallSite":
        return cls(
            index=d["index"], lineno=d["lineno"], col=d["col"],
            callee=d["callee"], method=d["method"],
            args=[_atoms_in(a) for a in d["args"]],
            kwargs={k: _atoms_in(v) for k, v in d["kwargs"].items()},
            receiver=_atoms_in(d["receiver"]),
        )


@dataclass
class LoopSummary:
    """A ``for``/``while`` loop and what its body reaches."""

    lineno: int
    col: int
    kind: str                   # "for" | "while"
    polls: bool                 # budget poll directly in the body
    call_indices: list[int] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "lineno": self.lineno, "col": self.col, "kind": self.kind,
            "polls": self.polls, "call_indices": self.call_indices,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LoopSummary":
        return cls(**d)


@dataclass
class FunctionSummary:
    """Everything the project phase needs to know about one function.

    ``name`` is the in-module qualname (``kl_refine``,
    ``SolverCache.put_profile``); module-level statements are collected
    under the pseudo-function ``<module>``.  Nested functions are
    flattened into their enclosing top-level unit: their calls, loops and
    polls are attributed to the parent, which matches how closures like
    the cascade's tier hooks actually execute.
    """

    name: str
    lineno: int
    params: list[str] = field(default_factory=list)
    polls: bool = False
    calls: list[CallSite] = field(default_factory=list)
    loops: list[LoopSummary] = field(default_factory=list)
    returns: list = field(default_factory=list)   # atoms
    #: repro.* names *referenced* but not called here — functions passed as
    #: values (heuristic tuples, dispatch dicts).  Reachability-only edges:
    #: a reference may be called by whoever receives it, so it keeps the
    #: target in RL010's scope, but it never counts as a poll or a flow.
    refs: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "name": self.name, "lineno": self.lineno, "params": self.params,
            "polls": self.polls,
            "calls": [c.to_dict() for c in self.calls],
            "loops": [l.to_dict() for l in self.loops],
            "returns": self.returns,
            "refs": self.refs,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FunctionSummary":
        return cls(
            name=d["name"], lineno=d["lineno"], params=d["params"],
            polls=d["polls"],
            calls=[CallSite.from_dict(c) for c in d["calls"]],
            loops=[LoopSummary.from_dict(l) for l in d["loops"]],
            returns=_atoms_in(d["returns"]),
            refs=d["refs"],
        )


@dataclass
class ModuleSummary:
    """The per-module output of the extraction pass (JSON round-trips)."""

    module: str | None          # dotted name incl. __init__, None outside repro
    path: str                   # as-given report path
    aliases: dict[str, str] = field(default_factory=dict)
    defs: dict[str, str] = field(default_factory=dict)  # name → func|class
    functions: list[FunctionSummary] = field(default_factory=list)

    @property
    def namespace(self) -> str | None:
        """Dotted prefix its defs live under (``__init__`` folds away)."""
        if self.module is None:
            return None
        if self.module.endswith(".__init__"):
            return self.module[: -len(".__init__")]
        return self.module

    def to_dict(self) -> dict:
        return {
            "format": SUMMARY_FORMAT,
            "module": self.module, "path": self.path,
            "aliases": self.aliases, "defs": self.defs,
            "functions": [f.to_dict() for f in self.functions],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModuleSummary":
        if d.get("format") != SUMMARY_FORMAT:
            raise ValueError(f"summary format mismatch: {d.get('format')!r}")
        return cls(
            module=d["module"], path=d["path"], aliases=d["aliases"],
            defs=d["defs"],
            functions=[FunctionSummary.from_dict(f) for f in d["functions"]],
        )


def _atoms_in(atoms: list) -> list:
    """Normalize loaded atoms to plain lists (the canonical JSON form)."""
    return [list(a) for a in atoms]


def _atoms_out(atoms: set) -> list:
    return sorted((list(a) for a in atoms), key=repr)


def extract_module_summary(module, config) -> ModuleSummary:
    """Extract a :class:`ModuleSummary` from a parsed ``ModuleInfo``."""
    aliases = module.symbols
    tree = module.tree
    defs: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[stmt.name] = "func"
        elif isinstance(stmt, ast.ClassDef):
            defs[stmt.name] = "class"

    dotted = module.dotted_name
    ns = None
    if dotted is not None:
        ns = dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted

    units: list[tuple[str, str | None, list[str], list[ast.stmt], int]] = []
    module_stmts: list[ast.stmt] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            units.append((stmt.name, None, _param_names(stmt), stmt.body, stmt.lineno))
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    units.append(
                        (f"{stmt.name}.{sub.name}", stmt.name,
                         _param_names(sub), sub.body, sub.lineno)
                    )
                else:
                    module_stmts.append(sub)
        else:
            module_stmts.append(stmt)
    units.append(("<module>", None, [], module_stmts, 1))

    functions = [
        _FunctionAnalyzer(
            name, class_name, params, body, lineno,
            ns=ns, aliases=aliases, defs=defs, config=config,
        ).run()
        for name, class_name, params, body, lineno in units
    ]
    return ModuleSummary(
        module=dotted, path=str(module.path), aliases=aliases,
        defs=defs, functions=functions,
    )


def _param_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs + a.args]
    if a.vararg:
        names.append(a.vararg.arg)
    names.extend(p.arg for p in a.kwonlyargs)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return names


def _iter_stmts(body: list[ast.stmt]):
    """All statements, recursively, nested function bodies included."""
    for stmt in body:
        yield stmt
        for block in _child_blocks(stmt):
            yield from _iter_stmts(block)


def _child_blocks(stmt: ast.stmt) -> list[list[ast.stmt]]:
    blocks = []
    for name in ("body", "orelse", "finalbody"):
        block = getattr(stmt, name, None)
        if block and isinstance(block[0], ast.stmt):
            blocks.append(block)
    for handler in getattr(stmt, "handlers", []):
        blocks.append(handler.body)
    return blocks


def _collect_returns(body: list[ast.stmt]) -> list[ast.Return]:
    """Return statements of *this* function — stop at nested defs."""
    out: list[ast.Return] = []
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, ast.Return):
            out.append(stmt)
        for block in _child_blocks(stmt):
            out.extend(_collect_returns(block))
    return out


class _FunctionAnalyzer:
    """Flow-insensitive local taint + structure for one function unit."""

    _MAX_ROUNDS = 20

    def __init__(self, name, class_name, params, body, lineno, *,
                 ns, aliases, defs, config):
        self.name = name
        self.class_name = class_name
        self.params = params
        self.body = body
        self.lineno = lineno
        self.ns = ns
        self.aliases = aliases
        self.defs = defs
        self.source_modes = dict(config.taint_sources)
        self.poll_methods = frozenset(config.budget_poll_methods)
        self.env: dict[str, set] = {p: {("param", i)} for i, p in enumerate(params)}
        # Stable call-site numbering: statement order, BFS within each.
        self.call_nodes: list[ast.Call] = []
        self.site_index: dict[int, int] = {}
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    self.site_index[id(node)] = len(self.call_nodes)
                    self.call_nodes.append(node)
        self.sites: dict[int, CallSite] = {}
        self._record = False

    # ------------------------------------------------------------- run

    def run(self) -> FunctionSummary:
        stmts = list(_iter_stmts(self.body))
        for _ in range(self._MAX_ROUNDS):
            if not self._pass_stmts(stmts):
                break
        # Final recording pass: env is stable, capture per-site atoms.
        self._record = True
        self._pass_stmts(stmts)
        # Sweep call nodes the statement transfer never reaches
        # (decorators, default values): every indexed site must exist so
        # ``calls[i].index == i`` holds for the project phase.
        for node in self.call_nodes:
            if self.site_index[id(node)] not in self.sites:
                self._atoms(node)

        returns: set = set()
        for ret in _collect_returns(self.body):
            if ret.value is not None:
                returns |= self._atoms(ret.value)

        polls = any(self._is_poll(c) for c in self.call_nodes)
        loops = self._loops(stmts)
        calls = [self.sites[i] for i in sorted(self.sites)]
        return FunctionSummary(
            name=self.name, lineno=self.lineno, params=self.params,
            polls=polls, calls=calls, loops=loops,
            returns=_atoms_out(returns), refs=self._refs(stmts),
        )

    def _refs(self, stmts) -> list[str]:
        """repro.* names loaded as values (dispatch tables, heuristic
        tuples) — call-func positions are covered by ``calls`` already and
        duplicating them here is harmless."""
        refs: set[str] = set()
        for stmt in stmts:
            for node in ast.walk(stmt):
                if not isinstance(node, (ast.Name, ast.Attribute)):
                    continue
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue
                dotted = self._dotted(node)
                if dotted and (dotted == "repro" or dotted.startswith("repro.")):
                    refs.add(dotted)
        return sorted(refs)

    def _pass_stmts(self, stmts) -> bool:
        before = sum(len(v) for v in self.env.values())
        for stmt in stmts:
            self._transfer(stmt)
        return sum(len(v) for v in self.env.values()) != before

    # -------------------------------------------------------- transfer

    def _transfer(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            atoms = self._atoms(stmt.value)
            for target in stmt.targets:
                self._bind(target, atoms)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self._atoms(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self._bind(stmt.target, self._atoms(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            atoms = self._atoms(stmt.iter)
            if _is_set_expr(stmt.iter):
                atoms = atoms | {("src", "set-order", stmt.lineno)}
            self._bind(stmt.target, atoms)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(item.optional_vars, self._atoms(item.context_expr))
        elif isinstance(stmt, ast.Expr):
            self._atoms(stmt.value)  # walk for NamedExpr bindings / recording
        elif isinstance(stmt, (ast.If, ast.While)):
            self._atoms(stmt.test)
        elif isinstance(stmt, (ast.Return, ast.Raise, ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._atoms(child)

    def _bind(self, target: ast.expr, atoms: set) -> None:
        if isinstance(target, ast.Name):
            self.env.setdefault(target.id, set()).update(atoms)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, atoms)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind(elt, atoms)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            # x[k] = v / x.f = v taints the container x itself.
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name):
                self.env.setdefault(base.id, set()).update(atoms)

    # ----------------------------------------------------------- atoms

    def _atoms(self, node: ast.expr) -> set:
        if isinstance(node, ast.Name):
            return set(self.env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._call_atoms(node)
        if isinstance(node, ast.NamedExpr):
            atoms = self._atoms(node.value)
            self._bind(node.target, atoms)
            return atoms
        if isinstance(node, ast.Lambda):
            return set()  # a function value, not data
        if isinstance(node, ast.Attribute):
            return self._atoms(node.value)
        out: set = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out |= self._atoms(child)
            elif isinstance(child, ast.comprehension):
                atoms = self._atoms(child.iter)
                if _is_set_expr(child.iter):
                    atoms = atoms | {("src", "set-order", node.lineno)}
                self._bind(child.target, atoms)
                out |= atoms
            elif isinstance(child, ast.keyword):
                out |= self._atoms(child.value)
        return out

    def _call_atoms(self, node: ast.Call) -> set:
        site = self.site_index.get(id(node))
        dotted = self._dotted(node.func)
        arg_atoms = [self._atoms(a) for a in node.args]
        kw_atoms = {
            (k.arg or "**"): self._atoms(k.value) for k in node.keywords
        }
        recv = (
            self._atoms(node.func.value)
            if isinstance(node.func, ast.Attribute) else set()
        )
        if self._record and site is not None:
            self.sites[site] = CallSite(
                index=site, lineno=node.lineno, col=node.col_offset,
                callee=dotted,
                method=node.func.attr if isinstance(node.func, ast.Attribute) else None,
                args=[_atoms_out(a) for a in arg_atoms],
                kwargs={k: _atoms_out(v) for k, v in kw_atoms.items()},
                receiver=_atoms_out(recv),
            )

        mode = self.source_modes.get(dotted)
        if mode == "always" or (
            mode == "unseeded" and not node.args and not node.keywords
        ):
            return {("src", dotted, node.lineno)}

        plain_builtin = dotted is None and isinstance(node.func, ast.Name)
        if plain_builtin and node.func.id == "sorted":
            merged: set = set()
            for a in arg_atoms:
                merged |= a
            for v in kw_atoms.values():
                merged |= v
            return {a for a in merged if not (a[0] == "src" and a[1] == "set-order")}
        if plain_builtin and node.func.id in ("list", "tuple") and node.args:
            if _is_set_expr(node.args[0]):
                return arg_atoms[0] | {("src", "set-order", node.lineno)}

        if dotted is not None and (dotted == "repro" or dotted.startswith("repro.")):
            return {("call", site)} if site is not None else set()

        # External/unresolved call: arguments and receiver pass through.
        out = set(recv)
        for a in arg_atoms:
            out |= a
        for v in kw_atoms.values():
            out |= v
        return out

    def _dotted(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in self.env and self.env[node.id]:
                return None  # locally rebound name shadows any import
            if node.id in self.aliases:
                return self.aliases[node.id]
            if node.id in self.defs and self.ns is not None:
                return f"{self.ns}.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name) and node.value.id == "self"
                and self.class_name and self.ns is not None
            ):
                return f"{self.ns}.{self.class_name}.{node.attr}"
            base = self._dotted(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    # ------------------------------------------------- polls and loops

    def _is_poll(self, node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in self.poll_methods
        )

    def _loops(self, stmts) -> list[LoopSummary]:
        loops = []
        for stmt in stmts:
            if not isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                continue
            body_calls: list[ast.Call] = []
            for sub in stmt.body:
                for node in ast.walk(sub):
                    if isinstance(node, ast.Call):
                        body_calls.append(node)
            loops.append(
                LoopSummary(
                    lineno=stmt.lineno, col=stmt.col_offset,
                    kind="while" if isinstance(stmt, ast.While) else "for",
                    polls=any(self._is_poll(c) for c in body_calls),
                    call_indices=sorted(
                        self.site_index[id(c)] for c in body_calls
                        if id(c) in self.site_index
                    ),
                )
            )
        return loops


def _is_set_expr(node: ast.expr) -> bool:
    """Structurally a set: ``{...}`` literal, setcomp, or ``set(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _SET_BUILTINS
    )


def summarize_modules(modules, config, cache=None):
    """Summaries for a list of ``ModuleInfo``, via the cache when given.

    Returns ``{report_path: ModuleSummary}`` in module order.  With a
    :class:`~repro.lint.analysis.cache.SummaryCache`, unchanged files
    (same source digest, same analysis config) load from disk and only
    changed modules are re-extracted — the cache counts hits/misses so
    callers (and CI) can assert exactly that.
    """
    out: dict[str, ModuleSummary] = {}
    for module in modules:
        summary = None
        if cache is not None:
            summary = cache.load(module.source, config)
        if summary is None:
            summary = extract_module_summary(module, config)
            if cache is not None:
                cache.store(module.source, config, summary)
        out[str(module.path)] = summary
    return out
