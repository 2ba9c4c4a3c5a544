"""Parsed-module and run-context models handed to every rule."""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .config import LintConfig

__all__ = ["ModuleInfo", "LintContext"]


@dataclass
class ModuleInfo:
    """One parsed source file plus the repo coordinates the rules need."""

    path: Path            # as given on the command line (report key)
    source: str
    tree: ast.Module
    repro_parts: tuple[str, ...] | None  # ("cuts", "layered_dp") or None

    @classmethod
    def from_source(cls, path: Path | str, source: str) -> "ModuleInfo":
        path = Path(path)
        return cls(
            path=path,
            source=source,
            tree=ast.parse(source, filename=str(path)),
            repro_parts=_repro_parts(path),
        )

    @property
    def dotted_name(self) -> str | None:
        """``repro.cuts.layered_dp``-style name, None outside the package."""
        if self.repro_parts is None:
            return None
        return ".".join(("repro",) + self.repro_parts)

    @property
    def package(self) -> str | None:
        """Top-level layer: subpackage name, or the module name itself for
        top-level modules (``cli``, ``io``, ``__init__``, ``__main__``)."""
        if not self.repro_parts:
            return None
        return self.repro_parts[0]

    @property
    def repro_relpath(self) -> str | None:
        """Path relative to the ``repro`` package root, e.g. ``cuts/cut.py``."""
        if self.repro_parts is None:
            return None
        return "/".join(self.repro_parts) + ".py"

    @property
    def symbols(self) -> dict[str, str]:
        """Resolved import aliases: local name → dotted target.

        ``{"np": "numpy", "cut_profile": "repro.cuts.enumerate_exact
        .cut_profile", ...}`` — relative imports resolved against this
        module's package.  Computed once on first access (the whole-
        program analysis layer consults it per call site).
        """
        cached = self.__dict__.get("_symbols")
        if cached is None:
            from .analysis.summaries import resolve_import_aliases

            cached = resolve_import_aliases(self.tree, self.repro_parts)
            self.__dict__["_symbols"] = cached
        return cached


def _repro_parts(path: Path) -> tuple[str, ...] | None:
    """Locate ``path`` inside a ``repro`` package tree, if it is in one."""
    parts = path.parts
    for i, part in enumerate(parts):
        if part == "repro" and i + 1 < len(parts) and parts[-1].endswith(".py"):
            inner = parts[i + 1:]
            module = inner[-1][:-3]  # strip .py; __init__ stays literal
            return tuple(inner[:-1]) + (module,)
    return None


@dataclass
class LintContext:
    """Everything a rule may consult beyond its own module."""

    config: LintConfig
    modules: list[ModuleInfo] = field(default_factory=list)
    #: Whole-program analysis (call graph, taint), attached by the runner
    #: when an interprocedural rule (RL010-RL011) is enabled; None in
    #: plain per-module runs.  See :mod:`repro.lint.analysis`.
    analysis: object | None = None

    def __post_init__(self) -> None:
        self._index_modules()

    def _index_modules(self) -> None:
        self._by_dotted: dict[str, "ModuleInfo"] = {}
        for mod in self.modules:
            dotted = mod.dotted_name
            if dotted is None:
                continue
            self._by_dotted[dotted] = mod
            if dotted.endswith(".__init__"):
                # A package resolves under both spellings.
                self._by_dotted.setdefault(dotted[: -len(".__init__")], mod)
        self._indexed_count = len(self.modules)

    def module_by_dotted(self, dotted: str) -> ModuleInfo | None:
        """O(1) lookup by ``repro.cuts.layered_dp``-style name.

        The index is built once in ``__post_init__`` (this used to be an
        O(n) scan per call — per rule per module); it is rebuilt lazily if
        a test appends modules after construction.
        """
        if len(self.modules) != self._indexed_count:
            self._index_modules()
        return self._by_dotted.get(dotted)
