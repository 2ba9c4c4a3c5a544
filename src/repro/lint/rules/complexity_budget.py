"""RL008 complexity-budget: exhaustive kernels must honor the batch contract.

The exhaustive solvers (the Theorem 2.20 enumeration sweep, the cyclic
pin sweep behind Lemmas 3.2/3.3) promise *O(E) vector operations per
batch*: the only Python-level loop iterates over batches or pins, and
every iteration does its real work in NumPy lanes.  Two static smells
break that budget:

* an **exponential Python loop** — ``for ... in range(1 << k)`` (or
  ``range(2 ** k)``) with a non-trivial exponent interprets ``2^k``
  iterations of Python bytecode.  Legitimate instances exist (the
  layered DP's pin loop runs one *vectorized sweep* per iteration), but
  each must say so: this rule's suppressions require a justification;
* an **unbounded batch size** — a ``*_BITS``/``batch_bits``/``max_bits``
  constant or default above 24 materializes gigabyte-scale batch lanes.
  The enumeration sweep's fixed tile (``_TILE_BITS`` in
  :mod:`repro.cuts.enumerate_exact`) is 2^15 masks.

Scope: the declared hot-path modules (``LintConfig.hot_paths``), same as
RL003.  Suppress with
``# repro-lint: disable=RL008 -- <why the budget still holds>``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..model import LintContext, ModuleInfo
from ..registry import Rule, register

__all__ = ["ComplexityBudgetRule"]

#: batch exponents above this materialize > 100M-element int64 lanes.
_MAX_BATCH_BITS = 24

#: shift/power exponents at or above this are "non-trivial" even as
#: literals (2^16 Python iterations is already a budget breach).
_TRIVIAL_EXPONENT = 16

_BITS_NAMES = frozenset({"batch_bits", "max_bits", "bits"})


def _const_int(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    return None


def _exponential(expr: ast.AST) -> bool:
    """Whether ``expr`` contains a ``1 << k`` / ``2 ** k`` with big ``k``."""
    for node in ast.walk(expr):
        if not isinstance(node, ast.BinOp):
            continue
        if isinstance(node.op, ast.LShift) and _const_int(node.left) == 1:
            k = _const_int(node.right)
            if k is None or k >= _TRIVIAL_EXPONENT:
                return True
        if isinstance(node.op, ast.Pow) and _const_int(node.left) == 2:
            k = _const_int(node.right)
            if k is None or k >= _TRIVIAL_EXPONENT:
                return True
    return False


def _is_range_call(expr: ast.AST) -> bool:
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "range"
    )


def _bits_name(name: str) -> bool:
    return name.endswith("_BITS") or name.lower() in _BITS_NAMES


@register
class ComplexityBudgetRule(Rule):
    rule_id = "RL008"
    name = "complexity-budget"
    description = (
        "hot-path kernels must keep the O(E)-vector-ops-per-batch "
        "contract: no exponential Python range() loops without a "
        "justified waiver, and no batch-size exponents above 24"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        relpath = module.repro_relpath
        if relpath is None or not ctx.config.is_hot_path(relpath):
            return
        path = str(module.path)
        for node in ast.walk(module.tree):
            iters: list[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                iters = [gen.iter for gen in node.generators]
            for it in iters:
                if _is_range_call(it) and _exponential(it):
                    yield Finding(
                        path, node.lineno, node.col_offset, self.rule_id,
                        f"exponential Python loop 'range(2^k)' in hot-path "
                        f"module {relpath} interprets every iteration; batch "
                        f"the work into NumPy lanes, or suppress with "
                        f"'# repro-lint: disable=RL008 -- <why each "
                        f"iteration is vectorized>'",
                    )
                    break
            targets: list[tuple[str, ast.AST]] = []
            if isinstance(node, ast.Assign):
                targets = [
                    (t.id, node.value)
                    for t in node.targets if isinstance(t, ast.Name)
                ]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    targets = [(node.target.id, node.value)]
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                pos = args.posonlyargs + args.args
                for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                        args.defaults):
                    targets.append((arg.arg, default))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        targets.append((arg.arg, default))
            for name, value in targets:
                v = _const_int(value)
                if _bits_name(name) and v is not None and v > _MAX_BATCH_BITS:
                    yield Finding(
                        path, value.lineno, value.col_offset, self.rule_id,
                        f"batch exponent {name}={v} exceeds the complexity "
                        f"budget's ceiling of {_MAX_BATCH_BITS} (2^{v} int64 "
                        f"lane elements per batch); sweep in fixed tiles "
                        f"that fit in cache instead",
                    )
