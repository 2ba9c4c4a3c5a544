"""RL007 obs-timing: time the pipeline through obs spans, not raw clocks.

The observability layer (:mod:`repro.obs`) exists so every solver timing
lands in one run timeline; a stray ``time.monotonic()`` or
``time.perf_counter()`` inside the cut or routing pipeline produces a
measurement the timeline never sees.  This rule flags direct uses of the
monotonic-clock family — ``time.monotonic``, ``time.perf_counter`` and
their ``_ns`` variants, whether as ``time.X`` attributes or pulled in via
``from time import X`` — inside the instrumented packages and suggests
``repro.obs.trace`` instead.

Advisory (``warning``): legitimate non-span uses exist — the obs collector
is *built* on ``perf_counter``, and :mod:`repro.resilience.budget` keeps
deadline arithmetic on a raw clock by design — and each carries an inline
``# repro-lint: disable=RL007 -- reason`` suppression.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding, Severity
from ..model import LintContext, ModuleInfo
from ..registry import Rule, register

__all__ = ["ObsTimingRule"]

#: Packages whose timing should flow through obs spans.  ``dist`` joined
#: when fleet telemetry landed: coordinator/worker hot paths now have a
#: proper span channel (the telemetry shard files), so a raw clock there
#: is a measurement the merged timeline never sees.
_SCOPED_PACKAGES = frozenset({"cuts", "routing", "obs", "resilience", "dist", "serve"})

_CLOCK_NAMES = frozenset(
    {"monotonic", "perf_counter", "monotonic_ns", "perf_counter_ns"}
)


@register
class ObsTimingRule(Rule):
    rule_id = "RL007"
    name = "obs-timing"
    description = (
        "direct time.monotonic()/time.perf_counter() in the instrumented "
        "packages bypasses repro.obs spans; wrap the timed region in "
        "obs.trace(...) so the run timeline sees it"
    )

    def check(self, module: ModuleInfo, ctx: LintContext) -> Iterator[Finding]:
        if module.package not in _SCOPED_PACKAGES:
            return
        path = str(module.path)
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _CLOCK_NAMES
                and isinstance(node.value, ast.Name)
                and node.value.id == "time"
            ):
                yield Finding(
                    path, node.lineno, node.col_offset, self.rule_id,
                    f"direct monotonic clock 'time.{node.attr}' bypasses "
                    f"repro.obs; time this region with obs.trace(...) so the "
                    f"run timeline records it",
                    Severity.WARNING,
                )
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _CLOCK_NAMES:
                        yield Finding(
                            path, node.lineno, node.col_offset, self.rule_id,
                            f"importing '{alias.name}' from time bypasses "
                            f"repro.obs; time this region with obs.trace(...) "
                            f"so the run timeline records it",
                            Severity.WARNING,
                        )
                        break
