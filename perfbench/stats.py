"""Sample summaries and the metric-name contract with BENCHMARK.json."""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path
from statistics import median

#: What a metric name may look like.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = ("50", "90", "95", "99", "99.9", "99.99")


def _rank(p, n: int) -> int:
    """1-based nearest rank of the ``p``-th percentile of ``n`` samples.

    Exact arithmetic: ``99.9 * 10000 / 100`` must be 9990, not 9990.000…2.
    """
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p) -> float:
    """Nearest-rank ``p``-th percentile of a non-empty sample."""
    xs = sorted(values)
    return xs[_rank(p, len(xs)) - 1]


def tail(values):
    """``(p, value)`` at the highest percentile of :data:`TAIL_PERCENTILES`
    that leaves at least ten samples beyond its rank; ``None`` below 20."""
    n = len(values)
    best = None
    for p in TAIL_PERCENTILES:
        if n - _rank(p, n) >= 10:
            best = (float(p), percentile(values, p))
    return best


def describe(name: str, values, unit: str) -> str:
    """One summary line: median, tail percentile and sample count."""
    if not values:
        return f"{name}: no samples"
    t = tail(values)
    tail_text = f"p{t[0]:g} {t[1]:.4f} {unit}" if t else "no tail (under 20 samples)"
    return f"{name}: median {median(values):.4f} {unit}, {tail_text}, n={len(values)}"


def declared(path) -> tuple[dict[str, str], dict[str, str]]:
    """``(end_to_end, per_layer)`` metrics of BENCHMARK.json as ``{name: unit}``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in doc["end_to_end"]},
        {m["name"]: m["unit"] for m in doc["per_layer"]},
    )
