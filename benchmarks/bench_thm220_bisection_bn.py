"""T220 / FOLK — Theorem 2.20: ``BW(Bn) = 2(sqrt 2 - 1) n + o(n)``.

Regenerates the theorem as a finite-size series:

* exact ``BW(Bn)`` by the cascade's exact tiers for ``n <= 8``;
* certified intervals from the cascade's claim tier for
  ``n = 2^10 .. 2^13``: the strict Theorem 2.20 floor below, the verified
  construction above — strictly below the folklore value ``n`` (the
  paper's headline surprise);
* the analytic pullback-plan series out to ``n = 2^3200``, descending
  toward the limit ``2(sqrt 2 - 1) ≈ 0.8284``.
"""

import math

import pytest

from repro.core import solve_with_fallback
from repro.cuts import best_plan, build_planned_bisection, layered_cut_profile
from repro.topology import butterfly

from _report import emit, emit_json

LIMIT = 2 * (math.sqrt(2) - 1)


def _series():
    """Text table plus the structured rows RL006 consumes from the JSON."""
    lines = [f"{'n':>10} {'lower':>12} {'upper':>12} {'upper/n':>8}  evidence"]
    records = []
    for n in (2, 4, 8):
        cert = solve_with_fallback(butterfly(n))
        lines.append(
            f"{n:>10} {cert.lower:>12} {cert.upper:>12} {cert.upper / n:>8.4f}  exact"
        )
        records.append({"n": n, "lower": int(cert.lower), "upper": int(cert.upper),
                        "ratio": cert.upper / n, "evidence": "exact"})
    for lg in (10, 11, 12, 13):
        n = 1 << lg
        cert = solve_with_fallback(butterfly(n))
        below = "< n  (folklore refuted)" if cert.upper < n else ""
        lines.append(
            f"{n:>10} {cert.lower:>12} {cert.upper:>12} {cert.upper / n:>8.4f}  "
            f"verified cut {below}"
        )
        records.append({"n": n, "lower": int(cert.lower), "upper": int(cert.upper),
                        "ratio": cert.upper / n,
                        "evidence": f"verified cut {below}".strip()})
    lines.append("")
    lines.append("analytic pullback plans (pure arithmetic, no graph built):")
    plans = []
    for lg in (20, 50, 100, 200, 400, 800, 1600, 3200):
        plan = best_plan(1 << lg)
        lines.append(
            f"  log n = {lg:>5}: capacity/n = {plan.capacity_over_n:.4f} "
            f"(j = {plan.j}, a = {plan.a}, b = {plan.b})"
        )
        plans.append({"log_n": lg, "capacity_over_n": plan.capacity_over_n,
                      "j": plan.j, "a": plan.a, "b": plan.b})
    lines.append(f"theorem limit 2(sqrt2 - 1) = {LIMIT:.4f}; every row sits strictly above it")
    return lines, records, plans


def test_theorem_220_series(benchmark):
    lines, records, plans = _series()
    emit("thm220_bisection_bn", lines)
    emit_json("thm220_bisection_bn", records,
              meta={"claim": "theorem-2.20", "limit": LIMIT,
                    "analytic_plans": plans})
    # Benchmark the headline kernel: planning + building + verifying the
    # sub-n bisection of B4096.
    plan = best_plan(1 << 12)
    bf = butterfly(1 << 12)
    cut = benchmark(lambda: build_planned_bisection(plan, bf))
    assert cut.capacity == plan.capacity < (1 << 12)


def test_exact_dp_b8(benchmark):
    """The exact-solver kernel of the series (32-node butterfly)."""
    bf = butterfly(8)
    val = benchmark(
        lambda: layered_cut_profile(bf, with_witnesses=False).bisection_width()
    )
    assert val == 8
