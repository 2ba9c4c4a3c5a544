"""L32 — Lemma 3.2: ``BW(Wn) = n``.

Exact values by the cascade's exact tiers through ``W8``; its claim tier
beyond: the verified column-cut witness (= n) plus the lemma.
"""

from repro.core import solve_with_fallback
from repro.cuts import column_prefix_cut, layered_cut_profile
from repro.topology import wrapped_butterfly

from _report import emit


def _rows():
    rows = [f"{'n':>6} {'BW(Wn)':>10} {'paper':>6}  evidence"]
    for n in (4, 8, 16, 64, 256):
        cert = solve_with_fallback(wrapped_butterfly(n))
        ev = "exact" if n <= 8 else "Lemma 3.2 + verified column cut"
        rows.append(f"{n:>6} {int(cert.upper):>10} {n:>6}  {ev}")
    return rows


def test_lemma_32_series(benchmark):
    rows = _rows()
    emit("lemma32_wn", rows)
    cut = benchmark(lambda: column_prefix_cut(wrapped_butterfly(1024)))
    assert cut.capacity == 1024


def test_exact_dp_w4(benchmark):
    w4 = wrapped_butterfly(4)
    val = benchmark(
        lambda: layered_cut_profile(w4, with_witnesses=False).bisection_width()
    )
    assert val == 4
