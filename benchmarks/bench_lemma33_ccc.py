"""L33 — Lemma 3.3: ``BW(CCCn) = n/2``.

Exact values by the cascade's exact tiers for CCC4/CCC8; its claim tier
beyond: the verified dimension cut plus the lemma, whose ``Wn``-embedding
lower bound (measured congestion 2) is shown below the table.
"""

from repro.core import solve_with_fallback
from repro.cuts import ccc_dimension_cut
from repro.embeddings import bisection_lower_bound, wrapped_into_ccc
from repro.topology import cube_connected_cycles

from _report import emit


def _rows():
    rows = [f"{'n':>6} {'BW(CCCn)':>10} {'paper n/2':>10}  evidence"]
    for n in (4, 8, 16, 64):
        cert = solve_with_fallback(cube_connected_cycles(n))
        ev = "exact" if n <= 8 else "Wn embedding / dimension cut"
        rows.append(f"{n:>6} {int(cert.upper):>10} {n // 2:>10}  {ev}")
    emb, _ = wrapped_into_ccc(16)
    rows.append("")
    rows.append(f"W16 -> CCC16 embedding: {emb.summary()} "
                f"=> BW(CCC16) >= {bisection_lower_bound(emb, 16)}")
    return rows


def test_lemma_33_series(benchmark):
    rows = _rows()
    emit("lemma33_ccc", rows)
    cut = benchmark(lambda: ccc_dimension_cut(cube_connected_cycles(256)))
    assert cut.capacity == 128


def test_embedding_kernel(benchmark):
    emb, _ = benchmark(lambda: wrapped_into_ccc(32))
    assert emb.congestion == 2
