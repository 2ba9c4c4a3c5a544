"""Multi-process cache hammering: concurrent writers lose no entries.

Each entry is its own file, replaced atomically, and no write reads or
rewrites another entry, so writers need no lock.  The stress test runs N
processes putting and getting on the same orbit under distinct entry
kinds — every kind must survive to the end, every payload must stay
readable, and every witness must still verify.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.cuts.enumerate_exact import cut_profile
from repro.perf.cache import SolverCache
from repro.topology import torus

_PROCS = 6
_ROUNDS = 20


def _hammer(root: str, worker: int, rounds: int) -> int:
    """One worker: interleave certificate puts, profile puts, and gets."""
    cache = SolverCache(root)
    net = torus(3, 3)
    profile = cut_profile(net)
    side = profile.witness_cut(net.num_nodes // 2).side
    fields = {
        "quantity": f"BW({net.name})",
        "lower": int(profile.bisection_width()),
        "upper": int(profile.bisection_width()),
        "lower_evidence": f"proc-{worker} exhaustive",
        "upper_evidence": f"proc-{worker} exhaustive",
    }
    ok = 0
    for r in range(rounds):
        cache.put_certificate(
            net, fields, witness_side=side, kind=f"proc-{worker}"
        )
        if r % 3 == worker % 3:
            cache.put_profile(net, profile, version=f"proc-{worker}")
        got = cache.get_certificate(net, kind=f"proc-{worker}")
        if got is not None and got["witness_side"] is not None:
            ok += 1
    return ok


@pytest.mark.slow
def test_concurrent_processes_lose_no_index_entries(tmp_path):
    root = str(tmp_path / "cache")
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(_PROCS) as pool:
        oks = pool.starmap(
            _hammer, [(root, w, _ROUNDS) for w in range(_PROCS)]
        )
    # Every worker's final write must have survived the melee: one
    # certificate entry per kind, one profile entry per version.
    stats = SolverCache(root).stats()
    assert stats["certificates"] == _PROCS, stats
    assert stats["profiles"] == _PROCS, stats
    assert stats["entries"] == 2 * _PROCS, stats
    # And everything still reads back verified through a fresh handle.
    cache = SolverCache(root)
    net = torus(3, 3)
    for worker in range(_PROCS):
        got = cache.get_certificate(net, kind=f"proc-{worker}")
        assert got is not None and got["lower"] == got["upper"]
        assert got["witness_side"] is not None
        prof = cache.get_profile(net, version=f"proc-{worker}")
        assert prof is not None and prof.complete
    # Each worker's own reads during the run mostly succeeded too.
    assert all(ok > 0 for ok in oks)


def test_lock_file_does_not_break_single_process_reads(tmp_path):
    """A cold read takes no lock and creates nothing."""
    cache = SolverCache(tmp_path / "cache")
    assert cache.get_certificate(torus(3, 3)) is None
    assert not (tmp_path / "cache").exists()  # reads never create the root
