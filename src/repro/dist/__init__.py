"""Fault-tolerant distributed solving: leases, work stealing, merging.

The serial exact solvers already survive interruption (budgets,
checkpoints, supervised pools); this package scales the same guarantees
across a *fleet*.  The enumeration mask space is partitioned into shards
(:func:`repro.cuts.enumerate_exact.enumeration_shards`), a file-backed
:class:`~repro.dist.coordinator.ShardCoordinator` leases shards to
worker processes with heartbeats and expiry-based work stealing, and the
completed-shard union merges — bit-identically to an uninterrupted
serial sweep — into a :class:`~repro.cuts.enumerate_exact.CutProfile`.

The resilience contract, in one line: **any union of completed shards is
a certified upper bound, and the full union is the exact answer** —
regardless of crashes, SIGKILLs, stalls or restarts in between.  See
``docs/distributed.md`` for the lease protocol and failure matrix.

This package must stay importable without :mod:`repro.verify` (the
layer DAG of lint rule RL002): certification of distributed results
happens in its one caller, :func:`repro.core.fallback.solve_with_fallback`,
which attaches shard history as certificate provenance.
"""

from .coordinator import Lease, ShardCoordinator
from .run import (
    dist_key,
    distributed_cut_profile,
    merge_payloads,
    merge_to_profile,
)
from .worker import worker_main

__all__ = [
    "Lease",
    "ShardCoordinator",
    "dist_key",
    "distributed_cut_profile",
    "merge_payloads",
    "merge_to_profile",
    "worker_main",
]
