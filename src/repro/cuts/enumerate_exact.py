"""Exhaustive exact minimum cuts for small networks.

Enumerates all ``2^{N-1}`` side assignments (the last node is pinned to
``S̄``, halving the space by complement symmetry) in vectorized bitmask
tiles.  For every tile the cut capacity is accumulated edge by edge with
NumPy shifts, so the inner work is ``O(E)`` vector operations per tile and
never a Python loop over masks — the idiom the HPC guides prescribe for
exhaustive kernels.

Two fixed grids make up the batch contract.  A *tile* of
``2^_TILE_BITS`` masks is what :func:`_range_minima` materializes at once:
each ``int64`` lane is then 256 kB and stays in a core's L2.  A *batch* of
``2^_BATCH_BITS`` masks is the unit between budget polls, checkpoint
saves and ``on_batch`` callbacks — about 30 ms of work at 24 nodes.
Neither grid affects results: the profile fold is an elementwise minimum
and the strict-``<`` witness rule keeps the globally lowest achieving
mask under any ascending grid, so any tile or batch size — even a resume
under a different one — is bit-identical to a one-batch sweep.

Feasible to roughly 26 nodes; beyond that use the layered dynamic program
(:mod:`repro.cuts.layered_dp`) when the network is layered, or the
heuristics for upper bounds.  This is the ground truth that anchors the
Section 2.1 quantities — ``BW(G)``, ``BW(G, U)`` and the full cut profile —
at the sizes where Theorem 2.20's ratio can be checked directly.

The central artifact is the *cut profile*: ``profile[c]`` is the minimum
capacity over all cuts with exactly ``c`` counted nodes in ``S``.  The
profile answers every question in the paper at once:

* bisection width = ``profile[N // 2]`` (counted = all nodes);
* ``BW(G, U)`` = ``min(profile[|U| // 2], profile[(|U| + 1) // 2])``
  (counted = ``U``);
* edge expansion ``EE(G, k)`` = ``profile[k]`` (counted = all nodes).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..obs import incr, trace
from ..resilience.budget import Budget
from ..resilience.checkpoint import CheckpointStore, RangeLedger, as_store
from ..topology.base import Network
from .cut import Cut

__all__ = [
    "BATCH_CONTRACT_VERSION",
    "CutProfile",
    "cut_profile",
    "enumeration_shards",
    "min_bisection",
    "min_u_bisection",
    "shard_minima",
    "sweep_ranges",
]

_MAX_NODES = 28

#: Version of the batched-kernel contract (accumulation order, pre-fold
#: checkpoint state, O(E)-vector-ops-per-tile).  It keys checkpoints,
#: cached profiles and coordinator state; bump it when a semantic change
#: would make persisted ranges or cached profiles unsafe to reuse.
BATCH_CONTRACT_VERSION = 2

#: log2 of the masks one :func:`_range_minima` tile materializes.  2^15
#: keeps every instance of 16 nodes or fewer in a single tile.
_TILE_BITS = 15

#: log2 of the masks between budget polls, checkpoint saves and
#: ``on_batch`` calls; an explicit ``batch_bits`` or a budget's
#: ``max_batch_bits`` may only lower it.
_BATCH_BITS = 18


@dataclass(frozen=True)
class CutProfile:
    """Exact minimum-capacity profile by counted-side size.

    Attributes
    ----------
    network:
        The analyzed network.
    counted:
        Indices of the counted node set ``U``.
    values:
        ``values[c]`` = minimum capacity over cuts with ``|S ∩ U| = c``
        (``c = 0 .. |U|``).
    witnesses:
        ``witnesses[c]`` = a side bitmask (as Python int over node indices)
        achieving ``values[c]``.
    complete:
        ``True`` for an uninterrupted (or fully resumed) sweep.  A budget
        expiry yields a *partial* profile: every finite entry of
        ``values`` is still a valid **upper bound** on the true minimum
        (it is the minimum over the examined assignments), and counts
        never observed stay at the ``int64`` sentinel maximum.
    """

    network: Network
    counted: np.ndarray
    values: np.ndarray
    witnesses: np.ndarray
    complete: bool = True

    def witness_cut(self, c: int) -> Cut:
        """Reconstruct an optimal cut with ``|S ∩ U| = c``."""
        mask = int(self.witnesses[c])
        side = np.array(
            [(mask >> v) & 1 for v in range(self.network.num_nodes)], dtype=bool
        )
        return Cut(self.network, side)

    def bisection_width(self) -> int:
        """Minimum capacity over cuts bisecting the counted set."""
        m = len(self.counted)
        return int(min(self.values[m // 2], self.values[(m + 1) // 2]))


def _fingerprint(net: Network, counted: np.ndarray) -> str:
    """Checkpoint key: refuse to resume a different computation's file.

    The key folds in the *structural* identity of the network (the
    order-independent :attr:`~repro.topology.base.Network.edge_digest`,
    not just name and counts — two rewired networks sharing both must not
    share checkpoints), a digest of the counted-node mask, and the batch
    contract version, so any solver change that alters the meaning of
    persisted ranges orphans old files instead of silently resuming them.
    The batch size is deliberately *absent*: the profile fold is an
    idempotent elementwise minimum and :class:`RangeLedger.covers`
    requires full containment, so a resume under a different batch grid
    recomputes uncovered spans and stays bit-identical.
    """
    ind = np.zeros(net.num_nodes, dtype=np.uint8)
    ind[counted] = 1
    cdigest = hashlib.sha256(np.packbits(ind).tobytes()).hexdigest()[:16]
    return (
        f"cut-profile:v{BATCH_CONTRACT_VERSION}:{net.name}:{net.num_nodes}n:"
        f"e{net.edge_digest[:16]}:c{cdigest}"
    )


def _range_minima(
    eu: np.ndarray,
    ev: np.ndarray,
    count_shift: np.ndarray,
    start: int,
    stop: int,
    best: np.ndarray,
    best_mask: np.ndarray,
) -> int:
    """Fold the mask range ``[start, stop)`` into ``best``/``best_mask``.

    The one kernel every exhaustive sweep shares — the serial
    :func:`cut_profile` loop, the distributed shard workers
    (:func:`shard_minima`), and the chaos harness all accumulate through
    this function, so their pre-fold states are bit-identical by
    construction.  The range is swept in ascending tiles of
    ``2^_TILE_BITS`` masks.  Per mask, the cut capacity is the
    xor-popcount over edges and the counted size the shift-popcount over
    ``count_shift``; updates use the strict-``<`` witness rule, so under
    any ascending grid the surviving witness is the lowest achieving
    mask.  Returns the number of masks evaluated.
    """
    one = np.uint64(1)
    m = len(best) - 1
    tile = 1 << _TILE_BITS
    for lo in range(start, stop, tile):
        masks = np.arange(lo, min(lo + tile, stop), dtype=np.uint64)
        # Capacity: per edge, xor of endpoint bits.
        cap = np.zeros(len(masks), dtype=np.int64)
        for u, v in zip(eu, ev):
            cap += (((masks >> u) ^ (masks >> v)) & one).astype(np.int64)
        # Counted size of S.
        cnt = np.zeros(len(masks), dtype=np.int64)
        for v in count_shift:
            cnt += ((masks >> v) & one).astype(np.int64)
        # Reduce per count value.
        order = np.argsort(cnt, kind="stable")
        cnt_sorted = cnt[order]
        cap_sorted = cap[order]
        boundaries = np.searchsorted(cnt_sorted, np.arange(m + 2))
        for c in range(m + 1):
            lo_c, hi_c = boundaries[c], boundaries[c + 1]
            if lo_c == hi_c:
                continue
            seg = cap_sorted[lo_c:hi_c]
            am = int(np.argmin(seg))
            if seg[am] < best[c]:
                best[c] = seg[am]
                best_mask[c] = masks[order[lo_c + am]]
    return stop - start


def _complement_fold(
    best: np.ndarray, best_mask: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Close a pre-fold profile under complement symmetry (copies).

    Pinning node ``n-1`` to S̄ visits each unordered partition once, but
    labels sides; a cut with ``c`` counted in ``S`` is also a cut with
    ``m - c`` counted in ``S``.  Fold the symmetric entry in — exactly
    once, on the final merged profile, for shard/checkpoint resumes to
    stay bit-identical.
    """
    best = best.copy()
    best_mask = best_mask.copy()
    m = len(best) - 1
    one = np.uint64(1)
    full = (np.uint64(1) << np.uint64(n)) - one
    for c in range(m + 1):
        cc = m - c
        if best[cc] < best[c]:
            best[c] = best[cc]
            best_mask[c] = best_mask[cc] ^ full
    return best, best_mask


def enumeration_shards(
    net: Network, shards: int
) -> list[tuple[int, int]]:
    """Shard-granular ranges over the ``2^{N-1}`` enumeration mask space.

    The distributed coordinator (:mod:`repro.dist`) leases exactly these
    half-open ranges; ``shards`` is a ceiling (tiny spaces yield fewer).
    The grid is deterministic in ``(net.num_nodes, shards)`` so every
    worker, and any resumed coordinator keyed to the same computation,
    derives an identical shard table.
    """
    n = net.num_nodes
    if n > _MAX_NODES:
        raise ValueError(
            f"exhaustive enumeration is limited to {_MAX_NODES} nodes; "
            f"{net.name} has {n}"
        )
    if n == 0:
        return []
    return sweep_ranges(1 << (n - 1), shards)


def sweep_ranges(total: int, chunks: int) -> list[tuple[int, int]]:
    """Split ``[0, total)`` into at most ``chunks`` contiguous ranges.

    The shard grid behind :func:`enumeration_shards`, so a shard id maps
    to the same half-open range in the coordinator (:mod:`repro.dist`),
    in every worker and in the chaos harness.  The grid is an integer
    ``linspace`` — near-equal ranges, empty ones dropped — and, like
    every grid in the batch contract, never affects results: folds are
    elementwise minima and the witness rule is grid-independent.
    """
    if total <= 0 or chunks <= 0:
        return []
    bounds = np.linspace(0, int(total), min(int(chunks), int(total)) + 1,
                         dtype=np.int64)
    return [
        (int(bounds[i]), int(bounds[i + 1]))
        for i in range(len(bounds) - 1)
        if bounds[i + 1] > bounds[i]
    ]


def shard_minima(
    edges: np.ndarray,
    counted: np.ndarray,
    lo: int,
    hi: int,
    *,
    batch_bits: int | None = None,
    on_batch=None,
) -> tuple[np.ndarray, np.ndarray] | None:
    """Pre-fold partial profile of the mask range ``[lo, hi)``.

    The shard worker kernel: computes, in ascending vectorized batches,
    the minimum capacity (and lowest witness mask) per counted-side size
    over exactly this range — the unit of work a
    :class:`~repro.dist.coordinator.ShardCoordinator` lease covers.  The
    returned arrays are *pre-fold* running state (no complement closure):
    the coordinator folds completed shards in ascending-``lo`` order and
    applies :func:`_complement_fold` once at the end, which is what makes
    the merged profile bit-identical to an uninterrupted serial sweep.

    Parameters
    ----------
    edges:
        ``(E, 2)`` edge array of the instance.
    counted:
        Counted node indices (``U``).
    on_batch:
        Optional callback invoked after every batch with the end of the
        completed prefix; returning ``False`` abandons the shard (the
        worker lost its lease or its budget) and ``None`` is returned.
    batch_bits:
        log2 of the masks between ``on_batch`` calls; may only lower the
        default ``_BATCH_BITS``.
    """
    e = np.asarray(edges, dtype=np.uint64)
    eu, ev = e[:, 0], e[:, 1]
    count_shift = np.asarray(counted, dtype=np.uint64)
    m = len(count_shift)
    bits = _BATCH_BITS if batch_bits is None else min(int(batch_bits), _BATCH_BITS)
    inf = np.iinfo(np.int64).max
    best = np.full(m + 1, inf, dtype=np.int64)
    best_mask = np.zeros(m + 1, dtype=np.uint64)
    start = int(lo)
    # repro-lint: disable=RL010 -- the budget is polled through on_batch: every caller's callback checks its Budget (and the lease heartbeat) each batch, returning False to abandon
    while start < int(hi):
        stop = min(start + (1 << bits), int(hi))
        _range_minima(eu, ev, count_shift, start, stop, best, best_mask)
        start = stop
        if on_batch is not None and on_batch(start) is False:
            return None
    return best, best_mask


def cut_profile(
    net: Network,
    counted: np.ndarray | None = None,
    *,
    budget: Budget | None = None,
    checkpoint: str | CheckpointStore | None = None,
    batch_bits: int | None = None,
) -> CutProfile:
    """Compute the exact cut profile of ``net`` by exhaustive enumeration.

    Parameters
    ----------
    net:
        Network with at most ``28`` nodes.
    counted:
        Node indices of the counted set ``U``; defaults to all nodes.
    budget:
        Optional :class:`~repro.resilience.budget.Budget`, polled once per
        batch; on expiry the best-so-far profile is returned with
        ``complete=False`` instead of raising.
    checkpoint:
        Optional checkpoint file (path or
        :class:`~repro.resilience.checkpoint.CheckpointStore`).  Completed
        batch ranges and the running profile are persisted atomically
        after every batch; a rerun with the same arguments skips finished
        ranges and is bit-identical to an uninterrupted run (the stored
        state is pre-fold, so the complement fold happens exactly once).
    batch_bits:
        log2 of the masks between budget polls and checkpoint saves.
        ``None`` (the default) means ``_BATCH_BITS``; an explicit value,
        like a budget's ``max_batch_bits``, may only lower it.  The result
        is bit-identical regardless of the grid (the fold is an
        elementwise minimum and witness selection is
        batch-partition-independent).
    """
    n = net.num_nodes
    if n > _MAX_NODES:
        raise ValueError(
            f"exhaustive enumeration is limited to _MAX_NODES = {_MAX_NODES} "
            f"nodes (the sweep visits 2^(N-1) side assignments) but "
            f"{net.name} has {n}; for layered networks use "
            f"repro.cuts.layered_dp.layered_cut_profile, for general graphs "
            f"up to ~48 nodes use repro.cuts.branch_and_bound, and beyond "
            f"that the KL/FM/spectral heuristics give upper bounds"
        )
    if counted is None:
        counted = np.arange(n, dtype=np.int64)
    counted = np.asarray(counted, dtype=np.int64)
    m = len(counted)

    e = net.edges.astype(np.uint64)
    eu, ev = e[:, 0], e[:, 1]
    count_shift = counted.astype(np.uint64)

    inf = np.iinfo(np.int64).max
    best = np.full(m + 1, inf, dtype=np.int64)
    best_mask = np.zeros(m + 1, dtype=np.uint64)

    total = 1 << (n - 1)  # pin node n-1 to the S̄ side
    bits = _BATCH_BITS if batch_bits is None else min(int(batch_bits), _BATCH_BITS)
    if budget is not None:
        bits = budget.batch_bits(bits)

    store = as_store(checkpoint)
    ledger = RangeLedger()
    key = _fingerprint(net, counted) if store is not None else ""
    if store is not None:
        saved = store.load(key)
        if saved is not None:
            prev = RangeLedger.from_list(saved.get("completed"))
            values = np.asarray(saved.get("best", ()), dtype=np.int64)
            masks_saved = np.asarray(saved.get("best_mask", ()), dtype=np.uint64)
            if values.shape == (m + 1,) and masks_saved.shape == (m + 1,):
                ledger, best, best_mask = prev, values, masks_saved

    with trace("cuts.enumerate", network=net.name, nodes=n, counted=m,
               assignments=total, batch_bits=bits):
        start = 0
        while start < total:
            stop = min(start + (1 << min(bits, n - 1)), total)
            if ledger.covers(start, stop):
                incr("cuts.enumerate.batches_resumed")
                start = stop
                continue
            if budget is not None and budget.expired():
                incr("cuts.enumerate.budget_expiries")
                break
            evaluated = _range_minima(
                eu, ev, count_shift, start, stop, best, best_mask
            )
            ledger.add(start, stop)
            incr("cuts.enumerate.batches")
            incr("cuts.enumerate.cuts_evaluated", evaluated)
            if store is not None:
                # Pre-fold state: the complement fold below must run exactly
                # once, on the final profile, for resume to be bit-identical.
                store.save(key, {
                    "completed": ledger.to_list(),
                    "best": best.tolist(),
                    "best_mask": [int(x) for x in best_mask],
                })
            start = stop

    complete = ledger.total == total
    best, best_mask = _complement_fold(best, best_mask, n)
    return CutProfile(net, counted, best, best_mask, complete)


def min_bisection(net: Network) -> Cut:
    """Exact minimum bisection by enumeration (small networks only)."""
    prof = cut_profile(net)
    n = net.num_nodes
    c = n // 2 if prof.values[n // 2] <= prof.values[(n + 1) // 2] else (n + 1) // 2
    return prof.witness_cut(c)


def min_u_bisection(net: Network, u_set: np.ndarray) -> Cut:
    """Exact minimum cut bisecting the node set ``U`` (Section 2.1)."""
    prof = cut_profile(net, counted=np.asarray(u_set, dtype=np.int64))
    m = len(prof.counted)
    c = m // 2 if prof.values[m // 2] <= prof.values[(m + 1) // 2] else (m + 1) // 2
    return prof.witness_cut(c)
