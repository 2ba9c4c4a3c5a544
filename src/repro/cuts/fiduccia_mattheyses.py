"""Fiduccia–Mattheyses single-node-move refinement.

A from-scratch FM pass: nodes move one at a time (not in swapped pairs as
in Kernighan–Lin), each move constrained to keep the partition within the
bisection balance tolerance.  Gains are kept in bucket lists indexed by gain
value so the best admissible move is O(1) to find and O(degree) to update —
the structure that made FM linear-time per pass.

Used as the cheap refinement stage in the solver ablation (DESIGN.md, ABL)
and by the certified-bound API for upper bounds on mid-size instances —
constructed cuts that bound the Section 1.2 bisection widths from above
where the exact solvers cannot reach.
"""

from __future__ import annotations

import numpy as np

from ..resilience.budget import Budget
from ..topology.base import Network
from .cut import Cut

__all__ = ["fm_refine", "fm_bisection"]


class _GainBuckets:
    """Bucket array over gains in [-max_deg, +max_deg] with a moving max."""

    def __init__(self, gains: list[int], max_deg: int) -> None:
        self.offset = max_deg
        self.buckets: list[set[int]] = [set() for _ in range(2 * max_deg + 1)]
        self.where = [-1] * len(gains)
        self.max_ptr = 0
        # One bounded O(n) setup sweep; a Budget poll per insert would
        # cost more than the loop.  The enclosing pass loop polls.
        # repro-lint: disable=RL010 -- bounded constructor setup, enclosing pass loop polls
        for v, gain in enumerate(gains):
            self.insert(v, gain)

    def insert(self, v: int, gain: int) -> None:
        b = gain + self.offset
        self.buckets[b].add(v)
        self.where[v] = b
        if b > self.max_ptr:
            self.max_ptr = b

    def remove(self, v: int) -> None:
        b = self.where[v]
        if b >= 0:
            self.buckets[b].discard(v)
            self.where[v] = -1

    def update(self, v: int, gain: int) -> None:
        if self.where[v] >= 0:
            self.remove(v)
            self.insert(v, gain)

    def pop_best(self, side: list[bool], movable: tuple[bool, bool]) -> int | None:
        """Pop the best node ``v`` whose side may give one up: ``movable[side[v]]``."""
        ptr = self.max_ptr
        while ptr >= 0:
            found = None
            for v in self.buckets[ptr]:
                if movable[side[v]]:
                    found = v
                    break
            if found is not None:
                self.remove(found)
                self.max_ptr = ptr
                return found
            ptr -= 1
        return None


def fm_refine(
    cut: Cut, max_passes: int = 10, balance_slack: int = 0,
    budget: Budget | None = None,
) -> Cut:
    """Refine a cut with FM passes.

    ``balance_slack`` is the number of nodes each side may deviate from the
    input's side sizes during a pass (0 preserves exact balance: moves are
    admissible only while returning toward the input sizes).  An expired
    ``budget`` stops between passes (and between moves within a pass);
    the partially refined cut is still a valid bisection, since only
    committed prefixes ever reach ``side``.
    """
    net = cut.network
    n = net.num_nodes
    adj = [net.neighbors(v).tolist() for v in range(n)]
    max_deg = int(net.degrees.max()) if n else 0
    side = cut.side.copy()
    target = int(side.sum())
    slack = max(1, balance_slack)

    for _ in range(max_passes):
        if budget is not None and budget.expired():
            break
        gains = Cut(net, side).move_gains().tolist()
        buckets = _GainBuckets(gains, max_deg)
        cur_size = target
        trail: list[int] = []
        cum: list[int] = []
        total = 0
        work_side = side.tolist()

        while True:
            if budget is not None and budget.expired():
                break
            # movable[s]: whether a node on side s (True = S) may move, i.e.
            # whether |S| after its move stays within the slack.
            movable = (
                abs(cur_size + 1 - target) <= slack,
                abs(cur_size - 1 - target) <= slack,
            )
            v = buckets.pop_best(work_side, movable)
            if v is None:
                break
            total += gains[v]
            trail.append(v)
            cum.append(total)
            moved_from_s = work_side[v]
            work_side[v] = not work_side[v]
            cur_size += -1 if moved_from_s else 1
            # Update neighbor gains: an edge to v changes crossing status.
            for u in adj[v]:
                if buckets.where[u] < 0:
                    continue
                if work_side[u] == work_side[v]:
                    gains[u] -= 2
                else:
                    gains[u] += 2
                buckets.update(u, gains[u])

        if not cum:
            break
        # Commit the best positive-gain prefix that restores the original
        # side sizes (prefixes that end unbalanced are not bisections).
        best_idx = -1
        best_gain = 0
        size = target
        for i, v in enumerate(trail):  # each node moves at most once a pass
            size += -1 if side[v] else 1
            if cum[i] > best_gain and size == target:
                best_gain = cum[i]
                best_idx = i
        if best_idx < 0:
            break
        for v in trail[: best_idx + 1]:
            side[v] = not side[v]

    refined = Cut(net, side)
    assert refined.s_size == cut.s_size
    return refined if refined.capacity <= cut.capacity else cut


def fm_bisection(
    net: Network, restarts: int = 4, seed: int = 0,
    budget: Budget | None = None,
) -> Cut:
    """Heuristic bisection: random balanced starts + FM refinement.

    An expired ``budget`` stops after the current restart; the first
    start always completes so a valid bound is always returned.
    """
    rng = np.random.default_rng(seed)
    n = net.num_nodes
    best: Cut | None = None
    for _ in range(max(1, restarts)):
        if best is not None and budget is not None and budget.expired():
            break
        side = np.zeros(n, dtype=bool)
        side[rng.permutation(n)[: n // 2]] = True
        cut = fm_refine(Cut(net, side), balance_slack=2, budget=budget)
        if best is None or cut.capacity < best.capacity:
            best = cut
    assert best is not None
    return best
