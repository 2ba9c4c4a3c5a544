"""Exact minimum bisection by branch and bound.

Solves the minimum-bisection problem of Section 2.1 (``BW(G)`` and the
``U``-bisection variant ``BW(G, U)``) exactly on general graphs.
Completes the exact-solver trio: plain enumeration handles ~26 nodes, the
layered DP handles layered networks of width <= 12, and this solver covers
*general* graphs in between (hypercubes, de Bruijn graphs, ad-hoc
networks) by searching side assignments with pruning:

* **bound** — the running cut plus, for every unassigned node, the cheaper
  of its edge counts into the two assigned sides (it must eventually pay
  at least that), updated at O(degree) cost per assignment;
* **balance forcing** — when one side reaches its quota the rest of the
  assignment is forced and costed immediately;
* **branching order** — most-constrained node first (largest imbalance of
  assigned neighbors), cheaper side first;
* **warm start** — a Kernighan–Lin bisection provides the incumbent, so
  the search only needs to prove optimality or improve it.

The solver returns a :class:`~repro.cuts.cut.Cut` witness whose capacity
is certified optimal.
"""

from __future__ import annotations

import numpy as np

from ..obs import incr, trace
from ..resilience.budget import Budget
from ..topology.base import Network
from .cut import Cut
from .kernighan_lin import kernighan_lin_bisection

__all__ = ["bb_min_bisection", "bb_bisection_width"]

_MAX_NODES = 48
_BUDGET_CHECK_MASK = 0xFF  # poll the budget every 256 node expansions


def bb_min_bisection(
    net: Network,
    node_limit: int = _MAX_NODES,
    *,
    budget: Budget | None = None,
    status: dict | None = None,
    warm_start: Cut | np.ndarray | None = None,
) -> Cut:
    """Exact minimum bisection of a general network (witness included).

    With a ``budget``, the search polls for expiry every 256 node
    expansions and unwinds; the returned cut is then the *incumbent* — the
    KL warm start or any improvement found before the deadline — which is
    a valid bisection and upper bound, just not certified optimal.
    ``status["complete"]`` (when a dict is passed) records whether the
    search ran to exhaustion, i.e. whether the capacity is certified.

    ``warm_start`` (a :class:`~repro.cuts.cut.Cut` or boolean side array,
    e.g. a cached witness from :class:`repro.perf.cache.SolverCache` or a
    partial upper bound from an earlier cascade tier) is adopted as the
    incumbent when it is a valid bisection cheaper than the KL one — the
    search then only needs to prove optimality or improve on it, which
    can prune the tree dramatically.  An invalid warm start is ignored.
    """
    n = net.num_nodes
    if n > node_limit:
        raise ValueError(
            f"{net.name} has {n} nodes; branch and bound is limited to "
            f"{node_limit} (raise node_limit at your own patience)"
        )
    if n == 0:
        raise ValueError("empty network")
    quota_a = (n + 1) // 2
    quota_b = n - n // 2  # == ceil(n/2); both sides bounded by ceil
    adj = [net.neighbors(v).tolist() for v in range(n)]

    incumbent = kernighan_lin_bisection(net, restarts=3, budget=budget)
    best_cap = incumbent.capacity
    best_side = incumbent.side.copy()
    if isinstance(warm_start, Cut):
        warm_start = warm_start.side
    if warm_start is not None and np.shape(warm_start) == (n,):
        warm = Cut(net, warm_start)
        if warm.is_bisection() and warm.capacity < best_cap:
            best_cap = warm.capacity
            best_side = warm.side.copy()
            incr("cuts.bb.warm_starts")

    side = [-1] * n   # -1 unassigned, 0 = Ā, 1 = A
    to_a = [0] * n    # assigned-A neighbors per node
    to_b = [0] * n
    toward = (to_b, to_a)  # toward[s][v]: v's neighbors assigned to side s
    counts = [0, 0]
    # The bound's node term, kept current by assign/unassign: the sum over
    # unassigned v of min(to_a[v], to_b[v]).
    lb = 0

    # Degree-descending static order as the fallback branching pool.
    order = np.argsort(-net.degrees, kind="stable").tolist()

    def assign(v: int, s: int) -> int:
        """Assign and return the cut increase."""
        nonlocal lb
        grow, other = toward[s], toward[1 - s]
        side[v] = s
        counts[s] += 1
        g, o = grow[v], other[v]
        lb -= g if g < o else o  # cheaper than min() on this hot path
        # An unassigned neighbor's min(to_a, to_b) rises only when the
        # count that grows was the smaller one.
        for u in adj[v]:
            t = grow[u]
            if side[u] < 0 and t < other[u]:
                lb += 1
            grow[u] = t + 1
        return other[v]

    def unassign(v: int, s: int) -> None:
        nonlocal lb
        grow, other = toward[s], toward[1 - s]
        for u in adj[v]:
            t = grow[u] - 1
            grow[u] = t
            if side[u] < 0 and t < other[u]:
                lb -= 1
        side[v] = -1
        counts[s] -= 1
        g, o = grow[v], other[v]
        lb += g if g < o else o

    def pick() -> int:
        best_v, best_score = -1, -1
        for v in order:
            if side[v] < 0:
                ta, tb = to_a[v], to_b[v]
                score = abs(ta - tb) * 4 + ta + tb
                if score > best_score:
                    best_v, best_score = v, score
        return best_v

    expansions = 0
    pruned = 0
    improvements = 0
    aborted = False

    def rec(cur: int) -> None:
        nonlocal best_cap, best_side, expansions, pruned, improvements, aborted
        if aborted:
            return
        expansions += 1
        if (
            budget is not None
            and (expansions & _BUDGET_CHECK_MASK) == 0
            and budget.expired()
        ):
            aborted = True
            return
        if cur + lb >= best_cap:
            pruned += 1
            return
        unassigned = n - counts[0] - counts[1]
        if unassigned == 0:
            if cur < best_cap:
                best_cap = cur
                best_side = np.array(side) == 1
                improvements += 1
            return
        # Balance forcing: a full side forces the rest.
        forced = None
        if counts[1] >= quota_a:
            forced = 0
        elif counts[0] >= quota_b:
            forced = 1
        if forced is not None:
            inc_total = 0
            stack = [v for v in range(n) if side[v] < 0]
            for v in stack:
                inc_total += assign(v, forced)
            rec(cur + inc_total)
            for v in reversed(stack):
                unassign(v, forced)
            return
        v = pick()
        first = 1 if to_a[v] >= to_b[v] else 0  # join the heavier neighbor side
        for s in (first, 1 - first):
            if counts[s] + 1 > (quota_a if s == 1 else quota_b):
                continue
            inc = assign(v, s)
            rec(cur + inc)
            unassign(v, s)

    with trace("cuts.branch_and_bound", network=net.name, nodes=n):
        if budget is not None and budget.expired():
            aborted = True  # keep the KL incumbent; no certified search ran
        else:
            # Symmetry: pin the first node of the branching order to side A.
            v0 = order[0]
            inc = assign(v0, 1)
            rec(inc)
            unassign(v0, 1)

    # Counters are tallied in locals during the search and folded into obs
    # once here, so the recursion's hot path carries no per-node calls.
    incr("cuts.bb.nodes_expanded", expansions)
    incr("cuts.bb.nodes_pruned", pruned)
    incr("cuts.bb.incumbent_improvements", improvements)
    if aborted:
        incr("cuts.bb.budget_expiries")
    if status is not None:
        status["complete"] = not aborted
        status["expansions"] = expansions
        status["pruned"] = pruned
        status["improvements"] = improvements
    cut = Cut(net, best_side)
    assert cut.is_bisection()
    assert cut.capacity == best_cap
    return cut


def bb_bisection_width(
    net: Network,
    node_limit: int = _MAX_NODES,
    *,
    budget: Budget | None = None,
    status: dict | None = None,
) -> int:
    """Exact ``BW`` of a general network via branch and bound."""
    return bb_min_bisection(
        net, node_limit=node_limit, budget=budget, status=status
    ).capacity
