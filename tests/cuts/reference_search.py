"""The search loops of branch and bound, Kernighan-Lin and Fiduccia-Mattheyses
as they were before their inner loops moved to Python lists and
incremental bounds, kept as the reference the rewrite must match.

The code is the earlier implementation verbatim, with two fixes that the
production code carries as well: branch and bound passes its budget to
the KL incumbent, and it ignores a warm start of the wrong length.  So
the reference and the production code differ only in data structures,
and ``tests/cuts/test_search_equivalence.py`` requires identical side
arrays, capacities and branch-and-bound status dicts from both.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix

from repro.cuts import Cut
from repro.obs import incr, trace
from repro.resilience.budget import Budget
from repro.topology.base import Network

_MAX_NODES = 48
_BUDGET_CHECK_MASK = 0xFF  # poll the budget every 256 node expansions


def _adjacency(net: Network):
    n = net.num_nodes
    e = net.edges
    data = np.ones(len(e), dtype=np.int64)
    mat = coo_matrix((data, (e[:, 0], e[:, 1])), shape=(n, n))
    mat = (mat + mat.T).tocsr()
    return mat


def _initial_side(net: Network, rng: np.random.Generator) -> np.ndarray:
    n = net.num_nodes
    side = np.zeros(n, dtype=bool)
    side[rng.permutation(n)[: n // 2]] = True
    return side


def kl_refine(
    cut: Cut, max_passes: int = 20, budget: Budget | None = None
) -> Cut:
    """Refine a balanced cut with Kernighan–Lin passes.

    The input sizes are preserved exactly (KL only swaps), so a bisection
    stays a bisection.  Returns a cut with capacity <= the input's.
    An expired ``budget`` stops between passes; each pass commits a whole
    swap prefix, so the cut returned is always balanced.
    """
    net = cut.network
    adj = _adjacency(net)
    side = cut.side.copy()

    for _ in range(max_passes):
        if budget is not None and budget.expired():
            break
        a_nodes = np.flatnonzero(side)
        b_nodes = np.flatnonzero(~side)
        if len(a_nodes) == 0 or len(b_nodes) == 0:
            break
        # D[v] = external - internal degree under the current partition.
        ext_a = np.asarray(adj[a_nodes][:, b_nodes].sum(axis=1)).ravel()
        int_a = np.asarray(adj[a_nodes][:, a_nodes].sum(axis=1)).ravel()
        ext_b = np.asarray(adj[b_nodes][:, a_nodes].sum(axis=1)).ravel()
        int_b = np.asarray(adj[b_nodes][:, b_nodes].sum(axis=1)).ravel()
        Da = ext_a - int_a
        Db = ext_b - int_b
        W = np.asarray(adj[a_nodes][:, b_nodes].todense())

        locked_a = np.zeros(len(a_nodes), dtype=bool)
        locked_b = np.zeros(len(b_nodes), dtype=bool)
        gains: list[int] = []
        swaps: list[tuple[int, int]] = []
        steps = min(len(a_nodes), len(b_nodes))
        for _step in range(steps):
            G = Da[:, None] + Db[None, :] - 2 * W
            G[locked_a, :] = np.iinfo(np.int64).min
            G[:, locked_b] = np.iinfo(np.int64).min
            flat = int(np.argmax(G))
            ia, ib = divmod(flat, len(b_nodes))
            g = int(G[ia, ib])
            gains.append(g)
            swaps.append((ia, ib))
            locked_a[ia] = True
            locked_b[ib] = True
            # Update D values as if the pair were swapped.
            wa = np.asarray(adj[a_nodes[ia]].todense()).ravel()
            wb = np.asarray(adj[b_nodes[ib]].todense()).ravel()
            Da = Da + 2 * wa[a_nodes] - 2 * wb[a_nodes]
            Db = Db + 2 * wb[b_nodes] - 2 * wa[b_nodes]
        cum = np.cumsum(gains)
        best = int(np.argmax(cum))
        if cum[best] <= 0:
            break
        for ia, ib in swaps[: best + 1]:
            side[a_nodes[ia]] = False
            side[b_nodes[ib]] = True
    refined = Cut(net, side)
    assert refined.s_size == cut.s_size, "KL must preserve side sizes"
    return refined if refined.capacity <= cut.capacity else cut


def kernighan_lin_bisection(
    net: Network, restarts: int = 4, seed: int = 0, max_passes: int = 20,
    budget: Budget | None = None,
) -> Cut:
    """Heuristic minimum bisection: random balanced starts + KL refinement.

    Returns the best bisection found across ``restarts`` independent starts.
    The result is an upper-bound witness; optimality is not guaranteed.
    An expired ``budget`` stops after the current restart: at least one
    start always completes, so the answer stays a valid (if weaker) bound.
    """
    rng = np.random.default_rng(seed)
    best: Cut | None = None
    for _ in range(max(1, restarts)):
        if best is not None and budget is not None and budget.expired():
            break
        cut = Cut(net, _initial_side(net, rng))
        cut = kl_refine(cut, max_passes=max_passes, budget=budget)
        if best is None or cut.capacity < best.capacity:
            best = cut
    assert best is not None
    return best


class _GainBuckets:
    """Bucket array over gains in [-max_deg, +max_deg] with a moving max."""

    def __init__(self, gains: np.ndarray, active: np.ndarray, max_deg: int) -> None:
        self.offset = max_deg
        self.buckets: list[set[int]] = [set() for _ in range(2 * max_deg + 1)]
        self.where = np.full(len(gains), -1, dtype=np.int64)
        self.max_ptr = 0
        # One bounded O(n) setup sweep; a Budget poll per insert would
        # cost more than the loop.  The enclosing pass loop polls.
        # repro-lint: disable=RL010 -- bounded constructor setup, enclosing pass loop polls
        for v in np.flatnonzero(active):
            self.insert(int(v), int(gains[v]))

    def insert(self, v: int, gain: int) -> None:
        b = gain + self.offset
        self.buckets[b].add(v)
        self.where[v] = b
        self.max_ptr = max(self.max_ptr, b)

    def remove(self, v: int) -> None:
        b = int(self.where[v])
        if b >= 0:
            self.buckets[b].discard(v)
            self.where[v] = -1

    def update(self, v: int, gain: int) -> None:
        if self.where[v] >= 0:
            self.remove(v)
            self.insert(v, gain)

    def pop_best(self, admissible) -> int | None:
        """Pop the best node satisfying the ``admissible`` predicate."""
        ptr = self.max_ptr
        while ptr >= 0:
            bucket = self.buckets[ptr]
            found = None
            for v in bucket:
                if admissible(v):
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
    adj = [net.neighbors(v) for v in range(n)]
    max_deg = int(net.degrees.max()) if n else 0
    side = cut.side.copy()
    target = int(side.sum())

    for _ in range(max_passes):
        if budget is not None and budget.expired():
            break
        gains = Cut(net, side).move_gains()
        active = np.ones(n, dtype=bool)
        buckets = _GainBuckets(gains, active, max_deg)
        cur_size = int(side.sum())
        trail: list[int] = []
        cum: list[int] = []
        total = 0
        work_side = side.copy()

        def admissible(v: int) -> bool:
            s = cur_size - 1 if work_side[v] else cur_size + 1
            return abs(s - target) <= max(1, balance_slack)

        while True:
            if budget is not None and budget.expired():
                break
            v = buckets.pop_best(admissible)
            if v is None:
                break
            total += int(gains[v])
            trail.append(v)
            cum.append(total)
            moved_from_s = bool(work_side[v])
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
                buckets.update(int(u), int(gains[u]))

        if not cum:
            break
        # Commit the best positive-gain prefix that restores the original
        # side sizes (prefixes that end unbalanced are not bisections).
        best_idx = -1
        best_gain = 0
        size = int(side.sum())
        prefix_sizes = []
        tmp = side.copy()
        for v in trail:
            size += -1 if tmp[v] else 1
            tmp[v] = not tmp[v]
            prefix_sizes.append(size)
        for i in range(len(trail)):
            if cum[i] > best_gain and prefix_sizes[i] == target:
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
    adj = [net.neighbors(v) for v in range(n)]

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

    side = np.full(n, -1, dtype=np.int64)   # -1 unassigned, 0 = Ā, 1 = A
    to_a = np.zeros(n, dtype=np.int64)       # assigned-A neighbors per node
    to_b = np.zeros(n, dtype=np.int64)
    counts = [0, 0]

    # Degree-descending static order as the fallback branching pool.
    order = np.argsort(-net.degrees, kind="stable")

    def lower_bound() -> int:
        lb = 0
        for v in range(n):
            if side[v] < 0:
                lb += min(to_a[v], to_b[v])
        return lb

    def assign(v: int, s: int) -> int:
        """Assign and return the cut increase."""
        inc = to_b[v] if s == 1 else to_a[v]
        side[v] = s
        counts[s] += 1
        for u in adj[v]:
            if s == 1:
                to_a[u] += 1
            else:
                to_b[u] += 1
        return int(inc)

    def unassign(v: int, s: int) -> None:
        side[v] = -1
        counts[s] -= 1
        for u in adj[v]:
            if s == 1:
                to_a[u] -= 1
            else:
                to_b[u] -= 1

    def pick() -> int:
        best_v, best_score = -1, -1
        for v in order:
            if side[v] < 0:
                score = abs(int(to_a[v]) - int(to_b[v])) * 4 + int(to_a[v] + to_b[v])
                if score > best_score:
                    best_v, best_score = int(v), score
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
        if cur + lower_bound() >= best_cap:
            pruned += 1
            return
        unassigned = n - counts[0] - counts[1]
        if unassigned == 0:
            if cur < best_cap:
                best_cap = cur
                best_side = (side == 1).copy()
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
            stack = [int(v) for v in np.flatnonzero(side < 0)]
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
            v0 = int(order[0])
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
