"""Balanced bisections of ``Bn`` with capacity below ``n`` (Theorem 2.20).

This is the paper's headline construction, made executable.  The pieces:

1. **Quotient** (Lemma 2.11 with ``k = j``): collapse ``Bn`` onto
   ``MOS_{j,j}``.  Levels ``0 .. log j - 1`` collapse onto ``M1`` (one node
   per value of the column's last ``log j`` bits), levels
   ``log n - log j + 1 .. log n`` onto ``M3`` (first ``log j`` bits), and
   each connected component of ``Bn[log j, log n - log j]`` (Lemma 2.4)
   onto its own ``M2`` node.  Exactly ``2n/j^2`` butterfly edges cross
   between any two adjacent fibers, so a mesh-of-stars cut pulls back to a
   butterfly cut of exactly ``2n/j^2`` times the capacity.

2. **Shape choice**: place ``a`` of the ``M1`` fibers and ``b`` of the
   ``M3`` fibers in ``S``.  Middle fibers whose two neighbors are both in
   ``S`` are free in ``S``; both in ``S̄`` — free in ``S̄``; *mixed* fibers
   cost one crossing fiber-edge wherever they go, so their side is a free
   balance knob.  Flipping a both-in-``S`` fiber to ``S̄`` (or vice versa)
   costs two fiber-edges and is the paid balance knob.

3. **Fine rebalancing** (Lemmas 2.14-2.15): a mixed middle fiber is
   *amenable* — any number of its nodes can sit in ``S`` provided they form
   a level-threshold prefix toward its ``S``-side neighbor — so the final
   imbalance (less than one fiber) is zeroed at no capacity change.

The paper's Lemma 2.16 uses only *two* amenable fibers and therefore needs
``j^3 + 2j - 1 <= log n``; rebalancing across *all* mixed fibers (and
pricing the paid knob into the optimization) makes the same construction
produce verified balanced bisections of capacity ``< n`` at materializable
sizes, and ``plan`` arithmetic extends the series to astronomically large
``n`` where it converges to ``2(sqrt(2) - 1) n`` (see EXPERIMENTS.md).

Every materialized cut is verified: exact balance and exactly the predicted
capacity are asserted, so a successful return *is* the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..resilience.budget import Budget
from ..topology.butterfly import Butterfly, butterfly
from ..topology.labels import ilog2, is_power_of_two
from .cut import Cut

__all__ = [
    "mos_quotient_map",
    "BisectionPlan",
    "plan_bisection",
    "best_plan",
    "build_planned_bisection",
    "butterfly_bisection_below_n",
]


def mos_quotient_map(bf: Butterfly, j: int) -> np.ndarray:
    """The Lemma 2.11 fiber map from ``Bn`` nodes onto ``MOS_{j,j}`` nodes.

    Returns an integer array: entry ``v`` is the quotient node of butterfly
    node ``v``, encoded as ``s`` (M1 fiber, ``0 <= s < j``), ``j + s*j + p``
    (M2 fiber ``(s, p)``), or ``j + j^2 + p`` (M3 fiber), matching
    :class:`~repro.topology.mesh_of_stars.MeshOfStars` indices.
    """
    if bf.wraparound:
        raise ValueError("the quotient is a map of Bn (Theorem 2.20 concerns Bn)")
    if not is_power_of_two(j) or j < 2 or j * j > bf.n:
        raise ValueError(f"need j a power of two with 2 <= j and j^2 <= n, got j={j}")
    lg, lgj, n = bf.lg, ilog2(j), bf.n
    idx = np.arange(bf.num_nodes, dtype=np.int64)
    levels = idx // n
    cols = idx % n
    suffix = cols & (j - 1)           # last log j bits -> M1 fiber id s
    prefix = cols >> (lg - lgj)       # first log j bits -> M3 fiber id p
    out = np.where(
        levels < lgj,
        suffix,
        np.where(
            levels > lg - lgj,
            j + j * j + prefix,
            j + suffix * j + prefix,
        ),
    )
    return out


@dataclass(frozen=True)
class BisectionPlan:
    """Arithmetic description of a balanced pullback bisection of ``Bn``.

    All quantities are exact integers; :func:`build_planned_bisection`
    materializes and verifies the cut for feasible ``n``.

    Attributes
    ----------
    n, j:
        Butterfly inputs and quotient parameter (both powers of two).
    a, b:
        ``S``-side fiber counts on ``M1`` and ``M3``.
    aa_flipped:
        Both-ends-in-``S`` middle fibers placed in ``S̄`` (2 fiber-edges each).
    bb_flipped:
        Both-ends-in-``S̄`` middle fibers placed in ``S`` (2 fiber-edges each).
    mixed_in_s:
        Mixed middle fibers placed entirely in ``S`` (free).
    drain_in_s:
        Nodes of one additional mixed fiber placed in ``S`` (amenable
        partial drain; free), ``0 <= drain_in_s < fiber_size``.
    capacity:
        Predicted (and verified) cut capacity in ``Bn``.
    """

    n: int
    j: int
    a: int
    b: int
    aa_flipped: int
    bb_flipped: int
    mixed_in_s: int
    drain_in_s: int
    capacity: int

    @property
    def lg(self) -> int:
        return ilog2(self.n)

    @property
    def lgj(self) -> int:
        return ilog2(self.j)

    @property
    def fiber_size(self) -> int:
        """Nodes per middle fiber: ``(n/j^2)(log n - 2 log j + 1)``."""
        return (self.n // (self.j * self.j)) * (self.lg - 2 * self.lgj + 1)

    @property
    def side_block(self) -> int:
        """Nodes per M1/M3 fiber: ``(n/j) log j``."""
        return (self.n // self.j) * self.lgj

    @property
    def mixed(self) -> int:
        """Number of mixed middle fibers."""
        return self.a * (self.j - self.b) + (self.j - self.a) * self.b

    @property
    def capacity_over_n(self) -> float:
        """``capacity / n`` — the quantity Theorem 2.20 bounds by
        ``2(sqrt 2 - 1) ≈ 0.8284`` in the limit."""
        return self.capacity / self.n


def plan_bisection(n: int, j: int, a: int, b: int) -> BisectionPlan | None:
    """Plan an exactly balanced pullback cut with the given shape.

    Returns ``None`` when the shape cannot be balanced (not enough fibers
    of the needed classes to move).  Pure integer arithmetic; works for
    ``n`` far beyond what can be materialized.
    """
    if not (is_power_of_two(n) and is_power_of_two(j) and 2 <= j and j * j <= n):
        raise ValueError(f"need powers of two with 2 <= j, j^2 <= n; got n={n}, j={j}")
    if not (0 <= a <= j and 0 <= b <= j):
        raise ValueError("fiber counts out of range")
    lg, lgj = ilog2(n), ilog2(j)
    kappa = (n // j) * lgj
    comp = (n // (j * j)) * (lg - 2 * lgj + 1)
    target = n * (lg + 1) // 2
    aa = a * b
    bb = (j - a) * (j - b)
    mixed = a * (j - b) + (j - a) * b
    cong = 2 * n // (j * j)

    base = (a + b) * kappa + aa * comp
    if base > target:
        shortfall = base - target
        q = -(-shortfall // comp)  # ceil
        if q > aa:
            return None
        drain = target - (base - q * comp)
        if drain > 0 and mixed == 0:
            return None
        return BisectionPlan(n, j, a, b, q, 0, 0, drain,
                             cong * (mixed + 2 * q))
    deficit = target - base
    m_full = min(mixed, deficit // comp)
    rem = deficit - m_full * comp
    if rem == 0:
        return BisectionPlan(n, j, a, b, 0, 0, m_full, 0, cong * mixed)
    if m_full < mixed:
        return BisectionPlan(n, j, a, b, 0, 0, m_full, rem, cong * mixed)
    # Every mixed fiber is already in S; pay for both-in-S̄ fiber flips.
    r = -(-rem // comp)
    if r > bb:
        return None
    over = r * comp - rem
    if over > 0:
        if mixed == 0:
            return None
        # Park one mixed fiber partially: all but `over` of its nodes in S.
        return BisectionPlan(n, j, a, b, 0, r, mixed - 1, comp - over,
                             cong * (mixed + 2 * r))
    return BisectionPlan(n, j, a, b, 0, r, mixed, 0, cong * (mixed + 2 * r))


def _candidate_shapes(j: int, kappa: int, comp: int, target: int) -> set[tuple[int, int]]:
    """Candidate (a, b) shapes: full grid for small j, windows for large j."""
    if j <= 256:
        return {(a, b) for a in range(j + 1) for b in range(j + 1)}
    centers = []
    x_opt = int(round(math.sqrt(0.5) * j))
    centers.append(x_opt)
    # Balance diagonal: a = b with (2a)kappa + a^2 comp = target.
    disc = 4 * kappa * kappa + 4 * comp * target
    a_bal = int((-2 * kappa + math.isqrt(disc)) // (2 * comp)) if comp else x_opt
    centers.append(max(0, min(j, a_bal)))
    window = 64
    shapes: set[tuple[int, int]] = set()
    for c in centers:
        lo, hi = max(0, c - window), min(j, c + window)
        for a in range(lo, hi + 1):
            for b in range(lo, hi + 1):
                shapes.add((a, b))
    return shapes


def best_plan(
    n: int, js: list[int] | None = None, budget: Budget | None = None
) -> BisectionPlan | None:
    """The best balanced pullback plan over quotient sizes and shapes.

    ``js`` defaults to all powers of two ``2 <= j`` with ``j^2 <= n``
    (capped at ``j = 4096`` to keep the search finite for astronomical
    ``n``).  The returned plan's capacity is an upper bound on ``BW(Bn)``.
    An expired ``budget`` stops the search with the best plan found so
    far, which is ``None`` when it expired before the first one.
    """
    lg = ilog2(n)
    if js is None:
        js = [1 << t for t in range(1, min(lg // 2, 12) + 1)]
    best: BisectionPlan | None = None
    for j in js:
        if j * j > n:
            continue
        lgj = ilog2(j)
        kappa = (n // j) * lgj
        comp = (n // (j * j)) * (lg - 2 * lgj + 1)
        target = n * (lg + 1) // 2
        for a, b in _candidate_shapes(j, kappa, comp, target):
            if budget is not None and budget.expired():
                return best
            plan = plan_bisection(n, j, a, b)
            if plan is not None and (best is None or plan.capacity < best.capacity):
                best = plan
    assert best is not None, "the column cut shape (a=j, b=j variants) always plans"
    return best


def _drain_order(bf: Butterfly, s: int, p: int, lgj: int) -> np.ndarray:
    """Nodes of middle fiber ``(s, p)`` in level-major order (inputs first)."""
    lg, n = bf.lg, bf.n
    lo, hi = lgj, lg - lgj
    mids = np.arange(1 << (hi - lo), dtype=np.int64)
    cols = (p << (lg - lgj)) | (mids << lgj) | s
    levels = np.arange(lo, hi + 1, dtype=np.int64)
    return (levels[:, None] * n + cols[None, :]).reshape(-1)


def build_planned_bisection(plan: BisectionPlan, bf: Butterfly | None = None) -> Cut:
    """Materialize and verify the planned bisection on ``Bn``.

    Asserts exact balance (``|S| = N/2``) and exactly the planned capacity;
    a successful return is therefore a certificate that
    ``BW(Bn) <= plan.capacity``.
    """
    if bf is None:
        bf = butterfly(plan.n)
    if bf.n != plan.n or bf.wraparound:
        raise ValueError("network does not match plan")
    n, j, lg, lgj = plan.n, plan.j, plan.lg, plan.lgj
    a, b = plan.a, plan.b

    idx = np.arange(bf.num_nodes, dtype=np.int64)
    levels = idx // n
    cols = idx % n
    suffix = cols & (j - 1)
    prefix = cols >> (lg - lgj)

    side = np.zeros(bf.num_nodes, dtype=bool)
    m1_zone = levels < lgj
    m3_zone = levels > lg - lgj
    m2_zone = ~(m1_zone | m3_zone)
    side[m1_zone & (suffix < a)] = True
    side[m3_zone & (prefix < b)] = True

    # Assign middle fibers class by class, honoring the plan's flip counts.
    fiber_side = np.zeros((j, j), dtype=bool)  # [s, p]
    s_grid, p_grid = np.meshgrid(np.arange(j), np.arange(j), indexing="ij")
    aa_fibers = np.argwhere((s_grid < a) & (p_grid < b))
    bb_fibers = np.argwhere((s_grid >= a) & (p_grid >= b))
    mixed_fibers = np.argwhere(((s_grid < a) & (p_grid >= b)) | ((s_grid >= a) & (p_grid < b)))
    for s, p in aa_fibers[plan.aa_flipped:]:
        fiber_side[s, p] = True          # stay in S; first aa_flipped go to S̄
    for s, p in bb_fibers[: plan.bb_flipped]:
        fiber_side[s, p] = True          # flipped into S
    for s, p in mixed_fibers[: plan.mixed_in_s]:
        fiber_side[s, p] = True
    side[m2_zone] = fiber_side[suffix[m2_zone], prefix[m2_zone]]

    # Amenable partial drain of one more mixed fiber (Lemma 2.15).
    if plan.drain_in_s:
        if len(mixed_fibers) <= plan.mixed_in_s:
            raise ValueError("plan requires a drainable mixed fiber that does not exist")
        s, p = (int(v) for v in mixed_fibers[plan.mixed_in_s])
        order = _drain_order(bf, s, p, lgj)
        if s < a:
            # M1 neighbor in S: the S portion is the prefix toward the inputs.
            chosen = order[: plan.drain_in_s]
        else:
            # M3 neighbor in S: the S portion is the suffix toward the outputs.
            chosen = order[len(order) - plan.drain_in_s:]
        side[order] = False
        side[chosen] = True

    cut = Cut(bf, side)
    target = n * (lg + 1) // 2
    assert cut.s_size == target, (cut.s_size, target)
    assert cut.capacity == plan.capacity, (cut.capacity, plan.capacity)
    assert cut.is_bisection()
    return cut


def butterfly_bisection_below_n(n: int, materialize: bool = True):
    """Best pullback bisection of ``Bn``; the folklore-refutation entry point.

    Returns ``(plan, cut)``; ``cut`` is ``None`` when ``materialize`` is
    false or the instance is too large to build (``N > 2^24`` nodes).
    For every ``n >= 2^10`` the plan's capacity is strictly below ``n``,
    contradicting the folklore ``BW(Bn) = n``.
    """
    plan = best_plan(n)
    cut = None
    if materialize and n * (ilog2(n) + 1) <= (1 << 24):
        cut = build_planned_bisection(plan)
    return plan, cut
