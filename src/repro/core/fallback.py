"""A degradation cascade that always returns a certified bound.

The Section 2.1 quantities — ``BW(G)`` above all — admit a ladder of
solvers of decreasing exactness and cost: exhaustive enumeration, the
layered min-plus DP, branch and bound, and the KL/FM/spectral heuristics.
:func:`solve_with_fallback` runs that ladder under one shared
:class:`~repro.resilience.budget.Budget` and *always* terminates with a
valid :class:`~repro.core.results.BoundCertificate`, whatever expires or
fails along the way:

* a tier that **completes** exactly closes the interval and returns
  immediately;
* a tier **truncated** by the budget still contributes — every partial
  profile entry and every branch-and-bound incumbent is a valid upper
  bound — and the cascade moves on;
* a tier that does not apply (too many nodes, no layering) is skipped
  with a recorded reason;
* a pristine family instance the exact tiers leave open — ``Bn``, ``Wn``,
  ``CCCn``, square tori and meshes, fat trees, even-radix flattened
  butterflies — is closed by the *claim tier*: the proven closed form of
  :mod:`repro.core.claims` (Theorem 2.20's strict floor, Lemmas 3.2 and
  3.3, the Arjona-Aroca & Fernandez Anta product widths) as the lower
  bound and the paper's explicit construction as the witness;
* the final tier is free: ``0 <= BW(G) <= |E|`` holds unconditionally, so
  even a budget that expired before the call yields a sound certificate.

With ``shards`` set, tier 1 runs *distributed*: the lease-coordinated
multi-process sweep of :mod:`repro.dist`, whose merged profile is
bit-identical to the serial one whenever it completes — so the tier's
exactness contract is unchanged even when workers crash mid-sweep — and
whose completed-shard union is still a certified upper bound when it
does not.  The shard event journal (claims, reclaims, quarantines)
lands in the certificate's evidence notes as provenance.

The certificate's evidence strings name the tier that produced each side
and why earlier tiers were skipped or truncated, so a reader can tell an
exact answer (e.g. one usable against Theorem 2.20's interval) from a
degraded one at a glance.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ..cuts.branch_and_bound import bb_min_bisection
from ..cuts.butterfly_bisection import best_plan, build_planned_bisection
from ..cuts.constructions import (
    ccc_dimension_cut,
    column_prefix_cut,
    fat_tree_root_cut,
    product_prefix_cut,
)
from ..cuts.cut import Cut
from ..cuts.enumerate_exact import BATCH_CONTRACT_VERSION, cut_profile
from ..cuts.fiduccia_mattheyses import fm_bisection
from ..cuts.kernighan_lin import kernighan_lin_bisection
from ..cuts.layered_dp import layered_cut_profile
from ..cuts.spectral import spectral_bisection
from ..dist import distributed_cut_profile
from ..obs import annotate, incr, trace
from ..perf.cache import SolverCache
from ..resilience.budget import Budget
from ..resilience.checkpoint import CheckpointStore
from ..topology.base import Network
from ..topology.butterfly import Butterfly
from ..topology.ccc import CubeConnectedCycles
from ..topology.fabric import FatTree
from ..topology.product import FlattenedButterfly, Mesh, Torus
from .claims import (
    arjona_mesh_width,
    arjona_torus_width,
    fat_tree_width,
    flattened_butterfly_width,
    lemma_32_width,
    lemma_33_width,
    theorem_220_strict_floor,
)
from .results import BoundCertificate

__all__ = ["solve_with_fallback"]

_ENUM_LIMIT = 24
_BB_LIMIT = 40
_DP_WIDTH_LIMIT = 12
_INT64_MAX = np.iinfo(np.int64).max


def _bisection_count(values: np.ndarray, m: int) -> int:
    """The balanced count whose profile entry is cheaper."""
    lo, hi = m // 2, (m + 1) // 2
    return lo if values[lo] <= values[hi] else hi


def _butterfly_witness(bf: Butterfly, budget: Budget) -> tuple[Cut, str]:
    """Theorem 2.20's sub-``n`` pullback bisection of ``Bn``, else the column cut.

    The pullback beats the folklore column cut (capacity ``n``) from
    ``B1024`` on; below that, or when the budget stops the plan search
    before a sub-``n`` plan turns up, the column cut is the witness.
    """
    plan = best_plan(bf.n, budget=budget) if bf.lg >= 2 else None
    if plan is not None and plan.capacity < bf.n:
        return (
            build_planned_bisection(plan, bf),
            "mesh-of-stars pullback cut (Theorem 2.20)",
        )
    return column_prefix_cut(bf), "column cut"


def _family_claim(
    net: Network, budget: Budget
) -> tuple[int, str, Callable[[], tuple[Cut, str]]] | None:
    """The claim tier's inputs for a pristine family instance, else ``None``.

    Returns ``(lower, evidence, build)``: the proven closed form of
    :mod:`repro.core.claims` with its claim id, and a thunk building the
    paper's explicit construction and naming it.  Detection is by type,
    as in :func:`repro.verify.checker._claims_for_width`, so a generic
    :class:`Network` — an edge-list spec, a fault-injected graph — is
    never recognized.
    """
    if isinstance(net, Butterfly) and not net.wraparound:
        return (
            math.floor(theorem_220_strict_floor(net.n)) + 1,
            "theorem-2.20 strict floor 2(sqrt2-1)n < BW(Bn)",
            lambda: _butterfly_witness(net, budget),
        )
    if isinstance(net, Butterfly):
        return (
            lemma_32_width(net.n), "lemma-3.2 BW(Wn) = n",
            lambda: (column_prefix_cut(net), "column cut"),
        )
    if isinstance(net, CubeConnectedCycles):
        return (
            lemma_33_width(net.n), "lemma-3.3 BW(CCCn) = n/2",
            lambda: (ccc_dimension_cut(net), "dimension cut"),
        )
    if isinstance(net, Torus) and net.is_square and net.sides[0] >= 3:
        return (
            arjona_torus_width(net.sides[0], net.dims),
            "product-torus closed form",
            lambda: (product_prefix_cut(net), "nested prefix cut"),
        )
    if isinstance(net, Mesh) and net.is_square:
        return (
            arjona_mesh_width(net.sides[0], net.dims),
            "product-mesh closed form",
            lambda: (product_prefix_cut(net), "nested prefix cut"),
        )
    if isinstance(net, FatTree):
        return (
            fat_tree_width(net.depth), "dc-fattree closed form",
            lambda: (fat_tree_root_cut(net), "root-subtree cut"),
        )
    if isinstance(net, FlattenedButterfly) and net.ary % 2 == 0:
        return (
            flattened_butterfly_width(net.ary, net.dims),
            "dc-fbfly closed form",
            lambda: (product_prefix_cut(net), "prefix cut"),
        )
    return None


def solve_with_fallback(
    net: Network,
    budget: Budget | None = None,
    checkpoint: str | CheckpointStore | None = None,
    *,
    cache: SolverCache | str | None = None,
    enum_limit: int = _ENUM_LIMIT,
    bb_limit: int = _BB_LIMIT,
    dp_width_limit: int = _DP_WIDTH_LIMIT,
    shards: int | None = None,
    dist_state: str | None = None,
    dist_workers: int | None = None,
    dist_telemetry: str | None = None,
) -> BoundCertificate:
    """Certified ``BW(net)`` by the exact-to-heuristic degradation cascade.

    Tiers, in order: (1) exhaustive enumeration, (2) layered min-plus DP,
    (3) branch and bound, the claim tier, (4) KL/FM/spectral heuristics,
    (5) the trivial interval ``[0, |E|]``.  The first tier that completes
    exactly wins; partial tiers contribute upper bounds.  The claim tier
    applies to pristine family instances only and is their last tier; it
    keeps a tighter upper bound from a truncated tier 1–3.  Tier 5 is
    unconditional, so a valid certificate is returned even under an
    already-expired budget.

    Under an active :mod:`repro.obs` collector the cascade records one
    span per attempted tier, ``solve.*`` counters for skips/truncations,
    and a ``winning_tier`` note naming the tier behind the certificate.

    Parameters
    ----------
    budget:
        Shared wall-clock/cancellation budget for the whole cascade;
        ``None`` means unlimited.
    checkpoint:
        Optional checkpoint file for the tier-1 enumeration sweep (see
        :func:`repro.cuts.enumerate_exact.cut_profile`).
    cache:
        Optional :class:`~repro.perf.cache.SolverCache` (or its root
        directory).  A verified exact certificate for this instance — or
        its axis-rotated torus or mesh twin, via the full-set keys — returns
        immediately as tier 0; otherwise cached profiles short-circuit
        tier 1, any cached witness warm-starts tier 3, and the resulting
        certificate is stored for future runs.  ``None`` disables caching
        (counted as ``perf.cache.bypass``).
    enum_limit, bb_limit, dp_width_limit:
        Applicability thresholds of tiers 1–3.
    shards:
        ``None`` (the default) runs tier 1 serially.  A value ``> 1``
        runs tier 1 as the lease-coordinated distributed sweep
        (:func:`repro.dist.distributed_cut_profile`) with this many
        shards; the result — exact or partial — is bit-identical to
        what the serial sweep would produce over the same covered
        ranges, so every downstream guarantee is unchanged.
    dist_state:
        Coordinator state directory for the distributed tier; ``None``
        uses a fresh temporary directory (correct, but a crash of the
        *parent* then cannot resume).  Point it somewhere durable to
        make distributed runs resumable.
    dist_workers:
        Fleet size for the distributed tier (default 2).
    dist_telemetry:
        Optional fleet-telemetry directory for the distributed tier (see
        :func:`repro.dist.distributed_cut_profile`); shard files and the
        merged timeline land there, and a traced run's timeline gains a
        ``telemetry`` pointer block.
    """
    with trace("solve.fallback", network=net.name, nodes=net.num_nodes):
        return _run_cascade(
            net, budget, checkpoint,
            cache=SolverCache(cache) if isinstance(cache, (str,)) else cache,
            enum_limit=enum_limit, bb_limit=bb_limit,
            dp_width_limit=dp_width_limit,
            shards=shards, dist_state=dist_state, dist_workers=dist_workers,
            dist_telemetry=dist_telemetry,
        )


def _run_cascade(
    net: Network,
    budget: Budget | None,
    checkpoint: str | CheckpointStore | None,
    *,
    cache: SolverCache | None,
    enum_limit: int,
    bb_limit: int,
    dp_width_limit: int,
    shards: int | None = None,
    dist_state: str | None = None,
    dist_workers: int | None = None,
    dist_telemetry: str | None = None,
) -> BoundCertificate:
    """The cascade body (Theorem 2.20's solvers, tiered)."""
    # Imported at call time: verify.checker re-derives the paper claims
    # from core.claims, so a module-level import here would make the
    # core↔verify package pair import-order-sensitive.
    from ..verify.checker import (
        WITNESS_FREE_TOKEN, check_certificate, check_profile,
    )

    if budget is None:
        budget = Budget.unlimited()
    name = f"BW({net.name})"
    n = net.num_nodes
    notes: list[str] = []

    lower = 0
    lower_ev = "tier-5 trivial floor (0 <= BW always)"
    upper = net.num_edges
    upper_ev = f"tier-5 trivial ceiling (cutting every edge; {WITNESS_FREE_TOKEN})"
    witness = None

    # Tier 0: the result cache.  A verified exact hit (for this instance
    # or its axis-rotated twin) closes the interval without
    # running a single solver; short of that, a stored witness becomes the
    # tier-3 warm start.  Every hit is re-validated by the *independent*
    # checker (repro.verify) before it is trusted — the cache's own
    # re-verify shares the capacity kernel with the solvers, so it cannot
    # be the last line of defense.  A rejected hit falls through to the
    # live tiers instead of failing the solve.
    warm_side = None
    if cache is None:
        incr("perf.cache.bypass")
    else:
        hit = cache.get_certificate(net)
        if hit is not None:
            fields = dict(hit)
            fields.setdefault("quantity", name)
            report = check_certificate(net, fields)
            if report.ok:
                annotate("winning_tier", "tier-0")
                annotate("quantity", name)
                annotate("exact", True)
                incr("solve.certificates")
                side = hit["witness_side"]
                return BoundCertificate(
                    name, int(hit["lower"]), int(hit["upper"]),
                    str(hit["lower_evidence"]), str(hit["upper_evidence"]),
                    Cut(net, side) if side is not None else None,
                )
            incr("verify.cache_rejected")
            notes.append(
                "tier-0 cache hit rejected by the independent checker: "
                + "; ".join(report.problems)
            )
        warm_side = cache.get_warm_start(net)

    def _certificate() -> BoundCertificate:
        tail = ("; " + "; ".join(notes)) if notes else ""
        cert = BoundCertificate(
            name, lower, min(upper, net.num_edges),
            lower_ev + tail, upper_ev + tail, witness,
        )
        # Self-check before anything downstream (caller or cache) sees the
        # certificate: the independent checker recounts the witness and
        # re-checks the paper claims.  A failure here is a solver bug, so
        # it raises instead of degrading further.
        cert.verify(net).raise_for_problems()
        # The winning tier is whichever produced the upper bound (for an
        # exact answer both sides share it); recorded as an obs note so a
        # traced run's timeline names it.
        annotate("winning_tier", upper_ev.split()[0])
        annotate("quantity", name)
        annotate("exact", lower == upper)
        incr("solve.certificates")
        if cache is not None:
            cache.put_certificate(
                net,
                {
                    "quantity": name,
                    "lower": int(lower),
                    "upper": int(min(upper, net.num_edges)),
                    "lower_evidence": lower_ev + tail,
                    "upper_evidence": upper_ev + tail,
                },
                witness_side=witness.side if witness is not None else None,
            )
        return cert

    def _exact(value: int, evidence: str, cut=None) -> BoundCertificate:
        nonlocal lower, upper, lower_ev, upper_ev, witness
        lower = upper = int(value)
        lower_ev = upper_ev = evidence
        witness = cut
        return _certificate()

    # Tier 1: exhaustive enumeration — serial, or the lease-coordinated
    # distributed sweep when the caller asked for shards.  Both paths
    # produce the same bits (values and witnesses), so everything below
    # this block is agnostic to which one ran.
    distributed = shards is not None and int(shards) > 1
    if n > enum_limit:
        incr("solve.tiers_skipped")
        notes.append(
            f"tier-1 exhaustive enumeration skipped: {n} > {enum_limit} nodes"
        )
    elif budget.expired():
        incr("solve.tiers_skipped")
        notes.append("tier-1 exhaustive enumeration skipped: budget expired")
    else:
        incr("solve.tiers_run")
        dist_status: dict = {}
        with trace("solve.tier1.enumeration", network=net.name,
                   distributed=distributed):
            prof = (
                cache.get_profile(net, version=BATCH_CONTRACT_VERSION)
                if cache is not None else None
            )
            if prof is not None and not check_profile(net, prof).ok:
                # A cached profile that fails the independent recount is
                # discarded and recomputed, never trusted.
                incr("verify.cache_rejected")
                notes.append(
                    "tier-1 cached profile rejected by the independent checker"
                )
                prof = None
            cached = prof is not None
            if prof is None and distributed:
                import tempfile

                with tempfile.TemporaryDirectory() as scratch:
                    prof = distributed_cut_profile(
                        net,
                        state_dir=dist_state if dist_state else scratch,
                        shards=int(shards),
                        workers=int(dist_workers) if dist_workers else 2,
                        budget=budget,
                        status=dist_status,
                        telemetry=dist_telemetry,
                    )
                ev = dist_status.get("events", {})
                # Shard history as certificate provenance: how the
                # answer was assembled, including what had to be stolen
                # back from dead workers.
                notes.append(
                    "tier-1 shard history: "
                    f"{dist_status.get('counts', {}).get('done', 0)}/"
                    f"{dist_status.get('shards', 0)} shards done, "
                    f"{ev.get('claims', 0)} claims, "
                    f"{ev.get('reclaims', 0)} reclaims, "
                    f"{ev.get('quarantined', 0)} quarantined, "
                    f"{dist_status.get('workers_killed', 0)} workers lost"
                )
            elif prof is None:
                prof = cut_profile(net, budget=budget, checkpoint=checkpoint)
            if cache is not None and prof.complete and not cached:
                cache.put_profile(net, prof, version=BATCH_CONTRACT_VERSION)
        label = (
            f"distributed enumeration ({int(shards)} shards)"
            if distributed and not cached else "exhaustive enumeration"
        )
        c = _bisection_count(prof.values, n)
        w = int(prof.values[c])
        if prof.complete:
            return _exact(
                w, f"tier-1 {label} (exact)", prof.witness_cut(c)
            )
        incr("solve.tiers_truncated")
        if w < _INT64_MAX and w < upper:
            upper = w
            upper_ev = f"tier-1 {label} (partial profile)"
            witness = prof.witness_cut(c)
        notes.append(
            "tier-1 truncated: budget expired mid-sweep; partial profile "
            "entries kept as upper bounds only"
        )

    # Tier 2: layered min-plus DP.
    layers = net.layers() if hasattr(net, "layers") else None
    if layers is None:
        incr("solve.tiers_skipped")
        notes.append("tier-2 layered DP skipped: network has no layering")
    elif max(len(l) for l in layers) > dp_width_limit:
        incr("solve.tiers_skipped")
        notes.append(
            f"tier-2 layered DP skipped: layer width "
            f"{max(len(l) for l in layers)} > {dp_width_limit}"
        )
    elif budget.expired():
        incr("solve.tiers_skipped")
        notes.append("tier-2 layered DP skipped: budget expired")
    else:
        incr("solve.tiers_run")
        with trace("solve.tier2.layered_dp", network=net.name):
            prof = layered_cut_profile(
                net, with_witnesses=True, max_width=dp_width_limit,
                budget=budget,
            )
        if prof.complete:
            cut = prof.min_bisection()
            return _exact(cut.capacity, "tier-2 layered min-plus DP (exact)", cut)
        incr("solve.tiers_truncated")
        w = int(min(prof.values[n // 2], prof.values[(n + 1) // 2]))
        if w < _INT64_MAX and w < upper:
            upper = w
            # A truncated pin sweep keeps minima whose witness masks were
            # not reconstructed; the marker says so explicitly instead of
            # leaving the certificate silently witness-less.
            upper_ev = (
                f"tier-2 layered DP (partial pin sweep; {WITNESS_FREE_TOKEN})"
            )
            witness = None
        notes.append(
            "tier-2 truncated: budget expired mid pin sweep; partial values "
            "kept as upper bounds only"
        )

    # Tier 3: branch and bound.
    if n > bb_limit:
        incr("solve.tiers_skipped")
        notes.append(f"tier-3 branch and bound skipped: {n} > {bb_limit} nodes")
    elif budget.expired():
        incr("solve.tiers_skipped")
        notes.append("tier-3 branch and bound skipped: budget expired")
    elif n == 0:
        incr("solve.tiers_skipped")
        notes.append("tier-3 branch and bound skipped: empty network")
    else:
        incr("solve.tiers_run")
        st: dict = {}
        with trace("solve.tier3.branch_and_bound", network=net.name):
            cut = bb_min_bisection(
                net, node_limit=bb_limit, budget=budget, status=st,
                warm_start=witness if witness is not None else warm_side,
            )
        if st.get("complete"):
            return _exact(cut.capacity, "tier-3 branch and bound (exact)", cut)
        incr("solve.tiers_truncated")
        if cut.capacity < upper:
            upper = cut.capacity
            upper_ev = "tier-3 branch and bound (truncated; incumbent cut)"
            witness = cut
        notes.append(
            "tier-3 truncated: budget expired mid-search; incumbent kept as "
            "an upper bound"
        )

    # The claim tier: a pristine family instance takes the proven closed
    # form as its lower bound and the paper's construction as its witness.
    # It runs after the exact tiers, so their certificates are untouched,
    # and it is a family's last tier: on B16-B256 the heuristics were
    # measured no better than the construction, and slower.
    claim = _family_claim(net, budget)
    if claim is None:
        incr("solve.tiers_skipped")
        notes.append("tier-claim skipped: not a recognized family instance")
    elif budget.expired():
        incr("solve.tiers_skipped")
        notes.append("tier-claim skipped: budget expired")
    else:
        incr("solve.tiers_run")
        lower, claim_ev, build = claim
        lower_ev = f"tier-claim {claim_ev}"
        with trace("solve.tier_claim.construction", network=net.name):
            cut, how = build()
        if cut.capacity < upper:
            upper = cut.capacity
            upper_ev = f"tier-claim verified {how}"
            witness = cut
        return _certificate()

    # Tier 4: heuristics (upper bounds only).
    if budget.expired():
        incr("solve.tiers_skipped")
        notes.append("tier-4 heuristics skipped: budget expired")
    elif n < 2:
        incr("solve.tiers_skipped")
        notes.append("tier-4 heuristics skipped: fewer than two nodes")
    else:
        incr("solve.tiers_run")
        with trace("solve.tier4.heuristics", network=net.name):
            cut = kernighan_lin_bisection(net, restarts=1, budget=budget)
            used = ["Kernighan-Lin"]
            for label, heuristic in (
                ("Fiduccia-Mattheyses", fm_bisection),
                ("spectral", spectral_bisection),
            ):
                if budget.expired():
                    notes.append(f"tier-4 {label} skipped: budget expired")
                    break
                other = heuristic(net, budget=budget)
                used.append(label)
                if other.capacity < cut.capacity:
                    cut = other
        if cut.capacity < upper:
            upper = cut.capacity
            upper_ev = f"tier-4 heuristics (best of {'/'.join(used)})"
            witness = cut

    return _certificate()
