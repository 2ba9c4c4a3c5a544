"""The degradation cascade always returns a certified bound."""

import numpy as np
import pytest

from repro.core import solve_with_fallback
from repro.obs import Collector, collecting
from repro.perf.cache import SolverCache
from repro.resilience import Budget, CancellationToken
from repro.serve.jobs import solve_job
from repro.topology import (
    Network,
    butterfly,
    flattened_butterfly,
    random_regular_graph,
    wrapped_butterfly,
)
from repro.verify import WITNESS_FREE_TOKEN


def _path(n):
    return Network(range(n), [(i, i + 1) for i in range(n - 1)], name=f"P{n}")


class TestExactTiers:
    def test_tier1_enumeration_on_a_path(self):
        cert = solve_with_fallback(_path(8))
        assert cert.lower == cert.upper == 1
        assert "tier-1" in cert.lower_evidence and "exact" in cert.lower_evidence
        assert cert.witness is not None and cert.witness.capacity == 1

    def test_tier1_on_b4_matches_the_paper(self, b4):
        cert = solve_with_fallback(b4)
        assert cert.lower == cert.upper == 4  # BW(B4) = n = 4
        assert "tier-1" in cert.upper_evidence

    def test_tier2_layered_dp_on_b8(self, b8):
        # 32 nodes: enumeration skipped, layered DP exact.
        cert = solve_with_fallback(b8)
        assert cert.lower == cert.upper == 8  # BW(B8) = n = 8
        assert "tier-2" in cert.upper_evidence
        assert "tier-1 exhaustive enumeration skipped" in cert.lower_evidence

    def test_tier3_branch_and_bound_on_a_general_graph(self):
        net = random_regular_graph(26, 3, seed=1)
        cert = solve_with_fallback(net)
        assert cert.lower == cert.upper
        assert "tier-3" in cert.upper_evidence
        assert "tier-2 layered DP skipped" in cert.upper_evidence

    def test_witness_is_a_balanced_cut(self, b4):
        cert = solve_with_fallback(b4)
        assert cert.witness.is_bisection()
        assert cert.witness.capacity == cert.upper


class TestDegradation:
    def test_expired_budget_still_certifies(self, b4):
        """Acceptance: exact solve under an already-expired budget."""
        cert = solve_with_fallback(b4, budget=Budget(0))
        assert cert.lower <= cert.upper
        assert cert.lower == 0 and cert.upper == b4.num_edges
        assert "tier-5" in cert.lower_evidence
        assert "budget" in cert.lower_evidence
        assert "tier-1" in cert.lower_evidence  # skip reasons are recorded

    def test_cancellation_token_degrades_too(self, b4):
        token = CancellationToken()
        token.cancel()
        cert = solve_with_fallback(b4, budget=Budget(None, token=token))
        assert cert.lower == 0 and cert.upper == b4.num_edges

    def test_heuristic_tier_tightens_large_instances(self, b16):
        # B16's edges as a plain Network: 80 nodes, no layering and no
        # family for the claim tier, so every tier before the heuristics
        # is out of reach and they must carry the upper bound.
        net = Network(b16.labels, b16.edges, name="B16-edges")
        cert = solve_with_fallback(net)
        assert cert.lower <= cert.upper < b16.num_edges
        assert "tier-claim skipped: not a recognized family" in cert.upper_evidence
        assert "tier-4" in cert.upper_evidence
        assert cert.witness is not None
        assert cert.witness.capacity == cert.upper

    def test_partial_enumeration_contributes_an_upper_bound(self):
        # Expire mid-sweep: small batches, a clock that dies after 3 polls.
        t = {"v": 0.0}

        def clock():
            t["v"] += 1.0
            return t["v"]

        net = _path(14)
        budget = Budget(3.5, clock=clock, max_batch_bits=8)
        cert = solve_with_fallback(net, budget=budget, bb_limit=0)
        assert cert.lower <= cert.upper
        assert "truncated" in cert.upper_evidence or "tier-" in cert.upper_evidence

    def test_quantity_names_the_network(self, b4):
        cert = solve_with_fallback(b4, budget=Budget(0))
        assert b4.name in cert.quantity


class TestClaimTier:
    """Pristine family instances past the exact tiers close on the paper's claims."""

    def test_fbfly_2_6_is_exact_at_the_closed_form(self):
        cert = solve_with_fallback(flattened_butterfly(2, 6))
        assert cert.lower == cert.upper == 32
        assert cert.upper_evidence.startswith("tier-claim")

    def test_b16_takes_the_theorem_220_floor(self, b16):
        cert = solve_with_fallback(b16)
        assert (cert.lower, cert.upper) == (14, 16)
        assert cert.lower_evidence.startswith("tier-claim theorem-2.20")
        assert cert.witness is not None and cert.witness.capacity == 16
        report = cert.verify(b16)
        assert report.ok and "witness" in report.checks

    def test_claim_tier_is_a_familys_last_tier(self, b16):
        with collecting(Collector()) as coll:
            cert = solve_with_fallback(b16)
        assert "tier-4" not in cert.upper_evidence
        assert coll.counters.get("solve.tiers_run", 0) == 1
        assert coll.notes["winning_tier"] == "tier-claim"
        assert [s["name"] for s in coll.spans if "tier" in s["name"]] == [
            "solve.tier_claim.construction"
        ]

    def test_expired_budget_skips_the_claim_tier(self, b16):
        cert = solve_with_fallback(b16, budget=Budget(0))
        assert cert.lower == 0 and cert.upper == b16.num_edges
        assert "tier-claim skipped: budget expired" in cert.lower_evidence
        assert "tier-5" in cert.lower_evidence

    def test_budget_stopping_the_plan_search_keeps_the_column_cut(self):
        t = {"v": 0.0}

        def clock():
            t["v"] += 1.0
            return t["v"]

        # The claim tier's own poll passes; the plan search expires after a
        # couple of shapes, none of them below n, so the witness is the
        # column cut while the lower bound is still the Theorem 2.20 floor.
        cert = solve_with_fallback(butterfly(1024), budget=Budget(3.5, clock=clock))
        assert (cert.lower, cert.upper) == (849, 1024)
        assert cert.upper_evidence.startswith("tier-claim verified column cut")
        assert cert.witness.capacity == 1024

    def test_served_bn16_carries_the_floor(self):
        res = solve_job({
            "spec": {"family": "bn", "params": {"n": 16}},
            "budget_seconds": None, "cache": None,
        })
        assert res["certificate"]["lower"] == 14
        assert res["certificate"]["upper"] == 16
        assert res["tier"] == "tier-claim"


class TestWitnessContract:
    """Every certificate carries a checkable witness or says it doesn't."""

    def test_exact_solves_carry_a_witness(self, b4):
        cert = solve_with_fallback(b4)
        assert cert.witness is not None
        assert cert.witness.capacity == cert.upper

    def test_trivial_ceiling_is_marked_witness_free(self, b4):
        cert = solve_with_fallback(b4, budget=Budget(0))
        assert cert.witness is None
        assert WITNESS_FREE_TOKEN in cert.upper_evidence

    def test_partial_pin_sweep_is_marked_witness_free(self):
        # W8 is cyclic, so the DP pins the first layer's 2^8 masks one
        # sweep at a time and can genuinely truncate between pins.  Expire
        # the budget after a few polls; the kept minima outlive their
        # witnesses and the certificate must say so.
        t = {"v": 0.0}

        def clock():
            t["v"] += 1.0
            return t["v"]

        w8 = wrapped_butterfly(8)
        cert = solve_with_fallback(
            w8, budget=Budget(3.5, clock=clock), enum_limit=0, bb_limit=0,
        )
        assert "tier-2" in cert.upper_evidence
        assert "partial pin sweep" in cert.upper_evidence
        assert cert.witness is None
        assert WITNESS_FREE_TOKEN in cert.upper_evidence
        assert cert.upper < w8.num_edges  # the partial sweep did tighten

    def test_witness_or_marker_holds_across_budgets(self, b4, b8):
        for net in (b4, b8, _path(9)):
            for seconds in (0, 0.001, None):
                cert = solve_with_fallback(net, budget=Budget(seconds))
                if cert.witness is None:
                    assert WITNESS_FREE_TOKEN in cert.upper_evidence
                else:
                    assert cert.witness.capacity == cert.upper

    def test_certificates_self_verify(self, b4):
        cert = solve_with_fallback(b4)
        report = cert.verify(b4)
        assert report.ok and "witness" in report.checks


class TestCacheRevalidation:
    """Tier-0 hits are re-checked independently, never trusted blindly."""

    def test_poisoned_cache_entry_is_rejected_and_recomputed(self, b4, tmp_path):
        cache = SolverCache(tmp_path)
        # An "exact" BW(B4) = 3 with no witness and no witness-free marker:
        # the cache's own gating has nothing to recount, so only the
        # independent checker can refute it (Theorem 2.20 floor + the
        # witness-or-marker contract).
        cache.put_certificate(
            b4,
            {
                "quantity": f"BW({b4.name})",
                "lower": 3, "upper": 3,
                "lower_evidence": "tier-1 exhaustive enumeration (exact)",
                "upper_evidence": "tier-1 exhaustive enumeration (exact)",
            },
            witness_side=None,
        )
        assert cache.get_certificate(b4) is not None  # the poison is served
        with collecting(Collector()) as coll:
            cert = solve_with_fallback(b4, cache=cache)
        assert cert.lower == cert.upper == 4  # recomputed, not trusted
        assert coll.counters.get("verify.cache_rejected", 0) >= 1
        assert "tier-0 cache hit rejected by the independent checker" in (
            cert.upper_evidence
        )

    def test_clean_cache_hit_still_wins(self, b4, tmp_path):
        cache = SolverCache(tmp_path)
        solve_with_fallback(b4, cache=cache)  # populate
        with collecting(Collector()) as coll:
            cert = solve_with_fallback(b4, cache=cache)
        assert cert.lower == cert.upper == 4
        assert coll.counters.get("verify.cache_rejected", 0) == 0
        assert coll.counters.get("solve.tiers_run", 0) == 0  # pure tier-0
