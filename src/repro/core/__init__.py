"""The paper-level public API: certified bounds and the claim registry.

Everything here certifies a numbered statement of the paper — the headline
rows of DESIGN.md (Theorem 2.20, Lemmas 2.17/2.19, Lemmas 3.1–3.3, the
Section 4.3 tables) plus the Section 1.2 corollaries; the claim ids come
from the machine-readable table in :mod:`repro.core.claims`.
"""

from .claims import (
    ClaimRow,
    CLAIM_TABLE,
    CITABLE_REFERENCES,
    DESIGN_COVERAGE,
    parse_references,
    known_reference_keys,
    resolve_reference,
)
from .results import BoundCertificate
from .expansion_api import edge_expansion, node_expansion
from .fallback import solve_with_fallback
from .theorems import Claim, ClaimResult, REGISTRY, check, all_claim_ids
from .vlsi import (
    thompson_area_lower_bound,
    at2_lower_bound,
    routing_time_lower_bound,
    bn_area_estimate,
    bn_volume_order,
)

__all__ = [
    "ClaimRow",
    "CLAIM_TABLE",
    "CITABLE_REFERENCES",
    "DESIGN_COVERAGE",
    "parse_references",
    "known_reference_keys",
    "resolve_reference",
    "BoundCertificate",
    "edge_expansion",
    "node_expansion",
    "solve_with_fallback",
    "Claim",
    "ClaimResult",
    "REGISTRY",
    "check",
    "all_claim_ids",
    "thompson_area_lower_bound",
    "at2_lower_bound",
    "routing_time_lower_bound",
    "bn_area_estimate",
    "bn_volume_order",
]
