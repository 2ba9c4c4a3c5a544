"""Is an answer right?  The independent checker plus the expected interval.

Expected intervals come from the closed forms of ``repro.core.claims``
where a family claim applies (Lemma 3.2, the Arjona-Aroca & Fernández
Anta torus/mesh/fat-tree/flattened-butterfly widths), from
:data:`PINNED_BN` for the butterflies only the heuristics reach, and
otherwise from an untimed, uncached, in-process reference solve.  For
``Bn`` that reference must itself lie in the Theorem 2.20 interval
``2(sqrt 2 - 1) n < BW(Bn) <= n``.

An answer must name the requested network and lie inside its expected
interval: equal to it where the interval is exact, and never looser
where it is not.
"""

from __future__ import annotations

import json

import numpy as np

from repro.cli import _family_network
from repro.core import claims
from repro.core.fallback import solve_with_fallback
from repro.verify.checker import check_certificate
from repro.verify.serialize import CERTIFICATE_FORMAT, network_from_spec, network_spec

#: ``n -> (lower, upper)`` certified for ``Bn`` by the tier-4 heuristics and
#: the tier-5 floor at the commit that introduced this benchmark.  Pinned
#: here rather than re-derived, so an answer checked against them is not
#: checked against the program itself.
PINNED_BN = {16: (0, 16), 32: (0, 32)}


def cli_spec(args: list[str]) -> dict:
    """The network spec a ``solve FAMILY N …`` command line builds."""
    return network_spec(_family_network(args[0], int(args[1])))


def closed_form(spec: dict) -> int | None:
    """``BW`` from a family claim, or ``None`` where no claim applies."""
    family, p = spec.get("family"), spec.get("params", {})
    if family == "wn":
        return claims.lemma_32_width(p["n"])
    if family in ("torus", "mesh") and len(set(p["sides"])) == 1:
        side, dims = p["sides"][0], len(p["sides"])
        if family == "mesh":
            return claims.arjona_mesh_width(side, dims)
        if side >= 3:
            return claims.arjona_torus_width(side, dims)
    if family == "fattree":
        return claims.fat_tree_width(p["depth"])
    if family == "fbfly" and p["ary"] % 2 == 0:
        return claims.flattened_butterfly_width(p["ary"], p["dims"])
    return None


class Expectations:
    """Memoized ``(edge digest, lower, upper)`` each answer must lie within."""

    def __init__(self) -> None:
        self._memo: dict[str, tuple[str, int, int] | None] = {}

    def interval(self, spec: dict):
        key = json.dumps(spec, sort_keys=True)
        if key not in self._memo:
            self._memo[key] = self._derive(spec)
        return self._memo[key]

    @staticmethod
    def _derive(spec: dict):
        net = network_from_spec(spec)
        width = closed_form(spec)
        if width is not None:
            return net.edge_digest, width, width
        n = spec.get("params", {}).get("n")
        if spec.get("family") == "bn" and n in PINNED_BN:
            return (net.edge_digest, *PINNED_BN[n])
        ref = solve_with_fallback(net)
        if spec.get("family") == "bn":
            floor = claims.theorem_220_strict_floor(n)
            exact = ref.lower == ref.upper
            if not (floor < ref.upper <= n and (not exact or ref.lower > floor)):
                return None  # the reference breaks Theorem 2.20: nothing can match
        return net.edge_digest, int(ref.lower), int(ref.upper)


def within(got: tuple[str, int, int], expected) -> bool:
    """Same network, and ``expected lower <= lower <= upper <= expected upper``."""
    return (
        expected is not None
        and got[0] == expected[0]
        and expected[1] <= got[1] <= got[2] <= expected[2]
    )


def certificate_ok(text: str, expected) -> tuple[bool, bool]:
    """``(correct, exact)`` for one ``repro-certificate/1`` JSON text."""
    try:
        data = json.loads(text)
        if data.get("format") != CERTIFICATE_FORMAT:
            return False, False
        net = network_from_spec(data["network"])
        fields = {
            k: data.get(k)
            for k in ("quantity", "lower", "upper", "lower_evidence", "upper_evidence")
        }
        bits = data.get("witness")
        fields["witness_side"] = (
            None if bits is None else np.array([c == "1" for c in bits], dtype=bool)
        )
        report = check_certificate(net, fields)
    except (KeyError, TypeError, ValueError):
        return False, False
    got = (net.edge_digest, fields["lower"], fields["upper"])
    return report.ok and within(got, expected), got[1] == got[2]
