"""Solver-independent certificate checking by first-principles edge counting.

Every solver in this repo re-verifies its own answers, but a bug in a
shared primitive (the vectorized capacity kernel, the witness-mask
transport of the symmetry cache) would fool solver and re-verify alike.
This module is the second opinion: it recounts every claimed capacity
directly from the raw ``(E, 2)`` edge array with its own arithmetic and
never imports a solver — the lint layer DAG confines ``verify.checker``
to ``topology``/``obs`` plus the two pure *model* modules of ``core``
(:mod:`repro.core.claims`; certificates are consumed duck-typed, so even
:mod:`repro.core.results` is not imported).

Checked, per certificate (Section 2.1 quantities):

* interval sanity — ``0 <= lower <= upper`` and, for bisection widths,
  ``upper <= |E|``;
* the witness — a boolean side array of the right shape whose **recounted**
  capacity equals the claimed upper bound exactly, balanced when the
  quantity is a whole-graph bisection; a missing witness is a finding
  unless the evidence explicitly carries the ``witness-free`` marker;
* the paper claims of :mod:`repro.core.claims` against every verified
  width — Theorem 2.20's strict ``2(sqrt 2 - 1) n`` floor (and the
  folklore ``<= n`` ceiling) on pristine ``Bn``, Lemma 3.2's ``BW(Wn) = n``,
  Lemma 3.3's ``BW(CCCn) = n/2``, Lemma 3.1's ``>= n`` floor for cuts
  bisecting the I/O levels, the Lemma 2.17 ``f(x, y)`` capacity
  density for M2-bisecting cuts of square meshes of stars, and the
  Arjona-Aroca product-network widths (claims ``product-torus``,
  ``product-mesh``, ``dc-fattree``, ``dc-fbfly``) on pristine square
  tori and meshes, fat trees, and even-radix flattened butterflies.

Cut profiles (:class:`repro.cuts.enumerate_exact.CutProfile`-shaped
objects, duck-typed) are checked entry by entry: every finite value must
be achieved by its witness, complete profiles must be complement-symmetric
and pin ``values[0] = values[m] = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..core.claims import (
    arjona_mesh_width,
    arjona_torus_width,
    fat_tree_width,
    flattened_butterfly_width,
    lemma_32_width,
    lemma_33_width,
    theorem_220_strict_floor,
)
from ..obs import incr
from ..topology.base import Network
from ..topology.butterfly import Butterfly
from ..topology.ccc import CubeConnectedCycles
from ..topology.fabric import FatTree
from ..topology.mesh_of_stars import MeshOfStars
from ..topology.product import FlattenedButterfly, Mesh, Torus

__all__ = [
    "WITNESS_FREE_TOKEN",
    "CheckReport",
    "VerificationError",
    "recount_capacity",
    "check_cut",
    "check_certificate",
    "check_profile",
    "lemma_217_f",
]

#: Evidence-string marker for upper bounds that legitimately carry no
#: witness cut (e.g. a truncated pin sweep whose best value outlived its
#: witness, or the trivial ``|E|`` ceiling).
WITNESS_FREE_TOKEN = "witness-free"

_INT64_MAX = np.iinfo(np.int64).max


class VerificationError(ValueError):
    """An independent check found problems; carries the full report."""

    def __init__(self, report: "CheckReport") -> None:
        super().__init__(
            f"verification of {report.subject} failed: "
            + "; ".join(report.problems)
        )
        self.report = report


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one independent verification.

    Attributes
    ----------
    subject:
        What was checked, e.g. ``"BW(B4)"``.
    problems:
        Every failed check, as human-readable findings; empty means the
        subject verified.
    checks:
        Names of the checks that ran (including the ones that passed), so
        a caller can tell "no problems" from "nothing applied".
    """

    subject: str
    problems: tuple[str, ...]
    checks: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_for_problems(self) -> "CheckReport":
        """Raise :class:`VerificationError` unless the subject verified."""
        if self.problems:
            raise VerificationError(self)
        return self

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.ok:
            return f"{self.subject}: ok ({len(self.checks)} checks)"
        return f"{self.subject}: {len(self.problems)} problem(s): " + "; ".join(
            self.problems
        )


# --------------------------------------------------------------------- #
# First-principles primitives
# --------------------------------------------------------------------- #
def recount_capacity(net: Network, side: np.ndarray) -> int:
    """Count crossing edges straight off the raw edge array (Section 1.2).

    Deliberately does *not* call :meth:`Network.cut_capacity`: a bug in
    the shared kernel must not be able to certify itself.
    """
    s = np.asarray(side).astype(bool)
    e = np.asarray(net.edges, dtype=np.int64)
    return int(np.sum(s[e[:, 0]].astype(np.int64) ^ s[e[:, 1]].astype(np.int64)))


def _as_side(net: Network, witness: Any) -> np.ndarray | None:
    """Normalize a witness (Cut-like object or array) to a side array."""
    side = getattr(witness, "side", witness)
    if side is None:
        return None
    side = np.asarray(side)
    if side.shape != (net.num_nodes,):
        return None
    return side.astype(bool)


def check_cut(
    net: Network,
    side: np.ndarray,
    *,
    expected_capacity: int | None = None,
    counted: np.ndarray | None = None,
    expected_counted_in: int | None = None,
    require_bisection: bool = False,
) -> list[str]:
    """First-principles checks of one cut; returns the list of problems."""
    problems: list[str] = []
    raw = np.asarray(side)
    if raw.shape != (net.num_nodes,):
        return [
            f"witness side array has shape {raw.shape}, expected "
            f"({net.num_nodes},)"
        ]
    s = raw.astype(bool)
    cap = recount_capacity(net, s)
    if expected_capacity is not None and cap != int(expected_capacity):
        problems.append(
            f"recounted capacity {cap} != claimed {int(expected_capacity)}"
        )
    if require_bisection:
        half = (net.num_nodes + 1) // 2
        in_s = int(s.sum())
        if in_s > half or net.num_nodes - in_s > half:
            problems.append(
                f"witness is not a bisection: |S| = {in_s} of {net.num_nodes}"
            )
    if counted is not None and expected_counted_in is not None:
        idx = np.asarray(counted, dtype=np.int64)
        got = int(s[idx].sum())
        if got != int(expected_counted_in):
            problems.append(
                f"witness has {got} counted nodes in S, expected "
                f"{int(expected_counted_in)}"
            )
    return problems


# --------------------------------------------------------------------- #
# Paper-claim re-checks (Lemmas 2.17/3.1–3.3, Theorem 2.20)
# --------------------------------------------------------------------- #
def lemma_217_f(x: float, y: float) -> float:
    """Lemma 2.18's capacity density ``f(x, y) = x + y - min(1, 2xy)``.

    Re-derived here from the claim-table statement; deliberately not
    imported from :mod:`repro.cuts.mos_cuts`.
    """
    return x + y - min(1.0, 2.0 * x * y)


def _bisects(side: np.ndarray, node_set: np.ndarray) -> bool:
    inside = int(side[node_set].sum())
    return abs(2 * inside - len(node_set)) <= 1


def _claims_for_width(
    net: Network, lower: float, upper: float, exact: bool
) -> tuple[list[str], list[str]]:
    """Family claims applicable to a whole-graph bisection-width interval."""
    problems: list[str] = []
    checks: list[str] = []
    if isinstance(net, Butterfly) and not net.wraparound:
        checks.append("theorem-2.20")
        if exact:
            if not upper > theorem_220_strict_floor(net.n):
                problems.append(
                    f"Theorem 2.20 violated: exact BW({net.name}) = {upper} "
                    f"<= strict floor {theorem_220_strict_floor(net.n):.4f}"
                )
            if upper > net.n:
                problems.append(
                    f"folklore ceiling violated: exact BW({net.name}) = "
                    f"{upper} > n = {net.n}"
                )
        elif upper < math.ceil(theorem_220_strict_floor(net.n)):
            # Even a non-exact certified upper bound can refute the floor.
            problems.append(
                f"Theorem 2.20 violated: certified upper bound {upper} for "
                f"BW({net.name}) is below the strict floor "
                f"{theorem_220_strict_floor(net.n):.4f}"
            )
    elif isinstance(net, Butterfly) and net.wraparound and exact:
        checks.append("lemma-3.2")
        if upper != lemma_32_width(net.n):
            problems.append(
                f"Lemma 3.2 violated: exact BW({net.name}) = {upper} != "
                f"n = {lemma_32_width(net.n)}"
            )
    elif isinstance(net, CubeConnectedCycles) and exact:
        checks.append("lemma-3.3")
        if upper != lemma_33_width(net.n):
            problems.append(
                f"Lemma 3.3 violated: exact BW({net.name}) = {upper} != "
                f"n/2 = {lemma_33_width(net.n)}"
            )
    elif isinstance(net, Torus) and exact and net.is_square:
        checks.append("product-torus")
        want = arjona_torus_width(net.sides[0], net.dims)
        if upper != want:
            problems.append(
                f"product-torus claim violated: exact BW({net.name}) = "
                f"{upper} != {want}"
            )
    elif isinstance(net, Mesh) and exact and net.is_square:
        checks.append("product-mesh")
        want = arjona_mesh_width(net.sides[0], net.dims)
        if upper != want:
            problems.append(
                f"product-mesh claim violated: exact BW({net.name}) = "
                f"{upper} != {want}"
            )
    elif isinstance(net, FlattenedButterfly) and exact and net.ary % 2 == 0:
        checks.append("dc-fbfly")
        want = flattened_butterfly_width(net.ary, net.dims)
        if upper != want:
            problems.append(
                f"dc-fbfly claim violated: exact BW({net.name}) = "
                f"{upper} != {want}"
            )
    elif isinstance(net, FatTree) and exact:
        checks.append("dc-fattree")
        want = fat_tree_width(net.depth)
        if upper != want:
            problems.append(
                f"dc-fattree claim violated: exact BW({net.name}) = "
                f"{upper} != {want}"
            )
    return problems, checks


def _claims_for_witness(net: Network, side: np.ndarray) -> tuple[list[str], list[str]]:
    """Per-witness paper inequalities (applicable to *any* cut, optimal or not)."""
    problems: list[str] = []
    checks: list[str] = []
    cap = recount_capacity(net, side)
    if isinstance(net, Butterfly) and not net.wraparound:
        io = np.concatenate([net.inputs(), net.outputs()])
        for label, u_set in (
            ("inputs", net.inputs()),
            ("outputs", net.outputs()),
            ("inputs+outputs", io),
        ):
            if _bisects(side, u_set):
                checks.append("lemma-3.1")
                if cap < net.n:
                    problems.append(
                        f"Lemma 3.1 violated: cut bisects the {label} of "
                        f"{net.name} with capacity {cap} < n = {net.n}"
                    )
    if isinstance(net, MeshOfStars) and net.j == net.k and _bisects(side, net.m2()):
        # Lemma 2.17: the minimum over M2-bisecting cuts with side counts
        # (a, b) on M1/M3 is f(a/j, b/j) j^2 up to an O(j) integrality
        # correction (exact equality is the real-valued statement; at odd
        # j the true optimum undershoots by < j, see repro.cuts.mos_cuts).
        checks.append("lemma-2.17")
        j = net.j
        a = int(side[net.m1()].sum())
        b = int(side[net.m3()].sum())
        floor = min(
            lemma_217_f(a / j, b / j), lemma_217_f(1.0 - a / j, 1.0 - b / j)
        ) * j * j - j
        if cap < floor:
            problems.append(
                f"Lemma 2.17 violated: M2-bisecting cut of {net.name} with "
                f"(|A∩M1|, |A∩M3|) = ({a}, {b}) has capacity {cap} < "
                f"f-floor {floor:.4f}"
            )
    return problems, checks


# --------------------------------------------------------------------- #
# Certificates
# --------------------------------------------------------------------- #
def _cert_fields(cert: Any) -> dict[str, Any]:
    """Normalize a BoundCertificate-shaped object or mapping to a dict."""
    if isinstance(cert, dict):
        out = dict(cert)
        out.setdefault("witness", out.get("witness_side"))
        return out
    return {
        "quantity": getattr(cert, "quantity", "?"),
        "lower": getattr(cert, "lower", None),
        "upper": getattr(cert, "upper", None),
        "lower_evidence": getattr(cert, "lower_evidence", ""),
        "upper_evidence": getattr(cert, "upper_evidence", ""),
        "witness": getattr(cert, "witness", None),
    }


def _is_full_bisection_quantity(quantity: str, net: Network) -> bool:
    """Whether the quantity is the whole-graph ``BW`` of this network."""
    return quantity.startswith("BW(") and "," not in quantity


def check_certificate(
    net: Network | None,
    cert: Any,
    *,
    require_witness: bool = True,
) -> CheckReport:
    """Independently verify a certificate against a live network.

    ``cert`` may be a :class:`~repro.core.results.BoundCertificate`, or a
    plain mapping with the same field names (``witness_side`` accepted as
    a raw boolean array).  ``require_witness=False`` relaxes the
    witness-or-marker rule for sources that structurally cannot carry one
    (a run timeline's result).  With ``net=None`` only the network-independent
    checks run (interval sanity, the witness-or-marker contract).
    """
    fields = _cert_fields(cert)
    quantity = str(fields.get("quantity", "?"))
    problems: list[str] = []
    checks: list[str] = ["interval"]
    lower, upper = fields.get("lower"), fields.get("upper")
    if not isinstance(lower, (int, float)) or not isinstance(upper, (int, float)):
        return CheckReport(
            quantity, (f"non-numeric interval [{lower!r}, {upper!r}]",),
            tuple(checks),
        )
    if math.isnan(lower) or math.isnan(upper):
        problems.append(f"NaN in interval [{lower}, {upper}]")
    if lower > upper:
        problems.append(f"lower bound {lower} exceeds upper bound {upper}")
    if lower < 0:
        problems.append(f"negative lower bound {lower}")
    full_bw = _is_full_bisection_quantity(quantity, net)
    if net is not None and full_bw and upper > net.num_edges:
        problems.append(
            f"upper bound {upper} exceeds |E| = {net.num_edges}"
        )
    exact = lower == upper

    witness = fields.get("witness")
    side = _as_side(net, witness) if net is not None else None
    if net is not None and witness is not None and side is None:
        problems.append("witness is not a side array of the network's size")
    if side is not None:
        checks.append("witness")
        problems += check_cut(
            net, side,
            expected_capacity=int(upper) if float(upper).is_integer() else None,
            require_bisection=full_bw,
        )
        claim_problems, claim_checks = _claims_for_witness(net, side)
        problems += claim_problems
        checks += claim_checks
    elif witness is None and require_witness and "tier-" in str(
        fields.get("upper_evidence", "")
    ):
        # The degradation cascade's contract: every upper bound either
        # carries a checkable witness or says so explicitly.
        checks.append("witness-or-marker")
        if WITNESS_FREE_TOKEN not in str(fields.get("upper_evidence", "")):
            problems.append(
                "upper bound carries no witness and is not marked "
                f"'{WITNESS_FREE_TOKEN}' in its evidence"
            )

    if net is not None and full_bw:
        claim_problems, claim_checks = _claims_for_width(
            net, float(lower), float(upper), exact
        )
        problems += claim_problems
        checks += claim_checks

    incr("verify.certificates_checked")
    if problems:
        incr("verify.problems", len(problems))
    return CheckReport(quantity, tuple(problems), tuple(checks))


# --------------------------------------------------------------------- #
# Cut profiles
# --------------------------------------------------------------------- #
def _profile_fields(profile: Any) -> dict[str, Any]:
    if isinstance(profile, dict):
        return dict(profile)
    return {
        "counted": getattr(profile, "counted", None),
        "values": getattr(profile, "values", None),
        "witnesses": getattr(profile, "witnesses", None),
        "complete": getattr(profile, "complete", True),
    }


def check_profile(net: Network, profile: Any) -> CheckReport:
    """Independently verify a cut profile entry by entry.

    Finite entries must be achieved by their stored witness mask (the
    right counted-side size and the exact recounted capacity); complete
    profiles must additionally be complement-symmetric and have
    ``values[0] = values[m] = 0`` (the empty and the full side are always
    available and cut nothing).
    """
    fields = _profile_fields(profile)
    subject = f"profile({net.name})"
    counted = np.asarray(fields["counted"], dtype=np.int64)
    values = np.asarray(fields["values"], dtype=np.int64)
    witnesses = fields["witnesses"]
    complete = bool(fields.get("complete", True))
    m = len(counted)
    problems: list[str] = []
    checks = ["shape", "witnesses"]
    if values.shape != (m + 1,):
        return CheckReport(
            subject,
            (f"values shape {values.shape} != ({m + 1},) for |U| = {m}",),
            ("shape",),
        )
    n = net.num_nodes
    for c in range(m + 1):
        v = int(values[c])
        if v == _INT64_MAX:
            if complete:
                problems.append(f"complete profile has unvisited entry c={c}")
            continue
        if v < 0:
            problems.append(f"negative profile entry values[{c}] = {v}")
            continue
        mask = int(witnesses[c])
        side = np.array([(mask >> i) & 1 for i in range(n)], dtype=bool)
        problems += [
            f"entry c={c}: {p}"
            for p in check_cut(
                net, side, expected_capacity=v,
                counted=counted, expected_counted_in=c,
            )
        ]
    if complete:
        checks.append("complement-symmetry")
        for c in range(m + 1):
            if values[c] != values[m - c]:
                problems.append(
                    f"complement asymmetry: values[{c}] = {int(values[c])} != "
                    f"values[{m - c}] = {int(values[m - c])}"
                )
        checks.append("trivial-ends")
        if values[0] != 0 or values[m] != 0:
            problems.append(
                f"trivial entries drifted: values[0] = {int(values[0])}, "
                f"values[{m}] = {int(values[m])}, both must be 0"
            )
    incr("verify.profiles_checked")
    if problems:
        incr("verify.problems", len(problems))
    return CheckReport(subject, tuple(problems), tuple(checks))
