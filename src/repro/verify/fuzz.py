"""Seeded differential fuzzing of every solver against the independent checker.

The harness generates small random instances — pristine paper families
(``Bn``/``Wn``/``CCCn``/``MOS``), the product and data-center families
(tori, meshes, fat trees, flattened butterflies), seeded random-regular
graphs, and fault-injected variants via :mod:`repro.resilience.faults` —
and, on each, runs every applicable solver path:

* exhaustive enumeration (default **and** pinned batch grid — the two
  must be bit-identical);
* the layered min-plus DP and branch and bound, which must agree with
  enumeration on the bisection width and hand back mutually valid
  witnesses;
* :func:`repro.core.fallback.solve_with_fallback` cache-cold and
  cache-warm against one shared :class:`~repro.perf.cache.SolverCache`,
  so symmetry-transported hits are adversarially recounted;
* the closed-form paper quantities where they exist (Lemma 2.17's
  ``BW(MOS_{j,j}, M2)`` grid minimum, Lemma 3.1's I/O floor).

Every witness and certificate goes through the **independent** checker of
:mod:`repro.verify.checker` — never a solver's own re-verify.  Runs are
deterministic: run ``i`` of a campaign draws from
``default_rng((seed, i))`` and nothing else, so any failure replays from
``(seed, i)`` alone.  A failing instance is greedily shrunk (node, then
edge removal, re-checking after each candidate deletion) and persisted as
a JSON corpus case under ``tests/corpus/`` for regression replay.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

from ..core.fallback import solve_with_fallback
from ..cuts.branch_and_bound import bb_min_bisection
from ..cuts.enumerate_exact import cut_profile
from ..cuts.layered_dp import layered_cut_profile
from ..cuts.mos_cuts import mos_m2_bisection_width
from ..obs import incr, trace
from ..perf.cache import SolverCache
from ..resilience.faults import FaultInjector
from ..topology.base import Network
from ..topology.butterfly import Butterfly, butterfly, wrapped_butterfly
from ..topology.ccc import cube_connected_cycles
from ..topology.fabric import fat_tree
from ..topology.mesh_of_stars import MeshOfStars, mesh_of_stars
from ..topology.product import flattened_butterfly, mesh, torus
from ..topology.random_regular import random_regular_graph
from .checker import check_certificate, check_cut, check_profile
from .serialize import network_from_spec, network_spec

__all__ = [
    "CORPUS_FORMAT",
    "FuzzCase",
    "CampaignReport",
    "differential_check",
    "generate_instance",
    "run_campaign",
    "shrink_instance",
    "case_from_network",
    "save_case",
    "load_case",
    "load_corpus",
    "replay_case",
]

CORPUS_FORMAT = 1

#: Fixed batch grid used for the bit-identity cross-check against the
#: default-grid sweep (any value works; the fold is grid-free by contract).
_PINNED_BATCH_BITS = 6

_DP_WIDTH_LIMIT = 12


# --------------------------------------------------------------------- #
# The differential oracle
# --------------------------------------------------------------------- #
def differential_check(
    net: Network,
    counted: np.ndarray | None = None,
    *,
    cache: SolverCache | None = None,
    deep: bool = True,
) -> list[str]:
    """Run every applicable solver on one instance; return disagreements.

    An empty list means all solvers agreed and every witness and
    certificate passed the independent checker.  ``counted`` restricts the
    profile to a ``U``-bisection (Section 2.1); most cross-solver paths
    apply only to the whole-graph case.  ``deep=False`` skips the
    redundant pinned-batch and cache passes (used while shrinking, where
    the oracle runs many times).
    """
    problems: list[str] = []
    n = net.num_nodes
    if n < 2 or n > 16:
        return [f"instance out of fuzzable range: {n} nodes"]

    prof = cut_profile(net, counted=counted)
    report = check_profile(net, prof)
    problems += [f"enumeration profile: {p}" for p in report.problems]
    width = prof.bisection_width()

    if deep:
        pinned = cut_profile(net, counted=counted, batch_bits=_PINNED_BATCH_BITS)
        if not np.array_equal(prof.values, pinned.values):
            problems.append(
                "batch-grid sensitivity: default and pinned sweeps "
                f"disagree: {prof.values.tolist()} vs {pinned.values.tolist()}"
            )
        if not np.array_equal(prof.witnesses, pinned.witnesses):
            problems.append(
                "batch-grid sensitivity: default and pinned sweeps pick "
                "different witnesses"
            )

    if counted is not None:
        # U-bisection: enumeration is the only general solver; the layered
        # DP cross-checks it when the network is layered and narrow.
        if _dp_applies(net):
            dp = layered_cut_profile(net, counted=counted)
            if dp.complete and dp.bisection_width() != width:
                problems.append(
                    f"U-bisection disagreement: enumeration {width} != "
                    f"layered DP {dp.bisection_width()}"
                )
        problems += _family_u_claims(net, counted, width)
        return problems

    # ---- whole-graph bisection: full solver ladder ---- #
    if _dp_applies(net):
        dp = layered_cut_profile(net)
        if not dp.complete:
            problems.append("layered DP unexpectedly incomplete (no budget)")
        else:
            cut = dp.min_bisection()
            if cut.capacity != width:
                problems.append(
                    f"solver disagreement: enumeration BW {width} != "
                    f"layered DP {cut.capacity}"
                )
            problems += [
                f"layered DP witness: {p}"
                for p in check_cut(
                    net, cut.side, expected_capacity=width,
                    require_bisection=True,
                )
            ]

    st: dict = {}
    cut = bb_min_bisection(net, status=st)
    if not st.get("complete"):
        problems.append("branch and bound unexpectedly incomplete (no budget)")
    elif cut.capacity != width:
        problems.append(
            f"solver disagreement: enumeration BW {width} != "
            f"branch and bound {cut.capacity}"
        )
    else:
        problems += [
            f"branch-and-bound witness: {p}"
            for p in check_cut(
                net, cut.side, expected_capacity=width, require_bisection=True
            )
        ]

    cert = solve_with_fallback(net)
    report = check_certificate(net, cert)
    problems += [f"fallback certificate: {p}" for p in report.problems]
    if not cert.is_exact or cert.upper != width:
        problems.append(
            f"fallback cascade drifted: certificate [{cert.lower}, "
            f"{cert.upper}] vs enumeration BW {width}"
        )

    if deep and cache is not None:
        cold = solve_with_fallback(net, cache=cache)
        warm = solve_with_fallback(net, cache=cache)
        for label, c in (("cache-cold", cold), ("cache-warm", warm)):
            report = check_certificate(net, c)
            problems += [f"{label} certificate: {p}" for p in report.problems]
            if (c.lower, c.upper) != (cert.lower, cert.upper):
                problems.append(
                    f"{label} certificate [{c.lower}, {c.upper}] != uncached "
                    f"[{cert.lower}, {cert.upper}]"
                )

    problems += _family_claims(net, width)
    return problems


def _dp_applies(net: Network) -> bool:
    layers = net.layers() if hasattr(net, "layers") else None
    return layers is not None and max(len(l) for l in layers) <= _DP_WIDTH_LIMIT


def _family_claims(net: Network, width: int) -> list[str]:
    """Closed-form cross-checks for pristine family instances."""
    from ..core.claims import (
        arjona_mesh_width,
        arjona_torus_width,
        fat_tree_width,
        flattened_butterfly_width,
    )
    from ..topology.fabric import FatTree
    from ..topology.product import FlattenedButterfly, Mesh, Torus

    problems: list[str] = []
    want: int | None = None
    claim = ""
    if isinstance(net, Torus) and net.is_square:
        claim, want = "product-torus", arjona_torus_width(net.sides[0], net.dims)
    elif isinstance(net, Mesh) and net.is_square:
        claim, want = "product-mesh", arjona_mesh_width(net.sides[0], net.dims)
    elif isinstance(net, FlattenedButterfly) and net.ary % 2 == 0:
        claim, want = "dc-fbfly", flattened_butterfly_width(net.ary, net.dims)
    elif isinstance(net, FatTree):
        claim, want = "dc-fattree", fat_tree_width(net.depth)
    if want is not None and width != want:
        problems.append(
            f"{claim} closed form disagrees: enumeration BW({net.name}) = "
            f"{width} != {want}"
        )
    if isinstance(net, MeshOfStars) and net.j == net.k:
        m2 = cut_profile(net, counted=net.m2())
        got = m2.bisection_width()
        want = mos_m2_bisection_width(net.j)
        if got != want:
            problems.append(
                f"Lemma 2.17 grid minimum disagrees: enumeration "
                f"BW({net.name}, M2) = {got} != closed form {want}"
            )
    return problems


def _family_u_claims(
    net: Network, counted: np.ndarray, width: int
) -> list[str]:
    problems: list[str] = []
    if isinstance(net, Butterfly) and not net.wraparound:
        io_sets = {
            tuple(np.sort(net.inputs())),
            tuple(np.sort(net.outputs())),
            tuple(np.sort(np.concatenate([net.inputs(), net.outputs()]))),
        }
        if tuple(np.sort(np.asarray(counted))) in io_sets and width < net.n:
            problems.append(
                f"Lemma 3.1 violated: BW({net.name}, U) = {width} < n = "
                f"{net.n} for an I/O-level counted set"
            )
    return problems


# --------------------------------------------------------------------- #
# Instance generation (deterministic per (seed, run))
# --------------------------------------------------------------------- #
def generate_instance(
    rng: np.random.Generator,
) -> tuple[Network, np.ndarray | None, str]:
    """One random small instance: ``(network, counted, description)``."""
    roll = int(rng.integers(0, 14))
    counted: np.ndarray | None = None
    if roll == 0:
        net: Network = butterfly(2)
    elif roll in (1, 2):
        net = butterfly(4)
    elif roll == 3:
        net = wrapped_butterfly(4)
    elif roll == 4:
        net = cube_connected_cycles(4)
    elif roll == 5:
        net = mesh_of_stars(int(rng.integers(2, 4)), int(rng.integers(2, 4)))
    elif roll in (6, 7):
        nn = int(rng.choice([6, 8, 10, 12, 14]))
        d = int(rng.choice([3, 4]))
        if nn * d % 2:
            nn += 1
        net = random_regular_graph(nn, d, seed=int(rng.integers(0, 2**31)))
    elif roll == 10:
        sides = [(3,), (3, 3), (4, 3), (5, 3)][int(rng.integers(0, 4))]
        net = torus(*sides)
    elif roll == 11:
        sides = [(2, 2), (3, 2), (2, 3), (4, 2), (2, 2, 2)][
            int(rng.integers(0, 5))
        ]
        net = mesh(*sides)
    elif roll == 12:
        net = fat_tree(int(rng.integers(1, 4)))
    elif roll == 13:
        ary, dims = [(2, 2), (3, 1), (3, 2), (4, 1), (2, 3), (4, 2)][
            int(rng.integers(0, 6))
        ]
        net = flattened_butterfly(ary, dims)
    else:
        # Fault-injected variant of a pristine family instance.
        base = [butterfly(4), wrapped_butterfly(4), cube_connected_cycles(4),
                mesh_of_stars(2, 2), torus(3, 3), mesh(4, 2), fat_tree(2),
                flattened_butterfly(3, 2)][int(rng.integers(0, 8))]
        inj = FaultInjector(seed=int(rng.integers(0, 2**31)))
        if rng.random() < 0.5:
            net = inj.drop_edges(base, count=int(rng.integers(1, 4)))
        else:
            net = inj.drop_nodes(base, count=int(rng.integers(1, 3)))

    kind = rng.random()
    if kind < 0.15 and isinstance(net, Butterfly) and not net.wraparound:
        counted = net.inputs() if rng.random() < 0.5 else np.concatenate(
            [net.inputs(), net.outputs()]
        )
    elif kind < 0.30 and net.num_nodes >= 4:
        size = int(rng.integers(2, net.num_nodes))
        counted = np.sort(rng.choice(net.num_nodes, size=size, replace=False))
    desc = net.name if counted is None else f"{net.name}|U={len(counted)}"
    return net, counted, desc


# --------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------- #
def _renumbered(net: Network, name: str) -> Network:
    """The same graph on integer labels (serialization-friendly)."""
    return Network(list(range(net.num_nodes)), net.edges, name=name)


def shrink_instance(
    net: Network,
    counted: np.ndarray | None,
    failing: Callable[[Network, np.ndarray | None], bool],
    *,
    max_checks: int = 400,
) -> tuple[Network, np.ndarray | None]:
    """Greedy minimization: drop nodes, then edges, while ``failing`` holds.

    The predicate is re-run after every candidate deletion; a deletion is
    kept only when the (smaller) instance still fails.  Deterministic:
    candidates are scanned in descending index order.  ``max_checks``
    bounds the total number of oracle invocations.
    """
    checks = 0
    counted_set = None if counted is None else set(
        int(c) for c in np.asarray(counted)
    )
    improved = True
    while improved and checks < max_checks:
        improved = False
        # Pass 1: node deletions (each also drops incident edges).
        if net.num_nodes > 2:
            for v in range(net.num_nodes - 1, -1, -1):
                if checks >= max_checks:
                    break
                keep = np.array([u for u in range(net.num_nodes) if u != v])
                cand = _renumbered(net.subgraph(keep), f"{net.name}~shrunk")
                if counted_set is not None:
                    cand_counted = np.array(
                        [i for i, u in enumerate(keep) if int(u) in counted_set],
                        dtype=np.int64,
                    )
                    if len(cand_counted) < 2:
                        continue
                else:
                    cand_counted = None
                checks += 1
                if failing(cand, cand_counted):
                    net = cand
                    counted = cand_counted
                    counted_set = None if cand_counted is None else set(
                        int(c) for c in cand_counted
                    )
                    improved = True
                    break
        if improved:
            continue
        # Pass 2: single-edge deletions (node set fixed, so ``counted`` holds).
        for i in range(net.num_edges - 1, -1, -1):
            if checks >= max_checks:
                break
            cand = Network(
                list(range(net.num_nodes)),
                np.delete(np.asarray(net.edges), i, axis=0),
                name=f"{net.name}~shrunk",
            )
            checks += 1
            if failing(cand, counted):
                net = cand
                improved = True
                break
    incr("verify.fuzz.shrink_checks", checks)
    return _renumbered(net, net.name), counted


# --------------------------------------------------------------------- #
# Corpus (JSON cases under tests/corpus/)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class FuzzCase:
    """One replayable corpus case.

    ``spec`` is a :func:`repro.verify.serialize.network_spec` — family +
    params for pristine instances (so family claims replay too), explicit
    edges otherwise.  ``counted`` restricts to a U-bisection.
    """

    case_id: str
    spec: dict[str, Any]
    counted: tuple[int, ...] | None
    note: str
    origin: dict[str, Any] = field(default_factory=dict)

    def network(self) -> Network:
        return network_from_spec(self.spec)


def case_from_network(
    net: Network,
    counted: np.ndarray | None = None,
    *,
    note: str = "",
    origin: dict[str, Any] | None = None,
    generic: bool = False,
) -> FuzzCase:
    """Build a corpus case; ``generic=True`` forgets the family (stores edges)."""
    spec = network_spec(net)
    if generic and spec.get("family") != "generic":
        spec = network_spec(_renumbered(net, net.name))
    h = hashlib.sha256(
        (net.edge_digest + ":" + json.dumps(
            None if counted is None else [int(c) for c in counted]
        )).encode()
    ).hexdigest()[:10]
    case_id = f"{spec['family']}-{net.num_nodes}n-{h}"
    return FuzzCase(
        case_id=case_id,
        spec=spec,
        counted=None if counted is None else tuple(int(c) for c in counted),
        note=note,
        origin=origin or {},
    )


def save_case(corpus_dir: str | Path, case: FuzzCase) -> Path:
    """Write one case as ``<corpus_dir>/<case_id>.json`` (atomic)."""
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    path = corpus_dir / f"{case.case_id}.json"
    data = {
        "format": CORPUS_FORMAT,
        "case_id": case.case_id,
        "network": case.spec,
        "counted": None if case.counted is None else list(case.counted),
        "note": case.note,
        "origin": case.origin,
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    os.replace(tmp, path)
    return path


def load_case(path: str | Path) -> FuzzCase:
    """Read one corpus case file."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("format") != CORPUS_FORMAT:
        raise ValueError(f"{path}: not a format-{CORPUS_FORMAT} corpus case")
    counted = data.get("counted")
    return FuzzCase(
        case_id=str(data["case_id"]),
        spec=dict(data["network"]),
        counted=None if counted is None else tuple(int(c) for c in counted),
        note=str(data.get("note", "")),
        origin=dict(data.get("origin", {})),
    )


def load_corpus(corpus_dir: str | Path) -> list[FuzzCase]:
    """All cases in a corpus directory, sorted by case id."""
    corpus_dir = Path(corpus_dir)
    if not corpus_dir.is_dir():
        return []
    return sorted(
        (load_case(p) for p in corpus_dir.glob("*.json")),
        key=lambda c: c.case_id,
    )


def replay_case(case: FuzzCase, *, deep: bool = False) -> list[str]:
    """Re-run the differential oracle on a corpus case; returns problems."""
    net = case.network()
    counted = None if case.counted is None else np.asarray(case.counted,
                                                           dtype=np.int64)
    return differential_check(net, counted, deep=deep)


# --------------------------------------------------------------------- #
# Campaigns
# --------------------------------------------------------------------- #
@dataclass
class CampaignReport:
    """Summary of one fuzz campaign (JSON-ready via :meth:`to_dict`)."""

    seed: int
    runs: int
    failures: list[dict[str, Any]] = field(default_factory=list)
    saved_cases: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "runs": self.runs,
            "disagreements": len(self.failures),
            "failures": self.failures,
            "saved_cases": self.saved_cases,
        }


def run_campaign(
    seed: int = 0,
    runs: int = 100,
    *,
    corpus_dir: str | Path | None = None,
    shrink_failures: bool = True,
) -> CampaignReport:
    """Run ``runs`` deterministic differential rounds from ``seed``.

    Each round regenerates its instance from ``default_rng((seed, i))``
    alone, so ``(seed, i)`` fully identifies a failure.  One shared
    solver cache (in a private temp directory, deleted afterwards) lives
    across the whole campaign, so later rounds adversarially exercise
    symmetry-transported warm hits from earlier ones.  Failures are
    shrunk and, when ``corpus_dir`` is given, persisted for regression
    replay.
    """
    report = CampaignReport(seed=seed, runs=runs)
    cache_root = tempfile.mkdtemp(prefix="repro-fuzz-cache-")
    try:
        cache = SolverCache(cache_root)
        for i in range(runs):
            rng = np.random.default_rng((seed, i))
            net, counted, desc = generate_instance(rng)
            with trace("verify.fuzz.run", run=i, instance=desc):
                incr("verify.fuzz.runs")
                problems = differential_check(net, counted, cache=cache)
            if not problems:
                continue
            incr("verify.fuzz.disagreements")
            failure: dict[str, Any] = {
                "run": i, "seed": seed, "instance": desc, "problems": problems,
            }
            if shrink_failures:
                with trace("verify.fuzz.shrink", run=i):
                    small_net, small_counted = shrink_instance(
                        net, counted,
                        lambda g, u: bool(differential_check(g, u, deep=False)),
                    )
                case = case_from_network(
                    small_net, small_counted, generic=True,
                    note=f"shrunk from {desc}: {problems[0]}",
                    origin={"seed": seed, "run": i},
                )
                failure["case_id"] = case.case_id
                if corpus_dir is not None:
                    save_case(corpus_dir, case)
                    report.saved_cases.append(case.case_id)
            report.failures.append(failure)
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)
    return report
