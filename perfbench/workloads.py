"""Seeded, deterministic request generators for the four workloads.

Every generator is a pure function of its seed: the program under test
only ever sees the specs (or CLI argument lists) produced here.
"""

from __future__ import annotations

import random

#: ``solve-cli``: one pass = these CLI argument lists, each repeated so
#: every cascade tier takes a comparable share of the pass.  The CLI
#: builds only square torus/mesh instances, so the 16-node ``Torus(4,4)``
#: and ``Mesh(4,4)`` carry the enumeration tier.  The entry ending in
#: ``--checkpoint`` gets a fresh checkpoint file appended by the runner.
SOLVE_CLI = [
    (["torus", "4"], 30),   # tier 1: exhaustive enumeration (16 nodes)
    (["mesh", "4"], 29),    # tier 1
    (["mesh", "4", "--checkpoint"], 1),
    (["bn", "8"], 12),      # tier 2: layered DP (32 nodes)
    (["torus", "5"], 6),    # tier 2 (25 nodes, over the enumeration limit)
    (["fattree", "4"], 1),  # tier 3: branch and bound (31 nodes, width 16)
    (["bn", "16"], 6),      # tier 4: heuristics (80 nodes)
    (["bn", "32"], 3),      # tier 4 (192 nodes)
]

#: ``solve-sharded``: the enumeration instances through ``repro.dist``.
SOLVE_SHARDED = [
    (["torus", "4"], 10),
    (["mesh", "4"], 10),
    (["fbfly", "4"], 10),
]
SHARD_ARGS = ["--shards", "4", "--dist-workers", "2"]

#: ``serve-hot``: the eight small instances of ``bench_serve_load.py``,
#: in zipf rank order, including the ``Torus(3,4)``/``Torus(4,3)`` orbit pair.
HOT_POPULATION = [
    {"family": "bn", "params": {"n": 4}},
    {"family": "torus", "params": {"sides": [3, 4]}},
    {"family": "wn", "params": {"n": 4}},
    {"family": "torus", "params": {"sides": [4, 3]}},
    {"family": "mesh", "params": {"sides": [2, 4]}},
    {"family": "mesh", "params": {"sides": [3, 3]}},
    {"family": "fbfly", "params": {"ary": 2, "dims": 2}},
    {"family": "fattree", "params": {"depth": 2}},
]
ZIPF_S = 1.1

#: ``serve-churn``: per block of 20 requests, 15 fresh generic graphs
#: (sizes 12..18 twice, plus one 15), 3 over-limit ``B16`` requests
#: (15%) and 2 repeats of a graph from an earlier block (10%; the first
#: block has none).
CHURN_SIZES = [12, 13, 14, 15, 16, 17, 18] * 2 + [15]
CHURN_B16 = 3
CHURN_REPEATS = 2
B16_SPEC = {"family": "bn", "params": {"n": 16}}


def cli_pass(seed: str, table=SOLVE_CLI, extra=()) -> list[list[str]]:
    """One pass of CLI argument lists, in a seeded order."""
    args = [list(a) + list(extra) for a, reps in table for _ in range(reps)]
    random.Random(seed).shuffle(args)
    return args


def hot_stream(seed: str, count: int) -> list[dict]:
    """``count`` specs drawn zipf(s=1.1) by rank from the hot population."""
    rng = random.Random(seed)
    weights = [r ** -ZIPF_S for r in range(1, len(HOT_POPULATION) + 1)]
    picks = rng.choices(range(len(HOT_POPULATION)), weights=weights, k=count)
    return [HOT_POPULATION[i] for i in picks]


def generic_graph(rng: random.Random, n: int, name: str) -> dict:
    """A connected ``n``-node graph with ``2n`` edges, as a generic spec."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # random spanning tree
    while len(edges) < 2 * n:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return {
        "family": "generic",
        "name": name,
        "num_nodes": n,
        "edges": sorted([u, v] for u, v in edges),
    }


def churn_stream(seed: str, count: int) -> list[dict]:
    """``count`` churn specs: mostly fresh graphs, some B16, some repeats.

    Graph names embed the seed, so two streams never share a name.
    """
    rng = random.Random(seed)
    out: list[dict] = []
    earlier: list[dict] = []
    block = 0
    while len(out) < count:
        fresh = [
            generic_graph(rng, n, f"G{n}-{seed}-{block}.{i}")
            for i, n in enumerate(CHURN_SIZES)
        ]
        items = fresh + [B16_SPEC] * CHURN_B16
        if earlier:
            items += [rng.choice(earlier) for _ in range(CHURN_REPEATS)]
        rng.shuffle(items)
        out += items
        earlier += fresh
        block += 1
    return out[:count]


def repeat_share(specs: list[dict]) -> float:
    """Share of requests whose generic graph was already requested."""
    seen: set[str] = set()
    repeats = 0
    for spec in specs:
        if spec.get("family") != "generic":
            continue
        if spec["name"] in seen:
            repeats += 1
        seen.add(spec["name"])
    return repeats / len(specs) if specs else 0.0
