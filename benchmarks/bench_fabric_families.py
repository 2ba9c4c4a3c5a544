"""FAB — product networks and data-center fabrics (PAPERS.md).

Regenerates the Arjona-Aroca & Fernández Anta bisection-width series for
the four fabric families through the cascade: exact values (enumeration /
layered DP) at solver sizes, the claim tier's verified nested prefix cut
and root-subtree cut beyond.  Every row must agree with the closed forms of the claim table
(``product-mesh`` / ``product-torus`` / ``dc-fattree`` / ``dc-fbfly``)
— the RL006 drift rule re-derives that from the emitted JSON on every
lint run.
"""

from repro.core import solve_with_fallback
from repro.core.claims import (
    arjona_mesh_width,
    arjona_torus_width,
    fat_tree_width,
    flattened_butterfly_width,
)
from repro.cuts import product_prefix_cut
from repro.topology import fat_tree, flattened_butterfly, mesh, torus

from _report import emit, emit_json

def _square_torus(side, dims):
    return torus(*(side,) * dims)


def _square_mesh(side, dims):
    return mesh(*(side,) * dims)


#: (family, claim id, (params...), network builder, closed form).
SERIES = [
    ("torus", "product-torus", (3, 2), _square_torus, arjona_torus_width),
    ("torus", "product-torus", (4, 2), _square_torus, arjona_torus_width),
    ("torus", "product-torus", (6, 2), _square_torus, arjona_torus_width),
    ("torus", "product-torus", (6, 3), _square_torus, arjona_torus_width),
    ("torus", "product-torus", (16, 2), _square_torus, arjona_torus_width),
    ("mesh", "product-mesh", (3, 2), _square_mesh, arjona_mesh_width),
    ("mesh", "product-mesh", (4, 2), _square_mesh, arjona_mesh_width),
    ("mesh", "product-mesh", (5, 3), _square_mesh, arjona_mesh_width),
    ("mesh", "product-mesh", (6, 3), _square_mesh, arjona_mesh_width),
    ("mesh", "product-mesh", (16, 2), _square_mesh, arjona_mesh_width),
    ("fattree", "dc-fattree", (2,), fat_tree, fat_tree_width),
    ("fattree", "dc-fattree", (3,), fat_tree, fat_tree_width),
    ("fattree", "dc-fattree", (6,), fat_tree, fat_tree_width),
    ("fattree", "dc-fattree", (10,), fat_tree, fat_tree_width),
    ("fbfly", "dc-fbfly", (2, 3), flattened_butterfly, flattened_butterfly_width),
    ("fbfly", "dc-fbfly", (4, 2), flattened_butterfly, flattened_butterfly_width),
    ("fbfly", "dc-fbfly", (4, 3), flattened_butterfly, flattened_butterfly_width),
    ("fbfly", "dc-fbfly", (8, 2), flattened_butterfly, flattened_butterfly_width),
]


def _series():
    lines = [f"{'instance':>14} {'BW':>6} {'closed form':>12}  evidence"]
    records = []
    for family, claim, params, build, closed in SERIES:
        cert = solve_with_fallback(build(*params))
        want = closed(*params)
        label = f"{family}{'x'.join(str(p) for p in params)}"
        # The winning tier's evidence, without the notes on skipped tiers.
        evidence = cert.upper_evidence.split(";")[0]
        lines.append(f"{label:>14} {int(cert.upper):>6} {want:>12}  {evidence}")
        records.append({
            "family": family, "claim": claim, "params": list(params),
            "lower": int(cert.lower), "upper": int(cert.upper),
            "want": want, "evidence": evidence,
        })
    return lines, records


def test_fabric_series(benchmark):
    lines, records = _series()
    for row in records:
        assert row["lower"] == row["upper"] == row["want"], row
    emit("fabric_families", lines)
    emit_json("fabric_families", records,
              meta={"claims": ["product-torus", "product-mesh",
                               "dc-fattree", "dc-fbfly"]})
    # The construction kernel of the large rows: building and verifying
    # the nested prefix cut on a 1024-node torus.
    big = torus(32, 32)
    cut = benchmark(lambda: product_prefix_cut(big))
    assert cut.capacity == arjona_torus_width(32, 2)


def test_certified_api_kernel(benchmark):
    """The full certified call on the largest layered-DP-reached torus."""
    net = torus(6, 6)
    cert = benchmark(lambda: solve_with_fallback(net))
    assert cert.is_exact and int(cert.upper) == arjona_torus_width(6, 2)
