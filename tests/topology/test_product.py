"""Property tests for the Cartesian-product operator and its families.

The product is the bridge from the paper's butterflies to the
data-center topologies (Arjona-Aroca & Fernández Anta, PAPERS.md):
node/edge counts must multiply out, regularity must add up, the named
families must literally *be* the products they claim to be (Torus =
product of cycles, FBfly(2, d) = hypercube), and their cache keys must
be shared by axis-rotated twins yet separate every other instance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.canonical import canonical_form
from repro.topology import (
    CartesianProduct,
    cartesian_product,
    complete_graph,
    cycle_graph,
    fat_tree,
    flattened_butterfly,
    hypercube,
    mesh,
    path_graph,
    torus,
)


class TestFactors:
    def test_path_graph(self):
        p = path_graph(5)
        assert p.num_nodes == 5 and p.num_edges == 4
        assert p.degrees.tolist() == [1, 2, 2, 2, 1]

    def test_cycle_graph(self):
        c = cycle_graph(6)
        assert c.num_nodes == 6 and c.num_edges == 6
        assert set(c.degrees.tolist()) == {2}

    def test_degenerate_factors_rejected(self):
        with pytest.raises(ValueError):
            path_graph(0)
        with pytest.raises(ValueError):
            cycle_graph(2)


class TestOperator:
    def test_counts_multiply(self):
        """|V| = prod |Vi|; |E| = sum |Ei| * prod_{j != i} |Vj|."""
        g = cartesian_product(path_graph(3), cycle_graph(4), complete_graph(3))
        assert g.num_nodes == 3 * 4 * 3
        assert g.num_edges == 2 * 4 * 3 + 4 * 3 * 3 + 3 * 3 * 4

    def test_regularity_adds(self):
        """Products of regular factors are regular of the summed degree."""
        g = cartesian_product(cycle_graph(4), complete_graph(4))
        assert set(g.degrees.tolist()) == {2 + 3}

    def test_labels_are_coordinate_tuples(self):
        g = cartesian_product(path_graph(2), path_graph(3))
        assert g.labels[g.node((1, 2))] == (1, 2)

    def test_node_coords_round_trip(self):
        g = cartesian_product(path_graph(3), cycle_graph(4), path_graph(2))
        for v in range(g.num_nodes):
            assert g.node(g.coords_of(v)) == v

    def test_slice_nodes_partition(self):
        g = cartesian_product(cycle_graph(3), path_graph(4))
        slices = [g.slice_nodes(0, i) for i in range(3)]
        assert sorted(np.concatenate(slices).tolist()) == list(range(12))
        assert all(len(s) == 4 for s in slices)

    def test_adjacency_is_one_coordinate_step(self):
        g = cartesian_product(path_graph(3), cycle_graph(3))
        for u, v in g.edges:
            cu, cv = g.coords_of(int(u)), g.coords_of(int(v))
            assert sum(a != b for a, b in zip(cu, cv)) == 1

    def test_parallel_factor_edges_multiply_through(self):
        from repro.topology import Network

        doubled = Network(range(2), [[0, 1], [0, 1]], name="D2")
        g = cartesian_product(doubled, path_graph(3))
        # 2 parallel edges per fiber of the first factor, 3 fibers.
        assert g.num_edges == 2 * 3 + 2 * 2

    def test_empty_factor_list_rejected(self):
        with pytest.raises(ValueError):
            CartesianProduct([])


class TestFamilies:
    def test_torus_is_product_of_cycles(self):
        assert (
            torus(3, 4).edge_digest
            == cartesian_product(cycle_graph(3), cycle_graph(4)).edge_digest
        )

    def test_mesh_is_product_of_paths(self):
        assert (
            mesh(3, 2).edge_digest
            == cartesian_product(path_graph(3), path_graph(2)).edge_digest
        )

    def test_fbfly2_is_the_hypercube(self):
        assert flattened_butterfly(2, 3).edge_digest == hypercube(3).edge_digest

    def test_fbfly_is_product_of_completes(self):
        assert (
            flattened_butterfly(4, 2).edge_digest
            == cartesian_product(complete_graph(4), complete_graph(4)).edge_digest
        )

    @pytest.mark.parametrize("net", [torus(3, 3), mesh(4, 3), fat_tree(3)],
                             ids=["torus", "mesh", "fattree"])
    def test_layers_partition_and_edges_respect_them(self, net):
        layers = net.layers()
        idx = np.concatenate(layers)
        assert sorted(idx.tolist()) == list(range(net.num_nodes))
        of = np.empty(net.num_nodes, dtype=np.int64)
        for i, layer in enumerate(layers):
            of[layer] = i
        k = len(layers)
        for u, v in net.edges:
            d = abs(int(of[int(u)]) - int(of[int(v)]))
            if net.cyclic:
                d = min(d, k - d)
            assert d <= 1

    def test_fat_tree_structure(self):
        ft = fat_tree(3)
        assert ft.num_nodes == 15
        assert len(ft.leaves()) == 8
        # Every level carries the same aggregate bandwidth 2^d.
        for level in range(1, ft.depth + 1):
            assert ft.link_capacity(level) * (1 << level) == 1 << ft.depth
        assert ft.subtree(1).tolist() == [1, 3, 4, 7, 8, 9, 10]

    def test_family_validation(self):
        with pytest.raises(ValueError):
            torus(2, 3)  # sides must be >= 3
        with pytest.raises(ValueError):
            mesh(1, 2)
        with pytest.raises(ValueError):
            flattened_butterfly(1, 2)
        with pytest.raises(ValueError):
            fat_tree(0)

    def test_square_flag(self):
        assert torus(3, 3).is_square and not torus(3, 4).is_square
        assert mesh(2, 2, 2).is_square and not mesh(2, 3).is_square


class TestCanonicalKeys:
    """Full-set keys of the product families: shared by axis-rotated
    twins, separate for everything else."""

    FAMILIES = [
        pytest.param(lambda: torus(3, 3), id="torus3x3"),
        pytest.param(lambda: mesh(3, 2), id="mesh3x2"),
        pytest.param(lambda: flattened_butterfly(3, 2), id="fbfly3d2"),
        pytest.param(lambda: fat_tree(3), id="ft3"),
    ]

    @pytest.mark.parametrize("build", FAMILIES)
    def test_full_counted_set_shortcut(self, build):
        net = build()
        form = canonical_form(net)
        assert form.key.endswith(":full")
        assert form.group_size == 1
        # The perm is the axis normalization: a bijection, and the
        # identity whenever the sides are already in sorted order.
        np.testing.assert_array_equal(np.sort(form.perm), np.arange(net.num_nodes))

    @pytest.mark.parametrize(
        "build", [pytest.param(lambda: torus(3, 3), id="torus3x3"),
                  pytest.param(lambda: mesh(2, 3), id="mesh2x3"),
                  pytest.param(lambda: flattened_butterfly(3, 2), id="fbfly3d2"),
                  pytest.param(lambda: fat_tree(3), id="ft3")],
    )
    def test_sorted_shapes_keep_identity_perm(self, build):
        net = build()
        np.testing.assert_array_equal(
            canonical_form(net).perm, np.arange(net.num_nodes)
        )

    def test_axis_order_shares_one_key(self):
        """Torus(4,3) is Torus(3,4) relabeled; the keys must collide."""
        assert canonical_form(torus(4, 3)).key == canonical_form(torus(3, 4)).key
        assert canonical_form(mesh(3, 2)).key == canonical_form(mesh(2, 3)).key
        assert canonical_form(torus(3, 4)).key == "torus:3x4:full"
        # Different multisets of sides must still separate.
        assert canonical_form(torus(3, 4)).key != canonical_form(torus(3, 3)).key

    def test_axis_normalization_transports_cuts(self, rng):
        """A cut carried a→canonical→b keeps its capacity across the orbit."""
        from repro.perf.canonical import (
            mask_to_side, permute_mask, side_to_mask, unpermute_mask,
        )

        for a, b in [(torus(3, 4), torus(4, 3)), (mesh(2, 3), mesh(3, 2))]:
            pa, pb = canonical_form(a).perm, canonical_form(b).perm
            side = rng.random(a.num_nodes) < 0.5
            canon_mask = permute_mask(side_to_mask(side), pa)
            side_b = mask_to_side(unpermute_mask(canon_mask, pb), b.num_nodes)
            assert b.cut_capacity(side_b) == a.cut_capacity(side)

    def test_separation_across_sizes_and_families(self):
        keys = {
            canonical_form(n).key
            for n in (torus(3, 3), torus(3, 3, 3), mesh(3, 3),
                      flattened_butterfly(3, 2), fat_tree(2), fat_tree(3))
        }
        assert len(keys) == 6

    def test_separation_within_a_family(self):
        """Same family and node count, different shapes: distinct keys."""
        keys = {
            canonical_form(n).key
            for n in (mesh(2, 6), mesh(3, 4), mesh(2, 2, 3), torus(3, 4),
                      torus(4, 4), torus(3, 5))
        }
        assert len(keys) == 6

    def test_witness_transport_preserves_capacity(self, rng):
        """A witness mapped through the canonical perm keeps its capacity
        on the canonical twin, and unpermuting brings it back."""
        from repro.perf.canonical import (
            mask_to_side, permute_mask, side_to_mask, unpermute_mask,
        )

        for net, twin in [(mesh(3, 2), mesh(2, 3)), (torus(4, 3), torus(3, 4)),
                          (flattened_butterfly(3, 2), flattened_butterfly(3, 2))]:
            form = canonical_form(net)
            side = rng.random(net.num_nodes) < 0.5
            mask = side_to_mask(side)
            transported = permute_mask(mask, form.perm)
            assert twin.cut_capacity(mask_to_side(transported, twin.num_nodes)) == \
                net.cut_capacity(side)
            assert unpermute_mask(transported, form.perm) == mask
