"""Core network container used throughout the reproduction.

``Network`` is a lightweight, NumPy-backed undirected (multi)graph tuned for
the operations this project performs in bulk: cut-capacity evaluation over
millions of candidate cuts, level-structured dynamic programming, and
embedding verification.  Edges are stored as a contiguous ``(E, 2)`` integer
array so that a cut capacity is a single vectorized comparison, following the
vectorization-first guidance of the HPC guides (no Python loop ever touches
edges on a hot path).

Parallel edges are supported by simply repeating rows in the edge array;
cut and congestion computations count rows, which is exactly the multigraph
semantics the paper needs for ``2K_N`` (Section 1.4).
"""

from __future__ import annotations

import hashlib
from functools import cached_property
from typing import Hashable, Iterable, Sequence

import numpy as np

__all__ = ["Network"]


class Network:
    """An undirected (multi)graph with labeled nodes and vectorized edges.

    Parameters
    ----------
    labels:
        A sequence of hashable node labels.  Node *indices* are the positions
        in this sequence; all NumPy-facing APIs speak indices, while
        label-facing helpers translate.
    edges:
        An iterable of ``(u, v)`` pairs of node *indices* (or an ``(E, 2)``
        array).  Self-loops are rejected; parallel edges are kept.
    name:
        Human-readable name used in reprs and error messages.
    """

    def __init__(
        self,
        labels: Sequence[Hashable],
        edges: Iterable[tuple[int, int]] | np.ndarray,
        name: str = "network",
    ) -> None:
        self._labels: tuple[Hashable, ...] = tuple(labels)
        self._index: dict[Hashable, int] = {lab: i for i, lab in enumerate(self._labels)}
        if len(self._index) != len(self._labels):
            raise ValueError(f"{name}: duplicate node labels")
        arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                         dtype=np.int64)
        if arr.size == 0:
            arr = arr.reshape(0, 2)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError(f"{name}: edges must be an (E, 2) array")
        if arr.size and (arr.min() < 0 or arr.max() >= len(self._labels)):
            raise ValueError(f"{name}: edge endpoint out of range")
        if np.any(arr[:, 0] == arr[:, 1]):
            raise ValueError(f"{name}: self-loops are not allowed")
        # Canonicalize endpoint order (u < v) so edge identity is stable.
        lo = np.minimum(arr[:, 0], arr[:, 1])
        hi = np.maximum(arr[:, 0], arr[:, 1])
        self._edges = np.column_stack([lo, hi])
        self._edges.setflags(write=False)
        self.name = name

    # ------------------------------------------------------------------ #
    # Size and identity
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes."""
        return len(self._labels)

    @property
    def num_edges(self) -> int:
        """Number of edges, counting multiplicities."""
        return int(self._edges.shape[0])

    @property
    def labels(self) -> tuple[Hashable, ...]:
        """Node labels, indexed by node index."""
        return self._labels

    @property
    def edges(self) -> np.ndarray:
        """Read-only ``(E, 2)`` array of edges as index pairs with ``u < v``."""
        return self._edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{self.name}: {self.num_nodes} nodes, {self.num_edges} edges>"

    def __len__(self) -> int:
        return self.num_nodes

    # ------------------------------------------------------------------ #
    # Label translation
    # ------------------------------------------------------------------ #
    def index_of(self, label: Hashable) -> int:
        """Return the node index of ``label``."""
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"{self.name}: no node labeled {label!r}") from None

    def indices_of(self, labels: Iterable[Hashable]) -> np.ndarray:
        """Vector version of :meth:`index_of`."""
        return np.fromiter((self.index_of(l) for l in labels), dtype=np.int64)

    def label_of(self, index: int) -> Hashable:
        """Return the label of node ``index``."""
        return self._labels[index]

    def has_node(self, label: Hashable) -> bool:
        """Return whether a node with this label exists."""
        return label in self._index

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every node (parallel edges counted with multiplicity)."""
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        np.add.at(deg, self._edges[:, 0], 1)
        np.add.at(deg, self._edges[:, 1], 1)
        deg.setflags(write=False)
        return deg

    @cached_property
    def _adjacency(self) -> list[np.ndarray]:
        e = self._edges
        owners = np.concatenate([e[:, 0], e[:, 1]])
        neighbors = np.concatenate([e[:, 1], e[:, 0]])
        order = np.lexsort((neighbors, owners))
        counts = np.bincount(owners, minlength=self.num_nodes)
        return np.split(neighbors[order], np.cumsum(counts)[:-1])

    def neighbors(self, index: int) -> np.ndarray:
        """Sorted neighbor indices of node ``index`` (duplicates kept)."""
        return self._adjacency[index]

    @cached_property
    def edge_digest(self) -> str:
        """Order-independent SHA-256 of the edge multiset plus node count.

        Two networks share a digest iff they have the same node count and
        the same canonical edge multiset (as index pairs) — the structural
        identity the checkpoint and solver-cache fingerprints key on, so a
        rewired network can never silently reuse another's persisted state.
        The digest is insensitive to edge *construction order* (rows are
        lexicographically sorted before hashing) but deliberately sensitive
        to node relabeling: keys shared across a relabeling (a torus or
        mesh and its axis-rotated twin) are the job of
        :mod:`repro.perf.canonical`, not of this raw hash.
        """
        e = self._edges
        order = np.lexsort((e[:, 1], e[:, 0]))
        h = hashlib.sha256()
        h.update(np.int64(self.num_nodes).tobytes())
        h.update(np.ascontiguousarray(e[order], dtype=np.int64).tobytes())
        return h.hexdigest()

    @cached_property
    def edge_multiset(self) -> dict[tuple[int, int], int]:
        """Map from canonical edge ``(u, v)`` with ``u < v`` to multiplicity."""
        keys, counts = np.unique(self._edges, axis=0, return_counts=True)
        return {(int(u), int(v)): int(c) for (u, v), c in zip(keys, counts)}

    def has_edge(self, u: int, v: int) -> bool:
        """Return whether nodes ``u`` and ``v`` (indices) are adjacent."""
        if u == v:
            return False
        key = (u, v) if u < v else (v, u)
        return key in self.edge_multiset

    @cached_property
    def is_simple(self) -> bool:
        """Whether the network has no parallel edges."""
        return all(c == 1 for c in self.edge_multiset.values())

    def neighborhood(self, node_set: Iterable[int]) -> np.ndarray:
        """Return ``N(S)``: indices of nodes outside ``S`` adjacent to ``S``.

        This is the paper's node-neighborhood (Section 1.3) used to define
        node expansion.
        """
        mask = np.zeros(self.num_nodes, dtype=bool)
        idx = np.fromiter(node_set, dtype=np.int64)
        mask[idx] = True
        e = self._edges
        u_in = mask[e[:, 0]]
        v_in = mask[e[:, 1]]
        out = np.concatenate([e[u_in & ~v_in, 1], e[v_in & ~u_in, 0]])
        return np.unique(out)

    def connected_components(self) -> list[np.ndarray]:
        """Return the connected components as sorted index arrays."""
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components as cc

        n = self.num_nodes
        e = self._edges
        data = np.ones(len(e), dtype=np.int8)
        mat = coo_matrix((data, (e[:, 0], e[:, 1])), shape=(n, n))
        ncomp, lab = cc(mat, directed=False)
        return [np.flatnonzero(lab == c) for c in range(ncomp)]

    # ------------------------------------------------------------------ #
    # Derived networks
    # ------------------------------------------------------------------ #
    def subgraph(self, node_indices: Iterable[int], name: str | None = None) -> "Network":
        """Return the induced subgraph on ``node_indices`` (labels preserved)."""
        idx = np.unique(np.fromiter(node_indices, dtype=np.int64))
        keep = np.zeros(self.num_nodes, dtype=bool)
        keep[idx] = True
        remap = -np.ones(self.num_nodes, dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        e = self._edges
        m = keep[e[:, 0]] & keep[e[:, 1]]
        sub_edges = remap[e[m]]
        sub_labels = [self._labels[i] for i in idx]
        return Network(sub_labels, sub_edges, name=name or f"{self.name}[sub]")

    def to_networkx(self):
        """Convert to a :mod:`networkx` graph (MultiGraph iff parallel edges)."""
        import networkx as nx

        g = nx.Graph() if self.is_simple else nx.MultiGraph()
        g.add_nodes_from(self._labels)
        # repro-lint: disable=RL003 -- one-off export for interop/plotting, never on a solver path
        for u, v in self._edges:
            g.add_edge(self._labels[u], self._labels[v])
        return g

    # ------------------------------------------------------------------ #
    # Vectorized cut primitives (hot path)
    # ------------------------------------------------------------------ #
    def cut_capacity(self, side: np.ndarray) -> int:
        """Capacity of the cut induced by boolean side assignment ``side``.

        ``side[i]`` is truthy when node ``i`` lies in ``S``; the capacity is
        the number of edges with endpoints on opposite sides (Section 1.2).
        """
        side = np.asarray(side)
        if side.shape != (self.num_nodes,):
            raise ValueError("side array has wrong shape")
        s = side.astype(bool)
        e = self._edges
        return int(np.count_nonzero(s[e[:, 0]] != s[e[:, 1]]))

    def cut_edges(self, side: np.ndarray) -> np.ndarray:
        """Return the edges crossing the cut given by ``side`` as an array."""
        s = np.asarray(side).astype(bool)
        e = self._edges
        return e[s[e[:, 0]] != s[e[:, 1]]]
