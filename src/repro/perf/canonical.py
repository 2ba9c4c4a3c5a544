"""Canonical instance fingerprints: the solver cache's keys.

A cache key names a whole network, every node counted, so the key is
purely structural.  Keying on the raw edge array
(:attr:`repro.topology.base.Network.edge_digest`) already deduplicates
*identical* instances; the named families key on their parameters
instead, and the torus and mesh keys are also quotiented through axis
order: ``Torus(4, 3)`` and ``Torus(3, 4)`` are the same product with
the axes listed in another order, so both key under the sorted shape
and share one entry.

* the **key** of an instance is equal across the instances that share
  an entry (that is the point);
* the accompanying **perm** maps the instance onto its canonical
  representative.  Cached witness masks are stored in canonical
  coordinates (``canonical bit perm[v] = instance bit v``) and
  rehydrated through the loading instance's own perm, so a witness
  computed for ``Torus(3, 4)`` is a *valid, capacity-identical* cut of
  ``Torus(4, 3)``.  The perm is the axis transpose for an unsorted
  torus or mesh shape and the identity otherwise.

Soundness never depends on completeness: the transpose is a genuine
isomorphism, so a missed identification only costs a cache miss, never
a wrong answer.  Networks without a named family fall back to the raw
:attr:`~repro.topology.base.Network.edge_digest`, which is always sound.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..topology.base import Network
from ..topology.butterfly import Butterfly
from ..topology.fabric import FatTree
from ..topology.product import FlattenedButterfly, Mesh, Torus

__all__ = [
    "CanonicalForm",
    "canonical_form",
    "permute_mask",
    "unpermute_mask",
    "mask_to_side",
    "side_to_mask",
]


@dataclass(frozen=True)
class CanonicalForm:
    """A structural identity for a network, every node counted.

    Attributes
    ----------
    key:
        The canonical fingerprint; equal across the instances that share
        a cache entry.  Safe as a file-name stem component after hashing.
    perm:
        The canonicalizing isomorphism: node ``v`` of the instance maps
        to node ``perm[v]`` of the canonical representative.  Apply with
        :func:`permute_mask`, invert with :func:`unpermute_mask`.
    family:
        ``"butterfly"``, ``"wrapped"``, ``"torus"``, ``"mesh"``,
        ``"fbfly"``, ``"fattree"`` or ``"network"`` — which family
        produced the key.
    group_size:
        Number of candidate automorphisms examined; always 1, since the
        full node set is fixed by every automorphism.
    """

    key: str
    perm: np.ndarray
    family: str
    group_size: int


def side_to_mask(side: np.ndarray) -> int:
    """Pack a boolean side array into the witness bitmask convention."""
    mask = 0
    for v in np.flatnonzero(np.asarray(side)):
        mask |= 1 << int(v)
    return mask


def mask_to_side(mask: int, num_nodes: int) -> np.ndarray:
    """Unpack a witness bitmask into a boolean side array."""
    return np.array([(int(mask) >> v) & 1 for v in range(num_nodes)], dtype=bool)


def permute_mask(mask: int, perm: np.ndarray) -> int:
    """Carry a bitmask into canonical coordinates: out bit ``perm[v]`` = bit ``v``."""
    out = 0
    m = int(mask)
    for v, g in enumerate(perm):
        if (m >> v) & 1:
            out |= 1 << int(g)
    return out


def unpermute_mask(mask: int, perm: np.ndarray) -> int:
    """Invert :func:`permute_mask`: out bit ``v`` = bit ``perm[v]``."""
    out = 0
    m = int(mask)
    for v, g in enumerate(perm):
        if (m >> int(g)) & 1:
            out |= 1 << v
    return out


def _full_set_digest(num_nodes: int) -> str:
    """Digest of the all-nodes indicator, the generic key's counted-set part."""
    ind = np.ones(num_nodes, dtype=np.uint8)
    return hashlib.sha256(np.packbits(ind).tobytes()).hexdigest()[:16]


def _axis_normalization(shape: tuple[int, ...]) -> tuple[tuple[int, ...], np.ndarray]:
    """Sort the factor axes: the transpose onto the ascending-shape twin.

    Cartesian products commute, so reordering the axes of a torus or mesh
    is a genuine isomorphism onto the member of the same family with
    sorted sides — ``Torus(4, 3)`` is a relabeled ``Torus(3, 4)``.
    Returns the sorted shape and the transposing permutation (instance
    node ``v`` maps to node ``perm[v]`` of the sorted-shape twin), the
    identity when the shape is already sorted.
    """
    order = tuple(int(i) for i in np.argsort(np.asarray(shape), kind="stable"))
    n_total = int(np.prod(shape, dtype=np.int64))
    canon_shape = tuple(int(shape[i]) for i in order)
    if order == tuple(range(len(shape))):
        return canon_shape, np.arange(n_total, dtype=np.int64)
    grid = np.arange(n_total, dtype=np.int64).reshape(shape)
    # placed[canonical index] = instance node living at those coordinates.
    placed = grid.transpose(order).ravel()
    perm = np.empty(n_total, dtype=np.int64)
    perm[placed] = np.arange(n_total, dtype=np.int64)
    return canon_shape, perm


def canonical_form(net: Network) -> CanonicalForm:
    """Canonical fingerprint of ``net`` with every node counted.

    A named family keys on its parameters (``bf:b8:full``,
    ``torus:3x4:full``), a torus or mesh on its sorted shape with the
    transposing perm; any other network keys on its raw edge digest with
    the identity perm.
    """
    n = net.num_nodes
    perm = np.arange(n, dtype=np.int64)
    if isinstance(net, Butterfly):
        family = "wrapped" if net.wraparound else "butterfly"
        stem = f"bf:{'w' if net.wraparound else 'b'}{net.n}"
    elif isinstance(net, (Torus, Mesh)):
        family = "torus" if isinstance(net, Torus) else "mesh"
        canon_shape, perm = _axis_normalization(net.shape)
        stem = f"{family}:{'x'.join(str(s) for s in canon_shape)}"
    elif isinstance(net, FlattenedButterfly):
        # All factors share one arity: the shape is already sorted.
        family, stem = "fbfly", f"fbfly:{net.ary}d{net.dims}"
    elif isinstance(net, FatTree):
        family, stem = "fattree", f"ft:{net.depth}"
    else:
        key = f"net:{net.edge_digest[:16]}:c{_full_set_digest(n)}"
        return CanonicalForm(key, perm, "network", 1)
    return CanonicalForm(f"{stem}:full", perm, family, 1)
