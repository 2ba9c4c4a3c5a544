"""Performance layer: symmetry-aware caching of exact solver results.

Two pieces, built on the paper's own machinery:

* :mod:`repro.perf.canonical` — canonical instance fingerprints
  quotiented through the L2.1/L2.2 automorphism groups, so isomorphic
  instances share cache keys and witnesses transport between them;
* :mod:`repro.perf.cache` — :class:`SolverCache`, the atomic on-disk
  store memoizing cut profiles and bound certificates across runs.

:func:`cached_cut_profile` is the convenience entry point combining the
two with :func:`repro.cuts.enumerate_exact.cut_profile`.  It keys cached
profiles by :data:`~repro.cuts.enumerate_exact.BATCH_CONTRACT_VERSION`,
re-exported here.
"""

from __future__ import annotations

import numpy as np

from ..cuts.enumerate_exact import BATCH_CONTRACT_VERSION, CutProfile, cut_profile
from ..obs import incr
from ..topology.base import Network
from .cache import PROFILE_SOLVER, SolverCache
from .canonical import (
    CanonicalForm,
    canonical_form,
    mask_to_side,
    permute_mask,
    side_to_mask,
    unpermute_mask,
)

__all__ = [
    "BATCH_CONTRACT_VERSION",
    "CanonicalForm",
    "PROFILE_SOLVER",
    "SolverCache",
    "cached_cut_profile",
    "canonical_form",
    "cut_profile",
    "mask_to_side",
    "permute_mask",
    "side_to_mask",
    "unpermute_mask",
]


def cached_cut_profile(
    net: Network,
    counted: np.ndarray | None = None,
    *,
    cache: SolverCache | None = None,
    **kwargs,
) -> CutProfile:
    """Exhaustive cut profile with optional read-through/write-back caching.

    A verified cache hit skips the sweep entirely (and, by symmetry of the
    keys, hits fire for *any* instance isomorphic to a previously solved
    one); a miss computes via
    :func:`repro.cuts.enumerate_exact.cut_profile` and stores the result
    when complete.  ``kwargs`` pass through to ``cut_profile``.
    """
    if cache is None:
        incr("perf.cache.bypass")
        return cut_profile(net, counted, **kwargs)
    hit = cache.get_profile(net, counted, version=BATCH_CONTRACT_VERSION)
    if hit is not None:
        return hit
    prof = cut_profile(net, counted, **kwargs)
    if prof.complete:
        cache.put_profile(net, prof, version=BATCH_CONTRACT_VERSION)
    return prof
