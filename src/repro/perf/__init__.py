"""Performance layer: caching of exact solver results.

Two pieces:

* :mod:`repro.perf.canonical` — full-set instance fingerprints, so
  identical instances and axis-rotated tori and meshes share cache keys
  and witnesses transport between them;
* :mod:`repro.perf.cache` — :class:`SolverCache`, the atomic on-disk
  store memoizing cut profiles and bound certificates across runs.

The degradation cascade (:func:`repro.core.fallback.solve_with_fallback`)
is the one caller that reads and writes the cache.  Profiles are keyed
by :data:`~repro.cuts.enumerate_exact.BATCH_CONTRACT_VERSION`,
re-exported here.
"""

from __future__ import annotations

from ..cuts.enumerate_exact import BATCH_CONTRACT_VERSION
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
    "canonical_form",
    "mask_to_side",
    "permute_mask",
    "side_to_mask",
    "unpermute_mask",
]
