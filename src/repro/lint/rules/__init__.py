"""Rule modules; importing this package registers every rule.

One module per rule keeps each invariant's logic (and its paper
rationale) self-contained — see ``docs/lint.md`` for the catalogue.
"""

from . import claim_citation  # noqa: F401
from . import layer_order  # noqa: F401
from . import vectorization  # noqa: F401
from . import float_compare  # noqa: F401
from . import frozen_mutation  # noqa: F401
from . import benchmark_drift  # noqa: F401
from . import obs_timing  # noqa: F401
from . import complexity_budget  # noqa: F401
from . import budget_threading  # noqa: F401
from . import determinism_taint  # noqa: F401

__all__ = [
    "claim_citation",
    "layer_order",
    "vectorization",
    "float_compare",
    "frozen_mutation",
    "benchmark_drift",
    "obs_timing",
    "complexity_budget",
    "budget_threading",
    "determinism_taint",
]
