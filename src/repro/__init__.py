"""repro: executable reproduction of *On the Bisection Width and Expansion of
Butterfly Networks* (Bornstein, Litman, Maggs, Sitaraman, Yatzkar; IPPS 1998 /
Theory of Computing Systems 34, 2001).

The package turns every construction of the paper into code: the networks
(:mod:`repro.topology`), cuts and bisection-width solvers (:mod:`repro.cuts`),
embeddings and embedding-based lower bounds (:mod:`repro.embeddings`),
edge/node expansion with the credit-distribution schemes
(:mod:`repro.expansion`), a routing substrate (:mod:`repro.routing`), and a
theorem-level certified API (:mod:`repro.core`).

Quickstart
----------
>>> from repro import butterfly, wrapped_butterfly
>>> from repro.core import solve_with_fallback
>>> cert = solve_with_fallback(butterfly(8))     # exact for small n
>>> cert.is_exact, cert.value
(True, 8)
"""

from .topology import (
    Network,
    Butterfly,
    butterfly,
    wrapped_butterfly,
    cube_connected_cycles,
    benes,
    mesh_of_stars,
    hypercube,
)

__version__ = "1.0.0"

__all__ = [
    "Network",
    "Butterfly",
    "butterfly",
    "wrapped_butterfly",
    "cube_connected_cycles",
    "benes",
    "mesh_of_stars",
    "hypercube",
    "__version__",
]
