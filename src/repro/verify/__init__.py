"""Independent verification: certificate checking and differential fuzzing.

Two halves with very different import budgets:

* :mod:`repro.verify.checker` — the solver-independent certificate/profile
  checker.  Confined by the lint layer DAG to ``topology``/``obs`` plus
  the pure claim-table module, so no solver can certify itself through it;
  this package's eager imports stay equally narrow.
* :mod:`repro.verify.fuzz` — the seeded differential fuzz harness, which
  *drives* every solver, the cache, and the fault injector against the
  checker.  Imported lazily (``from repro.verify import fuzz``) because it
  pulls in the whole solver stack.

:mod:`repro.verify.serialize` round-trips certificates (with their host
network) through JSON for the ``repro-butterfly verify`` CLI.
"""

from .checker import (
    WITNESS_FREE_TOKEN,
    CheckReport,
    VerificationError,
    check_certificate,
    check_cut,
    check_profile,
    lemma_217_f,
    recount_capacity,
)
from .serialize import (
    CERTIFICATE_FORMAT,
    certificate_to_data,
    load_certificate,
    network_from_spec,
    network_spec,
    spec_node_count,
    write_certificate,
)

__all__ = [
    "WITNESS_FREE_TOKEN",
    "CheckReport",
    "VerificationError",
    "check_certificate",
    "check_cut",
    "check_profile",
    "lemma_217_f",
    "recount_capacity",
    "CERTIFICATE_FORMAT",
    "certificate_to_data",
    "load_certificate",
    "network_from_spec",
    "network_spec",
    "spec_node_count",
    "write_certificate",
]
