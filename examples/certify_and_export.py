#!/usr/bin/env python
"""Certify, export, and independently re-verify — the downstream workflow.

A user who distrusts this library's solvers can still trust its artifacts:
a witness cut is just a side bit string whose capacity anyone can recount.
This example produces the Theorem 2.20 certificate for ``B2048``, writes
it as a ``repro-certificate/1`` file, reloads it (the loader rebuilds the
network and refuses a drifted spec), has the independent checker recount
the witness, and re-verifies balance by hand.  It also shows the
finite-size scaling estimator recovering the paper's constants from data.

Run:  python examples/certify_and_export.py
"""

import dataclasses
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from repro import butterfly
from repro.analysis import estimate_lemma_219_constant, estimate_theorem_220_constant
from repro.core import solve_with_fallback
from repro.cuts import best_plan
from repro.verify import check_certificate, load_certificate, write_certificate


def main() -> None:
    n = 2048
    cert = solve_with_fallback(butterfly(n))
    print(cert)
    cut = cert.witness
    print(f"witness: |S| = {cut.s_size}, capacity = {cut.capacity}")

    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / f"b{n}_bisection.json"
        write_certificate(path, cut.network, cert)
        print(f"exported certificate to {path.name} "
              f"({path.stat().st_size} bytes of JSON)")

        # A fresh process would do exactly this:
        bf, fields = load_certificate(path)  # rebuilds B2048, checks its digest
        report = check_certificate(bf, fields)  # recounts the witness
        print(f"independent checker: {'OK' if report.ok else 'REJECTED'} "
              f"({', '.join(report.checks)})")
        assert report.ok, report.problems

        # Independent recount, no library machinery:
        side = np.array([c == "1" for c in json.loads(path.read_text())["witness"]])
        crossing = 0
        for u, v in bf.edges:
            crossing += side[u] != side[v]
        print(f"hand recount: {int(crossing)} crossing edges; "
              f"|S| = {int(side.sum())} of {bf.num_nodes}")
        assert int(crossing) == cut.capacity < n

    plan = json.dumps(dataclasses.asdict(best_plan(n)))
    print(f"the plan itself is {len(plan)} bytes of JSON — "
          "the whole construction fits in a tweet")

    print()
    print("=== estimating the paper's constants from data alone ===")
    fit = estimate_theorem_220_constant()
    print(f"Theorem 2.20: fitted limit {fit.limit:.4f} "
          f"(paper: 2(sqrt2-1) = {2 * (math.sqrt(2) - 1):.4f}, "
          f"rms residual {fit.residual:.2e})")
    fit = estimate_lemma_219_constant()
    print(f"Lemma 2.19:  fitted limit {fit.limit:.4f} "
          f"(paper: sqrt2-1 = {math.sqrt(2) - 1:.4f})")


if __name__ == "__main__":
    main()
