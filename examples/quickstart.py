#!/usr/bin/env python
"""Quickstart: build butterflies, ask for certified bisection widths and
expansion values, and check a paper claim.

Run:  python examples/quickstart.py
"""

from repro import butterfly, wrapped_butterfly, cube_connected_cycles
from repro.core import check, edge_expansion, solve_with_fallback
from repro.topology import degree_census, diameter
from repro.topology.render import ascii_butterfly


def main() -> None:
    # --- networks -------------------------------------------------------
    b8 = butterfly(8)                  # Bn: the Figure 1 network
    w8 = wrapped_butterfly(8)          # Wn: levels identified around
    ccc8 = cube_connected_cycles(8)    # the cube-connected cycles cousin

    print(ascii_butterfly(b8))
    print()
    print(f"{b8}: degrees {degree_census(b8)}, diameter {diameter(b8)}")
    print(f"{w8}: degrees {degree_census(w8)}, diameter {diameter(w8)}")
    print(f"{ccc8}: degrees {degree_census(ccc8)}")
    print()

    # --- certified bisection widths (the paper's main quantities) -------
    # One cascade: exact solvers first, then the paper's closed form and
    # construction for a family instance past their reach.
    print(solve_with_fallback(b8))                         # exact: the 32-node DP
    print(solve_with_fallback(wrapped_butterfly(16)))      # Lemma 3.2: = n
    print(solve_with_fallback(cube_connected_cycles(16)))  # Lemma 3.3: = n/2
    print(solve_with_fallback(butterfly(1024)))            # Theorem 2.20 interval
    print()

    # --- expansion (Section 4) ------------------------------------------
    print(edge_expansion(w8, 4))            # exact EE via the layered DP
    print()

    # --- check a claim straight out of the registry ---------------------
    res = check("lemma-2.19")
    print(f"Lemma 2.19 check passed: {res.passed}")
    for j, ratio in sorted(res.details["ratios"].items()):
        print(f"  BW(MOS_{{{j},{j}}}, M2)/j^2 = {ratio:.4f}")
    print(f"  limit sqrt(2) - 1 = {res.details['limit']:.4f}")


if __name__ == "__main__":
    main()
