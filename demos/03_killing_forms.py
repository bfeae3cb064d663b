"""Solving the invariant Killing equation two ways.

Runs the brute-force nullspace solver against the structured forms (read
off the de Rham decomposition) on a handful of algebras and prints the
dimensions plus the paper-formula prediction dim = C(d,k) + r.  Each
algebra is decomposed once; the brute oracle runs on that frame.
"""
from nilkilling import (
    adapted_frame, complex_heisenberg, decompose, direct_sum, euclidean,
    free_two_step_3, heisenberg, killing_nullspace_brute, structured_killing,
)

algebras = [
    heisenberg(1),
    heisenberg(2),
    complex_heisenberg(1.0),
    free_two_step_3(),
    direct_sum([euclidean(3), heisenberg(1)]),
    direct_sum([heisenberg(1), heisenberg(1)]),
]

print(f"{'algebra':<14} {'k':>2} {'brute':>6} {'structured':>11} {'formula':>8}")
for L in algebras:
    dec = decompose(L)
    dims = dec.killing_dimensions()
    for k in (2, 3):
        brute = killing_nullspace_brute(L, dec.frame, k).dim
        structured = structured_killing(dec, k).dim
        print(f"{L.name:<14} {k:>2} {brute:>6} {structured:>11} "
              f"{dims[k - 2]:>8}")

print("\nKilling 3-form of h3 (the volume form):")
print(killing_nullspace_brute(heisenberg(1),
                              adapted_frame(heisenberg(1)), 3).basis[0])
