"""Bi-invariant complex structures and the Killing 2-forms they generate.

On the real algebra underlying the complex Heisenberg algebra, recovers the
unique bi-invariant orthogonal complex structure, builds the corresponding
Killing 2-form, and shows it is Killing but not parallel.
"""
import numpy as np

from nilkilling import (
    complex_heisenberg, decompose, find_complex_structure, is_parallel,
    killing_residual, nabla_form, structured_killing,
)

L = complex_heisenberg(1.0)
dec = decompose(L)
F = dec.frame

J = find_complex_structure(F)
print("recovered J (frame coordinates):\n", np.round(J, 6))
print("|J^2 + Id| =", np.abs(J @ J + np.eye(6)).max())

alpha = structured_killing(dec, 2).basis[0]
print("\nKilling 2-form:", alpha)
print("killing residual:", killing_residual(F, alpha))
# the factor's J, in the factor's own frame, from the same decomposition
J_f, pv = dec.factors[0].J, dec.factors[0].frame.nv
print("alpha2 = J|_v:\n", J_f[:pv, :pv])
print("alpha0 = 3 J|_z:\n", 3.0 * J_f[pv:, pv:])

worst = max(nabla_form(L, F, np.eye(6)[:, a], alpha).norm() for a in range(6))
print("\nparallel?", is_parallel(F, alpha), "- max |nabla alpha| =", worst)
