"""Bi-invariant complex structures and the Killing 2-forms they generate.

On the real algebra underlying the complex Heisenberg algebra, recovers the
unique bi-invariant orthogonal complex structure, builds the corresponding
Killing 2-form, and shows it is Killing but not parallel.
"""
import numpy as np

from nilkilling import (
    adapted_frame, complex_heisenberg, find_complex_structure, is_parallel,
    killing_residual, nabla_form, solve_killing2,
)

L = complex_heisenberg(1.0)
F = adapted_frame(L)

J = find_complex_structure(F)
print("recovered J (frame coordinates):\n", np.round(J, 6))
print("|J^2 + Id| =", np.abs(J @ J + np.eye(6)).max())

space, dec = solve_killing2(L)
alpha = space.basis[0]
print("\nKilling 2-form:", alpha)
print("killing residual:", killing_residual(L, F, alpha))
# the factor's J, in the factor's own frame, from the solver's decomposition
J_f, pv = dec.factors[0].J, dec.factors[0].frame.nv
print("alpha2 = J|_v:\n", J_f[:pv, :pv])
print("alpha0 = 3 J|_z:\n", 3.0 * J_f[pv:, pv:])

worst = max(nabla_form(L, F, np.eye(6)[:, a], alpha).norm() for a in range(6))
print("\nparallel?", is_parallel(F, alpha), "- max |nabla alpha| =", worst)
