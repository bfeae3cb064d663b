"""Tour of the basic geometry on the 3-dimensional Heisenberg algebra.

Builds h3 with the standard inner product, inspects the adapted frame, the
j-map attached to the central direction, and the Levi-Civita connection.
"""
import numpy as np

from nilkilling import adapted_frame, heisenberg, j_trace_form, levi_civita

L = heisenberg(1)
print(f"algebra: {L.name}, dim {L.dim}")
print("structure constants: [e1, e2] =",
      L.bracket(np.eye(3)[:, 0], np.eye(3)[:, 1]))

F = adapted_frame(L)
print(f"\nadapted frame: dim v = {F.nv}, dim z = {F.nz}")
print("j(z) on v (skew):\n", F.j_matrices[0])
print("trace form [tr(J_s J_t)]:", j_trace_form(F))

e = np.eye(3)
print("\nLevi-Civita connection (three-case table):")
for a, b in [(0, 1), (0, 2), (2, 0), (2, 2)]:
    print(f"  nabla_e{a + 1} e{b + 1} =", levi_civita(F, e[:, a], e[:, b]))
