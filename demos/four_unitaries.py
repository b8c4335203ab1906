"""
Writing an arbitrary matrix as a combination of four unitaries
==============================================================

Split A into Hermitian parts H1 = (A + A*)/2 and H2 = (A - A*)/2i,
rescale each into a contraction H, and map it to the unitary
U = H - i sqrt(I - H^2).  Then H = (U + U*)/2, so A is a linear
combination of at most four unitary matrices.
"""

import numpy as np

from tracekit import decompose_into_unitaries, determinant, rephase_to_det_one

rng = np.random.default_rng(7)
a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))

dec = decompose_into_unitaries(a)
print(f"input                  : random complex {dec.dim} x {dec.dim}")
print(f"number of terms        : {len(dec.coefficients)}")
print(f"reconstruction residual: {dec.reconstruction_residual:.2e}")
print(f"unitarity residual     : {dec.unitarity_residual:.2e}")
print()

for k, (c, u) in enumerate(zip(dec.coefficients, dec.unitaries)):
    d = determinant(u)
    print(f"term {k}: coefficient {c:+.6f}   |det U| = {abs(d):.12f}")

# check the sum really reproduces A
residual = np.linalg.norm(dec.reconstruct() - a)
print(f"\n|| sum c_k U_k - A ||_F = {residual:.2e}")

# each unitary can be rotated into the special unitary group without
# changing the term: multiply U by a phase and divide the coefficient
print("\nafter rephasing to determinant one:")
for k, (c, u) in enumerate(zip(dec.coefficients, dec.unitaries)):
    u1, c1 = rephase_to_det_one(u, c)
    print(f"term {k}: coefficient {c1:+.6f}   det = {determinant(u1):+.12f}")

# a Hermitian contraction is the cleanest case: two terms, both ||H|| / 2
h = np.array([[0.0, 0.6], [0.6, 0.0]])
small = decompose_into_unitaries(h)
print(f"\nHermitian contraction: coefficients {small.coefficients}, "
      f"||H|| / 2 = {np.linalg.norm(h, 2) / 2:.6f}")
