"""
The normalized trace is the only tracial functional
===================================================

A linear functional phi with phi(AB) = phi(BA) and phi(I) = 1 is
pinned down by its values on the matrix units e_ij.  Writing those
constraints as a linear system and reading off its connected unknowns
shows the solution space is one dimensional and the solution is
phi(A) = tr(A)/n, exactly.
"""

import numpy as np

from tracekit import (
    build_constraint_system,
    evaluate_functional,
    matrix_unit,
    solve_unique_functional,
)

for n in range(2, 7):
    system = build_constraint_system(n)
    solution = solve_unique_functional(n)
    print(
        f"n={n}: system {n**4 + 1} x {n * n} with {system.vals.size} nonzeros, "
        f"nullspace dim {solution.nullspace_dim}, residual {solution.residual:.1e}, "
        f"max |v - I/n| = {np.max(np.abs(solution.values - np.eye(n) / n)):.1e}"
    )

# the recovered functional acts like the normalized trace
n = 4
solution = solve_unique_functional(n)
rng = np.random.default_rng(11)
a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
print()
print(f"phi(AB) = {evaluate_functional(solution, a @ b):+.6f}")
print(f"phi(BA) = {evaluate_functional(solution, b @ a):+.6f}")
print(f"phi(I)  = {evaluate_functional(solution, np.eye(n)):+.6f}")

# off-diagonal matrix units have trace zero; products pick up 1/n
e01 = matrix_unit(0, 1, n)
e10 = matrix_unit(1, 0, n)
print(f"phi(e01)     = {evaluate_functional(solution, e01):+.6f}")
print(f"phi(e01 e10) = {evaluate_functional(solution, e01 @ e10):+.6f}")
