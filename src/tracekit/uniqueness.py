"""Uniqueness of the normalized tracial functional, as a solvable system.

A linear functional f on n x n matrices is determined by its values
v[i][j] = f(e_ij) on the matrix units.  Tracial means f(AB) = f(BA) for
all A, B; on the units, with e_ij e_kl = (j == k) e_il, this reads

    (j == k) * v[i][l] == (l == i) * v[k][j]   for all i, j, k, l,

one homogeneous equation per index tuple (n^4 of them), and forcing the
off-diagonal values to zero and the diagonal values equal.  The
homogeneous solution space is one-dimensional, so adding the single
normalization f(I) = sum_i v[i][i] = 1 pins down v == I / n exactly: the
normalized trace is the only normalized tracial functional.  Both the
dimension and the values are read off the connected components of the
equations v_a = v_b, exactly and with no float solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sphere import GaussianStream, StreamSpec, gaussian_matrix

__all__ = [
    "ConstraintSystem",
    "FunctionalSolution",
    "build_constraint_system",
    "evaluate_functional",
    "homogeneous_nullspace_dim",
    "solve_unique_functional",
    "verify_tracial_on_random_pairs",
]

_MAX_DIM = 8  # n^4 + 1 rows; above this the system stops being "small"


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear system lhs @ vec(v) = e_last over the n^2 unknowns v[i][j].

    Row r < n^4 encodes the tuple (i, j, k, l) with r = ((i*n + j)*n + k)*n + l;
    the last row is the normalization.  Unknown v[i][j] sits at column i*n + j.
    """

    dim: int
    lhs: np.ndarray  # (n^4 + 1, n^2) float64


def build_constraint_system(n: int) -> ConstraintSystem:
    """Assemble the tracial constraints plus sum_i v[i][i] = 1."""
    if not 1 <= n <= _MAX_DIM:
        raise ValueError(f"dimension must be in [1, {_MAX_DIM}], got {n}")
    rows = n**4 + 1
    lhs = np.zeros((rows, n * n), dtype=np.float64)
    i, j, k, l = np.indices((n,) * 4).reshape(4, -1)  # the tuple of each row r < n^4
    r = np.arange(n**4)
    lhs[r, i * n + l] += j == k
    lhs[r, k * n + j] -= l == i
    lhs[-1, :: n + 1] = 1.0  # the diagonal unknowns v[d][d]
    return ConstraintSystem(dim=n, lhs=lhs)


def _components(system: ConstraintSystem) -> tuple[np.ndarray, list[int]]:
    """Exact union-find over the homogeneous rows: (labels, free roots).

    Every homogeneous row must be 0, +-e_a (v_a = 0) or e_a - e_b
    (v_a = v_b), else ValueError.  labels[a] is the root of unknown a's
    component in the e_a - e_b graph; free lists the roots of the
    components that hold no forced-zero unknown.
    """
    lhs = system.lhs[:-1]
    # flat indices of a bool mask: np.nonzero on 2-D floats is ~10x slower
    rows, cols = np.divmod(np.flatnonzero(lhs != 0), lhs.shape[1])
    vals = lhs[rows, cols]
    size = np.bincount(rows, minlength=lhs.shape[0])[rows]  # nonzeros in each entry's row
    first = np.flatnonzero(size == 2)[::2]  # first entry of each two-entry row
    ok = (size <= 2) & (np.abs(vals) == 1.0)
    ok[first] &= vals[first] == -vals[first + 1]
    if not np.all(ok):
        r = int(rows[np.argmin(ok)])
        raise ValueError(f"constraint row {r} is not 0, +-e_a or e_a - e_b")

    parent = list(range(lhs.shape[1]))

    def root(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for u, w in zip(cols[first].tolist(), cols[first + 1].tolist()):
        parent[root(u)] = root(w)
    forced = {root(u) for u in cols[size == 1].tolist()}
    labels = np.array([root(u) for u in range(len(parent))])
    return labels, sorted(set(labels.tolist()) - forced)


def homogeneous_nullspace_dim(system: ConstraintSystem) -> int:
    """Exact dimension of the solution space without the normalization row:
    the number of components of the e_a - e_b graph with no forced-zero
    unknown.  A row that is not 0, +-e_a or e_a - e_b raises ValueError."""
    return len(_components(system)[1])


@dataclass(frozen=True)
class FunctionalSolution:
    """Solved functional values v[i][j] = f(e_ij) with certificates."""

    dim: int
    values: np.ndarray  # (n, n) complex128
    residual: float  # max |lhs @ vec(v) - e_last|
    nullspace_dim: int  # of the homogeneous system; 1 certifies uniqueness


def solve_unique_functional(n: int) -> FunctionalSolution:
    """Read the functional off the constraint components, certified unique.

    No float solve: unknowns in a component holding a forced-zero unknown
    are 0, and the one free component takes 1 / w, where w sums the
    normalization row over its unknowns, giving I / n.
    Returns the values, the max-abs residual of the full system and the
    nullspace dimension.  Raises ArithmeticError if that dimension is not 1
    or w == 0, since then the normalization would not determine f.
    """
    system = build_constraint_system(n)
    labels, free = _components(system)
    if len(free) != 1:
        raise ArithmeticError(
            f"homogeneous tracial system has nullspace dimension {len(free)}, "
            f"expected 1"
        )
    component = labels == free[0]
    weight = float(np.sum(system.lhs[-1, component]))
    if weight == 0.0:
        raise ArithmeticError("the normalization row does not fix the free component")
    vec = np.where(component, 1.0 / weight, 0j)
    # the float lhs times vec's (re, im) columns, without a complex copy of lhs
    product = (system.lhs @ vec.view(np.float64).reshape(-1, 2)).view(np.complex128)[:, 0]
    product[-1] -= 1.0  # the right-hand side e_last
    residual = float(np.max(np.abs(product)))
    return FunctionalSolution(
        dim=n,
        values=vec.reshape(n, n),
        residual=residual,
        nullspace_dim=1,
    )


def evaluate_functional(solution: FunctionalSolution, a) -> complex:
    """f(A) = sum_ij v[i][j] A[i][j], by linearity over the matrix units."""
    m = np.asarray(a, dtype=np.complex128)
    if m.shape != (solution.dim, solution.dim):
        raise ValueError(f"matrix shape {m.shape} does not match dim {solution.dim}")
    return complex(np.sum(solution.values * m))


def verify_tracial_on_random_pairs(
    solution: FunctionalSolution, trials: int, spec: StreamSpec
) -> float:
    """Max |f(AB) - f(BA)| over random Gaussian pairs; small means tracial."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    stream = GaussianStream(spec)
    n = solution.dim
    worst = 0.0
    for _ in range(trials):
        a = gaussian_matrix(stream, n)
        b = gaussian_matrix(stream, n)
        gap = abs(
            evaluate_functional(solution, a @ b)
            - evaluate_functional(solution, b @ a)
        )
        worst = max(worst, gap)
    return worst
