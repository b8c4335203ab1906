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

Only the tuples with j == k or l == i give a nonzero row, at most
2n^3 - n^2 of the n^4, so the system is stored as its nonzeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConstraintSystem",
    "FunctionalSolution",
    "build_constraint_system",
    "evaluate_functional",
    "homogeneous_nullspace_dim",
    "solve_unique_functional",
]

# ~2n^3 nonzeros: at n = 64 a fresh `tracekit uniqueness` takes ~0.25 s and
# ~76 MB peak RSS on a 2-CPU box; n = 128 would hold 8x as many
_MAX_DIM = 64


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear system A @ vec(v) = e_last over the n^2 unknowns v[i][j],
    stored as the nonzeros of A: A[rows[t], cols[t]] = vals[t].

    Row r < n^4 encodes the tuple (i, j, k, l) with r = ((i*n + j)*n + k)*n + l;
    row n^4 is the normalization.  Unknown v[i][j] sits at column i*n + j.
    The entries are sorted by (row, col), each (row, col) at most once,
    and every val is nonzero; any other arrays raise ValueError.
    """

    dim: int
    rows: np.ndarray  # int64
    cols: np.ndarray  # int64
    vals: np.ndarray  # float64

    def __post_init__(self):
        n, rows, cols = self.dim, self.rows, self.cols
        if not (rows.ndim == 1 and rows.shape == cols.shape == self.vals.shape
                and np.all(np.diff(rows * (n * n) + cols) > 0) and np.all(self.vals != 0)
                and np.all((rows >= 0) & (rows <= n**4) & (cols >= 0) & (cols < n * n))):
            raise ValueError(
                "constraint entries must be nonzero, in range and sorted by (row, col)")


def build_constraint_system(n: int) -> ConstraintSystem:
    """Assemble the tracial constraints plus sum_i v[i][i] = 1."""
    if not 1 <= n <= _MAX_DIM:
        raise ValueError(f"dimension must be in [1, {_MAX_DIM}], got {n}")
    a, b, c = np.indices((n,) * 3).reshape(3, -1)
    keep = (a != b) | (b != c)  # on (a, a, a, a) both terms are v[a][a] and cancel
    a, b, c = a[keep], b[keep], c[keep]
    rows = np.concatenate([
        ((a * n + b) * n + b) * n + c,  # (i, j, j, l) = (a, b, b, c): +v[i][l]
        ((a * n + b) * n + c) * n + a,  # (i, j, k, i) = (a, b, c, a): -v[k][j]
        np.full(n, n**4),  # the normalization row
    ])
    cols = np.concatenate([a * n + c, c * n + b, np.arange(n) * (n + 1)])
    vals = np.repeat([1.0, -1.0, 1.0], [a.size, a.size, n])
    # each family is already in row order: the stable sort (timsort) merges them
    order = np.argsort(rows * (n * n) + cols, kind="stable")
    return ConstraintSystem(dim=n, rows=rows[order], cols=cols[order], vals=vals[order])


def _runs(rows: np.ndarray) -> np.ndarray:
    """Row run of each entry of a row-sorted system: 0, 1, ... in row order."""
    return np.cumsum(np.diff(rows, prepend=-1) != 0) - 1


def _components(system: ConstraintSystem) -> tuple[np.ndarray, np.ndarray]:
    """Exact connected components of the homogeneous rows: (labels, free).

    Every homogeneous row must be 0, +-e_a (v_a = 0) or e_a - e_b
    (v_a = v_b), else ValueError.  labels[a] is the least unknown of a's
    component in the e_a - e_b graph; free lists, ascending, the labels of
    the components that hold no forced-zero unknown.
    """
    h = np.searchsorted(system.rows, system.dim**4)  # entries of rows < n^4
    rows, cols, vals = system.rows[:h], system.cols[:h], system.vals[:h]
    run = _runs(rows)
    size = np.bincount(run)[run]  # nonzeros in each entry's row
    first = np.flatnonzero(size == 2)[::2]  # first entry of each two-entry row
    ok = (size <= 2) & (np.abs(vals) == 1.0)
    ok[first] &= vals[first] == -vals[first + 1]
    if not np.all(ok):
        r = int(rows[np.argmin(ok)])
        raise ValueError(f"constraint row {r} is not 0, +-e_a or e_a - e_b")

    # min-label propagation: every label is a root (labels[root] == root) at
    # the top of the loop; each root an edge touches hooks onto the least
    # root across its edges, and pointer jumping brings labels back to roots
    u, w = cols[first], cols[first + 1]
    labels = np.arange(system.dim**2)
    while True:
        lu, lw = labels[u], labels[w]
        if np.array_equal(lu, lw):
            break
        np.minimum.at(labels, np.maximum(lu, lw), np.minimum(lu, lw))
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped
    free = labels == np.arange(labels.size)
    free[labels[cols[size == 1]]] = False
    return labels, np.flatnonzero(free)


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
    residual: float  # max |A @ vec(v) - e_last|
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
    last = np.searchsorted(system.rows, n**4)  # the normalization row's entries
    weight = float(np.sum(system.vals[last:][component[system.cols[last:]]]))
    if weight == 0.0:
        raise ArithmeticError("the normalization row does not fix the free component")
    vec = np.where(component, 1.0 / weight, 0.0)
    # every row without nonzeros is 0 exactly, and the last row with nonzeros
    # is the normalization row, whose right-hand side is 1; each row is summed
    # in column order, not in the grouping of some CPU's BLAS kernel
    product = np.bincount(_runs(system.rows), weights=system.vals * vec[system.cols])
    product[-1] -= 1.0
    return FunctionalSolution(
        dim=n,
        values=vec.astype(np.complex128).reshape(n, n),
        residual=float(np.max(np.abs(product))),
        nullspace_dim=1,
    )


def evaluate_functional(solution: FunctionalSolution, a) -> complex:
    """f(A) = sum_ij v[i][j] A[i][j], by linearity over the matrix units."""
    m = np.asarray(a, dtype=np.complex128)
    if m.shape != (solution.dim, solution.dim):
        raise ValueError(f"matrix shape {m.shape} does not match dim {solution.dim}")
    return complex(np.sum(solution.values * m))
