"""Dense complex linear algebra primitives.

Matrices are square numpy arrays of complex128 in row-major (C) order;
entry (i, j) means row i, column j, indices 0-based.  Each complex entry
is an adjacent (real, imag) float64 pair, and the serialization code in
`tracekit.formats` relies on exactly that layout.

The Hermitian eigensolver is a complex Jacobi iteration in round-robin
order, each round's disjoint rotations applied as one batched update.
It is self-contained on purpose: downstream checks (operator norms, unitary
constructions) should not share an implementation with the numpy/LAPACK
routines the test suite uses as an independent oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = [
    "ConvergenceError",
    "EigenDecomposition",
    "adjoint",
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "hermitian_eigh",
    "matrix_unit",
    "normalized_trace",
    "operator_norm_hermitian",
]


class ConvergenceError(RuntimeError):
    """Raised when an iterative solver hits its sweep cap before its tolerance."""


def _as_complex(a, name: str, ndim: int) -> np.ndarray:
    m = np.asarray(a)
    if m.dtype == object:
        raise ValueError(f"{name} has non-numeric entries")
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {m.shape}")
    if ndim == 2 and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting anything malformed.

    Accepts any array_like of numbers.  Raises ValueError for wrong
    dimensionality, non-square shape, empty size, or non-finite entries.
    """
    return _as_complex(a, name, 2)


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d complex128 vector with finite entries."""
    return _as_complex(v, name, 1)


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose.  Entrywise exact, so adjoint(adjoint(a)) == a bitwise."""
    return np.ascontiguousarray(np.conj(np.asarray(a)).T)


def frobenius_norm(a) -> float:
    """Frobenius norm of an array of any shape."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def normalized_trace(a) -> complex:
    """Sum of the diagonal divided by the dimension.

    This is the exact quantity the sphere-average estimator targets, and
    the unique value of the normalized tracial functional at `a`.
    """
    m = as_matrix(a)
    return complex(np.trace(m) / m.shape[0])


def matrix_unit(i: int, j: int, n: int) -> np.ndarray:
    """The n x n matrix with a single 1 at row i, column j (0-based).

    Satisfies matrix_unit(i, j, n) @ matrix_unit(k, l, n) ==
    (j == k) * matrix_unit(i, l, n) exactly: the product only ever
    multiplies and adds 0.0 and 1.0.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices ({i}, {j}) out of range for dimension {n}")
    e = np.zeros((n, n), dtype=np.complex128)
    e[i, j] = 1.0
    return e


class EigenDecomposition(NamedTuple):
    eigenvalues: np.ndarray  # real float64, nondecreasing
    basis: np.ndarray  # unitary, column k is the eigenvector for eigenvalues[k]


def _require_hermitian(h: np.ndarray, name: str) -> None:
    asym = float(np.linalg.norm(h - np.conj(h).T))
    tol = 1e-12 * max(1.0, float(np.linalg.norm(h)))
    if asym > tol:
        raise ValueError(
            f"{name} is not Hermitian: asymmetry norm {asym:.3e} exceeds {tol:.3e}"
        )


def _round_robin(n: int):
    """The m - 1 rounds of one sweep, m = n rounded up to even, as (P, R)
    index arrays with P < R.  Every pair p < r appears in exactly one
    round, and the pairs of a round are disjoint.  For odd n the phantom
    index n meets one index per round; that pair is dropped."""
    m = n + n % 2
    for k in range(m - 1):
        order = np.concatenate(([0], np.roll(np.arange(1, m), k)))
        p, r = np.sort([order[: m // 2], order[::-1][: m // 2]], axis=0)
        yield p[r < n], r[r < n]


def _rotate_rows(x, p, r, c, s_phase, s, c_phase, work) -> None:
    """Rows (p, r) of x <- (c x_p - s_phase x_r, s x_p + c_phase x_r), pairwise.

    `work` holds four (len(p), n) buffers, so that a round allocates no
    array of its own size: from n ~ 128 on, such arrays reach malloc's
    mmap threshold, and a fresh mapping per temporary made whole solves
    about 3x slower."""
    xp, xr, t1, t2 = work
    # the indices are in range; mode "raise" would copy through a buffer
    np.take(x, p, axis=0, out=xp, mode="clip")
    np.take(x, r, axis=0, out=xr, mode="clip")
    np.multiply(xp, c, out=t1)
    t1 -= np.multiply(xr, s_phase, out=t2)
    x[p] = t1
    np.multiply(xp, s, out=t1)
    t1 += np.multiply(xr, c_phase, out=t2)
    x[r] = t1


def hermitian_eigh(h, sweep_cap: int = 30) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix by round-robin Jacobi.

    Each sweep visits every index pair (p, r), p < r, once, in the
    round-robin order of Brent & Luk (1985): m - 1 rounds of disjoint
    pairs, m = n rounded up to even.  A round annihilates the (p, r)
    entries of all its pairs with complex Givens rotations, applied as
    one batched update, until the off-diagonal Frobenius mass drops
    below 1e-13 times the Frobenius norm of the input.  Returns
    eigenvalues in nondecreasing order together with a unitary matrix of
    eigenvectors (as columns): h == Q diag(w) Q*.

    Raises ValueError if the input fails the Hermitian check at
    1e-12 * max(1, ||h||_F), and ConvergenceError if `sweep_cap` sweeps
    do not reach the tolerance.
    """
    h0 = as_matrix(h, "hermitian matrix")
    _require_hermitian(h0, "matrix")
    n = h0.shape[0]

    # Work on the exactly Hermitian average; drift is within the check above.
    a = (h0 + np.conj(h0).T) / 2.0
    fro = float(np.linalg.norm(a))
    if n == 1 or fro == 0.0:
        w = np.diag(a).real.copy()
        return EigenDecomposition(w, np.eye(n, dtype=np.complex128))

    goal = 1e-13 * fro
    # Rotations on entries this small cannot move the off-diagonal mass
    # meaningfully; skipping them keeps sweeps cheap near convergence.
    skip = goal / (2.0 * n)
    rounds = list(_round_robin(n))
    # Q is kept as its adjoint, so that q <- q G is a row update too.
    qh = np.eye(n, dtype=np.complex128)
    spare = np.empty_like(a)
    work = np.empty((4, n // 2, n), dtype=np.complex128)

    for _ in range(sweep_cap):
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        if off <= goal:
            break
        for p, r in rounds:
            b = a[p, r]
            ab = np.abs(b)
            live = ab > skip
            if not live.any():
                continue
            p, r, b, ab = p[live], r[live], b[live], ab[live]
            tau = (a[r, r].real - a[p, p].real) / (2.0 * ab)
            t = np.where(tau >= 0.0, 1.0, -1.0) / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            c, s, phase = c[:, None], s[:, None], (b / ab)[:, None]

            # Rotation G per pair: G[p,p]=c, G[p,r]=s, G[r,p]=-s*conj(phase),
            # G[r,r]=c*conj(phase); update a <- G* a G, q <- q G.  Rows are
            # contiguous and columns are not, so G* a G is formed as
            # G* (G* a)*, equal to it as a is Hermitian: rotate the rows of a,
            # take the conjugate transpose, rotate the rows again.
            coefficients = (c, s * phase, s, c * phase, work[:, : len(p)])
            _rotate_rows(qh, p, r, *coefficients)
            _rotate_rows(a, p, r, *coefficients)
            np.conjugate(a.T, out=spare)
            a, spare = spare, a
            _rotate_rows(a, p, r, *coefficients)
            a[p, r] = 0.0
            a[r, p] = 0.0
            a[p, p] = a[p, p].real
            a[r, r] = a[r, r].real
    else:
        off = float(np.linalg.norm(a - np.diag(np.diag(a))))
        raise ConvergenceError(
            f"Jacobi iteration: off-diagonal norm {off:.3e} above {goal:.3e} "
            f"after {sweep_cap} sweeps"
        )

    w = np.diag(a).real.copy()
    order = np.argsort(w, kind="stable")
    return EigenDecomposition(w[order], np.ascontiguousarray(np.conj(qh[order]).T))


def operator_norm_hermitian(h) -> float:
    """Spectral norm of a Hermitian matrix: largest |eigenvalue|."""
    w = hermitian_eigh(h).eigenvalues
    return float(max(abs(w[0]), abs(w[-1])))
