"""Dense complex linear algebra primitives.

Matrices are square numpy arrays of complex128 in row-major (C) order;
entry (i, j) means row i, column j, indices 0-based.  Each complex entry
is an adjacent (real, imag) float64 pair, and the serialization code in
`tracekit.formats` relies on exactly that layout.

The Hermitian eigensolve is LAPACK's, through numpy.linalg.eigh.  What
is built on it needs no independent solver to be trusted: a unitary
decomposition certifies itself by its reconstruction and unitarity
residuals, computed from the unitaries it returns.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

__all__ = [
    "as_matrix",
    "frobenius_norm",
    "hermitian_eigh",
    "matrix_unit",
    "normalized_trace",
]


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 matrix, rejecting anything malformed.

    Accepts any array_like of numbers.  Raises ValueError for wrong
    dimensionality, non-square shape, empty size, or non-finite entries.
    """
    m = np.asarray(a)
    if m.dtype == object:
        raise ValueError(f"{name} has non-numeric entries")
    m = np.ascontiguousarray(m, dtype=np.complex128)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError(f"{name} has non-finite entries")
    return m


def _unit_peak(a) -> Tuple[np.ndarray, int]:
    """(a * 2**-e, e) for a complex array a, with 2**e just above its largest
    |component|.  The scaling is exact, except that a component below
    2**-1022 times the largest rounds to a subnormal or 0 (README)."""
    x = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    e = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    return np.ldexp(x, -e).view(np.complex128), e


def _ldexp(z: complex, e: int, what: str) -> complex:
    """z * 2**e, exact unless it underflows.  Raises ValueError naming `what`
    if it overflows float64."""
    try:
        return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
    except OverflowError:
        raise ValueError(f"{what} overflows float64; rescale the matrix") from None


def frobenius_norm(a) -> float:
    """np.linalg.norm(a / 2**e) * 2**e, with a / 2**e from _unit_peak: bitwise
    np.linalg.norm(a) where that neither overflows nor underflows, as both
    scalings are exact.  Raises ValueError if the norm overflows float64."""
    s, e = _unit_peak(a)
    return _ldexp(float(np.linalg.norm(s)), e, "Frobenius norm").real


def _rounding_bound(k: float, scale: float, ops: float, e: int = 0) -> float:
    """gamma_k * scale * 2**e + ops * eta (u = 2**-53, gamma_k = k u / (1 - k u),
    eta = 2**-1074): the standard model's bound for k roundings of `scale`, in
    units of 2**e, and `ops` underflows (README)."""
    ku = k * 2.0**-53
    return math.ldexp(ku / (1.0 - ku) * scale, e) + ops * 2.0**-1074


def _unitarity_residual(u: np.ndarray) -> float:
    """||U* U - I||_F of a square complex array u; inf or nan where U* U overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.linalg.norm(np.conj(u).T @ u - np.eye(u.shape[0])))


def _unitarity_bound(n: int) -> float:
    """gamma_{5 p(n) + 3 sqrt(n)}, p(n) = 64 n: decompose's bound on ||U* U - I||_F (README)."""
    return _rounding_bound(5 * 64 * n + 3 * n**0.5, 1.0, 0)


def normalized_trace(a) -> complex:
    """Sum of the diagonal divided by the dimension.

    This is the exact quantity the sphere-average estimator targets, and
    the unique value of the normalized tracial functional at `a`.  It is
    taken of a / 2**e (_unit_peak) and scaled back, so it never overflows.
    """
    s, e = _unit_peak(as_matrix(a))
    return _ldexp(complex(np.trace(s) / s.shape[0]), e, "normalized trace")


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


def hermitian_eigh(h):
    """Full eigendecomposition of a Hermitian matrix, by LAPACK (numpy.linalg.eigh).

    Returns the (eigenvalues, eigenvectors) pair: real eigenvalues w
    in nondecreasing order and a unitary Q whose column k is the
    eigenvector for w[k] (C-contiguous), so h == Q diag(w) Q*.
    The check and the solve are of s = h / 2**e (_unit_peak), and w is
    scaled back (inf beyond float64).  LAPACK reads one triangle, so s must
    equal its conjugate transpose exactly, or ValueError is raised; pass a
    matrix Hermitian only up to rounding as (h + h*) / 2, which is exactly so.
    """
    s, e = _unit_peak(as_matrix(h, "hermitian matrix"))
    if not np.array_equal(s, np.conj(s).T):
        raise ValueError("matrix is not Hermitian: h differs from h*; pass (h + h*) / 2")
    w, q = np.linalg.eigh(s)
    return np.ldexp(w, e), q
