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
from typing import NamedTuple

import numpy as np

__all__ = [
    "EigenDecomposition",
    "as_matrix",
    "as_vector",
    "frobenius_norm",
    "hermitian_eigh",
    "matrix_unit",
    "normalized_trace",
    "operator_norm_hermitian",
]


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


def frobenius_norm(a) -> float:
    """np.linalg.norm(a / 2**e) * 2**e, 2**e just above the largest |component|:
    bitwise np.linalg.norm(a) where that neither overflows nor underflows, as
    both scalings are exact.  Raises ValueError if the norm overflows float64."""
    x = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    e = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    try:
        return math.ldexp(float(np.linalg.norm(np.ldexp(x, -e).view(np.complex128))), e)
    except OverflowError:
        raise ValueError("Frobenius norm overflows float64; rescale the matrix") from None


def normalized_trace(a) -> complex:
    """Sum of the diagonal divided by the dimension.

    This is the exact quantity the sphere-average estimator targets, and
    the unique value of the normalized tracial functional at `a`.  Raises
    ValueError when the trace overflows float64.
    """
    m = as_matrix(a)
    with np.errstate(over="ignore", invalid="ignore"):
        value = complex(np.trace(m) / m.shape[0])
    if not np.isfinite(value):
        raise ValueError("normalized trace overflows float64; rescale the matrix")
    return value


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
    # Both norms are taken of h / max|h_ij|, so neither overflows; the test
    # is ||h - h*||_F <= 1e-12 * max(1, ||h||_F), divided through by the peak.
    peak = float(np.abs(h).max())
    if peak == 0.0:
        return
    s = (h.view(np.float64) / peak).view(np.complex128)  # h / peak overflows if peak is tiny
    asym = float(np.linalg.norm(s - np.conj(s).T))
    tol = 1e-12 * max(1.0 / peak, float(np.linalg.norm(s)))
    if asym > tol:
        raise ValueError(
            f"{name} is not Hermitian: ||h - h*||_F / max|h_ij| = {asym:.3e} "
            f"exceeds {tol:.3e}"
        )


def hermitian_eigh(h) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, by LAPACK (numpy.linalg.eigh).

    Returns eigenvalues in nondecreasing order together with a unitary
    matrix of eigenvectors (as columns, C-contiguous): h == Q diag(w) Q*.
    LAPACK reads one triangle, so the solve is of the exactly Hermitian
    average h/2 + h*/2 (halved first, so it is finite), which differs from
    h by no more than the check.

    Raises ValueError if the input fails the Hermitian check
    ||h - h*||_F <= 1e-12 * max(1, ||h||_F).
    """
    h0 = as_matrix(h, "hermitian matrix")
    _require_hermitian(h0, "matrix")
    return EigenDecomposition(*np.linalg.eigh(h0 / 2.0 + np.conj(h0).T / 2.0))


def operator_norm_hermitian(h) -> float:
    """Spectral norm of a Hermitian matrix: largest |eigenvalue|."""
    w = hermitian_eigh(h).eigenvalues
    return float(max(abs(w[0]), abs(w[-1])))
