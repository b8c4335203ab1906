"""Decomposition of square matrices into weighted sums of unitaries.

A Hermitian contraction H (||H|| <= 1) splits as H = (U + U*) / 2 with
U = H - i (I - H^2)^(1/2) unitary: in an eigenbasis each eigenvalue
lambda in [-1, 1] becomes lambda - i sqrt(1 - lambda^2), a point on the
unit circle whose real part is lambda.  An arbitrary A = H1 + i H2 with
Hermitian parts H1, H2 then needs at most four unitaries, two per part,
each from one eigensolve of its part H, with phases of w / max(||H||, 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .linalg import as_matrix, frobenius_norm, hermitian_eigh
from .sphere import GaussianStream, StreamSpec, gaussian_matrix

__all__ = [
    "hermitian_parts",
    "hermitian_contraction_to_unitary",
    "UnitaryDecomposition",
    "decompose_into_unitaries",
    "seeded_unitary",
    "determinant",
    "rephase_to_det_one",
]


def hermitian_parts(a) -> Tuple[np.ndarray, np.ndarray]:
    """Split a as h1 + i*h2 with h1 = (a + a*)/2 and h2 = (a - a*)/(2i).

    Both parts are Hermitian by construction, exactly so in floating
    point since entries (j, k) and (k, j) are formed from the same two
    input entries.  Raises ValueError if a part overflows float64.
    """
    m = as_matrix(a)
    ms = np.conj(m).T
    with np.errstate(over="ignore", invalid="ignore"):
        h1, h2 = (m + ms) / 2.0, (m - ms) / 2j
    if not (np.isfinite(h1).all() and np.isfinite(h2).all()):
        raise ValueError("Hermitian parts overflow float64; rescale the matrix")
    return h1, h2


def hermitian_contraction_to_unitary(h) -> np.ndarray:
    """U = H - i (I - H^2)^(1/2) for a Hermitian contraction H.

    The square root is taken in an eigenbasis of H, with eigenvalue
    rounding clamped so 1 - lambda^2 never goes negative.  Raises
    ValueError if H is not Hermitian or its operator norm exceeds
    1 + 1e-12.
    """
    w, q = hermitian_eigh(as_matrix(h, "hermitian contraction"))
    norm = max(abs(w[0]), abs(w[-1]))
    if norm > 1.0 + 1e-12:
        raise ValueError(f"not a contraction: operator norm {norm:.12g} exceeds 1; "
                         f"rescale by the operator norm first")
    return _phase_unitary(w, q)


def _phase_unitary(w, q) -> np.ndarray:
    """Q diag(lam - i sqrt(1 - lam^2)) Q* with lam = w clipped to [-1, 1]."""
    lam = np.clip(w, -1.0, 1.0)
    return np.ascontiguousarray((q * (lam - 1j * np.sqrt(1.0 - lam * lam))) @ np.conj(q).T)


@dataclass
class UnitaryDecomposition:
    """A = sum_m coefficients[m] * unitaries[m], with certified residuals.

    reconstruction_residual is ||sum - A||_F; unitarity_residual is the
    largest ||U* U - I||_F over the terms.
    """

    dim: int
    coefficients: List[complex]
    unitaries: List[np.ndarray]
    reconstruction_residual: float
    unitarity_residual: float

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for c, u in zip(self.coefficients, self.unitaries):
            out += c * u
        return out


def _residuals(a: np.ndarray, coeffs, units) -> Tuple[float, float]:
    n = a.shape[0]
    total = np.zeros_like(a)
    eye = np.eye(n)
    ures = 0.0
    for c, u in zip(coeffs, units):
        total += c * u
        ures = max(ures, float(np.linalg.norm(np.conj(u).T @ u - eye)))
    return frobenius_norm(total - a), ures


def decompose_into_unitaries(a, det_one: bool = False) -> UnitaryDecomposition:
    """Write a square matrix as a sum of at most four weighted unitaries.

    Each Hermitian part H = Q diag(w) Q* is solved once.  Its operator
    norm h = max |w| gives the two terms (h/2) U and (h/2) U*, with U
    formed from Q and w / max(h, 1), the eigenvalues of the contraction
    H / max(h, 1); a Hermitian contraction is not scaled and comes back
    as exactly 0.5 U + 0.5 U*.  Parts with h = 0 contribute nothing;
    the zero matrix yields the single term 0 * I.  With det_one=True
    every term is passed through rephase_to_det_one, and the residuals
    are those of the rephased terms.
    """
    m = as_matrix(a)
    n = m.shape[0]
    h1, h2 = hermitian_parts(m)
    coeffs: List[complex] = []
    units: List[np.ndarray] = []
    for h, front in ((h1, 1.0 + 0j), (h2, 1j)):
        w, q = hermitian_eigh(h)
        norm = float(max(abs(w[0]), abs(w[-1])))
        if norm == 0.0:
            continue
        scale = max(norm, 1.0)
        u = _phase_unitary(w / scale, q)
        half = front * (scale / 2.0)
        coeffs.extend([half, half])
        units.extend([u, np.ascontiguousarray(np.conj(u).T)])
    if not coeffs:
        coeffs = [0j]
        units = [np.eye(n, dtype=np.complex128)]
    if det_one:
        rephased = [rephase_to_det_one(u, c) for c, u in zip(coeffs, units)]
        units = [u for u, _ in rephased]
        coeffs = [c for _, c in rephased]
    return UnitaryDecomposition(n, coeffs, units, *_residuals(m, coeffs, units))


def seeded_unitary(spec: StreamSpec, n: int) -> np.ndarray:
    """A random n x n unitary from the substream at `spec`: the first term of
    the decomposition of H, the Hermitian part of gaussian_matrix; one solve
    of H gives its eigenvalues w, and the phases come from w / max(||H||, 1)."""
    h = hermitian_parts(gaussian_matrix(GaussianStream(spec), n))[0]
    return decompose_into_unitaries(h).unitaries[0]


def determinant(a) -> complex:
    """Determinant by LU factorisation with partial pivoting (numpy.linalg.det)."""
    return complex(np.linalg.det(as_matrix(a)))


def rephase_to_det_one(u, coefficient: complex = 1.0 + 0j):
    """Scale a unitary by a unit phase so its determinant becomes 1.

    Returns (u', coefficient') with u' = u / zeta, coefficient' =
    coefficient * zeta, where zeta^n = det(u) via the principal n-th
    root; the products coefficient * u and coefficient' * u' agree.
    Raises ValueError when |det(u)| strays from 1 by more than 1e-8,
    since then no phase can fix the determinant.
    """
    um = as_matrix(u, "unitary")
    n = um.shape[0]
    d = determinant(um)
    if abs(abs(d) - 1.0) > 1e-8:
        raise ValueError(f"determinant magnitude {abs(d):.12g} is not 1 within 1e-8")
    zeta = np.exp(np.log(complex(d)) / n)  # principal branch
    return np.ascontiguousarray(um / zeta), complex(coefficient * zeta)
