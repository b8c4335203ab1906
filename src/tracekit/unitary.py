"""Decomposition of square matrices into weighted sums of unitaries.

A Hermitian contraction H (||H|| <= 1) splits as H = (U + U*) / 2 with
U = H - i (I - H^2)^(1/2) unitary: in an eigenbasis each eigenvalue
lambda in [-1, 1] becomes lambda - i sqrt(1 - lambda^2), a point on the
unit circle whose real part is lambda.  An arbitrary A = H1 + i H2 with
Hermitian parts H1, H2 then needs at most four unitaries, two per part,
each from one eigensolve of its part H, with phases of w / ||H||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .linalg import (_ldexp, _rounding_bound, _unit_peak, _unitarity_bound, _unitarity_residual,
                     as_matrix, frobenius_norm, hermitian_eigh)
from .sphere import GaussianStream, StreamSpec, gaussian_matrix

__all__ = [
    "hermitian_parts",
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
    input entries.  They are formed from a / 2**e (linalg._unit_peak) and
    scaled back, so no component overflows: none exceeds the largest of a.
    """
    s, e = _unit_peak(as_matrix(a))
    ss = np.conj(s).T
    return tuple(np.ldexp(h.view(np.float64), e).view(np.complex128)
                 for h in ((s + ss) / 2.0, (s - ss) / 2j))


def _part_unitary(h) -> Tuple[float, np.ndarray]:
    """(||h||, U) from one solve h = Q diag(w) Q*: U = Q diag(lam - i sqrt(1 - lam^2)) Q*
    with lam = w / ||h||, in [-1, 1] exactly (w is sorted, so |w| <= ||h||, and
    a correctly rounded quotient keeps that); h = 0 gives U = -i I."""
    w, q = hermitian_eigh(h)
    norm = float(max(abs(w[0]), abs(w[-1])))
    lam = w / (norm or 1.0)
    return norm, np.ascontiguousarray((q * (lam - 1j * np.sqrt(1.0 - lam * lam))) @ np.conj(q).T)


@dataclass
class UnitaryDecomposition:
    """A = sum_m coefficients[m] * unitaries[m], with certified residuals.

    reconstruction_residual is ||sum - A||_F; unitarity_residual is the
    largest ||U* U - I||_F over the terms.  Each bound is the most rounding
    alone can make of its residual.
    """

    dim: int
    coefficients: List[complex]
    unitaries: List[np.ndarray]
    reconstruction_residual: float
    unitarity_residual: float
    reconstruction_bound: float
    unitarity_bound: float

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim), dtype=np.complex128)
        for c, u in zip(self.coefficients, self.unitaries):
            out += c * u
        return out


def decompose_into_unitaries(a) -> UnitaryDecomposition:
    """Write a square matrix as a sum of at most four weighted unitaries.

    Each Hermitian part H = Q diag(w) Q* is solved once.  Its operator
    norm h = max |w| gives the two terms (h/2) U and (h/2) U*, with U
    formed from Q and w / h, the eigenvalues of the contraction H / h.
    Parts with h = 0 contribute nothing; the zero matrix yields the
    single term 0 * I.  rephase_to_det_one(u, c) of a term gives its
    determinant-one form.  The bounds, derived in README, are
    gamma_{3 p(n) + 18 sqrt(n) + 4} ||A||_F + 20 n eta and
    gamma_{5 p(n) + 3 sqrt(n)}, with p(n) = 64 n for LAPACK's
    unspecified p(n) u (eigh's backward error and loss of orthogonality).
    The terms are those of A / 2**e (linalg._unit_peak), whose coefficients
    and residual are scaled back; a coefficient beyond float64 raises ValueError.
    """
    s, e = _unit_peak(as_matrix(a))
    n = s.shape[0]
    h1, h2 = hermitian_parts(s)
    coeffs: List[complex] = []
    units: List[np.ndarray] = []
    for h, front in ((h1, 1.0 + 0j), (h2, 1j)):
        norm, u = _part_unitary(h)
        if norm == 0.0:
            continue
        half = front * (norm / 2.0)
        coeffs.extend([half, half])
        units.extend([u, np.ascontiguousarray(np.conj(u).T)])
    if not coeffs:
        coeffs = [0j]
        units = [np.eye(n, dtype=np.complex128)]
    bound = _rounding_bound(3 * 64 * n + 18 * n**0.5 + 4, frobenius_norm(s), 20 * n, e)
    dec = UnitaryDecomposition(n, coeffs, units, 0.0, 0.0, bound, _unitarity_bound(n))
    dec.reconstruction_residual = math.ldexp(frobenius_norm(dec.reconstruct() - s), e)
    dec.coefficients = [_ldexp(c, e, "a coefficient ||H|| / 2") for c in coeffs]
    dec.unitarity_residual = max(_unitarity_residual(u) for u in units)
    return dec


def seeded_unitary(spec: StreamSpec, n: int) -> np.ndarray:
    """A random n x n unitary from the substream at `spec`: the phase unitary
    of H, the Hermitian part of gaussian_matrix, from one solve H = Q diag(w) Q*
    and the phases of w / ||H||; bitwise the first term of decompose_into_unitaries(H)."""
    # H = 0 only if all 2n^2 normals are 0
    return _part_unitary(hermitian_parts(gaussian_matrix(GaussianStream(spec), n))[0])[1]


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
