"""Monte Carlo estimation of the normalized trace by sphere averages.

The normalized trace of a complex n x n matrix A equals the average of
<A x, x> over the unit sphere, so drawing unit vectors uniformly and
averaging the quadratic form gives an unbiased estimator whose error
shrinks like 1/sqrt(N).  For an explicit A the variance of one sample is
known exactly, (||A||_F^2 - |tr A|^2 / n) / (n (n + 1)), and Bernstein's
inequality turns it into a radius the error exceeds with probability at
most 1e-9 at any N (EstimateReport.radius, README).

Conventions fixed here and relied on everywhere else:

- Inner products are linear in the first slot and conjugate-linear in
  the second: <u, v> = sum_k u[k] * conj(v[k]).
- Every value, of the estimate and of each side of the sweep, is the
  Rayleigh quotient <M z, z> / <z, z> of a row z, its value at z / ||z||,
  formed by _quotients: no row is normalized.  Re <M z, z> and <z, z> are
  dot products over the rows' float views, in one order, and Im <M z, z>
  takes its two sums on one code path, so every identity sample is exactly
  1.0 + 0.0j and the estimate of the identity has zero variance.
- The draws of an estimate based at StreamSpec(seed, b) follow the
  fixed chunk layout of `sphere.map_chunks`, which evaluates the chunks
  on a thread pool; each chunk's statistics are merged in chunk order, so
  reports are bitwise reproducible for a fixed (seed, n_samples)
  regardless of the pool's thread count (the CPU affinity).  The BLAS
  kernel, at any n, and the BLAS thread count, from about n = 130, can
  change the last bits of the operator apply, and so of a report; so
  can the summation order of numpy's einsum, fixed when numpy is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .linalg import (_ldexp, _rounding_bound, _unit_peak, _unitarity_bound, _unitarity_residual,
                     as_matrix, frobenius_norm)
from .sphere import CHUNK_SIZE, _NO_DIRECTION, StreamSpec, map_chunks

__all__ = [
    "LinearOperator",
    "RunningStats",
    "merge_stats",
    "stats_from_values",
    "EstimateReport",
    "estimate_trace",
    "substitution_identity_sweep",
]

_DELTA = 1e-9  # a correct estimate is beyond its radius with at most this probability


class LinearOperator:
    """The traced apply stage of the estimator: x -> A x for the square matrix A.

    apply_batch maps a (m, n) array of row vectors to the (m, n) array of
    their images; estimate_trace calls it on row blocks of each chunk, from
    several threads at once, and tracers time it as the operator apply.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        return x @ self.matrix.T  # row v -> (A @ v) as a row


def _quotients(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """<v, z> / <z, z> for each row z of z and v of v, C-contiguous (m, n) complex
    arrays.  Re <v, z> and <z, z> are dot products of the rows' float views,
    and Im <v, z> = sum vi zr - sum vr zi takes both sums on one code path."""
    vf, zf = v.view(np.float64), z.view(np.float64)
    sq = np.einsum("ij,ij->i", zf, zf)
    if not sq.all():
        raise RuntimeError(_NO_DIRECTION)
    im = np.einsum("ij,ij->i", v.imag, z.real) - np.einsum("ij,ij->i", v.real, z.imag)
    return np.einsum("ij,ij->i", vf, zf) / sq + 1j * (im / sq)


@dataclass(frozen=True)
class RunningStats:
    """Count, mean, and centered second moments (real/imag split) of values."""

    count: int = 0
    mean: complex = 0j
    m2_re: float = 0.0
    m2_im: float = 0.0

    def stderr(self) -> float:
        """Standard error sqrt(sample variance / count); 0.0 when count <= 1."""
        if self.count <= 1:
            return 0.0
        var = (self.m2_re + self.m2_im) / (self.count - 1)
        return math.sqrt(var) / math.sqrt(self.count)


def stats_from_values(values) -> RunningStats:
    """Two-pass statistics of a 1-d array of complex values, inf or nan on overflow."""
    v = np.ascontiguousarray(values, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError(f"values must be 1-dimensional, got shape {v.shape}")
    if v.size == 0:
        return RunningStats()
    with np.errstate(over="ignore", invalid="ignore"):
        mean = complex(v.mean())
        dre = v.real - mean.real
        dim = v.imag - mean.imag
        return RunningStats(
            count=v.size,
            mean=mean,
            m2_re=float(np.sum(dre * dre)),
            m2_im=float(np.sum(dim * dim)),
        )


def merge_stats(a: RunningStats, b: RunningStats) -> RunningStats:
    """Combine statistics of two disjoint sample sets (pairwise update).

    Merging with an empty side returns the other side unchanged, so the
    merge has an exact identity element.
    """
    if a.count == 0:
        return b
    if b.count == 0:
        return a
    count = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + (b.count / count) * delta
    w = a.count * (b.count / count)
    return RunningStats(
        count=count,
        mean=mean,
        m2_re=a.m2_re + b.m2_re + delta.real * delta.real * w,
        m2_im=a.m2_im + b.m2_im + delta.imag * delta.imag * w,
    )


@dataclass
class EstimateReport:
    """Outcome of one randomized trace estimate."""

    dim: int
    sample_count: int
    mean: complex
    stderr: float
    ci_radius: float
    spec: StreamSpec
    exact: complex
    rounding_floor: float  # the most rounding can make of abs_error()
    radius: float  # abs_error() beyond it, rounding aside, has probability <= _DELTA

    def abs_error(self) -> float:
        try:
            error = abs(self.mean - self.exact)
        except OverflowError:  # both parts finite, the modulus not
            error = math.inf
        if error == math.inf:
            raise ValueError("abs_error overflows float64; rescale the matrix")
        return error


def estimate_trace(a, n_samples: int, spec: StreamSpec, *, z: float = 3.0) -> EstimateReport:
    """Estimate the normalized trace tr(A) / n of the square matrix A = a
    (validated by linalg.as_matrix) from `n_samples` sphere draws, with
    `exact` = tr(A) / n filled in.

    Draws follow the chunk layout of map_chunks at `spec`, and chunk
    statistics are merged left to right, so the report depends only on
    (A, spec, n_samples) and is bitwise identical for any number of pool
    threads; the BLAS kernel and thread count can change its last bits.
    The estimate is of A / 2**e, scaled exactly to unit peak
    (linalg._unit_peak) so that no sample value overflows, and is scaled
    back.  ci_radius = z * stderr is reported only.  The gate allows the
    radius, exceeded with probability at most 1e-9 (inf past float64), plus
    the rounding floor gamma_k ||A||_F + (8 n^2 + n_samples) eta, both
    derived in README.  A reported number beyond float64 raises ValueError,
    abs_error() among them, as does a z so large that z * stderr is.  The
    raw trace tr(A) is n times mean, exact, stderr and ci_radius.
    """
    m = as_matrix(a)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not z > 0.0:
        raise ValueError(f"z must be > 0, got {z}")
    s, e = _unit_peak(m)
    op = LinearOperator(s)
    n = s.shape[0]

    def values(rows: np.ndarray) -> np.ndarray:
        return _quotients(op.apply_batch(rows), rows)

    total = RunningStats()
    for _, chunk in map_chunks(values, spec, n, n_samples):
        total = merge_stats(total, stats_from_values(chunk))
    mean = _ldexp(total.mean, e, "trace estimate")
    stderr = _ldexp(total.stderr(), e, "trace estimate").real
    ci_radius = z * stderr
    mu = complex(np.trace(s) / n)
    exact = _ldexp(mu, e, "normalized trace")
    rounds = 13 * n + min(n_samples, CHUNK_SIZE) + 8 * -(-n_samples // CHUNK_SIZE)  # README
    floor = _rounding_bound(rounds, frobenius_norm(s), 8 * n * n + n_samples, e)
    # Bernstein at _DELTA, sigma exact and |<Sx, x> - mu| <= ||S - mu I||_F (README)
    centred = s.copy()
    centred.flat[:: n + 1] -= mu
    sigma = float(np.linalg.norm(centred)) / math.sqrt(n * (n + 1))
    log = math.log(2 / _DELTA)
    k = math.sqrt(n * (n + 1)) * log / (3 * n_samples)
    with np.errstate(over="ignore"):  # past float64 every finite error passes
        radius = float(np.ldexp(sigma * (k + math.sqrt(k * k + 2 * log / n_samples)), e))
    if not math.isfinite(ci_radius):
        raise ValueError(f"ci_radius = z * stderr is not finite at z = {z:g}; lower z")
    report = EstimateReport(n, n_samples, mean, stderr, ci_radius, spec, exact, floor, radius)
    report.abs_error()  # raises where it is past float64
    return report


def substitution_identity_sweep(a, b, n_samples: int, spec: StreamSpec) -> Tuple[float, ...]:
    """Largest gap |<A B x, x> / <x, x> - <B A z, z> / <z, z>| at x = B* z, over draws z.

    For unitary B the change of variables x = B* z turns the first quotient
    into the second draw by draw, so the gap is rounding alone.  Each side
    is the Rayleigh quotient of estimate_trace, of the Gaussian rows z of
    map_chunks at `spec` and of their images x, so no row is normalized and
    no chunk of draws is held.  The gaps are of A / 2**e, scaled exactly to
    unit peak (linalg._unit_peak) so that none overflows, and are scaled back.
    Returns (max_gap, rho, bound) with rho = ||B* B - I||_F; raises ValueError
    when rho exceeds gamma_{5 p(n) + 3 sqrt(n)}, p(n) = 64 n, the bound of
    decompose's unitarity residual, and, after the matrix checks, when
    n_samples < 1 (no draw checks nothing).  The bound on each gap, from
    README, is (gamma_{12 n^1.5 + 24 n + 8} + 2 r sqrt(1 + r) / (1 - r)) ||A||_F
    + 2 eta, with r = rho + 2 n gamma_{2n}.
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if bm.shape != am.shape:
        raise ValueError(f"dimension mismatch: a is {am.shape[0]}, b is {bm.shape[0]}")
    n = am.shape[0]
    rho, limit = _unitarity_residual(bm), _unitarity_bound(n)  # a huge B: inf or nan, fails
    if not rho <= limit:
        raise ValueError(f"b is not unitary: ||B*B - I||_F = {rho:.3e} exceeds {limit:.3e}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    s, e = _unit_peak(am)
    b_conj = np.conj(bm)
    ab_t = (s @ bm).T
    ba_t = (bm @ s).T

    def gaps(z: np.ndarray) -> np.ndarray:
        x = z @ b_conj  # row z maps to row x = z conj(B), i.e. x = B* z
        return np.abs(_quotients(x @ ab_t, x) - _quotients(z @ ba_t, z))

    max_gap = 0.0
    for _, chunk in map_chunks(gaps, spec, n, n_samples):
        max_gap = np.maximum(max_gap, np.max(chunk))
    norm = frobenius_norm(s)
    r = rho + 2 * n * _rounding_bound(2 * n, 1.0, 0)  # at least the exact rho (README)
    bound = (_rounding_bound(12 * n**1.5 + 24 * n + 8, norm, 2, e)
             + math.ldexp(2 * r * math.sqrt(1 + r) / (1 - r) * norm, e))
    return math.ldexp(float(max_gap), e), rho, bound
