"""Monte Carlo estimation of the normalized trace by sphere averages.

The normalized trace of a complex n x n matrix A equals the average of
<A x, x> over the unit sphere, so drawing unit vectors uniformly and
averaging the quadratic form gives an unbiased estimator whose error
shrinks like 1/sqrt(N).

Conventions fixed here and relied on everywhere else:

- Inner products are linear in the first slot and conjugate-linear in
  the second: <u, v> = sum_k u[k] * conj(v[k]).
- The per-sample value is the Rayleigh quotient <A x, x> / <x, x>.
  Sample vectors are unit only up to rounding; dividing by the computed
  squared norm cancels that rounding instead of bounding it.  Numerator
  and denominator are accumulated in real arithmetic (real and
  imaginary parts separately), which makes the two sums for the
  identity operator bitwise equal: every identity sample is exactly
  1.0 + 0.0j, so the estimate of the identity has zero variance.
- The draws of an estimate based at StreamSpec(seed, b) follow the
  fixed chunk layout of `sphere.map_chunks`, which evaluates the chunks
  on a thread pool; each chunk's statistics are merged in chunk order, so
  reports are bitwise reproducible for a fixed (seed, n_samples)
  regardless of the pool's thread count (the CPU affinity).  The BLAS
  kernel, at any n, and the BLAS thread count, from about n = 130, can
  change the last bits of the operator apply, and so of a report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .linalg import (_ldexp, _rounding_bound, _unit_peak, as_matrix, frobenius_norm,
                     normalized_trace)
from .sphere import (
    CHUNK_OFFSET_PAIRED,
    StreamSpec,
    map_chunks,
)

__all__ = [
    "LinearOperator",
    "RunningStats",
    "merge_stats",
    "stats_from_values",
    "EstimateReport",
    "estimate_trace",
    "substitution_identity_sweep",
    "commutation_estimate_check",
]


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


def _split_sums(v: np.ndarray, x: np.ndarray):
    """Real-arithmetic pieces of <v, x> and <x, x>, summed along the last axis."""
    vr, vi = v.real, v.imag
    xr, xi = x.real, x.imag
    re = np.sum(vr * xr + vi * xi, axis=-1)
    im = np.sum(vi * xr - vr * xi, axis=-1)
    sq = np.sum(xr * xr + xi * xi, axis=-1)
    return re, im, sq


def _rayleigh_values(images: np.ndarray, x: np.ndarray) -> np.ndarray:
    re, im, sq = _split_sums(images, x)
    return (re / sq) + 1j * (im / sq)


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

    def abs_error(self) -> float:
        return abs(self.mean - self.exact)


def estimate_trace(
    a, n_samples: int, spec: StreamSpec, *, z: float = 3.0, raw: bool = False
) -> EstimateReport:
    """Estimate the normalized trace tr(A) / n of the square matrix A = a
    (validated by linalg.as_matrix) from `n_samples` sphere draws, with
    `exact` = tr(A) / n filled in.

    Draws follow the chunk layout of map_chunks at `spec`, and chunk
    statistics are merged left to right, so the report depends only on
    (A, spec, n_samples) and is bitwise identical for any number of pool
    threads; the BLAS kernel and thread count can change its last bits.
    The estimate is of A / 2**e, scaled exactly to unit peak
    (linalg._unit_peak) so that no sample value overflows, and is scaled
    back.  The confidence radius is z * stderr, and the rounding floor
    gamma_{2n} ||A||_F + (8 n^2 + n_samples) eta, derived in README.
    raw=True reports the trace tr(A) itself: mean, stderr, ci_radius,
    exact and the floor are all multiplied by n.  A reported number beyond
    float64 raises ValueError, as does a z so large that z * stderr is.
    """
    return _estimate(as_matrix(a), 0, n_samples, spec, z, raw)


def _estimate(m: np.ndarray, e: int, n_samples: int, spec: StreamSpec, z: float = 3.0,
              raw: bool = False) -> EstimateReport:
    """estimate_trace of the matrix m * 2**e."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not z > 0.0:
        raise ValueError(f"z must be > 0, got {z}")
    s, e_s = _unit_peak(m)
    e += e_s
    op = LinearOperator(s)
    n = s.shape[0]

    def values(rows: np.ndarray) -> np.ndarray:
        return _rayleigh_values(op.apply_batch(rows), rows)

    total = RunningStats()
    for _, chunk in map_chunks(values, spec, n, n_samples):
        total = merge_stats(total, stats_from_values(chunk))
    mean = _ldexp(total.mean, e, "trace estimate")
    stderr = _ldexp(total.stderr(), e, "trace estimate").real
    ci_radius = z * stderr
    exact = _ldexp(normalized_trace(s), e, "normalized trace")
    floor = _rounding_bound(2 * n, frobenius_norm(s), 8 * n * n + n_samples, e)
    if raw:
        mean, stderr, ci_radius, exact, floor = (
            f * n for f in (mean, stderr, ci_radius, exact, floor))
        if not np.isfinite([mean, stderr, exact]).all():
            raise ValueError("raw trace overflows float64; rescale the matrix")
    if not math.isfinite(ci_radius):
        raise ValueError(f"ci_radius = z * stderr is not finite at z = {z:g}; lower z")
    return EstimateReport(n, n_samples, mean, stderr, ci_radius, spec, exact, floor)


def substitution_identity_sweep(a, b, n_samples: int, spec: StreamSpec) -> Tuple[float, ...]:
    """Largest gap |<A B x, x> - <B A z, z>|, x = B* z, over sphere draws z.

    For unitary B the change of variables x = B* z turns <A B x, x> into
    <B A z, z> draw by draw, so the gap is rounding alone.  The draws are
    those of sample_unit_vectors_chunked(spec, n, n_samples), evaluated in
    row blocks on the thread pool of `sphere.map_chunks`, so no chunk of
    draws is held.  The gaps are of A / 2**e, scaled exactly to unit peak
    (linalg._unit_peak) so that none overflows, and are scaled back.
    Returns (max_gap, rho, bound) with rho = ||B* B - I||_F; raises ValueError
    when rho exceeds 1e-10 (x = B* z is then no change of variables).  The
    bound on each gap, from README, is
    (16 sqrt(n) gamma_{3n+2} + 2 n gamma_{2n} + rho) ||A||_F + 9 n^2 eta.
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if bm.shape != am.shape:
        raise ValueError(f"dimension mismatch: a is {am.shape[0]}, b is {bm.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge B gives inf or nan: both fail
        unitarity = float(np.linalg.norm(np.conj(bm).T @ bm - np.eye(bm.shape[0])))
    if not unitarity <= 1e-10:
        raise ValueError(f"b is not unitary: ||B*B - I||_F = {unitarity:.3e}")
    s, e = _unit_peak(am)
    b_conj = np.conj(bm)
    ab_t = (s @ bm).T
    ba_t = (bm @ s).T

    def gaps(z: np.ndarray) -> np.ndarray:
        # rows are draws: row z maps to row x = z conj(B), i.e. x = B* z;
        # two block-sized buffers, x and p, hold every product in turn
        x = z @ b_conj
        p = x @ ab_t
        p *= np.conj(x, out=x)
        lhs = np.sum(p, axis=1)
        np.matmul(z, ba_t, out=p)
        p *= np.conj(z, out=x)
        rhs = np.sum(p, axis=1)
        return np.abs(lhs - rhs)

    n = am.shape[0]
    max_gap = 0.0
    for _, chunk in map_chunks(gaps, spec, n, n_samples):
        max_gap = np.maximum(max_gap, np.max(chunk))
    norm = frobenius_norm(s)
    k = 16 * n**0.5 * (3 * n + 2) + 4 * n * n  # as c gamma_k <= gamma_{ck}
    bound = _rounding_bound(k, norm, 9 * n * n, e) + math.ldexp(unitarity * norm, e)
    return math.ldexp(float(max_gap), e), unitarity, bound


def commutation_estimate_check(a, b, n_samples: int, spec: StreamSpec):
    """Estimate the normalized traces of AB and BA from independent draws.

    The second estimate runs on the paired substream block at
    spec.offset(2**32) so the two never share samples.  Both reports
    carry the exact normalized trace (equal for the two products, up to
    rounding in forming them).  The products are formed from A / 2**ea and
    B / 2**eb (linalg._unit_peak), so none overflows, and the reports are
    scaled back by 2**(ea + eb).  Returns (report_ab, report_ba).
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    (sa, ea), (sb, eb) = _unit_peak(am), _unit_peak(bm)
    rep_ab = _estimate(sa @ sb, ea + eb, n_samples, spec)
    rep_ba = _estimate(sb @ sa, ea + eb, n_samples, spec.offset(CHUNK_OFFSET_PAIRED))
    return rep_ab, rep_ba
