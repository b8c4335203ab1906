"""Monte Carlo estimation of the normalized trace by sphere averages.

The normalized trace of a linear operator A on C^n equals the average of
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
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .linalg import (_ldexp, _rounding_bound, _unit_peak, as_matrix, frobenius_norm,
                     normalized_trace)
from .sphere import (
    CHUNK_OFFSET_PAIRED,
    CHUNK_OFFSET_PROBES,
    GaussianStream,
    StreamSpec,
    gaussian_vector,
    map_chunks,
)

__all__ = [
    "LinearOperator",
    "RunningStats",
    "merge_stats",
    "stats_from_values",
    "EstimateReport",
    "estimate_trace",
    "estimate_matrix_trace",
    "substitution_identity_sweep",
    "commutation_estimate_check",
]


class LinearOperator:
    """A linear map on C^n given by a callable, with an optional batch form.

    `apply` takes and returns a vector of shape (n,).  `apply_batch`,
    if provided, maps a (m, n) array of row vectors to the (m, n) array
    of images; otherwise rows are applied one at a time.  Operators
    built from explicit matrices use matrix multiplication for both.
    Estimators call apply_batch (and so apply, when no batch form is
    given) on row blocks of each chunk, from several threads at once, so
    both must be thread-safe.

    `assume_linear=True` marks the map as linear by construction, which
    lets estimators skip the random linearity probes.
    """

    def __init__(
        self,
        dim: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_batch: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        assume_linear: bool = False,
    ):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = int(dim)
        self._apply = apply
        self._apply_batch = apply_batch
        self.assume_linear = bool(assume_linear)

    @classmethod
    def from_matrix(cls, a) -> "LinearOperator":
        m = as_matrix(a)
        return cls(
            m.shape[0],
            apply=lambda v: m @ v,
            apply_batch=lambda x: x @ m.T,  # row v -> (m @ v) as a row
            assume_linear=True,
        )

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = np.asarray(self._apply(v), dtype=np.complex128)
        if out.shape != (self.dim,):
            raise ValueError(
                f"apply returned shape {out.shape}, expected ({self.dim},)"
            )
        return out

    def apply_batch(self, x: np.ndarray) -> np.ndarray:
        if self._apply_batch is not None:
            out = np.asarray(self._apply_batch(x), dtype=np.complex128)
        else:
            out = np.stack([self.apply(row) for row in x])
        if out.shape != x.shape:
            raise ValueError(
                f"apply_batch returned shape {out.shape}, expected {x.shape}"
            )
        return out


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
    exact: Optional[complex] = None
    rounding_floor: float = 0.0  # the most rounding can make of abs_error()

    def abs_error(self) -> Optional[float]:
        if self.exact is None:
            return None
        return abs(self.mean - self.exact)


def _check_linearity(op: LinearOperator, spec: StreamSpec) -> None:
    """Spot-check additivity and homogeneity of apply_batch, the callable the
    estimator evaluates, on three random Gaussian probes."""
    stream = GaussianStream(spec.offset(CHUNK_OFFSET_PROBES))
    for k in range(3):
        u = gaussian_vector(stream, op.dim)
        v = gaussian_vector(stream, op.dim)
        g = stream.gaussians(4)
        alpha = complex(g[0], g[1])
        beta = complex(g[2], g[3])
        image_u, image_v, lhs = op.apply_batch(np.stack([u, v, alpha * u + beta * v]))
        # in units of 2**e, so no norm overflows: relative to the images,
        # plus the underflows of subnormal images (README)
        s, e = _unit_peak(np.stack([alpha * image_u, beta * image_v, lhs]))
        gap, nu, nv = (float(np.linalg.norm(x)) for x in (s[2] - (s[0] + s[1]), s[0], s[1]))
        underflows = (1.0 + abs(alpha) + abs(beta)) * 4 * op.dim**2
        tol = 1e-10 * (nu + nv) + math.ldexp(underflows, -1074 - e)
        if gap > tol:
            raise ValueError(f"operator failed linearity probe {k}: residual {gap:.3e} "
                             f"exceeds {tol:.3e}, in units of 2**{e}")


def estimate_trace(
    op: LinearOperator, n_samples: int, spec: StreamSpec, *, z: float = 3.0
) -> EstimateReport:
    """Estimate the normalized trace of `op` from `n_samples` sphere draws.

    Draws follow the chunk layout of map_chunks at `spec`, and chunk
    statistics are merged left to right, so the report depends only on
    (spec, n_samples) and is bitwise identical for any number of pool
    threads; the BLAS kernel and thread count can change its last bits.
    The confidence radius is z * stderr.

    Unless the operator is marked assume_linear, three random probes
    verify linearity first; a failed probe raises ValueError.  A
    non-finite sample value raises FloatingPointError naming the sample
    index, and a mean or stderr that overflows float64 raises ValueError,
    as does a z so large that z * stderr does.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not z > 0.0:
        raise ValueError(f"z must be > 0, got {z}")

    def values(rows: np.ndarray) -> np.ndarray:  # inf or nan on overflow
        return _rayleigh_values(op.apply_batch(rows), rows)

    # checks the layout now; no chunk starts before the loop below
    chunks = map_chunks(values, spec, op.dim, n_samples)
    if not op.assume_linear:
        _check_linearity(op, spec)
    total = RunningStats()
    for lo, chunk in chunks:
        finite = np.isfinite(chunk)
        if not np.all(finite):
            j = lo + int(np.argmin(finite))
            raise FloatingPointError(f"non-finite numerical value at sample {j}")
        total = merge_stats(total, stats_from_values(chunk))

    stderr = total.stderr()
    if not np.isfinite([total.mean, stderr]).all():
        raise ValueError("sample statistics overflow float64; rescale the matrix")
    ci_radius = z * stderr
    if not math.isfinite(ci_radius):
        raise ValueError(f"ci_radius = z * stderr is not finite at z = {z:g}; lower z")
    return EstimateReport(
        dim=op.dim,
        sample_count=n_samples,
        mean=total.mean,
        stderr=stderr,
        ci_radius=ci_radius,
        spec=spec,
    )


def estimate_matrix_trace(
    a, n_samples: int, spec: StreamSpec, *, z: float = 3.0, raw: bool = False
) -> EstimateReport:
    """estimate_trace of an explicit matrix, with `exact` = tr(A) / n filled in.

    The estimate is of A / 2**e, scaled exactly to unit peak
    (linalg._unit_peak) so that no sample value overflows, and is scaled
    back.  Its rounding floor is gamma_{2n} ||A||_F + (8 n^2 + n_samples) eta,
    derived in README.  raw=True reports the trace tr(A) itself: mean,
    stderr, ci_radius, exact and the floor are all multiplied by n.  A
    reported number beyond float64 raises ValueError.
    """
    m = as_matrix(a)
    n = m.shape[0]
    s, e = _unit_peak(m)
    scaled = estimate_trace(LinearOperator.from_matrix(s), n_samples, spec, z=z)
    stderr = _ldexp(scaled.stderr, e, "trace estimate").real
    floor = _rounding_bound(2 * n, frobenius_norm(s), 8 * n * n + n_samples, e)
    report = replace(scaled, mean=_ldexp(scaled.mean, e, "trace estimate"), stderr=stderr,
                     ci_radius=z * stderr, exact=normalized_trace(m), rounding_floor=floor)
    if raw:
        report = replace(report, mean=report.mean * n, stderr=stderr * n, exact=report.exact * n,
                         ci_radius=report.ci_radius * n, rounding_floor=floor * n)
        if not np.isfinite([report.mean, report.stderr, report.exact]).all():
            raise ValueError("raw trace overflows float64; rescale the matrix")
    if not math.isfinite(report.ci_radius):
        raise ValueError(f"ci_radius = z * stderr is not finite at z = {z:g}; lower z")
    return report


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
        # rows are draws: row z maps to row x = z conj(B), i.e. x = B* z
        x = z @ b_conj
        lhs = np.sum((x @ ab_t) * np.conj(x), axis=1)
        rhs = np.sum((z @ ba_t) * np.conj(z), axis=1)
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
    rounding in forming them).  Returns (report_ab, report_ba).
    """
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if am.shape != bm.shape:
        raise ValueError(f"shape mismatch: {am.shape} vs {bm.shape}")
    rep_ab = estimate_matrix_trace(am @ bm, n_samples, spec)
    rep_ba = estimate_matrix_trace(bm @ am, n_samples, spec.offset(CHUNK_OFFSET_PAIRED))
    return rep_ab, rep_ba
