"""Monte Carlo estimation of the normalized trace by sphere averages.

The normalized trace of a linear operator A on C^n equals the average of
<A x, x> over the unit sphere, so drawing unit vectors uniformly and
averaging the quadratic form gives an unbiased estimator whose error
shrinks like 1/sqrt(N).

Conventions fixed here and relied on everywhere else:

- Inner products are linear in the first slot and conjugate-linear in
  the second: inner(u, v) = sum_k u[k] * conj(v[k]).
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
  regardless of thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple

import numpy as np

from .linalg import as_matrix, as_vector, normalized_trace
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
    "inner",
    "numerical_value",
    "RunningStats",
    "merge_stats",
    "stats_from_values",
    "EstimateReport",
    "estimate_trace",
    "estimate_matrix_trace",
    "substitution_identity_check",
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


def inner(u, v) -> complex:
    """<u, v> = sum_k u[k] conj(v[k]): linear in u, conjugate-linear in v."""
    a = as_vector(u, "u")
    b = as_vector(v, "v")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    re, im, _ = _split_sums(a, b)
    return complex(re) + 1j * complex(im)


def _rayleigh_values(images: np.ndarray, x: np.ndarray) -> np.ndarray:
    re, im, sq = _split_sums(images, x)
    return (re / sq) + 1j * (im / sq)


def numerical_value(op: LinearOperator, x) -> complex:
    """The Rayleigh quotient <op(x), x> / <x, x> at a nonzero vector x.

    For the identity operator this is exactly 1.0 + 0.0j whatever x is:
    the numerator and denominator sums are computed identically.
    """
    v = as_vector(x)
    if v.shape[0] != op.dim:
        raise ValueError(f"vector has dimension {v.shape[0]}, operator {op.dim}")
    sq = float(np.sum(v.real * v.real + v.imag * v.imag))
    if sq == 0.0:
        raise ValueError("numerical value undefined at the zero vector")
    return complex(_rayleigh_values(op.apply(v), v))


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

    def abs_error(self) -> Optional[float]:
        if self.exact is None:
            return None
        return abs(self.mean - self.exact)


def _check_linearity(op: LinearOperator, spec: StreamSpec) -> None:
    """Spot-check additivity and homogeneity on three random Gaussian probes."""
    stream = GaussianStream(spec.offset(CHUNK_OFFSET_PROBES))
    for k in range(3):
        u = gaussian_vector(stream, op.dim)
        v = gaussian_vector(stream, op.dim)
        g = stream.gaussians(4)
        alpha = complex(g[0], g[1])
        beta = complex(g[2], g[3])
        au = alpha * op.apply(u)
        bv = beta * op.apply(v)
        lhs = op.apply(alpha * u + beta * v)
        scale = 1.0 + float(np.linalg.norm(au)) + float(np.linalg.norm(bv))
        gap = float(np.linalg.norm(lhs - (au + bv)))
        if gap > 1e-10 * scale:
            raise ValueError(
                f"operator failed linearity probe {k}: residual {gap:.3e} "
                f"exceeds {1e-10 * scale:.3e}"
            )


def estimate_trace(
    op: LinearOperator, n_samples: int, spec: StreamSpec, *, z: float = 3.0
) -> EstimateReport:
    """Estimate the normalized trace of `op` from `n_samples` sphere draws.

    Draws follow the chunk layout of map_chunks at `spec`, and chunk
    statistics are merged left to right, so the report depends only on
    (spec, n_samples) and is bitwise identical for any thread count.  The
    confidence radius is z * stderr.

    Unless the operator is marked assume_linear, three random probes
    verify linearity first; a failed probe raises ValueError.  A
    non-finite sample value raises FloatingPointError naming the sample
    index, and a mean or stderr that overflows float64 raises ValueError.
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
    return EstimateReport(
        dim=op.dim,
        sample_count=n_samples,
        mean=total.mean,
        stderr=stderr,
        ci_radius=z * stderr,
        spec=spec,
    )


def estimate_matrix_trace(
    a, n_samples: int, spec: StreamSpec, *, z: float = 3.0, raw: bool = False
) -> EstimateReport:
    """estimate_trace of an explicit matrix, with `exact` = tr(A) / n filled in.

    raw=True reports the trace tr(A) itself: mean, stderr, ci_radius and
    exact are all multiplied by n.  A non-finite sample value raises
    ValueError: the entries are finite, so it is an overflow.
    """
    m = as_matrix(a)
    try:
        report = estimate_trace(LinearOperator.from_matrix(m), n_samples, spec, z=z)
    except FloatingPointError as exc:
        raise ValueError(f"{exc}: float64 overflow; rescale the matrix") from None
    report.exact = normalized_trace(m)
    if not raw:
        return report
    n = m.shape[0]
    return replace(
        report,
        mean=report.mean * n,
        stderr=report.stderr * n,
        ci_radius=report.ci_radius * n,
        exact=report.exact * n,
    )


def _unitary_pair(a, b):
    """(A, B, ||B* B - I||_F) for same-size A and unitary B, or ValueError:
    above 1e-10, x = B* z is no change of variables."""
    am = as_matrix(a, "a")
    bm = as_matrix(b, "b")
    if bm.shape != am.shape:
        raise ValueError(f"dimension mismatch: a is {am.shape[0]}, b is {bm.shape[0]}")
    with np.errstate(over="ignore", invalid="ignore"):  # a huge B gives inf or nan: both fail
        ures = float(np.linalg.norm(np.conj(bm).T @ bm - np.eye(bm.shape[0])))
    if not ures <= 1e-10:
        raise ValueError(f"b is not unitary: ||B*B - I||_F = {ures:.3e}")
    return am, bm, ures


def substitution_identity_check(a, b, z):
    """Evaluate both sides of the change of variables x = B* z.

    For unitary B the substitution turns <A B x, x> at x = B* z into
    <B A z, z>, sample by sample.  Returns (lhs, rhs, gap) where
    lhs = <A B x, x>, rhs = <B A z, z> and gap = |lhs - rhs|.  Raises
    ValueError when ||B* B - I||_F exceeds 1e-10, since the identity
    has no reason to hold for non-unitary B.
    """
    am, bm, _ = _unitary_pair(a, b)
    zv = as_vector(z, "z")
    if zv.shape[0] != am.shape[0]:
        raise ValueError(f"dimension mismatch: a is {am.shape[0]}, z is {zv.shape[0]}")
    x = np.conj(bm).T @ zv
    lhs = inner(am @ (bm @ x), x)
    rhs = inner(bm @ (am @ zv), zv)
    return lhs, rhs, abs(lhs - rhs)


def substitution_identity_sweep(a, b, n_samples: int, spec: StreamSpec) -> Tuple[float, float]:
    """Largest gap |<A B x, x> - <B A z, z>|, x = B* z, over sphere draws z.

    The draws are those of sample_unit_vectors_chunked(spec, n, n_samples),
    evaluated in row blocks on the thread pool of `sphere.map_chunks`, so
    no chunk of draws is held.  Returns (max_gap, ||B* B - I||_F); raises
    ValueError, as substitution_identity_check does, when B is not unitary.
    """
    am, bm, unitarity = _unitary_pair(a, b)
    b_conj = np.conj(bm)
    with np.errstate(over="ignore", invalid="ignore"):  # checked at the end
        ab_t = (am @ bm).T
        ba_t = (bm @ am).T

    def gaps(z: np.ndarray) -> np.ndarray:  # inf or nan on overflow
        # rows are draws: row z maps to row x = z conj(B), i.e. x = B* z
        x = z @ b_conj
        lhs = np.sum((x @ ab_t) * np.conj(x), axis=1)
        rhs = np.sum((z @ ba_t) * np.conj(z), axis=1)
        return np.abs(lhs - rhs)

    max_gap = 0.0
    for _, chunk in map_chunks(gaps, spec, am.shape[0], n_samples):
        max_gap = np.maximum(max_gap, np.max(chunk))  # keeps a NaN
    if not np.isfinite(max_gap):  # A and B are finite: only an overflow does this
        raise ValueError("substitution identity overflows float64; rescale the matrix")
    return float(max_gap), unitarity


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
