"""Seeded sampling of uniform unit vectors on the sphere of C^n.

Randomness is counter-based.  A stream is keyed by the pair
(master_seed, stream_index), both 64-bit, fed to a Philox-4x64 bit
generator as key = master_seed * 2**64 + stream_index.  Any substream
can therefore be opened directly, in any order, on any worker, and
always yields the same draws.

Standard normals come from inverting the normal CDF: a raw 64-bit word
r maps to u = min(((r >> 11) + 0.5) * 2**-53, 1 - 2**-53), which lies in
[2**-54, 1 - 2**-53] (the half step rounds away above 2**52), then
z = ndtri(u).  One word per normal, no rejection, so the mapping from
counter position to draw is fixed for all time.

A unit vector in C^n consumes exactly 2n words: entry k is built from
words (2k, 2k+1) as (real, imag), then the vector is divided by its
Euclidean norm.  Rotation invariance of the Gaussian makes the result
uniform on the sphere.  A normal is 0 only for top 53 bits 2**52, and at
least ~1.39e-16 otherwise; a row whose 2n normals are all 0 is redrawn.

Estimators shard their draws into chunks of CHUNK_SIZE (`chunk_layout`):
sample j of a run based at stream_index b is drawn from stream
b + j // CHUNK_SIZE, at offset j % CHUNK_SIZE within it.  The layout
depends only on (master_seed, b), never on how chunks are assigned to
threads.  Offsets b + 2**32 and b + 2**48 are reserved for auxiliary
draws (paired second estimates and probe vectors), so a single run keeps
below 2**32 chunks.  `map_chunks` draws the chunks of a layout on a
thread pool, one per CPU this process may use.  Each chunk is drawn in
blocks of 512 rows into one buffer that the chunk reuses, and a row-wise
function of each block is kept, so a thread holds one block of draws,
never a whole chunk; the per-row results come back in chunk order.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "StreamSpec",
    "GaussianStream",
    "gaussian_vector",
    "gaussian_matrix",
    "sample_unit_vector",
    "sample_unit_vectors",
    "sample_unit_vectors_chunked",
    "chunk_layout",
    "map_chunks",
    "CHUNK_SIZE",
    "CHUNK_OFFSET_PAIRED",
    "CHUNK_OFFSET_PROBES",
]

CHUNK_SIZE = 4096  # draws per chunk; reports depend on it
# Reserved stream_index offsets relative to an estimate's base index.
CHUNK_OFFSET_PAIRED = 2**32
CHUNK_OFFSET_PROBES = 2**48

# Rows drawn and evaluated at a time, bounding a thread's temporaries; the
# draws are the same for any height.
_BLOCK_ROWS = 512
_U_MAX = 1.0 - 2.0**-53  # largest double below 1
_U64 = np.uint64


@dataclass(frozen=True)
class StreamSpec:
    """Serializable address of one random substream."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self):
        for label, value in (
            ("master_seed", self.master_seed),
            ("stream_index", self.stream_index),
        ):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{label} must be an integer, got {value!r}")
            if not 0 <= int(value) < 2**64:
                raise ValueError(f"{label} must be in [0, 2**64), got {value}")

    def offset(self, delta: int) -> "StreamSpec":
        """The spec `delta` substreams ahead of this one."""
        return StreamSpec(self.master_seed, self.stream_index + delta)


class GaussianStream:
    """Single consumer of one substream's N(0, 1) draws, in counter order."""

    def __init__(self, spec: StreamSpec):
        self.spec = spec
        key = (int(spec.master_seed) << 64) | int(spec.stream_index)
        self._bits = np.random.Philox(key=key)

    def raw_words(self, count: int) -> np.ndarray:
        """Next `count` raw 64-bit words (uint64)."""
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        return self._bits.random_raw(count)

    def gaussians(self, count: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Next `count` standard normals (float64), one raw word each; written
        into and returned as `out` (a 1-d float64 array of `count`) if given."""
        from scipy.special import ndtri  # deferred: costs most of the CLI's import time

        raw = self.raw_words(count)
        raw >>= _U64(11)
        if out is None:
            u = raw.astype(np.float64)
        else:
            u = out
            u[...] = raw
        u += 0.5
        u *= 2.0**-53
        np.minimum(u, _U_MAX, out=u)
        return ndtri(u, out=u)


def _complex_normals(stream: GaussianStream, *shape: int) -> np.ndarray:
    """Standard complex Gaussians of `shape`, in row-major order: entry k
    takes words (2k, 2k+1) as (real, imag)."""
    return stream.gaussians(2 * int(np.prod(shape))).view(np.complex128).reshape(shape)


def gaussian_vector(stream: GaussianStream, n: int) -> np.ndarray:
    """Standard complex Gaussian vector: entry k from words (2k, 2k+1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _complex_normals(stream, n)


def gaussian_matrix(stream: GaussianStream, n: int) -> np.ndarray:
    """n x n matrix of standard complex Gaussians, entries in row-major order."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _complex_normals(stream, n, n)


def _row_norms(z: np.ndarray) -> np.ndarray:
    # spelled out so the normalization is a reproducible formula, not a
    # library code path: sqrt of the summed squared components
    return np.sqrt(np.sum(z.real * z.real + z.imag * z.imag, axis=-1))


def _unit_rows(stream: GaussianStream, n: int, rows: int, out=None):
    """The next `rows` unit vectors of `stream` as a (rows, n) view of `out`
    (2*n*rows float64, or new), and the indices of the rows whose 2*n
    normals are all exactly zero: those are left 0, to be redrawn."""
    flat = stream.gaussians(2 * n * rows, out=out)
    x = flat.view(np.complex128).reshape(rows, n)
    norms = _row_norms(x)
    zero = np.flatnonzero(norms == 0.0)
    norms[zero] = np.inf  # 1 / inf = 0 keeps such a row 0
    # spelled out as a multiply by 1 / norm: numpy divides complex by real
    # as (re + im*0) * (1/d), (im - re*0) * (1/d), which differs from this
    # only on an entry of -0.0, and ndtri yields +0.0, never -0.0
    parts = flat.reshape(rows, 2 * n)  # a view of x
    parts *= (1.0 / norms)[:, None]
    return x, zero


def _map_rows(fn, stream: GaussianStream, n: int, count: int) -> np.ndarray:
    """fn of the sample_unit_vectors(stream, n, count) draw, _BLOCK_ROWS rows
    at a time: row r of the result is fn's row for draw r.  A row whose
    normals are all zero is passed to fn as 0; once such rows are redrawn,
    after all 2*n*count words, only their results are replaced."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    block = np.empty(2 * n * min(count, _BLOCK_ROWS))  # reused by every block
    values, zeros = None, []
    for lo in range(0, max(count, 1), _BLOCK_ROWS):  # count 0: one empty block
        hi = min(lo + _BLOCK_ROWS, count)
        x, zero = _unit_rows(stream, n, hi - lo, block[:2 * n * (hi - lo)])
        rows = fn(x)
        if values is None:
            values = np.empty((count, *rows.shape[1:]), dtype=rows.dtype)
        values[lo:hi] = rows
        zeros.append(lo + zero)
    redraw = np.concatenate(zeros)
    while redraw.size:
        x, zero = _unit_rows(stream, n, redraw.size)
        # numpy multiplies a single row through gemv, whose bits can differ
        # from the same row of a block's gemm, so fn sees at least two rows
        values[redraw] = fn(x if redraw.size > 1 else np.concatenate([x, x]))[:redraw.size]
        redraw = redraw[zero]
    return values


def _identity(x: np.ndarray) -> np.ndarray:
    return x


def sample_unit_vectors(stream: GaussianStream, n: int, count: int) -> np.ndarray:
    """Draw `count` unit vectors as the rows of a (count, n) complex array.

    Consumes exactly 2*n words per vector, plus 2*n per redraw of a row
    whose 2*n normals are all exactly zero; redraws come after all
    2*n*count words.  Each row is multiplied by 1 / sqrt(sum(re^2 + im^2))
    of its entries.
    """
    return _map_rows(_identity, stream, n, count)


def sample_unit_vector(stream: GaussianStream, n: int) -> np.ndarray:
    """Draw one unit vector from the stream."""
    return sample_unit_vectors(stream, n, 1)[0]


def chunk_layout(spec: StreamSpec, count: int):
    """Lazily, the (lo, hi, substream) of each chunk of a `count`-draw run:
    chunk c holds draws [c * CHUNK_SIZE, min((c + 1) * CHUNK_SIZE, count))
    from substream spec.offset(c).  Arguments are checked at the call."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > CHUNK_OFFSET_PAIRED * CHUNK_SIZE:
        raise ValueError(f"{count} draws would reach the reserved substream offsets")
    return (
        (lo, min(lo + CHUNK_SIZE, count), spec.offset(lo // CHUNK_SIZE))
        for lo in range(0, count, CHUNK_SIZE)
    )


def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_chunks(fn, spec: StreamSpec, n: int, count: int):
    """Lazily, (lo, values) for each chunk of chunk_layout(spec, count), in
    chunk order, where values[r] is fn's result for row r of the chunk's
    (hi - lo, n) sample_unit_vectors draw from its substream.

    fn maps a (rows, n) array of draws to one result per row, each from
    its own row alone.  It is called on blocks of 512 rows, drawn into a
    buffer the chunk reuses, and again on redrawn rows (see _map_rows),
    with numpy's overflow and invalid-value warnings off: the caller
    checks the values for inf and nan.

    Chunks run on a pool of one thread per CPU this process may use, at
    most two per thread ahead of the consumer, so fn must be thread-safe.
    With one CPU or one chunk they run serially, in the caller's thread;
    narrowing the CPU affinity (taskset -c 0, os.sched_setaffinity) gets
    that for any run.  An exception from fn is raised when its chunk's
    result is reached.
    """
    def run(chunk):
        lo, hi, substream = chunk
        with np.errstate(over="ignore", invalid="ignore"):
            return lo, _map_rows(fn, GaussianStream(substream), n, hi - lo)

    layout = chunk_layout(spec, count)
    threads = min(_cpus(), -(-count // CHUNK_SIZE))
    if threads <= 1:
        return map(run, layout)
    return _pooled(run, layout, threads)


def _pooled(fn, layout, threads: int):
    # deferred: concurrent.futures imports logging, ~3% of the CLI's start-up
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=threads) as pool:
        ahead = deque()
        for chunk in layout:
            ahead.append(pool.submit(fn, chunk))
            if len(ahead) == 2 * threads:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def sample_unit_vectors_chunked(spec: StreamSpec, n: int, count: int) -> np.ndarray:
    """Draw `count` unit vectors in the `chunk_layout` at `spec`: the exact
    sequence an estimator based at `spec` consumes, for any thread count."""
    chunks = map_chunks(_identity, spec, n, count)  # checks the arguments first
    out = np.empty((count, n), dtype=np.complex128)
    for lo, x in chunks:
        out[lo:lo + len(x)] = x
    return out
