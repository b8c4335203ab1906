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
counter position to draw is fixed for all time.  `_ndtri` loads scipy's
compiled ndtri without scipy.special's __init__: the same ufunc, same bits.

A Gaussian row in C^n consumes exactly 2n words: entry k is built from
words (2k, 2k+1) as (real, imag).  Divided by its Euclidean norm, as only
`sample_unit_vectors*` do, it is a unit vector, uniform on the sphere by
rotation invariance of the Gaussian; a Rayleigh quotient, a function of the
direction alone, takes the row as it is.  A normal is 0 only for top 53
bits 2**52, and at least ~1.39e-16 otherwise; a row of 2n zero normals
(odds 2**-106n) has no direction, and the draw raises RuntimeError.

Estimators shard their draws into chunks of CHUNK_SIZE (`chunk_layout`):
sample j of a run based at stream_index b is drawn from stream
b + j // CHUNK_SIZE, at offset j % CHUNK_SIZE within it.  The layout
depends only on (master_seed, b), never on how chunks are assigned to
threads.  Offset b + 2**48 is reserved for the seeded unitary B of
`check-invariance --random-unitary`, so a single run keeps to at most
2**48 chunks.  `map_chunks` draws the chunks of a layout on a thread
pool, one per CPU this process may use.  Each chunk is drawn in blocks of 512
Gaussian rows into one buffer that the chunk reuses, and a row-wise function of
each block is kept, so a thread holds one block of draws, never a whole chunk;
the per-row results come back in chunk order.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

__all__ = [
    "StreamSpec",
    "GaussianStream",
    "gaussian_matrix",
    "sample_unit_vectors",
    "sample_unit_vectors_chunked",
    "chunk_layout",
    "map_chunks",
    "CHUNK_SIZE",
    "CHUNK_OFFSET_PROBES",
]

CHUNK_SIZE = 4096  # draws per chunk; reports depend on it
# The reserved stream_index offset relative to an estimate's base index.
CHUNK_OFFSET_PROBES = 2**48

# Rows drawn and evaluated at a time, bounding a thread's temporaries; the
# draws are the same for any height.
_BLOCK_ROWS = 512
_U_MAX = 1.0 - 2.0**-53  # largest double below 1
_NO_DIRECTION = "the sampler drew a row of zero normals; no unit vector"
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
        raw = self.raw_words(count)
        raw >>= _U64(11)
        u = np.empty(count) if out is None else out
        u[...] = raw
        u += 0.5
        u *= 2.0**-53
        np.minimum(u, _U_MAX, out=u)
        return _ndtri()(u, out=u)


_ndtri_lock = threading.Lock()
_ndtri_ufunc = None


def _ndtri():
    """scipy.special.ndtri, loaded once per process.  Unless scipy.special is
    imported already, its extension _ufuncs is imported under a bare stand-in
    for the package, so the package's costly __init__ never runs.  The
    stand-in and the submodules imported under it then leave sys.modules:
    a later import of the package, or of a submodule by name, binds the
    submodule to the package and finds the extension module already made,
    so scipy.special.ndtri is this ufunc.  Exposed: a thread that first
    imports scipy.special during those ~25 ms gets the stand-in."""
    global _ndtri_ufunc
    with _ndtri_lock:  # pool threads make the first draws
        if _ndtri_ufunc is None and "scipy.special" not in sys.modules:
            import scipy
            stand_in = types.ModuleType("scipy.special")
            stand_in.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
            before = set(sys.modules)
            sys.modules["scipy.special"] = stand_in
            try:
                from scipy.special._ufuncs import ndtri as _ndtri_ufunc
            except ImportError:  # a scipy that moved it: the public import
                pass
            finally:  # the stand-in, and the submodules it was given
                for name in {k for k in sys.modules if k.startswith("scipy.special")} - before:
                    del sys.modules[name]
        if _ndtri_ufunc is None:
            from scipy.special import ndtri as _ndtri_ufunc
    return _ndtri_ufunc


def gaussian_matrix(stream: GaussianStream, n: int) -> np.ndarray:
    """n x n matrix of standard complex Gaussians in row-major order: entry k
    takes words (2k, 2k+1) as (real, imag)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return stream.gaussians(2 * n * n).view(np.complex128).reshape(n, n)


def _row_norms(z: np.ndarray) -> np.ndarray:
    # spelled out so the normalization is a reproducible formula, not a
    # library code path: sqrt of the summed squared components
    return np.sqrt(np.sum(z.real * z.real + z.imag * z.imag, axis=-1))


def _normalize(x: np.ndarray) -> np.ndarray:
    """The rows of the C-contiguous (rows, n) array x, each multiplied in place
    by 1 / sqrt(sum(re^2 + im^2)) of its entries; a zero row raises."""
    norms = _row_norms(x)
    if not norms.all():
        raise RuntimeError(_NO_DIRECTION)
    # spelled out as a multiply by 1 / norm: numpy divides complex by real
    # as (re + im*0) * (1/d), (im - re*0) * (1/d), which differs from this
    # only on an entry of -0.0, and ndtri yields +0.0, never -0.0
    parts = x.view(np.float64)
    parts *= (1.0 / norms)[:, None]
    return x


def _map_rows(fn, stream: GaussianStream, n: int, count: int) -> np.ndarray:
    """fn of the next `count` Gaussian rows of `stream`, _BLOCK_ROWS rows at a
    time: row r of the result is fn's row for the (n,) complex row r, taken
    from exactly its 2*n words, entry k from words (2k, 2k+1)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    block = np.empty(2 * n * min(count, _BLOCK_ROWS))  # reused by every block
    values = None
    for lo in range(0, max(count, 1), _BLOCK_ROWS):  # count 0: one empty block
        hi = min(lo + _BLOCK_ROWS, count)
        words = stream.gaussians(2 * n * (hi - lo), out=block[:2 * n * (hi - lo)])
        rows = fn(words.view(np.complex128).reshape(-1, n))
        if values is None:
            values = np.empty((count, *rows.shape[1:]), dtype=rows.dtype)
        values[lo:hi] = rows
    return values


def sample_unit_vectors(stream: GaussianStream, n: int, count: int) -> np.ndarray:
    """Draw `count` unit vectors as the rows of a (count, n) complex array.

    Consumes exactly 2*n words per vector, so any split into batches gives
    the same rows.  Each row is multiplied by 1 / sqrt(sum(re^2 + im^2)) of
    its entries; a row of 2*n zero normals raises RuntimeError.
    """
    return _map_rows(_normalize, stream, n, count)


def chunk_layout(spec: StreamSpec, count: int):
    """Lazily, the (lo, hi, substream) of each chunk of a `count`-draw run:
    chunk c holds draws [c * CHUNK_SIZE, min((c + 1) * CHUNK_SIZE, count))
    from substream spec.offset(c).  Arguments are checked at the call, the
    last chunk's stream index against 2**64 - 1 among them."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count > CHUNK_OFFSET_PROBES * CHUNK_SIZE:
        raise ValueError(f"{count} draws would reach the reserved substream offsets")
    chunks = -(-count // CHUNK_SIZE)
    if int(spec.stream_index) + chunks > 2**64:
        raise ValueError(f"a run of {chunks} chunks based at stream_index "
                         f"{spec.stream_index} passes 2**64 - 1")
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
    chunk order, where values[r] is fn's result for Gaussian row r of the
    chunk's substream: the row that sample_unit_vectors(stream, n, hi - lo)
    normalizes into its row r, and that a Rayleigh quotient takes as it is.

    fn maps a C-contiguous (rows, n) complex array of Gaussian rows to one
    result per row, each from its own row alone, and raises RuntimeError
    on a zero row where it needs a direction.  It is called once on each
    block of 512 rows, drawn from exactly 2*n words per row into a buffer
    the chunk reuses; numpy warnings from fn are not silenced.

    Chunks run on a pool of one thread per CPU this process may use, at
    most two per thread ahead of the consumer, so fn must be thread-safe.
    With one CPU or one chunk they run serially, in the caller's thread;
    narrowing the CPU affinity (taskset -c 0, os.sched_setaffinity) gets
    that for any run.  An exception from fn or from the sampler is raised
    when its chunk's result is reached.
    """
    def run(chunk):
        lo, hi, substream = chunk
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
    """Draw `count` unit vectors in the `chunk_layout` at `spec`, for any thread
    count: the Gaussian rows map_chunks at `spec` hands fn, normalized."""
    chunks = map_chunks(_normalize, spec, n, count)  # checks the arguments first
    out = np.empty((count, n), dtype=np.complex128)
    for lo, x in chunks:
        out[lo:lo + len(x)] = x
    return out
