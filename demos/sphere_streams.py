"""
Seeded unit-vector streams
==========================

Samples come from counter-based generators keyed by (master seed,
stream index), so any sample can be regenerated in isolation and
batching never changes the values.  Unit vectors are normalized
complex Gaussians; each coordinate weight |x_i|^2 averages 1/n.
"""

import numpy as np

from tracekit import (
    GaussianStream,
    StreamSpec,
    sample_unit_vectors,
    sample_unit_vectors_chunked,
)

spec = StreamSpec(master_seed=42, stream_index=0)

# same spec, same vectors, bitwise; a stream replays from its spec
x1 = sample_unit_vectors(GaussianStream(spec), 4, 3)
x2 = sample_unit_vectors(GaussianStream(spec), 4, 3)
print(f"replay is bitwise identical: {np.array_equal(x1, x2)}")

# one batch of 10 equals two batches of 5 back to back
whole = sample_unit_vectors(GaussianStream(spec), 4, 10)
stream = GaussianStream(spec)
halves = np.vstack([sample_unit_vectors(stream, 4, 5), sample_unit_vectors(stream, 4, 5)])
print(f"batch split agrees         : {np.array_equal(whole, halves)}")

# chunked draws assign sample j to stream index j // 4096, so a pool of
# threads can fill any slice independently
chunked = sample_unit_vectors_chunked(spec, 4, 10000)
tail = sample_unit_vectors_chunked(spec, 4, 10000)[9000:]
print(f"chunk layout reproducible  : {np.array_equal(chunked[9000:], tail)}")

norms = np.sqrt(np.sum(chunked.real**2 + chunked.imag**2, axis=1))
print(f"max | ||x|| - 1 |           : {np.max(np.abs(norms - 1.0)):.2e}")

# coordinate weights concentrate around 1/n
for n in (2, 4, 8):
    x = sample_unit_vectors_chunked(StreamSpec(42, 0), n, 50000)
    means = np.mean(np.abs(x) ** 2, axis=0)
    print(f"n={n}: mean coordinate weights {np.round(means, 4)} (target {1/n:.4f})")
