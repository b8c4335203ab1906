"""
Monte Carlo trace estimation from sphere averages
=================================================

The normalized trace of a matrix equals the average of the Rayleigh
quotient <Ax, x> over unit vectors x.  This script estimates that
average for a fixed 8x8 matrix, compares against the exact value, and
shows the confidence radius shrinking like 1/sqrt(N).
"""

import numpy as np

from tracekit import StreamSpec, estimate_trace, normalized_trace

rng = np.random.default_rng(2024)
n = 8
a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
exact = normalized_trace(a)
print(f"matrix size        : {n} x {n}")
print(f"exact trace / n    : {exact:.6f}")

spec = StreamSpec(master_seed=2024, stream_index=0)

# one detailed report at a moderate sample count
report = estimate_trace(a, 50000, spec)
err = abs(report.mean - exact)
print(f"estimate (N=50000) : {report.mean:.6f}")
print(f"abs error          : {err:.2e}")
print(f"stderr             : {report.stderr:.2e}")
print(f"3-sigma radius     : {report.ci_radius:.2e}")
print(f"error inside radius: {err <= report.ci_radius}")

# the radius falls like 1/sqrt(N); quadrupling N should halve it
print()
print("   N        stderr     ci radius   abs error")
for n_samples in (1000, 4000, 16000, 64000, 256000):
    r = estimate_trace(a, n_samples, spec)
    e = abs(r.mean - exact)
    print(f"{n_samples:>8}   {r.stderr:.3e}   {r.ci_radius:.3e}   {e:.3e}")
