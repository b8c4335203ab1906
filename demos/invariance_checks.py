"""
Invariance checks on the sphere-average estimator
=================================================

Two consistency certificates back the estimator.  First, for unitary
B the substitution x -> Bx turns <ABx, Bx> into <B*ABx, x>, so both
evaluations must agree draw by draw, at rounding scale.  Second,
estimates of tr(AB)/n and tr(BA)/n from independent streams must
agree within combined confidence radii.
"""

import numpy as np

from tracekit import (
    StreamSpec,
    commutation_estimate_check,
    decompose_into_unitaries,
    sample_unit_vector,
    spawn_stream,
    substitution_identity_check,
)

rng = np.random.default_rng(3)
n = 6
a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

# build a unitary from the decomposition of a Hermitian matrix, which
# rescales it to a contraction by max(||H||, 1) itself
g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
h = (g + g.conj().T) / 2
b = decompose_into_unitaries(h).unitaries[0]
print(f"||B*B - I||_F = {np.linalg.norm(b.conj().T @ b - np.eye(n)):.2e}")

# draw-by-draw substitution identity
worst = 0.0
for k in range(5):
    z = sample_unit_vector(spawn_stream(StreamSpec(master_seed=3, stream_index=k)), n)
    lhs, rhs, gap = substitution_identity_check(a, b, z)
    worst = max(worst, gap)
    print(f"draw {k}: <A(Bz), Bz> = {lhs:+.6f}   <(B*AB)z, z> = {rhs:+.6f}   gap {gap:.1e}")
print(f"worst gap: {worst:.2e}  (bound 1e-10 * (1 + ||A||_F) = {1e-10 * (1 + np.linalg.norm(a)):.2e})")

# statistical agreement of tr(AB)/n and tr(BA)/n
first, second = commutation_estimate_check(
    a, b, 40000, StreamSpec(master_seed=3, stream_index=100)
)
diff = abs(first.mean - second.mean)
print()
print(f"estimate of tr(AB)/n: {first.mean:+.6f}  (exact {first.exact:+.6f})")
print(f"estimate of tr(BA)/n: {second.mean:+.6f}  (exact {second.exact:+.6f})")
print(f"difference {diff:.2e} within combined radius: {diff <= first.ci_radius + second.ci_radius}")
