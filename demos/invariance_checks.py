"""
Invariance checks on the sphere-average estimator
=================================================

The normalized trace is pinned down by f(I) = 1 and f(AB) = f(BA).
For unitary B the change of variables x = B*z turns <ABx, x> into
<BAz, z>, the unitary invariance of the sphere average that gives
tr(AB) = tr(BA), so both evaluations must agree draw by draw, at
rounding scale.  For any A and B, estimates of tr(AB)/n and tr(BA)/n
from disjoint substreams must each lie within radius + rounding_floor
of their exact value, and so within the sum of the two of each other.
"""

import numpy as np

from tracekit import StreamSpec, decompose_into_unitaries, estimate_trace
from tracekit.estimator import substitution_identity_sweep

rng = np.random.default_rng(3)
n = 6
a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

# build a unitary from the decomposition of a Hermitian matrix, which
# scales it to a contraction by its own norm ||H||
g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
h = (g + g.conj().T) / 2
b = decompose_into_unitaries(h).unitaries[0]
print(f"||B*B - I||_F = {np.linalg.norm(b.conj().T @ b - np.eye(n)):.2e}")

# draw-by-draw substitution identity: gap |<ABx, x>/<x, x> - <BAz, z>/<z, z>| at x = B*z,
# first one draw per substream, then the largest gap over a longer sweep
for k in range(5):
    gap, _, _ = substitution_identity_sweep(a, b, 1, StreamSpec(master_seed=3, stream_index=k))
    print(f"draw {k}: gap {gap:.1e}")
worst, _, bound = substitution_identity_sweep(
    a, b, 10000, StreamSpec(master_seed=3, stream_index=5))
print(f"worst gap over 10000 draws: {worst:.2e}  (rounding bound {bound:.2e})")

# estimates of tr(AB)/n and tr(BA)/n on disjoint substreams
spec = StreamSpec(master_seed=3, stream_index=100)
first = estimate_trace(a @ b, 40000, spec)
second = estimate_trace(b @ a, 40000, spec.offset(2**32))
diff = abs(first.mean - second.mean)
allowed = first.radius + first.rounding_floor + second.radius + second.rounding_floor
print()
print(f"estimate of tr(AB)/n: {first.mean:+.6f}  (exact {first.exact:+.6f})")
print(f"estimate of tr(BA)/n: {second.mean:+.6f}  (exact {second.exact:+.6f})")
print(f"difference {diff:.2e} within {allowed:.2e}: {diff <= allowed}")
