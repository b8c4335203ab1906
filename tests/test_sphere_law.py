"""The sphere's law, not only its moments: for x uniform on the unit sphere of
C^n and a unit q, |<x, q>|^2 ~ Beta(1, n - 1), F(t) = 1 - (1 - t)^(n - 1).

The |z_k|^2 of a standard complex Gaussian row z are i.i.d. Exp(1), so
(|x_k|^2) of x = z / ||z|| is uniform on the simplex, and a unitary change
of basis takes any unit q to e_1.  Each case compares the empirical CDF of
N draws with F by the Dvoretzky-Kiefer-Wolfowitz inequality with Massart's
constant: P(sup |F_N - F| > eps) <= 2 exp(-2 N eps^2) at every N, so at
eps = sqrt(ln(2 / delta) / (2 N)) a correct sampler fails a case with
probability at most delta = 1e-9.  The law is tested on both paths that
take draws: the Rayleigh quotients the estimator averages, of the Gaussian
rows map_chunks hands it, and the normalised rows `sample` writes.
"""

import math

import numpy as np
import pytest

from tracekit.estimator import _quotients
from tracekit.sphere import StreamSpec, _normalize, map_chunks

N = 20000
DELTA = 1e-9
EPS = math.sqrt(math.log(2 / DELTA) / (2 * N))  # 0.0231


def _unit(n, basis):
    """e_1, or a fixed unit vector off the basis."""
    q = np.eye(n, dtype=complex)[0] if basis else np.arange(1, n + 1) + 1j * np.cos(np.arange(n))
    return q / np.linalg.norm(q)


def _estimator_values(n, q, seed):
    """<S z, z> / <z, z> with S = q q*, over the Gaussian rows of N draws."""
    s = np.outer(q, q.conj())
    chunks = map_chunks(lambda rows: _quotients(rows @ s.T, rows), StreamSpec(seed, 0), n, N)
    # <Sz, z> = |<z, q>|^2 is real; off the basis its imaginary part is rounding
    return np.concatenate([v for _, v in chunks]).real


def _sample_values(n, q, seed):
    """|<x, q>|^2 over the normalised rows x of N draws."""
    rows = np.concatenate([x for _, x in map_chunks(_normalize, StreamSpec(seed, 0), n, N)])
    return np.abs(rows @ q.conj()) ** 2


def ks_distance(values, n):
    """sup |F_N - F| of the values against Beta(1, n - 1)."""
    t = np.sort(values)
    f = 1 - (1 - t) ** (n - 1)
    k = np.arange(1, t.size + 1)
    return max(np.max(k / t.size - f), np.max(f - (k - 1) / t.size))


@pytest.mark.parametrize("path", [_estimator_values, _sample_values],
                         ids=["estimator", "sample"])
@pytest.mark.parametrize("basis", [True, False], ids=["e1", "off-basis"])
@pytest.mark.parametrize("n", [2, 8, 64])
def test_projection_is_beta_1_n_minus_1(n, basis, path):
    values = path(n, _unit(n, basis), seed=n)
    assert values.size == N
    d = ks_distance(values, n)
    assert d <= EPS, (f"D = {d:.4f} > {EPS:.4f}: a correct sampler gets here with "
                      f"probability at most {DELTA:g} (DKW-Massart)")
