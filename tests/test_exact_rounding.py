"""The estimate's rounding floor against exact arithmetic.

Each float is a rational number, so the mean of the exact Rayleigh quotients
<A z, z> / <z, z> of the very Gaussian rows z that `estimate_trace` draws,
and tr(A) / n, are fractions.  The report's mean and `exact` must lie within
`rounding_floor` of them together: |mean - M| + |exact - tr(A) / n| is
checked against the floor in exact arithmetic.
"""

from fractions import Fraction

import numpy as np
import pytest

from tracekit import sphere
from tracekit.estimator import estimate_trace
from tracekit.sphere import StreamSpec

COUNTS = (1, 3, 16, 150)


def integers(x: np.ndarray):
    """(X, E): an object array of Python ints X with x == X * 2**E exactly."""
    mantissa, exponent = np.frexp(x)
    m = (mantissa * 2.0**53).astype(np.int64)  # exact: 53 bits
    exponent = exponent.astype(np.int64) - 53
    e = int(exponent[m != 0].min()) if m.any() else 0
    return m.astype(object) << np.where(m != 0, exponent - e, 0).astype(object), e


def exact_mean(a: np.ndarray, rows: np.ndarray) -> tuple:
    """The mean of <A z, z> / <z, z> over the rows z, as (re, im) Fractions."""
    (ar, ai), e = integers(np.stack([a.real, a.imag]))
    (zr, zi), ez = integers(np.stack([rows.real, rows.imag]))
    vr = zr @ ar.T - zi @ ai.T  # the rows of A z, times 2**-(e + ez)
    vi = zi @ ar.T + zr @ ai.T
    num_re = (vr * zr + vi * zi).sum(axis=1)
    num_im = (vi * zr - vr * zi).sum(axis=1)
    den = (zr * zr + zi * zi).sum(axis=1)
    top_re, top_im, bottom = total(list(zip(num_re, num_im, den)))
    scale = Fraction(2) ** e / len(rows)
    return Fraction(top_re, bottom) * scale, Fraction(top_im, bottom) * scale


def total(terms: list) -> tuple:
    """sum of (re + i im) / d over the terms (re, im, d), as one (re, im, d), by
    halves so that the products stay balanced and no gcd is taken."""
    if len(terms) == 1:
        return terms[0]
    (r1, i1, d1), (r2, i2, d2) = total(terms[:len(terms) // 2]), total(terms[len(terms) // 2:])
    return r1 * d2 + r2 * d1, i1 * d2 + i2 * d1, d1 * d2


def exact_trace(a: np.ndarray) -> tuple:
    n = a.shape[0]
    return (sum(map(Fraction, np.diag(a).real)) / n, sum(map(Fraction, np.diag(a).imag)) / n)


def square(x: complex, y: tuple) -> Fraction:
    """|x - y|^2 for a float complex x and an exact (re, im) pair y."""
    return (Fraction(x.real) - y[0]) ** 2 + (Fraction(x.imag) - y[1]) ** 2


def within(s1: Fraction, s2: Fraction, bound: Fraction) -> bool:
    """sqrt(s1) + sqrt(s2) <= bound, exactly: sqrt(s1) <= bound - sqrt(s2), squared."""
    rest = bound * bound + s2 - s1  # must reach 2 bound sqrt(s2)
    return s2 <= bound * bound and rest >= 0 and 4 * bound * bound * s2 <= rest * rest


def matrices(n: int):
    """(label, A) pairs: generic, cancelling, wide-range and rescaled inputs."""
    rng = np.random.default_rng(1900 + n)

    def gaussian():
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    g = gaussian()
    yield "gaussian", g
    yield "hermitian", (g + g.conj().T) / 2
    yield "cI", (3 - 1j) * np.eye(n)
    yield "cI + small", (3 - 1j) * np.eye(n) + 1e-12 * gaussian()
    yield "1e3 I + gaussian", 1e3 * np.eye(n) + gaussian()
    yield "diag(1, 1e-9, ...)", np.diag(10.0 ** (-9.0 * np.arange(n))) + 0j
    yield "trace 0", np.triu(gaussian(), 1)
    for k in (-1040, -300, 500):
        yield f"2**{k} gaussian", gaussian() * 2.0**k


def check(a: np.ndarray, n: int, count: int, spec: StreamSpec) -> float:
    rep = estimate_trace(a, count, spec)
    rows = np.concatenate([z for _, z in sphere.map_chunks(lambda z: z, spec, n, count)])
    s1 = square(rep.mean, exact_mean(a, rows))
    s2 = square(rep.exact, exact_trace(a))
    floor = Fraction(rep.rounding_floor)
    assert within(s1, s2, floor), (n, count, rep)
    return float(s1 / floor**2) ** 0.5 + float(s2 / floor**2) ** 0.5  # the error over the floor


@pytest.mark.parametrize("n", [2, 4, 8])
def test_floor_bounds_the_exact_error(n):
    # 10 matrices x 4 counts x 2 seeds at each n: 240 cases in all
    checked = 0
    for label, a in matrices(n):
        for count in COUNTS:
            for seed in (n * 1000 + count, 77):
                assert check(a, n, count, StreamSpec(seed, 0)) <= 1.0, (label, count, seed)
                checked += 1
    assert checked == 80
