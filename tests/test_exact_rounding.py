"""The rounding bounds of the estimate and of the sweep against exact arithmetic.

Each float is a rational number, so the mean of the exact Rayleigh quotients
<A z, z> / <z, z> of the very Gaussian rows z that `estimate_trace` draws,
and tr(A) / n, are fractions.  The report's mean and `exact` must lie within
`rounding_floor` of them together: |mean - M| + |exact - tr(A) / n| is
checked against the floor in exact arithmetic (past one chunk, with the
exact mean held in a box of exact bounds).  So is the square of the
sweep's exact gap for the float A, B and z, against the two parts of its
`bound`.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from tracekit import sphere
from tracekit.estimator import estimate_trace, substitution_identity_sweep
from tracekit.linalg import _rounding_bound, _unit_peak, frobenius_norm
from tracekit.sphere import CHUNK_OFFSET_PROBES, StreamSpec
from tracekit.unitary import decompose_into_unitaries, seeded_unitary

COUNTS = (1, 3, 16, 150)


def integers(x: np.ndarray):
    """(X, E): an object array of Python ints X with x == X * 2**E exactly."""
    mantissa, exponent = np.frexp(x)
    m = (mantissa * 2.0**53).astype(np.int64)  # exact: 53 bits
    exponent = exponent.astype(np.int64) - 53
    e = int(exponent[m != 0].min()) if m.any() else 0
    return m.astype(object) << np.where(m != 0, exponent - e, 0).astype(object), e


def quotients(a: np.ndarray, rows: np.ndarray) -> tuple:
    """(re, im, den, e): <A z, z> / <z, z> of row j is (re[j] + i im[j]) / den[j]
    * 2**e, with re, im and den object arrays of Python ints."""
    (ar, ai), e = integers(np.stack([a.real, a.imag]))
    (zr, zi), ez = integers(np.stack([rows.real, rows.imag]))
    vr = zr @ ar.T - zi @ ai.T  # the rows of A z, times 2**-(e + ez)
    vi = zi @ ar.T + zr @ ai.T
    den = (zr * zr + zi * zi).sum(axis=1)
    return (vr * zr + vi * zi).sum(axis=1), (vi * zr - vr * zi).sum(axis=1), den, e


def exact_mean(a: np.ndarray, rows: np.ndarray) -> tuple:
    """The mean of <A z, z> / <z, z> over the rows z, as (re, im) Fractions."""
    num_re, num_im, den, e = quotients(a, rows)
    top_re, top_im, bottom = total(list(zip(num_re, num_im, den)))
    scale = Fraction(2) ** e / len(rows)
    return Fraction(top_re, bottom) * scale, Fraction(top_im, bottom) * scale


def mean_corners(a: np.ndarray, rows: np.ndarray, bits: int = 128) -> list:
    """The corners of a box, exact Fractions, that holds that mean: each part of
    each quotient floored to a multiple of 2**(e - bits) and summed to S, so
    the part of the mean lies in [S, S + N] * 2**(e - bits) / N.  It skips the
    exact sum's common denominator, a million bits at N = 9000.  A side,
    2**(e - bits), is below 2**-75 of the floor, which exceeds 2**-53 |A|_F
    >= 2**(e - 53)."""
    num_re, num_im, den, e = quotients(a, rows)
    unit, count = Fraction(2) ** (e - bits) / len(rows), len(rows)
    re, im = (sum((x << bits) // d for x, d in zip(num, den)) for num in (num_re, num_im))
    return [((re + i) * unit, (im + j) * unit) for i in (0, count) for j in (0, count)]


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


def check(a: np.ndarray, n: int, count: int, spec: StreamSpec, box: bool = False) -> float:
    # with box, the largest distance to a corner of mean_corners stands in for
    # the distance to the exact mean, which it bounds (the square is convex)
    rep = estimate_trace(a, count, spec)
    rows = np.concatenate([z for _, z in sphere.map_chunks(lambda z: z, spec, n, count)])
    means = mean_corners(a, rows) if box else [exact_mean(a, rows)]
    s1 = max(square(rep.mean, m) for m in means)
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


@pytest.mark.parametrize("count", [4097, 9000])
def test_floor_bounds_the_exact_error_over_chunks(count):
    # two and three chunks, so the floor's 8 c merge terms are exercised
    cases = dict(matrices(2))
    for label in ("gaussian", "cI", "cI + small", "2**-1040 gaussian"):
        assert check(cases[label], 2, count, StreamSpec(count, 0), box=True) <= 1.0, label


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_floor_is_the_readme_formula(n):
    # gamma_k ||A||_F + (8 n^2 + N) eta, k = 13 n + min(N, 4096) + 8 c for c
    # chunks, in units of 2**e: the exact oracle above leaves room for a
    # floor ~18 times too wide, so the formula itself is pinned.  At 2**-1000
    # the first term is subnormal, and the eta term shows to the last unit
    g = np.random.default_rng(2100 + n).standard_normal((n, n)) + 0j
    for a in (g, g * 2.0**-1000):
        s, e = _unit_peak(a)
        for count in (1, 4096, 4097):
            rep = estimate_trace(a, count, StreamSpec(n, 0))
            k = 13 * n + min(count, 4096) + 8 * -(-count // 4096)
            assert rep.rounding_floor == _rounding_bound(
                k, frobenius_norm(s), 8 * n * n + count, e), (n, count, e)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_decompose_bounds_are_the_readme_formulas(n):
    # reconstruction gamma_{3 p(n) + 18 sqrt(n) + 4} ||A||_F + 20 n eta and
    # unitarity gamma_{5 p(n) + 3 sqrt(n)}, with p(n) = 64 n
    g = np.random.default_rng(2200 + n).standard_normal((n, n, 2)) @ [1, 1j]
    for a in (g, g * 2.0**600, g * 2.0**-1000):
        s, e = _unit_peak(a)
        dec = decompose_into_unitaries(a)
        assert dec.reconstruction_bound == _rounding_bound(
            3 * 64 * n + 18 * n**0.5 + 4, frobenius_norm(s), 20 * n, e)
        assert dec.unitarity_bound == _rounding_bound(5 * 64 * n + 3 * n**0.5, 1.0, 0)


def product(p: tuple, q: tuple) -> tuple:
    """p @ q for complex integer arrays held as (re, im) pairs."""
    return p[0] @ q[0] - p[1] @ q[1], p[0] @ q[1] + p[1] @ q[0]


def quotient(m: tuple, w: tuple) -> tuple:
    """<v, w> as (re, im) and <w, w>, for the row w and v = w @ m.T."""
    v = product(w, (m[0].T, m[1].T))
    return ((v[0] * w[0] + v[1] * w[1]).sum(), (v[1] * w[0] - v[0] * w[1]).sum(),
            (w[0] * w[0] + w[1] * w[1]).sum())


def exact_gap(a: np.ndarray, b: np.ndarray, z: np.ndarray) -> Fraction:
    """|<A B x, x> / <x, x> - <B A z, z> / <z, z>|^2 at x = B* z, for the row z."""
    (ar, ai), ea = integers(np.stack([a.real, a.imag]))
    (br, bi), eb = integers(np.stack([b.real, b.imag]))
    (zr, zi), _ = integers(np.stack([z.real, z.imag]))  # its scale cancels in each quotient
    am, bm, zm = (ar, ai), (br, bi), (zr[None], zi[None])
    x = product(zm, (br, -bi))  # rows: x = z conj(B), i.e. x = B* z
    left_re, left_im, left = quotient(product(am, bm), x)
    right_re, right_im, right = quotient(product(bm, am), zm)
    re = left_re * right - right_re * left  # both quotients are times 2**-(ea + eb)
    im = left_im * right - right_im * left
    return Fraction(re * re + im * im, (left * right) ** 2) * Fraction(2) ** (2 * (ea + eb))


def bound_parts(a: np.ndarray, rho: float) -> tuple:
    """(rounding part, rho part, e) of the sweep's bound, as README derives them:
    gamma_{12 n^1.5 + 24 n + 8} ||A||_F + 2 eta, and 2 r sqrt(1 + r) / (1 - r) ||A||_F
    with r = rho + 2 n gamma_{2n}.  The rho part is in units of 2**e, before
    the ldexp that scales it back into the bound."""
    s, e = _unit_peak(a)
    n = s.shape[0]
    norm = frobenius_norm(s)
    r = rho + 2 * n * _rounding_bound(2 * n, 1.0, 0)
    rho_part = 2 * r * math.sqrt(1 + r) / (1 - r) * norm
    return _rounding_bound(12 * n**1.5 + 24 * n + 8, norm, 2, e), rho_part, e


def unitaries(n: int, seed: int):
    """(label, B): the seeded unitary of check-invariance, and a QR factor."""
    yield "seeded", seeded_unitary(StreamSpec(seed, CHUNK_OFFSET_PROBES), n)
    rng = np.random.default_rng(seed)
    yield "qr", np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def check_sweep(a: np.ndarray, b: np.ndarray, spec: StreamSpec) -> tuple:
    n = a.shape[0]
    gap, rho, bound = substitution_identity_sweep(a, b, 1, spec)  # max_gap is one draw's gap
    (_, z), = sphere.map_chunks(lambda rows: rows, spec, n, 1)
    g2 = exact_gap(a, b, z[0])
    rounding, rho_part, e = bound_parts(a, rho)
    assert bound == rounding + math.ldexp(rho_part, e)
    c, r, p = Fraction(gap), Fraction(rounding), Fraction(rho_part) * Fraction(2) ** e
    # |gap - G| <= r with G = sqrt(g2): G <= gap + r, and G >= gap - r where that is positive
    assert g2 <= (c + r) ** 2 and (c <= r or g2 >= (c - r) ** 2), (n, gap, rounding)
    assert g2 <= p * p, (n, rho, rho_part)
    return abs(float(c / r) - float(g2 / (r * r)) ** 0.5), float(g2 / (p * p)) ** 0.5


@pytest.mark.parametrize("n", [2, 4, 8])
def test_sweep_bound_covers_the_exact_gap(n):
    # 10 matrices x 2 unitaries x 4 seeds at each n: 240 cases in all, one draw each
    checked = 0
    for label, a in matrices(n):
        for seed in range(4):
            for kind, b in unitaries(n, 50 * n + seed):
                ratios = check_sweep(a, b, StreamSpec(seed, 0))
                assert max(ratios) <= 1.0, (label, kind, seed, ratios)
                checked += 1
    assert checked == 80
