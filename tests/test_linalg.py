"""Validators, matrix units, traces, and the Hermitian eigensolve.

`hermitian_eigh` is LAPACK's, so its results are checked against
identities that need no eigensolver (trace and Frobenius norm of the
spectrum, reconstruction, unitarity) as well as against `eigvalsh`.
"""

import warnings

import numpy as np
import pytest

from tracekit.linalg import (
    as_matrix,
    frobenius_norm,
    hermitian_eigh,
    matrix_unit,
    normalized_trace,
)


EPS = np.finfo(np.float64).eps


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    g = crandn(rng, n, n)
    return (g + g.conj().T) / 2


class TestValidation:
    def test_as_matrix_accepts_lists_and_real(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.complex128
        assert m.shape == (2, 2)
        assert m[1, 0] == 3.0 + 0j

    def test_as_matrix_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            as_matrix(np.zeros((2, 3)))

    def test_as_matrix_rejects_wrong_ndim(self):
        with pytest.raises(ValueError, match="2-dimensional"):
            as_matrix(np.zeros(4))
        with pytest.raises(ValueError, match="2-dimensional"):
            as_matrix(np.zeros((2, 2, 2)))

    def test_as_matrix_rejects_empty(self):
        with pytest.raises(ValueError, match=">= 1"):
            as_matrix(np.zeros((0, 0)))

    def test_as_matrix_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.inf, 0], [0, 1]])
        with pytest.raises(ValueError, match="non-finite"):
            as_matrix([[np.nan * 1j, 0], [0, 1]])

    def test_as_matrix_rejects_nonnumeric(self):
        with pytest.raises(ValueError):
            as_matrix([[object(), object()], [object(), object()]])


def test_frobenius_norm_matches_numpy():
    rng = np.random.default_rng(101)
    for n in range(1, 65):
        a = crandn(rng, n, n)
        assert frobenius_norm(a) == float(np.linalg.norm(a))  # bitwise


def test_frobenius_norm_at_any_scale():
    # scaling by a power of two is exact, where np.linalg.norm's squares
    # overflow (2**600) or underflow (2**-600)
    a = crandn(np.random.default_rng(102), 5, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (600, -600):
            assert frobenius_norm(a * 2.0**k) == frobenius_norm(a) * 2.0**k
        assert frobenius_norm([5e-324]) == 5e-324
        assert frobenius_norm(np.zeros((3, 3))) == 0.0
        with pytest.raises(ValueError, match="rescale"):
            frobenius_norm(np.full((2, 2), 1e308))


def test_normalized_trace_diagonal():
    # mean of the diagonal: (1 + 2 + 3) / 3
    assert normalized_trace(np.diag([1.0, 2.0, 3.0])) == 2.0 + 0j


def test_normalized_trace_matches_numpy_trace():
    rng = np.random.default_rng(102)
    for n in (1, 3, 9):
        a = crandn(rng, n, n)
        expected = np.trace(a) / n
        assert normalized_trace(a) == pytest.approx(expected, rel=1e-15)


def test_normalized_trace_of_overflowing_sum_is_finite():
    # the sum 2e308 overflows float64, tr / n does not: the trace is taken
    # of A / 2**e and scaled back
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert normalized_trace(np.diag([1e308, 1e308])) == 1e308
        assert normalized_trace(np.diag([1e308, -1e308])) == 0j
        assert normalized_trace(np.diag([1.5e308, 0.0])) == 0.75e308 + 0j


def test_normalized_trace_cyclic_property():
    rng = np.random.default_rng(103)
    for n in (2, 5, 16):
        a = crandn(rng, n, n)
        b = crandn(rng, n, n)
        gap = abs(normalized_trace(a @ b) - normalized_trace(b @ a))
        assert gap <= 1e-12 * (np.linalg.norm(a) * np.linalg.norm(b))


class TestMatrixUnit:
    def test_entries(self):
        e = matrix_unit(0, 2, 3)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = 1.0
        assert np.array_equal(e, expected)

    def test_product_relation_exhaustive(self):
        # e_ij e_kl = delta_jk e_il, exact in floating point: the
        # product only multiplies and adds zeros and ones.
        for n in (1, 2, 3, 4):
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        for l in range(n):
                            prod = matrix_unit(i, j, n) @ matrix_unit(k, l, n)
                            expected = (
                                matrix_unit(i, l, n)
                                if j == k
                                else np.zeros((n, n), dtype=complex)
                            )
                            assert np.array_equal(prod, expected)

    def test_range_errors(self):
        with pytest.raises(ValueError, match="out of range"):
            matrix_unit(2, 0, 2)
        with pytest.raises(ValueError, match="out of range"):
            matrix_unit(0, -1, 2)
        with pytest.raises(ValueError, match=">= 1"):
            matrix_unit(0, 0, 0)


class TestHermitianEigh:
    def test_known_2x2(self):
        # char poly lambda^2 - 1 = 0 -> eigenvalues -1, 1
        w, q = hermitian_eigh([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(
            q.conj().T @ q, np.eye(2), atol=1e-12
        )
        assert q.flags.c_contiguous

    def test_diagonal_input_is_exact(self):
        w, q = hermitian_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.array_equal(w, [1.0, 2.0, 3.0])
        # basis is the permutation matching the sort
        np.testing.assert_allclose(abs(q), np.eye(3)[:, [1, 2, 0]], atol=0)

    def test_identity(self):
        w, q = hermitian_eigh(np.eye(4))
        assert np.array_equal(w, np.ones(4))
        assert np.array_equal(q, np.eye(4))

    def test_oracle_consistency_random(self):
        rng = np.random.default_rng(104)
        cases = [random_hermitian(rng, int(rng.integers(1, 41))) for _ in range(100)]
        # degenerate spectra: I + rank one, repeated eigenvalue blocks, and a
        # block-diagonal matrix whose off-diagonal blocks are exactly zero;
        # the products are Hermitian up to rounding, so their averages are passed
        v = crandn(rng, 33, 1)
        u, _ = np.linalg.qr(crandn(rng, 12, 12))
        blocks = np.zeros((13, 13), dtype=complex)
        blocks[:6, :6] = random_hermitian(rng, 6)
        blocks[6:, 6:] = random_hermitian(rng, 7)
        products = (np.eye(33) + v @ v.conj().T,
                    (u * np.repeat([-2.0, 1.0, 5.0], [3, 4, 5])) @ u.conj().T)
        cases += [(m + m.conj().T) / 2 for m in products] + [blocks]
        for h in cases:
            n = h.shape[0]
            w, q = hermitian_eigh(h)
            scale = max(1.0, np.linalg.norm(h))
            # eigenvalues against LAPACK
            np.testing.assert_allclose(
                w, np.linalg.eigvalsh(h), atol=1e-10 * scale
            )
            # the spectrum's sum and sum of squares, without an eigensolver:
            # sum(w) = Re tr H and sum(w^2) = ||H||_F^2
            fro = np.linalg.norm(h)
            assert abs(w.sum() - np.trace(h).real) <= 4 * n * EPS * fro
            assert abs(np.sum(w * w) - fro**2) <= 4 * n * EPS * fro**2
            # reconstruction and unitarity
            assert np.linalg.norm((q * w) @ q.conj().T - h) <= 1e-10 * scale
            assert np.linalg.norm(q.conj().T @ q - np.eye(n)) <= 1e-10 * n

    def test_eigenvalues_sorted(self):
        rng = np.random.default_rng(105)
        w, _ = hermitian_eigh(random_hermitian(rng, 10))
        assert np.all(np.diff(w) >= 0)

    def test_rejects_nonhermitian(self):
        # the check is exact at every scale: neither a tiny nor a huge
        # asymmetric entry passes, and none warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scale in (1e-13, 1.0, 1e100, 1e200):
                with pytest.raises(ValueError, match="not Hermitian"):
                    hermitian_eigh([[0.0, scale], [0.0, 0.0]])

    def test_huge_scale_spectrum(self):
        # ||H||_F^2 overflows float64, the spectrum does not
        h = np.array([[1e200, 2e200], [2e200, -1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, q = hermitian_eigh(h)
            np.testing.assert_allclose(w, [-np.sqrt(5) * 1e200, np.sqrt(5) * 1e200], rtol=1e-12)
            # the reconstruction residual, divided by 1e200 so no square overflows
            assert np.linalg.norm((q * (w / 1e200)) @ q.conj().T - h / 1e200) <= 1e-12

    def test_average_does_not_overflow(self):
        # (h + h*) / 2 sums 2e308 at 1e308; the average is of h / 2**e
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = hermitian_eigh([[1e308, 0.0], [0.0, 0.0]])
            assert np.array_equal(w, [0.0, 1e308])

    def test_subnormal_input_without_warning(self):
        # scaling by 2**e brings the subnormal entries to unit peak
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = hermitian_eigh(np.full((2, 2), 5e-324))
        assert np.all(np.abs(w - [0.0, 1e-323]) <= 1e-323)

    def test_solves_the_hermitian_average(self):
        # LAPACK reads one triangle, so drift in the other is refused, however
        # small; the average of both triangles is exactly Hermitian and solves
        rng = np.random.default_rng(106)
        h = random_hermitian(rng, 12)
        h = h + 1e-14 * np.triu(crandn(rng, 12, 12), 1)
        with pytest.raises(ValueError, match=r"not Hermitian.*pass \(h \+ h\*\) / 2"):
            hermitian_eigh(h)
        w, q = hermitian_eigh((h + h.conj().T) / 2)
        assert np.linalg.norm((q * w) @ q.conj().T - (h + h.conj().T) / 2) <= 1e-12
        # an imaginary part on the diagonal is no Hermitian matrix either
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigh(np.diag([1.0, 1.0 + 1e-300j]))


def test_operator_norm_matches_numpy():
    # the spectral norm max |w| that decompose_into_unitaries reads off its solve
    rng = np.random.default_rng(107)
    for n in (1, 2, 7, 16):
        h = random_hermitian(rng, n)
        w = hermitian_eigh(h)[0]
        expected = np.linalg.norm(h, 2)
        assert max(abs(w[0]), abs(w[-1])) == pytest.approx(expected, rel=1e-10)


def test_operator_norm_zero():
    assert np.array_equal(hermitian_eigh(np.zeros((3, 3)))[0], np.zeros(3))
