"""Unitary decompositions, the contraction-to-unitary map, determinants."""

import json

import numpy as np
import pytest

from tracekit import unitary
from tracekit.cli import main
from tracekit.formats import write_matrix_market
from tracekit.linalg import hermitian_eigh
from tracekit.sphere import GaussianStream, StreamSpec, gaussian_matrix
from tracekit.unitary import (
    decompose_into_unitaries,
    determinant,
    hermitian_parts,
    rephase_to_det_one,
    seeded_unitary,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, n):
    g = crandn(rng, n, n)
    return (g + g.conj().T) / 2


def operator_norm(h):
    """Largest |eigenvalue| of a Hermitian h, as decompose_into_unitaries
    takes it from its own solve of h."""
    w = hermitian_eigh(h)[0]
    return max(abs(w[0]), abs(w[-1]))


def pairs(value) -> np.ndarray:
    """A JSON [re, im] pair, or nested pairs, as complex128, -0.0 kept."""
    return np.array(value).view(np.complex128)[..., 0]


def random_contraction(rng, n):
    h = random_hermitian(rng, n)
    return h / (operator_norm(h) * (1.0 + rng.uniform(0.0, 1.0)))


class TestHermitianParts:
    def test_hermitian_input(self):
        rng = np.random.default_rng(300)
        h = random_hermitian(rng, 5)
        h1, h2 = hermitian_parts(h)
        np.testing.assert_allclose(h1, h, atol=1e-15)
        np.testing.assert_allclose(h2, 0, atol=1e-15)

    def test_skew_input(self):
        h1, h2 = hermitian_parts(1j * np.eye(3))
        assert np.array_equal(h1, np.zeros((3, 3)))
        assert np.array_equal(h2, np.eye(3))

    def test_nilpotent_2x2(self):
        # direct 2x2 computation: [[0,1],[0,0]] = H1 + i H2 with
        # H1 = [[0,.5],[.5,0]] and H2 = [[0,-.5j],[.5j,0]]
        h1, h2 = hermitian_parts([[0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(h1, np.array([[0.0, 0.5], [0.5, 0.0]]))
        assert np.array_equal(h2, np.array([[0.0, -0.5j], [0.5j, 0.0]]))

    def test_parts_are_exactly_hermitian(self):
        rng = np.random.default_rng(301)
        a = crandn(rng, 7, 7)
        h1, h2 = hermitian_parts(a)
        assert np.array_equal(h1, h1.conj().T)
        assert np.array_equal(h2, h2.conj().T)

    def test_recombination(self):
        rng = np.random.default_rng(302)
        a = crandn(rng, 6, 6)
        h1, h2 = hermitian_parts(a)
        np.testing.assert_allclose(
            h1 + 1j * h2, a, atol=1e-14 * np.linalg.norm(a)
        )


class TestContractionToUnitary:
    """U = C - i (I - C^2)^(1/2) of the contraction C = H / ||H|| of a
    Hermitian H, the first term of its decomposition (||H|| / 2) (U + U*)."""

    def test_identity_stays_identity(self):
        u = decompose_into_unitaries(np.eye(4)).unitaries[0]
        np.testing.assert_allclose(u, np.eye(4), atol=1e-12)

    def test_known_diagonal(self):
        # eigenvalue map lambda -> lambda - i sqrt(1 - lambda^2):
        # 1 -> 1, 0 -> -i, -1 -> -1
        u = decompose_into_unitaries(np.diag([1.0, 0.0, -1.0])).unitaries[0]
        np.testing.assert_allclose(u, np.diag([1.0, -1j, -1.0]), atol=1e-12)

    def test_flip_matrix_maps_to_itself(self):
        # eigenvalues +-1 (char poly lambda^2 - 1) kill the square root.
        # rounding puts computed eigenvalues within ~1e-16 of +-1, and
        # sqrt(1 - lambda^2) amplifies that to ~1e-8, so the tolerance
        # here is sqrt-of-eigensolver, not eigensolver, sized
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = decompose_into_unitaries(h).unitaries[0]
        np.testing.assert_allclose(u, h, atol=1e-7)
        np.testing.assert_allclose((u + u.conj().T) / 2, h, atol=1e-12)

    def test_unitarity_and_real_part(self):
        rng = np.random.default_rng(303)
        for n in (1, 3, 6, 12):
            h = random_contraction(rng, n)
            u = decompose_into_unitaries(h).unitaries[0]
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-10 * n
            c = h / operator_norm(h)
            assert np.linalg.norm((u + u.conj().T) / 2 - c) <= 1e-10 * max(1.0, np.linalg.norm(c))

    def test_edge_eigenvalue_clamping(self):
        # operator norm can land on 1 + few ulps after scaling; the
        # square root argument must clamp instead of going negative
        rng = np.random.default_rng(304)
        h = random_hermitian(rng, 5)
        h = h / operator_norm(h)
        u = decompose_into_unitaries(h).unitaries[0]
        assert np.all(np.isfinite(u.view(np.float64)))


class TestDecompose:
    def test_zero_matrix(self):
        dec = decompose_into_unitaries(np.zeros((4, 4)))
        assert dec.coefficients == [0j]
        assert np.array_equal(dec.unitaries[0], np.eye(4))
        assert dec.reconstruction_residual == 0.0

    def test_hermitian_contraction_two_half_terms(self):
        # a contraction is scaled by its own norm like any other part
        rng = np.random.default_rng(305)
        h = random_contraction(rng, 5)
        dec = decompose_into_unitaries(h)
        assert dec.coefficients == [operator_norm(h) / 2.0 + 0j] * 2
        assert np.array_equal(dec.unitaries[1], dec.unitaries[0].conj().T)

    def test_skew_part_coefficients_imaginary(self):
        rng = np.random.default_rng(306)
        h = random_hermitian(rng, 4)
        dec = decompose_into_unitaries(1j * h)
        assert len(dec.coefficients) == 2
        for c in dec.coefficients:
            assert c.real == 0.0 and c.imag > 0.0

    def test_nilpotent_needs_four_terms(self):
        dec = decompose_into_unitaries([[0.0, 1.0], [0.0, 0.0]])
        assert len(dec.coefficients) == 4
        assert dec.reconstruction_residual <= 1e-10

    def test_large_hermitian_is_rescaled(self):
        rng = np.random.default_rng(307)
        h = 5.0 * random_hermitian(rng, 4)
        norm = operator_norm(h)
        assert norm > 1.0
        dec = decompose_into_unitaries(h)
        assert len(dec.coefficients) == 2
        assert dec.coefficients[0] == pytest.approx(norm / 2.0, rel=1e-12)

    def test_coefficient_beyond_float64_raises(self):
        # the parts and the solves are of A / 2**e; ||H|| / 2 = 2e308 itself is no float64
        with pytest.raises(ValueError, match="coefficient .* overflows float64; rescale"):
            decompose_into_unitaries(np.full((4, 4), 1e308))

    def test_random_matrices_meet_contract(self):
        rng = np.random.default_rng(308)
        for trial in range(30):
            n = int(rng.integers(2, 13))
            a = crandn(rng, n, n)
            dec = decompose_into_unitaries(a)
            assert 1 <= len(dec.coefficients) <= 4
            assert len(dec.coefficients) == len(dec.unitaries)
            scale = max(1.0, np.linalg.norm(a))
            assert dec.reconstruction_residual <= 1e-10 * scale
            assert dec.unitarity_residual <= 1e-10 * n
            np.testing.assert_allclose(
                dec.reconstruct(), a, atol=1e-10 * scale
            )


    def test_det_one_rephases_terms_and_residuals(self, capsys, tmp_path):
        # README's recipe: rephase_to_det_one of each term read from the
        # `decompose` report is bitwise that of the in-process term.  At
        # n = 1, U = -1 and U = +1, and U* carries a -0.0 whose sign picks
        # the branch of the log.  The report writes it as "-0", which
        # json.loads reads as the integer 0 without parse_int=float, and
        # re + 1j * im would drop it too
        rng = np.random.default_rng(309)
        path = tmp_path / "a.mm"
        for a in (np.array([[-2.0]]), np.array([[3.0]]), crandn(rng, 2, 2), crandn(rng, 7, 7)):
            path.write_text(write_matrix_market(a))
            assert main(["decompose", str(path)]) == 0
            doc = json.loads(capsys.readouterr().out, parse_int=float)
            read = [(pairs(t["unitary"]), pairs(t["coefficient"])) for t in doc["terms"]]
            dec = decompose_into_unitaries(a)
            assert len(read) == len(dec.unitaries)
            total = np.zeros_like(a, dtype=np.complex128)
            for (u, c), u0, c0 in zip(read, dec.unitaries, dec.coefficients):
                u1, c1 = rephase_to_det_one(u, c)
                expected = rephase_to_det_one(u0, c0)
                assert np.array_equal(u1.view(np.uint64), expected[0].view(np.uint64))
                assert np.complex128(c1).tobytes() == np.complex128(expected[1]).tobytes()
                assert abs(determinant(u1) - 1.0) <= 1e-8
                total += c1 * u1
            assert np.linalg.norm(total - a) <= dec.reconstruction_bound

    @pytest.mark.parametrize("n", [1, 2, 5, 32])
    def test_coefficients_are_half_the_rescaled_norms(self, n):
        # the norm comes from the same eigensolve as the unitary, and equals
        # the norm from a separate solve of the part bit for bit
        rng = np.random.default_rng(310 + n)
        a = 3.0 * crandn(rng, n, n)
        dec = decompose_into_unitaries(a)
        expected = []
        for part, front in zip(hermitian_parts(a), (1.0 + 0j, 1j)):
            half = front * operator_norm(part) / 2.0
            expected += [half, half]
        assert dec.coefficients == expected

    def test_tiny_matrix_reconstructs_within_its_bound(self):
        # each part is scaled by its own norm: scaled by 1 instead, a part far
        # below norm 1 is lost in the rounding of its terms of norm 1
        a = crandn(np.random.default_rng(313), 8, 8) * 2.0**-300
        dec = decompose_into_unitaries(a)
        assert dec.reconstruction_residual <= dec.reconstruction_bound
        assert dec.reconstruction_bound <= 1e-12 * np.linalg.norm(a)

    def test_contraction_parts_map_bitwise(self):
        rng = np.random.default_rng(311)
        a = 0.5 * random_contraction(rng, 6) + 0.5j * random_contraction(rng, 6)
        parts = hermitian_parts(a)
        assert all(operator_norm(p) < 1.0 for p in parts)
        units = decompose_into_unitaries(a).unitaries
        for k, part in enumerate(parts):
            u = decompose_into_unitaries(part).unitaries[0]
            assert np.array_equal(units[2 * k], u)
            assert np.array_equal(units[2 * k + 1], u.conj().T)


class TestSolveCount:
    @pytest.fixture
    def solves(self, monkeypatch):
        """Arguments of every hermitian_eigh call made from tracekit.unitary."""
        seen = []

        def counting(h, *args, **kwargs):
            seen.append(np.array(h))
            return hermitian_eigh(h, *args, **kwargs)

        monkeypatch.setattr(unitary, "hermitian_eigh", counting)
        return seen

    def test_one_solve_per_hermitian_part(self, solves):
        rng = np.random.default_rng(312)
        decompose_into_unitaries(crandn(rng, 8, 8))
        assert len(solves) == 2

    def test_seeded_unitary_solves_once(self, solves):
        seeded_unitary(StreamSpec(5, 7), 6)
        # H alone is solved, not the exactly zero anti-Hermitian part of H
        assert [bool(h.any()) for h in solves] == [True]


class TestSeededUnitary:
    def test_unitary_and_reproducible(self):
        u = seeded_unitary(StreamSpec(5, 7), 6)
        assert np.linalg.norm(u.conj().T @ u - np.eye(6)) <= 1e-12
        assert np.array_equal(u, seeded_unitary(StreamSpec(5, 7), 6))
        assert not np.array_equal(u, seeded_unitary(StreamSpec(5, 8), 6))

    def test_unitary_at_n32(self):
        # the norm of H is ~10 here, so every eigenvalue is rescaled, and
        # the bound grows with n as the CLI's unitarity gate does
        n = 32
        u = seeded_unitary(StreamSpec(5, 7), n)
        assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12 * n
        assert np.array_equal(u, seeded_unitary(StreamSpec(5, 7), n))


    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 33])
    def test_bytes_match_the_first_term_of_the_decomposition(self, n):
        # the reference is the decomposition of H, which solves H once more
        for seed in range(4):
            spec = StreamSpec(seed, 2**48)
            h = hermitian_parts(gaussian_matrix(GaussianStream(spec), n))[0]
            u = seeded_unitary(spec, n)
            assert u.tobytes() == decompose_into_unitaries(h).unitaries[0].tobytes()

    def test_zero_part_gives_a_unitary(self, monkeypatch):
        # H = 0 needs all 2n^2 normals to be 0; its unitary is then -i I
        monkeypatch.setattr(unitary, "gaussian_matrix", lambda stream, n: np.zeros((n, n), complex))
        assert np.array_equal(seeded_unitary(StreamSpec(0, 0), 3), -1j * np.eye(3))


class TestDeterminant:
    def test_identity_and_diagonal(self):
        assert determinant(np.eye(3)) == 1.0 + 0j
        assert determinant(np.diag([2.0, 3.0])) == 6.0 + 0j

    def test_hand_2x2(self):
        # 1*4 - 2*3 = -2
        assert determinant([[1.0, 2.0], [3.0, 4.0]]) == pytest.approx(-2.0, abs=1e-14)

    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(309)
        for n in (1, 2, 5, 9, 16):
            a = crandn(rng, n, n)
            expected = np.linalg.det(a)
            assert determinant(a) == pytest.approx(expected, rel=1e-10)

    def test_singular(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 1.0
        assert determinant(a) == 0j
        rank_one = np.outer([1.0, 2.0, 3.0], [1.0, 1.0, 1.0]).astype(complex)
        assert abs(determinant(rank_one)) <= 1e-12

    def test_unitary_has_unit_modulus(self):
        rng = np.random.default_rng(310)
        u = decompose_into_unitaries(random_contraction(rng, 6)).unitaries[0]
        assert abs(abs(determinant(u)) - 1.0) <= 1e-8


class TestRephase:
    def test_identity_unchanged(self):
        u, c = rephase_to_det_one(np.eye(3), 2.0 + 1j)
        assert np.array_equal(u, np.eye(3))
        assert c == 2.0 + 1j

    def test_known_diag_i_one(self):
        # det = i, zeta = e^{i pi/4}
        u, c = rephase_to_det_one(np.diag([1j, 1.0]), 1.0 + 0j)
        zeta = np.exp(1j * np.pi / 4.0)
        np.testing.assert_allclose(u, np.diag([1j, 1.0]) / zeta, atol=1e-14)
        assert c == pytest.approx(zeta, abs=1e-14)
        assert determinant(u) == pytest.approx(1.0, abs=1e-10)

    def test_global_phase(self):
        u0 = np.exp(0.3j) * np.eye(2)
        u, _ = rephase_to_det_one(u0, 1.0)
        assert determinant(u) == pytest.approx(1.0, abs=1e-10)

    def test_product_preserved_and_value_invariant(self):
        rng = np.random.default_rng(311)
        a = crandn(rng, 5, 5)
        dec = decompose_into_unitaries(a)
        total = np.zeros((5, 5), dtype=complex)
        for c0, u0 in zip(dec.coefficients, dec.unitaries):
            u1, c1 = rephase_to_det_one(u0, c0)
            assert np.linalg.norm(c1 * u1 - c0 * u0) <= 1e-14 * np.linalg.norm(u0)
            assert abs(determinant(u1) - 1.0) <= 1e-8
            total += c1 * u1
        np.testing.assert_allclose(total, a, atol=1e-9 * max(1.0, np.linalg.norm(a)))

    def test_rejects_non_unit_determinant(self):
        with pytest.raises(ValueError, match="not 1"):
            rephase_to_det_one(2.0 * np.eye(2))
