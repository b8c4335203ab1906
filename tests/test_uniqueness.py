"""The tracial-functional constraint system and its unique solution."""

import numpy as np
import pytest

from tracekit import uniqueness
from tracekit.cli import main
from tracekit.linalg import matrix_unit, normalized_trace
from tracekit.sphere import GaussianStream, StreamSpec, gaussian_matrix
from tracekit.uniqueness import (
    ConstraintSystem,
    FunctionalSolution,
    build_constraint_system,
    evaluate_functional,
    homogeneous_nullspace_dim,
    solve_unique_functional,
    verify_tracial_on_random_pairs,
)


def row_index(i, j, k, l, n):
    return ((i * n + j) * n + k) * n + l


class TestConstraintSystem:
    def test_shapes(self):
        system = build_constraint_system(2)
        assert system.lhs.shape == (17, 4)
        assert system.dim == 2

    def test_n1_single_unknown(self):
        system = build_constraint_system(1)
        # one homogeneous row (trivially zero) plus v[0][0] = 1
        assert np.array_equal(system.lhs, [[0.0], [1.0]])

    def test_diagonal_equality_row(self):
        # tuple (0,1,1,0): e_01 e_10 = e_00 and e_10 e_01 = e_11,
        # so the row says v[0][0] - v[1][1] = 0
        system = build_constraint_system(2)
        row = system.lhs[row_index(0, 1, 1, 0, 2)]
        assert np.array_equal(row, [1.0, 0.0, 0.0, -1.0])

    def test_offdiagonal_zero_row(self):
        # tuple (0,0,0,1): e_00 e_01 = e_01 but e_01 e_00 = 0,
        # so the row forces v[0][1] = 0
        system = build_constraint_system(2)
        row = system.lhs[row_index(0, 0, 0, 1, 2)]
        assert np.array_equal(row, [0.0, 1.0, 0.0, 0.0])

    def test_rows_vanish_on_normalized_trace(self):
        # I/n satisfies every homogeneous constraint exactly
        for n in (2, 3, 4):
            system = build_constraint_system(n)
            vec = (np.eye(n) / n).reshape(-1)
            assert np.max(np.abs(system.lhs[:-1] @ vec)) == 0.0

    def test_normalization_row(self):
        # the last row is f(I) = v[0][0] + v[1][1] + v[2][2] = 1
        system = build_constraint_system(3)
        assert np.array_equal(
            system.lhs[-1], [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]
        )

    def test_dimension_range(self):
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            build_constraint_system(0)
        with pytest.raises(ValueError, match=r"\[1, 8\]"):
            build_constraint_system(9)


class TestNullspace:
    def test_matches_svd_rank_oracle(self):
        for n in range(1, 9):
            system = build_constraint_system(n)
            expected = n * n - np.linalg.matrix_rank(system.lhs[:-1])
            assert homogeneous_nullspace_dim(system) == expected

    def test_always_one(self):
        for n in range(1, 7):
            assert homogeneous_nullspace_dim(build_constraint_system(n)) == 1

    def test_counts_components_without_forced_zero(self):
        # unknowns 0..3: v0 = v1, v2 = 0, v3 free -> dimension 2 (v0 = v1, v3)
        lhs = np.array([
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],  # normalization row, not read
        ])
        system = ConstraintSystem(dim=2, lhs=lhs)
        assert homogeneous_nullspace_dim(system) == 2

    @pytest.mark.parametrize("row", [
        [1.0, 1.0, 0.0, 0.0],  # e_a + e_b
        [2.0, 0.0, 0.0, 0.0],  # 2 e_a
        [1.0, -1.0, 1.0, 0.0],  # three unknowns
        [0.5, -0.5, 0.0, 0.0],  # scaled difference
    ])
    def test_rejects_other_row_shapes(self, row):
        lhs = np.array([row, [1.0, 0.0, 0.0, 1.0]])
        system = ConstraintSystem(dim=2, lhs=lhs)
        with pytest.raises(ValueError, match="row 0"):
            homogeneous_nullspace_dim(system)


class TestSolve:
    def test_n1(self):
        solution = solve_unique_functional(1)
        np.testing.assert_allclose(solution.values, [[1.0]], atol=1e-12)

    def test_returns_normalized_identity(self):
        for n in range(2, 7):
            solution = solve_unique_functional(n)
            assert solution.nullspace_dim == 1
            assert solution.residual <= 1e-12
            gap = np.max(np.abs(solution.values - np.eye(n) / n))
            assert gap <= 1e-12
            # normalization satisfied
            assert abs(np.trace(solution.values) - 1.0) <= 1e-12


def reweighted_build(weights):
    """build_constraint_system with the normalization row set to weights(n)."""
    build = uniqueness.build_constraint_system

    def patched(n):
        lhs = build(n).lhs.copy()
        lhs[-1] = weights(n).reshape(-1)
        return ConstraintSystem(dim=n, lhs=lhs)

    return patched


class TestSolveReadsComponents:
    """The values are derived from the system, not written as (c / n) I."""

    def test_bitwise_normalized_identity(self):
        eps = np.finfo(np.float64).eps
        for n in range(1, 9):
            solution = solve_unique_functional(n)
            expected = (np.eye(n) / n).astype(np.complex128)
            assert solution.values.tobytes() == expected.tobytes()
            assert solution.residual <= n * eps

    def test_values_follow_normalization_weights(self, monkeypatch):
        # weight 2 on each diagonal unknown: w = 2n, so v[i][i] = 1 / (2n)
        monkeypatch.setattr(
            uniqueness, "build_constraint_system",
            reweighted_build(lambda n: 2.0 * np.eye(n)),
        )
        eps = np.finfo(np.float64).eps
        for n in (1, 3, 8):
            solution = solve_unique_functional(n)
            assert solution.nullspace_dim == 1
            assert np.array_equal(solution.values, np.eye(n) * (1 / (2 * n)))
            assert solution.residual <= 2 * n * eps

    def test_normalization_off_the_free_component_raises(self, monkeypatch, capsys):
        # a row on the forced-zero off-diagonal unknowns cannot fix f
        monkeypatch.setattr(
            uniqueness, "build_constraint_system",
            reweighted_build(lambda n: np.ones((n, n)) - np.eye(n)),
        )
        for n in (1, 2, 8):
            with pytest.raises(ArithmeticError, match="normalization"):
                solve_unique_functional(n)
        assert main(["uniqueness", "--dim", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")


class TestEvaluate:
    def test_matches_normalized_trace(self):
        rng = np.random.default_rng(400)
        solution = solve_unique_functional(4)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert evaluate_functional(solution, a) == pytest.approx(
            normalized_trace(a), abs=1e-12 * np.linalg.norm(a)
        )

    def test_matrix_unit_pair_both_orders(self):
        # f(e_01 e_10) = f(e_00) = 1/2 = f(e_11) = f(e_10 e_01)
        solution = solve_unique_functional(2)
        a = matrix_unit(0, 1, 2)
        b = matrix_unit(1, 0, 2)
        assert evaluate_functional(solution, a @ b) == pytest.approx(0.5, abs=1e-12)
        assert evaluate_functional(solution, b @ a) == pytest.approx(0.5, abs=1e-12)

    def test_shape_mismatch(self):
        solution = solve_unique_functional(2)
        with pytest.raises(ValueError, match="shape"):
            evaluate_functional(solution, np.eye(3))


class TestVerifyTracial:
    def test_equal_pair_gap_zero(self):
        solution = solve_unique_functional(3)
        a = np.arange(9, dtype=complex).reshape(3, 3)
        gap = abs(
            evaluate_functional(solution, a @ a) - evaluate_functional(solution, a @ a)
        )
        assert gap == 0.0

    def test_random_pairs_small_gap(self):
        solution = solve_unique_functional(4)
        spec = StreamSpec(60, 0)
        worst = verify_tracial_on_random_pairs(solution, 50, spec)
        # replay the same stream to recover the norm scale of the pairs
        stream = GaussianStream(spec)
        scale = 0.0
        for _ in range(50):
            a = gaussian_matrix(stream, 4)
            b = gaussian_matrix(stream, 4)
            scale = max(scale, np.linalg.norm(a) * np.linalg.norm(b))
        assert worst <= 1e-10 * scale

    def test_corrupted_solution_is_caught(self):
        solution = solve_unique_functional(2)
        corrupted = solution.values.copy()
        corrupted[0, 1] = 0.1
        bad = FunctionalSolution(
            dim=2, values=corrupted, residual=0.0, nullspace_dim=1
        )
        # adversarial pair: A = e_01, B = e_11 gives AB = e_01, BA = 0,
        # so the gap is exactly the corrupted entry
        a = matrix_unit(0, 1, 2)
        b = matrix_unit(1, 1, 2)
        gap = abs(
            evaluate_functional(bad, a @ b) - evaluate_functional(bad, b @ a)
        )
        assert gap > 0.01

    def test_trials_validation(self):
        solution = solve_unique_functional(2)
        with pytest.raises(ValueError, match="trials"):
            verify_tracial_on_random_pairs(solution, 0, StreamSpec(0, 0))
