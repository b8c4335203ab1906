"""The tracial-functional constraint system and its unique solution."""

import itertools

import numpy as np
import pytest

from tracekit import uniqueness
from tracekit.cli import main
from tracekit.linalg import matrix_unit, normalized_trace
from tracekit.uniqueness import (
    ConstraintSystem,
    FunctionalSolution,
    build_constraint_system,
    evaluate_functional,
    homogeneous_nullspace_dim,
    solve_unique_functional,
)

CAP = uniqueness._MAX_DIM


def row_index(i, j, k, l, n):
    return ((i * n + j) * n + k) * n + l


def dense_reference(n):
    """The (n^4 + 1) x n^2 matrix from the definition, one tuple at a time."""
    lhs = np.zeros((n**4 + 1, n * n))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        r = row_index(i, j, k, l, n)
        lhs[r, i * n + l] += j == k  # e_ij e_kl = (j == k) e_il
        lhs[r, k * n + j] -= l == i  # e_kl e_ij = (l == i) e_kj
    lhs[-1, :: n + 1] = 1.0  # f(I) = sum_i v[i][i]
    return lhs


def densify(system):
    n = system.dim
    lhs = np.zeros((n**4 + 1, n * n))
    lhs[system.rows, system.cols] = system.vals
    return lhs


def from_dense(n, lhs):
    """The system whose rows 0, 1, ... are lhs[:-1] and whose row n^4 is lhs[-1]."""
    r, c = np.nonzero(lhs)  # row-major, so sorted by (row, col)
    rows = np.where(r == len(lhs) - 1, n**4, r)
    return ConstraintSystem(dim=n, rows=rows, cols=c, vals=lhs[r, c])


class TestConstraintSystem:
    def test_shapes(self):
        system = build_constraint_system(2)
        assert system.dim == 2
        # 2n^3 - 2n tracial entries (the n rows (i, i, i, i) cancel to 0) and n
        assert system.rows.shape == system.cols.shape == system.vals.shape == (14,)
        assert system.rows.dtype == system.cols.dtype == np.int64
        assert system.vals.dtype == np.float64

    def test_n1_single_unknown(self):
        system = build_constraint_system(1)
        # one homogeneous row (trivially zero) plus v[0][0] = 1
        assert np.array_equal(densify(system), [[0.0], [1.0]])
        assert system.rows.tolist() == [1] and system.cols.tolist() == [0]

    def test_matches_dense_reference(self):
        for n in range(1, 9):
            system = build_constraint_system(n)
            assert densify(system).tobytes() == dense_reference(n).tobytes()
            again = from_dense(n, dense_reference(n))
            for name in ("rows", "cols", "vals"):
                assert np.array_equal(getattr(system, name), getattr(again, name))

    def test_nonzero_rows_bounded_by_the_two_families(self):
        # only j == k or l == i give nonzeros: 2n^3 - n^2 rows, less the n
        # rows (i, i, i, i) that cancel, plus the normalization row
        for n in (1, 2, 5, 16, CAP):
            system = build_constraint_system(n)
            rows = np.unique(system.rows)
            assert rows.size == 2 * n**3 - n**2 - n + 1
            assert rows[-1] == n**4

    def test_diagonal_equality_row(self):
        # tuple (0,1,1,0): e_01 e_10 = e_00 and e_10 e_01 = e_11,
        # so the row says v[0][0] - v[1][1] = 0
        lhs = densify(build_constraint_system(2))
        row = lhs[row_index(0, 1, 1, 0, 2)]
        assert np.array_equal(row, [1.0, 0.0, 0.0, -1.0])

    def test_offdiagonal_zero_row(self):
        # tuple (0,0,0,1): e_00 e_01 = e_01 but e_01 e_00 = 0,
        # so the row forces v[0][1] = 0
        lhs = densify(build_constraint_system(2))
        row = lhs[row_index(0, 0, 0, 1, 2)]
        assert np.array_equal(row, [0.0, 1.0, 0.0, 0.0])

    def test_rows_vanish_on_normalized_trace(self):
        # I/n satisfies every homogeneous constraint exactly
        for n in (2, 3, 4):
            lhs = densify(build_constraint_system(n))
            vec = (np.eye(n) / n).reshape(-1)
            assert np.max(np.abs(lhs[:-1] @ vec)) == 0.0

    def test_normalization_row(self):
        # the last row is f(I) = v[0][0] + v[1][1] + v[2][2] = 1
        lhs = densify(build_constraint_system(3))
        assert np.array_equal(lhs[-1], [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0])

    def test_dimension_range(self):
        for n in (0, CAP + 1):
            with pytest.raises(ValueError, match=rf"\[1, {CAP}\]"):
                build_constraint_system(n)

    @pytest.mark.parametrize("rows, cols, vals", [
        ([1, 0], [0, 0], [1.0, 1.0]),  # rows out of order
        ([0, 0], [1, 0], [1.0, -1.0]),  # columns out of order within a row
        ([0, 0], [1, 1], [1.0, -1.0]),  # one (row, col) twice
        ([0], [0], [0.0]),  # a stored zero
        ([17], [0], [1.0]),  # row past n^4
        ([0], [4], [1.0]),  # column past n^2
        ([0, 1], [0, 1], [1.0]),  # lengths differ
    ])
    def test_rejects_entries_off_the_format(self, rows, cols, vals):
        with pytest.raises(ValueError, match="sorted by"):
            ConstraintSystem(dim=2, rows=np.array(rows), cols=np.array(cols),
                             vals=np.array(vals))


class TestNullspace:
    def test_matches_svd_rank_oracle(self):
        for n in range(1, 9):
            system = build_constraint_system(n)
            expected = n * n - np.linalg.matrix_rank(densify(system)[:-1])
            assert homogeneous_nullspace_dim(system) == expected

    def test_matches_svd_rank_oracle_on_random_graphs(self):
        # chains and merges in any order, beyond the one complete graph on
        # the diagonal unknowns that the tracial system gives
        rng = np.random.default_rng(8)
        n = 4
        for _ in range(60):
            lhs = np.zeros((rng.integers(2, 24), n * n))
            for row in lhs[:-1]:
                a, b = rng.choice(n * n, 2, replace=False)
                row[a] = 1.0
                if rng.random() < 0.85:
                    row[b] = -1.0  # v_a = v_b, else v_a = 0
            lhs[-1, 0] = 1.0
            expected = n * n - np.linalg.matrix_rank(lhs[:-1])
            assert homogeneous_nullspace_dim(from_dense(n, lhs)) == expected

    def test_always_one(self):
        for n in (*range(1, 7), 16, CAP):
            assert homogeneous_nullspace_dim(build_constraint_system(n)) == 1

    def test_counts_components_without_forced_zero(self):
        # unknowns 0..3: v0 = v1, v2 = 0, v3 free -> dimension 2 (v0 = v1, v3)
        lhs = np.array([
            [1.0, -1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 1.0, 1.0],  # normalization row, not read
        ])
        assert homogeneous_nullspace_dim(from_dense(2, lhs)) == 2

    @pytest.mark.parametrize("row", [
        [1.0, 1.0, 0.0, 0.0],  # e_a + e_b
        [2.0, 0.0, 0.0, 0.0],  # 2 e_a
        [1.0, -1.0, 1.0, 0.0],  # three unknowns
        [0.5, -0.5, 0.0, 0.0],  # scaled difference
    ])
    def test_rejects_other_row_shapes(self, row):
        lhs = np.array([row, [1.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="row 0"):
            homogeneous_nullspace_dim(from_dense(2, lhs))


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
        system = build(n)
        tracial = system.rows < n**4
        w = weights(n).reshape(-1)
        cols = np.flatnonzero(w)
        return ConstraintSystem(
            dim=n,
            rows=np.concatenate([system.rows[tracial], np.full(cols.size, n**4)]),
            cols=np.concatenate([system.cols[tracial], cols]),
            vals=np.concatenate([system.vals[tracial], w[cols]]),
        )

    return patched


class TestSolveReadsComponents:
    """The values are derived from the system, not written as (c / n) I."""

    def test_bitwise_normalized_identity(self):
        eps = np.finfo(np.float64).eps
        for n in (*range(1, 9), 16, CAP):
            solution = solve_unique_functional(n)
            expected = (np.eye(n) / n).astype(np.complex128)
            assert solution.values.tobytes() == expected.tobytes()
            assert solution.residual <= n * eps

    def test_residual_sums_each_row_in_column_order(self):
        # max |A v - e_last| with each row summed left to right, so the
        # residual does not depend on how a BLAS groups a dot product
        for n in range(1, 8):
            solution = solve_unique_functional(n)
            v = solution.values.reshape(-1)
            lhs = dense_reference(n)
            worst = 0.0
            for r, row in enumerate(lhs):
                acc = 0.0
                for c in np.flatnonzero(row):
                    acc += row[c] * v[c].real
                worst = max(worst, abs(acc - (r == len(lhs) - 1)))
            assert solution.residual == worst

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
