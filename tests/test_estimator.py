"""Trace estimation: value kernel, statistics, determinism, invariance."""

import tracemalloc
import warnings

import numpy as np
import pytest

from tracekit import sphere
from tracekit.estimator import (
    _rayleigh_values,
    EstimateReport,
    LinearOperator,
    RunningStats,
    commutation_estimate_check,
    estimate_trace,
    inner,
    merge_stats,
    numerical_value,
    estimate_matrix_trace,
    stats_from_values,
    substitution_identity_check,
    substitution_identity_sweep,
)
from tracekit.linalg import matrix_unit, normalized_trace
from tracekit.sphere import (
    GaussianStream,
    StreamSpec,
    sample_unit_vector,
    sample_unit_vectors,
    sample_unit_vectors_chunked,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def welford_loop(values):
    """Textbook one-pass accumulation, used as the merge oracle."""
    mean = 0j
    m2_re = 0.0
    m2_im = 0.0
    for k, v in enumerate(values, start=1):
        delta = v - mean
        mean += delta / k
        delta2 = v - mean
        m2_re += delta.real * delta2.real
        m2_im += delta.imag * delta2.imag
    return mean, m2_re, m2_im


BLOCK_64 = 512 * 64 * 16  # bytes of 512 complex rows at n = 64


def peak_of_two_threads(monkeypatch, run) -> int:
    """tracemalloc peak of run(count, spec) over four chunks on two threads."""
    run(10, StreamSpec(0, 0))  # imports done before tracing
    monkeypatch.setattr(sphere, "_cpus", lambda: 2)
    tracemalloc.start()
    try:
        run(4 * sphere.CHUNK_SIZE, StreamSpec(5, 0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestInner:
    def test_hand_value(self):
        # (1+2j) * conj(3-1j) = (1+2j)(3+1j) = 1 + 7j
        assert inner([1 + 2j], [3 - 1j]) == pytest.approx(1 + 7j, abs=1e-15)

    def test_matches_vdot_oracle(self):
        rng = np.random.default_rng(200)
        for n in (1, 4, 9):
            u = crandn(rng, n)
            v = crandn(rng, n)
            # numpy's vdot conjugates its first argument
            assert inner(u, v) == pytest.approx(np.vdot(v, u), rel=1e-14)

    def test_slot_linearity(self):
        rng = np.random.default_rng(201)
        u, v = crandn(rng, 5), crandn(rng, 5)
        c = 2.0 - 3.0j
        assert inner(c * u, v) == pytest.approx(c * inner(u, v), rel=1e-13)
        assert inner(u, c * v) == pytest.approx(
            np.conj(c) * inner(u, v), rel=1e-13
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner([1, 2], [1, 2, 3])


class TestNumericalValue:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(202)
        for n in (1, 2, 4, 8, 16):
            op = LinearOperator.from_matrix(np.eye(n))
            x = crandn(rng, n)  # deliberately not unit
            assert numerical_value(op, x) == 1.0 + 0.0j

    def test_hand_value_matrix_unit(self):
        # <e_01 x, x> at x = (1,1)/sqrt(2): first entry of e_01 x is
        # x[1], so the form gives x[1] * conj(x[0]) = 1/2
        op = LinearOperator.from_matrix(matrix_unit(0, 1, 2))
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert numerical_value(op, x) == pytest.approx(0.5, abs=1e-15)

    def test_matches_vdot_oracle(self):
        rng = np.random.default_rng(203)
        a = crandn(rng, 6, 6)
        op = LinearOperator.from_matrix(a)
        x = crandn(rng, 6)
        expected = np.vdot(x, a @ x) / np.vdot(x, x)
        assert numerical_value(op, x) == pytest.approx(expected, rel=1e-12)

    def test_hermitian_values_are_real(self):
        rng = np.random.default_rng(204)
        g = crandn(rng, 7, 7)
        op = LinearOperator.from_matrix((g + g.conj().T) / 2)
        for _ in range(20):
            x = sample_unit_vector(GaussianStream(StreamSpec(5, 0)), 7)
            assert abs(numerical_value(op, x).imag) <= 1e-12

    def test_rejects_zero_vector_and_mismatch(self):
        op = LinearOperator.from_matrix(np.eye(3))
        with pytest.raises(ValueError, match="zero vector"):
            numerical_value(op, np.zeros(3))
        with pytest.raises(ValueError, match="dimension"):
            numerical_value(op, np.ones(4))


class TestLinearOperator:
    def test_from_matrix_batch_matches_single(self):
        rng = np.random.default_rng(205)
        a = crandn(rng, 5, 5)
        op = LinearOperator.from_matrix(a)
        x = crandn(rng, 8, 5)
        batch = op.apply_batch(x)
        for j in range(8):
            np.testing.assert_allclose(batch[j], op.apply(x[j]), atol=1e-13)

    def test_default_batch_falls_back_to_rows(self):
        d = np.array([1.0, 2.0, 3.0])
        op = LinearOperator(3, apply=lambda v: d * v)
        x = np.eye(3, dtype=complex)
        assert np.array_equal(op.apply_batch(x), np.diag(d).astype(complex))

    def test_shape_validation(self):
        op = LinearOperator(3, apply=lambda v: v[:2])
        with pytest.raises(ValueError, match="shape"):
            op.apply(np.ones(3, dtype=complex))
        with pytest.raises(ValueError):
            LinearOperator(0, apply=lambda v: v)

    def test_linearity_probe_passes_for_linear_callback(self):
        d = np.linspace(1, 2, 6) + 0j
        op = LinearOperator(6, apply=lambda v: d * v)
        rep = estimate_trace(op, 500, StreamSpec(17, 0))
        assert rep.sample_count == 500

    def test_linearity_probe_rejects_nonlinear_callback(self):
        op = LinearOperator(4, apply=lambda v: v * np.linalg.norm(v))
        with pytest.raises(ValueError, match="linearity"):
            estimate_trace(op, 100, StreamSpec(18, 0))

    def test_trusted_config_skips_probe(self):
        op = LinearOperator(4, apply=lambda v: v * np.linalg.norm(v), assume_linear=True)
        rep = estimate_trace(op, 100, StreamSpec(18, 0))
        assert rep.sample_count == 100


class TestRunningStats:
    def test_empty_is_identity(self):
        x = stats_from_values(np.array([1 + 1j, 2 - 1j]))
        assert merge_stats(x, RunningStats()) == x
        assert merge_stats(RunningStats(), x) == x

    def test_two_singles_average(self):
        a = stats_from_values(np.array([2.0 + 0j]))
        b = stats_from_values(np.array([4.0 + 2j]))
        merged = merge_stats(a, b)
        assert merged.count == 2
        assert merged.mean == pytest.approx(3.0 + 1j, abs=1e-15)

    def test_single_sample_stderr_zero(self):
        assert stats_from_values(np.array([5 + 1j])).stderr() == 0.0
        assert RunningStats().stderr() == 0.0

    def test_merge_matches_straight_loop(self):
        rng = np.random.default_rng(206)
        values = crandn(rng, 1000)
        mean_o, m2re_o, m2im_o = welford_loop(values)
        merged = RunningStats()
        for lo in range(0, 1000, 37):
            merged = merge_stats(merged, stats_from_values(values[lo : lo + 37]))
        assert merged.count == 1000
        assert merged.mean == pytest.approx(mean_o, rel=1e-12)
        assert merged.m2_re == pytest.approx(m2re_o, rel=1e-12)
        assert merged.m2_im == pytest.approx(m2im_o, rel=1e-12)

    def test_tree_merge_orders_agree(self):
        rng = np.random.default_rng(207)
        values = crandn(rng, 256)
        parts = [stats_from_values(values[lo : lo + 32]) for lo in range(0, 256, 32)]
        left = parts[0]
        for p in parts[1:]:
            left = merge_stats(left, p)
        while len(parts) > 1:
            parts = [
                merge_stats(parts[i], parts[i + 1]) for i in range(0, len(parts), 2)
            ]
        balanced = parts[0]
        assert left.mean == pytest.approx(balanced.mean, rel=1e-12)
        assert left.stderr() == pytest.approx(balanced.stderr(), rel=1e-12)

    def test_stderr_matches_numpy_oracle(self):
        rng = np.random.default_rng(208)
        values = crandn(rng, 500)
        stats = stats_from_values(values)
        expected = np.sqrt(
            (np.var(values.real, ddof=1) + np.var(values.imag, ddof=1)) / 500
        )
        assert stats.stderr() == pytest.approx(expected, rel=1e-12)


class TestEstimateTrace:
    def test_identity_exact(self):
        for n in (1, 4, 16):
            for n_samples in (1, 100, 5000):
                rep = estimate_trace(
                    LinearOperator.from_matrix(np.eye(n)),
                    n_samples,
                    StreamSpec(123, 0),
                )
                assert rep.mean == 1.0 + 0.0j
                assert rep.stderr == 0.0
                assert rep.ci_radius == 0.0

    def test_matches_exact_trace_within_ci(self):
        rng = np.random.default_rng(209)
        a = crandn(rng, 8, 8)
        rep = estimate_trace(
            LinearOperator.from_matrix(a), 100000, StreamSpec(42, 0)
        )
        exact = normalized_trace(a)
        assert abs(rep.mean - exact) <= 4.0 * rep.stderr

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(210)
        a = crandn(rng, 4, 4)
        op = LinearOperator.from_matrix(a)
        r1 = estimate_trace(op, 3000, StreamSpec(7, 0))
        r2 = estimate_trace(op, 3000, StreamSpec(7, 0))
        r3 = estimate_trace(op, 3000, StreamSpec(8, 0))
        assert r1 == r2
        assert r1.mean != r3.mean

    def test_worker_count_invariance(self, monkeypatch):
        # one thread per CPU, up to one per chunk: 10 chunks on 1, 3 or 8
        # CPUs (neither 3 nor 8 divides 10) give bitwise equal reports
        rng = np.random.default_rng(211)
        op = LinearOperator.from_matrix(crandn(rng, 6, 6))
        count = 9 * sphere.CHUNK_SIZE + 17
        reports = []
        for cpus in (1, 3, 8):
            monkeypatch.setattr(sphere, "_cpus", lambda: cpus)
            reports.append(estimate_trace(op, count, StreamSpec(3, 0)))
        assert reports[0] == reports[1] == reports[2]

    def test_default_threads_match_serial(self, monkeypatch):
        # unpatched, the thread count is one per CPU in the process's
        # affinity; with 5 chunks the report equals the one-thread report
        rng = np.random.default_rng(214)
        op = LinearOperator.from_matrix(crandn(rng, 7, 7))
        count = 4 * sphere.CHUNK_SIZE + 17
        default = estimate_trace(op, count, StreamSpec(4, 0))
        monkeypatch.setattr(sphere, "_cpus", lambda: 1)
        serial = estimate_trace(op, count, StreamSpec(4, 0))
        assert default == serial

    def test_chunk_memory_is_bounded_by_row_blocks(self, monkeypatch):
        # each of two threads holds one row block of draws and a few row-block
        # temporaries, never a chunk's draws (4 MB per chunk at n = 64)
        op = LinearOperator.from_matrix(crandn(np.random.default_rng(215), 64, 64))
        peak = peak_of_two_threads(monkeypatch, lambda count, spec: estimate_trace(op, count, spec))
        assert peak < 2 * 5 * BLOCK_64

    def test_linearity_in_operator_at_fixed_seed(self):
        rng = np.random.default_rng(212)
        a = crandn(rng, 5, 5)
        b = crandn(rng, 5, 5)
        alpha, beta = 1.5 - 0.5j, -0.25 + 2j
        spec = StreamSpec(99, 0)
        combined = estimate_trace(
            LinearOperator.from_matrix(alpha * a + beta * b), 2000, spec
        )
        ra = estimate_trace(LinearOperator.from_matrix(a), 2000, spec)
        rb = estimate_trace(LinearOperator.from_matrix(b), 2000, spec)
        assert combined.mean == pytest.approx(
            alpha * ra.mean + beta * rb.mean, abs=1e-10
        )

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_stderr_matches_closed_form_sphere_variance(self, n):
        # for x uniform on the unit sphere of C^n,
        # Var <A x, x> = (||A||_F^2 - |tr A|^2 / n) / (n (n + 1))
        rng = np.random.default_rng(230 + n)
        a = crandn(rng, n, n)
        n_samples = 100000
        rep = estimate_trace(LinearOperator.from_matrix(a), n_samples, StreamSpec(n, 0))
        fro2 = float(np.sum(np.abs(a) ** 2))
        var = (fro2 - abs(np.trace(a)) ** 2 / n) / (n * (n + 1))
        assert 0.97 <= rep.stderr / np.sqrt(var / n_samples) <= 1.03

    def test_stderr_shrinks_with_samples(self):
        rng = np.random.default_rng(213)
        a = crandn(rng, 8, 8)
        op = LinearOperator.from_matrix(a)
        small = estimate_trace(op, 25000, StreamSpec(1, 0))
        large = estimate_trace(op, 100000, StreamSpec(1, 0))
        assert 0.4 <= large.stderr / small.stderr <= 0.6

    def test_rejects_bad_inputs(self):
        op = LinearOperator.from_matrix(np.eye(2))
        with pytest.raises(ValueError, match="n_samples"):
            estimate_trace(op, 0, StreamSpec(0, 0))
        with pytest.raises(ValueError, match="z must be > 0"):
            estimate_trace(op, 10, StreamSpec(0, 0), z=0.0)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_value_names_sample(self):
        op = LinearOperator(
            3,
            apply=lambda v: v * np.inf,
            assume_linear=True,
        )
        with pytest.raises(FloatingPointError, match="sample 0"):
            estimate_trace(op, 10, StreamSpec(0, 0))

    def test_report_fields(self):
        rep = estimate_trace(
            LinearOperator.from_matrix(np.eye(3)),
            50,
            StreamSpec(4, 2),
            z=2.5,
        )
        assert rep.dim == 3
        assert rep.sample_count == 50
        assert rep.spec == StreamSpec(4, 2)
        assert rep.ci_radius == 2.5 * rep.stderr
        assert rep.exact is None and rep.abs_error() is None
        rep.exact = 1.0 + 0j
        assert rep.abs_error() == 0.0


class TestSubstitutionIdentity:
    def test_identity_b_is_exact(self):
        rng = np.random.default_rng(214)
        a = crandn(rng, 4, 4)
        z = sample_unit_vector(GaussianStream(StreamSpec(6, 0)), 4)
        lhs, rhs, gap = substitution_identity_check(a, np.eye(4), z)
        assert lhs == rhs
        assert gap == 0.0

    def test_diagonal_phase_unitary(self):
        rng = np.random.default_rng(215)
        a = crandn(rng, 2, 2)
        b = np.diag([1j, -1j])
        z = sample_unit_vector(GaussianStream(StreamSpec(7, 0)), 2)
        lhs, rhs, gap = substitution_identity_check(a, b, z)
        assert gap <= 1e-12

    def test_random_unitaries_within_contract(self):
        rng = np.random.default_rng(216)
        for n in (2, 5, 8):
            a = crandn(rng, n, n)
            q, _ = np.linalg.qr(crandn(rng, n, n))
            z = sample_unit_vector(GaussianStream(StreamSpec(n, 0)), n)
            _, _, gap = substitution_identity_check(a, q, z)
            assert gap <= 1e-10 * (1.0 + np.linalg.norm(a))

    def test_rejects_non_unitary(self):
        # a huge B whose B*B overflows to nan is no unitary either
        z = np.array([1.0, 0.0])
        huge = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (matrix_unit(0, 0, 2), huge):
                with pytest.raises(ValueError, match="not unitary"):
                    substitution_identity_check(np.eye(2), b, z)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            substitution_identity_check(np.eye(2), np.eye(3), np.array([1.0, 0]))


class TestSubstitutionSweep:
    def test_matches_batched_evaluation(self):
        # the chunked sweep reproduces the gaps of one (samples, n) batch;
        # bit-identity would also need BLAS rows independent of block height
        rng = np.random.default_rng(218)
        for n, samples in ((3, 5000), (8, 9000)):
            a = crandn(rng, n, n)
            b, _ = np.linalg.qr(crandn(rng, n, n))
            z = sample_unit_vectors_chunked(StreamSpec(19, 0), n, samples)
            x = z @ np.conj(b)
            lhs = np.sum((x @ (a @ b).T) * np.conj(x), axis=1)
            rhs = np.sum((z @ (b @ a).T) * np.conj(z), axis=1)
            max_gap, unitarity = substitution_identity_sweep(a, b, samples, StreamSpec(19, 0))
            assert max_gap == pytest.approx(float(np.max(np.abs(lhs - rhs))), rel=1e-12)
            assert unitarity == float(np.linalg.norm(b.conj().T @ b - np.eye(n)))
            assert max_gap <= 1e-10 * (1.0 + np.linalg.norm(a))

    def test_threads_match_serial(self, monkeypatch):
        # 5 chunks of the fixed chunk size on 3 threads, against one thread
        rng = np.random.default_rng(222)
        a = crandn(rng, 5, 5)
        b, _ = np.linalg.qr(crandn(rng, 5, 5))
        samples = 4 * sphere.CHUNK_SIZE + 9
        gaps = {}
        for cpus in (1, 3):
            monkeypatch.setattr(sphere, "_cpus", lambda: cpus)
            gaps[cpus] = substitution_identity_sweep(a, b, samples, StreamSpec(23, 0))
        assert gaps[1] == gaps[3]
        assert gaps[1][0] > 0.0

    def test_chunk_memory_is_bounded_by_row_blocks(self, monkeypatch):
        # as for estimate_trace: a few row blocks per thread, never a chunk
        rng = np.random.default_rng(224)
        a = crandn(rng, 64, 64)
        b, _ = np.linalg.qr(crandn(rng, 64, 64))
        peak = peak_of_two_threads(
            monkeypatch, lambda count, spec: substitution_identity_sweep(a, b, count, spec))
        assert peak < 2 * 5 * BLOCK_64

    def test_identity_b_gives_zero_gap(self):
        rng = np.random.default_rng(219)
        assert substitution_identity_sweep(
            crandn(rng, 4, 4), np.eye(4), 300, StreamSpec(2, 0)
        ) == (0.0, 0.0)

    def test_overflow_asks_to_rescale(self):
        # A is finite, but A x overflows for some draws, so a gap is nan
        a = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rescale the matrix"):
                substitution_identity_sweep(a, np.eye(2), 64, StreamSpec(0, 0))

    def test_rejects_non_unitary_and_mismatch(self):
        with pytest.raises(ValueError, match="not unitary"):
            substitution_identity_sweep(np.eye(2), 2.0 * np.eye(2), 10, StreamSpec(0, 0))
        with pytest.raises(ValueError, match="mismatch"):
            substitution_identity_sweep(np.eye(2), np.eye(3), 10, StreamSpec(0, 0))


class TestEstimateMatrixTrace:
    def test_exact_and_raw_scaling(self):
        rng = np.random.default_rng(220)
        a = crandn(rng, 5, 5)
        rep = estimate_matrix_trace(a, 3000, StreamSpec(8, 0))
        raw = estimate_matrix_trace(a, 3000, StreamSpec(8, 0), raw=True)
        plain = estimate_trace(LinearOperator.from_matrix(a), 3000, StreamSpec(8, 0))
        assert (rep.mean, rep.stderr) == (plain.mean, plain.stderr)
        assert rep.exact == normalized_trace(a)
        assert (raw.mean, raw.stderr, raw.ci_radius, raw.exact) == (
            rep.mean * 5, rep.stderr * 5, rep.ci_radius * 5, rep.exact * 5
        )

    @pytest.mark.parametrize("a, samples", [
        (np.full((2, 2), 1e308), 16),  # some <A x, x> reach 2e308
        (np.diag([1e160, -1e160]), 16),  # squared deviations reach 1e320
    ])
    def test_overflow_asks_to_rescale(self, a, samples):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="rescale the matrix"):
                estimate_matrix_trace(a, samples, StreamSpec(0, 0))


class TestCommutationCheck:
    def test_diagonal_exact_oracle_equality(self):
        a = np.diag([1.0 + 1j, 2.0, -3.0])
        b = np.diag([0.5, -1.5j, 2.0 + 2j])
        rep_ab, rep_ba = commutation_estimate_check(a, b, 200, StreamSpec(11, 0))
        assert rep_ab.exact == rep_ba.exact

    def test_random_pair_estimates_agree(self):
        rng = np.random.default_rng(217)
        a = crandn(rng, 4, 4)
        b = crandn(rng, 4, 4)
        rep_ab, rep_ba = commutation_estimate_check(a, b, 100000, StreamSpec(13, 0))
        assert rep_ab.exact == pytest.approx(rep_ba.exact, rel=1e-12)
        gap = abs(rep_ab.mean - rep_ba.mean)
        assert gap <= 4.0 * (rep_ab.stderr + rep_ba.stderr)

    def test_matrix_unit_pair(self):
        # e_01 e_10 = e_00 and e_10 e_01 = e_11, both with normalized
        # trace 1/2
        a = matrix_unit(0, 1, 2)
        b = matrix_unit(1, 0, 2)
        rep_ab, rep_ba = commutation_estimate_check(a, b, 20000, StreamSpec(15, 0))
        assert rep_ab.exact == 0.5 + 0j
        assert rep_ba.exact == 0.5 + 0j
        assert abs(rep_ab.mean - 0.5) <= 4.0 * rep_ab.stderr
        assert abs(rep_ba.mean - 0.5) <= 4.0 * rep_ba.stderr

    def test_streams_are_independent(self):
        a = np.diag([1.0, 2.0])
        rep_ab, rep_ba = commutation_estimate_check(a, np.eye(2), 500, StreamSpec(1, 0))
        assert rep_ab.spec.stream_index + 2**32 == rep_ba.spec.stream_index

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            commutation_estimate_check(np.eye(2), np.eye(3), 10, StreamSpec(0, 0))


@pytest.mark.parametrize("cpus", [1, 2])
def test_redraw_in_third_block_matches_whole_chunk_draws(monkeypatch, cpus):
    # the words of row 1100 of chunk 1 (in its third 512-row block) are all
    # 2**63, whose normals are exactly 0, so that row is redrawn from the
    # words after the chunk's 2n * 4096; estimate and sweep must equal their
    # values on the whole-chunk draws of sample_unit_vectors, block by block
    n, count, row = 8, 3 * sphere.CHUNK_SIZE + 100, 1100
    spec = StreamSpec(41, 0)
    stubbed = spec.offset(1)
    original = GaussianStream.raw_words
    taken = []

    def raw_words(self, k):
        words = original(self, k)
        if self.spec == stubbed:
            start = self.__dict__.setdefault("words_taken", 0)
            self.words_taken += k
            taken.append(k)
            words[max(2 * n * row - start, 0):max(2 * n * (row + 1) - start, 0)] = 2**63
        return words

    monkeypatch.setattr(GaussianStream, "raw_words", raw_words)
    draws = [sample_unit_vectors(GaussianStream(substream), n, hi - lo)
             for lo, hi, substream in sphere.chunk_layout(spec, count)]
    assert sum(taken) == 2 * n * (sphere.CHUNK_SIZE + 1)  # one redraw

    def by_blocks(fn, x):
        return np.concatenate([fn(x[b:b + 512]) for b in range(0, len(x), 512)])

    rng = np.random.default_rng(225)
    a = crandn(rng, n, n)
    b, _ = np.linalg.qr(crandn(rng, n, n))
    op = LinearOperator.from_matrix(a)

    def rayleigh(rows):
        return _rayleigh_values(op.apply_batch(rows), rows)

    values = [by_blocks(rayleigh, x) for x in draws]
    total = RunningStats()
    for v in values:
        total = merge_stats(total, stats_from_values(v))

    def gaps(z):
        x = z @ np.conj(b)
        lhs = np.sum((x @ (a @ b).T) * np.conj(x), axis=1)
        rhs = np.sum((z @ (b @ a).T) * np.conj(z), axis=1)
        return np.abs(lhs - rhs)

    monkeypatch.setattr(sphere, "_cpus", lambda: cpus)
    taken.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_trace(op, count, spec)
        sweep = substitution_identity_sweep(a, b, count, spec)
        streamed = [v for _, v in sphere.map_chunks(rayleigh, spec, n, count)]
    assert sum(taken) == 3 * 2 * n * (sphere.CHUNK_SIZE + 1)
    assert [v.tobytes() for v in streamed] == [v.tobytes() for v in values]
    assert (report.mean, report.stderr) == (total.mean, total.stderr())
    assert sweep[0] == max(float(np.max(by_blocks(gaps, z))) for z in draws)
