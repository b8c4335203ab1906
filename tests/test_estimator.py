"""Trace estimation: value kernel, statistics, determinism, invariance."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tracekit import sphere
from tracekit.estimator import (
    _quotients,
    LinearOperator,
    RunningStats,
    estimate_trace,
    merge_stats,
    stats_from_values,
    substitution_identity_sweep,
)
from tracekit.linalg import matrix_unit, normalized_trace
from tracekit.sphere import (
    GaussianStream,
    StreamSpec,
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


# finite values <A x, x> and gaps, but ||A||_F = 2.1e308 overflows
OFF_DIAGONAL_HUGE = np.array([[0.0, 1.5e308], [1.5e308, 0.0]])


class TestInner:
    """<u, v> = sum u conj(v), as _quotients takes it over <v, v>."""

    @staticmethod
    def inner(u, v):
        u, v = (np.asarray(w, dtype=complex).reshape(1, -1) for w in (u, v))
        return complex(_quotients(u, v)[0] * np.vdot(v, v))

    def test_hand_value(self):
        # (1+2j) * conj(3-1j) = (1+2j)(3+1j) = 1 + 7j
        assert self.inner([1 + 2j], [3 - 1j]) == pytest.approx(1 + 7j, abs=1e-15)

    def test_matches_vdot_oracle(self):
        rng = np.random.default_rng(200)
        for n in (1, 4, 9):
            u = crandn(rng, n)
            v = crandn(rng, n)
            # numpy's vdot conjugates its first argument
            assert self.inner(u, v) == pytest.approx(np.vdot(v, u), rel=1e-14)

    def test_slot_linearity(self):
        rng = np.random.default_rng(201)
        u, v = crandn(rng, 5), crandn(rng, 5)
        c = 2.0 - 3.0j
        assert self.inner(c * u, v) == pytest.approx(c * self.inner(u, v), rel=1e-13)
        assert self.inner(u, c * v) == pytest.approx(
            np.conj(c) * self.inner(u, v), rel=1e-13
        )


class TestNumericalValue:
    """<A x, x> / <x, x>, on the path the estimator runs."""

    def test_identity_is_exact(self):
        rng = np.random.default_rng(202)
        for n in (1, 2, 4, 8, 16):
            op = LinearOperator(np.eye(n))
            x = crandn(rng, 3, n)  # deliberately not unit
            assert np.all(_quotients(op.apply_batch(x), x) == 1.0 + 0.0j)

    def test_hand_value_matrix_unit(self):
        # <e_01 x, x> at x = (1,1)/sqrt(2): first entry of e_01 x is
        # x[1], so the form gives x[1] * conj(x[0]) = 1/2
        op = LinearOperator(matrix_unit(0, 1, 2))
        x = np.array([[1.0, 1.0]], dtype=np.complex128) / np.sqrt(2.0)
        assert _quotients(op.apply_batch(x), x)[0] == pytest.approx(0.5, abs=1e-15)

    def test_matches_vdot_oracle(self):
        # the estimate is the mean of the values at its own draws, two chunks
        # of them, each value taken here by numpy's vdot
        rng = np.random.default_rng(203)
        a = crandn(rng, 6, 6)
        spec = StreamSpec(203, 0)
        count = sphere.CHUNK_SIZE + 700
        oracle = np.mean([np.vdot(x, a @ x) / np.vdot(x, x)
                          for x in sample_unit_vectors_chunked(spec, 6, count)])
        rep = estimate_trace(a, count, spec)
        assert rep.mean == pytest.approx(oracle, rel=1e-12)

    def test_hermitian_values_are_real(self):
        rng = np.random.default_rng(204)
        g = crandn(rng, 6, 6)
        rep = estimate_trace((g + g.conj().T) / 2, sphere.CHUNK_SIZE + 700, StreamSpec(204, 0))
        assert abs(rep.mean.imag) <= 1e-12 * abs(rep.mean.real)


class TestLinearOperator:
    def test_batch_matches_single(self):
        rng = np.random.default_rng(205)
        a = crandn(rng, 5, 5)
        op = LinearOperator(a)
        x = crandn(rng, 8, 5)
        batch = op.apply_batch(x)
        for j in range(8):
            np.testing.assert_allclose(batch[j], a @ x[j], atol=1e-13)

    def test_shape_validation(self):
        assert LinearOperator(np.eye(3)).apply_batch(np.ones((2, 3))).shape == (2, 3)
        for bad in (np.ones((3, 2)), np.ones(3), np.ones((0, 0))):
            with pytest.raises(ValueError, match="^matrix "):
                estimate_trace(bad, 10, StreamSpec(0, 0))


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

    def test_two_samples_have_a_stderr(self):
        # 0 and 2 + 2i: sample variance (2 + 2) / (2 - 1), its root over sqrt(2)
        stats = stats_from_values(np.array([0j, 2 + 2j]))
        assert (stats.m2_re, stats.m2_im) == (2.0, 2.0)
        assert stats.stderr() == 2.0 / math.sqrt(2) > 0.0

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
                rep = estimate_trace(np.eye(n), n_samples, StreamSpec(123, 0))
                assert rep.mean == 1.0 + 0.0j
                assert rep.stderr == 0.0
                assert rep.ci_radius == 0.0

    def test_matches_exact_trace_within_ci(self):
        rng = np.random.default_rng(209)
        a = crandn(rng, 8, 8)
        rep = estimate_trace(a, 100000, StreamSpec(42, 0))
        exact = normalized_trace(a)
        assert abs(rep.mean - exact) <= 4.0 * rep.stderr

    def test_seeded_reproducibility(self):
        rng = np.random.default_rng(210)
        a = crandn(rng, 4, 4)
        r1 = estimate_trace(a, 3000, StreamSpec(7, 0))
        r2 = estimate_trace(a, 3000, StreamSpec(7, 0))
        r3 = estimate_trace(a, 3000, StreamSpec(8, 0))
        assert r1 == r2
        assert r1.mean != r3.mean

    def test_worker_count_invariance(self, monkeypatch):
        # one thread per CPU, up to one per chunk: 10 chunks on 1, 3 or 8
        # CPUs (neither 3 nor 8 divides 10) give bitwise equal reports
        rng = np.random.default_rng(211)
        a = crandn(rng, 6, 6)
        count = 9 * sphere.CHUNK_SIZE + 17
        reports = []
        for cpus in (1, 3, 8):
            monkeypatch.setattr(sphere, "_cpus", lambda: cpus)
            reports.append(estimate_trace(a, count, StreamSpec(3, 0)))
        assert reports[0] == reports[1] == reports[2]

    def test_default_threads_match_serial(self, monkeypatch):
        # unpatched, the thread count is one per CPU in the process's
        # affinity; with 5 chunks the report equals the one-thread report
        rng = np.random.default_rng(214)
        a = crandn(rng, 7, 7)
        count = 4 * sphere.CHUNK_SIZE + 17
        default = estimate_trace(a, count, StreamSpec(4, 0))
        monkeypatch.setattr(sphere, "_cpus", lambda: 1)
        serial = estimate_trace(a, count, StreamSpec(4, 0))
        assert default == serial

    def test_chunk_memory_is_bounded_by_row_blocks(self, monkeypatch):
        # each of two threads holds one row block of draws, its images and a
        # few row-sized sums, never a chunk's draws (4 MB per chunk at n = 64)
        a = crandn(np.random.default_rng(215), 64, 64)
        peak = peak_of_two_threads(monkeypatch, lambda count, spec: estimate_trace(a, count, spec))
        assert peak < 2 * 3 * BLOCK_64

    def test_linearity_in_operator_at_fixed_seed(self):
        rng = np.random.default_rng(212)
        a = crandn(rng, 5, 5)
        b = crandn(rng, 5, 5)
        alpha, beta = 1.5 - 0.5j, -0.25 + 2j
        spec = StreamSpec(99, 0)
        combined = estimate_trace(alpha * a + beta * b, 2000, spec)
        ra = estimate_trace(a, 2000, spec)
        rb = estimate_trace(b, 2000, spec)
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
        rep = estimate_trace(a, n_samples, StreamSpec(n, 0))
        fro2 = float(np.sum(np.abs(a) ** 2))
        var = (fro2 - abs(np.trace(a)) ** 2 / n) / (n * (n + 1))
        assert 0.97 <= rep.stderr / np.sqrt(var / n_samples) <= 1.03

    def test_stderr_shrinks_with_samples(self):
        rng = np.random.default_rng(213)
        a = crandn(rng, 8, 8)
        small = estimate_trace(a, 25000, StreamSpec(1, 0))
        large = estimate_trace(a, 100000, StreamSpec(1, 0))
        assert 0.4 <= large.stderr / small.stderr <= 0.6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-finite"):  # the matrix is checked first
            estimate_trace([[np.nan]], 0, StreamSpec(0, 0))
        with pytest.raises(ValueError, match="n_samples"):
            estimate_trace(np.eye(2), 0, StreamSpec(0, 0))
        with pytest.raises(ValueError, match="z must be > 0"):
            estimate_trace(np.eye(2), 10, StreamSpec(0, 0), z=0.0)
        with pytest.raises(ValueError, match=r"z = 1e\+308; lower z"):
            estimate_trace(np.diag([100.0, -100.0]), 50, StreamSpec(0, 0), z=1e308)

    def test_report_fields(self):
        rep = estimate_trace(np.eye(3), 50, StreamSpec(4, 2), z=2.5)
        assert rep.dim == 3
        assert rep.sample_count == 50
        assert rep.spec == StreamSpec(4, 2)
        assert rep.ci_radius == 2.5 * rep.stderr
        assert rep.exact == 1.0 and rep.abs_error() == 0.0


class TestSubstitutionIdentity:
    """The sweep at one draw: the Gaussian row GaussianStream(spec).gaussians(2 n), as complex."""

    def test_identity_b_is_exact(self):
        rng = np.random.default_rng(214)
        a = crandn(rng, 4, 4)
        gap, unitarity, _ = substitution_identity_sweep(a, np.eye(4), 1, StreamSpec(6, 0))
        assert gap == 0.0
        assert unitarity == 0.0

    def test_diagonal_phase_unitary(self):
        rng = np.random.default_rng(215)
        a = crandn(rng, 2, 2)
        b = np.diag([1j, -1j])
        gap, _, _ = substitution_identity_sweep(a, b, 1, StreamSpec(7, 0))
        assert gap <= 1e-12

    def test_random_unitaries_within_contract(self):
        rng = np.random.default_rng(216)
        for n in (2, 5, 8):
            a = crandn(rng, n, n)
            q, _ = np.linalg.qr(crandn(rng, n, n))
            gap, _, bound = substitution_identity_sweep(a, q, 1, StreamSpec(n, 0))
            assert gap <= bound

    def test_rejects_non_unitary(self):
        # a huge B whose B*B overflows to nan is no unitary either, and nor is
        # one with rho = 2.8e-12, past gamma_{5 p(2) + 3 sqrt(2)} = 7.2e-14
        huge = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for b in (matrix_unit(0, 0, 2), huge, (1 + 1e-12) * np.eye(2)):
                with pytest.raises(ValueError, match="not unitary"):
                    substitution_identity_sweep(np.eye(2), b, 1, StreamSpec(0, 0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            substitution_identity_sweep(np.eye(2), np.eye(3), 1, StreamSpec(0, 0))


class TestSubstitutionSweep:
    def test_matches_batched_evaluation(self):
        # the chunked sweep's largest gap, bit for bit, against the gaps of
        # the same Gaussian rows taken in 512-row blocks of each 4096-row
        # chunk, as the sweep forms them (gaps of about 1e-15)
        rng = np.random.default_rng(218)
        for n, samples in ((3, 5000), (8, 9000)):
            a = crandn(rng, n, n)
            b, _ = np.linalg.qr(crandn(rng, n, n))
            gaps = []
            for _, rows in sphere.map_chunks(lambda rows: rows, StreamSpec(19, 0), n, samples):
                for lo in range(0, len(rows), 512):
                    z = rows[lo:lo + 512]
                    x = z @ np.conj(b)
                    gaps.append(np.abs(_quotients(x @ (a @ b).T, x)
                                       - _quotients(z @ (b @ a).T, z)))
            max_gap, unitarity, bound = substitution_identity_sweep(
                a, b, samples, StreamSpec(19, 0))
            assert max_gap == float(np.max(np.concatenate(gaps))) > 0.0
            assert unitarity == float(np.linalg.norm(b.conj().T @ b - np.eye(n)))
            assert max_gap <= bound

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
        # under four row blocks per thread: the draws, x = B* z and one product
        rng = np.random.default_rng(224)
        a = crandn(rng, 64, 64)
        b, _ = np.linalg.qr(crandn(rng, 64, 64))
        peak = peak_of_two_threads(
            monkeypatch, lambda count, spec: substitution_identity_sweep(a, b, count, spec))
        assert peak < 2 * 4 * BLOCK_64

    def test_identity_b_gives_zero_gap(self):
        rng = np.random.default_rng(219)
        assert substitution_identity_sweep(
            crandn(rng, 4, 4), np.eye(4), 300, StreamSpec(2, 0)
        )[:2] == (0.0, 0.0)

    def test_huge_matrix_gives_finite_gap(self):
        # A x overflows for some draws, and ||A||_F = 2.1e308, but the gaps
        # and the bound are of A / 2**e, scaled back, so they are finite
        b, _ = np.linalg.qr(crandn(np.random.default_rng(225), 2, 2))
        a = np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, samples in ((a, 64), (OFF_DIAGONAL_HUGE, 1)):
                gap, _, bound = substitution_identity_sweep(a, b, samples, StreamSpec(0, 0))
                assert 0.0 < gap <= bound < np.inf

    def test_rejects_non_unitary_and_mismatch(self):
        with pytest.raises(ValueError, match="not unitary"):
            substitution_identity_sweep(np.eye(2), 2.0 * np.eye(2), 10, StreamSpec(0, 0))
        with pytest.raises(ValueError, match="mismatch"):
            substitution_identity_sweep(np.eye(2), np.eye(3), 10, StreamSpec(0, 0))
        for n_samples in (0, -1):  # no draw checks nothing, so nothing passes
            with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}$"):
                substitution_identity_sweep(np.eye(2), np.eye(2), n_samples, StreamSpec(0, 0))


class TestEstimateMatrixTrace:
    def test_exact_is_the_normalized_trace(self):
        a = crandn(np.random.default_rng(220), 5, 5)
        assert estimate_trace(a, 3000, StreamSpec(8, 0)).exact == normalized_trace(a)

    @pytest.mark.parametrize("a, samples", [
        (np.full((2, 2), 1e308), 16),  # some <A x, x> reach 2e308
        (np.diag([1e160, -1e160]), 16),  # squared deviations reach 1e320
        (OFF_DIAGONAL_HUGE, 1),  # the floor's ||A||_F = 2.1e308
    ])
    def test_huge_matrix_gives_finite_report(self, a, samples):
        # the estimate is of A / 2**e, so nothing overflows before the
        # report is scaled back, and each report is finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = estimate_trace(a, samples, StreamSpec(0, 0))
        assert np.isfinite([rep.mean, rep.stderr, rep.ci_radius, rep.exact,
                            rep.rounding_floor]).all()

    def test_estimate_beyond_float64_asks_to_rescale(self):
        # the one draw's value <A x, x>, of A / 2**e and scaled back, is near
        # 2.6e308 at seed 1: the report itself is no float64
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="trace estimate overflows float64; rescale"):
                estimate_trace(np.full((4, 4), 1e308), 1, StreamSpec(1, 0))

    @pytest.mark.parametrize("seed", [3, 5])
    def test_abs_error_overflow_asks_to_rescale(self, seed):
        # both parts of mean - exact are finite, near 1.2e308; its modulus,
        # which abs() raises OverflowError on, is not
        a = np.diag([1.7e308 * (1 + 1j), -1.7e308 * (1 + 1j)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^abs_error overflows float64; rescale the matrix$"):
                estimate_trace(a, 1, StreamSpec(seed, 0))


def design_rows(p: int) -> np.ndarray:
    """The p (p + 1) unit rows of a complete set of mutually unbiased bases of
    C^p, p prime: the standard basis and v_{a,b}[k] = w^(a k^2 + b k) / sqrt(p),
    w = e^(2 pi i / p) (Wootters & Fields, 1989).  They form a complex
    projective 2-design (Klappenecker & Roetteler, 2005)."""
    k = np.arange(p)
    a, b = np.meshgrid(k, k, indexing="ij")
    phase = (a[..., None] * k * k + b[..., None] * k) % p
    return np.vstack([np.eye(p), np.exp(2j * np.pi * phase / p).reshape(p * p, p) / np.sqrt(p)])


def bernstein_radius(sigma: float, n: int, count: int) -> float:
    """t with 2 exp(-N t^2 / (2 sigma^2 + 2 b t / 3)) = 1e-9, b = sqrt(n (n + 1)) sigma."""
    log = np.log(2e9)
    k = np.sqrt(n * (n + 1)) * log / (3 * count)
    return sigma * (k + np.sqrt(k * k + 2 * log / count))


def gate_passes(rep) -> bool:
    """The comparison cmd_estimate makes."""
    return rep.abs_error() <= rep.radius + rep.rounding_floor


class TestGateRadius:
    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_sphere_variance_is_exact_on_a_2_design(self, p):
        # averages over a 2-design equal sphere averages of degree (1, 1) and
        # (2, 2), so the mean is tr A / p and the mean square deviation is
        # sigma^2 = (||A||_F^2 - |tr A|^2 / p) / (p (p + 1)), to rounding
        a = crandn(np.random.default_rng(700 + p), p, p)
        x = design_rows(p)
        stats = stats_from_values(_quotients(x @ a.T, x))
        exact = np.trace(a) / p
        var = (np.sum(np.abs(a) ** 2) - abs(np.trace(a)) ** 2 / p) / (p * (p + 1))
        assert stats.count == p * (p + 1)
        assert abs(stats.mean - exact) <= 1e-14 * abs(exact)
        assert abs((stats.m2_re + stats.m2_im) / stats.count - var) <= 1e-14 * var

    @pytest.mark.parametrize("n", [2, 8, 64])
    @pytest.mark.parametrize("kind", ["gaussian", "near-identity"])
    def test_no_correct_run_fails_at_few_samples(self, n, kind):
        # the gate's false-failure probability is at most 1e-9 per run
        a = crandn(np.random.default_rng(710 + n), n, n)
        if kind == "near-identity":
            a = np.eye(n) + 1e-9 * a
        failed = [(count, seed) for count in (1, 2, 10) for seed in range(200)
                  if not gate_passes(estimate_trace(a, count, StreamSpec(seed, 0)))]
        assert failed == []

    def test_ci_radius_is_three_standard_errors_by_default(self):
        rep = estimate_trace(crandn(np.random.default_rng(725), 4, 4), 500, StreamSpec(0, 0))
        assert rep.ci_radius == 3.0 * rep.stderr > 0.0

    def test_radius_is_the_bernstein_solution(self):
        a = crandn(np.random.default_rng(720), 5, 5)
        sigma = np.linalg.norm(a - np.trace(a) / 5 * np.eye(5)) / np.sqrt(30)
        for count in (1, 100, 20000):
            rep = estimate_trace(a, count, StreamSpec(0, 0))
            assert rep.radius == pytest.approx(bernstein_radius(sigma, 5, count), rel=1e-12)
        assert estimate_trace(np.eye(3), 10, StreamSpec(0, 0)).radius == 0.0

    def test_radius_does_not_cancel_near_a_multiple_of_i(self):
        # ||A||_F^2 - n |mu|^2 would cancel to rounding here, a radius of 0
        e = crandn(np.random.default_rng(721), 8, 8)
        sigma = 1e-13 * np.linalg.norm(e - np.trace(e) / 8 * np.eye(8)) / np.sqrt(72)
        rep = estimate_trace(np.eye(8) + 1e-13 * e, 1, StreamSpec(0, 0))
        assert rep.radius == pytest.approx(bernstein_radius(sigma, 8, 1), rel=1e-2)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_multiples_of_i_pass_on_rounding_alone(self, n):
        # sigma is 0, or rounding, so the floor alone carries the gate: it
        # bounds the rounding of each sample, of the chunk sums and merges,
        # and of exact
        rng = np.random.default_rng(730 + n)
        for c in crandn(rng, 20):
            for seed in range(50):
                assert gate_passes(estimate_trace(c * np.eye(n), 1, StreamSpec(seed, 0)))
            assert gate_passes(estimate_trace(c * np.eye(n), 5000, StreamSpec(0, 0)))

    @pytest.mark.parametrize("scale", [1.0, 2.0**300, 2.0**-300, 1e300, 5e-324])
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_exact_is_bitwise_normalized_trace(self, n, scale):
        a = scale * crandn(np.random.default_rng(722 + n), n, n)
        rep = estimate_trace(a, 1, StreamSpec(0, 0))
        assert np.array(rep.exact).tobytes() == np.array(normalized_trace(a)).tobytes()

    def test_radius_saturates_to_inf(self):
        # one draw of a 2 x 2 of 1e308: t 2**e is past float64, and every
        # finite error passes an infinite radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = estimate_trace(np.full((2, 2), 1e308), 1, StreamSpec(0, 0))
        assert rep.radius == np.inf and gate_passes(rep)


class TestCommutationRecipe:
    """README's f(AB) = f(BA) check: two estimates on disjoint substreams."""

    @staticmethod
    def reports(a, b, n_samples, spec):
        return estimate_trace(a @ b, n_samples, spec), estimate_trace(
            b @ a, n_samples, spec.offset(2**32))

    @pytest.mark.parametrize("pair, n_samples", [
        ("random", 100000),
        ("matrix-units", 20000),  # e_01 e_10 = e_00, e_10 e_01 = e_11
    ])
    def test_estimates_agree_and_scale_exactly(self, pair, n_samples):
        if pair == "random":
            rng = np.random.default_rng(217)
            a, b = crandn(rng, 4, 4), crandn(rng, 4, 4)
        else:
            a, b = matrix_unit(0, 1, 2), matrix_unit(1, 0, 2)
        spec = StreamSpec(13, 0)
        ab, ba = self.reports(a, b, n_samples, spec)
        assert ab.exact == pytest.approx(ba.exact, rel=1e-12)
        if pair == "matrix-units":
            assert ab.exact == ba.exact == 0.5
        allowed = ab.radius + ab.rounding_floor + ba.radius + ba.rounding_floor
        assert abs(ab.mean - ba.mean) <= allowed
        for k in (1, 60, -400):
            scaled = self.reports(a * 2.0**k, b * 2.0**-k, n_samples, spec)
            assert [repr(r) for r in scaled] == [repr(ab), repr(ba)]


@pytest.mark.parametrize("cpus", [1, 2])
def test_streamed_values_match_whole_chunk_draws(monkeypatch, cpus):
    # estimate and sweep evaluate their draws in 512-row blocks on the pool.
    # The estimate's values must equal the quotients of each chunk's Gaussian
    # rows, not normalized, reduced by the dot products spelled out below, and
    # the sweep's gaps the differences of two such quotients, of the rows z
    # and of x = B* z.  Chunk 1 gives each run its 2n * 4096 words
    n, count = 8, 3 * sphere.CHUNK_SIZE + 100
    spec = StreamSpec(41, 0)
    counted = spec.offset(1)
    original = GaussianStream.raw_words
    taken = []

    def raw_words(self, k):
        if self.spec == counted:
            taken.append(k)
        return original(self, k)

    monkeypatch.setattr(GaussianStream, "raw_words", raw_words)
    layout = list(sphere.chunk_layout(spec, count))
    rows = [GaussianStream(substream).gaussians(2 * n * (hi - lo)).view(complex).reshape(-1, n)
            for lo, hi, substream in layout]
    assert sum(taken) == 2 * n * sphere.CHUNK_SIZE

    def by_blocks(fn, x):
        return np.concatenate([fn(x[b:b + 512]) for b in range(0, len(x), 512)])

    rng = np.random.default_rng(225)
    a = crandn(rng, n, n)
    b, _ = np.linalg.qr(crandn(rng, n, n))
    op = LinearOperator(a)

    def quotients(z, m=a):
        v = z @ m.T
        vf, zf = v.view(float), z.view(float)  # (rows, 2n): re, im interleaved
        sq = np.einsum("ij,ij->i", zf, zf)
        im = np.einsum("ij,ij->i", v.imag, z.real) - np.einsum("ij,ij->i", v.real, z.imag)
        return np.einsum("ij,ij->i", vf, zf) / sq + 1j * (im / sq)

    values = [by_blocks(quotients, z) for z in rows]
    for z, v in zip(rows, values):
        assert by_blocks(lambda x: _quotients(op.apply_batch(x), x), z).tobytes() == v.tobytes()
    total = RunningStats()
    for v in values:
        total = merge_stats(total, stats_from_values(v))

    def gaps(z):
        x = z @ np.conj(b)
        return np.abs(quotients(x, a @ b) - quotients(z, b @ a))

    monkeypatch.setattr(sphere, "_cpus", lambda: cpus)
    taken.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = estimate_trace(a, count, spec)
        sweep = substitution_identity_sweep(a, b, count, spec)
        streamed = [v for _, v in sphere.map_chunks(quotients, spec, n, count)]
    assert sum(taken) == 3 * 2 * n * sphere.CHUNK_SIZE
    assert [v.tobytes() for v in streamed] == [v.tobytes() for v in values]
    assert (report.mean, report.stderr) == (total.mean, total.stderr())
    assert sweep[0] == max(float(np.max(by_blocks(gaps, z))) for z in rows)


@pytest.mark.parametrize("cpus", [1, 2])
def test_zero_row_in_chunk_1_raises(zero_rows, monkeypatch, cpus):
    # from row 1100 of chunk 1 on, every word is 2**63 and every row 0: a
    # row with no direction is no sphere draw, so both runs raise
    n, count = 8, 3 * sphere.CHUNK_SIZE + 100
    spec = StreamSpec(41, 0)
    rng = np.random.default_rng(227)
    a = crandn(rng, n, n)
    b, _ = np.linalg.qr(crandn(rng, n, n))
    monkeypatch.setattr(sphere, "_cpus", lambda: cpus)
    for run in (lambda: estimate_trace(a, count, spec),
                lambda: substitution_identity_sweep(a, b, count, spec)):
        zero_rows(spec.offset(1), n, 1100, 4 * 2 * n * count)
        with pytest.raises(RuntimeError, match="^the sampler drew a row of zero normals"):
            run()
