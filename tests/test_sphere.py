"""Seeded sphere sampling: determinism, layout, and measure sanity."""

import sys

import numpy as np
import pytest
from scipy.special import ndtri

from tracekit import sphere
from tracekit.sphere import (
    CHUNK_OFFSET_PAIRED,
    CHUNK_OFFSET_PROBES,
    GaussianStream,
    StreamSpec,
    gaussian_matrix,
    gaussian_vector,
    sample_unit_vector,
    sample_unit_vectors,
    sample_unit_vectors_chunked,
)

CHUNK = sphere.CHUNK_SIZE


class TestStreamSpec:
    def test_defaults_and_fields(self):
        spec = StreamSpec(42)
        assert spec.stream_index == 0
        assert StreamSpec(42, 7).stream_index == 7

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            StreamSpec(-1)
        with pytest.raises(ValueError):
            StreamSpec(2**64)
        with pytest.raises(ValueError):
            StreamSpec(0, -3)

    def test_rejects_non_integers(self):
        with pytest.raises(ValueError):
            StreamSpec(1.5)
        with pytest.raises(ValueError):
            StreamSpec(True)

    def test_offset(self):
        spec = StreamSpec(9, 2)
        assert spec.offset(5) == StreamSpec(9, 7)

    def test_hashable_and_frozen(self):
        spec = StreamSpec(1, 2)
        assert spec in {spec}
        with pytest.raises(Exception):
            spec.master_seed = 3

    def test_reserved_offsets_are_distinct(self):
        assert CHUNK_OFFSET_PAIRED != CHUNK_OFFSET_PROBES
        assert CHUNK_OFFSET_PAIRED == 2**32
        assert CHUNK_OFFSET_PROBES == 2**48


class TestDeterminism:
    def test_same_spec_same_draws(self):
        a = GaussianStream(StreamSpec(5, 1)).gaussians(64)
        b = GaussianStream(StreamSpec(5, 1)).gaussians(64)
        assert np.array_equal(a, b)

    def test_different_index_different_draws(self):
        a = GaussianStream(StreamSpec(5, 1)).gaussians(64)
        b = GaussianStream(StreamSpec(5, 2)).gaussians(64)
        c = GaussianStream(StreamSpec(6, 1)).gaussians(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_batched_draws_match_sequential(self):
        # counter-based consumption: splitting a request must not change
        # the draws
        whole = GaussianStream(StreamSpec(3, 0)).gaussians(35)
        stream = GaussianStream(StreamSpec(3, 0))
        parts = np.concatenate(
            [stream.gaussians(10), stream.gaussians(20), stream.gaussians(5)]
        )
        assert np.array_equal(whole, parts)

    def test_gaussian_mapping_frozen(self, monkeypatch):
        # the word -> normal mapping is a fixed contract:
        # u = min(((word >> 11) + 0.5) * 2**-53, 1 - 2**-53), z = ndtri(u);
        # the edge words 0, 2**63 and 2**64 - 1 go through a stub raw_words
        spec = StreamSpec(11, 4)
        raw = GaussianStream(spec).raw_words(256)
        edges = np.array([0, 2**63, 2**64 - 1], dtype=np.uint64)
        stub = GaussianStream(spec)
        monkeypatch.setattr(stub, "raw_words", lambda count: edges.copy())
        for words, stream in ((raw, GaussianStream(spec)), (edges, stub)):
            u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
            expected = ndtri(np.minimum(u, 1.0 - 2.0**-53))
            assert np.array_equal(stream.gaussians(words.size), expected)

    def test_all_ones_word_gives_finite_normal(self, monkeypatch):
        # the top 53 bits all ones would map to u = 1.0 and ndtri(1.0) = inf;
        # that word is clamped to the largest grid point below 1
        stream = GaussianStream(StreamSpec(0, 0))
        monkeypatch.setattr(
            stream, "raw_words", lambda count: np.full(count, 2**64 - 1, dtype=np.uint64)
        )
        g = stream.gaussians(2)
        assert np.all(np.isfinite(g))
        assert np.array_equal(g, ndtri(np.full(2, 1.0 - 2.0**-53)))

    def test_only_the_middle_word_maps_to_zero(self, monkeypatch):
        # top 53 bits 2**52 + d, d in -3..3, with and without low bits: only
        # d = 0 gives u = 0.5 and the normal 0, and every other normal is far
        # from underflow, so a row norm is 0 exactly when all its normals are
        top = (2**52 + np.arange(-3, 4, dtype=np.int64)).astype(np.uint64) << np.uint64(11)
        words = np.concatenate([top, top | np.uint64(2**11 - 1)])
        stream = GaussianStream(StreamSpec(0, 0))
        monkeypatch.setattr(stream, "raw_words", lambda count: words.copy())
        g = stream.gaussians(words.size)
        zero = np.tile(np.arange(-3, 4) == 0, 2)
        assert np.all(g[zero] == 0.0)
        assert np.min(np.abs(g[~zero])) > 1e-16

    def test_unit_vector_entry_layout(self):
        # entry k of a vector uses words (2k, 2k+1) as (re, im), and the
        # row is divided by sqrt(sum(re^2 + im^2))
        spec = StreamSpec(8, 0)
        g = GaussianStream(spec).gaussians(6)
        z = g[0::2] + 1j * g[1::2]
        expected = z / np.sqrt(np.sum(z.real * z.real + z.imag * z.imag))
        assert np.array_equal(sample_unit_vector(GaussianStream(spec), 3), expected)


def test_gaussian_vector_and_matrix_agree_on_consumption():
    spec = StreamSpec(21, 3)
    v = gaussian_vector(GaussianStream(spec), 4)
    m = gaussian_matrix(GaussianStream(spec), 2)
    assert np.array_equal(v.reshape(2, 2), m)


def test_gaussian_moments():
    n = 200000
    g = GaussianStream(StreamSpec(1234, 0)).gaussians(n)
    assert abs(g.mean()) <= 5.0 / np.sqrt(n)
    assert abs(g.var() - 1.0) <= 5.0 * np.sqrt(2.0 / n)


def test_unit_norm_across_dims():
    for n in (1, 2, 3, 8, 16):
        x = sample_unit_vectors(GaussianStream(StreamSpec(77, 0)), n, 500)
        np.testing.assert_allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)


def test_scalar_samples_have_unit_modulus():
    x = sample_unit_vectors(GaussianStream(StreamSpec(78, 0)), 1, 100)
    np.testing.assert_allclose(np.abs(x[:, 0]), 1.0, atol=1e-12)


def _one_batch(words: np.ndarray, n: int) -> np.ndarray:
    """The sampler's formula applied to all rows at once: words -> normals,
    (re, im) pairs -> complex rows, rows divided by their norms."""
    u = np.minimum(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53,
                   1.0 - 2.0**-53)
    z = ndtri(u).view(np.complex128).reshape(-1, n)
    return z / np.sqrt(np.sum(z.real * z.real + z.imag * z.imag, axis=1))[:, None]


def test_row_blocks_match_one_batch_formula():
    # the sampler fills its rows block by block; a count that is no multiple
    # of the block height gives the same bits as one batch
    n, count = 5, 2 * sphere._BLOCK_ROWS + 37
    spec = StreamSpec(12, 3)
    words = GaussianStream(spec).raw_words(2 * n * count)
    got = sample_unit_vectors(GaussianStream(spec), n, count)
    assert got.shape == (count, n) and got.flags.c_contiguous
    assert got.tobytes() == _one_batch(words, n).tobytes()


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_multiply_by_inverse_norm_is_the_division_bitwise(n, monkeypatch):
    # the sampler multiplies each row by 1 / norm, which equals numpy's
    # complex / real division unless an entry is -0.0; every third word here
    # is 2**63 (top 53 bits 2**52), whose normal is +0.0, and no row is all 0
    count = sphere._BLOCK_ROWS + 9
    words = GaussianStream(StreamSpec(14, n)).raw_words(2 * n * count)
    words[::3] = 2**63
    stream = GaussianStream(StreamSpec(14, n))
    taken = []

    def raw_words(k):
        start = sum(taken)
        taken.append(k)
        return words[start:start + k].copy()

    monkeypatch.setattr(stream, "raw_words", raw_words)
    got = sample_unit_vectors(stream, n, count)
    assert sum(taken) == words.size  # no redraw
    zeros = got.view(np.float64).reshape(-1)[::3]
    assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
    assert got.tobytes() == _one_batch(words, n).tobytes()


def test_underflow_in_later_block_redraws_after_whole_chunk(monkeypatch):
    # the word 2**63 maps to u = 0.5, whose normal is exactly 0; a row made
    # of it has norm 0 and is redrawn from the words after all 2n * count
    n, count = 3, sphere._BLOCK_ROWS + 40
    row = sphere._BLOCK_ROWS + 7
    spec = StreamSpec(13, 0)
    words = GaussianStream(spec).raw_words(2 * n * (count + 1))
    stub_words = words.copy()
    stub_words[2 * n * row:2 * n * (row + 1)] = 2**63
    stream = GaussianStream(spec)
    taken = []

    def raw_words(k):
        start = sum(taken)
        taken.append(k)
        return stub_words[start:start + k].copy()

    monkeypatch.setattr(stream, "raw_words", raw_words)
    got = sample_unit_vectors(stream, n, count)
    assert sum(taken) == 2 * n * (count + 1)
    assert taken[-1] == 2 * n  # the redraw comes last, after every block
    expected = _one_batch(words[:2 * n * count], n)
    expected[row] = _one_batch(words[2 * n * count:], n)[0]
    assert got.tobytes() == expected.tobytes()


def test_single_vector_matches_first_of_batch():
    one = sample_unit_vector(GaussianStream(StreamSpec(9, 0)), 5)
    batch = sample_unit_vectors(GaussianStream(StreamSpec(9, 0)), 5, 3)
    assert np.array_equal(one, batch[0])


def test_validation_errors():
    stream = GaussianStream(StreamSpec(0, 0))
    with pytest.raises(ValueError):
        sample_unit_vectors(stream, 0, 4)
    with pytest.raises(ValueError):
        sample_unit_vectors(stream, 3, -1)
    with pytest.raises(ValueError):
        gaussian_vector(stream, 0)
    with pytest.raises(ValueError):
        stream.gaussians(-1)
    with pytest.raises(ValueError):
        sample_unit_vectors_chunked(StreamSpec(0, 0), 3, -1)
    with pytest.raises(ValueError, match="reserved"):  # raised before any allocation
        sample_unit_vectors_chunked(StreamSpec(0, 0), 3, CHUNK_OFFSET_PAIRED * CHUNK + 1)


class TestChunkedLayout:
    def test_matches_per_stream_assembly(self):
        # vector j must come from substream j // CHUNK_SIZE regardless
        # of how the work is divided
        spec = StreamSpec(31, 10)
        count = 2 * CHUNK + 1000
        got = sample_unit_vectors_chunked(spec, 4, count)
        expected = np.vstack(
            [
                sample_unit_vectors(
                    GaussianStream(spec.offset(c)), 4, min(CHUNK, count - CHUNK * c)
                )
                for c in range(3)
            ]
        )
        assert np.array_equal(got, expected)

    def test_worker_partition_invariance(self):
        # simulate two workers taking alternating chunks; reassembling
        # their output by chunk index reproduces the sequential draws
        spec = StreamSpec(32, 0)
        sequential = sample_unit_vectors_chunked(spec, 3, 4 * CHUNK)
        chunks = {}
        for worker in (0, 1):
            for c in range(worker, 4, 2):
                chunks[c] = sample_unit_vectors(GaussianStream(spec.offset(c)), 3, CHUNK)
        reassembled = np.vstack([chunks[c] for c in range(4)])
        assert np.array_equal(sequential, reassembled)

    def test_threaded_matches_serial(self, monkeypatch):
        # 7 chunks on 3 threads (more than the CPUs of a small machine), switching
        # threads often: the same bits as one thread
        spec = StreamSpec(34, 5)
        monkeypatch.setattr(sphere, "_cpus", lambda: 1)
        serial = sample_unit_vectors_chunked(spec, 4, 6 * CHUNK + 11)
        monkeypatch.setattr(sphere, "_cpus", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = sample_unit_vectors_chunked(spec, 4, 6 * CHUNK + 11)
        finally:
            sys.setswitchinterval(interval)
        assert threaded.tobytes() == serial.tobytes()

    def test_map_chunks_order_and_errors(self, monkeypatch):
        # fn gets row blocks of the draws, and each chunk's start and per-row
        # results come back in chunk order for any thread count; the first
        # failing chunk in that order raises
        spec, n, count = StreamSpec(35, 0), 2, 6 * CHUNK + 100
        layout = [
            (lo, sample_unit_vectors(GaussianStream(substream), n, hi - lo))
            for lo, hi, substream in sphere.chunk_layout(spec, count)
        ]
        for cpus in (1, 2, 5):
            monkeypatch.setattr(sphere, "_cpus", lambda: cpus)
            got = list(sphere.map_chunks(lambda x: x, spec, n, count))
            assert [lo for lo, _ in got] == [lo for lo, _ in layout]
            assert all(x.tobytes() == y.tobytes() for (_, x), (_, y) in zip(got, layout))

        # chunks 4, 5 and 6 fail, each on its first row
        firsts = {lo: x[0] for lo, x in layout if lo >= 4 * CHUNK}

        def fail_from_chunk_4(x):
            for lo, first in firsts.items():
                if np.any(np.all(x == first, axis=1)):
                    raise RuntimeError(f"chunk at {lo}")
            return x[:, 0]

        monkeypatch.setattr(sphere, "_cpus", lambda: 3)
        results = sphere.map_chunks(fail_from_chunk_4, spec, n, count)
        assert [next(results)[0] for _ in range(4)] == [0, CHUNK, 2 * CHUNK, 3 * CHUNK]
        with pytest.raises(RuntimeError, match=f"chunk at {4 * CHUNK}"):
            next(results)

    def test_prefix_stability(self):
        # a longer run extends a shorter one without changing its draws
        spec = StreamSpec(33, 0)
        short = sample_unit_vectors_chunked(spec, 2, CHUNK + 300)
        long = sample_unit_vectors_chunked(spec, 2, 3 * CHUNK + 100)
        assert np.array_equal(long[:CHUNK + 300], short)


def test_coordinate_weight_concentration():
    # E|x_i|^2 = 1/n on the sphere; 5-standard-error band
    n, count = 4, 20000
    x = sample_unit_vectors_chunked(StreamSpec(55, 0), n, count)
    weights = np.abs(x) ** 2
    for i in range(n):
        column = weights[:, i]
        stderr = column.std(ddof=1) / np.sqrt(count)
        assert abs(column.mean() - 1.0 / n) <= 5.0 * stderr
