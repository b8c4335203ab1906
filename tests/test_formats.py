"""Matrix Market and JSON round-trips, cross-checked against scipy.io."""

import gc
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
import scipy.io

from tracekit import formats
from tracekit.estimator import EstimateReport
from tracekit.formats import (
    MatrixMarketError,
    complex_pair,
    dumps,
    matrix_pairs,
    parse_json_dense,
    parse_matrix_market,
    write_json_dense,
    write_matrix_market,
    write_report_json,
)
from tracekit.sphere import StreamSpec
from tracekit.unitary import decompose_into_unitaries


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestMatrixMarketParse:
    def test_array_identity(self):
        text = "\n".join(
            [
                "%%MatrixMarket matrix array real general",
                "% a comment",
                "2 2",
                "1.0",
                "0.0",
                "0.0",
                "1.0",
            ]
        )
        assert np.array_equal(parse_matrix_market(text), np.eye(2))

    def test_array_complex_column_major(self):
        text = "\n".join(
            [
                "%%MatrixMarket matrix array complex general",
                "2 2",
                "1 10",
                "2 20",
                "3 30",
                "4 40",
            ]
        )
        expected = np.array([[1 + 10j, 3 + 30j], [2 + 20j, 4 + 40j]])
        assert np.array_equal(parse_matrix_market(text), expected)

    def test_coordinate_hermitian_expansion(self):
        # entry (2,1) = (0,1) must mirror to (1,2) = (0,-1)
        text = "\n".join(
            [
                "%%MatrixMarket matrix coordinate complex hermitian",
                "2 2 2",
                "1 1 3 0",
                "2 1 0 1",
            ]
        )
        a = parse_matrix_market(text)
        expected = np.array([[3.0, -1j], [1j, 0.0]])
        assert np.array_equal(a, expected)
        assert np.linalg.norm(a - a.conj().T) == 0.0

    def test_array_symmetric_expansion(self):
        text = "\n".join(
            [
                "%%MatrixMarket matrix array real symmetric",
                "2 2",
                "1",
                "5",
                "2",
            ]
        )
        expected = np.array([[1.0, 5.0], [5.0, 2.0]])
        assert np.array_equal(parse_matrix_market(text), expected)

    def test_array_hermitian_expansion_exactly_self_adjoint(self):
        rng = np.random.default_rng(500)
        h = crandn(rng, 5, 5)
        h = h + h.conj().T
        lines = ["%%MatrixMarket matrix array complex hermitian", "5 5"]
        for j in range(5):
            for i in range(j, 5):
                value = h[i, j] if i != j else complex(h[i, j].real)
                lines.append("%.17g %.17g" % (value.real, value.imag))
        a = parse_matrix_market("\n".join(lines))
        assert np.linalg.norm(a - a.conj().T) == 0.0

    def test_integer_field(self):
        text = "\n".join(
            [
                "%%MatrixMarket matrix coordinate integer general",
                "2 2 2",
                "1 2 7",
                "2 1 -3",
            ]
        )
        expected = np.array([[0.0, 7.0], [-3.0, 0.0]])
        assert np.array_equal(parse_matrix_market(text), expected)

    def test_coordinate_duplicates_sum(self):
        text = "\n".join(
            [
                "%%MatrixMarket matrix coordinate real general",
                "1 1 2",
                "1 1 2.5",
                "1 1 0.5",
            ]
        )
        assert parse_matrix_market(text)[0, 0] == 3.0

    def test_coordinate_duplicates_sum_in_file_order(self):
        # float addition is not associative: 1e16 + 1 rounds back to 1e16
        head = "%%MatrixMarket matrix coordinate real general\n1 1 3\n"
        assert parse_matrix_market(head + "1 1 1e16\n1 1 1\n1 1 -1e16\n")[0, 0] == 0.0
        assert parse_matrix_market(head + "1 1 1e16\n1 1 -1e16\n1 1 1\n")[0, 0] == 1.0

    def test_signed_zeros_kept(self):
        real = parse_matrix_market("%%MatrixMarket matrix array real general\n2 1\n-0\n0\n")
        assert np.signbit(real.real).ravel().tolist() == [True, False]
        assert not np.signbit(real.imag).any()
        pairs = parse_matrix_market(
            "%%MatrixMarket matrix array complex general\n1 2\n-0 -0\n0.0 -0.0\n"
        )
        assert np.signbit(pairs.real).ravel().tolist() == [True, False]
        assert np.signbit(pairs.imag).ravel().tolist() == [True, True]

    def test_accepts_bytes(self):
        text = b"%%MatrixMarket matrix array real general\n1 1\n2.0\n"
        assert parse_matrix_market(text)[0, 0] == 2.0

    def test_matches_scipy_on_own_output(self):
        rng = np.random.default_rng(501)
        a = crandn(rng, 4, 3)
        parsed = parse_matrix_market(write_matrix_market(a))
        via_scipy = scipy.io.mmread(io.StringIO(write_matrix_market(a)))
        assert np.array_equal(parsed, np.asarray(via_scipy))

    def test_matches_scipy_on_scipy_output(self):
        rng = np.random.default_rng(502)
        a = crandn(rng, 5, 5)
        buf = io.BytesIO()
        scipy.io.mmwrite(buf, a)
        text = buf.getvalue().decode()
        assert np.allclose(parse_matrix_market(text), a, atol=1e-15)

    @pytest.mark.parametrize("n", [64, 256])
    def test_parse_peak_is_under_five_times_the_text(self, n):
        # the reader holds its lines, then its data once, and makes no Python
        # string per number: about 4x the text, where it was 8.7x
        text = write_matrix_market(crandn(np.random.default_rng(n), n, n))
        parse_matrix_market(text)  # the grammar's regex compiled before tracing
        tracemalloc.start()
        try:
            parse_matrix_market(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * len(text)

    def test_edge_tokens_read_as_float(self):
        # every separator of the grammar, at line starts, between tokens and
        # at line ends; each token reads as the bits float() gives it
        tokens = ["1.", ".5", "+1", "-0", "007", "1E+05", "5e-324", "-.0", "+0.",
                  "2.2250738585072011e-308", "1.7976931348623157e308", "1e-400",
                  "-1e-400", "9007199254740993", "1" + "0" * 299, "0." + "0" * 300 + "7"]
        seps = [" ", "\t", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f"]
        lines = [seps[k % 9] + tokens[2 * k] + seps[(k + 1) % 9] + tokens[2 * k + 1]
                 + seps[(k + 2) % 9] for k in range(len(tokens) // 2)]
        text = "%%MatrixMarket matrix array complex general\n8 1\n" + "\n".join(lines)
        parsed = parse_matrix_market(text)
        assert parsed.view(np.float64).tobytes() == np.array([float(t) for t in tokens]).tobytes()

    def test_files_without_data(self):
        # a line of separators alone is blank, so no empty data reaches the
        # conversion, which would read " " as -1.0; a coordinate file may hold
        # no entries, and reads as zeros
        with pytest.raises(MatrixMarketError, match="^line 2: expected 1 entries, found 0$"):
            parse_matrix_market("%%MatrixMarket matrix array real general\n1 1\n \t\x1c\r\n")
        empty = parse_matrix_market("%%MatrixMarket matrix coordinate real general\n2 3 0\n \n")
        assert np.array_equal(empty, np.zeros((2, 3))) and not np.signbit(empty.view(float)).any()

    @pytest.mark.parametrize("fmt, size, data, a", [
        ("array", "0" * 5000 + "1 1", "2.5", [[2.5]]),
        ("array", "+" + "0" * 5000 + "2 1", "2.5\n0", [[2.5], [0]]),
        ("coordinate", "1 1 " + "0" * 5000 + "1", "1 1 2.5", [[2.5]]),
    ], ids=["array", "array-signed", "coordinate-count"])
    def test_zero_padded_size_reads_as_its_value(self, fmt, size, data, a):
        # int() refuses more than 4300 digits, leading zeros included
        text = f"%%MatrixMarket matrix {fmt} real general\n% padded\n{size}\n{data}\n"
        assert np.array_equal(parse_matrix_market(text), a)


class TestMatrixMarketErrors:
    def test_bad_header(self):
        with pytest.raises(MatrixMarketError, match="line 1"):
            parse_matrix_market("%%NotMatrixMarket matrix array real general\n1 1\n0\n")
        with pytest.raises(MatrixMarketError, match="line 1"):
            parse_matrix_market("")

    def test_unsupported_variants(self):
        for header in (
            "%%MatrixMarket matrix array pattern general",
            "%%MatrixMarket matrix array real skew-symmetric",
            "%%MatrixMarket vector array real general",
            "%%MatrixMarket matrix list real general",
        ):
            with pytest.raises(MatrixMarketError, match="line 1"):
                parse_matrix_market(header + "\n1 1\n0\n")

    def test_wrong_entry_count_names_line(self):
        text = "%%MatrixMarket matrix array complex general\n2 2\n1 0\n2 0\n3 0\n"
        with pytest.raises(MatrixMarketError, match="line 5"):
            parse_matrix_market(text)

    def test_extra_entries_name_line(self):
        text = "%%MatrixMarket matrix array real general\n1 1\n1\n2\n"
        with pytest.raises(MatrixMarketError, match="line 4"):
            parse_matrix_market(text)

    def test_out_of_range_index_names_line(self):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 5.0\n"
        with pytest.raises(MatrixMarketError, match="line 3.*out of range"):
            parse_matrix_market(text)

    def test_bad_number_names_line(self):
        text = "%%MatrixMarket matrix array real general\n1 1\nabc\n"
        with pytest.raises(MatrixMarketError, match="line 3"):
            parse_matrix_market(text)

    def test_nonfinite_rejected(self):
        for token in ("nan", "-nan", "inf", "Infinity", "-INFINITY", "1e999", "1" + "0" * 399):
            text = f"%%MatrixMarket matrix array real general\n1 1\n{token}\n"
            with pytest.raises(MatrixMarketError, match="^line 3: non-finite value"):
                parse_matrix_market(text)

    def test_integer_field_rejects_non_integers(self):
        head = "%%MatrixMarket matrix array integer general\n2 1\n3\n"
        for tok in ("1.5", "2e0", "inf"):
            with pytest.raises(MatrixMarketError, match="line 4"):
                parse_matrix_market(head + tok + "\n")
        # an integer too large for a double is non-finite, not an overflow
        with pytest.raises(MatrixMarketError, match="line 4: non-finite"):
            parse_matrix_market(head + "9" * 400 + "\n")

    @pytest.mark.parametrize("text, line", [
        # each file has two faults, the later kind on the earlier line; the
        # kinds are reported in the order: a line outside the grammar, the
        # entry count, an index out of range, row < column in symmetric
        # storage, a non-finite value, a hermitian diagonal imaginary part
        ("coordinate real general\n2 2 2\n3 1 1.0\n1 1 x\n", "line 4: expected"),
        ("coordinate real general\n2 2 1\n3 1 1.0\n1 1 1.0\n", "line 4: extra data"),
        ("coordinate real symmetric\n2 2 2\n1 2 1.0\n3 1 1.0\n", "line 4: index out of"),
        ("coordinate real symmetric\n2 2 2\n1 1 nan\n1 2 1.0\n", "line 4: symmetric storage"),
        ("coordinate complex hermitian\n2 2 2\n1 1 1 1\n2 1 inf 0\n", "line 4: non-finite"),
        # a short file too: its one line, outside the grammar, comes first
        ("array real general\n2 2\nabc\n", "line 3: expected one real number"),
    ], ids=["grammar", "count", "index", "row-column", "non-finite", "grammar-short"])
    def test_faults_reported_by_kind(self, text, line):
        with pytest.raises(MatrixMarketError, match="^" + line):
            parse_matrix_market("%%MatrixMarket matrix " + text)

    def test_symmetric_requires_square(self):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n"
        with pytest.raises(MatrixMarketError, match="square"):
            parse_matrix_market(text)

    def test_upper_triangle_rejected_for_hermitian(self):
        text = "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n1 2 0 1\n"
        with pytest.raises(MatrixMarketError, match="row >= column"):
            parse_matrix_market(text)

    def test_hermitian_diagonal_must_be_real(self):
        text = "%%MatrixMarket matrix coordinate complex hermitian\n2 2 1\n1 1 1 1\n"
        with pytest.raises(MatrixMarketError, match="imaginary"):
            parse_matrix_market(text)

    def test_missing_size_line(self):
        with pytest.raises(MatrixMarketError, match="size"):
            parse_matrix_market("%%MatrixMarket matrix array real general\n")

    @pytest.mark.parametrize("fmt, size, message", [
        ("array", "1" + "0" * 5000 + " 1", "size out of range"),
        ("array", "-" + "9" * 5000 + " 1", "size out of range"),
        ("coordinate", "1 1 1" + "0" * 5000, "size out of range"),
        ("coordinate", "1 1 -" + "9" * 5000, "size out of range"),
        # each size has 2201 digits and is read; the dense bytes have 4402
        ("coordinate", " ".join(["3" + "0" * 2200] * 2) + " 1",
         "a dense 3" + "0" * 2200 + " x 3" + "0" * 2200 + " complex matrix needs ~10**4402 bytes"),
    ], ids=["array", "array-negative", "coordinate-count", "coordinate-negative-count",
            "dense-bytes"])
    def test_size_past_the_int_digit_limit_names_the_size_line(self, fmt, size, message):
        text = f"%%MatrixMarket matrix {fmt} real general\n{size}\n1 1 1\n"
        with pytest.raises(MatrixMarketError, match="^line 2: " + re.escape(message)):
            parse_matrix_market(text)

    def test_entry_count_past_the_int_digit_limit_names_the_last_line(self):
        # each size has 2201 digits, their product 4401: the count fault still
        # names the last data line, and gives the count's power of ten
        size = " ".join(["3" + "0" * 2200] * 2)
        with pytest.raises(MatrixMarketError,
                           match=r"^line 4: expected ~10\*\*4400 entries, found 2$"):
            parse_matrix_market(f"%%MatrixMarket matrix array real general\n{size}\n1\n2\n")


class TestMatrixMarketWrite:
    def test_exact_round_trip(self):
        rng = np.random.default_rng(503)
        for trial in range(100):
            n = int(rng.integers(1, 9))
            a = crandn(rng, n, n)
            assert np.array_equal(parse_matrix_market(write_matrix_market(a)), a)

    def test_one_by_one_layout(self):
        text = write_matrix_market(np.array([[1.0 + 2.0j]]))
        lines = text.splitlines()
        assert lines[0] == "%%MatrixMarket matrix array complex general"
        assert lines[1] == "1 1"
        assert [float(tok) for tok in lines[2].split()] == [1.0, 2.0]

    def test_comment_lines(self):
        # comments stay free text: non-ASCII and '_' are only refused in numbers
        header, rest = write_matrix_market(np.eye(1)).split("\n", 1)
        for comment in ("% first\n% second", "% naïve ١ 1_0"):
            text = f"{header}\n{comment}\n{rest}"
            assert np.array_equal(parse_matrix_market(text), np.eye(1))

    def test_template_matches_per_entry_formula(self):
        a = np.array([[complex(-0.0, 0.0), complex(5e-324, -0.0), 1e308],
                      [complex(-1e308, 1e308), complex(0.1, -2.5), complex(3.0, -0.0)]])
        lines = ["%%MatrixMarket matrix array complex general", "2 3"]
        for j in range(3):
            for i in range(2):
                lines.append("%.17g %.17g" % (a[i, j].real, a[i, j].imag))
        expected = "\n".join(lines) + "\n"
        assert write_matrix_market(a) == expected
        assert write_matrix_market(np.asfortranarray(a)) == expected
        assert parse_matrix_market(expected).tobytes() == a.tobytes()

    def test_deterministic_bytes(self):
        rng = np.random.default_rng(504)
        a = crandn(rng, 3, 3)
        assert write_matrix_market(a) == write_matrix_market(a.copy())


class TestJsonDense:
    def test_identity(self):
        assert np.array_equal(
            parse_json_dense("[[[1,0],[0,0]],[[0,0],[1,0]]]"), np.eye(2)
        )

    def test_exact_round_trip(self):
        # bitwise: -0.0 is written as "-0", which must not read as the integer 0
        rng = np.random.default_rng(505)
        for trial in range(100):
            rows = int(rng.integers(1, 7))
            a = crandn(rng, rows, rows)
            a.flat[rng.integers(0, a.size, 3)] = [-0.0, complex(0.0, -0.0), -5e-324]
            assert parse_json_dense(write_json_dense(a)).tobytes() == a.tobytes()

    def test_ragged_rejected(self):
        with pytest.raises(ValueError, match="row 1"):
            parse_json_dense("[[[1,0],[0,0]],[[0,0]]]")

    def test_non_numeric_rejected(self):
        with pytest.raises(ValueError, match="number"):
            parse_json_dense('[[["a",0]]]')
        with pytest.raises(ValueError, match="number"):
            parse_json_dense("[[[true,0]]]")

    def test_integer_beyond_float_range_rejected(self):
        # float() raises OverflowError, an ArithmeticError, on such an integer
        huge = "1" + "0" * 400
        with pytest.raises(ValueError, match=r"entry \(0, 0\)\[0\]: non-finite value"):
            parse_json_dense(f"[[[{huge}, 0]]]")

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="JSON"):
            parse_json_dense("not json")
        with pytest.raises(ValueError, match="nested too deeply"):
            parse_json_dense("[" * 100000 + "]" * 100000)
        with pytest.raises(ValueError, match="pair"):
            parse_json_dense("[[[1,0,0]]]")
        with pytest.raises(ValueError, match="array"):
            parse_json_dense("{}")


class TestDeterministicJson:
    def test_fixed_formatting(self):
        doc = {"b": 1.5, "a": [1, 2.25, None, "x"], "flag": True}
        assert dumps(doc) == '{"b": 1.5, "a": [1, 2.25, null, "x"], "flag": true}'

    def test_float_precision_survives(self):
        x = 0.1 + 0.2
        assert json.loads(dumps([x]))[0] == x

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            dumps([np.inf])
        for bad in (np.array([[1.0, np.nan]], dtype=complex),
                    np.array([1.0, complex(0.0, -np.inf)])):
            with pytest.raises(ValueError, match="non-finite float (nan|-inf)"):
                dumps(bad)
        # the first in document order, also past an array that a later
        # conjugate transpose would reuse
        u = crandn(np.random.default_rng(32), 3, 3)
        bad = np.conj(u).T.copy()
        bad[2, 1] = complex(-np.inf, np.nan)
        with pytest.raises(ValueError, match="non-finite float -inf"):
            dumps({"u": u, "bad": bad, "x": np.nan})
        with pytest.raises(ValueError, match="non-finite float nan"):
            dumps({"x": np.nan, "u": u, "bad": bad})

    def test_complex_array_as_pairs(self):
        # an array is written as the same text as its nested [re, im] lists,
        # whatever its memory order, signed zeros and subnormals included
        a = crandn(np.random.default_rng(30), 6, 5)
        a[0, :3] = [complex(-0.0, 0.0), complex(5e-324, -0.0), complex(-2.2e-308, 1e308)]
        for m in (a, np.asfortranarray(a), a[::2, 1::2], a.T):
            assert dumps(m) == dumps(matrix_pairs(m))
            assert dumps({"u": m}) == dumps({"u": matrix_pairs(m)})
        # a conjugate transpose reuses the digits of its original
        s = a[:5].copy()
        s[1, :4] = [complex(0.0, -0.0), complex(-5e-324, 5e-324),
                    complex(2.2e-308, -1e-310), complex(-1.7976931348623157e308, -0.0)]
        pair = [s, np.conj(s).T, s, np.conj(s)]
        assert dumps(pair) == dumps([matrix_pairs(m) for m in pair])
        assert dumps(a[0]) == dumps([complex_pair(z) for z in a[0]])
        assert dumps(a.reshape(3, 2, 5)) == dumps(
            [matrix_pairs(block) for block in a.reshape(3, 2, 5)])
        for shape, text in (((0,), "[]"), ((2, 0), "[[], []]"), ((0, 3), "[]")):
            assert dumps(np.zeros(shape, dtype=complex)) == text

    def test_conjugate_transpose_reuses_digits(self, monkeypatch):
        # only a square array bitwise equal to conj(earlier).T is rebuilt
        # from the earlier text; a sign-flipped zero is a different array
        calls = []
        reuse = formats._conjugate_transpose
        monkeypatch.setattr(formats, "_conjugate_transpose",
                            lambda text, n: calls.append(n) or reuse(text, n))
        u = crandn(np.random.default_rng(31), 4, 4)
        u[0, 1] = complex(1.0, 0.0)
        flipped = np.conj(u).T.copy()
        flipped[1, 0] = complex(1.0, 0.0)  # conj gives (1.0, -0.0)
        shifted = np.conj(u).T.copy()
        shifted.real += 1.0
        doc = [u, u.T, flipped, shifted, np.conj(u).T, np.conj(u[:3]).T,
               np.conj(np.conj(u).T).T]
        assert dumps(doc) == dumps([matrix_pairs(m) for m in doc])
        assert calls == [4, 4]

    def test_dumps_leaves_no_cyclic_garbage(self):
        # garbage in a reference cycle waits for the cyclic collector, so
        # every formatted array would stay alive until it ran
        dec = decompose_into_unitaries(crandn(np.random.default_rng(33), 6, 6))
        doc = {"terms": [{"coefficient": complex_pair(c), "unitary": u}
                         for c, u in zip(dec.coefficients, dec.unitaries)]}
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            dumps(doc)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_rejects_unknown_types(self):
        with pytest.raises(ValueError, match="serialize"):
            dumps({"x": object()})


class TestReportJson:
    def report(self):
        return EstimateReport(
            dim=4,
            sample_count=1000,
            mean=0.25 - 0.125j,
            stderr=0.003,
            ci_radius=0.009,
            spec=StreamSpec(42, 0),
            exact=0.25 + 0j,
            rounding_floor=1e-15,
        )

    def test_schema_keys_in_order(self):
        doc = json.loads(write_report_json(self.report()))
        assert list(doc) == [
            "n", "samples", "mean", "stderr", "ci_radius", "seed", "exact",
            "abs_error",
        ]
        assert doc["mean"] == [0.25, -0.125]
        assert doc["seed"] == 42

    def test_round_trip_field_identical(self):
        # every float reads back with its bits, the sign of zero included,
        # through the JSON reader of parse_json_dense
        rep = self.report()
        rep.mean, rep.exact = complex(-0.0, -0.125), complex(0.25, -0.0)
        doc = formats._load_json(write_report_json(rep))
        for field in ("mean", "stderr", "ci_radius", "exact"):
            back = complex(*doc[field]) if field in ("mean", "exact") else doc[field]
            assert np.array(back).tobytes() == np.array(getattr(rep, field)).tobytes()
