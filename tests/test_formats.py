"""Matrix Market and JSON round-trips, cross-checked against scipy.io."""

import gc
import io
import json
import math
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


def coordinate_text(a):
    """`a` as a 'coordinate complex general' file listing every entry."""
    lines = ["%%MatrixMarket matrix coordinate complex general", "%d %d %d" % (*a.shape, a.size)]
    lines += ["%d %d %.17g %.17g" % (i + 1, j + 1, a[i, j].real, a[i, j].imag)
              for j in range(a.shape[1]) for i in range(a.shape[0])]
    return "\n".join(lines) + "\n"


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

    @pytest.mark.parametrize("fmt, bound", [("array", 1.5), ("coordinate", 1.6)],
                             ids=["array", "coordinate"])
    @pytest.mark.parametrize("n", [64, 256])
    def test_parse_peak_is_under_three_times_the_text(self, n, fmt, bound):
        # the reader holds a few KB of text as tokens at a time and makes no
        # Python object per number beyond them: 0.8-0.9x the text for an
        # array file and 1.4-1.5x for a coordinate one, whose indices are
        # cast to intp once and whose values are viewed as complex in place
        a = crandn(np.random.default_rng(n), n, n)
        text = write_matrix_market(a) if fmt == "array" else coordinate_text(a)
        parse_matrix_market(text)
        tracemalloc.start()
        try:
            parse_matrix_market(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * len(text)

    @pytest.mark.parametrize("fmt, edit, message, bound", [
        ("array", lambda last: "nan 0\n", "line 65538: non-finite value: 'nan 0'", 1.5),
        ("array", lambda last: "", "line 65537: expected 65536 entries, found 65535", 1.5),
        ("array", lambda last: last + "1 0\n", "line 65539: extra data, expected 65536 entries",
         1.5),
        ("coordinate", lambda last: "257 1 0 0\n",
         "line 65538: index out of range for a 256 x 256 matrix: '257 1 0 0'", 1.6),
    ], ids=["non-finite", "short", "extra-data", "index"])
    def test_fault_peak_is_under_the_read_bound(self, fmt, edit, message, bound):
        # a fault at the end of a 256 x 256 file is named by walking the lines
        # again one at a time, so it costs no more memory than a read; the
        # last data line is replaced by edit(last)
        a = crandn(np.random.default_rng(256), 256, 256)
        text = write_matrix_market(a) if fmt == "array" else coordinate_text(a)
        cut = text.rindex("\n", 0, -1) + 1
        text = text[:cut] + edit(text[cut:])
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError, match="^" + re.escape(message) + "$"):
                parse_matrix_market(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * len(text)

    def test_edge_tokens_read_as_float(self):
        # every separator of the token rule, at line starts, between tokens and
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
        # a line of separators alone is blank, not a data line; a coordinate
        # file may hold no entries, and reads as zeros
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
        # kinds are reported in the order: a line breaking the token rule, the
        # entry count, an index out of range, row < column in symmetric
        # storage, a non-finite value, a hermitian diagonal imaginary part
        ("coordinate real general\n2 2 2\n3 1 1.0\n1 1 x\n", "line 4: expected"),
        ("coordinate real general\n2 2 1\n3 1 1.0\n1 1 1.0\n", "line 4: extra data"),
        ("coordinate real symmetric\n2 2 2\n1 2 1.0\n3 1 1.0\n", "line 4: index out of"),
        ("coordinate real symmetric\n2 2 2\n1 1 nan\n1 2 1.0\n", "line 4: symmetric storage"),
        ("coordinate complex hermitian\n2 2 2\n1 1 1 1\n2 1 inf 0\n", "line 4: non-finite"),
        # a short file too: its one line, breaking the token rule, comes first
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
        # the last line that the text starts is named: a final newline starts none
        head = "%%MatrixMarket matrix array real general"
        for end, line in [("", 1), ("\n", 1), ("\r\n", 1), ("\n\n", 2), ("\n%c", 2),
                          ("\n \n\t", 3)]:
            with pytest.raises(MatrixMarketError, match=f"^line {line}: missing size line$"):
                parse_matrix_market(head + end)

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


def long_file(field, size, data, end="\n"):
    """An 'array <field> general' file with these lines, each ended by `end`."""
    return end.join([f"%%MatrixMarket matrix array {field} general", size, *data]) + end


def with_lines(data, changes):
    """`data` with data line k replaced by `changes[k]`, or by several lines
    where `changes[k]` is a list."""
    out = []
    for k, line in enumerate(data):
        change = changes.get(k, line)
        out += change if isinstance(change, list) else [change]
    return out


class TestMatrixMarketAcrossBlocks:
    # 3000 data lines, well past one block of the reader, so each file's
    # faults and free lines fall in different blocks; data line k is line
    # k + 3 of the file
    REAL = ["%.17g" % x for x in np.random.default_rng(7).standard_normal(3000)]
    COMPLEX = ["%.17g %.17g" % (x, -x) for x in np.random.default_rng(8).standard_normal(3000)]

    @pytest.mark.parametrize("size, changes, message", [
        ("100 1", {2900: "x"}, "line 2903: expected one real number: 'x'"),
        ("3000 1", {10: "inf", 2900: "1e"}, "line 2903: expected one real number: '1e'"),
        ("3000 1", {10: "nan", 2900: "1 2"}, "line 2903: expected one real number: '1 2'"),
        ("100 1", {}, "line 103: extra data, expected 100 entries"),
        ("3001 1", {}, "line 3002: expected 3001 entries, found 3000"),
        ("3000 1", {50: ["% note", "0.5"], 2000: ["", "0.5"], 2500: "nan"},
         "line 2505: non-finite value: 'nan'"),
        ("3000 1", {50: ["% note", "0.5"], 2000: [" \t", "0.5"], 2600: "1_0"},
         "line 2605: expected one real number: '1_0'"),
        # free lines and a fault in one block, and a fault on the first data line
        ("3000 1", {2590: ["% note", "", REAL[2590]], 2600: "x"},
         "line 2605: expected one real number: 'x'"),
        ("3000 1", {0: ["%", "", "x"]}, "line 5: expected one real number: 'x'"),
    ], ids=["grammar-after-extra-data", "grammar-after-non-finite", "count-after-non-finite",
            "extra-data", "short", "comment-and-blank", "grammar-after-comment-and-blank",
            "grammar-after-comment-and-blank-in-one-block", "grammar-first-after-free-lines"])
    def test_fault_named_as_in_one_pass(self, size, changes, message):
        text = long_file("real", size, with_lines(self.REAL, changes))
        with pytest.raises(MatrixMarketError, match="^" + re.escape(message) + "$"):
            parse_matrix_market(text)

    def test_comment_and_blank_lines_are_free(self):
        plain = parse_matrix_market(long_file("real", "3000 1", self.REAL))
        free = with_lines(self.REAL, {0: ["%", self.REAL[0]], 1500: ["", " ", self.REAL[1500]],
                                      2999: [self.REAL[2999], "% last"]})
        assert parse_matrix_market(long_file("real", "3000 1", free)).tobytes() == plain.tobytes()
        assert plain.real.ravel().tolist() == [float(t) for t in self.REAL]

    def test_crlf_line_ends(self):
        plain = parse_matrix_market(long_file("complex", "3000 1", self.COMPLEX))
        crlf = long_file("complex", "3000 1", self.COMPLEX, end="\r\n")
        assert parse_matrix_market(crlf).tobytes() == plain.tobytes()
        bad = long_file("complex", "3000 1", with_lines(self.COMPLEX, {2900: "1.5.5 0"}), "\r\n")
        with pytest.raises(MatrixMarketError,
                           match=r"^line 2903: expected two real numbers: '1\.5\.5 0\\r'$"):
            parse_matrix_market(bad)

    def test_unit_separator_between_tokens(self):
        plain = parse_matrix_market(long_file("complex", "3000 1", self.COMPLEX))
        data = [line.replace(" ", "\x1c") for line in self.COMPLEX]
        assert parse_matrix_market(long_file("complex", "3000 1", data)).tobytes() == plain.tobytes()
        data[2900] = data[2900].split("\x1c")[0] + "\x1c"
        with pytest.raises(MatrixMarketError, match=r"^line 2903: expected two real numbers: "):
            parse_matrix_market(long_file("complex", "3000 1", data))


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
        # the first in document order, also past an array whose conjugate
        # transpose comes later
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
        # so is a list of arrays: one array, its conjugate transpose and its
        # conjugate, with signed zeros, subnormals and the largest float
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

    def test_array_digits_are_those_of_percent_17g(self):
        # the exact digit path against '%.17g' % x, float by float
        rng = np.random.default_rng(36)
        words = rng.integers(0, 2**64, 10**6, dtype=np.uint64)
        near = words.copy()  # random signs and mantissas, exponents 2**-16 to 2
        near &= ~np.uint64(0x7FF << 52)
        near |= rng.integers(1023 - 16, 1023 + 2, near.size, dtype=np.uint64) << np.uint64(52)
        ties = [j / 2**q for q in range(1, 26)  # 18 digits ending in 5: ties at 17
                for j in range(-(-10**17 // 5**q) | 1, min(10**18 // 5**q, 2**q), 2)][::97]
        edges = [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1.0,
                 math.nextafter(1, 0), 1e-4, math.nextafter(1e-4, 0), math.nextafter(1e-4, 1),
                 *[k / 10 for k in range(1, 10)], *[2.0**-k for k in range(1, 71)],
                 # the floats next below the powers of ten: none rounds up to one
                 *[math.nextafter(10.0**-j, 0) for j in range(6)], *ties]
        floats = np.concatenate([
            near.view(np.float64),
            words[:2 * 10**4].view(np.float64),  # every exponent, subnormals, nan, inf
            rng.uniform(-1, 1, 10**6),
            10.0 ** rng.uniform(-6, 0, 3 * 10**4),  # every decimal exponent of the path
            edges, np.negative(edges)])
        floats = floats[np.isfinite(floats)]
        floats = floats[:floats.size // 2 * 2]
        assert len(ties) > 100 and floats.size > 2 * 10**6
        z = floats.view(np.complex128)
        assert dumps(z) == "[" + ", ".join(["[%.17g, %.17g]"] * z.size) % tuple(floats.tolist()) + "]"
        # arrays large enough for the digit path, nested and in Matrix Market
        block = floats[:2 * 3 * 20 * 20].view(np.complex128).reshape(3, 20, 20)
        assert dumps(block) == dumps([matrix_pairs(b) for b in block])
        large = block * 2.0**12  # mostly |x| >= 1: written by % alone
        assert dumps(large) == dumps([matrix_pairs(b) for b in large])
        assert write_matrix_market(block[0]).split("\n")[2:-1] == [
            "%.17g %.17g" % (z.real, z.imag) for z in block[0].T.ravel().tolist()]

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

    def test_written_pieces_are_the_text(self):
        # with a write callable every piece goes out in order, and none is kept
        u = crandn(np.random.default_rng(34), 3, 3)
        doc = {"u": u, "ut": np.conj(u).T, "x": [1.5, None, "s", True], "n": 3}
        pieces = []
        assert dumps(doc, pieces.append) is None
        assert "".join(pieces) == dumps(doc) and len(pieces) > 10
        pieces = []
        with pytest.raises(ValueError, match="non-finite float nan"):
            dumps({"u": u, "x": np.nan}, pieces.append)
        assert "".join(pieces) == dumps({"u": u})[:-1] + ", " + '"x": '

    def test_writing_an_array_holds_a_slab_not_its_text(self):
        # an array goes out _TEXT_FLOATS floats at a time, so the peak is
        # that of a slab, whatever the array's size
        peaks, sizes = {}, {}
        for n in (256, 512):
            u = crandn(np.random.default_rng(n), n, n)
            size = [0]

            def write(piece):
                size[0] += len(piece)

            tracemalloc.start()
            try:
                dumps({"u": u}, write)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            sizes[n] = size[0]
        assert peaks[512] < 0.25 * sizes[512], (peaks, sizes)
        assert peaks[512] < 1.25 * peaks[256], (peaks, sizes)

    def test_row_blocks_are_written_as_one_array(self):
        a = crandn(np.random.default_rng(35), 3000, 3)
        a[0, :2] = [complex(-0.0, 5e-324), complex(1e308, -2.2e-308)]
        cuts = [0, 0, 1, 1600, 1600, 3000]  # empty blocks, and each past a slab
        pieces = []
        dumps((a[lo:hi] for lo, hi in zip(cuts, cuts[1:])), pieces.append)
        assert "".join(pieces) == dumps(a)
        # max(1, _TEXT_FLOATS // (2 n)) rows a piece: 1365 at n = 3
        rows = [dumps(a[lo:hi])[1:-1]
                for lo, hi in ((0, 1), (1, 1366), (1366, 1600), (1600, 2965), (2965, 3000))]
        assert pieces == ["[", "", rows[0], ", ", rows[1], ", ", rows[2], ", ", rows[3],
                          ", ", rows[4], "]"]
        # one block over several slabs: 64 rows a piece at n = 64
        wide = crandn(np.random.default_rng(37), 300, 64)
        pieces = []
        dumps(iter([wide]), pieces.append)
        assert "".join(pieces) == dumps(wide)
        assert pieces[2::2] == [dumps(wide[lo:lo + 64])[1:-1] for lo in range(0, 300, 64)]
        square = a[:3]
        pieces = []
        dumps(iter([square[:1], square[1:]]), pieces.append)
        assert "".join(pieces) == dumps(square)
        pieces = []
        dumps(iter([]), pieces.append)
        assert "".join(pieces) == "[]" == dumps(a[:0])
        with pytest.raises(ValueError, match="non-finite float inf"):
            dumps(iter([a[:2], np.array([[1j, np.inf, 0]])]), pieces.append)
        # a block that is not a 2-d complex128 array is refused before its text
        for bad in (a[0], a[:4].reshape(2, 2, 3), a[1:3].astype(np.complex64),
                    a[:2].real.copy(), [[1j, 2j]]):
            pieces = []
            with pytest.raises(ValueError, match="row block must be a 2-d complex128 array"):
                dumps(iter([a[:2], bad]), pieces.append)
            assert "".join(pieces) == "[" + dumps(a[:2])[1:-1]

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
            radius=0.02,
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
