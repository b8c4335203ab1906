"""Property tests: malformed input ends in a documented error, never a traceback.

Matrix Market and dense JSON text, arbitrary or near-valid, either parses
to a finite 2-D array or raises MatrixMarketError / ValueError, and the
CLI on such a file exits 0, 1 or 2.  Declared sizes stay small, so no
example allocates much; examples are derandomized so every run checks the
same inputs.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from tracekit.cli import main  # noqa: E402
from tracekit.estimator import (  # noqa: E402
    estimate_trace,
    substitution_identity_sweep,
)
from tracekit.formats import (  # noqa: E402
    MatrixMarketError,
    dumps,
    matrix_pairs,
    parse_json_dense,
    parse_matrix_market,
)
from tracekit.sphere import CHUNK_OFFSET_PROBES, StreamSpec  # noqa: E402
from tracekit.linalg import normalized_trace  # noqa: E402
from tracekit.unitary import (  # noqa: E402
    decompose_into_unitaries,
    hermitian_parts,
    seeded_unitary,
)

SETTINGS = settings(max_examples=60, deadline=None, database=None, derandomize=True)

# tokens near the grammar's edges: small indices and sizes, extreme and
# non-finite numbers, and numerals Python reads but Matrix Market does not
JUNK = ["", "-", "+", ".", "e5", "abc", "0x10", "1_0", "1_000.5", "١", "２.5",
        "nan", "inf", "-inf", "1e999", "9" * 400, "1e308", "-1.7e308", "5e-324"]
TOKENS = st.one_of(
    st.integers(-1, 5).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(JUNK),
)
LINES = st.lists(TOKENS, max_size=5).map(" ".join)


@st.composite
def near_valid(draw):
    """A valid Matrix Market file of at most 4 x 4, its real and complex
    entries at scale 1, 1e160 or 1e300, then maybe one line changed."""
    fmt = draw(st.sampled_from(["array", "coordinate"]))
    field = draw(st.sampled_from(["real", "complex", "integer"]))
    symmetry = draw(st.sampled_from(["general", "symmetric", "hermitian"]))
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4)) if symmetry == "general" else rows
    cells = [(i, j) for j in range(cols) for i in range(rows)
             if symmetry == "general" or i >= j]
    if fmt == "coordinate":
        cells = draw(st.lists(st.sampled_from(cells), max_size=6))
    scale = draw(st.sampled_from([1.0, 1e160, 1e300]))
    number = (st.integers(-9, 9).map(str) if field == "integer"
              else st.floats(-1e3, 1e3).map(lambda x: repr(x * scale)))
    lines = [f"%%MatrixMarket matrix {fmt} {field} {symmetry}",
             f"{rows} {cols}" + (f" {len(cells)}" if fmt == "coordinate" else "")]
    for i, j in cells:
        index = [str(i + 1), str(j + 1)] if fmt == "coordinate" else []
        value = [draw(number)]
        if field == "complex":
            value.append("0" if symmetry == "hermitian" and i == j else draw(number))
        lines.append(" ".join(index + value))
    k = draw(st.integers(1, len(lines) - 1))
    change = draw(st.sampled_from(["none", "token", "line", "drop", "repeat"]))
    if change == "token":
        tokens = lines[k].split()
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
        lines[k] = " ".join(tokens)
    elif change == "line":
        lines[k] = draw(LINES)
    elif change == "drop":
        del lines[k]
    elif change == "repeat":
        lines.insert(k, lines[k])
    return "\n".join(lines) + "\n"


MATRIX_MARKET = st.one_of(near_valid(), st.text(max_size=200),
                          st.text(max_size=200).map(lambda t: "%%MatrixMarket " + t))


@SETTINGS
@given(MATRIX_MARKET)
def test_parse_gives_finite_matrix_or_value_error(text):
    try:
        a = parse_matrix_market(text)
    except MatrixMarketError as exc:  # a ValueError that names its line
        assert str(exc).startswith("line ")
        return
    assert isinstance(a, np.ndarray) and a.ndim == 2
    assert np.all(np.isfinite(a))


def per_entry(text):
    """Reference: the matrix of a well-formed file, built one entry at a time."""
    head, *lines = text.split("\n")
    fmt, field, symmetry = head.lower().split()[2:]
    size, *lines = [s for line in lines if (s := line.strip()) and s[0] != "%"]
    rows, cols = map(int, size.split()[:2])
    cells = iter([(i, j) for j in range(cols) for i in range(rows)
                  if symmetry == "general" or i >= j])
    a = np.zeros((rows, cols), dtype=np.complex128)
    for line in lines:
        tokens = line.split()
        if fmt == "coordinate":
            i, j = int(tokens[0]) - 1, int(tokens[1]) - 1
            a[i, j] = a[i, j] + complex(*map(float, tokens[2:]))
        else:
            i, j = next(cells)
            a[i, j] = complex(*map(float, tokens))
    low = np.tril(a, -1)
    if symmetry == "symmetric":
        a = a + low.T
    elif symmetry == "hermitian":
        a = a + np.conj(low).T
    return a


@SETTINGS
@given(near_valid())
def test_parse_matches_per_entry_reference(text):
    try:
        a = parse_matrix_market(text)
    except MatrixMarketError:
        return
    assert a.tobytes() == per_entry(text).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(MATRIX_MARKET, st.sampled_from([
    ["estimate", "--samples", "16"],
    ["decompose"],
    ["check-invariance", "--random-unitary", "--samples", "16"],
]))
def test_cli_exits_with_a_documented_code(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.mm"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")


# JSON numbers near the dense format's edges: integers beyond float range,
# overflowing and non-finite floats, and values that are not numbers
JSON_JUNK = ["1" + "0" * 400, "-" + "9" * 400, "1e400", "-1e400", "NaN", "-Infinity",
             "true", "false", "null", '"1"', "[]", "{}", "-0.0", "5e-324", "1e308"]
JSON_NUMBERS = st.one_of(
    st.integers(-3, 3).map(str),
    st.floats(-1e3, 1e3).map(repr),
    st.sampled_from(JSON_JUNK),
)


def _json_list(items) -> str:
    return "[" + ", ".join(items) + "]"


@st.composite
def near_valid_json(draw):
    """Dense JSON rows of [re, im] pairs, at most 4 x 4, then maybe one part changed."""
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(1, 4))
    entries = [[_json_list([draw(JSON_NUMBERS), draw(JSON_NUMBERS)]) for _ in range(cols)]
               for _ in range(rows)]
    i = draw(st.integers(0, rows - 1))
    j = draw(st.integers(0, cols - 1))
    change = draw(st.sampled_from(["none", "ragged", "entry", "row", "nest"]))
    if change == "ragged":
        del entries[i][j]
    elif change == "entry":
        pair = st.lists(JSON_NUMBERS, max_size=3).map(_json_list)
        entries[i][j] = draw(st.one_of(JSON_NUMBERS, pair))
    elif change == "row":
        entries[i] = [draw(JSON_NUMBERS)]
    text = _json_list(_json_list(row) for row in entries)
    if change == "nest":
        depth = draw(st.sampled_from([1, 2, 100000]))
        text = "[" * depth + text + "]" * depth
    return text


JSON_TEXT = st.one_of(
    near_valid_json(),
    st.text(max_size=200),
    st.lists(st.sampled_from(["[", "]", ", ", "0", "1.5", *JSON_JUNK]), max_size=30).map("".join),
)


@SETTINGS
@given(JSON_TEXT)
def test_json_parse_gives_finite_matrix_or_value_error(text):
    try:
        a = parse_json_dense(text)
    except ValueError:
        return
    assert isinstance(a, np.ndarray) and a.ndim == 2
    assert np.all(np.isfinite(a))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@SETTINGS
@given(JSON_TEXT, st.sampled_from([
    ["estimate", "--samples", "16"],
    ["decompose"],
    ["check-invariance", "--random-unitary", "--samples", "16"],
]))
def test_cli_on_json_exits_with_a_documented_code(text, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "a.json"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
    assert code in (0, 1, 2)
    if code == 1:
        assert err.getvalue().startswith("error:")


# finite floats, with the signed zeros, subnormals and extremes drawn often
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                     1.7976931348623157e308, -1.7976931348623157e308]),
)


@st.composite
def square_complex(draw):
    n = draw(st.integers(1, 4))
    parts = draw(st.lists(FINITE, min_size=2 * n * n, max_size=2 * n * n))
    return np.array(parts).view(np.complex128).reshape(n, n)


@SETTINGS
@given(square_complex(), st.floats(min_value=0.0, allow_infinity=False))
def test_conjugate_transpose_writes_the_digits_of_its_floats(a, x):
    # the list path formats every float itself, so it is an independent
    # reference for the array path, which negates digits as strings
    doc = [a, np.conj(a).T, a]
    assert dumps(doc) == dumps([matrix_pairs(m) for m in doc])
    assert "%.17g" % -x == "-" + "%.17g" % x


@SETTINGS
@given(st.integers(1, 256), st.integers(-300, 300),
       st.sampled_from(["general", "hermitian", "real"]), st.integers(0, 2**32 - 1))
def test_gates_pass_correct_output_with_a_tenfold_margin(n, k, kind, seed):
    # the bounds are ratios to ||A||_F, so they hold at every scale 2**k
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "hermitian":
        a = (a + a.conj().T) / 2
    elif kind == "real":
        a = a.real.copy()
    a = a * 2.0**k
    dec = decompose_into_unitaries(a)
    assert 10 * dec.reconstruction_residual <= dec.reconstruction_bound
    assert 10 * dec.unitarity_residual <= dec.unitarity_bound
    b = seeded_unitary(StreamSpec(seed, CHUNK_OFFSET_PROBES), n)
    gap, _, bound = substitution_identity_sweep(a, b, 64, StreamSpec(seed, 0))
    assert 10 * gap <= bound


@SETTINGS
@given(st.integers(1, 32), st.integers(-400, 400), st.integers(0, 2**32 - 1))
def test_reports_scale_exactly_with_powers_of_two(n, k, seed):
    # every matrix entry point works on A / 2**e and scales its results back,
    # so report(2**k A) is bitwise 2**k report(A)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    ak = a * 2.0**k
    spec = StreamSpec(seed, 0)
    fields = ("mean", "stderr", "ci_radius", "exact", "rounding_floor")
    base, scaled = (estimate_trace(m, 64, spec) for m in (a, ak))
    assert [getattr(scaled, f) for f in fields] == [getattr(base, f) * 2.0**k for f in fields]
    b = seeded_unitary(StreamSpec(seed, CHUNK_OFFSET_PROBES), n)
    (gap, rho, bound), (gap_k, rho_k, bound_k) = (
        substitution_identity_sweep(m, b, 64, spec) for m in (a, ak))
    assert (gap_k, rho_k, bound_k) == (gap * 2.0**k, rho, bound * 2.0**k)
    dec, dec_k = (decompose_into_unitaries(m) for m in (a, ak))
    assert dec_k.coefficients == [c * 2.0**k for c in dec.coefficients]
    assert all(np.array_equal(u, v) for u, v in zip(dec.unitaries, dec_k.unitaries))
    for h, h_k in zip(hermitian_parts(a), hermitian_parts(ak)):
        assert np.array_equal(h_k, h * 2.0**k)
    assert normalized_trace(np.diag([1e308, 1e308])) == 1e308  # the sum is 2e308
