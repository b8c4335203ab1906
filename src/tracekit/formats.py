"""Matrix Market and JSON input/output for dense complex matrices.

The Matrix Market support covers the dense "array" and sparse
"coordinate" formats with real, complex, or integer fields and general,
symmetric, or hermitian symmetry; parse failures carry 1-based line
numbers.  Array data is column-major; symmetric and hermitian files
store the lower triangle (column-major within it) and are expanded on
read.  Written files always use "array complex general".

All numeric output (Matrix Market and JSON alike) prints floats with
17 significant digits, which round-trips every float64 bit pattern, so
write -> parse is the identity on matrices, and every float of a report
reads back with its bits.  JSON is
emitted with fixed key order, making equal inputs produce
byte-identical documents.  In a JSON document each float of a complex
array is formatted once, and a square array that is bitwise the
conjugate transpose of one written earlier in the same document reuses
that array's digits, negated as strings; the bytes are the same as if it
were formatted itself.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import re

import numpy as np

from .estimator import EstimateReport

__all__ = [
    "MAX_DENSE_BYTES",
    "MatrixMarketError",
    "parse_matrix_market",
    "write_matrix_market",
    "parse_json_dense",
    "write_json_dense",
    "write_report_json",
    "dumps",
    "complex_pair",
    "matrix_pairs",
]


# Largest dense array a coordinate file may ask for: 1 GiB, an 8192 x 8192
# complex128 matrix.  An array file is bounded by its own line count.
MAX_DENSE_BYTES = 2**30


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; messages include the offending line."""


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


# The token grammar of size and data lines, all ASCII.  Tokens are separated
# by the ASCII whitespace that str.split() splits at ("\n" ends a line).
# nan and inf match only so that they are reported as non-finite values.
_SPACE = r"[ \t\r\v\f\x1c-\x1f]"
_INT = r"[+-]?[0-9]+"
_REAL = r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|(?i:nan|inf(?:inity)?))"


@functools.cache
def _lines_of(*tokens: str) -> re.Pattern:
    """Lines holding exactly these tokens, each ended by a newline or the text's end.

    Each line is matched in a lookahead and then consumed by backreference,
    so the repeat never backtracks into a line it has passed (an atomic
    group, which Python gains only in 3.11); that runs ~3x faster.
    """
    line = f"{_SPACE}*" + f"{_SPACE}+".join(tokens) + f"{_SPACE}*"
    return re.compile(rf"(?:(?=({line}(?:\n|\Z)))\1)*")


# the separators of _SPACE that np.fromstring does not split at, unlike str.split()
_TO_SPACE = str.maketrans("\x1c\x1d\x1e\x1f", "    ")


def _is_body(raw: str) -> bool:
    """A size or data line: neither blank nor a comment."""
    return bool(line := raw.lstrip()) and line[0] != "%"


def _body(text: str, start: int) -> list:
    """(number, line) of each body line of `text` after line `start`."""
    return [(n, raw) for n, raw in enumerate(text.split("\n")[start:], start + 1) if _is_body(raw)]


def _integer(token: str) -> int:
    """int(token) of an _INT token, read without its leading zeros, which
    int() would count against its digit limit (sys.get_int_max_str_digits)."""
    digits = token.lstrip("+-").lstrip("0") or "0"
    return -int(digits) if token[0] == "-" else int(digits)


def _decimal(k: int) -> str:
    """str(k), or its power of ten where str() refuses to write that many digits."""
    try:
        return str(k)
    except ValueError:
        return f"~10**{int(math.log10(k))}"


def parse_matrix_market(text) -> np.ndarray:
    """Parse Matrix Market text into a dense complex (rows, cols) array.

    Supports format array or coordinate; field real, complex, or
    integer; symmetry general, symmetric, or hermitian.  Symmetric and
    hermitian inputs must be square, store only entries with
    row >= column, and a hermitian diagonal entry must have zero
    imaginary part.  Coordinate duplicates are summed in file order.

    Sizes, indices and integer fields are ASCII integers [+-]?[0-9]+;
    real and complex fields are ASCII decimals
    [+-]?([0-9]+(.[0-9]*)?|.[0-9]+)([eE][+-]?[0-9]+)?, and nan or inf is
    rejected as non-finite.  Anything else, including a wrong entry count
    or a coordinate size whose dense array would exceed MAX_DENSE_BYTES,
    raises MatrixMarketError with a line number.  Faults past the size
    line are reported by kind: a line outside the grammar, the entry
    count, an index out of range, an entry above the diagonal of
    symmetric storage, a non-finite value, a hermitian diagonal entry
    with an imaginary part; within a kind, the first line in the file.

    Transient memory is about 4x the text (it was 9x): the list of lines
    is dropped once the data lines are joined into one string, and that
    string is converted in one numpy call, with no Python object per number.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    if not text:
        raise MatrixMarketError("line 1: empty input, expected %%MatrixMarket header")
    # lines end at "\n" only: str.splitlines also breaks at \x0b, \x0c,
    # \x1c-\x1e, \x85, \u2028 and \u2029, turning one data line into several
    lines = text.split("\n")
    if text[-1] == "\n":  # it ends the last line and starts none
        lines.pop()
    header = lines[0].split()
    if len(header) != 5 or header[0].lower() != "%%matrixmarket":
        raise MatrixMarketError(
            "line 1: expected header '%%MatrixMarket matrix <format> <field> <symmetry>'"
        )
    obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
    if obj != "matrix":
        raise MatrixMarketError(f"line 1: unsupported object {obj!r}")
    if fmt not in ("array", "coordinate"):
        raise MatrixMarketError(f"line 1: unsupported format {fmt!r}")
    if field not in ("real", "complex", "integer"):
        raise MatrixMarketError(f"line 1: unsupported field {field!r}")
    if symmetry not in ("general", "symmetric", "hermitian"):
        raise MatrixMarketError(f"line 1: unsupported symmetry {symmetry!r}")

    # the size line is the first body line, and the data lines are the rest
    number = next((n for n, raw in enumerate(itertools.islice(lines, 1, None), 2)
                   if _is_body(raw)), None)
    if number is None:
        raise MatrixMarketError(f"line {len(lines)}: missing size line")
    size_line = lines[number - 1]
    tokens = size_line.split()
    want_size = 3 if fmt == "coordinate" else 2
    if len(tokens) != want_size:
        raise MatrixMarketError(
            f"line {number}: size line needs {want_size} integers, found {len(tokens)}"
        )
    if not _lines_of(*[_INT] * want_size).fullmatch(size_line):
        raise MatrixMarketError(f"line {number}: bad size line {size_line.strip()!r}")
    try:
        sizes = [_integer(tok) for tok in tokens]
    except ValueError:  # past int()'s digit limit without its leading zeros
        raise MatrixMarketError(f"line {number}: size out of range") from None
    rows, cols = sizes[0], sizes[1]
    if rows < 1 or cols < 1:
        raise MatrixMarketError(f"line {number}: sizes must be >= 1, got {rows} x {cols}")
    if symmetry != "general" and rows != cols:
        raise MatrixMarketError(
            f"line {number}: {symmetry} symmetry requires a square size, got {rows} x {cols}"
        )

    if fmt == "array":
        expected = rows * cols if symmetry == "general" else rows * (rows + 1) // 2
    else:
        expected = sizes[2]
        if expected < 0:
            raise MatrixMarketError(f"line {number}: entry count must be >= 0, got {expected}")
        dense_bytes = rows * cols * np.dtype(np.complex128).itemsize
        if dense_bytes > MAX_DENSE_BYTES:
            raise MatrixMarketError(
                f"line {number}: a dense {rows} x {cols} complex matrix needs "
                f"{_decimal(dense_bytes)} bytes, above the limit of {MAX_DENSE_BYTES}"
            )

    kept = list(filter(_is_body, itertools.islice(lines, number, None)))
    found = len(kept)
    data = "\n".join(kept)
    del lines, kept  # from here on the data is held once, as one string

    def fault(k: int, problem: str) -> MatrixMarketError:
        # the data lines are numbered again from the text: only a fault pays
        n, raw = _body(text, number)[k]
        return MatrixMarketError(f"line {n}: {problem}: {raw!r}")

    complex_field = field == "complex"
    value = _INT if field == "integer" else _REAL
    grammar = [_INT, _INT] if fmt == "coordinate" else []
    grammar += [value, value] if complex_field else [value]
    end = _lines_of(*grammar).match(data).end()
    if end != len(data):
        indices = "row and column indices and " if fmt == "coordinate" else ""
        entry = {"real": "one real number", "integer": "one integer",
                 "complex": "two real numbers"}[field]
        raise fault(data.count("\n", 0, end), f"expected {indices}{entry}")
    if found > expected:
        raise MatrixMarketError(
            f"line {_body(text, number)[expected][0]}: extra data, expected {expected} entries"
        )
    if found < expected:
        raise MatrixMarketError(
            f"line {_body(text, number)[-1][0] if found else number}: "
            f"expected {_decimal(expected)} entries, found {found}"
        )

    # the grammar has matched, so every token is a number that np.fromstring
    # reads with float()'s bits, and no line is blank: fromstring(" ") is [-1.0]
    values = np.fromstring(data.translate(_TO_SPACE), dtype=np.float64, sep=" ")
    values = values.reshape(expected, len(grammar))
    if fmt == "coordinate":
        i, j = values[:, 0] - 1, values[:, 1] - 1
        values = values[:, 2:]
    elif symmetry == "general":
        j, i = np.divmod(np.arange(expected), rows)
    else:
        j, i = np.triu_indices(rows)  # the stored lower triangle, column by column
    faults = []
    if fmt == "coordinate":
        faults.append(((i < 0) | (i >= rows) | (j < 0) | (j >= cols),
                       f"index out of range for a {rows} x {cols} matrix"))
        if symmetry != "general":
            faults.append((i < j, f"{symmetry} storage requires row >= column"))
    faults.append((~np.isfinite(values).all(axis=1), "non-finite value"))
    if symmetry == "hermitian" and complex_field:
        faults.append(((i == j) & (values[:, 1] != 0),
                       "hermitian diagonal entry has imaginary part"))
    for mask, problem in faults:
        hits = np.flatnonzero(mask)
        if hits.size:
            raise fault(hits[0], problem)

    # (re, im) pairs viewed as one complex, a real cast: both keep signed zeros
    z = (np.ascontiguousarray(values).view(np.complex128)[:, 0] if complex_field
         else values[:, 0].astype(np.complex128))
    a = np.zeros((rows, cols), dtype=np.complex128)
    if fmt == "array":
        a[i, j] = z
    else:
        np.add.at(a, (i.astype(np.intp), j.astype(np.intp)), z)
    if symmetry == "symmetric":
        low = np.tril(a, -1)
        a = a + low.T
    elif symmetry == "hermitian":
        low = np.tril(a, -1)
        a = a + np.conj(low).T
    return a


def write_matrix_market(a) -> str:
    """Render a dense matrix as 'array complex general' Matrix Market text."""
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"matrix must be 2-dimensional and nonempty, got {m.shape}")
    out = ["%%MatrixMarket matrix array complex general", "%d %d" % m.shape]
    # one %-template over the column-major (re, im) floats
    floats = m.T.ravel().view(np.float64).tolist()
    out.append("\n".join(["%.17g %.17g"] * m.size) % tuple(floats))
    return "\n".join(out) + "\n"


def _real_number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{where}: expected a number, got {x!r}")
    try:
        value = float(x)
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{where}: non-finite value {x!r}")
    return value


def _complex_from_pair(item, where: str) -> complex:
    if not isinstance(item, list) or len(item) != 2:
        raise ValueError(f"{where}: expected a [re, im] pair, got {item!r}")
    return complex(
        _real_number(item[0], where + "[0]"), _real_number(item[1], where + "[1]")
    )


def _load_json(text):
    try:  # %.17g writes -0.0 as "-0", to be read back as a float, not the integer 0
        return json.loads(text, parse_int=lambda token: -0.0 if token == "-0" else int(token))
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    except RecursionError:  # a RuntimeError, which would read as a failed check
        raise ValueError("invalid JSON: nested too deeply") from None


def parse_json_dense(text) -> np.ndarray:
    """Parse a JSON array of rows of [re, im] pairs into a complex matrix."""
    data = _load_json(text)
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty JSON array of rows")
    if not all(isinstance(row, list) for row in data):
        raise ValueError("expected every row to be a JSON array")
    width = len(data[0])
    if width == 0:
        raise ValueError("row 0 is empty")
    a = np.zeros((len(data), width), dtype=np.complex128)
    for i, row in enumerate(data):
        if len(row) != width:
            raise ValueError(f"row {i} has {len(row)} entries, expected {width}")
        for j, item in enumerate(row):
            a[i, j] = _complex_from_pair(item, f"entry ({i}, {j})")
    return a


def complex_pair(z) -> list:
    """A complex number as the [re, im] list used in all JSON output."""
    w = complex(z)
    return [w.real, w.imag]


def matrix_pairs(a) -> list:
    """Nested row-major [re, im] pairs for a 2-d array."""
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    return [[complex_pair(z) for z in row] for row in m]


def write_json_dense(a) -> str:
    """Render a matrix as JSON rows of [re, im] pairs (deterministic bytes)."""
    return dumps(np.atleast_2d(np.asarray(a, dtype=np.complex128))) + "\n"


def dumps(value) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits.

    A complex128 ndarray (1-d or more) is written as nested [re, im] pairs,
    the same text as its matrix_pairs lists.  Each float is formatted
    once, and a square array that is bitwise the conjugate transpose of
    one written earlier in the same document reuses that array's digits.
    """
    pieces = []
    _emit(value, pieces, [])
    return "".join(pieces)


_SIGN = np.uint64(1 << 63)
_BRACKETS = str.maketrans("", "", "[]")


def _complex_array(a: np.ndarray, written: list) -> str:
    """[re, im] pairs of a complex array, nested by its axes.

    `written` holds (bits, text) of each nonempty square array the
    document has written so far, and gains this one's if it is one.
    """
    m = np.ascontiguousarray(a)
    floats = m.view(np.float64)
    finite = np.isfinite(floats)
    if not finite.all():
        bad = float(floats.flat[np.argmin(finite)])
        raise ValueError(f"cannot serialize non-finite float {bad!r}")
    row = _row(m.shape[-1], "[%.17g, %.17g]")
    if not (m.ndim == 2 and m.shape[0] == m.shape[1] and m.size):
        return _nested(m, row)
    bits = floats.view(np.uint64)
    for old_bits, old_text in written:
        # bitwise conj(old).T: the real bits transposed, the imaginary ones
        # transposed with the sign bit flipped (-0.0 and 0.0 differ)
        if (old_bits.shape == bits.shape
                and np.array_equal(bits[:, 0::2], old_bits[:, 0::2].T)
                and np.array_equal(bits[:, 1::2], old_bits[:, 1::2].T ^ _SIGN)):
            text = _conjugate_transpose(old_text, m.shape[0])
            break
    else:
        text = _nested(m, row)
    written.append((bits, text))
    return text


def _row(width: int, pair: str) -> str:
    """A %-template for a row of `width` entries, each written by `pair`."""
    return "[" + ", ".join([pair] * width) + "]"


def _nested(m: np.ndarray, row: str) -> str:
    """An array's text nested by its axes; each 1-d row is `row` % its
    interleaved (re, im) floats."""
    if m.ndim == 1:
        return row % tuple(m.view(np.float64).tolist())
    return "[" + ", ".join([_nested(part, row) for part in m]) + "]"


def _conjugate_transpose(text: str, n: int) -> str:
    """The text of conj(a).T from the text of a nonempty n x n array a.

    The digits are reused, not formatted again: %.17g of -x is "-"
    followed by %.17g of x for every finite x, signed zeros included, so
    negating an imaginary token as a string gives the digits of -im.
    """
    tokens = text.translate(_BRACKETS).split(", ")
    re, im = tokens[0::2], tokens[1::2]
    tokens[0::2] = [t for j in range(n) for t in re[j::n]]
    tokens[1::2] = [t[1:] if t[0] == "-" else "-" + t for j in range(n) for t in im[j::n]]
    row = _row(n, "[%s, %s]")
    return "[" + ", ".join([row % tuple(tokens[k:k + 2 * n])
                            for k in range(0, 2 * n * n, 2 * n)]) + "]"


def _emit(value, pieces, written) -> None:
    if value is None:
        pieces.append("null")
    elif isinstance(value, bool):
        pieces.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        pieces.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        pieces.append(_fmt(float(value)))
    elif isinstance(value, str):
        pieces.append(json.dumps(value))
    elif isinstance(value, np.ndarray) and value.dtype == np.complex128 and value.ndim:
        pieces.append(_complex_array(value, written))
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for k, item in enumerate(value):
            if k:
                pieces.append(", ")
            _emit(item, pieces, written)
        pieces.append("]")
    elif isinstance(value, dict):
        pieces.append("{")
        for k, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            if k:
                pieces.append(", ")
            pieces.append(json.dumps(key))
            pieces.append(": ")
            _emit(item, pieces, written)
        pieces.append("}")
    else:
        raise ValueError(f"cannot serialize {type(value).__name__} to JSON")


def write_report_json(report: EstimateReport) -> str:
    """Serialize an estimate report with a fixed key order.

    Keys: n, samples, mean, stderr, ci_radius, seed, exact and
    abs_error = report.abs_error().
    """
    doc = {
        "n": report.dim,
        "samples": report.sample_count,
        "mean": complex_pair(report.mean),
        "stderr": report.stderr,
        "ci_radius": report.ci_radius,
        "seed": report.spec.master_seed,
        "exact": complex_pair(report.exact),
        "abs_error": report.abs_error(),
    }
    return dumps(doc) + "\n"
