"""Matrix Market and JSON input/output for dense complex matrices.

The Matrix Market support covers the dense "array" and sparse
"coordinate" formats with real, complex, or integer fields and general,
symmetric, or hermitian symmetry; parse failures carry 1-based line
numbers.  Array data is column-major; symmetric and hermitian files
store the lower triangle (column-major within it) and are expanded on
read.  Written files always use "array complex general".

All numeric output (Matrix Market and JSON alike) prints floats with
17 significant digits, which round-trips every float64 bit pattern, so
write -> parse is the identity on matrices and reports.  JSON is
emitted with fixed key order, making equal inputs produce
byte-identical documents.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np

from .estimator import EstimateReport
from .sphere import StreamSpec

__all__ = [
    "MAX_DENSE_BYTES",
    "MatrixMarketError",
    "parse_matrix_market",
    "write_matrix_market",
    "parse_json_dense",
    "write_json_dense",
    "parse_report_json",
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
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    if not text:
        raise MatrixMarketError("line 1: empty input, expected %%MatrixMarket header")
    # lines end at "\n" only: str.splitlines also breaks at \x0b, \x0c,
    # \x1c-\x1e, \x85, \u2028 and \u2029, turning one data line into several
    lines = text.removesuffix("\n").split("\n")
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

    # numbers of the size and data lines: all but blank and comment lines
    body = [n for n, raw in enumerate(lines[1:], 2)
            if (line := raw.strip()) and line[0] != "%"]
    if not body:
        raise MatrixMarketError(f"line {len(lines)}: missing size line")
    number = body[0]
    size_line = lines[number - 1]
    tokens = size_line.split()
    want_size = 3 if fmt == "coordinate" else 2
    if len(tokens) != want_size:
        raise MatrixMarketError(
            f"line {number}: size line needs {want_size} integers, found {len(tokens)}"
        )
    if not _lines_of(*[_INT] * want_size).fullmatch(size_line):
        raise MatrixMarketError(f"line {number}: bad size line {size_line.strip()!r}")
    sizes = [int(tok) for tok in tokens]
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
                f"{dense_bytes} bytes, above the limit of {MAX_DENSE_BYTES}"
            )
    # every entry takes a line of its own
    if expected > len(lines) - number:
        raise MatrixMarketError(
            f"line {len(lines)}: expected {expected} entries, "
            f"found {len(lines) - number} lines after the size line"
        )

    numbers = body[1:]

    def fault(k: int, problem: str) -> MatrixMarketError:
        return MatrixMarketError(f"line {numbers[k]}: {problem}: {lines[numbers[k] - 1]!r}")

    data = "\n".join([lines[n - 1] for n in numbers])
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
    if len(numbers) > expected:
        raise MatrixMarketError(
            f"line {numbers[expected]}: extra data, expected {expected} entries"
        )
    if len(numbers) < expected:
        raise MatrixMarketError(
            f"line {numbers[-1] if numbers else number}: "
            f"expected {expected} entries, found {len(numbers)}"
        )

    values = np.array(data.split(), dtype=np.float64).reshape(expected, len(grammar))
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
    the same text as its matrix_pairs lists.
    """
    pieces = []
    _emit(value, pieces)
    return "".join(pieces)


def _complex_array(a: np.ndarray) -> str:
    """[re, im] pairs of a complex array, nested by its axes."""
    m = np.ascontiguousarray(a)
    floats = m.view(np.float64)
    finite = np.isfinite(floats)
    if not finite.all():
        bad = float(floats.flat[np.argmin(finite)])
        raise ValueError(f"cannot serialize non-finite float {bad!r}")
    # one %-template per row, over the row's interleaved (re, im) floats
    row = "[" + ", ".join(["[%.17g, %.17g]"] * m.shape[-1]) + "]"

    def text(sub: np.ndarray) -> str:
        if sub.ndim == 1:
            return row % tuple(sub.view(np.float64).tolist())
        return "[" + ", ".join(text(part) for part in sub) + "]"

    return text(m)


def _emit(value, pieces) -> None:
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
        pieces.append(_complex_array(value))
    elif isinstance(value, (list, tuple)):
        pieces.append("[")
        for k, item in enumerate(value):
            if k:
                pieces.append(", ")
            _emit(item, pieces)
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
            _emit(item, pieces)
        pieces.append("}")
    else:
        raise ValueError(f"cannot serialize {type(value).__name__} to JSON")


def write_report_json(report: EstimateReport) -> str:
    """Serialize an estimate report with a fixed key order.

    Keys: n, samples, mean, stderr, ci_radius, seed, exact, and
    abs_error = report.abs_error() when the report carries the exact
    value; otherwise `exact` is null and abs_error is left out.
    """
    doc = {
        "n": report.dim,
        "samples": report.sample_count,
        "mean": complex_pair(report.mean),
        "stderr": report.stderr,
        "ci_radius": report.ci_radius,
        "seed": report.spec.master_seed,
        "exact": None if report.exact is None else complex_pair(report.exact),
    }
    if report.exact is not None:
        doc["abs_error"] = report.abs_error()
    return dumps(doc) + "\n"


def parse_report_json(text) -> EstimateReport:
    """Rebuild an EstimateReport from write_report_json output.

    The document stores only the master seed; reports are always based
    at stream index 0, so that is what the spec is rebuilt with.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    for key in ("n", "samples", "mean", "stderr", "ci_radius", "seed"):
        if key not in doc:
            raise ValueError(f"report is missing key {key!r}")
    for key in ("n", "samples", "seed"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], int):
            raise ValueError(f"{key}: expected an integer, got {doc[key]!r}")
    mean = _complex_from_pair(doc["mean"], "mean")
    exact = doc.get("exact")
    return EstimateReport(
        dim=int(doc["n"]),
        sample_count=int(doc["samples"]),
        mean=mean,
        stderr=_real_number(doc["stderr"], "stderr"),
        ci_radius=_real_number(doc["ci_radius"], "ci_radius"),
        spec=StreamSpec(int(doc["seed"]), 0),
        exact=None if exact is None else _complex_from_pair(exact, "exact"),
    )
