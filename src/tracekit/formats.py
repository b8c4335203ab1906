"""Matrix Market and JSON input/output for dense complex matrices.

The Matrix Market support covers the dense "array" and sparse
"coordinate" formats with real, complex, or integer fields and general,
symmetric, or hermitian symmetry; parse failures carry 1-based line
numbers.  Array data is column-major; symmetric and hermitian files
store the lower triangle (column-major within it) and are expanded on
read.  Written files always use "array complex general".  Size and data
lines are ASCII without "_", and float() reads each token, with its bits.

All numeric output (Matrix Market and JSON alike) prints floats with
17 significant digits, which round-trips every float64 bit pattern, so
write -> parse is the identity on matrices, and every float of a report
reads back with its bits.  JSON is
emitted with fixed key order, making equal inputs produce
byte-identical documents.  The floats of a complex array, in JSON and
Matrix Market alike, are written from exact integer digits where their
%.17g text is "0." and at most three zeros before the digits: the 17
significant digits are worked out from the 53-bit mantissa in uint64
arithmetic, rounded half to even as %.17g rounds them, and zeros are
written "0" and "-0".  Every other float (|x| >= 1, below 1e-4, a
subnormal), and every float of a written piece of fewer than 256 entries or
of mostly |x| >= 1, is written by %.17g itself, so the bytes are those of
%.17g on each float.  A document can be written piece by piece, never whole:
dumps(value, write) hands each piece to write() as it is made, an array's rows
_TEXT_FLOATS floats at a time, and the row blocks an iterator yields as one array.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections.abc import Iterator

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


# Size and data lines obey one token rule (see parse_matrix_market); the
# integer tokens are those made of these characters alone.
_INTEGER = "+-0123456789"
_BLOCK = 1 << 13  # characters of data read at a time, cut at a newline


def _read(lines: str, width: int, integers):
    """float() of each token of `lines`, rows of `width` tokens, if every
    line holds `width` tokens under the token rule, else None; the columns
    `integers` hold [+-]?[0-9]+ tokens.  `lines` ends with a newline but
    perhaps its last line."""
    if not lines.isascii() or "_" in lines:
        return None
    # each newline becomes a "_" token, so where every line holds `width`
    # tokens, "_" is every (width + 1)-th token and no other
    tokens = lines.replace("\n", " _ ").split()
    if lines[-1] != "\n":
        tokens.append("_")
    if tokens[width::width + 1].count("_") * (width + 1) != len(tokens):
        return None
    del tokens[width::width + 1]
    try:
        values = list(map(float, tokens))
    except ValueError:  # a "_" too, left where no line ends
        return None
    if any("".join(tokens[c::width]).strip(_INTEGER) for c in integers):
        return None
    return values


def _is_body(raw: str) -> bool:
    """A size or data line: neither blank nor a comment."""
    return bool(line := raw.lstrip()) and line[0] != "%"


def _body(text: str, start: int, k: int):
    """(number, match) of body line k (0-based) of `text` after line `start`,
    or None past the last.  The lines, which end at "\n" only as "." stops,
    are matched one at a time from the top, so no list of them is made."""
    lines = itertools.islice(enumerate(re.finditer("^.*$", text, re.M), 1), start, None)
    return next(itertools.islice(((n, m) for n, m in lines if _is_body(m[0])), k, None), None)


def _integer(token: str) -> int:
    """int(token) of a [+-]?[0-9]+ token, read without its leading zeros,
    which int() would count against its digit limit (sys.get_int_max_str_digits)."""
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

    Size and data lines are ASCII without "_", and each token is one that
    float() reads, which on such text is the decimal
    [+-]?([0-9]+(.[0-9]*)?|.[0-9]+)([eE][+-]?[0-9]+)? or nan or inf, the
    latter rejected as non-finite; sizes, indices and integer fields are
    [+-]?[0-9]+.  Each token reads with float()'s bits.  Anything else,
    including a wrong entry count or a coordinate size whose dense array
    would exceed MAX_DENSE_BYTES, raises MatrixMarketError with a line
    number.  Faults past the size line are reported by kind: a line
    breaking the token rule, the entry count, an index out of range, an
    entry above the diagonal of symmetric storage, a non-finite value, a
    hermitian diagonal entry with an imaginary part; within a kind, the
    first line in the file.

    The data is read in blocks of 8 KB, each split into tokens at once
    and read again line by line only if it holds a blank line, a comment
    or a fault.  Transient memory is the numbers twice, as floats and as
    the matrix, a coordinate file's indices once more as intp, and some
    60 KB for the block in hand: 0.9x the text of a 64 x 64 array file,
    1.5x that of a coordinate file.  A fault costs no more memory than a
    read: its line is found by walking the lines again one at a time.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    if not text:
        raise MatrixMarketError("line 1: empty input, expected %%MatrixMarket header")
    # lines end at "\n" only: str.splitlines also breaks at \x0b, \x0c,
    # \x1c-\x1e, \x85, \u2028 and \u2029, turning one data line into several
    end = text.find("\n") % (len(text) + 1)  # the text's end if it has no newline
    header = text[:end].split()
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
    if (size := _body(text, 1, 0)) is None:
        last = text.count("\n", 0, -1) + 1  # a final newline ends the last line and starts none
        raise MatrixMarketError(f"line {last}: missing size line")
    number, match = size
    size_line, end = match[0], match.end()
    tokens = size_line.split()
    want_size = 3 if fmt == "coordinate" else 2
    if len(tokens) != want_size:
        raise MatrixMarketError(
            f"line {number}: size line needs {want_size} integers, found {len(tokens)}"
        )
    if _read(size_line, want_size, range(want_size)) is None:
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

    complex_field = field == "complex"
    width = (2 if fmt == "coordinate" else 0) + (2 if complex_field else 1)
    integers = range(width if field == "integer" else 2 if fmt == "coordinate" else 0)
    entry = ("row and column indices and " if fmt == "coordinate" else "") + {
        "real": "one real number", "integer": "one integer", "complex": "two real numbers"}[field]
    # a data line takes 2 * width characters or more, its newline included,
    # so a file short of its size line's count allocates no more than it holds
    values = np.empty((min(expected, (len(text) - end) // (2 * width)), width))
    flat = values.reshape(-1)

    def fault(k: int, problem: str) -> MatrixMarketError:
        # data line k, found by walking the text again: only a fault pays the
        # time, and the walk costs no more memory than a read
        n, match = _body(text, number, k)
        return MatrixMarketError(f"line {n}: {problem}: {match[0]!r}")

    found = 0  # data lines so far
    start = end + 1
    while start < len(text):
        end = len(text)
        if end - start > _BLOCK:  # cut at a newline, past _BLOCK for a longer line
            end = (text.rfind("\n", start, start + _BLOCK) + 1
                   or text.find("\n", start + _BLOCK) + 1 or end)
        block, start = text[start:end], end
        read = _read(block, width, integers)
        if read is None:  # a blank line, a comment or a fault: line by line
            read = []
            for raw in filter(_is_body, block.split("\n")):
                row = _read(raw, width, integers)
                if row is None:
                    raise fault(found + len(read) // width, f"expected {entry}")
                read += row
        at = found * width
        found += len(read) // width
        if at < flat.size:  # past it, found > expected
            flat[at:at + len(read)] = read[:flat.size - at]
    if found > expected:
        raise MatrixMarketError(
            f"line {_body(text, number, expected)[0]}: extra data, expected {expected} entries"
        )
    if found < expected:
        raise MatrixMarketError(
            f"line {_body(text, number, found - 1)[0] if found else number}: "
            f"expected {_decimal(expected)} entries, found {found}"
        )

    if fmt == "coordinate":  # 1-based, checked as floats: past intp a cast would warn
        indices, values = values[:, :2], values[:, 2:]
        i, j = indices.T
    elif symmetry != "general":
        j, i = np.triu_indices(rows)  # the stored lower triangle, column by column
    faults = []
    if fmt == "coordinate":
        faults.append(((i < 1) | (i > rows) | (j < 1) | (j > cols),
                       f"index out of range for a {rows} x {cols} matrix"))
        if symmetry != "general":
            faults.append((i < j, f"{symmetry} storage requires row >= column"))
    if not np.isfinite(values).all():  # the per-line mask only where one is not
        faults.append((~np.isfinite(values).all(axis=1), "non-finite value"))
    if symmetry == "hermitian" and complex_field:
        faults.append(((i == j) & (values[:, 1] != 0),
                       "hermitian diagonal entry has imaginary part"))
    for mask, problem in faults:
        hits = np.flatnonzero(mask)
        if hits.size:
            raise fault(hits[0], problem)

    # (re, im) pairs viewed as one complex, a real cast: both keep signed zeros
    z = values.view(np.complex128)[:, 0] if complex_field else values[:, 0].astype(np.complex128)
    if fmt == "array" and symmetry == "general":  # column-major, copied row-major
        return np.ascontiguousarray(z.reshape(cols, rows).T)
    a = np.zeros((rows, cols), dtype=np.complex128)
    if fmt == "array":
        a[i, j] = z
    else:
        ij = indices.astype(np.intp)  # in range, so cast once and made 0-based in place
        ij -= 1
        np.add.at(a, (ij[:, 0], ij[:, 1]), z)
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
    # one %-template over the column-major entries
    f, args = _floats(m.T.ravel())
    out.append("\n".join(["%s %s" % (f, f)] * m.size) % tuple(args))
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


def dumps(value, write=None):
    """Deterministic JSON: insertion-ordered keys, floats at 17 digits.

    A complex128 ndarray (1-d or more) is written as nested [re, im] pairs,
    the same text as its matrix_pairs lists: its fixed-form floats below 1
    and its zeros from exact integer digits, every other float by %.17g.
    An iterator of 2-d complex128 arrays is written as one array, their concatenation.

    Without `write` the text is returned.  With it, each piece of the text
    goes to write(piece) as soon as it is made, in order, and None is
    returned, so the document is never whole in memory: its largest piece
    is a 1-d array's text, or that of _TEXT_FLOATS floats, one row at least,
    of a 2-d one.  A value that cannot be written raises ValueError when it
    is reached, after the pieces before it have gone: a row block, before its own.
    """
    if write is not None:
        _emit(value, write)
        return None
    pieces = []
    _emit(value, pieces.append)
    return "".join(pieces)


def _write_rows(blocks, put) -> None:
    """The rows of the (rows, n) complex128 arrays `blocks` yields, in order,
    as the rows of one JSON array, handed to put() max(1, _TEXT_FLOATS //
    (2 n)) rows at a time as each block is reached."""
    put("[")
    sep = ""
    for block in blocks:
        kind = getattr(block, "dtype", type(block).__name__)
        if kind != np.complex128 or np.ndim(block) != 2:
            shape = getattr(block, "shape", ())
            raise ValueError(f"a row block must be a 2-d complex128 array, got {kind} {shape}")
        m = _finite(block)
        step = max(1, _TEXT_FLOATS // max(1, 2 * m.shape[1]))
        for lo in range(0, len(m), step):
            put(sep)
            put(_rows(m[lo:lo + step]))
            sep = ", "
    put("]")


def _finite(a: np.ndarray) -> np.ndarray:
    """a as a C-contiguous array; ValueError names its first non-finite float."""
    m = np.ascontiguousarray(a)
    floats = m.view(np.float64)
    finite = np.isfinite(floats)
    if not finite.all():
        bad = float(floats.flat[np.argmin(finite)])
        raise ValueError(f"cannot serialize non-finite float {bad!r}")
    return m


def _rows(m: np.ndarray) -> str:
    """The rows of a C-contiguous 2-d complex array, each a list of [re, im]
    pairs, joined by ", " without the brackets around them."""
    f, args = _floats(m)
    row = "[" + ", ".join(["[%s, %s]" % (f, f)] * m.shape[1]) + "]"
    return ", ".join([row % tuple(r) for r in args])


def _floats(m: np.ndarray):
    """A %-format for one float of the C-contiguous complex array m, and its
    arguments, nested as m.view(np.float64).tolist() is: the float itself
    for "%.17g", or its two _texts pieces for "%s%s" where m has
    _DIGITS_FROM entries or more and at least half its floats are below 1;
    m is one written piece."""
    floats = m.view(np.float64)
    if m.size < _DIGITS_FROM or np.count_nonzero(np.abs(floats) < 1) < m.size:
        return "%.17g", floats.tolist()
    return "%s%s", _texts(floats.ravel()).reshape(floats.shape[:-1] + (-1,)).tolist()


# Below ~150 entries (warm caches; more when cold) % alone costs less than the
# ~45 numpy calls of _texts.
_DIGITS_FROM = 256
_TEXT_FLOATS = 1 << 13  # floats taken at a time by _texts, and written at a time: 64 KB arrays
_POW5 = 5 ** np.arange(22, dtype=np.uint64)
# "0." and -1 - X zeros for the decimal exponents X = -1 to -4, then a
# zero's prefix, each unsigned and signed
_PREFIXES = np.array(["0.", "0.0", "0.00", "0.000", "",
                      "-0.", "-0.0", "-0.00", "-0.000", "-"], dtype=object)


def _texts(floats: np.ndarray) -> np.ndarray:
    """The %.17g text of each of the floats, as the two pieces in a row of
    a (floats.size, 2) object array whose concatenation it is.

    A float 2**-14 <= |x| < 2**e <= 1 is M 2**(e - 53), M its 53-bit
    mantissa.  Its 17 digits are N, y = |x| 10**(16 - X) rounded half to
    even, where X is its decimal exponent: floor(log10 2**(e - 1)), or one
    more where that y reaches 10**17.  y is worked out exactly, as the
    integer q plus r / 2**s, in uint64 limbs.  N never rounds up to 10**17:
    that takes |x| within a relative 5e-18 below 10**(X + 1), and the float
    below each 10**j, j = -4 to 0, is a relative 8e-17 or more below it.
    Where X >= -4, and for zeros, the pieces are a _PREFIXES string and N
    stripped of trailing zeros; every other float keeps its %.17g text,
    followed by "".  The floats are taken _TEXT_FLOATS at a time, so the
    temporaries stay small and in cache.
    """
    pieces = np.empty((floats.size, 2), dtype=object)
    for start in range(0, floats.size, _TEXT_FLOATS):
        x, out = floats[start:start + _TEXT_FLOATS], pieces[start:start + _TEXT_FLOATS]
        frac, e = np.frexp(x)
        slow = (e < -13) | (e > 0)  # |x| < 2**-14, subnormals too, or |x| >= 1
        np.clip(e, -13, 0, out=e)
        M = (np.abs(frac) * 2.0**53).astype(np.uint64)
        X = (e - 1) * 78913 >> 18  # floor((e - 1) log10 2), as in Ryu
        # y = M 5**k / 2**s with k = 16 - X and s = 53 - e - k in [36, 45]
        p, s = _POW5[16 - X], (37 - e + X).astype(np.uint64)
        mh, ml, ph, pl = M >> 32, M & 0xFFFFFFFF, p >> 32, p & 0xFFFFFFFF
        mid, low = mh * pl + ml * ph, ml * pl  # mid < 2**54
        lo = low + (mid << 32)  # M 5**k = hi 2**64 + lo
        hi = mh * ph + (mid >> 32) + (lo < low)
        q, r, half = (hi << (64 - s)) | (lo >> s), lo & ((1 << s) - 1), 1 << (s - 1)
        ten = np.where(q < 10**17, 1, 10).astype(np.uint64)  # 10 where X is one more: y / 10
        r += q % ten << s
        half *= ten
        q //= ten
        X += ten > 1
        N = q + (r + (q & 1) > half)  # half to even
        slow |= X < -4
        zeros = np.flatnonzero(N % 10 == 0)
        for power in (10**16, 10**8, 10**4, 10**2, 10):  # 16 trailing zeros at most (0.5)
            strip = zeros[N[zeros] % power == 0]
            N[strip] //= power
        out[:, 0] = _PREFIXES[np.where(N == 0, 4, -1 - X) + 5 * np.signbit(x)]
        out[:, 1] = N
        at = np.flatnonzero(slow)
        out[at, 0] = ["%.17g" % v for v in x[at].tolist()]
        out[at, 1] = ""
    return pieces


def _emit(value, put) -> None:
    array = isinstance(value, np.ndarray) and value.dtype == np.complex128
    if value is None:
        put("null")
    elif isinstance(value, bool):
        put("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        put(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ValueError(f"cannot serialize non-finite float {value!r}")
        put(_fmt(float(value)))
    elif isinstance(value, str):
        put(json.dumps(value))
    elif array and value.ndim == 1:
        put(_rows(_finite(value)[None]))
    elif array and value.ndim == 2:
        _write_rows([value], put)
    elif isinstance(value, Iterator):
        _write_rows(value, put)
    elif isinstance(value, (list, tuple)) or array and value.ndim:  # 3-d and up: by parts
        put("[")
        for k, item in enumerate(value):
            if k:
                put(", ")
            _emit(item, put)
        put("]")
    elif isinstance(value, dict):
        put("{")
        for k, (key, item) in enumerate(value.items()):
            if not isinstance(key, str):
                raise ValueError(f"JSON object keys must be strings, got {key!r}")
            if k:
                put(", ")
            put(json.dumps(key))
            put(": ")
            _emit(item, put)
        put("}")
    else:
        raise ValueError(f"cannot serialize {type(value).__name__} to JSON")


def write_report_json(report: EstimateReport) -> str:
    """Serialize an estimate report with a fixed key order: the text of
    dumps(_report_doc(report)) and a newline."""
    return dumps(_report_doc(report)) + "\n"


def _report_doc(report: EstimateReport) -> dict:
    """An estimate report as a JSON object, with the keys n, samples, mean,
    stderr, ci_radius, seed, exact and abs_error = report.abs_error()."""
    return {
        "n": report.dim,
        "samples": report.sample_count,
        "mean": complex_pair(report.mean),
        "stderr": report.stderr,
        "ci_radius": report.ci_radius,
        "seed": report.spec.master_seed,
        "exact": complex_pair(report.exact),
        "abs_error": report.abs_error(),
    }
