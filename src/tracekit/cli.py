"""Command-line front end: tracekit <subcommand> [flags].

Subcommands: estimate, decompose, uniqueness, check-invariance, sample.
All randomness derives from --seed through the substream layout, so a
repeated invocation with identical flags and inputs produces
byte-identical output (fixed JSON key order, floats at 17 significant
digits).  Exit codes: 0 success, 1 usage or input error, 2 numerical
check failed.  Each cmd_* returns (its report as a dumps document, whether its
check passed), after every check and computation but the report's own:
`sample`'s document is the iterator of its row blocks, drawn as they are
written.  main alone opens the destination, streams the report into it
with dumps and picks the exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path

import numpy as np

from .estimator import estimate_trace, substitution_identity_sweep
from .formats import (
    _report_doc,
    complex_pair,
    dumps,
    parse_json_dense,
    parse_matrix_market,
)
from .linalg import as_matrix
from .sphere import CHUNK_OFFSET_PROBES, StreamSpec, _normalize, map_chunks
from .uniqueness import solve_unique_functional
from .unitary import decompose_into_unitaries, determinant, seeded_unitary

__all__ = ["main"]


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"{value} is not in [0, 2**64)")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is not a positive integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and np.isfinite(value)):
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive finite number")
    return value


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    # every subcommand takes --seed and --output; the other flags go only
    # where they are read
    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--seed", type=_uint64, default=0,
                      help="master seed, 64-bit unsigned (default 0)")
    base.add_argument("--output", metavar="PATH",
                      help="write the report here instead of stdout")
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("matrix", help="path to the input matrix: JSON if its first "
                        "non-blank character is '[', else Matrix Market")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=_positive_int, default=100000,
                         help="number of sphere draws (default 100000)")

    parser = argparse.ArgumentParser(
        prog="tracekit",
        description="Randomized trace estimation and its supporting certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[base, matrix, samples],
                       help="estimate the normalized trace of a matrix file")
    p.add_argument("--z", type=_positive_float, default=3.0,
                   help="reported confidence radius in standard errors, not gated (default 3)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("decompose", parents=[base, matrix],
                       help="write a matrix as a sum of at most four unitaries")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("uniqueness", parents=[base],
                       help="solve for the unique normalized tracial functional")
    p.add_argument("--dim", type=_positive_int, required=True,
                   help="matrix dimension n")
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("check-invariance", parents=[base, matrix, samples],
                       help="verify the unitary change of variables on random draws")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--unitary", metavar="PATH",
                        help="path to the unitary B")
    source.add_argument("--random-unitary", action="store_true",
                        help="draw a seeded random unitary B")
    p.set_defaults(func=cmd_check_invariance)

    p = sub.add_parser("sample", parents=[base],
                       help="emit seeded unit vectors from the sphere of C^n")
    p.add_argument("--dim", type=_positive_int, required=True,
                   help="vector dimension n")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="number of vectors (default 1)")
    p.set_defaults(func=cmd_sample)
    return parser


def _load_matrix(path: str) -> np.ndarray:
    try:  # a check-invariance fault must say which of its two files it is in
        text = Path(path).read_text(encoding="utf-8")
        # a Matrix Market file opens with its header, never with "["
        json_text = text.lstrip(" \t\n\r").startswith("[")
        parsed = parse_json_dense(text) if json_text else parse_matrix_market(text)
    except ValueError as exc:  # UnicodeDecodeError among them
        raise ValueError(f"matrix file {path!r}: {exc}") from None
    return as_matrix(parsed, f"matrix file {path!r}")


def cmd_estimate(args):
    a = _load_matrix(args.matrix)
    report = estimate_trace(a, args.samples, StreamSpec(args.seed, 0), z=args.z)
    doc = _report_doc(report)
    return doc, doc["abs_error"] <= report.radius + report.rounding_floor


def cmd_decompose(args):
    a = _load_matrix(args.matrix)
    dec = decompose_into_unitaries(a)
    doc = {
        "n": dec.dim,
        "terms": [
            {
                "coefficient": complex_pair(c),
                "det": complex_pair(determinant(u)),
                "unitary": u,
            }
            for c, u in zip(dec.coefficients, dec.unitaries)
        ],
        "reconstruction_residual": dec.reconstruction_residual,
        "unitarity_residual": dec.unitarity_residual,
    }
    return doc, (dec.reconstruction_residual <= dec.reconstruction_bound
                 and dec.unitarity_residual <= dec.unitarity_bound)


def cmd_uniqueness(args):
    solution = solve_unique_functional(args.dim)
    doc = {
        "dim": solution.dim,
        "solution": solution.values,
        "nullspace_dim": solution.nullspace_dim,
        "residual": solution.residual,
    }
    # the values are read off exactly, so the gate is exact too; a solution
    # space that is not one dimensional has raised ArithmeticError
    return doc, np.array_equal(solution.values, np.eye(args.dim) / args.dim)


def cmd_check_invariance(args):
    a = _load_matrix(args.matrix)
    if args.random_unitary:
        b = seeded_unitary(StreamSpec(args.seed, CHUNK_OFFSET_PROBES), a.shape[0])
    else:
        b = _load_matrix(args.unitary)
    max_gap, unitarity, bound = substitution_identity_sweep(
        a, b, args.samples, StreamSpec(args.seed, 0)
    )
    doc = {
        "n": a.shape[0],
        "samples": args.samples,
        "max_gap": max_gap,
        "bound": bound,
        "unitarity_residual": unitarity,
        "seed": args.seed,
    }
    return doc, max_gap <= bound


def cmd_sample(args):
    # the vectors are drawn as they are written, a chunk at a time; a row of
    # zero normals therefore fails the run part way through its report
    chunks = map_chunks(_normalize, StreamSpec(args.seed, 0), args.dim, args.count)
    return (rows for _, rows in chunks), True


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        document, passed = args.func(args)
        # opened only now, so a run that fails before its report leaves the file as it was
        with (open(args.output, "w", encoding="utf-8") if args.output
              else contextlib.nullcontext(sys.stdout)) as out:
            dumps(document, out.write)
            out.write("\n")
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if passed else 2


if __name__ == "__main__":
    sys.exit(main())
