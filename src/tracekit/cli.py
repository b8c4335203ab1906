"""Command-line front end: tracekit <subcommand> [flags].

Subcommands: estimate, decompose, uniqueness, check-invariance, sample.
All randomness derives from --seed through the substream layout, so a
repeated invocation with identical flags and inputs produces
byte-identical output (fixed JSON key order, floats at 17 significant
digits).  Exit codes: 0 success, 1 usage or input error, 2 numerical
check failed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from .estimator import estimate_matrix_trace, substitution_identity_sweep
from .formats import (
    complex_pair,
    dumps,
    parse_json_dense,
    parse_matrix_market,
    write_json_dense,
    write_report_json,
)
from .linalg import as_matrix, frobenius_norm
from .sphere import CHUNK_OFFSET_PROBES, StreamSpec, sample_unit_vectors_chunked
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
    matrix.add_argument("matrix", help="path to the input matrix")
    matrix.add_argument("--format", choices=("mm", "json"), default="mm",
                        help="matrix file format (default mm)")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=_positive_int, default=100000,
                         help="number of sphere draws (default 100000)")
    tolerance = argparse.ArgumentParser(add_help=False)
    tolerance.add_argument("--tolerance", type=_positive_float, default=1e-10,
                           help="residual tolerance for the pass/fail gate (default 1e-10)")

    parser = argparse.ArgumentParser(
        prog="tracekit",
        description="Randomized trace estimation and its supporting certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("estimate", parents=[base, matrix, samples],
                       help="estimate the normalized trace of a matrix file")
    p.add_argument("--z", type=_positive_float, default=3.0,
                   help="confidence radius in standard errors (default 3)")
    p.add_argument("--raw", action="store_true",
                   help="report the raw trace (n times the normalized one)")
    p.add_argument("--no-check", action="store_true",
                   help="always exit 0, skip the exact-value gate")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("decompose", parents=[base, matrix, tolerance],
                       help="write a matrix as a sum of at most four unitaries")
    p.add_argument("--det-one", action="store_true",
                   help="rephase every unitary to determinant 1")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("uniqueness", parents=[base],
                       help="solve for the unique normalized tracial functional")
    p.add_argument("--dim", type=_positive_int, required=True,
                   help="matrix dimension n")
    p.set_defaults(func=cmd_uniqueness)

    p = sub.add_parser("check-invariance", parents=[base, matrix, samples, tolerance],
                       help="verify the unitary change of variables on random draws")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--unitary", metavar="PATH",
                        help="path to the unitary B, in the format of the matrix")
    source.add_argument("--random-unitary", action="store_true",
                        help="draw B from a seeded decomposition")
    p.set_defaults(func=cmd_check_invariance)

    p = sub.add_parser("sample", parents=[base],
                       help="emit seeded unit vectors from the sphere of C^n")
    p.add_argument("--dim", type=_positive_int, required=True,
                   help="vector dimension n")
    p.add_argument("--count", type=_positive_int, default=1,
                   help="number of vectors (default 1)")
    p.set_defaults(func=cmd_sample)
    return parser


def _load_matrix(path: str, fmt: str) -> np.ndarray:
    text = Path(path).read_text()
    parsed = parse_matrix_market(text) if fmt == "mm" else parse_json_dense(text)
    return as_matrix(parsed, f"matrix file {path!r}")


def _emit(text: str, args) -> None:
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_estimate(args) -> int:
    a = _load_matrix(args.matrix, args.format)
    report = estimate_matrix_trace(
        a, args.samples, StreamSpec(args.seed, 0), z=args.z, raw=args.raw
    )
    # rounding in the mean alone reaches ~eps * n * ||A||_F (times n for the
    # raw trace), which a near-constant spectrum's stderr can undercut
    n = a.shape[0]
    floor = np.finfo(np.float64).eps * n * frobenius_norm(a) * (n if args.raw else 1)
    _emit(write_report_json(report), args)
    if args.no_check:
        return 0
    return 0 if report.abs_error() <= max(args.z * report.stderr, floor) else 2


def cmd_decompose(args) -> int:
    a = _load_matrix(args.matrix, args.format)
    dec = decompose_into_unitaries(a, det_one=args.det_one)
    scale = max(1.0, frobenius_norm(a))
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
    _emit(dumps(doc) + "\n", args)
    ok = (dec.reconstruction_residual <= args.tolerance * scale
          and dec.unitarity_residual <= args.tolerance * dec.dim)
    return 0 if ok else 2


def cmd_uniqueness(args) -> int:
    solution = solve_unique_functional(args.dim)
    doc = {
        "dim": solution.dim,
        "solution": solution.values,
        "nullspace_dim": solution.nullspace_dim,
        "residual": solution.residual,
    }
    _emit(dumps(doc) + "\n", args)
    # the values are read off exactly, so the gate is exact too
    exact = np.array_equal(solution.values, np.eye(args.dim) / args.dim)
    return 0 if exact and solution.nullspace_dim == 1 else 2


def cmd_check_invariance(args) -> int:
    a = _load_matrix(args.matrix, args.format)
    if args.random_unitary:
        b = seeded_unitary(StreamSpec(args.seed, CHUNK_OFFSET_PROBES), a.shape[0])
    else:
        b = _load_matrix(args.unitary, args.format)
    max_gap, unitarity = substitution_identity_sweep(
        a, b, args.samples, StreamSpec(args.seed, 0)
    )
    bound = args.tolerance * (1.0 + frobenius_norm(a))
    doc = {
        "n": a.shape[0],
        "samples": args.samples,
        "max_gap": max_gap,
        "bound": bound,
        "unitarity_residual": unitarity,
        "seed": args.seed,
    }
    _emit(dumps(doc) + "\n", args)
    return 0 if max_gap <= bound else 2


def cmd_sample(args) -> int:
    vectors = sample_unit_vectors_chunked(StreamSpec(args.seed, 0), args.dim, args.count)
    _emit(write_json_dense(vectors), args)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
