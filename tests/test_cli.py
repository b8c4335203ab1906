"""Subcommand behavior, exit codes, and byte-level determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import tracekit
from tracekit import cli, uniqueness
from tracekit.cli import main
from tracekit.formats import (
    complex_pair,
    dumps,
    matrix_pairs,
    parse_matrix_market,
    write_json_dense,
    write_matrix_market,
)
from tracekit.linalg import hermitian_eigh, matrix_unit
from tracekit.sphere import StreamSpec
from tracekit.uniqueness import _MAX_DIM
from tracekit.unitary import decompose_into_unitaries, determinant


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


FLAG = r"(?<![\w-])--[a-z][a-z-]*"


def help_flags(capsys, command):
    """The set of flags that `tracekit <command> --help` lists."""
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    return set(re.findall(FLAG, out))


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "eye.mm"
    path.write_text(write_matrix_market(np.eye(3)))
    return str(path)


@pytest.fixture
def random_file(tmp_path):
    rng = np.random.default_rng(600)
    path = tmp_path / "a.mm"
    path.write_text(write_matrix_market(crandn(rng, 4, 4)))
    return str(path)


class TestEstimate:
    def test_identity_exact(self, capsys, identity_file):
        code, out, _ = run(capsys, "estimate", identity_file, "--samples", "100")
        assert code == 0
        doc = json.loads(out)
        assert doc["mean"] == [1.0, 0.0]
        assert doc["stderr"] == 0.0
        assert doc["exact"] == [1.0, 0.0]
        assert doc["abs_error"] == 0.0
        assert list(doc) == [
            "n", "samples", "mean", "stderr", "ci_radius", "seed", "exact",
            "abs_error",
        ]

    def test_matrix_unit_quarter_trace(self, capsys, tmp_path):
        path = tmp_path / "e11.mm"
        path.write_text(write_matrix_market(matrix_unit(0, 0, 4)))
        code, out, _ = run(
            capsys, "estimate", str(path), "--seed", "5", "--samples", "20000"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == [0.25, 0.0]
        assert doc["abs_error"] <= doc["ci_radius"]

    def test_raw_flag_scales_by_dimension(self, capsys, identity_file):
        code, out, _ = run(
            capsys, "estimate", identity_file, "--samples", "50", "--raw"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["mean"] == [3.0, 0.0]
        assert doc["exact"] == [3.0, 0.0]

    def test_no_check_suppresses_gate(self, capsys, random_file):
        # a z so small the gate cannot pass
        code, _, _ = run(
            capsys, "estimate", random_file,
            "--samples", "200", "--z", "1e-12",
        )
        assert code == 2
        code, _, _ = run(
            capsys, "estimate", random_file,
            "--samples", "200", "--z", "1e-12", "--no-check",
        )
        assert code == 0

    @pytest.mark.parametrize("diag", [
        [0.1] * 3, [0.3] * 3, [1.0 / 3.0] * 3, [1.0, 1.0 + 1e-15, 1.0],
    ])
    @pytest.mark.parametrize("raw", [(), ("--raw",)])
    def test_rounding_error_passes_gate(self, capsys, tmp_path, diag, raw):
        # near-constant diagonals give a stderr far below the rounding
        # error of the mean; the gate must not fail on rounding alone
        path = tmp_path / "d.mm"
        path.write_text(write_matrix_market(np.diag(diag)))
        code, out, _ = run(capsys, "estimate", str(path), "--samples", "1000", *raw)
        assert code == 0, out

    def test_output_file(self, capsys, identity_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "estimate", identity_file,
            "--samples", "10", "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["mean"] == [1.0, 0.0]

    def test_json_input_format(self, capsys, tmp_path):
        path = tmp_path / "eye.json"
        path.write_text(write_json_dense(np.eye(2)))
        code, out, _ = run(capsys, "estimate", str(path), "--samples", "10")
        assert code == 0
        assert json.loads(out)["mean"] == [1.0, 0.0]

    def test_json_after_leading_whitespace(self, capsys, tmp_path):
        # the file gives its format: JSON when its first non-blank character is "["
        path = tmp_path / "eye.txt"
        path.write_text(" \t\r\n" + write_json_dense(np.eye(2)))
        code, out, _ = run(capsys, "estimate", str(path), "--samples", "10")
        assert code == 0
        assert json.loads(out)["mean"] == [1.0, 0.0]

    def test_unreadable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", str(tmp_path / "nope.mm"))
        assert code == 1
        assert "error" in err

    def test_malformed_file_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.mm"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n")
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 1
        assert "line" in err

    def test_non_integer_in_integer_field_exits_1(self, capsys, tmp_path):
        path = tmp_path / "bad.mm"
        path.write_text("%%MatrixMarket matrix array integer general\n1 1\n1.5\n")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 1 and out == ""
        assert "line 3" in err

    @pytest.mark.parametrize("text", [
        "%%MatrixMarket matrix coordinate real general\n10 10 1\n1_0 1 1.0\n",
        "%%MatrixMarket matrix array real general\n1 1\n1_000.5\n",
        "%%MatrixMarket matrix coordinate real general\n2 2 1\n١ 1 1.0\n",
        "%%MatrixMarket matrix array real general\n1 1\n２.5\n",
        "%%MatrixMarket matrix array real general\n%\n1_0 1\n" + "1\n" * 10,
        "%%MatrixMarket matrix array real general\n2 1\n1\u20282\n",
        "%%MatrixMarket matrix array real general\n2 1\n1\x0c2\n",
    ], ids=["separator-index", "separator-entry", "arabic-indic-index",
            "fullwidth-entry", "separator-size", "line-separator", "form-feed"])
    def test_non_ascii_numeral_separator_or_line_break_exits_1(self, capsys, tmp_path, text):
        # Matrix Market numbers are ASCII digits without separators, unlike
        # the numerals Python's int() and float() accept, and a line ends
        # only at a newline, unlike str.splitlines()
        path = tmp_path / "bad.mm"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "estimate", str(path), "--samples", "10")
        assert code == 1 and out == ""
        assert err.startswith(f"error: matrix file {str(path)!r}: line 3:")

    def test_deeply_nested_json_exits_1(self, capsys, tmp_path):
        # an input error, not a failed numerical check
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 1
        assert "nested too deeply" in err

    def test_json_integer_beyond_float_range_exits_1(self, capsys, tmp_path):
        # an input error, not a failed numerical check
        path = tmp_path / "big.json"
        path.write_text("[[[1" + "0" * 400 + ", 0]]]")
        code, out, err = run(capsys, "estimate", str(path))
        assert code == 1 and out == ""
        assert err.startswith(f"error: matrix file {str(path)!r}: "
                              "entry (0, 0)[0]: non-finite value")

    def test_overflowing_exact_trace_exits_0(self, capsys, tmp_path):
        # tr A = 2e308 overflows float64, tr A / n = 1e308 does not: the
        # estimate and the exact value are of A / 2**e, scaled back
        path = tmp_path / "big.mm"
        path.write_text(write_matrix_market(np.diag([1e308, 1e308])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", str(path), "--samples", "1")
        assert code == 0 and err == ""
        assert json.loads(out)["exact"] == [1e308, 0]

    @pytest.mark.parametrize("seed", ["3", "5"])
    def test_overflowing_raw_trace_exits_1_with_one_line(self, capsys, tmp_path, seed):
        # the normalized mean of the one draw is finite; twice it is not
        path = tmp_path / "big.mm"
        path.write_text(write_matrix_market(np.diag([1.2e308, -1.2e308])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", str(path), "--raw",
                                 "--samples", "1", "--seed", seed)
        assert code == 1 and out == ""
        assert err == "error: raw trace overflows float64; rescale the matrix\n"

    @pytest.mark.parametrize("z, flags", [
        ("1e308", ()),
        ("1e308", ("--no-check",)),
        ("1.5e307", ("--raw",)),  # z * stderr is finite; n = 2 times it is not
    ], ids=["gate", "no-check", "raw"])
    def test_overflowing_ci_radius_names_z(self, capsys, tmp_path, z, flags):
        # the mean and stderr (~100) are finite; z * stderr at z = 1e308 is not
        path = tmp_path / "a.mm"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n100\n0\n0\n-100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", str(path), "--samples", "50",
                                 "--z", z, *flags)
        assert code == 1 and out == ""
        assert err == f"error: ci_radius = z * stderr is not finite at z = {float(z):g}; lower z\n"

    @pytest.mark.parametrize("text, where", [
        ("%%MatrixMarket matrix coordinate real general\n1000000 1000000 1\n1 1 1.0\n", "line 2"),
        ("%%MatrixMarket matrix array real general\n1000000 1000000\n1.0\n", "line 3"),
        ("%%MatrixMarket matrix array real general\n1" + "0" * 5000 + " 1\n1.0\n", "line 2"),
    ], ids=["coordinate", "array", "past-int-digit-limit"])
    def test_huge_declared_size_rejected(self, capsys, tmp_path, text, where):
        # a three-line file must not ask for a dense 10^6 x 10^6 array
        path = tmp_path / "huge.mm"
        path.write_text(text)
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 1
        assert err.startswith("error:") and where in err

    def test_memory_error_exits_1(self, capsys, random_file, monkeypatch):
        def no_memory(text):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr("tracekit.cli.parse_matrix_market", no_memory)
        code, _, err = run(capsys, "estimate", random_file)
        assert code == 1
        assert err.startswith("error:")

    def test_nonsquare_rejected(self, capsys, tmp_path):
        path = tmp_path / "rect.mm"
        path.write_text(write_matrix_market(np.ones((2, 3))))
        code, _, err = run(capsys, "estimate", str(path))
        assert code == 1
        assert "square" in err

    def test_zero_sampler_row_exits_2_with_one_line(self, capsys, random_file, zero_rows):
        # from row 100 of chunk 1 on, every word of substream (0, 1) is 2**63
        # and every row 0: a row with no direction gives no report
        zero_rows(StreamSpec(0, 1), 4, 100, 4 * 2 * 4 * 9000)
        code, out, err = run(capsys, "estimate", random_file, "--samples", "9000")
        assert code == 2 and out == ""
        assert err == "error: the sampler drew a row of zero normals; no unit vector\n"

    def test_repeat_invocations_byte_identical(self, capsys, random_file):
        args = ("estimate", random_file, "--seed", "9", "--samples", "5000")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second


class TestDecompose:
    def test_zero_matrix_single_term(self, capsys, tmp_path):
        path = tmp_path / "zero.mm"
        path.write_text(write_matrix_market(np.zeros((3, 3))))
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["terms"]) == 1
        assert doc["terms"][0]["coefficient"] == [0.0, 0.0]

    def test_hermitian_contraction_half_coefficients(self, capsys, tmp_path):
        # two terms of half the operator norm, here about 1/4
        rng = np.random.default_rng(601)
        g = crandn(rng, 4, 4)
        h = (g + g.conj().T) / 2
        h = h / (2.0 * np.linalg.norm(h, 2))
        path = tmp_path / "h.mm"
        path.write_text(write_matrix_market(h))
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        doc = json.loads(out)
        w = hermitian_eigh(parse_matrix_market(path.read_text()))[0]
        half = max(abs(w[0]), abs(w[-1])) / 2.0
        assert [t["coefficient"] for t in doc["terms"]] == [[half, 0.0], [half, 0.0]]

    @pytest.mark.parametrize("kind", ["general", "hermitian", "det-one"])
    def test_output_bytes_match_the_list_path(self, capsys, tmp_path, kind):
        # U* of each pair is written from U's digits; the bytes must be
        # those of the same document with every float formatted itself
        rng = np.random.default_rng(602)
        a = crandn(rng, 7, 7)
        if kind == "hermitian":
            a = (a + a.conj().T) / 2
            a = a / (2.0 * np.linalg.norm(a, 2))
        path = tmp_path / "a.mm"
        path.write_text(write_matrix_market(a))
        det_one = kind == "det-one"
        code, out, _ = run(capsys, "decompose", str(path), *["--det-one"] * det_one)
        assert code == 0
        dec = decompose_into_unitaries(parse_matrix_market(path.read_text()), det_one=det_one)
        units = dec.unitaries
        paired = [np.array_equal(np.conj(u).T.copy().view(np.uint64), v.view(np.uint64))
                  for u, v in zip(units[0::2], units[1::2])]
        assert paired == {"general": [True, True], "hermitian": [True],
                          "det-one": [False, False]}[kind]
        doc = {
            "n": 7,
            "terms": [{"coefficient": complex_pair(c), "det": complex_pair(determinant(u)),
                       "unitary": matrix_pairs(u)}
                      for c, u in zip(dec.coefficients, units)],
            "reconstruction_residual": dec.reconstruction_residual,
            "unitarity_residual": dec.unitarity_residual,
        }
        assert out == dumps(doc) + "\n"

    def test_random_with_det_one(self, capsys, random_file):
        code, out, _ = run(capsys, "decompose", random_file, "--det-one")
        assert code == 0
        doc = json.loads(out)
        assert 1 <= len(doc["terms"]) <= 4
        for term in doc["terms"]:
            det = complex(term["det"][0], term["det"][1])
            assert abs(det - 1.0) <= 1e-8
        assert doc["reconstruction_residual"] <= 1e-10 * 8.0
        assert doc["unitarity_residual"] <= 1e-10 * 4

    def test_unitary_entries_present(self, capsys, random_file):
        _, out, _ = run(capsys, "decompose", random_file)
        doc = json.loads(out)
        u = np.array(
            [[complex(re, im) for re, im in row] for row in doc["terms"][0]["unitary"]]
        )
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10 * 4

    def test_byte_identical(self, capsys, random_file):
        _, first, _ = run(capsys, "decompose", random_file, "--det-one")
        _, second, _ = run(capsys, "decompose", random_file, "--det-one")
        assert first == second

    def test_overflowing_hermitian_parts_exit_0(self, capsys, tmp_path):
        # (A + A*) / 2 sums 2e308 before it halves, but the parts are of
        # A / 2**e: the one part A = 1e308 (1 1; 1 1), of norm 2e308, gives
        # two terms of coefficient 1e308
        path = tmp_path / "big.mm"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n"
                        + "1e308\n" * 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "decompose", str(path))
        assert code == 0 and err == ""
        assert [t["coefficient"] for t in json.loads(out)["terms"]] == [[1e308, 0]] * 2


SUBCOMMANDS = [["estimate"], ["decompose"], ["check-invariance", "--random-unitary"]]


# every entry is finite; scale None is the 2 x 2 matrix of 1e308s, whose
# Hermitian part (A + A*) / 2 sums 2e308 before it halves, and whose
# sample values <A x, x> reach 2e308.  Each subcommand works on A / 2**e
# and scales its results back, so each exits 0 with a finite report.
@pytest.mark.parametrize("argv, scale", [
    (argv, scale) for scale in (1e160, 1e200, 1e300, None) for argv in SUBCOMMANDS
], ids=lambda x: x if isinstance(x, float) else x and x[0])
def test_huge_scale_exits_0_or_asks_to_rescale(capsys, tmp_path, argv, scale):
    if scale is None:
        a = np.full((2, 2), 1e308)
    else:
        a = crandn(np.random.default_rng(600), 4, 4) * scale
    path = tmp_path / "a.mm"
    path.write_text(write_matrix_market(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
    assert code == 0 and err == ""
    assert json.loads(out)  # dumps writes no inf or nan


class TestUniqueness:
    def test_dim_2(self, capsys):
        code, out, _ = run(capsys, "uniqueness", "--dim", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["dim"] == 2
        assert doc["nullspace_dim"] == 1
        # read off the exact components: no float solve, so no rounding noise
        assert doc["solution"] == [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        assert doc["residual"] == 0.0

    def test_dim_1(self, capsys):
        code, out, _ = run(capsys, "uniqueness", "--dim", "1")
        assert code == 0
        doc = json.loads(out)
        np.testing.assert_allclose(doc["solution"][0][0], [1.0, 0.0], atol=1e-10)

    def test_dim_above_cap_out_of_range(self, capsys):
        code, out, err = run(capsys, "uniqueness", "--dim", str(_MAX_DIM + 1))
        assert code == 1 and out == ""
        assert f"[1, {_MAX_DIM}]" in err

    def test_dim_at_cap_exits_0_within_200_mb(self, tmp_path):
        # the peak RSS of a fresh `tracekit uniqueness` process at the cap: the
        # wrapper's only child is the CLI, so RUSAGE_CHILDREN is the CLI's
        output = tmp_path / "u.json"
        script = (
            "import resource, subprocess, sys\n"
            "code = subprocess.run([sys.executable, '-m', 'tracekit.cli', 'uniqueness',\n"
            f"                      '--dim', '{_MAX_DIM}', '--output', {str(output)!r}]).returncode\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        code, maxrss_kb = map(int, result.stdout.split())  # kilobytes on Linux
        assert code == 0
        assert maxrss_kb < 200 * 1024
        doc = json.loads(output.read_text())
        assert doc["nullspace_dim"] == 1
        pairs = np.array(doc["solution"])
        assert np.array_equal(pairs[..., 0] + 1j * pairs[..., 1], np.eye(_MAX_DIM) / _MAX_DIM)

    def test_two_free_components_exit_2_with_one_line(self, capsys, monkeypatch):
        # a solution space of dimension 2 leaves f undetermined: no report
        monkeypatch.setattr(uniqueness, "_components",
                            lambda system: (np.arange(9), np.array([0, 4])))
        code, out, err = run(capsys, "uniqueness", "--dim", "3")
        assert code == 2 and out == ""
        assert err == ("error: homogeneous tracial system has nullspace dimension 2, "
                       "expected 1\n")

    def test_byte_identical(self, capsys):
        _, first, _ = run(capsys, "uniqueness", "--dim", "4")
        _, second, _ = run(capsys, "uniqueness", "--dim", "4")
        assert first == second


@pytest.mark.parametrize("argv", SUBCOMMANDS, ids=lambda argv: argv[0])
def test_subnormal_matrix_exits_0(capsys, tmp_path, argv):
    # every entry is 2**-1074, so rounding alone moves a result by whole
    # units of it; the gates must allow that
    path = tmp_path / "a.mm"
    path.write_text(write_matrix_market(np.full((3, 3), 5e-324)))
    samples = [] if argv[0] == "decompose" else ["--samples", "16"]
    code, out, err = run(capsys, argv[0], str(path), *argv[1:], *samples)
    assert code == 0 and err == "", out


@pytest.mark.parametrize("norm", [5e-12, 1e12])
@pytest.mark.parametrize("gate", ["reconstruction", "unitarity", "invariance"])
def test_gate_fails_at_100_times_its_bound(capsys, tmp_path, monkeypatch, gate, norm):
    # the library's result is perturbed until its residual is 100 times the
    # bound it reports, an error still a billionth of ||A||_F
    a = crandn(np.random.default_rng(603), 6, 6)
    a *= norm / np.linalg.norm(a)
    path = tmp_path / "a.mm"
    path.write_text(write_matrix_market(a))
    fed = []
    if gate == "invariance":
        sweep = cli.substitution_identity_sweep

        def feed(*args):
            _, unitarity, bound = sweep(*args)
            fed.append((100 * bound, bound))
            return 100 * bound, unitarity, bound

        monkeypatch.setattr(cli, "substitution_identity_sweep", feed)
        argv = ["check-invariance", str(path), "--random-unitary", "--samples", "64"]
    else:
        decompose = cli.decompose_into_unitaries

        def feed(m, **kwargs):
            dec = decompose(m, **kwargs)
            root_n = np.sqrt(dec.dim)  # ||U||_F of every term
            if gate == "reconstruction":
                dec.coefficients[0] += 100 * dec.reconstruction_bound / root_n
            else:  # U*U - I becomes about 2 d I, and c U stays
                d = 100 * dec.unitarity_bound / (2 * root_n)
                dec.unitaries[0] = dec.unitaries[0] * (1 + d)
                dec.coefficients[0] /= 1 + d
            dec.reconstruction_residual = float(np.linalg.norm(dec.reconstruct() - m))
            dec.unitarity_residual = max(float(np.linalg.norm(u.conj().T @ u - np.eye(dec.dim)))
                                         for u in dec.unitaries)
            fed.append((dec.reconstruction_residual, dec.reconstruction_bound)
                       if gate == "reconstruction"
                       else (dec.unitarity_residual, dec.unitarity_bound))
            return dec

        monkeypatch.setattr(cli, "decompose_into_unitaries", feed)
        argv = ["decompose", str(path)]
    code, out, _ = run(capsys, *argv)
    (residual, bound), = fed
    assert 50 * bound <= residual <= 1e-9 * (norm if gate != "unitarity" else 1.0)
    assert code == 2 and json.loads(out)


class TestCheckInvariance:
    def test_identity_unitary_zero_gap(self, capsys, random_file, tmp_path):
        upath = tmp_path / "u.mm"
        upath.write_text(write_matrix_market(np.eye(4)))
        code, out, _ = run(
            capsys, "check-invariance", random_file,
            "--unitary", str(upath), "--samples", "500",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_gap"] == 0.0
        assert doc["unitarity_residual"] == 0.0

    def test_unitary_in_the_other_format(self, capsys, random_file, tmp_path):
        # each file gives its own format, so A and B may differ in it
        upath = tmp_path / "u.json"
        upath.write_text(write_json_dense(np.eye(4)))
        code, out, _ = run(
            capsys, "check-invariance", random_file,
            "--unitary", str(upath), "--samples", "500",
        )
        assert code == 0
        assert json.loads(out)["max_gap"] == 0.0

    def test_diagonal_phase_unitary(self, capsys, tmp_path):
        rng = np.random.default_rng(602)
        apath = tmp_path / "a2.mm"
        apath.write_text(write_matrix_market(crandn(rng, 2, 2)))
        upath = tmp_path / "phase.mm"
        upath.write_text(write_matrix_market(np.diag([1j, -1j])))
        code, out, _ = run(
            capsys, "check-invariance", str(apath),
            "--unitary", str(upath), "--samples", "1000",
        )
        assert code == 0
        assert json.loads(out)["max_gap"] <= json.loads(out)["bound"]

    def test_random_unitary_flag(self, capsys, random_file):
        code, out, _ = run(
            capsys, "check-invariance", random_file,
            "--random-unitary", "--samples", "2000",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["samples"] == 2000
        assert doc["max_gap"] <= doc["bound"]

    def test_non_unitary_b_rejected_with_residual(self, capsys, random_file, tmp_path):
        upath = tmp_path / "notu.mm"
        upath.write_text(write_matrix_market(2.0 * np.eye(4)))
        code, _, err = run(
            capsys, "check-invariance", random_file, "--unitary", str(upath)
        )
        assert code == 1
        assert "not unitary" in err
        assert "B*B - I" in err

    @pytest.mark.parametrize("text", [b"%%MatrixMarket matrix array real general\n1 1\nx\n",
                                      b"\xff"], ids=["grammar", "not-utf-8"])
    def test_bad_unitary_file_is_named(self, capsys, random_file, tmp_path, text):
        # two files are read: a parse fault says which one it is in
        upath = tmp_path / "u.mm"
        upath.write_bytes(text)
        code, out, err = run(capsys, "check-invariance", random_file, "--unitary", str(upath))
        assert code == 1 and out == ""
        assert err.startswith(f"error: matrix file {str(upath)!r}: ")
        assert err.count("\n") == 1

    def test_requires_exactly_one_source(self, capsys, random_file, tmp_path):
        code, _, err = run(capsys, "check-invariance", random_file)
        assert code == 1
        upath = tmp_path / "u.mm"
        upath.write_text(write_matrix_market(np.eye(4)))
        code, _, _ = run(
            capsys, "check-invariance", random_file,
            "--unitary", str(upath), "--random-unitary",
        )
        assert code == 1

    def test_dimension_mismatch(self, capsys, random_file, tmp_path):
        upath = tmp_path / "u3.mm"
        upath.write_text(write_matrix_market(np.eye(3)))
        code, _, err = run(
            capsys, "check-invariance", random_file, "--unitary", str(upath)
        )
        assert code == 1


class TestSample:
    def test_scalar_samples_unit_modulus(self, capsys):
        code, out, _ = run(capsys, "sample", "--dim", "1", "--count", "3")
        assert code == 0
        doc = json.loads(out)
        assert len(doc) == 3
        for (pair,) in doc:
            assert abs(complex(pair[0], pair[1])) == pytest.approx(1.0, abs=1e-12)

    def test_seeded_repeat_identical(self, capsys):
        args = ("sample", "--dim", "5", "--count", "10", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_seed_changes_output(self, capsys):
        _, first, _ = run(capsys, "sample", "--dim", "2", "--seed", "1")
        _, second, _ = run(capsys, "sample", "--dim", "2", "--seed", "2")
        assert first != second

    def test_zero_dim_rejected(self, capsys):
        code, _, _ = run(capsys, "sample", "--dim", "0")
        assert code == 1


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert run(capsys, )[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "estimate", "--help")[0] == 0

    @pytest.mark.parametrize("argv", [
        ("sample", "--dim", "2", "--det-one"),
        ("uniqueness", "--dim", "2", "--z", "1"),
        ("estimate", "A.mm", "--trusted"),
        ("decompose", "A.mm", "--tolerance", "1e-10"),
        ("check-invariance", "A.mm", "--random-unitary", "--tolerance", "1e-10"),
        ("estimate", "A.mm", "--format", "json"),
    ])
    def test_flag_of_another_subcommand_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err

    def test_help_lists_only_read_flags(self, capsys):
        own = {
            "estimate": {"--samples", "--z", "--raw", "--no-check"},
            "decompose": {"--det-one"},
            "uniqueness": {"--dim"},
            "check-invariance": {"--samples", "--unitary", "--random-unitary"},
            "sample": {"--dim", "--count"},
        }
        for command, flags in own.items():
            assert help_flags(capsys, command) == flags | {"--help", "--seed", "--output"}, command

    def test_readme_table_lists_the_help_flags(self, capsys):
        # the flag table under "Command line" in README.md, one row per subcommand
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        rows = dict(re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", section, re.MULTILINE))
        assert set(rows) == {"estimate", "decompose", "uniqueness", "check-invariance", "sample"}
        for command, row in rows.items():
            expected = help_flags(capsys, command) - {"--help", "--seed", "--output"}
            assert set(re.findall(FLAG, row)) == expected, command

    def test_bad_flag_values(self, capsys):
        assert run(capsys, "sample", "--dim", "2", "--seed", "-1")[0] == 1
        assert run(capsys, "sample", "--dim", "2", "--count", "0")[0] == 1
        assert run(capsys, "uniqueness", "--dim", "2", "--z", "0")[0] == 1


def _child_env():
    """The environment of a child interpreter that imports this tracekit."""
    src = str(Path(tracekit.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_decompose_and_uniqueness_leave_scipy_special_unimported(tmp_path):
    # scipy.special is only needed to sample; importing it costs most of the
    # CLI's start-up time.  numpy.ma (~10 ms), which np.unique and np.isin
    # import on first use, is not needed either, nor is scipy.linalg (~0.2 s):
    # the eigensolve and the determinant come from numpy.linalg, and the
    # uniqueness system is solved from its nonzeros without scipy.sparse
    matrix = tmp_path / "a.mm"
    matrix.write_text(write_matrix_market(np.array([[1.0, 2.0], [3.0, 4.0]])))
    script = (
        "import sys\n"
        "from tracekit.cli import main\n"
        f"assert main(['uniqueness', '--dim', '{_MAX_DIM}', '--output', {str(tmp_path / 'u.json')!r}]) == 0\n"
        f"assert main(['decompose', {str(matrix)!r}, '--output', {str(tmp_path / 'd.json')!r}]) == 0\n"
        "print('scipy.special' in sys.modules, 'numpy.ma' in sys.modules,\n"
        "      'scipy.linalg' in sys.modules, 'scipy.sparse' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], env=_child_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False False False False\n"


def test_files_are_utf_8_in_every_locale(tmp_path):
    # under warn_default_encoding a read or write in the locale's encoding
    # raises EncodingWarning; tracekit reads and writes UTF-8 throughout
    matrix = tmp_path / "a.mm"
    matrix.write_text(write_matrix_market(np.eye(2)))
    argv = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
            "-m", "tracekit.cli", "estimate", str(matrix), "--samples", "10",
            "--output", str(tmp_path / "r.json")]
    result = subprocess.run(argv, env=_child_env(), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads((tmp_path / "r.json").read_text(encoding="utf-8"))["mean"] == [1.0, 0.0]


def test_sample_bytes_do_not_depend_on_the_blas_kernel():
    # the sampler calls no BLAS, so its draws are the same under any
    # OpenBLAS kernel; estimate and decompose reports are not
    argv = [sys.executable, "-m", "tracekit.cli", "sample", "--dim", "8", "--count", "5000",
            "--seed", "3"]
    outputs = []
    for coretype in (None, "Haswell"):
        env = _child_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype:
            env["OPENBLAS_CORETYPE"] = coretype
        result = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1] and outputs[0].startswith(b"[[[")
