"""Subcommand behavior, exit codes, and byte-level determinism."""

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tracekit
from tracekit import cli, sphere, uniqueness
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


def report(capsys, *args):
    """The stdout of a run that exits 0 with a report, so that two runs that
    both fail to start cannot compare equal."""
    code, out, err = run(capsys, *args)
    assert code == 0 and out, err
    return out


def assert_same_report(capsys, args):
    assert report(capsys, *args) == report(capsys, *args)


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

    @pytest.mark.parametrize("seed", ["0", "1", "2"])
    def test_one_sample_passes(self, capsys, tmp_path, seed):
        # one draw has no sample stderr; the radius comes from the exact
        # variance, so a correct one-draw estimate passes
        path = tmp_path / "d.mm"
        path.write_text(write_matrix_market(np.diag([1.0, 3.0])))
        code, out, err = run(capsys, "estimate", str(path), "--samples", "1", "--seed", seed)
        assert code == 0 and err == ""
        assert json.loads(out)["abs_error"] > 0.3

    def test_gate_fails_at_twice_its_bound(self, capsys, random_file, monkeypatch):
        # the library's mean is moved off exact by twice radius + rounding floor
        estimate = cli.estimate_trace
        fed = []

        def feed(*args, **kwargs):
            rep = estimate(*args, **kwargs)
            fed.append(2 * (rep.radius + rep.rounding_floor))
            rep.mean = rep.exact + fed[0]
            return rep

        monkeypatch.setattr(cli, "estimate_trace", feed)
        code, out, _ = run(capsys, "estimate", random_file, "--samples", "200")
        assert code == 2
        assert json.loads(out)["abs_error"] == pytest.approx(fed[0], rel=1e-12)

    @pytest.mark.parametrize("samples", ["1", "16"])
    @pytest.mark.parametrize("a", [
        np.full((2, 2), 1e308),
        np.diag([1e160, -1e160]),
        np.array([[0.0, 1.5e308], [1.5e308, 0.0]]),
    ], ids=["full", "diagonal", "off-diagonal"])
    def test_huge_matrix_passes_with_an_infinite_radius(self, capsys, tmp_path, a, samples):
        # near 1e308 the radius t 2**e can be past float64: it saturates to
        # inf instead of raising OverflowError (exit 2), and every finite
        # error passes it
        path = tmp_path / "a.mm"
        path.write_text(write_matrix_market(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", str(path), "--samples", samples)
        assert code == 0 and err == "", out

    @pytest.mark.parametrize("diag", [
        [0.1] * 3, [0.3] * 3, [1.0 / 3.0] * 3, [1.0, 1.0 + 1e-15, 1.0],
    ])
    def test_rounding_error_passes_gate(self, capsys, tmp_path, diag):
        # near-constant diagonals give a stderr far below the rounding
        # error of the mean; the gate must not fail on rounding alone
        path = tmp_path / "d.mm"
        path.write_text(write_matrix_market(np.diag(diag)))
        code, out, _ = run(capsys, "estimate", str(path), "--samples", "1000")
        assert code == 0, out

    def test_raw_trace_is_n_times_the_report(self, capsys, tmp_path):
        # README's recipe gives the bytes the deleted `--raw` flag wrote for
        # this run; each product in S x is exact or one rounding, so no BLAS
        # kernel changes them
        path = tmp_path / "d.mm"
        path.write_text(write_matrix_market(np.diag([1 + 2j, -3, 0.5j])))
        doc = json.loads(report(capsys, "estimate", str(path), "--samples", "100", "--seed", "4"))
        mean, exact = complex(*doc["mean"]) * 3, complex(*doc["exact"]) * 3
        doc.update(mean=complex_pair(mean), stderr=doc["stderr"] * 3,
                   ci_radius=doc["ci_radius"] * 3, exact=complex_pair(exact),
                   abs_error=abs(mean - exact))
        assert dumps(doc) == (
            '{"n": 3, "samples": 100, "mean": [-2.1820684809311275, 2.4297507462921932], '
            '"stderr": 0.30058338875835688, "ci_radius": 0.90175016627507065, "seed": 4, '
            '"exact": [-2, 2.5], "abs_error": 0.19515094003122849}')

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

    @pytest.mark.parametrize("seed", ["1", "2", "3", "4", "5"])
    def test_abs_error_past_float64_exits_1_with_one_line(self, capsys, tmp_path, seed):
        # mean and exact = 0 are finite, but |mean| is past float64 at seeds
        # 3 and 5; the other seeds keep their reports
        path = tmp_path / "big.mm"
        path.write_text(write_matrix_market(np.diag([1.7e308 * (1 + 1j), -1.7e308 * (1 + 1j)])))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", str(path), "--samples", "1", "--seed", seed)
        if seed in "35":
            assert code == 1 and out == ""
            assert err == "error: abs_error overflows float64; rescale the matrix\n"
        else:
            assert code == 0 and err == ""
            assert json.loads(out)["abs_error"] > 9e307

    def test_overflowing_ci_radius_names_z(self, capsys, tmp_path):
        # the mean and stderr (~100) are finite; z * stderr at z = 1e308 is not
        path = tmp_path / "a.mm"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n100\n0\n0\n-100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "estimate", str(path), "--samples", "50", "--z", "1e308")
        assert code == 1 and out == ""
        assert err == "error: ci_radius = z * stderr is not finite at z = 1e+308; lower z\n"

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
        assert_same_report(capsys, args)


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

    @pytest.mark.parametrize("kind", ["general", "hermitian"])
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
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        dec = decompose_into_unitaries(parse_matrix_market(path.read_text()))
        units = dec.unitaries
        paired = [np.array_equal(np.conj(u).T.copy().view(np.uint64), v.view(np.uint64))
                  for u, v in zip(units[0::2], units[1::2])]
        assert paired == {"general": [True, True], "hermitian": [True]}[kind]
        doc = {
            "n": 7,
            "terms": [{"coefficient": complex_pair(c), "det": complex_pair(determinant(u)),
                       "unitary": matrix_pairs(u)}
                      for c, u in zip(dec.coefficients, units)],
            "reconstruction_residual": dec.reconstruction_residual,
            "unitarity_residual": dec.unitarity_residual,
        }
        assert out == dumps(doc) + "\n"

    def test_unitary_entries_present(self, capsys, random_file):
        _, out, _ = run(capsys, "decompose", random_file)
        doc = json.loads(out)
        u = np.array(
            [[complex(re, im) for re, im in row] for row in doc["terms"][0]["unitary"]]
        )
        assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10 * 4

    def test_byte_identical(self, capsys, random_file):
        assert_same_report(capsys, ("decompose", random_file))

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
        assert_same_report(capsys, ("uniqueness", "--dim", "4"))


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
        assert_same_report(capsys, ("sample", "--dim", "5", "--count", "10", "--seed", "3"))

    def test_seed_changes_output(self, capsys):
        first = report(capsys, "sample", "--dim", "2", "--seed", "1")
        assert first != report(capsys, "sample", "--dim", "2", "--seed", "2")

    def test_zero_dim_rejected(self, capsys):
        code, _, _ = run(capsys, "sample", "--dim", "0")
        assert code == 1

    def test_memory_follows_the_chunks_in_flight(self, tmp_path, monkeypatch):
        # the draws are written as their chunks arrive, so ten chunks on two
        # threads peak at the chunks in flight (at most four ahead), where
        # the array and its text of 40000 draws peaked ~10x higher
        path = str(tmp_path / "s.json")
        main(["sample", "--dim", "8", "--output", path])  # imports done before tracing
        monkeypatch.setattr(sphere, "_cpus", lambda: 2)
        peaks = {}
        for count in (4097, 40000):
            tracemalloc.start()
            try:
                assert main(["sample", "--dim", "8", "--count", str(count), "--output", path]) == 0
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[40000] < 4 * peaks[4097], peaks

    def test_zero_row_fails_part_way_through_the_report(self, capsys, zero_rows):
        # from row 100 of chunk 1 every row is 0: chunk 0 has been written
        # when chunk 1's first row block fails, and the run exits 2 with one line
        zero_rows(StreamSpec(0, 1), 2, 100, 2 * 2 * 2 * 9000)
        code, out, err = run(capsys, "sample", "--dim", "2", "--count", "9000")
        assert code == 2
        assert err == "error: the sampler drew a row of zero normals; no unit vector\n"
        first = sphere.sample_unit_vectors_chunked(StreamSpec(0, 0), 2, sphere.CHUNK_SIZE)
        assert out == dumps(first)[:-1]  # chunk 0 only, the array left open


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ["estimate", "{a}", "--samples", "5000"],
        ["decompose", "{a}"],
        ["uniqueness", "--dim", "3"],
        ["check-invariance", "{a}", "--random-unitary", "--samples", "5000"],
        ["sample", "--dim", "3", "--count", "4097"],
    ], ids=lambda argv: argv[0])
    def test_stdout_and_output_carry_the_same_bytes(self, capsys, random_file, tmp_path, argv):
        argv = [arg.format(a=random_file) for arg in argv] + ["--seed", "4"]
        out = report(capsys, *argv)
        target = tmp_path / "r.json"
        code, rest, _ = run(capsys, *argv, "--output", str(target))
        assert code == 0 and rest == ""
        assert target.read_bytes() == out.encode("utf-8")
        assert out.endswith("\n") and json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["estimate", "{bad}"],
        ["decompose", "{bad}"],
        ["check-invariance", "{a}", "--unitary", "{bad}"],
        ["check-invariance", "{a}", "--unitary", "{twice}"],
        ["sample", "--dim", "2", "--count", str(2**60 + 1)],  # past the chunk offsets
    ], ids=["estimate", "decompose", "invariance-file", "invariance-unitary", "sample"])
    def test_a_failed_run_leaves_an_existing_output_file_as_it_was(
            self, capsys, random_file, tmp_path, argv):
        # the file is opened only once the report can be written
        bad = tmp_path / "bad.mm"
        bad.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\nx\n4\n")
        twice = tmp_path / "twice.mm"
        twice.write_text(write_matrix_market(2.0 * np.eye(4)))
        target = tmp_path / "r.json"
        target.write_bytes(b"earlier report\r\n\xff")
        argv = [arg.format(a=random_file, bad=bad, twice=twice) for arg in argv]
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 1 and out == "" and err.startswith("error:")
        assert target.read_bytes() == b"earlier report\r\n\xff"


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
        ("estimate", "A.mm", "--no-check"),
        ("estimate", "A.mm", "--raw"),
        ("decompose", "A.mm", "--det-one"),
    ])
    def test_flag_of_another_subcommand_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1 and "unrecognized arguments" in err

    def test_help_lists_only_read_flags(self, capsys):
        own = {
            "estimate": {"--samples", "--z"},
            "decompose": set(),
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

    def test_readme_examples_parse(self):
        # so that no example keeps a flag the parser has dropped
        lines = readme_examples()
        assert len(lines) >= 7
        for line in lines:
            cli._build_parser().parse_args(shlex.split(line)[1:])

    def test_readme_examples_run(self, capsys, tmp_path, monkeypatch):
        # each example exits 0 in a directory holding the files it names
        rng = np.random.default_rng(604)
        a = crandn(rng, 4, 4)
        (tmp_path / "A.mm").write_text(write_matrix_market(a))
        (tmp_path / "A.json").write_text(write_json_dense(a))
        (tmp_path / "B.mm").write_text(write_matrix_market(np.linalg.qr(crandn(rng, 4, 4))[0]))
        monkeypatch.chdir(tmp_path)
        for line in readme_examples():
            code, _, err = run(capsys, *shlex.split(line)[1:])
            assert code == 0, (line, err)

    def test_bad_flag_values(self, capsys):
        assert run(capsys, "sample", "--dim", "2", "--seed", "-1")[0] == 1
        assert run(capsys, "sample", "--dim", "2", "--count", "0")[0] == 1
        assert run(capsys, "uniqueness", "--dim", "2", "--z", "0")[0] == 1


def readme_examples():
    """Every `tracekit ...` line of README's sh blocks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("tracekit ")]


def _child_env():
    """The environment of a child interpreter that imports this tracekit."""
    src = str(Path(tracekit.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _child(script: str, *flags: str) -> str:
    """stdout of `script` run in a fresh interpreter, which must exit 0."""
    result = subprocess.run(
        [sys.executable, *flags, "-c", script], env=_child_env(), capture_output=True,
        text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_decompose_and_uniqueness_leave_scipy_special_unimported(tmp_path):
    # scipy is only needed to sample; importing it costs most of the
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
        "print('scipy' in sys.modules, 'numpy.ma' in sys.modules)\n"
    )
    assert _child(script) == "False False\n"


def test_sampling_leaves_scipy_special_unimported(tmp_path):
    # the sampler loads scipy.special's compiled ndtri without running the
    # package's __init__ (~0.15 s and ~13 MB of estimate's start-up); the
    # reports are those of the ufunc that a full import of scipy.special gives
    matrix = tmp_path / "a.mm"
    matrix.write_text(write_matrix_market(np.array([[1.0, 2.0j], [3.0, 4.0]])))
    runs = [  # 5000 draws: two chunks, first drawn on the pool's threads
        ["estimate", str(matrix), "--samples", "5000", "--seed", "4"],
        ["check-invariance", str(matrix), "--random-unitary", "--samples", "5000", "--seed", "5"],
        ["sample", "--dim", "3", "--count", "5000", "--seed", "6"],
    ]

    def reports(side: str, before: str, after: str):
        outputs = [tmp_path / f"{side}{k}.json" for k in range(len(runs))]
        script = before + "import sys\nfrom tracekit.cli import main\n" + "".join(
            f"assert main({argv + ['--output', str(out)]!r}) == 0\n"
            for argv, out in zip(runs, outputs)) + after
        return _child(script, "-W", "error"), [out.read_bytes() for out in outputs]

    printed, lean = reports("lean", "", (
        "print('scipy.special' in sys.modules)\n"
        "import scipy.special, tracekit.sphere\n"
        "print(scipy.special.ndtri is tracekit.sphere._ndtri())\n"
        # each extension submodule imported by name is an attribute of the package
        "names = ['_ufuncs', '_ufuncs_cxx', '_special_ufuncs', '_gufuncs', '_ellip_harm_2']\n"
        "for name in names:\n"
        "    __import__('scipy.special.' + name)\n"
        "print(all(hasattr(scipy.special, name) for name in names))\n"))
    assert printed == "False\nTrue\nTrue\n"
    printed, full = reports("full", "import scipy.special\n", "")
    assert lean == full


_DRAW = (
    "import hashlib, sys\n"
    "from tracekit import sphere\n"
    "def draw(i):\n"
    "    z = sphere.GaussianStream(sphere.StreamSpec(7, i)).gaussians(1000)\n"
    "    return hashlib.sha256(z.tobytes()).hexdigest()\n"
)


def _serial_draws(count: int) -> list:
    return [hashlib.sha256(sphere.GaussianStream(StreamSpec(7, i)).gaussians(1000).tobytes())
            .hexdigest() for i in range(count)]


def test_first_draws_on_several_threads_at_once_get_the_serial_bits():
    # the threads race to load ndtri; one loads it, the others wait for it
    script = _DRAW + (
        "import threading\n"
        "barrier, out = threading.Barrier(4, timeout=60), {}\n"
        "def run(i):\n"
        "    barrier.wait()\n"
        "    out[i] = draw(i)\n"
        "threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(60)\n"
        "print('scipy.special' in sys.modules, *(out[i] for i in range(4)))\n"
    )
    assert _child(script).split() == ["False", *_serial_draws(4)]


def test_ndtri_falls_back_to_the_public_import():
    # a scipy whose scipy.special._ufuncs cannot be imported on its own (here
    # its first import fails) gets `from scipy.special import ndtri`: same draws
    script = (
        "import sys\n"
        "class RefuseOnce:\n"
        "    refused = 0\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy.special._ufuncs' and not self.refused:\n"
        "            self.refused += 1\n"
        "            raise ImportError(name)\n"
        "sys.meta_path.insert(0, RefuseOnce())\n"
    ) + _DRAW + (
        "digest = draw(0)\n"
        "import scipy.special\n"
        "print(sys.meta_path[0].refused, scipy.special.ndtri is sphere._ndtri(), digest)\n"
    )
    assert _child(script).split() == ["1", "True", *_serial_draws(1)]
    # with no _ufuncs at all, neither path has an ndtri: the public import's
    # ImportError is raised, and the stand-in package is gone again
    script = (
        "import sys\n"
        "sys.modules['scipy.special._ufuncs'] = None\n"
        "from tracekit import sphere\n"
        "for _ in range(2):\n"
        "    try:\n"
        "        sphere._ndtri()\n"
        "    except ImportError as exc:\n"
        "        print(exc.name, 'scipy.special' in sys.modules)\n"
    )
    assert _child(script) == "scipy.special._ufuncs False\n" * 2


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


# sha256 of `sample --dim 8 --count K` and of `check-invariance --random-unitary
# --samples 5000 --seed 3` on a complex Gaussian n x n: the first normalizes the
# Gaussian rows that map_chunks hands it, the second takes two Rayleigh quotients
# of each, and these bytes pin that arithmetic
SAMPLE_SHA256 = {
    1: "0481fe5acae768e818d45efd00ef1b1774117ec387cfb400db0399f98ad2c181",
    4097: "d39a2d9c32cebf1997144421c9c76fd04dd4e8eb3a3bd7f2c22273665e57acd8",
    5000: "d62a8d7d3468c602ec10cf212189cd80e5428bc50f44c50a3b214602ffe31b8c",
}
INVARIANCE_SHA256 = {  # under OpenBLAS 0.3.31's Haswell kernel, one BLAS thread
    1: "d45f9041704115d52fa557514b14e6a90b7ae7f2f9353297f70216929329c909",
    2: "57b1d0f556d80332284c11eeaa32e282acf10ed652f43b729730e5a4004ab9aa",
    8: "d0fa79a75bce0d21b4e988f00163d87a20c689c08b7e16aa1ee911e81343f102",
    32: "23d6aabe6fd2bfd2a620bfccd1243dce1414c01cec076c351a4bcba674cb8bd7",
}


def test_sample_and_invariance_bytes_are_pinned(tmp_path):
    # the gaps depend on the BLAS kernel, so the child fixes it and the BLAS
    # thread count; the draws themselves depend on neither
    commands = {f"sample-{k}": ["sample", "--dim", "8", "--count", str(k)] for k in SAMPLE_SHA256}
    for n in INVARIANCE_SHA256:
        rng = np.random.default_rng(900 + n)
        matrix = tmp_path / f"a{n}.mm"
        matrix.write_text(write_matrix_market(crandn(rng, n, n)))
        commands[f"invariance-{n}"] = ["check-invariance", str(matrix), "--random-unitary",
                                       "--samples", "5000", "--seed", "3"]
    script = (
        "import hashlib, json, sys\n"
        "from tracekit.cli import main\n"
        "digests = {}\n"
        "for name, argv in json.loads(sys.argv[1]).items():\n"
        f"    path = {str(tmp_path / 'out.json')!r}\n"
        "    assert main(argv + ['--output', path]) == 0, name\n"
        "    digests[name] = hashlib.sha256(open(path, 'rb').read()).hexdigest()\n"
        "print(json.dumps(digests))\n"
    )
    env = dict(_child_env(), OPENBLAS_CORETYPE="Haswell", OPENBLAS_NUM_THREADS="1")
    result = subprocess.run([sys.executable, "-c", script, json.dumps(commands)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    pinned = {**{f"sample-{k}": v for k, v in SAMPLE_SHA256.items()},
              **{f"invariance-{n}": v for n, v in INVARIANCE_SHA256.items()}}
    assert json.loads(result.stdout) == pinned
