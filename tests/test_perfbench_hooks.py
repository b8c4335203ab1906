"""The benchmark under perfbench/ still finds the names and constants it relies on."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def run_traced(script: str) -> subprocess.CompletedProcess:
    # in a fresh interpreter, since installing the tracer rebinds tracekit's
    # public functions; install() raises when a name it requires is gone
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, "-c", "import tracer\nt = tracer.Tracer()\nt.install()\n" + script],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs_and_chunk_size_matches():
    result = run_traced(
        "import workloads\n"
        "from tracekit import sphere\n"
        "assert workloads.CHUNK_SIZE == sphere.CHUNK_SIZE, "
        "(workloads.CHUNK_SIZE, sphere.CHUNK_SIZE)\n"
    )
    assert result.returncode == 0, result.stderr


def test_cli_estimate_runs_on_the_traced_apply(tmp_path):
    # estimator.apply_s is timed on the spans of LinearOperator.apply_batch,
    # so the CLI's estimate must evaluate its matrix there
    matrix, out = tmp_path / "a.mm", tmp_path / "report.json"
    result = run_traced(
        "import numpy as np\n"
        "from tracekit import cli, formats\n"
        f"path = {str(matrix)!r}\n"
        "open(path, 'w').write(formats.write_matrix_market(np.diag([1.0, 2.0, 3.0])))\n"
        f"assert cli.main(['estimate', path, '--samples', '700', '--output', {str(out)!r}]) == 0\n"
        "rows = t.counts[t.op]['estimator.rows']\n"
        "assert rows >= 700, rows\n"
    )
    assert result.returncode == 0, result.stderr
