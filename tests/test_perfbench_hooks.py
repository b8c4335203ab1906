"""The benchmark under perfbench/ still finds the names and constants it relies on."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def test_tracer_installs_and_chunk_size_matches():
    # in a fresh interpreter, since installing the tracer rebinds tracekit's
    # public functions; install() raises when a name it requires is gone
    script = (
        "import tracer, workloads\n"
        "from tracekit import sphere\n"
        "tracer.Tracer().install()\n"
        "assert workloads.CHUNK_SIZE == sphere.CHUNK_SIZE, "
        "(workloads.CHUNK_SIZE, sphere.CHUNK_SIZE)\n"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    result = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
