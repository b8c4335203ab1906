"""Every script in demos/ and every ```python block of README.md runs to
completion against the current API, without a warning."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tracekit

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def run_python(args):
    src = str(Path(tracekit.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS


@pytest.mark.parametrize("block", README_BLOCKS, ids=lambda block: f"block-{README_BLOCKS.index(block)}")
def test_readme_python_block_exits_zero(block):
    result = run_python(["-c", block])
    assert result.returncode == 0, result.stderr
