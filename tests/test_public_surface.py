"""The source files: every public name of a layer module has a caller outside
the tests, every file parses at the Python floor, and no tolerance is added."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tracekit"


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _identifiers(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _layer_names(tree):
    """(layer, name) of every "layer.name[.attr]" string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if len(parts) >= 2:
                yield parts[0], parts[1]


def test_every_public_name_has_a_caller():
    # A use is a Name or Attribute in a layer module or a demo, or a
    # "layer.name" string in perfbench, which wraps public names by those
    # strings.  A def, a class or an __all__ entry is no Name, and
    # tracekit/__init__.py only re-exports, so none of them counts.
    layers = {p.stem: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
    used = set()
    for path in [*layers.values(), *(ROOT / "demos").glob("*.py")]:
        used.update(_identifiers(_tree(path)))
    traced = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        traced.update(_layer_names(_tree(path)))
    unused = [f"{layer}.{name}" for layer, path in sorted(layers.items())
              for name in _public_names(_tree(path))
              if name not in used and (layer, name) not in traced]
    assert unused == [], f"public names that only tests use: {unused}"


def test_sources_parse_at_the_declared_python_floor():
    # syntax newer than pyproject.toml's requires-python (an except* clause
    # under >= 3.10) fails to parse at that feature version
    declared = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$',
                         (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    floor = (int(declared[1]), int(declared[2]))
    paths = [p for d in ("src", "tests", "demos", "perfbench")
             for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def _small_floats(path):
    """(module, scope, value) of each float literal in (0, 1e-3) in a source file:
    the scope is the top-level def or class it is in, or the name it is bound to."""
    for node in _tree(path).body:
        scope = getattr(node, "name", None) or ",".join(
            t.id for t in getattr(node, "targets", []) if isinstance(t, ast.Name))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and type(sub.value) is float and 0 < sub.value < 1e-3:
                yield path.stem, scope, sub.value


def test_the_only_small_float_literals_are_delta_and_the_det_tolerance():
    # every gate's bound is derived (README, Rounding bounds), so a small float
    # literal in src is a fixed tolerance, except the probability _DELTA; the
    # one tolerance left checks outside input to rephase_to_det_one
    found = sorted(f for path in PACKAGE.glob("*.py") for f in _small_floats(path))
    assert found == [("estimator", "_DELTA", 1e-9), ("unitary", "rephase_to_det_one", 1e-8)]
