"""Spans around tracekit's public functions, recorded from outside the package.

`Tracer.install()` replaces every public function and public method of
the layer modules with a wrapper that records a span: name, start, end,
parent span and op index.  A function imported elsewhere with
`from .x import f` is a second name for the same object, so every
module attribute of the package that holds a wrapped object is rebound
too.  Spans stay in memory; `dump()` hands them out at the end of a run
and `layer_metrics()` turns them into per-layer numbers.  A layer's
self time is its spans' durations minus the parts covered by child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

LAYERS = ("sphere", "estimator", "linalg", "unitary", "uniqueness", "formats", "cli")

RAW_WORDS = "sphere.GaussianStream.raw_words"
GAUSSIANS = "sphere.GaussianStream.gaussians"
SAMPLE = "sphere.sample_unit_vectors"
ESTIMATE = "estimator.estimate_trace"
APPLY = "estimator.LinearOperator.apply_batch"
STATS = ("estimator.stats_from_values", "estimator.merge_stats")
EIGH = "linalg.hermitian_eigh"
DECOMPOSE = "unitary.decompose_into_unitaries"
BUILD = "uniqueness.build_constraint_system"
RANK = "uniqueness.homogeneous_nullspace_dim"
SOLVE = "uniqueness.solve_unique_functional"
MAIN = "cli.main"
WRITERS = ("formats.dumps", "formats.write_report_json", "formats.write_matrix_market",
           "formats.write_json_dense", "formats.matrix_pairs", "formats.complex_pair")

# The metrics below are computed from these spans; installing fails when one
# is no longer a public name, so a rename shows as an error instead of zeros.
REQUIRED = (RAW_WORDS, GAUSSIANS, SAMPLE, "sphere.sample_unit_vectors_chunked", ESTIMATE,
            APPLY, *STATS, EIGH, DECOMPOSE, BUILD, RANK, SOLVE, MAIN,
            "formats.parse_matrix_market", *WRITERS)


def _is_parse(name: str) -> bool:
    return name.startswith("formats.parse_")


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []  # [name index, start ns, end ns, parent span, op]
        self.counts = defaultdict(lambda: defaultdict(int))  # op -> key -> count
        self.op = -1
        self._stack: list = []  # indices of open spans

    def _inside(self, name: str) -> bool:
        return any(self.names[self.spans[i][0]] == name for i in self._stack)

    def _parent_layer(self) -> str:
        return self.names[self.spans[self._stack[-1]][0]].split(".")[0] if self._stack else ""

    def _count(self, key: str, value: int) -> None:
        self.counts[self.op][key] += value

    def _hook(self, name: str, args, result) -> None:
        """Counts taken at the span boundary; runs after the span has closed."""
        if name == RAW_WORDS:
            self._count("sphere.words", len(result))
            if self._inside(SAMPLE):
                self._count("sphere.vector_words", len(result))
        elif name == SAMPLE:
            self._count("sphere.vectors", result.shape[0])
            self._count("sphere.expected_words", 2 * result.size)
            if self._inside(ESTIMATE):
                self._count("estimator.chunks", 1)
        elif name == APPLY:
            self._count("estimator.rows", result.shape[0])
            self._count("estimator.flops", 8 * result.shape[1] ** 2 * result.shape[0])
        elif name == EIGH:
            self._count("linalg.eigh_calls", 1)
            self._count("linalg.eigh_solves", int(np.any(np.asarray(args[0]) != 0)))
        elif name == DECOMPOSE:
            self._count("unitary.decompose_calls", 1)
        elif name.startswith("formats.") and self._parent_layer() != "formats":
            if _is_parse(name):
                self._count("formats.parse_bytes", len(args[0]))
            elif name in WRITERS and isinstance(result, str):
                self._count("formats.write_bytes", len(result))

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [index, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            self._hook(name, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer module, at every name."""
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = importlib.import_module(f"tracekit.{layer}")
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_methods(f"{layer}.{attr}", obj)
                elif callable(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "tracekit" and not mod_name.startswith("tracekit."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
        missing = sorted(set(REQUIRED) - set(self.names))
        if missing:
            raise RuntimeError(f"tracekit no longer has the public names {missing}")

    def _wrap_methods(self, prefix: str, cls) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, (classmethod, staticmethod)):
                setattr(cls, attr, type(value)(self._wrap(f"{prefix}.{attr}", value.__func__)))
            elif callable(value):
                setattr(cls, attr, self._wrap(f"{prefix}.{attr}", value))

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "counts": {str(op): dict(c) for op, c in self.counts.items() if op >= 0},
        }


def layer_metrics(trace: dict, op_seconds: list) -> dict:
    """Per-op layer metrics from a dumped trace of the ops timed in `op_seconds`."""
    names, spans = trace["names"], trace["spans"]
    ops = len(op_seconds)
    covered = defaultdict(int)  # span index -> ns covered by its children
    for s in spans:
        if s[3] >= 0:
            covered[s[3]] += s[2] - s[1]
    dur = defaultdict(float)
    self_time = defaultdict(float)
    layer_self = defaultdict(float)
    parse_s = write_s = 0.0
    for k, s in enumerate(spans):
        if s[4] < 0:
            continue
        name = names[s[0]]
        d = (s[2] - s[1]) * 1e-9
        own = d - covered[k] * 1e-9
        dur[name] += d
        self_time[name] += own
        layer_self[name.split(".")[0]] += own
        if s[3] < 0 or not names[spans[s[3]][0]].startswith("formats."):
            if _is_parse(name):
                parse_s += d
            elif name in WRITERS:
                write_s += d
    totals = defaultdict(int)
    for per_op in trace["counts"].values():
        for key, value in per_op.items():
            totals[key] += value
    words = totals["sphere.words"]
    sphere_s = layer_self["sphere"]
    op_total = sum(op_seconds)
    m = {
        "sphere.philox_s": dur[RAW_WORDS] / ops,
        "sphere.normals_s": self_time[GAUSSIANS] / ops,
        "sphere.assemble_s": self_time[SAMPLE] / ops,
        "sphere.words": words / ops,
        "sphere.vectors": totals["sphere.vectors"] / ops,
        "sphere.ns_per_word": sphere_s / words * 1e9 if words else 0.0,
        "sphere.redraw_ratio": (totals["sphere.vector_words"] / totals["sphere.expected_words"]
                                if totals["sphere.expected_words"] else 0.0),
        "estimator.chunks": totals["estimator.chunks"] / ops,
        "estimator.apply_s": dur[APPLY] / ops,
        "estimator.apply_gflops": (totals["estimator.flops"] / dur[APPLY] * 1e-9
                                   if dur[APPLY] else 0.0),
        "estimator.stats_s": sum(dur[name] for name in STATS) / ops,
        "estimator.self_s": self_time[ESTIMATE] / ops,
        "linalg.eigh_calls": totals["linalg.eigh_calls"] / ops,
        "linalg.eigh_solves": totals["linalg.eigh_solves"] / ops,
        "linalg.eigh_s": dur[EIGH] / ops,
        "unitary.decompose_calls": totals["unitary.decompose_calls"] / ops,
        "unitary.self_s": layer_self["unitary"] / ops,
        "uniqueness.build_s": dur[BUILD] / ops,
        "uniqueness.rank_s": dur[RANK] / ops,
        "uniqueness.self_s": self_time[SOLVE] / ops,
        "formats.parse_s": parse_s / ops,
        "formats.parse_bytes": totals["formats.parse_bytes"] / ops,
        "formats.write_s": write_s / ops,
        "formats.write_bytes": totals["formats.write_bytes"] / ops,
        "cli.self_s": self_time[MAIN] / ops,
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = layer_self[layer] / op_total
    return m
