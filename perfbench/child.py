"""One workload run in a fresh interpreter: a closed loop of `tracekit` CLI ops.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and one
JSON argument: workload, seeds, temp dir, first op index, phases.  The
first op is a warm-up; each phase then runs ops back to back, one at a time, until it has lasted its
seconds and done its minimum number of ops (or hit its hard time limit).
Each op's input is written before its timer starts, and the reference
kernel is timed between every two ops.  A traced phase installs the span
wrappers first.  The result goes to <tmp>/child.json.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracer import Tracer


class Reference:
    """A fixed ~30 ms kernel that measures how fast the host runs right now.

    The CPU speed of a shared host swings by up to 2x over tens of seconds.
    Timed before and after each op, this kernel gives the speed the op
    met.  It mixes, in about equal time, the two kinds of work whose speed
    tracked the ops' speed most closely: a loop of numpy calls on a
    32-vector (as in Jacobi sweeps) and elementwise passes over a 4096x64
    array (as in sampler chunks).  The passes write into a buffer of their own, so the
    kernel's time does not depend on what the ops left in the allocator.
    """

    def __init__(self):
        self.vec = np.arange(32.0)
        self.big = np.random.default_rng(0).standard_normal((4096, 64))
        self.buf = np.empty_like(self.big)

    def run(self) -> None:
        x = self.vec.copy()
        for i in range(3000):
            x = x * 0.999 + self.vec[i % 32]
            x[i % 32] = x.sum() * 1e-3
        for _ in range(8):
            np.multiply(self.big, 1.0001, out=self.buf)
            np.add(self.buf, 0.5, out=self.buf)
            np.abs(self.buf, out=self.buf)
            np.sqrt(self.buf, out=self.buf)
            self.buf.sum(axis=1)

    def seconds(self) -> float:
        start = perf_counter()
        self.run()
        return perf_counter() - start


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(config: dict) -> None:
    import tracekit
    import tracekit.cli as cli

    src = (Path.cwd() / "src").resolve()
    if src not in Path(tracekit.__file__).resolve().parents:
        raise SystemExit(f"tracekit was imported from {tracekit.__file__}, not from {src}")

    table = workloads.SMOKE_WORKLOADS if config["smoke"] else workloads.WORKLOADS
    workload = table[config["workload"]]
    tmp = Path(config["tmp"])
    ops = []  # [op, phase, exit code, seconds, mean reference seconds before and after]
    tracer = None
    reference = Reference()
    reference.run()
    ref_before = reference.seconds()

    def run(op: int, phase: str) -> None:
        nonlocal ref_before
        argv = workload.write_op(config["seed"], op, tmp)
        if tracer is not None:
            tracer.op = op
        start = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.op = -1
        ref_after = reference.seconds()
        ops.append([op, phase, code, seconds, (ref_before + ref_after) / 2])
        ref_before = ref_after

    op = config["first_op"]
    run(op, "warmup")
    op += 1
    for phase in config["phases"]:
        if phase["traced"] and tracer is None:
            tracer = Tracer()
            tracer.install()
        start = perf_counter()
        done = 0
        while done < phase["max_ops"]:
            elapsed = perf_counter() - start
            if elapsed >= phase["hard_seconds"]:
                break
            if elapsed >= phase["seconds"] and done >= phase["min_ops"]:
                break
            run(op, phase["name"])
            op += 1
            done += 1

    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas_threads": blas_threads(),
        "trace": tracer.dump() if tracer is not None else None,
    }
    (tmp / "child.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
