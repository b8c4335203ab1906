"""tracekit benchmark: the `tracekit` CLI as a user runs it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ./src.
One closed-loop client: a workload runs in fresh child interpreters
(perfbench/child.py), one after another, each calling tracekit.cli.main(argv)
once per op, one op at a time, after one warm-up op.  Every op has its own generated input and
`--seed`, derived from --seed, and writes its report with --output into a
temp dir under the checkout; each report is checked by an oracle in
workloads.py that does not trust the CLI's own gates.

Op times are reported relative to a fixed reference kernel that the child
times before and after each op (child.Reference), because the CPU speed of a
shared host swings by up to 2x over tens of seconds; the raw wall times
are kept in the record.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (spans recorded by tracer.py around tracekit's public
functions).  The last stdout line is the JSON result; the line before it
is a record with provenance and the sha256 digest of the op outputs, also
kept with the per-op details under .perfbench_out/.  --smoke runs every
workload at tiny sizes, untraced and then traced, and asserts the
oracles, equal digests of the two runs, and the closed-form counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import workloads
from tracer import layer_metrics

SETUP_RUNS = 2  # set-up probes before and again after the workload; setup_s is their median
MIN_OPS = 41  # measured ops per run at least, so ten ops fall beyond p75
STRETCH = 1.5  # to reach MIN_OPS a run may last this many times --seconds
# The measured ops are split over this many child processes, run one after
# another: how fast an op runs also depends on where a process happened to
# lay out its memory, and one process would give that luck to a whole run.
WORKERS = 3
TRACE_MIN_OPS = 11  # per phase of a traced run
DIGEST_OPS = 16  # outputs_sha256 covers ops 0..DIGEST_OPS-1, run-length independent
RUN_LIMIT_S = 170.0  # a run ends within this, whatever --seconds asks
SETUP_CODE = "import sys, tracekit.cli; sys.exit(tracekit.cli.main(sys.argv[1:]))"
HERE = Path(__file__).resolve().parent


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: an op then runs on one CPU and its time does not wait
    # on a second, possibly slowed, CPU of a shared host
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def measure_setup(workload, tmp: Path, env: dict, runs: int) -> list:
    """Wall seconds of fresh interpreters importing tracekit.cli and running a minimal op."""
    argv = workload.setup_argv(tmp)
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *argv], env=env,
                              stdout=subprocess.DEVNULL, timeout=60)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe {argv} exited {proc.returncode}")
    return times


def run_child(config: dict, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(config)],
                          env=env, stdout=subprocess.DEVNULL, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads((Path(config["tmp"]) / "child.json").read_text())


def judge(workload, seed: int, tmp: Path, ops: list) -> tuple:
    """Per-op (sha256 digests, failures) of a finished run, in op order."""
    digests, failures = [], []
    for op, _phase, code, *_ in ops:
        path = tmp / f"out-{op}.json"
        data = path.read_bytes() if path.exists() else b""
        digests.append(hashlib.sha256(data).hexdigest())
        if code != 0:
            reason = f"exit code {code}"
        else:
            reason = workload.check(seed, op, data.decode())
        if reason is not None:
            _, op_seed = workload.op_input(seed, op)
            failures.append({"op": op, "op_seed": op_seed, "reason": reason})
    return digests, failures


def outputs_digest(digests: list) -> str:
    return hashlib.sha256("".join(digests[:DIGEST_OPS]).encode()).hexdigest()


def count_report(workload, trace: dict, ops: list) -> dict:
    """Counts of each traced op, whether they repeat, and whether they are the closed forms."""
    expected = workload.closed_form_counts()
    per_op = [{key: trace["counts"].get(str(op), {}).get(key, 0) for key in expected}
              for op in ops]
    return {
        "per_op": per_op[0],
        "repeat": all(c == per_op[0] for c in per_op),
        "closed_form": expected,
        "match": all(c == expected for c in per_op),
    }


def load_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text())


def provenance(root: Path, seed: int, blas_threads) -> dict:
    import scipy

    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    lines = 0
    for path in sorted((root / "src" / "tracekit").rglob("*.py")):
        data = path.read_bytes()
        lines += data.count(b"\n")
        src.update(path.relative_to(root).as_posix().encode() + b"\0" + data)
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "src_lines": lines,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "workload_seed": seed,
    }


def child_phases(seconds: float, traced: bool, hard: float) -> list:
    """The phases of each child process of a run, in the order they run."""
    if not traced:
        share = {"name": "measure", "traced": False, "seconds": seconds / WORKERS,
                 "min_ops": -(-MIN_OPS // WORKERS), "max_ops": 10**9,
                 "hard_seconds": min(hard, STRETCH * seconds) / WORKERS}
        return [[share]] * WORKERS
    return [[{"name": name, "traced": name == "traced", "seconds": seconds / 2,
              "min_ops": TRACE_MIN_OPS, "max_ops": 10**9, "hard_seconds": hard / 2}
             for name in ("untraced", "traced")]]


def bench(args, root: Path) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]
    env = child_env(root)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        setup = measure_setup(workload, tmp, env, SETUP_RUNS)
        # leave 30 s of the run's limit for the children's start, the oracles
        # and the set-up probes after them
        hard = deadline - time.monotonic() - 30.0
        ops, peak_rss_mb, trace, blas = [], 0.0, None, None
        for phase_list in child_phases(args.seconds, bool(args.trace), hard):
            config = {"workload": workload.name, "seed": args.seed, "tmp": str(tmp),
                      "smoke": False, "first_op": len(ops), "phases": phase_list}
            result = run_child(config, env, timeout=deadline - time.monotonic())
            ops += result["ops"]
            peak_rss_mb = max(peak_rss_mb, result["peak_rss_mb"])
            trace = result["trace"] or trace
            blas = result["blas_threads"]
        digests, failures = judge(workload, args.seed, tmp, ops)
        # probes on both sides of the workload meet the host in two states
        setup += measure_setup(workload, tmp, env, SETUP_RUNS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    def seconds_of(phase):
        return [s for _op, p, _code, s, _ref in ops if p == phase]

    def relative_of(phase):
        return [s / ref for _op, p, _code, s, ref in ops if p == phase]

    if args.trace:
        traced = seconds_of("traced")
        metrics = layer_metrics(trace, traced)
        metrics["trace.overhead"] = (statistics.median(relative_of("traced"))
                                     / statistics.median(relative_of("untraced")) - 1.0)
        counts = count_report(workload, trace,
                              [op for op, phase, *_ in ops if phase == "traced"])
        if not (counts["repeat"] and counts["match"]):
            print(f"note: per-op counts {counts['per_op']} differ from the closed forms "
                  f"{counts['closed_form']} or between ops", file=sys.stderr)
    else:
        measured = seconds_of("measure")
        relative = statistics.quantiles(relative_of("measure"), n=4)
        metrics = {
            "setup_s": statistics.median(setup),
            "op_rel.p50": relative[1],
            "op_rel.p75": relative[2],
            "peak_rss_mb": peak_rss_mb,
            "pass_ratio": (len(ops) - len(failures)) / len(ops),
        }
        counts = None
        quartiles = statistics.quantiles(measured, n=4)
        wall = {
            "op_s.p50": quartiles[1],
            "op_s.p75": quartiles[2],
            "work_per_s": workload.work_per_op * len(measured) / sum(measured),
            "ref_s.p50": statistics.median(r[4] for r in ops if r[1] == "measure"),
        }

    spec = load_spec(root)
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": provenance(root, args.seed, blas),
        "ops": len(ops),
        "measured_ops": len(seconds_of("traced" if args.trace else "measure")),
        "digest_ops": min(DIGEST_OPS, len(digests)),
        "outputs_sha256": outputs_digest(digests),
        "failures": failures,
        "setup_s": setup,
    }
    if not args.trace:
        record["wall"] = wall
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    details = dict(record, op_sha256=digests, op_seconds=ops, counts=counts)
    (out_dir / f"{stem}.json").write_text(json.dumps(details, indent=1))
    if args.trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(trace))
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def smoke(root: Path) -> int:
    """Every workload at tiny sizes, untraced then traced; 0 if every check holds."""
    env = child_env(root)
    per_layer = {m["name"] for m in load_spec(root)["per_layer"]}
    problems = []
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    try:
        for workload in workloads.SMOKE_WORKLOADS.values():
            runs = []
            for traced in (False, True):
                tmp = Path(tempfile.mkdtemp(dir=scratch))
                try:
                    measure_setup(workload, tmp, env, 1)
                    phase = {"name": "smoke", "traced": traced, "seconds": 0.0, "min_ops": 3,
                             "max_ops": 3, "hard_seconds": 60.0}
                    config = {"workload": workload.name, "seed": 7, "tmp": str(tmp),
                              "smoke": True, "first_op": 0, "phases": [phase]}
                    result = run_child(config, env, timeout=120)
                    digests, failures = judge(workload, 7, tmp, result["ops"])
                finally:
                    shutil.rmtree(tmp, ignore_errors=True)
                runs.append((digests, failures, result))
            found = [f"op {f['op']}: {f['reason']}" for _, failures, _ in runs for f in failures]
            if runs[0][0] != runs[1][0]:
                found.append("output digests differ between the untraced and the traced run")
            trace = runs[1][2]["trace"]
            traced_ops = runs[1][2]["ops"][1:]
            counts = count_report(workload, trace, [op for op, *_ in traced_ops])
            if not counts["repeat"]:
                found.append("per-op counts differ between ops")
            if not counts["match"]:
                found.append(f"counts {counts['per_op']} are not the closed forms "
                             f"{counts['closed_form']}")
            metrics = layer_metrics(trace, [row[3] for row in traced_ops])
            if workload.samples and metrics["sphere.redraw_ratio"] != 1.0:
                found.append(f"redraw ratio {metrics['sphere.redraw_ratio']}")
            if set(metrics) | {"trace.overhead"} != per_layer:
                found.append("the traced metrics are not the per_layer list of BENCHMARK.json")
            print(f"{workload.name}: {'ok' if not found else 'FAILED'}")
            problems += [f"{workload.name}: {text}" for text in found]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, every workload and oracle, traced")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "tracekit" / "cli.py").is_file():
        print("error: run from the root of a tracekit checkout (no src/tracekit/cli.py)",
              file=sys.stderr)
        return 2
    if not args.smoke and (args.workload is None or args.seed < 0 or args.seconds < 1):
        parser.error("--workload is required; --seed must be >= 0 and --seconds >= 1")
    try:
        return smoke(root) if args.smoke else bench(args, root)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
