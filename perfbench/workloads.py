"""Benchmark workloads: generated inputs, CLI arguments and output oracles.

Every op of a workload gets its own input matrix and its own CLI
`--seed`, both drawn from numpy's PCG64 seeded with (workload_seed, op).
The oracles below judge a written report with numpy alone, independently
of the gates inside the CLI.  This module imports nothing from tracekit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHUNK_SIZE = 4096  # tracekit's default estimator chunk size
ESTIMATE_Z = 5.0  # --z passed to estimate, and the oracle's radius in closed-form sigmas
STDERR_RATIO = (0.9, 1.1)  # reported stderr over the closed-form sphere stderr
RESIDUAL_TOL = 1e-10  # decompose: recomputed residuals, relative as in the CLI gate
UNIQUENESS_TOL = 1e-12  # uniqueness: max |v - I/n|


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # estimate | decompose | check-invariance | uniqueness
    n: int
    samples: int = 0  # sphere draws per op; 0 when the op draws none

    @property
    def work_per_op(self) -> int:
        """Samples per op for sampling workloads, otherwise one op."""
        return self.samples or 1

    def op_input(self, workload_seed: int, op: int):
        """(matrix or None, CLI seed) of one op, reproducible from the seeds."""
        rng = np.random.default_rng([workload_seed, op])
        op_seed = int(rng.integers(0, 2**63))
        if self.command == "uniqueness":
            return None, op_seed
        g = rng.standard_normal((self.n, self.n, 2))
        return g[:, :, 0] + 1j * g[:, :, 1], op_seed

    def argv(self, matrix_path, op_seed: int, output) -> list:
        """CLI arguments of one op writing its report to `output`."""
        if self.command == "estimate":
            args = ["estimate", str(matrix_path), "--samples", str(self.samples),
                    "--z", repr(ESTIMATE_Z)]
        elif self.command == "decompose":
            args = ["decompose", str(matrix_path)]
        elif self.command == "check-invariance":
            args = ["check-invariance", str(matrix_path), "--random-unitary",
                    "--samples", str(self.samples)]
        else:
            args = ["uniqueness", "--dim", str(self.n)]
        return args + ["--seed", str(op_seed), "--output", str(output)]

    def write_op(self, workload_seed: int, op: int, directory: Path) -> list:
        """Write op `op`'s input file (if any) and return its CLI arguments."""
        a, op_seed = self.op_input(workload_seed, op)
        path = None
        if a is not None:
            path = directory / f"in-{op}.mtx"
            path.write_text(matrix_market(a))
        return self.argv(path, op_seed, directory / f"out-{op}.json")

    def setup_argv(self, directory: Path) -> list:
        """The smallest invocation of this workload's subcommand (set-up probe)."""
        output = directory / "setup-out.json"
        if self.command == "uniqueness":
            return ["uniqueness", "--dim", "1", "--output", str(output)]
        path = directory / "setup-in.mtx"
        if self.command == "estimate":
            a = np.eye(2, dtype=complex)  # the identity estimates exactly from one sample
        else:
            a = np.array([[1.0, 2.0j], [3.0, 4.0 - 1.0j]])
        path.write_text(matrix_market(a))
        args = [self.command, str(path), "--output", str(output)]
        if self.command == "check-invariance":
            args.append("--random-unitary")
        if self.samples:
            args += ["--samples", "1"]
        return args

    def check(self, workload_seed: int, op: int, text: str):
        """None if op `op`'s report passes the oracle, else the reason it fails."""
        a, op_seed = self.op_input(workload_seed, op)
        try:
            doc = json.loads(text)
            return _ORACLES[self.command](self, a, op_seed, doc)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable report: {exc!r}"

    def closed_form_counts(self) -> dict:
        """Per-op counts the traced run must reproduce exactly."""
        n, big_n = self.n, self.samples
        counts = {
            "sphere.words": 0,
            "sphere.vectors": 0,
            "estimator.chunks": 0,
            "linalg.eigh_calls": 0,
            "linalg.eigh_solves": 0,
            "unitary.decompose_calls": 0,
        }
        if self.command == "estimate":
            counts.update({
                "sphere.words": 2 * n * big_n,
                "sphere.vectors": big_n,
                "estimator.chunks": math.ceil(big_n / CHUNK_SIZE),
            })
        elif self.command == "decompose":
            # two solves per Hermitian part: operator norm, then the contraction
            counts.update({"linalg.eigh_calls": 4, "linalg.eigh_solves": 4,
                           "unitary.decompose_calls": 1})
        elif self.command == "check-invariance":
            # 2n^2 words for the Gaussian seed matrix of B, then the draws.  One
            # solve for its norm, then decompose runs three on the Hermitian B;
            # the fourth call gets the exactly zero anti-Hermitian part.
            counts.update({
                "sphere.words": 2 * n * big_n + 2 * n * n,
                "sphere.vectors": big_n,
                "linalg.eigh_calls": 4,
                "linalg.eigh_solves": 3,
                "unitary.decompose_calls": 1,
            })
        return counts


def matrix_market(a) -> str:
    """'array complex general' Matrix Market text, 17 significant digits."""
    n_rows, n_cols = a.shape
    lines = ["%%MatrixMarket matrix array complex general", f"{n_rows} {n_cols}"]
    for z in a.T.ravel():  # column-major
        lines.append("%.17g %.17g" % (z.real, z.imag))
    return "\n".join(lines) + "\n"


def _pairs(rows) -> np.ndarray:
    m = np.asarray(rows, dtype=np.float64)
    return m[..., 0] + 1j * m[..., 1]


def _check_estimate(w: Workload, a, op_seed, doc):
    n, big_n = w.n, w.samples
    if (doc["n"], doc["samples"], doc["seed"]) != (n, big_n, op_seed):
        return f"report header {doc['n'], doc['samples'], doc['seed']} does not match the op"
    tr = complex(np.trace(a))
    exact = tr / n
    if abs(complex(*doc["exact"]) - exact) > 1e-12 * (1.0 + abs(exact)):
        return f"exact {doc['exact']} differs from tr(A)/n = {exact!r}"
    fro2 = float(np.sum(np.abs(a) ** 2))
    sigma = math.sqrt(max(fro2 - abs(tr) ** 2 / n, 0.0) / (n * (n + 1)) / big_n)
    err = abs(complex(*doc["mean"]) - exact)
    if err > ESTIMATE_Z * sigma:
        return f"|mean - exact| = {err:.3e} exceeds {ESTIMATE_Z} closed-form sigmas ({sigma:.3e})"
    ratio = doc["stderr"] / sigma
    if not STDERR_RATIO[0] <= ratio <= STDERR_RATIO[1]:
        return f"stderr / closed-form stderr = {ratio:.4f} outside {STDERR_RATIO}"
    return None


def _check_decompose(w: Workload, a, op_seed, doc):
    terms = doc["terms"]
    if doc["n"] != w.n or not 1 <= len(terms) <= 4:
        return f"n = {doc['n']} with {len(terms)} terms"
    total = np.zeros_like(a)
    unitarity = 0.0
    eye = np.eye(w.n)
    for term in terms:
        u = _pairs(term["unitary"])
        total += complex(*term["coefficient"]) * u
        unitarity = max(unitarity, float(np.linalg.norm(u.conj().T @ u - eye)))
    recon = float(np.linalg.norm(total - a))
    if recon > RESIDUAL_TOL * max(1.0, float(np.linalg.norm(a))):
        return f"reconstruction residual {recon:.3e}"
    if unitarity > RESIDUAL_TOL * w.n:
        return f"unitarity residual {unitarity:.3e}"
    return None


def _check_invariance(w: Workload, a, op_seed, doc):
    if (doc["n"], doc["samples"], doc["seed"]) != (w.n, w.samples, op_seed):
        return f"report header {doc['n'], doc['samples'], doc['seed']} does not match the op"
    # the bound is recomputed, so the CLI cannot pass by widening its own
    bound = 1e-10 * (1.0 + float(np.linalg.norm(a)))
    if not doc["max_gap"] <= min(doc["bound"], bound * (1 + 1e-12)):
        return f"max_gap {doc['max_gap']:.3e} above bound {bound:.3e}"
    if not doc["unitarity_residual"] <= 1e-10:
        return f"unitarity residual {doc['unitarity_residual']:.3e}"
    return None


def _check_uniqueness(w: Workload, a, op_seed, doc):
    values = _pairs(doc["solution"])
    if doc["dim"] != w.n or values.shape != (w.n, w.n):
        return f"dim {doc['dim']} with values of shape {values.shape}"
    gap = float(np.max(np.abs(values - np.eye(w.n) / w.n)))
    if gap > UNIQUENESS_TOL:
        return f"max |v - I/n| = {gap:.3e}"
    if doc["nullspace_dim"] != 1:
        return f"nullspace_dim = {doc['nullspace_dim']}"
    return None


_ORACLES = {
    "estimate": _check_estimate,
    "decompose": _check_decompose,
    "check-invariance": _check_invariance,
    "uniqueness": _check_uniqueness,
}

WORKLOADS = {w.name: w for w in (
    Workload("estimate-n64", "estimate", 64, samples=20000),
    Workload("decompose-n32", "decompose", 32),
    Workload("invariance-n32", "check-invariance", 32, samples=50000),
    Workload("uniqueness-n8", "uniqueness", 8),
)}

# Same ops at tiny sizes; 5000 samples still span two estimator chunks.
SMOKE_WORKLOADS = {w.name: w for w in (
    Workload("estimate-n64", "estimate", 4, samples=5000),
    Workload("decompose-n32", "decompose", 5),
    Workload("invariance-n32", "check-invariance", 4, samples=5000),
    Workload("uniqueness-n8", "uniqueness", 3),
)}
