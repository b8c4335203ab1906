"""Randomized trace estimation on the complex unit sphere.

The normalized trace of a matrix equals the average of the quadratic
form <A x, x> over unit vectors x, so it can be estimated by seeded
Monte Carlo sampling.  Alongside the estimator the package carries the
two facts that make the average well behaved, in executable form: the
normalized trace is the unique normalized tracial functional
(`tracekit.uniqueness`), and every matrix is a short weighted sum of
unitaries (`tracekit.unitary`), whose substitution symmetry the
estimator inherits sample by sample.
"""

from .estimator import (
    EstimateReport,
    RunningStats,
    estimate_trace,
    merge_stats,
    stats_from_values,
)
from .formats import (
    MatrixMarketError,
    parse_json_dense,
    parse_matrix_market,
    write_json_dense,
    write_matrix_market,
    write_report_json,
)
from .linalg import (
    frobenius_norm,
    hermitian_eigh,
    matrix_unit,
    normalized_trace,
)
from .sphere import (
    GaussianStream,
    StreamSpec,
    gaussian_matrix,
    sample_unit_vectors,
    sample_unit_vectors_chunked,
)
from .uniqueness import (
    FunctionalSolution,
    build_constraint_system,
    evaluate_functional,
    solve_unique_functional,
)
from .unitary import (
    UnitaryDecomposition,
    decompose_into_unitaries,
    determinant,
    hermitian_parts,
    rephase_to_det_one,
)

__version__ = "0.1.0"

__all__ = [
    "EstimateReport",
    "FunctionalSolution",
    "GaussianStream",
    "MatrixMarketError",
    "RunningStats",
    "StreamSpec",
    "UnitaryDecomposition",
    "build_constraint_system",
    "decompose_into_unitaries",
    "determinant",
    "estimate_trace",
    "evaluate_functional",
    "frobenius_norm",
    "gaussian_matrix",
    "hermitian_eigh",
    "hermitian_parts",
    "matrix_unit",
    "merge_stats",
    "normalized_trace",
    "parse_json_dense",
    "parse_matrix_market",
    "rephase_to_det_one",
    "sample_unit_vectors",
    "sample_unit_vectors_chunked",
    "solve_unique_functional",
    "stats_from_values",
    "write_json_dense",
    "write_matrix_market",
    "write_report_json",
]
