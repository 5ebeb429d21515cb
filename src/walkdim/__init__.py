"""Lipschitz invariants of gasket-type self-similar sets.

Exact Hausdorff dimension, Dirichlet-form renormalization, and walk
dimension for finitely ramified rotation-free attractors, with
stochastic and oscillation-based estimators that cross-check the exact
values, and a certified pairwise non-equivalence audit.  numpy is
imported inside the float estimators, so the exact routes run without
it; scipy only inside `alfors_check`, for ball counts on measure
samples.
"""

from .audit import (
    DISTINCT_BY_ALPHA,
    DISTINCT_BY_BETA,
    INCONCLUSIVE,
    INVARIANTS_EQUAL,
    AuditVerdict,
    audit_pair,
    verify_certificate,
)
from .besov import (
    AlforsReport,
    BesovScan,
    CriticalExponentEstimate,
    LipschitzMap,
    PushforwardReport,
    alfors_check,
    besov_functional,
    critical_exponent_fit,
    dyadic_grid,
    pushforward_check,
)
from .dirichlet import (
    ExitTimeReport,
    GraphFunction,
    HeatProfile,
    deep_interior_vertex,
    default_time_grid,
    exit_time_profile,
    graph_energy,
    harmonic_extension,
    heat_kernel_diag,
    solve_weighted_laplacian,
)
from .errors import (
    BudgetExceeded,
    ConvergenceError,
    FitError,
    ReductionError,
    ValidationError,
    WalkdimError,
)
from .ifs import (
    IfsSpec,
    MeasureSample,
    Similitude,
    ValidationReport,
    attractor_hull,
    compose,
    hausdorff_dim,
    load_system,
    preset,
    preset_names,
    sample_measure,
    validate,
)
from .levelgraph import (
    LevelGraph,
    build_level_graph,
    cell_budget,
    components_after_removal,
    vertex_measure_weights,
)
from .logratio import Comparison, LogRatio, PowerCertificate, Relation
from .network import (
    ConductanceNetwork,
    DimensionReport,
    RenormResult,
    dimension_report_from_constants,
    renorm_factor,
    unit_complete_network,
    walk_dimension,
)
from .rational import as_fraction, format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "AlforsReport",
    "AuditVerdict",
    "BesovScan",
    "BudgetExceeded",
    "Comparison",
    "ConductanceNetwork",
    "ConvergenceError",
    "CriticalExponentEstimate",
    "DISTINCT_BY_ALPHA",
    "DISTINCT_BY_BETA",
    "DimensionReport",
    "ExitTimeReport",
    "FitError",
    "GraphFunction",
    "HeatProfile",
    "INCONCLUSIVE",
    "INVARIANTS_EQUAL",
    "IfsSpec",
    "LevelGraph",
    "LipschitzMap",
    "LogRatio",
    "MeasureSample",
    "PowerCertificate",
    "PushforwardReport",
    "ReductionError",
    "Relation",
    "RenormResult",
    "Similitude",
    "ValidationError",
    "ValidationReport",
    "WalkdimError",
    "alfors_check",
    "as_fraction",
    "attractor_hull",
    "audit_pair",
    "besov_functional",
    "build_level_graph",
    "cell_budget",
    "compose",
    "components_after_removal",
    "critical_exponent_fit",
    "deep_interior_vertex",
    "default_time_grid",
    "dimension_report_from_constants",
    "dyadic_grid",
    "exit_time_profile",
    "format_rational",
    "graph_energy",
    "harmonic_extension",
    "hausdorff_dim",
    "heat_kernel_diag",
    "load_system",
    "preset",
    "preset_names",
    "pushforward_check",
    "parse_rational",
    "renorm_factor",
    "sample_measure",
    "solve_weighted_laplacian",
    "unit_complete_network",
    "validate",
    "verify_certificate",
    "vertex_measure_weights",
    "walk_dimension",
    "__version__",
]
