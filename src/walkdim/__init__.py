"""Lipschitz invariants of gasket-type self-similar sets.

Exact Hausdorff dimension, Dirichlet-form renormalization, and walk
dimension for finitely ramified rotation-free attractors, with
stochastic and oscillation-based estimators that cross-check the exact
values, and a certified pairwise non-equivalence audit.

Each layer module below is registered with `importlib.util.LazyLoader`:
it sits in `sys.modules` and on the package from the start and runs on
first attribute access, so a caller runs (and compiles) only the layers
it uses.  The re-exported names resolve through `__getattr__`.  numpy,
the one dependency, is imported inside the float estimators, so the
exact routes run without it.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# layer module -> the names the package re-exports from it
_EXPORTS = {
    "audit": "DISTINCT_BY_ALPHA DISTINCT_BY_BETA INCONCLUSIVE INVARIANTS_EQUAL"
    " AuditVerdict audit_pair verify_certificate",
    "besov": "AlforsReport BesovScan CriticalExponentEstimate LipschitzMap PushforwardReport"
    " alfors_check besov_functional critical_exponent_fit dyadic_grid pushforward_check",
    "dirichlet": "ExitTimeReport GraphFunction HeatProfile deep_interior_vertex default_time_grid"
    " exit_time_profile graph_energy harmonic_extension heat_kernel_diag"
    " solve_weighted_laplacian",
    "errors": "BudgetExceeded ConvergenceError FitError ReductionError ValidationError"
    " WalkdimError",
    "ifs": "IfsSpec MeasureSample Similitude ValidationReport attractor_hull compose"
    " hausdorff_dim load_system preset preset_names sample_measure validate",
    "levelgraph": "LevelGraph build_level_graph components_after_removal vertex_measure_weights",
    "logratio": "Comparison LogRatio PowerCertificate Relation",
    "network": "ConductanceNetwork DimensionReport RenormResult dimension_report_from_constants"
    " renorm_factor walk_dimension",
    "rational": "as_fraction format_rational parse_rational",
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_OWNER, "__version__"]

for _module in _EXPORTS:
    # find_spec goes through sys.meta_path, so import hooks still see each load
    _spec = importlib.util.find_spec(f"{__name__}.{_module}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_module] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_module])
del _module, _spec


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)


def __dir__():
    return sorted({*globals(), *_OWNER})
