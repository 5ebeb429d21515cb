"""The three workloads: each is a pass of library calls (one operation
each) and a list of README CLI commands, every output paired with a
check from checks.py that is computed apart from walkdim.

Calls go through the ``walkdim`` package attributes at call time, so
the tracer's wrappers see them.  Pass sizes keep a whole run near half
a minute on a 2-core machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import checks
from inputs import AUDIT_PAIRS, HOOK_JSON, K1, K2, ROOT

ALPHA_SG = math.log(3) / math.log(2)
BETA_SG = math.log(5) / math.log(2)
HEAT_EXPONENT_SG = -math.log(3) / math.log(5)
HOOK_CLI_PATH = str(HOOK_JSON.relative_to(ROOT))

EXIT_LEVEL_SG = 6
EXIT_LEVEL_SEGMENT = 10
DIRECT_LEVEL = 6
HOOK_LEVELS = (2, 3, 4)
GRAPH_LEVEL = 8
HEAT_LEVEL = 7
HARMONIC_LEVEL = 6
REGULARITY_SAMPLES = 6000
FIT_SAMPLES = 2000
SAMPLE_DEPTH = 12


@dataclass(frozen=True)
class Op:
    """One operation of a pass.  ``run(state)`` calls the library and its
    result is stored as ``state[key]``; ``check(result, state)`` raises
    checks.Mismatch on a wrong output.  ``fault`` is the check of the one
    known program fault: its Mismatch counts the operation as failed
    instead of marking the run incorrect."""

    key: str
    metric: str
    run: Callable
    check: Callable
    fault: Optional[Callable] = None


@dataclass(frozen=True)
class Command:
    """One README CLI command; ``check(payload, state)`` gets its JSON
    and the state of the last in-process pass."""

    metric: str
    argv: tuple
    check: Callable


# ---------------------------------------------------------------- shared checks


def graph_counts(graph) -> dict:
    return {"vertices": graph.vertex_count, "edges": graph.edge_count, "cells": len(graph.cells)}


def check_sg_harmonic(u, corner, what: str) -> None:
    """Level-m sg harmonic extension: graph counts, boundary data,
    exact discrete harmonicity and (5/3)^m E_m = 2."""
    graph = u.graph
    checks.check_counts(graph_counts(graph), checks.sg_level_counts(graph.level), what)
    boundary = graph.boundary_indices()
    checks.expect(
        tuple(u.values[b] for b in boundary) == corner, f"{what}: boundary values changed"
    )
    checks.check_discrete_harmonic(list(u.values), graph.edges, set(boundary), what)
    energy = Fraction(5, 3) ** graph.level * checks.edge_energy(list(u.values), graph.edges)
    checks.expect(energy == 2, f"{what}: scaled energy {energy}, want 2")


def check_sg_fit(radii, slope, what: str) -> None:
    """At least four radii, and the slope within 7% of log5/log2."""
    checks.expect(len(radii) >= 4, f"{what}: {len(radii)} radii in the fit")
    checks.close(slope, BETA_SG, 0.07, f"{what} slope vs log5/log2")


def check_heat(times, diag, exponent, what: str) -> None:
    checks.expect(list(times) == sorted(set(times)), f"{what}: times not increasing")
    checks.check_nonincreasing(list(diag), what)
    checks.expect(
        abs(exponent - HEAT_EXPONENT_SG) <= 0.05,
        f"{what}: exponent {exponent} not within 0.05 of {HEAT_EXPONENT_SG}",
    )


def check_coordinate_fit(radii, values, slope, what: str) -> None:
    checks.check_coordinate_raw(radii, values)
    checks.close(slope, 2.0, 0.05, f"{what} slope vs 2")


# ---------------------------------------------------------------- exact-solve


def _check_validate(report, state):
    failed = [c.name for c in report.checks if not c.passed]
    checks.expect(report.ok and not failed, f"validate(sg3) rejects a valid gasket: {failed}")


def _check_dim_sg(rep, state):
    checks.expect(rep.exact and rep.energy_scale == Fraction(5, 3), f"sg energy scale {rep.energy_scale}")
    checks.check_log_ratio(rep.alpha.argument, rep.alpha.base, 3, 2, "alpha(sg)")
    checks.check_log_ratio(rep.beta.argument, rep.beta.base, 5, 2, "beta(sg)")
    checks.close(rep.beta_float, BETA_SG, 1e-12, "beta(sg) float")


def _check_dim_segment(rep, state):
    checks.expect(rep.exact and rep.energy_scale == 2, f"segment energy scale {rep.energy_scale}")
    checks.check_log_ratio(rep.beta.argument, rep.beta.base, 4, 2, "beta(segment)")
    checks.close(rep.beta_float, 2.0, 1e-12, "beta(segment) float")


def _renorm_power(n):
    def check(result, state):
        checks.expect(result.exact, f"renorm of the {n}-fold sg composition is not exact")
        checks.check_product_law({n: result.energy_scale}, Fraction(5, 3))

    return check


def _check_renorm_hook(result, state):
    hook = state["hook"]
    checks.expect(not result.exact and result.iterations > 0, "hook renorm should take the float route")
    maps = [(m.ratio, m.translation) for m in hook.maps]
    checks.check_fixed_network(
        maps, list(hook.boundary), dict(result.fixed_network.conductances), float(result.energy_scale)
    )


def _audit_op(index, a, b):
    def run(state):
        return state["wd"].audit_pair(a, b)

    def check(verdict, state):
        cert = verdict.certificate
        pair = None if cert is None else (cert.left_integer, cert.right_integer)
        checks.check_audit(a, b, verdict.verdict, pair)

    return Op(f"audit{index}", "audit.audit_pair_s", run, check)


def _check_exit(base, level):
    def check(report, state):
        checks.expect([m for m, _ in report.rows] == list(range(level + 1)), "exit-time levels")
        checks.check_exit_times([t for _, t in report.rows], base, f"exit times base {base}")
        checks.close(report.beta_hat, math.log(base) / math.log(2), 1e-12, "exit-time beta_hat")

    return check


def _run_direct(state):
    wd = state["wd"]
    u = wd.harmonic_extension(state["sg"], DIRECT_LEVEL, state["corner"], method="direct")
    return u, wd.graph_energy(u, Fraction(5, 3))


def _check_direct(result, state):
    u, energy = result
    check_sg_harmonic(u, state["corner"], "direct harmonic sg")
    checks.expect(energy == 2, f"graph_energy of the direct sg extension is {energy}, want 2")


def _run_hook(state):
    wd = state["wd"]
    scale = state["renorm_hook"].energy_scale
    out = {}
    for m in HOOK_LEVELS:
        u = wd.harmonic_extension(state["hook"], m, (Fraction(1), Fraction(0), Fraction(0)))
        out[m] = (u, wd.graph_energy(u, scale))
    return out


def _check_hook(result, state):
    scale = float(state["renorm_hook"].energy_scale)
    for m, (u, energy) in result.items():
        checks.check_unit_interval(u.values, f"hook harmonic m={m}")
        want = scale ** m * float(checks.edge_energy(list(u.values), u.graph.edges))
        checks.close(float(energy), want, 1e-12, f"hook graph_energy m={m}")


def _fault_hook(result, state):
    checks.check_energy_invariance({m: float(e) for m, (_, e) in result.items()})


def exact_solve_ops() -> list:
    ops = [
        Op("validate", "ifs.validate_s", lambda s: s["wd"].validate(s["sg3"]), _check_validate),
        Op("dim_sg", "network.walk_dimension_s", lambda s: s["wd"].walk_dimension(s["sg"]), _check_dim_sg),
        Op("dim_segment", "network.walk_dimension_s", lambda s: s["wd"].walk_dimension(s["segment"]), _check_dim_segment),
        Op("renorm_sg2", "network.renorm_s", lambda s: s["wd"].renorm_factor(s["sg2"]), _renorm_power(2)),
        Op("renorm_sg3", "network.renorm_s", lambda s: s["wd"].renorm_factor(s["sg3"]), _renorm_power(3)),
        Op("renorm_hook", "network.renorm_hook_s", lambda s: s["wd"].renorm_factor(s["hook"]), _check_renorm_hook),
    ]
    ops += [_audit_op(i, a, b) for i, (a, b) in enumerate(AUDIT_PAIRS)]
    ops += [
        Op("exit_sg", "dirichlet.exit_time_s", lambda s: s["wd"].exit_time_profile(s["sg"], EXIT_LEVEL_SG), _check_exit(5, EXIT_LEVEL_SG)),
        Op("exit_segment", "dirichlet.exit_time_segment_s", lambda s: s["wd"].exit_time_profile(s["segment"], EXIT_LEVEL_SEGMENT), _check_exit(4, EXIT_LEVEL_SEGMENT)),
        Op("direct", "dirichlet.harmonic_direct_s", _run_direct, _check_direct),
        Op("hook_energies", "dirichlet.harmonic_hook_s", _run_hook, _check_hook, fault=_fault_hook),
    ]
    return ops


def _cli_dim_hook(payload, state):
    scale = float(state["renorm_hook"].energy_scale)
    checks.expect(payload["exact"] is False, "dim hook should report a float energy scale")
    checks.close(payload["energy_scale"], scale, 1e-12, "dim hook energy_scale")
    checks.close(payload["floats"]["beta"], math.log(5 * scale) / math.log(3), 1e-12, "dim hook beta")


def _cli_dim_sg(payload, state):
    checks.expect(payload["energy_scale"] == "5/3" and payload["exact"] is True, "dim sg energy scale")
    beta = payload["beta"]
    checks.check_log_ratio(Fraction(beta["argument"]), Fraction(beta["base"]), 5, 2, "dim sg beta")
    checks.close(payload["floats"]["beta"], BETA_SG, 1e-12, "dim sg beta float")


def _cli_validate(payload, state):
    checks.expect(payload["ok"] is True and all(c["passed"] for c in payload["checks"]), "validate sg")


def _cli_renorm(payload, state):
    checks.expect(payload["energy_scale"] == "5/3" and payload["exact"] is True, "renorm sg")


def _cli_compare(payload, state):
    cert = payload["certificate"]
    pair = None if cert is None else (int(cert["left"]), int(cert["right"]))
    checks.check_audit(K1, K2, payload["verdict"], pair)


def _cli_exit(payload, state):
    times = [Fraction(row["value"]) for row in payload["expected_steps"]]
    checks.expect(len(times) == 5, "exit-fit -m 4 levels")
    checks.check_exit_times(times, 5, "exit-fit sg")


def _cli_harmonic(payload, state):
    checks.expect(payload["energy_scaled"] == "2", f"harmonic sg energy {payload['energy_scaled']}")
    checks.expect(payload["vertex_count"] == checks.sg_level_counts(4)["vertices"], "harmonic vertex count")
    checks.expect(payload["min"] == 0.0 and payload["max"] == 1.0, "harmonic sg range")


def _cli_cut(payload, state):
    # removing the three level-1 midpoints isolates the three corners
    checks.expect(payload["components"] == 3, f"cut sg: {payload['components']} components, want 3")


EXACT_CLI = (
    Command("cli.validate_s", ("validate", "sg"), _cli_validate),
    Command("cli.dim_sg_s", ("dim", "sg"), _cli_dim_sg),
    Command("cli.dim_hook_s", ("dim", HOOK_CLI_PATH), _cli_dim_hook),
    Command("cli.renorm_s", ("renorm", "sg"), _cli_renorm),
    Command("cli.compare_s", ("compare", "--constants", "3,1/2,5/3", "--constants", "27,1/8,295/63"), _cli_compare),
    Command("cli.exit_fit_s", ("exit-fit", "sg", "-m", "4"), _cli_exit),
    Command("cli.harmonic_s", ("harmonic", "sg", "-m", "4"), _cli_harmonic),
    Command("cli.cut_s", ("cut", "sg", "-m", "1", "--remove-interior"), _cli_cut),
)


# ---------------------------------------------------------------- graph-estimators


def _check_graph(graph, state):
    checks.check_counts(graph_counts(graph), checks.sg_level_counts(GRAPH_LEVEL), "level graph")


def _check_heat_op(profile, state):
    check_heat(profile.times, profile.diag_values, profile.fitted_exponent, "heat kernel")


def _check_recursive(u, state):
    check_sg_harmonic(u, state["corner"], "recursive harmonic sg")


def _check_graph_fit(fit, state):
    check_sg_fit(fit.radii, fit.slope, "graph Besov fit")


def _pushforward_op(key, scale):
    def run(state):
        wd = state["wd"]
        return wd.pushforward_check(wd.LipschitzMap(scale, (Fraction(0), Fraction(0))), state["sg"], state["harmonic"])

    def check(report, state):
        rows = [(r.r, r.lhs, r.rhs, r.bound, r.ok) for r in report.rows]
        checks.check_pushforward_rows(rows, float(scale), ALPHA_SG)
        checks.expect(report.fits_agree, f"pushforward {scale}: fits disagree")
        if scale == 1:
            checks.expect(report.exact_invariance, "identity pushforward is not exact")
            checks.expect(
                report.source_fit.slope == report.image_fit.slope, "identity pushforward slopes differ"
            )

    return Op(key, "besov.pushforward_s", run, check)


def graph_estimators_ops() -> list:
    return [
        Op("graph", "levelgraph.build_s", lambda s: s["wd"].build_level_graph(s["sg"], GRAPH_LEVEL), _check_graph),
        Op("heat", "dirichlet.heat_kernel_s", lambda s: s["wd"].heat_kernel_diag(s["sg"], HEAT_LEVEL), _check_heat_op),
        Op(
            "harmonic",
            "dirichlet.harmonic_recursive_s",
            lambda s: s["wd"].harmonic_extension(s["sg"], HARMONIC_LEVEL, s["corner"], method="recursive"),
            _check_recursive,
        ),
        Op("graph_fit", "besov.graph_fit_s", lambda s: s["wd"].critical_exponent_fit(s["harmonic"].graph, s["harmonic"]), _check_graph_fit),
        _pushforward_op("pushforward_half", Fraction(1, 2)),
        _pushforward_op("pushforward_identity", Fraction(1)),
    ]


def _cli_graph(payload, state):
    got = {"vertices": payload["vertex_count"], "edges": payload["edge_count"], "cells": payload["cell_count"]}
    checks.check_counts(got, checks.sg_level_counts(3), "graph sg -m 3")


def _cli_heat(payload, state):
    check_heat(payload["times"], payload["diag_values"], payload["fitted_exponent"], "heat-fit sg -m 6")


def _cli_besov_graph(payload, state):
    check_sg_fit(payload["radii"], payload["slope"], "besov-fit sg -m 7")


def _cli_pushforward(payload, state):
    rows = [(r["r"], r["lhs"], r["rhs"], r["bound"], r["ok"]) for r in payload["rows"]]
    checks.check_pushforward_rows(rows, 0.5, ALPHA_SG)
    checks.expect(payload["fits_agree"] is True, "pushforward sg -m 6: fits disagree")


GRAPH_CLI = (
    Command("cli.graph_s", ("graph", "sg", "-m", "3"), _cli_graph),
    Command("cli.heat_fit_s", ("heat-fit", "sg", "-m", "6"), _cli_heat),
    Command("cli.besov_fit_s", ("besov-fit", "sg", "-m", "7"), _cli_besov_graph),
    Command("cli.pushforward_s", ("pushforward", "sg", "-m", "6", "--scale", "1/2"), _cli_pushforward),
)


# ---------------------------------------------------------------- measure-sample


def _check_sample(sample, state):
    checks.expect(len(sample.points) == REGULARITY_SAMPLES, "sample size")
    checks.check_sample_lattice(sample.points, SAMPLE_DEPTH)
    checks.check_cell_shares(sample.points)


def _check_regular(report, state):
    checks.expect(report.constant <= 8.0, f"regularity constant {report.constant} > 8")
    checks.expect(not report.flagged, "the true alpha is flagged")


def _check_wrong_alpha(report, state):
    checks.expect(report.flagged, "alpha = 1 is not flagged")


def _run_sample_fit(state):
    wd = state["wd"]
    sample = wd.sample_measure(state["sg"], SAMPLE_DEPTH, FIT_SAMPLES, state["seed"])
    x = [float(p[0]) for p in sample.points]
    return sample, x, wd.critical_exponent_fit(sample, x)


def _check_sample_fit(result, state):
    sample, x, fit = result
    checks.expect(len(sample.points) == FIT_SAMPLES, "fit sample size")
    checks.check_sample_lattice(sample.points, SAMPLE_DEPTH)
    check_coordinate_fit(fit.radii, fit.values, fit.slope, "sample x fit")


def measure_sample_ops() -> list:
    return [
        Op(
            "sample",
            "ifs.sample_measure_s",
            lambda s: s["wd"].sample_measure(s["sg"], SAMPLE_DEPTH, REGULARITY_SAMPLES, s["seed"]),
            _check_sample,
        ),
        Op("regular", "besov.alfors_s", lambda s: s["wd"].alfors_check(s["sample"], ALPHA_SG), _check_regular),
        Op("wrong_alpha", "besov.alfors_s", lambda s: s["wd"].alfors_check(s["sample"], 1.0), _check_wrong_alpha),
        Op("sample_fit", "besov.sample_fit_s", _run_sample_fit, _check_sample_fit),
    ]


def measure_cli(seed: int) -> tuple:
    def check(payload, state):
        checks.expect(payload["seed"] == seed, "besov-fit --sample did not echo the seed")
        check_coordinate_fit(payload["radii"], payload["values"], payload["slope"], "besov-fit --sample 4000")

    argv = ("besov-fit", "sg", "--sample", "4000", "--function", "x", "--seed", str(seed))
    return (Command("cli.besov_fit_sample_s", argv, check),)


def workload(name: str, seed: int) -> tuple[list, tuple]:
    """(pass operations, CLI commands) of a workload."""
    if name == "exact-solve":
        return exact_solve_ops(), EXACT_CLI
    if name == "graph-estimators":
        return graph_estimators_ops(), GRAPH_CLI
    if name == "measure-sample":
        return measure_sample_ops(), measure_cli(seed)
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------- oracles

ORACLE_CENTERS = 200


def _float_points(points) -> "np.ndarray":
    import numpy as np

    return np.array([[float(x), float(y)] for x, y in points])


def graph_oracle(state) -> None:
    """O(n^2) pair counts and raw oscillation on the harmonic graph cloud,
    with the gasket vertex measure (corners 1, others 2, over 3^(m+1))."""
    import numpy as np

    u, fit = state["harmonic"], state["graph_fit"]
    graph = u.graph
    corners = set(state["sg"].boundary)
    weights = np.array([1.0 if p in corners else 2.0 for p in graph.vertices]) / 3 ** (graph.level + 1)
    values = np.array([float(v) for v in u.values])
    counts, raws = checks.brute_oscillation(_float_points(graph.vertices), weights, values, fit.radii)
    scan = state["wd"].besov_functional(graph, u, 0.0, fit.radii)
    checks.check_scan([r.pair_count for r in scan.rows], [r.raw for r in scan.rows], counts, raws, "graph Besov scan")
    checks.check_scan(None, fit.values, counts, raws, "graph Besov fit")


def measure_oracle(state) -> None:
    """O(n^2) scan of the fit sample, and ball counts behind alfors_check
    at every (len/ORACLE_CENTERS)-th centre of the regularity sample."""
    import numpy as np

    wd = state["wd"]
    sample, x, fit = state["sample_fit"]
    n = len(sample.points)
    counts, raws = checks.brute_oscillation(_float_points(sample.points), np.full(n, 1.0 / n), np.array(x), fit.radii)
    scan = wd.besov_functional(sample, x, 0.0, fit.radii)
    checks.check_scan([r.pair_count for r in scan.rows], [r.raw for r in scan.rows], counts, raws, "sample Besov scan")
    checks.check_scan(None, fit.values, counts, raws, "sample Besov fit")

    big = state["sample"]
    points = _float_points(big.points)
    stride = max(1, len(points) // ORACLE_CENTERS)
    centers = np.arange(0, len(points), stride)[:ORACLE_CENTERS]
    report = wd.alfors_check(big, ALPHA_SG, max_centers=ORACLE_CENTERS)
    for row in report.rows:
        ratios = checks.brute_ball_counts(points, centers, row.r) / len(points) / row.r ** ALPHA_SG
        what = f"regularity ratios at r={row.r}"
        checks.close(row.ratio_min, float(ratios.min()), 1e-12, what + " (min)")
        checks.close(row.ratio_max, float(ratios.max()), 1e-12, what + " (max)")
        checks.close(row.ratio_mean, float(ratios.mean()), 1e-12, what + " (mean)")


ORACLES = {"graph-estimators": graph_oracle, "measure-sample": measure_oracle}
