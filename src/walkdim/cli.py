"""Command-line front end.

Loads systems (preset names or JSON config paths), dispatches to the
library, prints a JSON summary to stdout, and optionally writes bulk
data (log-log tables, graph edges, vertex values) to a CSV file for
external plotting.  Exit codes: 0 success, 1 computation error, 2
argument/config error; failures emit {"error": code, "detail": text}.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import audit, besov, dirichlet
from .errors import (
    BudgetExceeded,
    ConvergenceError,
    FitError,
    ReductionError,
    ValidationError,
    WalkdimError,
)
from .ifs import IfsSpec, LatticePoints, load_system, preset_names, validate
from .ifs import sample_measure, sample_numerator_bound
from .levelgraph import build_level_graph, components_after_removal, level_vertex_count
from .network import renorm_factor, walk_dimension
from .rational import format_rational, json_number, parse_rational

DEFAULT_SEED = 42


class _ParseFailure(Exception):
    """Argument/config-stage failure: exit code 2."""


class _Parser(argparse.ArgumentParser):
    # Route argparse's own failures through the JSON error channel.
    def error(self, message):
        raise _ParseFailure(message)


def _load(source: str) -> IfsSpec:
    # filesystem errors propagate: main() maps them to the "file" code
    try:
        return load_system(source)
    except json.JSONDecodeError as exc:
        raise _ParseFailure(f"invalid JSON in {source!r}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise _ParseFailure(f"bad system config {source!r}: {exc}") from exc


def _rational(text: str, what: str) -> Fraction:
    try:
        return parse_rational(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _ParseFailure(f"bad {what} {text!r}: {exc}") from exc


def _rational_list(text: str, what: str) -> list[Fraction]:
    return [_rational(part.strip(), what) for part in text.split(",") if part.strip()]


def _point(text: str) -> tuple[Fraction, Fraction]:
    coords = _rational_list(text, "coordinate")
    if len(coords) != 2:
        raise _ParseFailure(f"point {text!r} needs exactly two coordinates")
    return (coords[0], coords[1])


def _constants(text: str) -> tuple[int, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 3:
        raise _ParseFailure(
            f"constants {text!r} must be map_count,ratio,energy_scale"
        )
    n = _rational(parts[0], "map count")
    if n.denominator != 1:
        raise _ParseFailure(f"map count {parts[0]!r} must be an integer")
    return (
        int(n),
        _rational(parts[1], "contraction ratio"),
        _rational(parts[2], "energy scale"),
    )


def _boundary_values(ifs: IfsSpec, boundary: Optional[str]) -> Sequence[Fraction]:
    """Harmonic boundary values: parsed, one per corner, or by default 1
    at corner 0 and 0 elsewhere."""
    k = len(ifs.boundary)
    if boundary is None:
        return [Fraction(1)] + [Fraction(0)] * (k - 1)
    vals = _rational_list(boundary, "boundary value")
    if len(vals) != k:
        raise _ParseFailure(f"need {k} boundary values, got {len(vals)} (--boundary)")
    return vals


def _coordinate(source: LatticePoints, name: str):
    """The coordinate function x or y, one float per point."""
    return source.float_points()[:, "xy".index(name)]


def _graph_function(ifs: IfsSpec, level: int, name: str, boundary: Optional[str]):
    """Build the level graph and resolve a named test function on it:
    (graph, values), the values per vertex or the harmonic GraphFunction.
    A level past the pair-scan limit is refused before it is built."""
    vals = _boundary_values(ifs, boundary) if name == "harmonic" else None
    besov._check_pair_budget(level_vertex_count(ifs, level), False)
    if vals is not None:
        u = dirichlet.harmonic_extension(ifs, level, vals)
        return u.graph, u
    graph = build_level_graph(ifs, level)
    return graph, _coordinate(graph, name)


# ---------------------------------------------------------------- commands


def _cmd_validate(args):
    ifs = _load(args.system)
    report = validate(ifs)
    payload = {"system": ifs.name, **report.to_json()}
    return payload, None


def _cmd_dim(args):
    ifs = _load(args.system)
    report = walk_dimension(ifs)
    return report.to_json(), None


def _cmd_graph(args):
    ifs = _load(args.system)
    g = build_level_graph(ifs, args.level)
    payload = {
        "system": ifs.name,
        "level": g.level,
        "vertex_count": g.vertex_count,
        "edge_count": g.edge_count,
        "cell_count": len(g.cells),
        "boundary_indices": list(g.boundary_indices()),
    }
    rows = [
        [
            float(g.vertices[u][0]),
            float(g.vertices[u][1]),
            float(g.vertices[v][0]),
            float(g.vertices[v][1]),
        ]
        for u, v in g.edges
    ]
    return payload, (["ux", "uy", "vx", "vy"], rows)


def _cmd_renorm(args):
    ifs = _load(args.system)
    result = renorm_factor(ifs)
    payload = {"system": ifs.name, **result.to_json()}
    return payload, None


def _cmd_harmonic(args):
    ifs = _load(args.system)
    vals = _boundary_values(ifs, args.boundary)
    u = dirichlet.harmonic_extension(ifs, args.level, vals, method=args.method)
    renorm = renorm_factor(ifs)
    raw = dirichlet.graph_energy(u, 1)
    scaled = dirichlet.graph_energy(u, renorm.energy_scale)
    floats = [float(v) for v in u.values]
    payload = {
        "system": ifs.name,
        "level": args.level,
        "boundary_values": [format_rational(v) for v in vals],
        "vertex_count": u.graph.vertex_count,
        "energy_raw": json_number(raw),
        "energy_scale": json_number(renorm.energy_scale),
        "energy_scaled": json_number(scaled),
        "min": min(floats),
        "max": max(floats),
    }
    rows = [
        [float(x), float(y), fv]
        for (x, y), fv in zip(u.graph.vertices, floats)
    ]
    return payload, (["x", "y", "value"], rows)


def _cmd_exit_fit(args):
    ifs = _load(args.system)
    report = dirichlet.exit_time_profile(ifs, args.levels, start=args.start)
    payload = {"system": ifs.name, **report.to_json()}
    rows = [[m, float(t)] for m, t in report.rows]
    return payload, (["level", "expected_steps"], rows)


def _cmd_heat_fit(args):
    ifs = _load(args.system)
    grid = dirichlet.default_time_grid(args.t_min, args.t_max, args.points)
    profile = dirichlet.heat_kernel_diag(ifs, args.level, t_grid=grid)
    payload = {"system": ifs.name, "level": args.level, **profile.to_json()}
    rows = [[t, p] for t, p in zip(profile.times, profile.diag_values)]
    return payload, (["t", "p_diag"], rows)


def _cmd_besov_fit(args):
    ifs = _load(args.system)
    if args.sample is not None:
        if args.function == "harmonic":
            raise _ParseFailure(
                "--sample supports coordinate functions only (x, y)"
            )
        besov._check_pair_budget(args.sample, True)
        besov._check_numerator_bound(sample_numerator_bound(ifs, args.depth), True)
        source = sample_measure(ifs, depth=args.depth, count=args.sample, seed=args.seed)
        u = _coordinate(source, args.function)
    else:
        source, u = _graph_function(ifs, args.level, args.function, args.boundary)
    window = tuple(
        default if edge is None else float(_rational(edge, "window edge"))
        for edge, default in zip((args.r_min, args.r_max), besov.FIT_WINDOW)
    )
    estimate = besov.critical_exponent_fit(source, u, r_window=window)
    payload = {
        "system": ifs.name,
        "function": args.function,
        "seed": args.seed if args.sample is not None else None,
        **estimate.to_json(),
    }
    rows = [[r, v] for r, v in zip(estimate.radii, estimate.values)]
    return payload, (["r", "oscillation"], rows)


def _cmd_pushforward(args):
    ifs = _load(args.system)
    _, u = _graph_function(ifs, args.level, "harmonic", args.boundary)
    transform = besov.LipschitzMap(_rational(args.scale, "scale"), (0, 0))
    report = besov.pushforward_check(transform, ifs, u)
    payload = {"system": ifs.name, "level": args.level, **report.to_json()}
    rows = [[row.r, row.lhs, row.bound, int(row.ok)] for row in report.rows]
    return payload, (["r", "image_oscillation", "bound", "ok"], rows)


def _cmd_cut(args):
    ifs = _load(args.system)
    g = build_level_graph(ifs, args.level)
    removed: list[tuple[Fraction, Fraction]] = []
    if args.remove_interior:
        boundary = set(g.boundary_indices())
        removed.extend(
            v for i, v in enumerate(g.vertices) if i not in boundary
        )
    for text in args.remove or []:
        removed.append(_point(text))
    count = components_after_removal(g, removed)
    payload = {
        "system": ifs.name,
        "level": args.level,
        "removed": [[format_rational(x), format_rational(y)] for x, y in removed],
        "components": count,
    }
    return payload, None


def _cmd_compare(args):
    subjects: list = [_load(s) for s in args.systems or []]
    subjects.extend(_constants(c) for c in args.constants or [])
    if len(subjects) != 2:
        raise _ParseFailure(
            f"compare needs exactly two subjects "
            f"(systems and/or --constants), got {len(subjects)}"
        )
    verdict = audit.audit_pair(subjects[0], subjects[1])
    return verdict.to_json(), None


# ---------------------------------------------------------------- wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="walkdim",
        description=(
            "Dimensions and Lipschitz invariants of gasket-type "
            "self-similar sets (presets: %s)." % ", ".join(preset_names())
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = _Parser(add_help=False)
    out.add_argument("--out", help="write the CSV data table (or JSON summary) to this file")

    p = sub.add_parser("validate", parents=[out], help="run structural checks")
    p.add_argument("system", help="preset name or JSON config path")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser(
        "dim", parents=[out], help="Hausdorff and walk dimension report"
    )
    p.add_argument("system")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser(
        "graph", parents=[out], help="level-m approximation graph"
    )
    p.add_argument("system")
    p.add_argument("-m", "--level", type=int, default=1)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser(
        "renorm", parents=[out], help="energy renormalization factor"
    )
    p.add_argument("system")
    p.set_defaults(func=_cmd_renorm)

    p = sub.add_parser(
        "harmonic", parents=[out], help="energy-minimizing extension"
    )
    p.add_argument("system")
    p.add_argument("-m", "--level", type=int, default=1)
    p.add_argument(
        "--boundary",
        default=None,
        help="comma-separated rational boundary values (default 1 at corner 0, 0 elsewhere)",
    )
    p.add_argument("--method", choices=("recursive", "direct"), default="recursive")
    p.set_defaults(func=_cmd_harmonic)

    p = sub.add_parser(
        "exit-fit", parents=[out], help="mean exit times across levels"
    )
    p.add_argument("system")
    p.add_argument("-m", "--levels", type=int, default=4)
    p.add_argument("--start", type=int, default=0, help="boundary corner index")
    p.set_defaults(func=_cmd_exit_fit)

    p = sub.add_parser(
        "heat-fit", parents=[out], help="on-diagonal heat kernel decay"
    )
    p.add_argument("system")
    p.add_argument("-m", "--level", type=int, default=6)
    p.add_argument("--t-min", type=int, default=10)
    p.add_argument("--t-max", type=int, default=1000)
    p.add_argument("--points", type=int, default=30)
    p.set_defaults(func=_cmd_heat_fit)

    p = sub.add_parser(
        "besov-fit",
        parents=[out],
        help="critical exponent from oscillation scaling",
    )
    p.add_argument("system")
    p.add_argument("-m", "--level", type=int, default=7)
    p.add_argument("--function", choices=("harmonic", "x", "y"), default="harmonic")
    p.add_argument("--boundary", default=None, help="harmonic boundary values")
    p.add_argument("--r-min", help="window lower edge (default from besov.FIT_WINDOW)")
    p.add_argument("--r-max", help="window upper edge (default from besov.FIT_WINDOW)")
    p.add_argument("--sample", type=int, default=None, help="use N measure samples")
    p.add_argument("--depth", type=int, default=10, help="sampling word length")
    p.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="RNG seed for --sample (default 42)"
    )
    p.set_defaults(func=_cmd_besov_fit)

    p = sub.add_parser(
        "pushforward",
        parents=[out],
        help="oscillation invariance under an affine map",
    )
    p.add_argument("system")
    p.add_argument("-m", "--level", type=int, default=6)
    p.add_argument("--scale", default="1/2", help="similarity ratio of the map")
    p.add_argument("--boundary", default=None)
    p.set_defaults(func=_cmd_pushforward)

    p = sub.add_parser(
        "cut", parents=[out], help="components after removing vertices"
    )
    p.add_argument("system")
    p.add_argument("-m", "--level", type=int, default=1)
    p.add_argument(
        "--remove",
        action="append",
        metavar="X,Y",
        help="exact rational point to remove (repeatable)",
    )
    p.add_argument(
        "--remove-interior",
        action="store_true",
        help="remove every non-boundary vertex of the level graph",
    )
    p.set_defaults(func=_cmd_cut)

    p = sub.add_parser(
        "compare", parents=[out], help="pairwise dimension audit"
    )
    p.add_argument(
        "systems",
        nargs="*",
        help="zero, one, or two systems (preset or JSON path)",
    )
    p.add_argument(
        "--constants",
        action="append",
        metavar="N,RHO,LAMBDA",
        help="declared constants subject: map count, ratio, energy scale "
        "(repeatable; appended after positional systems)",
    )
    p.set_defaults(func=_cmd_compare)

    return parser


_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (ValidationError, "validation"),
    (BudgetExceeded, "budget"),
    (ConvergenceError, "convergence"),
    (FitError, "fit"),
    (ReductionError, "reduction"),
    (WalkdimError, "computation"),
    (ArithmeticError, "arithmetic"),
    (ValueError, "value"),
)


def _emit_error(code: str, detail: str) -> None:
    print(json.dumps({"error": code, "detail": detail}, indent=2))


def _write_out(path: str, payload: dict, table) -> None:
    if table is None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return
    header, rows = table
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _ParseFailure as exc:
        _emit_error("usage", str(exc))
        return 2
    try:
        payload, table = args.func(args)
    except _ParseFailure as exc:
        _emit_error("config", str(exc))
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        _emit_error("file", str(exc))
        return 2
    except tuple(cls for cls, _ in _ERROR_CODES) as exc:
        for cls, code in _ERROR_CODES:
            if isinstance(exc, cls):
                _emit_error(code, str(exc))
                return 1
        raise AssertionError("unreachable")
    out = getattr(args, "out", None)
    if out:
        try:
            _write_out(out, payload, table)
        except OSError as exc:
            _emit_error("file", str(exc))
            return 1
    print(json.dumps(payload, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
