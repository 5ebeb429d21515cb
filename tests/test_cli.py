import csv
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import walkdim.cli
import walkdim.dirichlet
from walkdim.besov import critical_exponent_fit
from walkdim.cli import main
from walkdim.ifs import sample_measure
from walkdim.levelgraph import build_level_graph


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


BAD_CONFIG = {
    "name": "bad",
    "maps": [
        {"ratio": "1/2", "translate": ["0", "0"]},
        {"ratio": "1/3", "translate": ["1/2", "0"]},
    ],
    "boundary": [["0", "0"], ["1", "0"]],
}


class TestValidate:
    def test_preset_passes(self, capsys):
        rc, payload = run(capsys, "validate", "sg")
        assert rc == 0
        assert payload["system"] == "sg"
        assert payload["ok"] is True
        assert all(c["passed"] for c in payload["checks"])

    def test_config_file_roundtrip(self, capsys, tmp_path):
        from walkdim.ifs import load_system

        path = tmp_path / "copy.json"
        path.write_text(json.dumps(load_system("sg").to_json()))
        rc, payload = run(capsys, "validate", str(path))
        assert rc == 0
        assert payload["ok"] is True


class TestDimAndRenorm:
    def test_renorm_exact(self, capsys):
        rc, payload = run(capsys, "renorm", "sg")
        assert rc == 0
        assert payload["energy_scale"] == "5/3"
        assert payload["exact"] is True

    def test_dim_beta(self, capsys):
        rc, payload = run(capsys, "dim", "sg")
        assert rc == 0
        assert payload["floats"]["beta"] == pytest.approx(
            math.log(5) / math.log(2), abs=1e-12
        )

    def test_segment_beta_two(self, capsys):
        rc, payload = run(capsys, "dim", "segment")
        assert rc == 0
        assert payload["floats"]["beta"] == pytest.approx(2.0, abs=1e-12)


class TestCompare:
    def test_constants_pair(self, capsys):
        rc, payload = run(
            capsys,
            "compare",
            "--constants", "3,1/2,5/3",
            "--constants", "27,1/8,295/63",
        )
        assert rc == 0
        assert payload["verdict"] == "DISTINCT_BY_BETA"
        assert payload["certificate"]["rendered"] == "875 != 885"

    def test_system_against_constants(self, capsys):
        rc, payload = run(capsys, "compare", "sg", "--constants", "3,1/2,5/3")
        assert rc == 0
        assert payload["verdict"] == "INVARIANTS_EQUAL"

    def test_two_systems(self, capsys):
        rc, payload = run(capsys, "compare", "sg", "segment")
        assert rc == 0
        assert payload["verdict"] == "DISTINCT_BY_ALPHA"

    def test_alpha_separates_inexact_hook(self, capsys, tmp_path, hook):
        # the hook's beta is a float; alpha alone certifies the verdict
        seg3 = {
            "name": "seg3",
            "maps": [
                {"ratio": "1/3", "translate": [f"{i}/3", "0"]} for i in range(3)
            ],
            "boundary": [["0", "0"], ["1", "0"]],
        }
        paths = []
        for name, config in (("hook", hook.to_json()), ("seg3", seg3)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(config))
        rc, payload = run(capsys, "compare", *map(str, paths))
        assert rc == 0
        assert payload["verdict"] == "DISTINCT_BY_ALPHA"
        assert payload["certificate"]["rendered"] == "5 != 3"
        assert payload["beta"][0] is None
        assert payload["beta_comparison"] is None

    def test_wrong_arity(self, capsys):
        rc, payload = run(capsys, "compare", "sg")
        assert rc == 2
        assert payload["error"] == "config"

    def test_malformed_constants(self, capsys):
        rc, payload = run(
            capsys, "compare", "--constants", "3,1/2", "--constants", "3,1/2,5/3"
        )
        assert rc == 2
        assert payload["error"] == "config"


class TestHarmonic:
    def test_default_boundary(self, capsys):
        rc, payload = run(capsys, "harmonic", "sg", "-m", "2")
        assert rc == 0
        assert payload["energy_scale"] == "5/3"
        assert payload["energy_scaled"] == "2"
        assert payload["boundary_values"] == ["1", "0", "0"]

    def test_explicit_boundary(self, capsys):
        rc, payload = run(
            capsys, "harmonic", "sg", "-m", "1", "--boundary", "1,1,1"
        )
        assert rc == 0
        assert payload["energy_raw"] == "0"
        assert payload["min"] == payload["max"] == 1.0

    def test_default_boundary_on_two_point_system(self, capsys):
        rc, payload = run(capsys, "harmonic", "segment", "-m", "2")
        assert rc == 0
        assert payload["boundary_values"] == ["1", "0"]
        assert payload["energy_raw"] == "1/4"
        assert (payload["min"], payload["max"]) == (0.0, 1.0)

    def test_wrong_boundary_count(self, capsys):
        rc, payload = run(capsys, "harmonic", "sg", "--boundary", "1,0")
        assert rc == 2
        assert payload["error"] == "config"

    def test_bad_rational(self, capsys):
        rc, payload = run(capsys, "harmonic", "sg", "--boundary", "1,0,xyz")
        assert rc == 2
        assert payload["error"] == "config"

    def test_recursive_equals_direct_on_hook(self, capsys, tmp_path, hook):
        path = tmp_path / "hook.json"
        path.write_text(json.dumps(hook.to_json()))
        payloads = []
        for method in ("recursive", "direct"):
            rc, payload = run(capsys, "harmonic", str(path), "-m", "2", "--method", method)
            assert rc == 0
            payloads.append(payload)
        assert payloads[0] == payloads[1]


class TestCut:
    def test_three_midpoints_make_three_components(self, capsys):
        rc, payload = run(
            capsys,
            "cut", "sg", "-m", "1",
            "--remove", "1/2,0",
            "--remove", "0,1/2",
            "--remove", "1/2,1/2",
        )
        assert rc == 0
        assert payload["components"] == 3

    def test_remove_interior_flag(self, capsys):
        rc, payload = run(capsys, "cut", "sg", "-m", "1", "--remove-interior")
        assert rc == 0
        assert payload["components"] == 3
        assert len(payload["removed"]) == 3

    def test_no_removal_single_component(self, capsys):
        rc, payload = run(capsys, "cut", "sg", "-m", "2")
        assert rc == 0
        assert payload["components"] == 1

    def test_unknown_point_rejected(self, capsys):
        rc, payload = run(capsys, "cut", "sg", "-m", "1", "--remove", "2/5,2/5")
        assert rc == 1
        assert payload["error"] == "computation"


class TestExitAndHeat:
    def test_exit_fit_segment(self, capsys):
        rc, payload = run(capsys, "exit-fit", "segment", "-m", "3")
        assert rc == 0
        assert payload["expected_steps"][3]["value"] == "64"
        assert payload["beta_hat"] == pytest.approx(2.0, abs=1e-12)

    def test_exit_fit_negative_level(self, capsys):
        rc, payload = run(capsys, "exit-fit", "sg", "-m", "-1")
        assert rc == 1
        assert payload["error"] == "value"

    def test_heat_fit_small(self, capsys):
        rc, payload = run(
            capsys,
            "heat-fit", "sg", "-m", "4", "--t-max", "200", "--points", "12",
        )
        assert rc == 0
        assert payload["fitted_exponent"] < -0.4
        assert payload["plateau"] == pytest.approx(1.0)

    def test_heat_fit_bad_laziness(self, capsys):
        rc, payload = run(capsys, "heat-fit", "sg", "-m", "3", "--laziness", "2")
        assert rc == 1
        assert payload["error"] == "value"


class TestBesovFit:
    def test_sample_deterministic_by_seed(self, capsys):
        args = ("besov-fit", "sg", "--sample", "400", "--depth", "8",
                "--function", "x")
        rc1 = main(list(args))
        out1 = capsys.readouterr().out
        rc2 = main(list(args))
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_seed_changes_estimate(self, capsys):
        base = ("besov-fit", "sg", "--sample", "400", "--depth", "8",
                "--function", "x")
        _, p1 = run(capsys, *base, "--seed", "1")
        _, p2 = run(capsys, *base, "--seed", "2")
        assert p1["seed"] == 1 and p2["seed"] == 2
        assert p1["slope"] != p2["slope"]

    def test_seed_null_without_sample(self, capsys):
        rc, payload = run(capsys, "besov-fit", "sg", "-m", "5", "--seed", "3")
        assert rc == 0
        assert payload["seed"] is None

    def test_sample_budget_refused_before_sampling(self, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("sampled past the pair-scan budget")

        monkeypatch.setattr("walkdim.cli.sample_measure", never)
        rc, payload = run(
            capsys, "besov-fit", "sg", "--sample", "20001", "--function", "x"
        )
        assert rc == 1
        assert payload["error"] == "budget"
        assert "WALKDIM_BUDGET" not in payload["detail"]

    @pytest.mark.parametrize("cloud", [("--sample", "2000"), ("-m", "5")])
    def test_y_coordinate_function(self, capsys, sg, cloud):
        rc, payload = run(capsys, "besov-fit", "sg", *cloud, "--function", "y")
        assert rc == 0
        if cloud[0] == "--sample":
            source, seed = sample_measure(sg, depth=10, count=2000, seed=42), 42
        else:
            source, seed = build_level_graph(sg, 5), None
        fit = critical_exponent_fit(source, [float(p[1]) for p in source.points])
        want = {"system": "sg", "function": "y", "seed": seed, **fit.to_json()}
        assert payload == json.loads(json.dumps(want))

    def test_sample_rejects_harmonic(self, capsys):
        rc, payload = run(capsys, "besov-fit", "sg", "--sample", "100")
        assert rc == 2
        assert payload["error"] == "config"

    def test_graph_harmonic_fit(self, capsys):
        rc, payload = run(capsys, "besov-fit", "sg", "-m", "6")
        assert rc == 0
        assert payload["beta_star"] == pytest.approx(
            math.log(5) / math.log(2), rel=0.05
        )

    def test_window_parsing(self, capsys):
        rc, payload = run(
            capsys,
            "besov-fit", "segment", "-m", "8",
            "--r-min", "1/32", "--r-max", "1/2",
        )
        assert rc == 0
        assert payload["window"] == [1 / 32, 1 / 2]

    def test_low_level_names_its_knobs(self, capsys):
        # all five default radii lie in the window, so only a level adds radii
        rc, payload = run(capsys, "besov-fit", "sg", "-m", "4")
        assert rc == 1
        assert payload["error"] == "fit"
        assert "(-m)" in payload["detail"]
        assert "(--r-min)" not in payload["detail"]

    def test_narrow_window_names_r_min(self, capsys):
        # only 1/2 and 1/4 lie in [1/4, 1/2]; no level adds a radius
        rc, payload = run(capsys, "besov-fit", "sg", "-m", "7", "--r-min", "1/4")
        assert rc == 1
        assert payload["error"] == "fit"
        assert "(--r-min)" in payload["detail"]
        assert "(-m)" not in payload["detail"]


class TestPushforward:
    def test_scaling_by_half(self, capsys):
        rc, payload = run(
            capsys, "pushforward", "sg", "-m", "5", "--scale", "1/2"
        )
        assert rc == 0
        assert payload["scale"] == "1/2"
        assert payload["fits_agree"] is True
        assert all(row["ok"] for row in payload["rows"])

    def test_identity_exact(self, capsys):
        rc, payload = run(capsys, "pushforward", "sg", "-m", "5", "--scale", "1")
        assert rc == 0
        assert payload["exact_invariance"] is True

    def test_translation_changes_nothing(self, capsys):
        # the shift's denominator would put the translated image's
        # numerators past besov.MAX_SCAN_NUMERATOR; the scan never sees it
        argv = ("pushforward", "sg", "-m", "5", "--scale", "1/2")
        assert run(capsys, *argv, "--translate", "1/1000000007,0") == run(capsys, *argv)

    def test_scale_numerator_refusal_names_scale(self, capsys):
        rc, payload = run(capsys, "pushforward", "sg", "-m", "5", "--scale", "1000000007/2")
        assert rc == 1
        assert payload["error"] == "budget"
        assert "--scale" in payload["detail"]
        assert "--translate" not in payload["detail"]


@pytest.mark.parametrize("command", ["besov-fit", "pushforward"])
def test_level_graph_built_once(capsys, monkeypatch, command):
    levels = []
    real = walkdim.cli.build_level_graph

    def counting(ifs, m):
        levels.append(m)
        return real(ifs, m)

    monkeypatch.setattr(walkdim.cli, "build_level_graph", counting)
    monkeypatch.setattr(walkdim.dirichlet, "build_level_graph", counting)
    # the default fit window needs a deeper level; the count is what matters
    main([command, "sg", "-m", "3"])
    capsys.readouterr()
    assert levels.count(3) == 1


def _readme_commands() -> list[str]:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("walkdim ")]


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 12
    for line in commands:
        rc = main(shlex.split(line, comments=True)[1:])
        out = capsys.readouterr().out
        assert rc == 0, f"{line}\n{out}"


# The n = 4 grid gasket on seven of its ten cells: its unit network is
# not renormalization-fixed and the float iteration needs 191 steps.
SLOW_GRID = {
    "name": "slow-grid",
    "maps": [
        {"ratio": "1/4", "translate": [f"{i}/4", f"{j}/4"]}
        for i, j in [(0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 0), (3, 0)]
    ],
    "boundary": [["0", "0"], ["1", "0"], ["0", "1"]],
}


class TestErrorPaths:
    def test_convergence_names_its_knobs(self, capsys, tmp_path):
        path = tmp_path / "slow-grid.json"
        path.write_text(json.dumps(SLOW_GRID))
        rc, payload = run(capsys, "renorm", str(path))
        assert rc == 1
        assert payload["error"] == "convergence"
        assert "--max-iter" in payload["detail"] and "--tol" in payload["detail"]
        rc, payload = run(capsys, "renorm", str(path), "--max-iter", "5000")
        assert rc == 0
        assert payload["exact"] is False
        assert payload["iterations"] == 191

    @pytest.mark.parametrize(
        "where, point, count",
        [
            ("translate", ["1/2"], 1),
            ("boundary", ["1"], 1),
            ("translate", ["1/2", "0", "0"], 3),
        ],
        ids=["translate-1", "boundary-1", "translate-3"],
    )
    def test_malformed_point_is_config_error(self, capsys, tmp_path, where, point, count):
        config = json.loads(json.dumps(SLOW_GRID))
        if where == "translate":
            config["maps"][1]["translate"] = point
        else:
            config["boundary"][1] = point
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(config))
        rc, payload = run(capsys, "validate", str(path))
        assert rc == 2
        assert payload["error"] == "config"
        assert f"a point needs two coordinates, got {count}" in payload["detail"]

    def test_missing_file(self, capsys):
        rc, payload = run(capsys, "dim", "nonexistent.json")
        assert rc == 2
        assert payload["error"] == "file"

    def test_invalid_config_fails_validation(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_CONFIG))
        rc, payload = run(capsys, "dim", str(path))
        assert rc == 1
        assert payload["error"] == "validation"

    def test_unknown_command(self, capsys):
        rc, payload = run(capsys, "frobnicate", "sg")
        assert rc == 2
        assert payload["error"] == "usage"

    def test_seed_only_on_sampling_command(self, capsys):
        rc, payload = run(capsys, "dim", "sg", "--seed", "1")
        assert rc == 2
        assert payload["error"] == "usage"

    def test_unknown_preset(self, capsys):
        rc, payload = run(capsys, "dim", "nosuchpreset")
        assert rc == 2
        assert payload["error"] in ("config", "file")

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WALKDIM_BUDGET", "10")
        rc, payload = run(capsys, "graph", "sg", "-m", "4")
        assert rc == 1
        assert payload["error"] == "budget"
        assert "WALKDIM_BUDGET" in payload["detail"]


class TestOutputFiles:
    def test_csv_table(self, capsys, tmp_path):
        path = tmp_path / "edges.csv"
        rc, payload = run(capsys, "graph", "sg", "-m", "1", "--out", str(path))
        assert rc == 0
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ux", "uy", "vx", "vy"]
        assert len(rows) - 1 == payload["edge_count"] == 9

    def test_json_out(self, capsys, tmp_path):
        path = tmp_path / "renorm.json"
        rc, payload = run(
            capsys, "renorm", "sg", "--out", str(path), "--format", "json"
        )
        assert rc == 0
        assert json.loads(path.read_text()) == payload

    def test_summary_out_without_table(self, capsys, tmp_path):
        # commands with no data table write the JSON summary even in csv
        # mode rather than an empty file
        path = tmp_path / "dim.csv"
        rc, payload = run(capsys, "dim", "sg", "--out", str(path))
        assert rc == 0
        assert json.loads(path.read_text()) == payload

    def test_unwritable_out(self, capsys, tmp_path):
        rc, payload = run(
            capsys, "renorm", "sg", "--out", str(tmp_path / "nodir" / "x.csv")
        )
        assert rc == 1
        assert payload["error"] == "file"


# The exact commands of the benchmark's exact-solve workload, plus graph.
EXACT_COMMANDS = (
    "validate sg",
    "dim sg",
    "dim bench/hook.json",
    "renorm sg",
    "compare --constants 3,1/2,5/3 --constants 27,1/8,295/63",
    "exit-fit sg -m 4",
    "harmonic sg -m 4",
    "cut sg -m 1 --remove-interior",
    "graph sg -m 3",
)

_NO_FLOAT_STACK = """
import contextlib, io, sys, types
import walkdim, walkdim.cli
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert walkdim.cli.main(line.split()) == 0, line
loaded = sorted({"numpy", "scipy"} & set(sys.modules))
assert not loaded, f"exact commands loaded {loaded}"
assert type(sys.modules["walkdim.besov"]) is not types.ModuleType, "exact commands ran besov"
for line in (
    "heat-fit sg -m 5",
    "besov-fit sg -m 5",
    "besov-fit sg --sample 2000 --function x",
    "besov-fit sg --sample 2000 --function y",
    "besov-fit sg -m 5 --function y",
    "pushforward sg -m 5 --scale 1/2",
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert walkdim.cli.main(line.split()) == 0, line
assert "numpy" in sys.modules
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
assert not loaded, f"float estimators loaded {loaded}"
"""


def test_exact_commands_load_no_numpy_or_scipy():
    """Exact commands start without numpy and scipy; the float
    estimators then import numpy and never scipy.  A fresh interpreter,
    since this one has both loaded already."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_FLOAT_STACK, *EXACT_COMMANDS],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


# A layer module has run iff it is no longer the lazy module type.
_LAYERS_RUN = """
import contextlib, io, sys, types
with contextlib.redirect_stdout(io.StringIO()):
    exec(sys.argv[1])
layers = ("audit", "besov", "dirichlet", "errors", "ifs", "levelgraph", "logratio", "network", "rational")
print(*(name for name in layers if type(sys.modules["walkdim." + name]) is types.ModuleType))
"""


def layers_run(code: str, *argv: str) -> set:
    """The walkdim layers that `code` runs in a fresh interpreter."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _LAYERS_RUN, code, *argv],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize("line", EXACT_COMMANDS)
def test_exact_command_runs_only_its_layers(line):
    command = line.split()[0]
    ran = layers_run("import walkdim.cli; assert walkdim.cli.main(sys.argv[2:]) == 0", *line.split())
    assert "besov" not in ran
    assert ("dirichlet" in ran) == (command in ("exit-fit", "harmonic"))
    assert ("audit" in ran) == (command == "compare")


def test_loading_and_composing_runs_no_graph_layers():
    # the set-up a library caller pays before any graph, solve or scan
    ran = layers_run("import walkdim; sg = walkdim.load_system('sg'); walkdim.compose(sg, sg)")
    assert ran.isdisjoint({"network", "levelgraph", "dirichlet", "besov", "audit"})


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        ("besov-fit sg --sample 4000 --function x --seed 7", "besov_fit_sg_sample4000_x_seed7.out"),
        ("graph sg -m 3", "graph_sg_m3.out"),
        ("harmonic bench/hook.json -m 3", "harmonic_hook_m3.out"),
        ("heat-fit sg -m 6", "heat_fit_sg_m6.out"),
        ("besov-fit sg -m 7", "besov_fit_sg_m7.out"),
        ("pushforward sg -m 6 --scale 1/2", "pushforward_sg_m6_scale1_2.out"),
        (
            "compare --constants 3,1/2,5/3 --constants 27,1/8,295/63",
            "compare_constants_3_27.out",
        ),
        (
            "compare --constants 27,1/8,295/63 --constants 81,1/16,1475/189",
            "compare_constants_27_81.out",
        ),
        ("compare sg segment", "compare_sg_segment.out"),
    ],
)
def test_stdout_matches_golden(capsys, monkeypatch, argv, golden):
    """Sampling, graph building and the float estimators keep their
    stdout byte for byte.  Sampling, gluing and the heat kernel still
    print what their earlier routes did (Fraction by Fraction, sparse
    lazy-walk steps).  The two besov-fit files and the pushforward file
    date from the integer ball kernel's einsum sums; they moved from the
    float kernel's bincount sums by at most 1.4e-13 relative, every
    integer, string and key equal.
    The hook harmonic file's two float energy fields date from the
    renormalization step that glues cell matrices cell by cell; they
    moved by at most 8.5e-16 relative.
    The three compare files pin the audit JSON and its certificates:
    the README pair, the pair that reduces by cancellation, and a
    verdict by alpha."""
    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


class TestDeterminism:
    def test_stdout_byte_identical(self, capsys):
        for args in (
            ["dim", "sg"],
            ["renorm", "segment"],
            ["compare", "--constants", "3,1/2,5/3", "--constants",
             "81,1/16,1475/189"],
        ):
            rc1 = main(args)
            out1 = capsys.readouterr().out
            rc2 = main(args)
            out2 = capsys.readouterr().out
            assert rc1 == rc2 == 0
            assert out1 == out2
