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
from walkdim.cli import main


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
        rc, payload = run(capsys, "besov-fit", "sg", "-m", "4")
        assert rc == 1
        assert payload["error"] == "fit"
        assert "(-m)" in payload["detail"]
        assert "(--r-min)" in payload["detail"]


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


class TestErrorPaths:
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
import contextlib, io, sys
import walkdim, walkdim.cli
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert walkdim.cli.main(line.split()) == 0, line
loaded = sorted({"numpy", "scipy"} & set(sys.modules))
assert not loaded, f"exact commands loaded {loaded}"
with contextlib.redirect_stdout(io.StringIO()):
    assert walkdim.cli.main(["besov-fit", "sg", "-m", "5"]) == 0
assert "scipy.spatial" in sys.modules
"""


def test_exact_commands_load_no_numpy_or_scipy():
    """Exact commands start without numpy and scipy; a float estimator
    still imports them on first use.  A fresh interpreter, since this
    one has them loaded already."""
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NO_FLOAT_STACK, *EXACT_COMMANDS],
        cwd=root,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "argv, golden",
    [
        ("besov-fit sg --sample 4000 --function x --seed 7", "besov_fit_sg_sample4000_x_seed7.out"),
        ("graph sg -m 3", "graph_sg_m3.out"),
        ("harmonic bench/hook.json -m 3", "harmonic_hook_m3.out"),
    ],
)
def test_stdout_matches_golden(capsys, monkeypatch, argv, golden):
    """Sampling and graph building reproduce the Fraction-by-Fraction
    route's stdout byte for byte."""
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
