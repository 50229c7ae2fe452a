"""End-to-end CLI behaviour: parsing, outputs, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import mp_psi
from kp_rankone import cases, triple as triple_mod
from kp_rankone.cli import Scenario, load_scenario, main, run_command, save_scenario
from kp_rankone.errors import ScenarioError
from kp_rankone.tau import TimeVector

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


WORKHORSE = {
    "kind": "general",
    "matrices": {
        "A": {"rows": 1, "cols": 2, "data": [[[1.0, 0.0], [1.0, 0.0]]]},
        "B": {"rows": 2, "cols": 2, "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
        "C": {"rows": 1, "cols": 2, "data": [[[1.0, 0.0], [1.0, 0.0]]]},
    },
    "times": [[0.3, 0.0]],
    "options": {},
}


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------


def test_load_scenario_fixture_files():
    for name in (
        "one_soliton",
        "wilson_point",
        "two_soliton",
        "intertwining_pair",
        "general_block",
    ):
        s = load_scenario(SCENARIOS / f"{name}.json")
        tr = s.build_triple()
        assert tr.N > tr.n


def test_round_trip(tmp_path):
    s = load_scenario(SCENARIOS / "two_soliton.json")
    out = tmp_path / "copy.json"
    save_scenario(s, out)
    s2 = load_scenario(out)
    assert s2.kind == s.kind
    for key in s.matrices:
        assert np.array_equal(s2.matrices[key], s.matrices[key])
    assert np.array_equal(s2.times.values, s.times.values)


def test_parse_error_reports_field(tmp_path):
    doc = dict(WORKHORSE, kind="nope")
    with pytest.raises(ScenarioError, match="kind"):
        load_scenario(write_json(tmp_path / "s.json", doc))


def test_parse_error_missing_matrix(tmp_path):
    doc = {"kind": "general", "matrices": {"A": WORKHORSE["matrices"]["A"]}}
    with pytest.raises(ScenarioError, match="matrices.B"):
        load_scenario(write_json(tmp_path / "s.json", doc))


def test_parse_error_bad_entry_position(tmp_path):
    doc = json.loads(json.dumps(WORKHORSE))
    doc["matrices"]["B"]["data"][1][0] = "oops"
    with pytest.raises(ScenarioError, match=r"matrices.B.data\[1\]\[0\]"):
        load_scenario(write_json(tmp_path / "s.json", doc))


def test_parse_error_row_count(tmp_path):
    doc = json.loads(json.dumps(WORKHORSE))
    doc["matrices"]["A"]["rows"] = 3
    with pytest.raises(ScenarioError, match="matrices.A"):
        load_scenario(write_json(tmp_path / "s.json", doc))


def test_parse_error_bad_json_line_info(tmp_path):
    p = tmp_path / "s.json"
    p.write_text('{\n  "kind": general\n}')
    with pytest.raises(ScenarioError, match="line 2"):
        load_scenario(p)


def test_times_default_and_K_padding(tmp_path):
    doc = json.loads(json.dumps(WORKHORSE))
    del doc["times"]
    doc["options"] = {"K": 5}
    s = load_scenario(write_json(tmp_path / "s.json", doc))
    assert s.times.K == 5
    assert np.all(s.times.values == 0)


def test_real_scalar_times_accepted(tmp_path):
    doc = json.loads(json.dumps(WORKHORSE))
    doc["times"] = [0.5, [0.25, 0.0]]
    s = load_scenario(write_json(tmp_path / "s.json", doc))
    assert s.times.entry(1) == 0.5
    assert s.times.entry(2) == 0.25


# ---------------------------------------------------------------------------
# commands, outputs, exit codes
# ---------------------------------------------------------------------------


def test_validate_pass(tmp_path):
    rc = main(["validate", str(SCENARIOS / "one_soliton.json"), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "validate.json").read_text())
    assert doc["admissible"] is True
    assert doc["report"]["rank_of_ABUt"] <= 1


def test_validate_inadmissible_exit_1(tmp_path):
    doc = json.loads(json.dumps(WORKHORSE))
    # C orthogonal to A at t=0 breaks the pairing condition
    doc["matrices"]["C"]["data"] = [[[1.0, 0.0], [-1.0, 0.0]]]
    path = write_json(tmp_path / "s.json", doc)
    rc = main(["validate", path, "--out", str(tmp_path)])
    assert rc == 1
    out = json.loads((tmp_path / "validate.json").read_text())
    assert out["admissible"] is False


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate", "x.json"])
    assert err.value.code == 2


def test_missing_file_exits_2(tmp_path):
    rc = main(["validate", str(tmp_path / "absent.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_tau_grid_csv(tmp_path):
    rc = main(
        [
            "tau-grid",
            str(SCENARIOS / "one_soliton.json"),
            "--out",
            str(tmp_path),
            "--t1=0:1:3",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "tau-grid.csv").read_text().strip().splitlines()
    assert lines[0] == "t1,re,im,log_magnitude,pole"
    assert len(lines) == 4
    # tau = 2 cosh(t1) for the unit reflection pair
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(2.0, rel=1e-12)


def test_tau_grid_flags_exact_zero_as_pole(tmp_path):
    # the Wilson point has tau = t1 + 3 exactly; u-grid flags t1 = -3 too
    rc = main(
        [
            "tau-grid",
            str(SCENARIOS / "wilson_point.json"),
            "--out",
            str(tmp_path),
            "--t1=-4:2:61",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "tau-grid.csv").read_text().strip().splitlines()
    poles = []
    for line in lines[1:]:
        t1, re, im, lm, pole = line.split(",")
        if pole == "1":
            poles.append(float(t1))
            assert float(re) == 0.0 and lm == "-inf"
        else:
            assert float(re) == pytest.approx(float(t1) + 3.0, rel=1e-14)
            assert abs(float(im)) < 1e-15
    assert poles == [-3.0]


def test_u_grid_matches_rational_form(tmp_path):
    rc = main(
        [
            "u-grid",
            str(SCENARIOS / "wilson_point.json"),
            "--out",
            str(tmp_path),
            "--t1=-4:0:9",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "u-grid.csv").read_text().strip().splitlines()
    assert lines[0] == "t1,re,im,log_magnitude,pole"
    poles = 0
    for line in lines[1:]:
        t1, re, im, lm, pole = line.split(",")
        if pole == "1":
            poles += 1
            assert float(t1) == pytest.approx(-3.0)
            assert math.isnan(float(re))
        else:
            want = -2.0 / (float(t1) + 3.0) ** 2
            assert float(re) == pytest.approx(want, rel=1e-8)
    assert poles == 1


def test_psi_grid_rejects_zero_z(tmp_path):
    rc = main(
        [
            "psi-grid",
            str(SCENARIOS / "one_soliton.json"),
            "--out",
            str(tmp_path),
            "--z=-1:1:3",
        ]
    )
    assert rc == 2


def _psi_rows(out_dir):
    lines = (out_dir / "psi-grid.csv").read_text().strip().splitlines()
    assert lines[0] == "t1,z,re,im,log_magnitude,pole"
    return [line.split(",") for line in lines[1:]]


def test_psi_grid_matches_stationary_formula(tmp_path):
    rc = main(["psi-grid", str(SCENARIOS / "general_block.json"), "--out", str(tmp_path)])
    assert rc == 0
    tr = load_scenario(SCENARIOS / "general_block.json").build_triple()
    rows = _psi_rows(tmp_path)
    # default grid: z in 2:4:5 outer, x in -1:1:11 inner
    assert [(float(r[0]), float(r[1])) for r in rows] == [
        (x, z) for z in np.linspace(2, 4, 5) for x in np.linspace(-1, 1, 11)
    ]
    for x, z, re, im, lm, pole in rows:
        want = complex(mp_psi(tr, TimeVector([float(x)]), float(z)))
        assert pole == "0"
        assert abs(complex(float(re), float(im)) - want) <= 1e-12 * abs(want), (x, z)
        assert float(lm) == pytest.approx(math.log(abs(want)), abs=1e-12)


def test_psi_grid_wilson_point_closed_form_and_pole_row(tmp_path):
    # tau = t1 + 3, so psi = (1 - 1 / (z (3 + x))) e^{xz}, with a pole row at x = -3
    rc = main(
        ["psi-grid", str(SCENARIOS / "wilson_point.json"), "--out", str(tmp_path), "--t1=-4:0:5"]
    )
    assert rc == 0
    rows = _psi_rows(tmp_path)
    assert len(rows) == 25
    for x, z, re, im, lm, pole in rows:
        x, z = float(x), float(z)
        if x == -3.0:
            assert pole == "1" and all(math.isnan(float(v)) for v in (re, im, lm))
            continue
        want = (1.0 - 1.0 / (z * (3.0 + x))) * math.exp(x * z)
        assert pole == "0"
        assert abs(complex(float(re), float(im)) - want) <= 1e-14 * abs(want), (x, z)
    assert sum(r[5] == "1" for r in rows) == 5


@pytest.mark.parametrize(
    "command,flag",
    [("tau-grid", "--t1=nan:1:3"), ("u-grid", "--t3=nan:0:2"), ("psi-grid", "--z=inf:4:3")],
)
def test_nonfinite_grid_range_exits_2(tmp_path, capsys, command, flag):
    out = tmp_path / "out"
    rc = main([command, str(SCENARIOS / "one_soliton.json"), "--out", str(out), flag])
    assert rc == 2
    assert f"{flag.split('=')[0]}: start and end must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        ("tau-grid", "--z=1.5:3:4"),
        ("u-grid", "--z=1.5:3:4"),
        ("psi-grid", "--t2=0:1:3"),
        ("psi-grid", "--t3=0:1:3"),
        ("verify-hbde", "--t1=0:1:3"),
        ("verify-kp", "--t2=0:1:3"),
        ("verify-h3", "--t3=0:1:3"),
        ("validate", "--z=2:4:5"),
        ("spectral", "--t1=0:1:3"),
        ("crosscheck", "--z=2:4:5"),
        ("bethe", "--t1=0:1:3"),
    ],
)
def test_grid_flag_a_command_does_not_read_exits_2(tmp_path, capsys, command, flag):
    # each used to be ignored, with exit 0 and the default grid
    fixture = "wilson_point" if command == "bethe" else "two_soliton"
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, str(SCENARIOS / f"{fixture}.json"), "--out", str(out), flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not out.exists()


def test_nonfinite_options_grid_exits_2(tmp_path, capsys):
    path = write_json(tmp_path / "s.json", dict(WORKHORSE, options={"grids": {"t2": "0:inf:3"}}))
    rc = main(["u-grid", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "options.grids.t2: start and end must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "where, value, field",
    [
        (("matrices", "A", "rows"), True, "matrices.A: rows/cols"),
        (("options", "K"), True, "options.K"),
        (("times",), [True], r"times\[0\]"),
        (("matrices", "B", "data", 0, 0), [True, False], r"matrices.B.data\[0\]\[0\]"),
    ],
    ids=["rows", "K", "times", "entry"],
)
def test_json_booleans_are_not_numbers(tmp_path, capsys, where, value, field):
    # Python counts True as the int 1; a scenario file must not
    doc = json.loads(json.dumps(WORKHORSE))
    parent = doc
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    path = write_json(tmp_path / "s.json", doc)
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)
    assert main(["validate", path, "--out", str(tmp_path / "out")]) == 2
    assert "scenario error" in capsys.readouterr().err


def test_nonfinite_scenario_time_exits_2(tmp_path, capsys):
    # Python's json reads NaN; the scenario loader must not pass it on
    path = write_json(tmp_path / "s.json", dict(WORKHORSE, times=[[math.nan, 0.0]]))
    with pytest.raises(ScenarioError, match=r"times\[0\]: must be finite"):
        load_scenario(path)
    rc = main(["tau-grid", path, "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "times[0]" in capsys.readouterr().err


def test_verify_hbde_report_shape(tmp_path):
    rc = main(
        [
            "verify-hbde",
            str(SCENARIOS / "general_block.json"),
            "--out",
            str(tmp_path),
            "--trials",
            "4",
            "--seed",
            "7",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "verify-hbde.json").read_text())
    assert doc["all_pass"] is True
    assert len(doc["reports"]) == 4
    for rep in doc["reports"]:
        assert rep["pass"] is True
        assert rep["residual"] <= rep["tolerance"]


def test_verify_hbde_takes_one_eigendecomposition(tmp_path, monkeypatch):
    # the 20 default trials draw their lattice parameters from eig(B) of one triple
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
    rc = main(["verify-hbde", str(SCENARIOS / "general_block.json"), "--out", str(tmp_path)])
    assert rc == 0
    assert len(json.loads((tmp_path / "verify-hbde.json").read_text())["reports"]) == 20
    assert len(calls) <= 1


@pytest.mark.parametrize("command", ["verify-hbde", "verify-kp", "verify-h3"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_nonpositive_trials_exits_2(tmp_path, capsys, command, trials):
    # zero trials used to write "all_pass": true with no reports (verify-kp ran one)
    rc = main([command, str(SCENARIOS / "two_soliton.json"), "--out", str(tmp_path), "--trials", trials])
    assert rc == 2
    assert "--trials: expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize(
    "fixture,command,options,extra,env,field",
    [
        ("two_soliton", "verify-hbde", {"tol": "abc"}, [], None, "options.tol"),
        ("two_soliton", "verify-hbde", {"tol": -1.0}, [], None, "options.tol"),
        ("two_soliton", "verify-hbde", {"seed": "x"}, [], None, "options.seed"),
        ("two_soliton", "tau-grid", {"grids": [1]}, [], None, "options.grids"),
        ("two_soliton", "psi-grid", {"grids": {"z": 5}}, [], None, "options.grids.z"),
        ("wilson_point", "bethe", {"m": "abc"}, [], None, "options.m"),
        ("two_soliton", "verify-hbde", {}, ["--tol", "nan"], None, "--tol"),
        ("two_soliton", "verify-hbde", {}, ["--tol", "-1"], None, "--tol"),
        ("two_soliton", "verify-hbde", {}, ["--seed", "-1"], None, "--seed"),
        ("two_soliton", "verify-kp", {}, [], "nan", "KP_RANKONE_TOL"),
    ],
    ids=["tol-abc", "tol-negative", "seed-x", "grids-list", "grid-number", "m-abc",
         "flag-tol-nan", "flag-tol-negative", "flag-seed-negative", "env-tol-nan"],
)
def test_malformed_options_exit_2(
    tmp_path, capsys, monkeypatch, fixture, command, options, extra, env, field
):
    # each used to end in a traceback (exit 1) or in reports that all fail
    doc = json.loads((SCENARIOS / f"{fixture}.json").read_text())
    doc["options"].update(options)
    if env is not None:
        monkeypatch.setenv("KP_RANKONE_TOL", env)
    out = tmp_path / "out"
    path = write_json(tmp_path / "s.json", doc)
    rc = main([command, path, "--out", str(out), "--trials", "1"] + extra)
    assert rc == 2
    assert f"scenario error: {field}: expected" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("K", ["0", "-2"])
def test_nonpositive_K_exits_2(tmp_path, capsys, K):
    rc = main(["tau-grid", str(SCENARIOS / "one_soliton.json"), "--out", str(tmp_path), "--K", K])
    assert rc == 2
    assert "--K: expected a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "tau-grid.csv").exists()


def test_crosscheck_dispatch(tmp_path):
    for name, want in (
        ("wilson_point", 0),
        ("intertwining_pair", 0),
        ("two_soliton", 0),
        ("general_block", 2),  # no closed form to compare against
    ):
        rc = main(
            ["crosscheck", str(SCENARIOS / f"{name}.json"), "--out", str(tmp_path)]
        )
        assert rc == want, name


def test_bethe_requires_pole_collision_kind(tmp_path):
    rc = main(["bethe", str(SCENARIOS / "one_soliton.json"), "--out", str(tmp_path)])
    assert rc == 2
    rc = main(
        ["bethe", str(SCENARIOS / "wilson_point.json"), "--out", str(tmp_path), "--seed", "3"]
    )
    assert rc == 0


def test_bethe_draw_near_spectrum_exits_2(tmp_path, monkeypatch):
    # every draw lands on the spectrum {0} of the Wilson point's Z
    class StuckGenerator:
        def random(self):
            return 0.5

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: StuckGenerator())
    rc = main(["bethe", str(SCENARIOS / "wilson_point.json"), "--out", str(tmp_path)])
    assert rc == 2


def test_verify_hbde_failed_parameter_draw_exits_2(tmp_path, monkeypatch):
    # every candidate repeats the first one, so no three distinct parameters exist
    class StuckGenerator:
        def random(self):
            return 0.5

    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: StuckGenerator())
    rc = main(["verify-hbde", str(SCENARIOS / "one_soliton.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "verify-hbde.json").exists()


def test_verify_kp_wilson_point_trials(tmp_path):
    # tau = t1 + 3: the seven tau products of the identity all vanish
    rc = main(
        ["verify-kp", str(SCENARIOS / "wilson_point.json"), "--trials", "3", "--out", str(tmp_path)]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "verify-kp.json").read_text())
    assert len(doc["reports"]) == 3 and doc["all_pass"]


def test_spectral_output(tmp_path):
    rc = main(["spectral", str(SCENARIOS / "two_soliton.json"), "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "spectral.json").read_text())
    assert doc["char_poly_degree"] == 4
    vals = sorted(round(p["value"][0], 6) for p in doc["points"])
    assert vals == [-3.0, -1.0, 1.0, 3.0]


def test_verify_kp_and_h3(tmp_path):
    rc = main(
        ["verify-kp", str(SCENARIOS / "two_soliton.json"), "--out", str(tmp_path)]
    )
    assert rc == 0
    rc = main(
        [
            "verify-h3",
            str(SCENARIOS / "general_block.json"),
            "--out",
            str(tmp_path),
            "--trials",
            "8",
        ]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "verify-h3.json").read_text())
    assert doc["all_pass"] is True


# ---------------------------------------------------------------------------
# determinism and tolerance plumbing
# ---------------------------------------------------------------------------


def test_double_run_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = main(
            [
                "verify-hbde",
                str(SCENARIOS / "general_block.json"),
                "--out",
                str(out),
                "--trials",
                "6",
                "--seed",
                "11",
            ]
        )
        assert rc == 0
    assert (a / "verify-hbde.json").read_bytes() == (b / "verify-hbde.json").read_bytes()


def test_grid_double_run_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        main(
            [
                "u-grid",
                str(SCENARIOS / "one_soliton.json"),
                "--out",
                str(out),
                "--t1=-2:2:17",
            ]
        )
    assert (a / "u-grid.csv").read_bytes() == (b / "u-grid.csv").read_bytes()


def test_env_tolerance_applies(tmp_path, monkeypatch):
    monkeypatch.setenv("KP_RANKONE_TOL", "1e-30")
    rc = main(
        [
            "verify-hbde",
            str(SCENARIOS / "general_block.json"),
            "--out",
            str(tmp_path),
            "--trials",
            "2",
        ]
    )
    assert rc == 1  # nothing passes at an impossible tolerance
    doc = json.loads((tmp_path / "verify-hbde.json").read_text())
    assert doc["all_pass"] is False  # but the report is still written


def test_flag_overrides_env(tmp_path, monkeypatch):
    monkeypatch.setenv("KP_RANKONE_TOL", "1e-30")
    rc = main(
        [
            "verify-hbde",
            str(SCENARIOS / "general_block.json"),
            "--out",
            str(tmp_path),
            "--trials",
            "2",
            "--tol",
            "1e-8",
        ]
    )
    assert rc == 0


@pytest.mark.parametrize(
    "options, field",
    [({"tol": "abc"}, "options.tol"), ({"tol": math.nan}, "options.tol"), ({"seed": -3}, "options.seed")],
    ids=["tol-text", "tol-nan", "seed-negative"],
)
def test_run_command_checks_the_options_of_a_scenario_built_in_code(tmp_path, options, field):
    # the checks of load_scenario hold for a Scenario that no file went through:
    # it refuses its options when made, before any command can run
    loaded = load_scenario(SCENARIOS / "general_block.json")
    args = argparse.Namespace(seed=None, trials=2, tol=None, K=None)
    with pytest.raises(ScenarioError, match=field):
        scenario = Scenario(loaded.kind, loaded.matrices, loaded.times, options)
        run_command("verify-hbde", scenario, args, tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "options, field",
    [
        ({"tols": 1e-300}, "options.tols: unknown key"),
        ({"K": 5, "Seed": 1}, "options.Seed: unknown key"),
        ({"grids": {"T1": "0:1:3"}}, "options.grids.T1: unknown key"),
        ({"grids": {"x": "0:1:3"}}, "options.grids.x: unknown key"),
        ({"eta": "abc"}, "options.eta: expected a complex number"),
    ],
    ids=["tols", "Seed", "grid-T1", "grid-x", "eta-text"],
)
def test_unknown_option_keys_exit_2(tmp_path, capsys, options, field):
    # a typo used to be ignored: "tols" ran at the default tolerance, "T1" on
    # the default grid, and both exited 0
    path = write_json(tmp_path / "s.json", dict(WORKHORSE, options=options))
    with pytest.raises(ScenarioError, match=field):
        load_scenario(path)
    out = tmp_path / "out"
    for command in ("verify-hbde", "tau-grid"):
        assert main([command, path, "--out", str(out), "--trials", "1"]) == 2
        assert f"scenario error: {field}" in capsys.readouterr().err
    assert not out.exists()


def test_every_option_key_a_command_reads_is_accepted(tmp_path):
    grids = {"t1": "0:1:2", "t2": "0:1:2", "t3": "0:0:1", "z": "2:3:2"}
    options = {"K": 4, "tol": 1e-6, "seed": 2, "m": 1, "grids": grids,
               "eta": [0.9, 0.1], "lambda1": 1.5, "lambda2": [-1.5, 0.5]}
    s = load_scenario(write_json(tmp_path / "s.json", dict(WORKHORSE, options=options)))
    assert s.options == options and s.times.K == 4


def _code_built(**changes):
    loaded = load_scenario(SCENARIOS / "general_block.json")
    fields = dict(kind=loaded.kind, matrices=loaded.matrices, times=loaded.times, options={})
    return Scenario(**dict(fields, **changes))


def test_scenario_is_frozen():
    s = _code_built()
    for name, value in (("options", {"tol": -1.0}), ("kind", "nope"), ("times", None)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(s, name, value)


def test_replace_checks_the_options_again():
    s = _code_built(options={"seed": 3})
    assert dataclasses.replace(s, options={"seed": 4}).options == {"seed": 4}
    with pytest.raises(ScenarioError, match="options.seed"):
        dataclasses.replace(s, options={"seed": -1})
    with pytest.raises(ScenarioError, match="options.tols: unknown key"):
        dataclasses.replace(s, options={"tols": 1e-3})
    with pytest.raises(ScenarioError, match="kind"):
        dataclasses.replace(s, kind="nope")


@pytest.mark.parametrize("kind", ["nope", None, ["general"]])
def test_scenario_built_in_code_with_an_unknown_kind_raises(kind):
    with pytest.raises(ScenarioError, match="kind: expected one of"):
        _code_built(kind=kind)


@pytest.mark.parametrize(
    "fixture, kind, data_class, builder",
    [
        ("general_block", "general", None, "make_triple"),
        ("intertwining_pair", "intertwining", cases.IntertwiningData, "from_intertwining"),
        ("wilson_point", "calogero_moser", cases.CalogeroMoserData, "from_calogero_moser"),
        ("two_soliton", "kdv_pair", cases.KdVPairData, "from_kdv_pair"),
    ],
)
def test_each_kind_builds_through_the_table(monkeypatch, fixture, kind, data_class, builder):
    # a kind's case data and triple come from its table entry, which looks
    # its builder up on the module when called (so a tracer's wrapper sees it)
    s = load_scenario(SCENARIOS / f"{fixture}.json")
    assert s.kind == kind
    data = s.case_data()
    if data_class is None:
        assert data is None
    else:
        assert type(data) is data_class
        for name in set(s.matrices) & {"X", "Y", "Z"}:
            assert np.array_equal(getattr(data, name), s.matrices[name])
    module = triple_mod if data_class is None else cases
    original, made = getattr(module, builder), []

    def spy(*a, **k):
        made.append((a, original(*a, **k)))
        return made[-1][1]

    monkeypatch.setattr(module, builder, spy)
    tr = s.build_triple()
    [(args, result)] = made
    assert tr is result
    if data_class is not None:
        assert type(args[0]) is data_class


def test_module_invocation():
    # the installed entry point and python -m route share main()
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "kp_rankone.cli",
            "validate",
            str(SCENARIOS / "one_soliton.json"),
            "--out",
            "/tmp/kp_cli_module_test",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
