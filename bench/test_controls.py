"""Negative controls: each workload's checker accepts the program's real
output and rejects the same output with one small defect planted.

Run from the root of a checkout:  python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import cli_workload as cw  # noqa: E402
import ops  # noqa: E402
import workloads  # noqa: E402
from kp_rankone import TauEvaluator, TimeVector, residual_of_sum  # noqa: E402


def _small_plan(make, keep):
    """The seed-0 plan cut down to the inputs whose spec passes ``keep``."""
    plan, triples = make(0, ops.build_input)
    wanted = {i for i, spec in enumerate(plan["inputs"]) if keep(spec)}
    kept = [(i, op) for i, op in enumerate(plan["ops"]) if op["input"] in wanted]
    index = {old: new for new, (old, _) in enumerate(kept)}
    small = []
    for _, op in kept:
        op = dict(op)
        if "line_op" in op:
            op["line_op"] = index[op["line_op"]]
        small.append(op)
    return {"inputs": plan["inputs"], "ops": small}, triples


@pytest.fixture(scope="module")
def field():
    plan, triples = _small_plan(workloads.field_grid_plan, lambda s: s.get("N", 0) <= 6)
    refs = workloads.references(plan, triples)
    outs = [ops.run_op(op, triples) for op in plan["ops"]]
    return plan, triples, refs, outs


@pytest.fixture(scope="module")
def lattice():
    plan, triples = _small_plan(workloads.lattice_plan, lambda s: s["N"] == 6 and s["seed"] != 1)
    refs = workloads.references(plan, triples)
    outs = [ops.run_op(op, triples) for op in plan["ops"]]
    return plan, triples, refs, outs


def _cases(data, kind):
    plan, _, refs, outs = data
    return [(op, out, r) for op, out, r in zip(plan["ops"], outs, refs) if op["op"] == kind]


def test_real_outputs_pass(field, lattice):
    for plan, _, refs, outs in (field, lattice):
        for op, out, r in zip(plan["ops"], outs, refs):
            assert checks.check(op, out, r)[0], op


def test_u_off_by_1e6_relative_is_rejected(field):
    for op, out, r in _cases(field, "u_line"):
        big = max(range(len(r)), key=lambda i: abs(r[i]["u"]))
        bad = copy.deepcopy(out)
        bad["u"][big] = [v * (1 + 1e-6) for v in bad["u"][big]]
        assert not checks.check(op, bad, r)[0]
        bad = copy.deepcopy(out)
        bad["pole"][0] = True
        assert not checks.check(op, bad, r)[0]


def test_kp_defects_are_rejected(field):
    for op, out, r in _cases(field, "kp"):
        bad = copy.deepcopy(out)
        bad["L1"] = [v * (1 + 1e-8) for v in bad["L1"]]
        assert not checks.check(op, bad, r)[0]
        bad = copy.deepcopy(out)
        bad["L11"][0] += 1e-6 * r["u_scale"] / 2  # u = 2 L11 off by 1e-6 of the line's |u|
        assert not checks.check(op, bad, r)[0]
        assert not checks.check(op, dict(out, residual=2e-4), r)[0]


def test_hbde_with_a_flipped_sign_is_rejected(lattice):
    plan, triples, refs, _ = lattice
    for op, out, r in _cases(lattice, "hbde"):
        c1, c2, c3 = (complex(*c) for c in op["c"])
        l, m, n = op["site"]
        ev = TauEvaluator(triples[op["input"]], TimeVector([complex(*p) for p in op["t"]]))
        T = lambda a, b, k: ev.tau_miwa(((c1, l + a), (c2, m + b), (c3, n + k)))  # noqa: E731
        terms = [T(1, 0, 0) * T(0, 1, 1) * (c2 - c3),
                 T(0, 1, 0) * T(1, 0, 1) * (-(c1 - c3)),
                 T(0, 0, 1) * T(1, 1, 0) * (c1 - c2)]
        assert checks.check(op, {"residual": residual_of_sum(terms), "passed": True}, r)[0]
        terms[1] = -terms[1]
        flipped = residual_of_sum(terms)
        assert not checks.check(op, {"residual": flipped, "passed": flipped <= 1e-8}, r)[0]


@pytest.mark.parametrize("kind,keys", [("poly", ("leading",)), ("psi", ("time", "dual")),
                                       ("discrete", ("miwa", "discrete"))])
def test_lattice_values_off_by_1e6_are_rejected(lattice, kind, keys):
    for op, out, r in _cases(lattice, kind):
        for key in keys:
            bad = copy.deepcopy(out)
            bad[key][0] += 1e-6  # log magnitude: |w| off by 1e-6 relative
            assert not checks.check(op, bad, r)[0], key


def _run_cli(op, out_dir):
    scenario = ROOT / "scenarios" / f"{op['fixture']}.json"
    argv = [sys.executable, "-m", "kp_rankone.cli", op["command"], str(scenario), "--out", str(out_dir), *op["args"]]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(argv, env=env, capture_output=True, timeout=60).returncode


@pytest.mark.parametrize("command,fixture", [("u-grid", "one_soliton"), ("tau-grid", "intertwining_pair"),
                                             ("psi-grid", "general_block")])
def test_cli_altered_csv_value_is_rejected(tmp_path, command, fixture):
    op = next(o for o in cw.plan(0) if (o["command"], o["fixture"]) == (command, fixture))
    fixtures = {fixture: cw.load_fixture(ROOT / "scenarios" / f"{fixture}.json")}
    code = _run_cli(op, tmp_path)
    assert cw.check(op, tmp_path, fixtures, code)[0]
    path = tmp_path / f"{command}.csv"
    lines = path.read_text().splitlines()
    fields = lines[20].split(",")
    re_col = lines[0].split(",").index("re")
    fields[re_col] = repr(float(fields[re_col]) * (1 + 1e-6))
    lines[20] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    assert not cw.check(op, tmp_path, fixtures, code)[0]


def test_cli_altered_report_is_rejected(tmp_path):
    op = next(o for o in cw.plan(0) if o["command"] == "crosscheck" and o["fixture"] == "wilson_point")
    fixtures = {"wilson_point": cw.load_fixture(ROOT / "scenarios" / "wilson_point.json")}
    code = _run_cli(op, tmp_path)
    assert cw.check(op, tmp_path, fixtures, code)[0]
    path = tmp_path / "crosscheck.json"
    path.write_text(path.read_text().replace("1.0986122886681098", "1.0986123886681098"))
    assert not cw.check(op, tmp_path, fixtures, code)[0]


def test_known_faults_fail():
    plan, triples = workloads.lattice_plan(0, ops.build_input)
    for op in plan["ops"]:
        if op.get("expect_fail"):
            assert not checks.check(op, ops.run_op(op, triples), None)[0]
    wilson = next(o for o in cw.plan(0) if o["expect_fail"])
    assert (wilson["command"], wilson["fixture"]) == ("verify-kp", "wilson_point")
