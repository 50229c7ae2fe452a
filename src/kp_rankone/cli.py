"""Command line front end: JSON scenarios in, JSON reports and CSV grids out.

A scenario file names one of four kinds of input data and carries the
matrices, a base time vector and options::

    {
      "kind": "kdv_pair",
      "matrices": {"X": {"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]},
                   "Z": {"rows": 1, "cols": 1, "data": [[[1.0, 0.0]]]}},
      "times": [[0.0, 0.0]],
      "options": {"K": 6, "seed": 0}
    }

Complex numbers are serialized strictly as two-element arrays [re, im];
matrices are row-major nested arrays with explicit dimensions. Grid
ranges use the syntax start:end:count, inclusive at both endpoints.

Outputs land in the --out directory as <command>.json or <command>.csv.
Exit codes: 0 when every report passes, 1 when a verification fails
(reports are still written), 2 for usage or scenario errors. Runs are
deterministic: identical scenario, seed and flags give byte-identical
output files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import baker, cases, triple as triple_mod, verify
from .errors import (
    GeometryError,
    InadmissibleTripleError,
    KPRankOneError,
    RangeError,
    ScenarioError,
    SingularShiftError,
)
from .matkernel import ScaledComplex
from .tau import TimeVector, tau_grid, u_field

__all__ = ["Scenario", "load_scenario", "save_scenario", "run_command", "main"]

SCENARIO_KINDS = ("general", "intertwining", "calogero_moser", "kdv_pair")

COMMANDS = (
    "validate",
    "tau-grid",
    "u-grid",
    "psi-grid",
    "verify-hbde",
    "verify-kp",
    "verify-h3",
    "bethe",
    "spectral",
    "crosscheck",
)

_MATRIX_KEYS = {
    "general": ("A", "B", "C"),
    "intertwining": ("X", "Y", "Z"),
    "calogero_moser": ("X", "Z"),
    "kdv_pair": ("X", "Z"),
}

ENV_TOL = "KP_RANKONE_TOL"


@dataclass(eq=False)
class Scenario:
    """Parsed scenario: kind, matrices, base times and options."""

    kind: str
    matrices: Dict[str, np.ndarray]
    times: TimeVector
    options: Dict[str, object] = field(default_factory=dict)

    def case_data(self):
        m = self.matrices
        if self.kind == "intertwining":
            return cases.IntertwiningData(m["X"], m["Y"], m["Z"])
        if self.kind == "calogero_moser":
            return cases.CalogeroMoserData(m["X"], m["Z"])
        if self.kind == "kdv_pair":
            return cases.KdVPairData(m["X"], m["Z"])
        return None

    def build_triple(self) -> triple_mod.RankOneTriple:
        m = self.matrices
        if self.kind == "general":
            return triple_mod.make_triple(m["A"], m["B"], m["C"])
        if self.kind == "intertwining":
            return cases.from_intertwining(self.case_data(), C=m.get("C"))
        if self.kind == "calogero_moser":
            return cases.from_calogero_moser(self.case_data())
        if self.kind == "kdv_pair":
            return cases.from_kdv_pair(self.case_data())
        raise ScenarioError(f"unknown scenario kind {self.kind!r}")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_complex(obj, where: str) -> complex:
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj, 0.0]
    if not all(isinstance(x, (int, float)) for x in parts):
        raise ScenarioError(f"{where}: expected a complex number as [re, im], got {obj!r}")
    if not all(math.isfinite(x) for x in parts):
        raise ScenarioError(f"{where}: must be finite, got {obj!r}")
    return complex(float(parts[0]), float(parts[1]))


def _parse_matrix(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where}: expected an object with rows/cols/data")
    for key in ("rows", "cols", "data"):
        if key not in obj:
            raise ScenarioError(f"{where}: missing field {key!r}")
    rows, cols = obj["rows"], obj["cols"]
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 1 or cols < 1:
        raise ScenarioError(f"{where}: rows/cols must be positive integers")
    data = obj["data"]
    if not isinstance(data, list) or len(data) != rows:
        raise ScenarioError(f"{where}.data: expected {rows} rows")
    out = np.zeros((rows, cols), dtype=np.complex128)
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            raise ScenarioError(f"{where}.data[{i}]: expected {cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _parse_complex(entry, f"{where}.data[{i}][{j}]")
    return out


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError (with line/field positions) on malformed input;
    kind-specific structural errors surface when the triple is built.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ScenarioError(f"{path}: top level must be an object")

    kind = raw.get("kind")
    if kind not in SCENARIO_KINDS:
        raise ScenarioError(
            f"kind: expected one of {SCENARIO_KINDS}, got {kind!r}"
        )
    matrices_raw = raw.get("matrices")
    if not isinstance(matrices_raw, dict):
        raise ScenarioError("matrices: expected an object")
    matrices: Dict[str, np.ndarray] = {}
    for key in _MATRIX_KEYS[kind]:
        if key not in matrices_raw:
            raise ScenarioError(f"matrices.{key}: required for kind {kind!r}")
    for key, val in matrices_raw.items():
        matrices[key] = _parse_matrix(val, f"matrices.{key}")

    times_raw = raw.get("times", [[0.0, 0.0]])
    if not isinstance(times_raw, list) or not times_raw:
        raise ScenarioError("times: expected a nonempty list of complex numbers")
    times = TimeVector(
        np.array(
            [_parse_complex(v, f"times[{i}]") for i, v in enumerate(times_raw)]
        )
    )

    options = raw.get("options", {})
    if not isinstance(options, dict):
        raise ScenarioError("options: expected an object")

    K = options.get("K")
    if K is not None:
        if not isinstance(K, int) or K < 1:
            raise ScenarioError("options.K: expected a positive integer")
        times = times.padded(K)

    return Scenario(kind=kind, matrices=matrices, times=times, options=dict(options))


def _complex_out(w: complex) -> list:
    return [float(w.real), float(w.imag)]


def _matrix_out(M: np.ndarray) -> dict:
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "data": [[_complex_out(complex(v)) for v in row] for row in M],
    }


def save_scenario(s: Scenario, path) -> None:
    """Serialize a scenario; load_scenario(save_scenario(s)) round-trips."""
    doc = {
        "kind": s.kind,
        "matrices": {k: _matrix_out(v) for k, v in sorted(s.matrices.items())},
        "times": [_complex_out(complex(v)) for v in s.times.values],
        "options": s.options,
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _jsonify(obj):
    """Map values to JSON-safe structures; complex becomes [re, im]."""
    if isinstance(obj, ScaledComplex):
        return {"log_magnitude": obj.log_magnitude, "phase": obj.phase}
    if isinstance(obj, (complex, np.complexfloating)):
        return _complex_out(complex(obj))
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _report_doc(rep: verify.VerificationReport) -> dict:
    return {
        "name": rep.name,
        "residual": rep.residual,
        "tolerance": rep.tolerance,
        "pass": rep.passed,
        "context": _jsonify(rep.context),
    }


def _write_reports(out_dir: Path, command: str, reports) -> int:
    """Write <command>.json with every report; exit code 0 when all pass, else 1."""
    doc = {
        "command": command,
        "reports": [_report_doc(r) for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    _write_json(out_dir, command, doc)
    return 0 if doc["all_pass"] else 1


def _write_json(out_dir: Path, command: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"{command}.json"
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def _write_csv(out_dir: Path, command: str, header: Sequence[str], rows) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / f"{command}.csv"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    target.write_text("\n".join(lines) + "\n")
    return target


def _fmt(x: float) -> str:
    return repr(float(x))


def _scaled_fields(v: ScaledComplex) -> List[str]:
    """re, im, log_magnitude columns; nan re/im past double range."""
    try:
        w = v.to_complex()
        re, im = w.real, w.imag
    except RangeError:
        re, im = math.nan, math.nan
    return [_fmt(re), _fmt(im), _fmt(v.log_magnitude)]


def _parse_axis(spec: str, where: str) -> np.ndarray:
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ScenarioError(f"{where}: expected start:end:count, got {spec!r}")
    try:
        start, end, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc
    if count < 1:
        raise ScenarioError(f"{where}: count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(end)):
        raise ScenarioError(f"{where}: start and end must be finite, got {spec!r}")
    return np.linspace(start, end, count)


def _axis_from(args, scenario: Scenario, name: str, default: Optional[str]) -> Optional[np.ndarray]:
    spec, where = getattr(args, name.replace("-", "_"), None), f"--{name}"
    if spec is None:
        spec, where = scenario.options.get("grids", {}).get(name, default), f"options.grids.{name}"
    if spec is None:
        return None
    return _parse_axis(spec, where)


def _default_tol(args, scenario: Scenario, fallback: float) -> float:
    if getattr(args, "tol", None) is not None:
        return float(args.tol)
    env = os.environ.get(ENV_TOL)
    if env:
        try:
            return float(env)
        except ValueError as exc:
            raise ScenarioError(f"{ENV_TOL}: not a number: {env!r}") from exc
    if "tol" in scenario.options:
        return float(scenario.options["tol"])  # type: ignore[arg-type]
    return fallback


def _seed_of(args, scenario: Scenario) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(scenario.options.get("seed", 0))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_validate(scenario: Scenario, args, out_dir: Path) -> int:
    try:
        tr = scenario.build_triple()
        report = triple_mod.validate_triple(tr.A, tr.B, tr.C)
    except InadmissibleTripleError as exc:
        rep = exc.report
        doc = {
            "admissible": False,
            "error": str(exc),
            "report": None if rep is None else _jsonify(vars(rep)),
        }
        _write_json(out_dir, "validate", doc)
        return 1
    doc = {"admissible": bool(report.admissible), "report": _jsonify(vars(report))}
    _write_json(out_dir, "validate", doc)
    return 0 if report.admissible else 1


def _grid_times(scenario: Scenario, args):
    axis1 = _axis_from(args, scenario, "t1", "-2:2:41")
    axis2 = _axis_from(args, scenario, "t2", None)
    axis3 = _axis_from(args, scenario, "t3", None)
    return axis1, axis2, axis3


def _cmd_tau_grid(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    axis1, axis2, axis3 = _grid_times(scenario, args)
    header = _grid_header(axis2, axis3)
    # an exact zero of tau is a pole of u, flagged as u-grid flags it
    rows = [
        [_fmt(v) for v in coords if v is not None]
        + _scaled_fields(val)
        + ["1" if val.is_zero else "0"]
        for coords, val in tau_grid(tr, axis1, axis2, axis3, base=scenario.times)
    ]
    _write_csv(out_dir, "tau-grid", header, rows)
    return 0


def _grid_header(axis2, axis3) -> List[str]:
    header = ["t1"]
    if axis2 is not None:
        header.append("t2")
    if axis3 is not None:
        header.append("t3")
    return header + ["re", "im", "log_magnitude", "pole"]


def _cmd_u_grid(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    axis1, axis2, axis3 = _grid_times(scenario, args)
    samples = u_field(tr, axis1, axis2, axis3, base=scenario.times)
    header = _grid_header(axis2, axis3)
    rows = []
    for s in samples:
        coords = [_fmt(v) for v in (s.t1, s.t2, s.t3) if v is not None]
        if s.is_pole:
            rows.append(coords + [_fmt(math.nan), _fmt(math.nan), _fmt(math.nan), "1"])
        else:
            mag = abs(s.value)
            lm = math.log(mag) if mag > 0 else -math.inf
            rows.append(coords + [_fmt(s.value.real), _fmt(s.value.imag), _fmt(lm), "0"])
    _write_csv(out_dir, "u-grid", header, rows)
    return 0


def _cmd_psi_grid(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    axis_x = _axis_from(args, scenario, "t1", "-1:1:11")
    axis_z = _axis_from(args, scenario, "z", "2:4:5")
    if np.any(axis_z == 0.0):
        raise ScenarioError("--z: the grid must not contain z = 0")
    header = ["t1", "z", "re", "im", "log_magnitude", "pole"]
    rows = [
        [_fmt(s.x.real), _fmt(s.z.real)]
        + ([_fmt(math.nan)] * 3 + ["1"] if s.is_pole else _scaled_fields(s.value) + ["0"])
        for s in baker.psi_grid(tr, axis_x, axis_z)
    ]
    _write_csv(out_dir, "psi-grid", header, rows)
    return 0


def _cmd_verify_hbde(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    tol = _default_tol(args, scenario, verify.DEFAULT_HBDE_TOL)
    trials = int(args.trials) if args.trials is not None else 20
    seed = _seed_of(args, scenario)
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        try:
            c1, c2, c3 = verify.draw_lattice_parameters(rng, tr)
        except GeometryError as exc:
            raise ScenarioError(str(exc)) from exc
        site = rng.integers(0, 2, size=3)
        rep = verify.hbde_residual(
            tr,
            scenario.times,
            c1,
            c2,
            c3,
            l=int(site[0]),
            m=int(site[1]),
            n_index=int(site[2]),
            tol=tol,
        )
        reports.append(rep)
    return _write_reports(out_dir, "verify-hbde", reports)


def _cmd_verify_kp(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    tol = _default_tol(args, scenario, verify.DEFAULT_KP_TOL)
    trials = int(args.trials) if args.trials is not None else 1
    seed = _seed_of(args, scenario)
    reports = [verify.kp_residual(tr, scenario.times, tol=tol)]
    for trial in range(1, trials):
        rng = np.random.default_rng(seed + trial)
        tvals = 0.6 * (rng.random(3) - 0.5) + 0.6j * (rng.random(3) - 0.5)
        reports.append(verify.kp_residual(tr, TimeVector(tvals), tol=tol))
    return _write_reports(out_dir, "verify-kp", reports)


def _cmd_verify_h3(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    tol = _default_tol(args, scenario, verify.DEFAULT_H3_TOL)
    trials = int(args.trials) if args.trials is not None else 50
    seed = _seed_of(args, scenario)
    n = tr.n
    reports = []
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        P = rng.random((n, n)) + 1j * rng.random((n, n))
        a = rng.random((n, 1)) + 1j * rng.random((n, 1))
        b = rng.random((n, 1)) + 1j * rng.random((n, 1))
        cs = 1.0 + 2.0 * rng.random(3) + 1j * (rng.random(3) - 0.5)
        if len({complex(c) for c in cs}) < 3:
            continue
        reports.append(verify.h3_residual(P, a @ b.T, *map(complex, cs), tol=tol))
    return _write_reports(out_dir, "verify-h3", reports)


def _spectral_gap_draw(rng: np.random.Generator, lam: np.ndarray) -> complex:
    """A point of the square |Re|, |Im| <= 2 at least 0.4 from every eigenvalue in lam."""
    for _ in range(100):
        cand = complex(4.0 * (rng.random() - 0.5), 4.0 * (rng.random() - 0.5))
        if not (lam.size and np.min(np.abs(lam - cand)) < 0.4):
            return cand
    raise ScenarioError("could not draw a spectral parameter away from the spectrum of Z")


def _cmd_bethe(scenario: Scenario, args, out_dir: Path) -> int:
    if scenario.kind != "calogero_moser":
        raise ScenarioError("bethe needs a calogero_moser scenario")
    data = scenario.case_data()
    tol = _default_tol(args, scenario, verify.DEFAULT_BETHE_TOL)
    seed = _seed_of(args, scenario)
    rng = np.random.default_rng(seed)
    opts = scenario.options

    def opt_complex(name: str, fallback: complex) -> complex:
        if name in opts:
            return _parse_complex(opts[name], f"options.{name}")
        return fallback

    lam = np.linalg.eigvals(data.Z)
    eta = opt_complex("eta", complex(0.7 + 0.6 * rng.random(), 0.3 * rng.random()))
    lambda1 = opt_complex("lambda1", 0j) if "lambda1" in opts else _spectral_gap_draw(rng, lam)
    lambda2 = opt_complex("lambda2", 0j) if "lambda2" in opts else _spectral_gap_draw(rng, lam)
    m = int(opts.get("m", 1))  # type: ignore[arg-type]
    rep = verify.bethe_check(data, eta, lambda1, lambda2, m=m, tol=tol)
    return _write_reports(out_dir, "bethe", [rep])


def _cmd_spectral(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    support = baker.grassmann_support(tr)
    doc = {
        "command": "spectral",
        "char_poly_degree": support.char_poly_degree,
        "points": [
            {"value": _complex_out(v), "multiplicity": mult}
            for v, mult in support.points
        ],
    }
    _write_json(out_dir, "spectral", doc)
    return 0


def _cmd_crosscheck(scenario: Scenario, args, out_dir: Path) -> int:
    t = scenario.times
    if scenario.kind == "calogero_moser":
        tol = _default_tol(args, scenario, verify.DEFAULT_WILSON_TOL)
        rep = verify.crosscheck_wilson(scenario.case_data(), t, tol=tol)
    elif scenario.kind == "intertwining":
        tol = _default_tol(args, scenario, verify.DEFAULT_INTERTWINING_TOL)
        rep = verify.crosscheck_intertwining(scenario.case_data(), t, tol=tol)
    elif scenario.kind == "kdv_pair":
        tol = _default_tol(args, scenario, verify.DEFAULT_INTERTWINING_TOL)
        rep = verify.crosscheck_intertwining(scenario.case_data().as_intertwining(), t, tol=tol)
    else:
        raise ScenarioError(
            "crosscheck needs a calogero_moser, intertwining or kdv_pair scenario"
        )
    return _write_reports(out_dir, "crosscheck", [rep])


_DISPATCH = {
    "validate": _cmd_validate,
    "tau-grid": _cmd_tau_grid,
    "u-grid": _cmd_u_grid,
    "psi-grid": _cmd_psi_grid,
    "verify-hbde": _cmd_verify_hbde,
    "verify-kp": _cmd_verify_kp,
    "verify-h3": _cmd_verify_h3,
    "bethe": _cmd_bethe,
    "spectral": _cmd_spectral,
    "crosscheck": _cmd_crosscheck,
}


def run_command(command: str, scenario: Scenario, args, out_dir) -> int:
    """Execute one command against a parsed scenario; returns the exit code."""
    if command not in _DISPATCH:
        raise ScenarioError(f"unknown command {command!r}")
    for flag in ("trials", "K"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ScenarioError(f"--{flag}: expected a positive integer, got {value}")
    if getattr(args, "K", None):
        scenario = Scenario(
            kind=scenario.kind,
            matrices=scenario.matrices,
            times=scenario.times.padded(int(args.K)),
            options=scenario.options,
        )
    return _DISPATCH[command](scenario, args, Path(out_dir))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kp-rankone",
        description="Determinant tau functions from rank-one matrix triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--t1", default=None, help="grid start:end:count for t1")
        p.add_argument("--t2", default=None, help="grid start:end:count for t2")
        p.add_argument("--t3", default=None, help="grid start:end:count for t3")
        p.add_argument("--z", default=None, help="grid start:end:count for z")
        p.add_argument("--K", type=int, default=None, help="time truncation override")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        return run_command(args.command, scenario, args, args.out)
    except ScenarioError as exc:
        print(f"kp-rankone: scenario error: {exc}", file=sys.stderr)
        return 2
    except InadmissibleTripleError as exc:
        print(f"kp-rankone: inadmissible input: {exc}", file=sys.stderr)
        return 1
    except (KPRankOneError, np.linalg.LinAlgError) as exc:
        print(f"kp-rankone: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
