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

One table, ``_KINDS``, holds what each kind reads and builds: its
matrices, case data, triple and crosscheck. A :class:`Scenario` checks
its kind and options when made, from a file or in code: option keys are
K, tol, seed, m, grids (t1, t2, t3, z), eta, lambda1 and lambda2, and
any other key is a ScenarioError.

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
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import baker, cases, triple as triple_mod, verify
from .errors import (
    GeometryError,
    InadmissibleTripleError,
    KPRankOneError,
    RangeError,
    ScenarioError,
)
from .matkernel import ScaledComplex
from .tau import TimeVector, tau_grid, u_field

__all__ = ["Scenario", "load_scenario", "save_scenario", "run_command", "main"]


class _Kind(NamedTuple):
    """The matrices a file must carry, the case data they make in that order
    (None for a general triple), the triple of (case data, matrices), and
    the crosscheck (case data, times, tol) with its default tol, if any."""

    matrices: Tuple[str, ...]
    data: Optional[type]
    triple: Callable
    crosscheck: Optional[Callable] = None
    crosscheck_tol: float = 0.0


# the entries look the library functions up when called, so a wrapper put
# on a module attribute (a tracer's, say) sees the call
_KINDS = {
    "general": _Kind(
        ("A", "B", "C"), None, lambda d, m: triple_mod.make_triple(m["A"], m["B"], m["C"])
    ),
    "intertwining": _Kind(
        ("X", "Y", "Z"), cases.IntertwiningData,
        lambda d, m: cases.from_intertwining(d, C=m.get("C")),
        lambda d, t, tol: verify.crosscheck_intertwining(d, t, tol=tol),
        verify.DEFAULT_INTERTWINING_TOL,
    ),
    "calogero_moser": _Kind(
        ("X", "Z"), cases.CalogeroMoserData,
        lambda d, m: cases.from_calogero_moser(d),
        lambda d, t, tol: verify.crosscheck_wilson(d, t, tol=tol),
        verify.DEFAULT_WILSON_TOL,
    ),
    "kdv_pair": _Kind(
        ("X", "Z"), cases.KdVPairData,
        lambda d, m: cases.from_kdv_pair(d),
        lambda d, t, tol: verify.crosscheck_intertwining(d.as_intertwining(), t, tol=tol),
        verify.DEFAULT_INTERTWINING_TOL,
    ),
}

# the keys the commands read; any other is a ScenarioError
_OPTION_KEYS = ("K", "tol", "seed", "m", "grids", "eta", "lambda1", "lambda2")
_GRID_NAMES = ("t1", "t2", "t3", "z")

ENV_TOL = "KP_RANKONE_TOL"


@dataclass(frozen=True, eq=False)
class Scenario:
    """Parsed scenario: kind, matrices, base times and options.

    Making one checks the kind and the options (:func:`_check_options`),
    so a Scenario built in code meets the rules of a scenario file;
    :func:`dataclasses.replace` checks again."""

    kind: str
    matrices: Dict[str, np.ndarray]
    times: TimeVector
    options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        _kind(self.kind)
        _check_options(self.options)

    def case_data(self):
        """The kind's case data made from the matrices; None for a general triple."""
        kind = _KINDS[self.kind]
        if kind.data is None:
            return None
        return kind.data(*(self.matrices[k] for k in kind.matrices))

    def build_triple(self) -> triple_mod.RankOneTriple:
        return _KINDS[self.kind].triple(self.case_data(), self.matrices)


def _kind(name) -> _Kind:
    kinds = tuple(_KINDS)  # a tuple: a kind read from JSON may be unhashable
    if name not in kinds:
        raise ScenarioError(f"kind: expected one of {kinds}, got {name!r}")
    return _KINDS[name]


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _parse_complex(obj, where: str) -> complex:
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj, 0.0]
    if not all(_is_number(x) for x in parts):
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
    if not (_is_int(rows) and _is_int(cols) and rows >= 1 and cols >= 1):
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
    required = _kind(kind).matrices
    matrices_raw = raw.get("matrices")
    if not isinstance(matrices_raw, dict):
        raise ScenarioError("matrices: expected an object")
    for key in required:
        if key not in matrices_raw:
            raise ScenarioError(f"matrices.{key}: required for kind {kind!r}")
    matrices = {key: _parse_matrix(val, f"matrices.{key}") for key, val in matrices_raw.items()}

    times_raw = raw.get("times", [[0.0, 0.0]])
    if not isinstance(times_raw, list) or not times_raw:
        raise ScenarioError("times: expected a nonempty list of complex numbers")
    values = [_parse_complex(v, f"times[{i}]") for i, v in enumerate(times_raw)]
    times = TimeVector(np.array(values))

    scenario = Scenario(kind=kind, matrices=matrices, times=times, options=raw.get("options", {}))
    K = scenario.options.get("K")
    return scenario if K is None else replace(scenario, times=times.padded(K))


def _check_options(options) -> None:
    """Raise ScenarioError unless ``options`` is an object of the keys the
    commands read (``_OPTION_KEYS``, grids named in ``_GRID_NAMES``), each
    given as its command reads it. :meth:`Scenario.__post_init__` checks."""
    if not isinstance(options, dict):
        raise ScenarioError("options: expected an object")
    _known_keys(options, _OPTION_KEYS, "options")
    K = options.get("K")
    if K is not None and not (_is_int(K) and K >= 1):
        raise ScenarioError("options.K: expected a positive integer")
    if "tol" in options:
        _tolerance(options["tol"], "options.tol")
    seed, m = options.get("seed", 0), options.get("m", 0)
    if not (_is_int(seed) and seed >= 0):
        raise ScenarioError(f"options.seed: expected a non-negative integer, got {seed!r}")
    if not _is_int(m):
        raise ScenarioError(f"options.m: expected an integer, got {m!r}")
    grids = options.get("grids", {})
    if not isinstance(grids, dict):
        raise ScenarioError(f"options.grids: expected an object, got {grids!r}")
    _known_keys(grids, _GRID_NAMES, "options.grids")
    for name, spec in grids.items():
        if not isinstance(spec, str):
            raise ScenarioError(f"options.grids.{name}: expected start:end:count, got {spec!r}")
    for name in ("eta", "lambda1", "lambda2"):
        if name in options:
            _parse_complex(options[name], f"options.{name}")


def _known_keys(obj: dict, keys: Tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in keys:
            raise ScenarioError(f"{where}.{key}: unknown key, expected one of {', '.join(keys)}")


def _is_number(x) -> bool:
    # a JSON number: Python counts a bool as an int, a scenario file does not
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _is_int(x) -> bool:
    return _is_number(x) and isinstance(x, int)


def _tolerance(x, where: str) -> float:
    """A tolerance: a finite, non-negative number."""
    if not (_is_number(x) and math.isfinite(x) and x >= 0):
        raise ScenarioError(f"{where}: expected a finite, non-negative number, got {x!r}")
    return float(x)


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
    Path(path).write_text(_json_text(doc))


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
    _write(out_dir, f"{command}.json", _json_text(doc))
    return 0 if doc["all_pass"] else 1


def _write(out_dir: Path, name: str, text: str) -> None:
    """Write one output file, making --out first."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_text(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_text(header: Sequence[str], rows) -> str:
    return "\n".join(",".join(row) for row in [header, *rows]) + "\n"


def _fmt(x: float) -> str:
    return repr(float(x))


# the value columns of a grid CSV, and their fields at a pole
_VALUE_COLUMNS = ["re", "im", "log_magnitude", "pole"]
_POLE_FIELDS = [_fmt(math.nan)] * 3 + ["1"]


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
    spec, where = getattr(args, name, None), f"--{name}"
    if spec is None:
        spec, where = scenario.options.get("grids", {}).get(name, default), f"options.grids.{name}"
    if spec is None:
        return None
    return _parse_axis(spec, where)


def _default_tol(args, scenario: Scenario, fallback: float) -> float:
    if getattr(args, "tol", None) is not None:
        return _tolerance(args.tol, "--tol")
    env = os.environ.get(ENV_TOL)
    if env:
        try:
            value = float(env)
        except ValueError as exc:
            raise ScenarioError(f"{ENV_TOL}: not a number: {env!r}") from exc
        return _tolerance(value, ENV_TOL)
    if "tol" in scenario.options:
        return float(scenario.options["tol"])  # type: ignore[arg-type]
    return fallback


def _seed_of(args, scenario: Scenario) -> int:
    if getattr(args, "seed", None) is not None:
        return int(args.seed)
    return int(scenario.options.get("seed", 0))  # type: ignore[arg-type]


def _trial_rngs(args, scenario: Scenario, default: int, first: int = 0):
    """The generators default_rng(seed + trial) of trials first .. n - 1,
    n from --trials or ``default``."""
    trials = int(args.trials) if args.trials is not None else default
    seed = _seed_of(args, scenario)
    return (np.random.default_rng(seed + trial) for trial in range(first, trials))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_validate(scenario: Scenario, args, out_dir: Path) -> int:
    try:
        tr = scenario.build_triple()
        report = triple_mod.validate_triple(tr.A, tr.B, tr.C)
        doc = {"admissible": bool(report.admissible), "report": _jsonify(vars(report))}
    except InadmissibleTripleError as exc:
        rep = None if exc.report is None else _jsonify(vars(exc.report))
        doc = {"admissible": False, "error": str(exc), "report": rep}
    _write(out_dir, "validate.json", _json_text(doc))
    return 0 if doc["admissible"] else 1


# t1, t2, t3 of tau-grid and u-grid, with their default ranges
_GRID_AXES = (("t1", "-2:2:41"), ("t2", None), ("t3", None))


def _time_grid(command: str, points, scenario: Scenario, args, out_dir: Path) -> int:
    """tau-grid and u-grid, as ``_DISPATCH`` binds ``command`` and ``points``:
    one CSV row per point of the t1[, t2, t3] axes, from
    ``points(triple, axes, base)``, which yields each point's (t1, t2, t3)
    and value fields."""
    tr = scenario.build_triple()
    axes = [_axis_from(args, scenario, *a) for a in _GRID_AXES]
    header = [name for (name, _), axis in zip(_GRID_AXES, axes) if axis is not None]
    rows = [
        [_fmt(v) for v in coords if v is not None] + fields
        for coords, fields in points(tr, axes, scenario.times)
    ]
    _write(out_dir, f"{command}.csv", _csv_text(header + _VALUE_COLUMNS, rows))
    return 0


def _tau_points(tr, axes, base):
    # an exact zero of tau is a pole of u, flagged as u-grid flags it
    for coords, val in tau_grid(tr, *axes, base=base):
        yield coords, _scaled_fields(val) + ["1" if val.is_zero else "0"]


def _u_points(tr, axes, base):
    for s in u_field(tr, *axes, base=base):
        if s.is_pole:
            yield (s.t1, s.t2, s.t3), _POLE_FIELDS
            continue
        mag = abs(s.value)
        lm = math.log(mag) if mag > 0 else -math.inf
        yield (s.t1, s.t2, s.t3), [_fmt(s.value.real), _fmt(s.value.imag), _fmt(lm), "0"]


def _cmd_psi_grid(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    axis_x = _axis_from(args, scenario, "t1", "-1:1:11")
    axis_z = _axis_from(args, scenario, "z", "2:4:5")
    if np.any(axis_z == 0.0):
        raise ScenarioError("--z: the grid must not contain z = 0")
    rows = [
        [_fmt(s.x.real), _fmt(s.z.real)]
        + (_POLE_FIELDS if s.is_pole else _scaled_fields(s.value) + ["0"])
        for s in baker.psi_grid(tr, axis_x, axis_z)
    ]
    _write(out_dir, "psi-grid.csv", _csv_text(["t1", "z"] + _VALUE_COLUMNS, rows))
    return 0


def _cmd_verify_hbde(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    tol = _default_tol(args, scenario, verify.DEFAULT_HBDE_TOL)
    reports = []
    for rng in _trial_rngs(args, scenario, 20):
        try:
            c1, c2, c3 = verify.draw_lattice_parameters(rng, tr)
        except GeometryError as exc:
            raise ScenarioError(str(exc)) from exc
        l, m, n_index = map(int, rng.integers(0, 2, size=3))
        reports.append(
            verify.hbde_residual(tr, scenario.times, c1, c2, c3, l=l, m=m, n_index=n_index, tol=tol)
        )
    return _write_reports(out_dir, "verify-hbde", reports)


def _cmd_verify_kp(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    tol = _default_tol(args, scenario, verify.DEFAULT_KP_TOL)
    reports = [verify.kp_residual(tr, scenario.times, tol=tol)]
    for rng in _trial_rngs(args, scenario, 1, first=1):
        tvals = 0.6 * (rng.random(3) - 0.5) + 0.6j * (rng.random(3) - 0.5)
        reports.append(verify.kp_residual(tr, TimeVector(tvals), tol=tol))
    return _write_reports(out_dir, "verify-kp", reports)


def _cmd_verify_h3(scenario: Scenario, args, out_dir: Path) -> int:
    tr = scenario.build_triple()
    tol = _default_tol(args, scenario, verify.DEFAULT_H3_TOL)
    n = tr.n
    reports = []
    for rng in _trial_rngs(args, scenario, 50):
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
    _write(out_dir, "spectral.json", _json_text(doc))
    return 0


def _cmd_crosscheck(scenario: Scenario, args, out_dir: Path) -> int:
    kind = _KINDS[scenario.kind]
    if kind.crosscheck is None:
        raise ScenarioError("crosscheck needs a calogero_moser, intertwining or kdv_pair scenario")
    tol = _default_tol(args, scenario, kind.crosscheck_tol)
    rep = kind.crosscheck(scenario.case_data(), scenario.times, tol)
    return _write_reports(out_dir, "crosscheck", [rep])


_DISPATCH = {
    "validate": _cmd_validate,
    "tau-grid": partial(_time_grid, "tau-grid", _tau_points),
    "u-grid": partial(_time_grid, "u-grid", _u_points),
    "psi-grid": _cmd_psi_grid,
    "verify-hbde": _cmd_verify_hbde,
    "verify-kp": _cmd_verify_kp,
    "verify-h3": _cmd_verify_h3,
    "bethe": _cmd_bethe,
    "spectral": _cmd_spectral,
    "crosscheck": _cmd_crosscheck,
}


def run_command(command: str, scenario: Scenario, args, out_dir) -> int:
    """Execute one command against a scenario; returns the exit code.

    Raises ScenarioError on a bad flag; the scenario checked its options
    when it was made."""
    if command not in _DISPATCH:
        raise ScenarioError(f"unknown command {command!r}")
    for flag in ("trials", "K"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ScenarioError(f"--{flag}: expected a positive integer, got {value}")
    if getattr(args, "seed", None) is not None and args.seed < 0:
        raise ScenarioError(f"--seed: expected a non-negative integer, got {args.seed}")
    if getattr(args, "K", None):
        scenario = replace(scenario, times=scenario.times.padded(int(args.K)))
    return _DISPATCH[command](scenario, args, Path(out_dir))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kp-rankone",
        description="Determinant tau functions from rank-one matrix triples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        for axis in _GRID_NAMES:
            p.add_argument(f"--{axis}", default=None, help=f"grid start:end:count for {axis}")
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
