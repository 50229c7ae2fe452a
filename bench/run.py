"""Benchmark of kp-rankone: three workloads, measured end to end and per layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload field-grid --seed 1 --seconds 20 --trace 0

Workloads: ``field-grid`` and ``lattice-verify`` run the library in a
measured child process (``child.py``); ``cli-fixtures`` runs
``kp-rankone`` commands on ``scenarios/``, one fresh interpreter each.
Every output is checked against references computed apart from the
program (``reference.py``, ``checks.py``, ``cli_workload.py``). The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread everywhere, children included (set before numpy loads)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = ROOT / ".bench_run"

WORKLOADS = ("field-grid", "lattice-verify", "cli-fixtures")
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3
CHILD_TIMEOUT = 150

# per-layer metrics: name -> unit (counts and times are per round)
PER_LAYER = {
    "matkernel.expm.calls": "count",
    "matkernel.expm.busy_s": "s",
    "matkernel.solve.calls": "count",
    "matkernel.solve.busy_s": "s",
    "matkernel.svd.calls": "count",
    "matkernel.svd.busy_s": "s",
    "matkernel.slogdet.calls": "count",
    "matkernel.slogdet.busy_s": "s",
    "matkernel.matrix_power.calls": "count",
    "matkernel.matrix_power.busy_s": "s",
    "matkernel.as_cmatrix.calls": "count",
    "tau.self_s": "s",
    "tau.g_matrix.busy_s": "s",
    "tau.evaluator.calls": "count",
    "tau.evaluator.busy_s": "s",
    "tau.det.calls": "count",
    "tau.log_tau_derivative.calls": "count",
    "tau.log_tau_derivative.busy_s": "s",
    "tau.expm_per_u_point": "count",
    "tau.dets_per_expm": "ratio",
    "tau.u_point_us.N4": "us",
    "tau.u_point_us.N6": "us",
    "tau.u_point_us.N12": "us",
    "tau.u_point_us.N24": "us",
    "verify.hbde.busy_s": "s",
    "baker.polynomiality.busy_s": "s",
    "baker.psi.busy_s": "s",
    "verify.kp.busy_s": "s",
    "triple.generate.busy_s": "s",
    "triple.draws_per_triple": "count",
    "cases.build.busy_s": "s",
    "cli.import_s": "s",
    "cli.import_scipy_s": "s",
    "cli.run_command.busy_s": "s",
    "cli.process_s": "s",
}

# read straight from the tracer's counters, divided by the rounds
_PER_ROUND = [k for k in PER_LAYER if k.endswith((".calls", ".busy_s"))
              and not k.startswith(("triple.", "cases.", "cli."))] + ["tau.self_s"]


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _run(cmd, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, cwd=ROOT, **kwargs)


def _child_cpu(argv) -> tuple:
    """Run a child; return it and its CPU seconds (user plus system)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = _run(argv)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime


def _child(job: dict) -> dict:
    proc = _run([sys.executable, str(HERE / "child.py")], input=json.dumps(job))
    if proc.returncode != 0:
        raise RuntimeError(f"measured child failed:\n{proc.stderr}")
    return _last_json(proc.stdout)


def _fresh_import(module: str) -> tuple:
    """CPU seconds a fresh interpreter takes to import ``module``, and the
    calibration loop's time in that interpreter right after."""
    code = (f"import sys, time; t = time.process_time(); import {module}; t = time.process_time() - t; "
            f"sys.path.insert(0, {str(HERE)!r}); import calibrate; "
            f"print(t, calibrate.loop_seconds(reps=5))")
    proc = _run([sys.executable, "-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"cannot import {module}:\n{proc.stderr}")
    seconds, cal = proc.stdout.split()
    return float(seconds), float(cal)


def _median_import(module: str, samples: int) -> float:
    return statistics.median(_fresh_import(module)[0] for _ in range(samples))


def _scaled(pairs) -> list:
    """CPU times scaled to the host speed at which the calibration loop
    takes calibrate.NOMINAL_S (pairs: (seconds, loop seconds))."""
    import calibrate

    return [t * calibrate.NOMINAL_S / c for t, c in pairs]


def _judge(items) -> tuple:
    """items: (expect_fail, ok, errors, count). Returns the result fields."""
    attempted = failed = 0
    correct = True
    digits = []
    import reference as ref

    for expect_fail, ok, errs, count in items:
        attempted += count
        if ok:
            digits.extend([ref.digits(e) for e in errs] * count)
        else:
            failed += count
            correct = correct and expect_fail
    return correct, attempted, failed, statistics.median(digits) if digits else 0.0


def _layers(per_round: dict, setup: dict, extra: dict) -> dict:
    out = {k: per_round.get(k, 0.0) for k in _PER_ROUND}
    out["tau.evaluator.busy_s"] = (per_round.get("tau.evaluator.busy_s", 0.0)
                                   + per_round.get("tau.evaluator_method.busy_s", 0.0))
    expm = per_round.get("matkernel.expm.calls", 0.0)
    out["tau.dets_per_expm"] = per_round.get("tau.det.calls", 0.0) / expm if expm else 0.0
    generated = setup.get("triple.generate.calls", 0.0)
    out["triple.generate.busy_s"] = setup.get("triple.generate.busy_s", 0.0)
    out["triple.draws_per_triple"] = setup.get("triple.draw.calls", 0.0) / 5 / generated if generated else 0.0
    out["cases.build.busy_s"] = setup.get("cases.build.busy_s", 0.0)
    out.update(extra)
    return {k: {"value": float(out.get(k, 0.0)), "unit": u} for k, u in PER_LAYER.items()}


def _import_layers() -> dict:
    return {"cli.import_s": _median_import("kp_rankone.cli", IMPORT_SAMPLES),
            "cli.import_scipy_s": _median_import("scipy.linalg", IMPORT_SAMPLES)}


# ---------------------------------------------------------------------------
# in-process workloads
# ---------------------------------------------------------------------------


def run_inprocess(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import ops
    import workloads

    make = workloads.field_grid_plan if workload == "field-grid" else workloads.lattice_plan
    plan, triples = make(seed, ops.build_input)
    job = {"plan": plan, "seconds": seconds, "trace": trace, "setup_only": True}
    setups = [] if trace else [_child(job) for _ in range(SETUP_SAMPLES - 1)]
    main = _child(dict(job, setup_only=False))
    setups.append(main)

    refs = workloads.references(plan, triples)
    items = []
    for op, outs, r in zip(plan["ops"], main["outputs"], refs):
        for out, count in outs:
            ok, errs = checks.check(op, out, r)
            items.append((bool(op.get("expect_fail")), ok, errs, count))
    correct, attempted, failed, digits = _judge(items)

    if not trace:
        round_cpu = [sum(r) for r in zip(*main["durations"])]
        round_s = _scaled(zip(round_cpu, main["cal"]))
        metrics = {
            "setup_s": {"value": statistics.median(_scaled((r["setup_s"], r["setup_cal"]) for r in setups)),
                        "unit": "s"},
            "ops_per_s": {"value": len(plan["ops"]) / statistics.median(round_s), "unit": "1/s"},
            "accuracy_digits": {"value": digits, "unit": "digits"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    else:
        rounds = main["rounds"]
        tr = main["trace"]
        per_round = {k: v / rounds for k, v in tr["timed"].items()}
        extra = _import_layers()
        u_kind = tr["per_kind"].get("u_line", {})
        points = sum(len(op["t1"]) for op in plan["ops"] if op["op"] == "u_line")
        if points:
            extra["tau.expm_per_u_point"] = u_kind.get("matkernel.expm.calls", 0.0) / rounds / points
        for op, d in zip(plan["ops"], main["durations"]):
            spec = plan["inputs"][op["input"]]
            if op["op"] == "u_line" and spec["kind"] == "general":
                extra[f"tau.u_point_us.N{spec['N']}"] = statistics.median(d) / len(op["t1"]) * 1e6
        metrics = _layers(per_round, tr["setup"], extra)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# cli-fixtures
# ---------------------------------------------------------------------------


def run_cli(seed: int, seconds: float, trace: bool) -> dict:
    import calibrate
    import cli_workload as cw

    cmds = cw.plan(seed)
    fixtures = {c["fixture"]: cw.load_fixture(SCENARIOS / f"{c['fixture']}.json") for c in cmds}
    setups = [] if trace else _scaled(_fresh_import("kp_rankone.cli") for _ in range(SETUP_SAMPLES))

    walls = [[] for _ in cmds]
    cpus = [[] for _ in cmds]
    runs = []  # (index, out_dir, exit code, trace file)
    rounds = 0
    begin = time.perf_counter()
    while rounds == 0 or time.perf_counter() - begin < seconds:
        for i, c in enumerate(cmds):
            out_dir = WORK / "cli" / f"r{rounds}" / str(i)
            out_dir.mkdir(parents=True)
            tail = [c["command"], str(SCENARIOS / f"{c['fixture']}.json"), "--out", str(out_dir), *c["args"]]
            trace_file = out_dir / "trace.json"
            if trace:
                argv = [sys.executable, str(HERE / "traced_cli.py"), str(trace_file), *tail]
            else:
                argv = [sys.executable, "-m", "kp_rankone.cli", *tail]
            start = time.perf_counter()
            proc, cpu = _child_cpu(argv)
            walls[i].append(time.perf_counter() - start)
            if not trace:
                _, probe = _child_cpu([sys.executable, "-c", calibrate.IMPORT_PROBE])
                cpu *= calibrate.NOMINAL_IMPORT_S / probe
            cpus[i].append(cpu)
            runs.append((i, out_dir, proc.returncode, trace_file))
        rounds += 1

    items = []
    for i, out_dir, code, _ in runs:
        ok, errs = cw.check(cmds[i], out_dir, fixtures, code)
        items.append((cmds[i]["expect_fail"], ok, errs, 1))
    correct, attempted, failed, digits = _judge(items)

    if not trace:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": len(cmds) / sum(statistics.median(c) for c in cpus), "unit": "1/s"},
            "accuracy_digits": {"value": digits, "unit": "digits"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    else:
        total: dict = {}
        u_expm = u_points = 0.0
        extra = _import_layers()
        for i, _, _, trace_file in runs:
            snap = json.loads(trace_file.read_text())
            for k, v in snap.items():
                total[k] = total.get(k, 0.0) + v
            if cmds[i]["command"] == "u-grid":
                u_expm += snap.get("matkernel.expm.calls", 0.0)
                u_points += cw.GRID_POINTS
                if cmds[i]["fixture"] == "two_soliton":  # N = 4
                    extra.setdefault("u4", []).append(
                        snap.get("tau.u_field.busy_s", 0.0) / cw.GRID_POINTS * 1e6)
        per_round = {k: v / rounds for k, v in total.items()}
        extra["tau.expm_per_u_point"] = u_expm / u_points
        extra["tau.u_point_us.N4"] = statistics.median(extra.pop("u4"))
        extra["cli.run_command.busy_s"] = per_round.get("cli.run_command.busy_s", 0.0)
        extra["cli.process_s"] = sum(sum(w) for w in walls) / rounds - extra["cli.run_command.busy_s"]
        # the commands build their inputs themselves: report that per round
        metrics = _layers(per_round, per_round, extra)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "kp_rankone" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        print(f"bench: no kp_rankone sources under {SRC} (run from a checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        if args.workload == "cli-fixtures":
            result = run_cli(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_inprocess(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
