"""Per-layer counters and busy times, recorded around the program's public
functions from outside the program.

``install`` replaces each traced function, in every module of the
``kp_rankone`` package that holds a reference to it, by a wrapper that
counts calls and adds up wall time. Nested calls of the same metric are
timed once (outermost call). Calls into the numerical kernels (expm,
solve, svd, slogdet, matrix_power) form the ``backend`` layer;
``tau.self_s`` is the time in outermost ``tau``-layer calls minus the
backend time under them.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Dict

_PACKAGE_MODULES = (
    "kp_rankone",
    "kp_rankone.matkernel",
    "kp_rankone.triple",
    "kp_rankone.cases",
    "kp_rankone.tau",
    "kp_rankone.verify",
    "kp_rankone.baker",
    "kp_rankone.cli",
)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.layer_busy: Counter = Counter()
        self.backend_in_tau = 0.0
        self._depth: Counter = Counter()
        self._layer_depth: Counter = Counter()

    def reset(self) -> None:
        """Zero the counters (in place: the wrappers hold references)."""
        for counter in (self.calls, self.busy, self.layer_busy):
            counter.clear()
        self.backend_in_tau = 0.0

    def wrap(self, fn, metric: str, layer: str):
        calls, busy, depth, layer_depth = self.calls, self.busy, self._depth, self._layer_depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[metric] += 1
            outer = depth[metric] == 0
            layer_outer = layer_depth[layer] == 0
            depth[metric] += 1
            layer_depth[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[metric] -= 1
                layer_depth[layer] -= 1
                if outer:
                    busy[metric] += dt
                if layer_outer:
                    self.layer_busy[layer] += dt
                    if layer == "backend" and layer_depth["tau"] > 0:
                        self.backend_in_tau += dt

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> Dict[str, float]:
        """Flat copy of every counter, for differences across a phase."""
        out = {f"{k}.calls": float(v) for k, v in self.calls.items()}
        out.update({f"{k}.busy_s": v for k, v in self.busy.items()})
        out["tau.self_s"] = self.layer_busy["tau"] - self.backend_in_tau
        return out


def _patch_everywhere(original, wrapper) -> None:
    """Point every package-level reference to ``original`` at ``wrapper``."""
    for name in _PACKAGE_MODULES:
        mod = sys.modules.get(name)
        if mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of every loaded kp_rankone module."""
    import numpy.linalg as la

    # the package re-exports a function named ``tau``, so fetch modules by name
    baker, cases, matkernel, tau, triple, verify = (
        importlib.import_module(f"kp_rankone.{name}")
        for name in ("baker", "cases", "matkernel", "tau", "triple", "verify")
    )

    for attr, metric in (
        ("solve", "matkernel.solve"),
        ("svd", "matkernel.svd"),
        ("slogdet", "matkernel.slogdet"),
        ("matrix_power", "matkernel.matrix_power"),
    ):
        setattr(la, attr, tracer.wrap(getattr(la, attr), metric, "backend"))
    matkernel._scipy_expm = tracer.wrap(matkernel._scipy_expm, "matkernel.expm", "backend")
    # only the determinants the tau layer takes (TauEvaluator._det)
    tau.det_scaled = tracer.wrap(tau.det_scaled, "tau.det", "matkernel")

    functions = [
        (matkernel.as_cmatrix, "matkernel.as_cmatrix", "matkernel"),
        (tau.tau, "tau.api", "tau"),
        (tau.tau_miwa, "tau.api", "tau"),
        (tau.tau_discrete, "tau.api", "tau"),
        (tau.log_tau_derivative, "tau.log_tau_derivative", "tau"),
        (tau.u_field, "tau.u_field", "tau"),
        (verify.hbde_residual, "verify.hbde", "verify"),
        (verify.kp_residual, "verify.kp", "verify"),
        (baker.polynomiality_check, "baker.polynomiality", "baker"),
        (baker.psi_time, "baker.psi", "baker"),
        (baker.psi_dual, "baker.psi", "baker"),
        (baker.psi_stationary, "baker.psi", "baker"),
        (triple.random_admissible, "triple.generate", "triple"),
        (triple._unit_square, "triple.draw", "triple"),
        (cases.from_intertwining, "cases.build", "cases"),
        (cases.from_calogero_moser, "cases.build", "cases"),
        (cases.from_kdv_pair, "cases.build", "cases"),
        (cases.random_intertwining, "cases.build", "cases"),
        (cases.random_calogero_moser, "cases.build", "cases"),
        (cases.random_kdv_pair, "cases.build", "cases"),
    ]
    cli = sys.modules.get("kp_rankone.cli")
    if cli is not None:
        functions.append((cli.run_command, "cli.run_command", "cli"))
    for fn, metric, layer in functions:
        _patch_everywhere(fn, tracer.wrap(fn, metric, layer))

    ev = tau.TauEvaluator
    ev.__init__ = tracer.wrap(ev.__init__, "tau.evaluator", "tau")
    for name in ("tau", "tau_miwa", "tau_discrete"):
        setattr(ev, name, tracer.wrap(getattr(ev, name), "tau.evaluator_method", "tau"))
    tau.TimeVector.g_matrix = tracer.wrap(tau.TimeVector.g_matrix, "tau.g_matrix", "tau")
