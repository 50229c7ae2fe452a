"""Judging one output of an in-process operation against its reference.

``check(op, output, reference)`` returns ``(ok, errors)``: ``errors`` are
the relative errors or identity residuals of every checked value (they
feed ``accuracy_digits``), ``ok`` says whether each is within its
tolerance. An output that carries ``error`` (the program raised) fails.
"""

from __future__ import annotations

from typing import List, Tuple

import reference as ref


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _identity(output: dict, tol: float) -> Tuple[bool, List[float]]:
    r = output["residual"]
    return (r <= tol and output["passed"]), [r]


def check(op: dict, output: dict, reference) -> Tuple[bool, List[float]]:
    if "error" in output:
        return False, []
    kind = op["op"]
    if kind == "u_line":
        scale = max(abs(p["u"]) for p in reference)
        errs = [abs(_c(u) - p["u"]) / scale for u, p in zip(output["u"], reference)]
        ok = len(errs) == len(reference) and not any(output["pole"])
        return ok and max(errs) <= ref.U_TOL, errs
    if kind == "kp":
        ok, errs = _identity(output, ref.KP_TOL)
        e1 = ref.rel_err(_c(output["L1"]), reference["L1"])
        e11 = abs(_c(output["L11"]) - reference["L11"]) / (reference["u_scale"] / 2)
        return ok and e1 <= ref.L1_TOL and e11 <= ref.U_TOL, errs + [e1, e11]
    if kind == "hbde":
        return _identity(output, ref.HBDE_TOL)
    if kind == "poly":
        ok, errs = _identity(output, ref.POLY_TOL)
        e = ref.scaled_rel_err(output["leading"], reference["leading"])
        return ok and e <= ref.VALUE_TOL, errs + [e]
    if kind == "psi":
        errs = [ref.scaled_rel_err(output[k], reference[k]) for k in ("time", "dual")]
        return max(errs) <= ref.VALUE_TOL, errs
    if kind == "discrete":
        errs = [ref.scaled_rel_err(output[k], reference[k]) for k in ("miwa", "discrete")]
        return max(errs) <= ref.VALUE_TOL, errs
    raise ValueError(f"unknown operation {kind!r}")
