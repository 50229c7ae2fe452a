"""The operations of the in-process workloads, as calls into the program.

Inputs and operations arrive as JSON-ready dicts (see ``workloads.py``);
each operation returns a JSON-ready dict that ``checks.py`` judges.
Complex numbers travel as [re, im], scaled values as [log|w|, arg w].
"""

from __future__ import annotations

import kp_rankone as kp


def build_input(spec: dict):
    """Build and validate one input triple through the program."""
    kind, n, seed = spec["kind"], spec["n"], spec["seed"]
    if kind == "general":
        return kp.random_admissible(n, spec["N"], seed=seed)
    if kind == "calogero_moser":
        return kp.from_calogero_moser(kp.random_calogero_moser(n, seed=seed))
    if kind == "kdv_pair":
        return kp.from_kdv_pair(kp.random_kdv_pair(n, seed=seed))
    raise ValueError(f"unknown input kind {kind!r}")


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def _pair(w: complex) -> list:
    return [w.real, w.imag]


def _scaled(v) -> list:
    return [v.log_magnitude, v.phase]


def _times(op: dict):
    return kp.TimeVector([_c(p) for p in op["t"]])


def run_op(op: dict, triples: list) -> dict:
    tr = triples[op["input"]]
    kind = op["op"]
    if kind == "u_line":
        samples = kp.u_field(tr, op["t1"], base=_times(op))
        return {"u": [_pair(s.value) for s in samples], "pole": [s.is_pole for s in samples]}
    if kind == "kp":
        rep = kp.kp_residual(tr, _times(op))
        ctx = rep.context["log_derivatives"]
        return {"residual": rep.residual, "passed": rep.passed,
                "L1": _pair(ctx["L1"]), "L11": _pair(ctx["L11"])}
    c1, c2, c3 = (_c(c) for c in op.get("c", ((1, 0),) * 3))
    l, m, n_index = op.get("site", (0, 0, 0))
    if kind == "hbde":
        rep = kp.hbde_residual(tr, _times(op), c1, c2, c3, l=l, m=m, n_index=n_index)
        return {"residual": rep.residual, "passed": rep.passed}
    if kind == "poly":
        rep = kp.polynomiality_check(tr, _times(op))
        return {"residual": rep.residual, "passed": rep.passed,
                "leading": _scaled(rep.context["leading_coefficient"])}
    if kind == "psi":
        z = _c(op["z"])
        return {"time": _scaled(kp.psi_time(tr, _times(op), z).value),
                "dual": _scaled(kp.psi_dual(tr, _times(op), z).value)}
    if kind == "discrete":
        t = _times(op)
        return {"discrete": _scaled(kp.tau_discrete(tr, l, m, n_index, c1, c2, c3, t=t)),
                "miwa": _scaled(kp.tau_miwa(tr, ((c1, l), (c2, m), (c3, n_index)), t))}
    raise ValueError(f"unknown operation {kind!r}")
