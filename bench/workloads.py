"""Seeded plans of the in-process workloads, and their references.

A plan is ``{"inputs": [...], "ops": [...]}``: input specs that the
program turns into triples (``ops.build_input``) and operations on them
(``ops.run_op``). One round runs every operation once, in plan order.
Candidate draws are screened in double precision (``reference``) so that
every random operation stays in the domain where the program is
expected to pass. The screen looks at the inputs only, never at the
program's outputs.
"""

from __future__ import annotations

from typing import Callable, List

import mpmath as mp
import numpy as np

import reference as ref

LINE_POINTS = 41
LINE_STEP = 0.1

FIELD_TYPES = (
    {"kind": "general", "n": 1, "N": 4},
    {"kind": "general", "n": 2, "N": 6},
    {"kind": "general", "n": 4, "N": 12},
    {"kind": "general", "n": 8, "N": 24},
    {"kind": "calogero_moser", "n": 3},
    {"kind": "kdv_pair", "n": 3},
)

LATTICE_SIZES = ((1, 4), (2, 6), (4, 12), (8, 24))
# hbde checks need no reference, so they are cheap to add; six per size
# average out the seed's mix of site indices (negative ones add SVD guards)
HBDE_PER_SIZE = 6

# the large-time share of lattice-verify: fixed inputs at t1 = 60, where
# exp(g(B)) spans e^120 and the product A E C^T loses tau (fails today)
LARGE_TIME_OPS = tuple(
    {"kind": "general", "n": n, "N": N, "seed": 1} for n, N in ((2, 6), (4, 12), (8, 24))
)
LARGE_TIME_C = ((1.5, 0.0), (2.0, 0.5), (-1.8, 0.0))


def _pair(w: complex) -> list:
    return [float(w.real), float(w.imag)]


def _small_time(rng) -> complex:
    return complex(0.6 * (rng.random() - 0.5), 0.6 * (rng.random() - 0.5))


def _annulus(rng, B: np.ndarray, count: int) -> List[complex]:
    """Distinct points with 1.3 <= |c| <= 3, at least 0.3 from eig(B)."""
    lam = np.linalg.eigvals(B)
    out: List[complex] = []
    while len(out) < count:
        c = complex((1.3 + 1.7 * rng.random()) * np.exp(2j * np.pi * rng.random()))
        if np.min(np.abs(lam - c)) >= 0.3 and all(abs(c - p) >= 0.3 for p in out):
            out.append(c)
    return out


def _site(rng) -> List[int]:
    return [int(k) for k in rng.integers(-1, 2, size=3)]


def _draw(rng, spec: dict, build: Callable, lo: float, width: float, points: int):
    """Draw (input spec, t1 values, t2, t3, triple) inside the domain: the
    first t1 is uniform in [lo, lo + width], then ``points`` steps."""
    for _ in range(1000):
        full = dict(spec, seed=int(rng.integers(2 ** 31)))
        tr = build(full)
        t2, t3 = _small_time(rng), _small_time(rng)
        a = lo + width * rng.random()
        t1s = [a + LINE_STEP * k for k in range(points)]
        if ref.spectral_spread(tr.B, t1s, (t2, t3)) > ref.MAX_SPREAD:
            continue
        if not ref.zero_free(tr.A, tr.B, tr.C, t1s[0], t1s[-1], (t2, t3)):
            continue
        return full, t1s, t2, t3, tr
    raise RuntimeError(f"no draw inside the domain for {spec}")


def field_grid_plan(seed: int, build: Callable):
    """Per input type: one u line of 41 t1 points and one KP check on it."""
    rng = np.random.default_rng([seed, 1])
    inputs, ops, triples = [], [], []
    for spec in FIELD_TYPES:
        full, t1s, t2, t3, tr = _draw(rng, spec, build, -2.5, 1.0, LINE_POINTS)
        idx = len(inputs)
        inputs.append(full)
        triples.append(tr)
        rest = [_pair(t2), _pair(t3)]
        ops.append({"op": "u_line", "input": idx, "t1": t1s, "t": [[0.0, 0.0]] + rest})
        j = int(rng.integers(LINE_POINTS))
        ops.append({"op": "kp", "input": idx, "t": [[t1s[j], 0.0]] + rest,
                    "line_op": len(ops) - 1, "point": j})
    return {"inputs": inputs, "ops": ops}, triples


def lattice_plan(seed: int, build: Callable):
    """Per size: six hbde sites, one polynomiality check, one psi pair and
    one discrete tau, all at one base time; then the fixed large-time share."""
    rng = np.random.default_rng([seed, 2])
    inputs, triples, per_size = [], [], []
    for n, N in LATTICE_SIZES:
        full, t1s, t2, t3, tr = _draw(rng, {"kind": "general", "n": n, "N": N}, build, -2.0, 4.0, 1)
        idx = len(inputs)
        inputs.append(full)
        triples.append(tr)
        t = [_pair(t1s[0]), _pair(t2), _pair(t3)]
        size_ops = []
        for _ in range(HBDE_PER_SIZE):
            size_ops.append({"op": "hbde", "input": idx, "t": t,
                             "c": [_pair(c) for c in _annulus(rng, tr.B, 3)], "site": _site(rng)})
        size_ops.append({"op": "poly", "input": idx, "t": t})
        size_ops.append({"op": "psi", "input": idx, "t": t, "z": _pair(_annulus(rng, tr.B, 1)[0])})
        size_ops.append({"op": "discrete", "input": idx, "t": t,
                         "c": [_pair(c) for c in _annulus(rng, tr.B, 3)], "site": _site(rng)})
        per_size.append(size_ops)
    # interleave sizes so that consecutive operations differ in size
    ops = [op for group in zip(*per_size) for op in group]
    for spec in LARGE_TIME_OPS:
        inputs.append(dict(spec))
        triples.append(build(spec))
        ops.append({"op": "hbde", "input": len(inputs) - 1, "t": [[60.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                    "c": [list(c) for c in LARGE_TIME_C], "site": [1, 1, 0], "expect_fail": True})
    return {"inputs": inputs, "ops": ops}, triples


def _c(pair) -> complex:
    return complex(pair[0], pair[1])


def references(plan: dict, triples: list) -> list:
    """The mpmath reference of every operation (None for pure properties)."""
    mts = {}

    def mt(i):
        if i not in mts:
            tr = triples[i]
            mts[i] = ref.MpTriple(tr.A, tr.B, tr.C)
        return mts[i]

    lefts = {}
    out = []
    for op in plan["ops"]:
        kind = op["op"]
        if kind == "u_line":
            rest = [_c(p) for p in op["t"][1:]]
            out.append(ref.u_line(mt(op["input"]), op["t1"][0], LINE_STEP, len(op["t1"]), rest))
        elif kind == "kp":
            out.append(None)  # filled from its line below
        elif kind == "hbde":
            out.append(None)
        else:
            m = mt(op["input"])
            t = [_c(p) for p in op["t"]]
            key = (op["input"], tuple(t))
            if key not in lefts:
                L = m.left(t)
                lefts[key] = (L, mp.det(L * m.CT))
            L, tau_t = lefts[key]
            if kind == "poly":
                out.append({"leading": ref.scaled(tau_t)})
            elif kind == "psi":
                z = _c(op["z"])
                num_t = mp.det(L * m.shifted_right([(z, 1)]))
                num_d = mp.det(L * m.shifted_right([(z, -1)]))
                g = ref.g_scalar(z, t)
                out.append({"time": ref.scaled(num_t / tau_t * mp.exp(g)),
                            "dual": ref.scaled(num_d / tau_t * mp.exp(-g))})
            elif kind == "discrete":
                cs = [_c(c) for c in op["c"]]
                miwa = mp.det(L * m.shifted_right(list(zip(cs, op["site"]))))
                gauge = mp.mpf(1)
                for c, k in zip(cs, op["site"]):
                    gauge *= mp.mpc(c) ** k
                out.append({"miwa": ref.scaled(miwa),
                            "discrete": ref.scaled(gauge ** triples[op["input"]].n * miwa)})
            else:
                raise ValueError(f"unknown operation {kind!r}")
    for i, op in enumerate(plan["ops"]):
        if op["op"] == "kp":
            line = out[op["line_op"]]
            out[i] = {"L1": line[op["point"]]["L1"], "L11": line[op["point"]]["u"] / 2,
                      "u_scale": max(abs(p["u"]) for p in line)}
    return out
