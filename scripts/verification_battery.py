#!/usr/bin/env python3
"""Sweep random admissible triples through every verifier and summarize.

Example:
    python scripts/verification_battery.py --count 40 --seed 0
"""

import argparse
import sys
import time

import numpy as np

from kp_rankone import (
    TimeVector,
    crosscheck_intertwining,
    crosscheck_wilson,
    bethe_check,
    draw_lattice_parameters,
    h3_residual,
    hbde_residual,
    kp_residual,
    polynomiality_check,
    random_admissible,
    random_calogero_moser,
    random_intertwining,
)

DIMS = [(1, 4), (2, 6), (2, 8), (3, 9), (4, 12), (2, 5), (3, 7), (3, 10)]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=int, default=25, help="triples per check")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    rows = []

    def sweep(name, fn, count):
        start = time.perf_counter()
        residuals = []
        for i in range(count):
            residuals.append(fn(i))
        el = time.perf_counter() - start
        arr = np.array(residuals)
        rows.append((name, count, arr.max(), np.median(arr), el))

    def lattice(i):
        n, N = DIMS[i % len(DIMS)]
        tr = random_admissible(n, N, seed=args.seed * 1000 + i)
        rng = np.random.default_rng(args.seed * 2000 + i)
        t = TimeVector(0.6 * (rng.random(3) - 0.5) + 0.3j * (rng.random(3) - 0.5))
        c1, c2, c3 = draw_lattice_parameters(rng, tr)
        return hbde_residual(tr, t, c1, c2, c3, l=1, m=1, n_index=0).residual

    def differential(i):
        n, N = DIMS[i % len(DIMS)]
        tr = random_admissible(n, N, seed=args.seed * 3000 + i)
        rng = np.random.default_rng(args.seed * 4000 + i)
        return kp_residual(tr, TimeVector(rng.uniform(-1, 1, 3))).residual

    def wilson(i):
        d = random_calogero_moser(1 + i % 4, seed=args.seed * 5000 + i)
        return crosscheck_wilson(d, TimeVector([0.3, -0.2, 0.1])).residual

    def intertwine(i):
        d = random_intertwining(1 + i % 3, seed=args.seed * 6000 + i)
        return crosscheck_intertwining(d, TimeVector([0.2, 0.1, -0.05])).residual

    def h3(i):
        n = 1 + i % 3
        rng = np.random.default_rng(args.seed * 7000 + i)
        P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((1, n))
        c1, c2, c3 = draw_lattice_parameters(rng, P)
        return h3_residual(P, a @ b, c1, c2, c3).residual

    def bethe(i):
        d = random_calogero_moser(1 + i % 3, seed=args.seed * 8000 + i)
        rng = np.random.default_rng(args.seed * 9000 + i)
        eta = 0.7 + 0.6 * rng.random()
        return bethe_check(d, eta, 1.7, -2.2 + 0.4j, m=i % 3).residual

    def poly(i):
        n, N = DIMS[i % len(DIMS)]
        tr = random_admissible(n, N, seed=args.seed * 1100 + i)
        return polynomiality_check(tr, TimeVector([0.3, -0.15, 0.1])).residual

    sweep("lattice bilinear", lattice, args.count)
    sweep("differential", differential, args.count)
    sweep("pole-collision closed form", wilson, args.count)
    sweep("intertwining closed form", intertwine, args.count)
    sweep("weighted determinant", h3, args.count)
    sweep("bethe products", bethe, args.count)
    sweep("shifted-tau polynomiality", poly, args.count)

    print(f"{'check':<28} {'n':>4} {'max residual':>14} {'median':>12} {'time':>8}")
    for name, count, mx, med, el in rows:
        print(f"{name:<28} {count:>4} {mx:>14.3e} {med:>12.3e} {el:>7.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
