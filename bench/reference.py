"""References computed apart from the program, and the checks' tolerances.

Two kinds of independent computation live here:

* double-precision screening (``scipy.linalg.expm`` and ``numpy.linalg``),
  used only to decide whether a drawn input stays inside the benchmark's
  domain (no zero of tau near the evaluation points, bounded spread of
  exp(g(B))), never to judge an output;
* ``mpmath`` references at 40 significant digits: u, d log tau / dt1,
  tau, shifted tau and wave-function values, all from the definition
  det(A exp(g(B)) C^T) with (log det M)'' = tr(M^-1 M'') - tr((M^-1 M')^2),
  M' = A B E C^T and M'' = A B^2 E C^T.

Nothing in this module imports the program.
"""

from __future__ import annotations

import cmath
import math
from typing import Dict, List, Sequence, Tuple

import mpmath as mp
import numpy as np
from scipy.linalg import expm

#: working precision of every reference, in decimal digits
REF_DPS = 40
#: the accuracy figure is capped here (double precision cannot do better)
DIGITS_CAP = 16.0

# domain of the random inputs: no zero of tau within ZERO_FREE_RADIUS of
# an evaluation point (finite differences lose accuracy near a zero), and
# a spread of Re g over the spectrum of B of at most MAX_SPREAD (larger
# spreads are the large-time regime, which lattice-verify covers with its
# fixed t1 = 60 share)
ZERO_FREE_RADIUS = 0.4
MAX_SPREAD = 10.0

# tolerances of the checks; u and the second log derivative are compared
# relative to the largest |u| of their line, everything else pointwise
U_TOL = 2e-7
L1_TOL = 1e-9
VALUE_TOL = 1e-9
HBDE_TOL = 1e-8
POLY_TOL = 1e-8
KP_TOL = 1e-4


# ---------------------------------------------------------------------------
# double-precision screening
# ---------------------------------------------------------------------------


def _g_matrix(B: np.ndarray, t: Sequence[complex]) -> np.ndarray:
    G = np.zeros_like(B)
    P = np.eye(B.shape[0], dtype=complex)
    for tk in t:
        P = P @ B
        G = G + tk * P
    return G


def spectral_spread(B: np.ndarray, t1_values: Sequence[float], rest: Sequence[complex]) -> float:
    """Largest spread of Re g(lambda) over the eigenvalues of B along t1."""
    lam = np.linalg.eigvals(B)
    worst = 0.0
    for t1 in t1_values:
        g = sum(tk * lam ** (k + 1) for k, tk in enumerate([t1, *rest])).real
        worst = max(worst, float(g.max() - g.min()))
    return worst


def zero_free(A, B, C, t1_lo: float, t1_hi: float, rest: Sequence[complex],
              radius: float = ZERO_FREE_RADIUS, samples: int = 480) -> bool:
    """True when tau(t1) has no zero within ``radius`` of [t1_lo, t1_hi].

    Counts zeros inside the rectangle [t1_lo - r, t1_hi + r] x [-r, r] of
    the complex t1 plane by the argument principle; a contour sampled too
    coarsely to follow the phase counts as not zero-free.
    """
    r = radius
    corners = [complex(t1_lo - r, -r), complex(t1_hi + r, -r),
               complex(t1_hi + r, r), complex(t1_lo - r, r)]
    sides = [abs(corners[(i + 1) % 4] - corners[i]) for i in range(4)]
    total = sum(sides)
    pts = []
    for i in range(4):
        m = max(2, int(round(samples * sides[i] / total)))
        a, b = corners[i], corners[(i + 1) % 4]
        pts.extend(a + (b - a) * k / m for k in range(m))
    phases = []
    for z in pts:
        E = expm(_g_matrix(B, [z, *rest]))
        sign, _ = np.linalg.slogdet(A @ E @ C.T)
        if sign == 0:
            return False
        phases.append(cmath.phase(sign))
    phases.append(phases[0])
    winding = 0.0
    for p, q in zip(phases, phases[1:]):
        d = math.remainder(q - p, 2 * math.pi)
        if abs(d) > 1.0:
            return False
        winding += d
    return abs(winding) < math.pi


# ---------------------------------------------------------------------------
# mpmath references
# ---------------------------------------------------------------------------


def mp_matrix(M) -> mp.matrix:
    M = np.asarray(M, dtype=complex)
    return mp.matrix([[mp.mpc(complex(v)) for v in row] for row in M])


def _mpc(w) -> mp.mpc:
    return mp.mpc(complex(w))


def _norm(M: mp.matrix) -> mp.mpf:
    return mp.mnorm(M, 1)


def _expm(G: mp.matrix) -> mp.matrix:
    """exp(G) by its Taylor polynomial, evaluated Paterson-Stockmeyer style
    (about 2 sqrt(degree) matrix products) with guard digits."""
    norm = float(_norm(G))
    extra = int(norm / math.log(10)) + 5
    with mp.workdps(REF_DPS + extra):
        degree = 8
        while (degree + 1) * math.log(max(norm, 1e-300)) - math.lgamma(degree + 2) > -(REF_DPS + extra) * math.log(10):
            degree += 1
        q = max(2, int(math.ceil(math.sqrt(degree + 1))))
        powers = [mp.eye(G.rows), G]
        for _ in range(q - 1):
            powers.append(powers[-1] * G)
        acc = None
        for j in range((degree + 1 + q - 1) // q - 1, -1, -1):
            block = mp.zeros(G.rows, G.cols)
            for i in range(q):
                k = j * q + i
                if k <= degree:
                    block += powers[i] / mp.factorial(k)
            acc = block if acc is None else acc * powers[q] + block
        return acc


class MpTriple:
    """A triple (A, B, C) held at REF_DPS digits, with B^2 C^T cached."""

    def __init__(self, A, B, C):
        mp.mp.dps = REF_DPS
        self.n = int(np.shape(A)[0])
        self.N = int(np.shape(A)[1])
        self.A = mp_matrix(A)
        self.B = mp_matrix(B)
        self.CT = mp_matrix(np.asarray(C).T)
        self.BCT = self.B * self.CT
        self.B2CT = self.B * self.BCT
        self.B2 = self.B * self.B
        self.B3 = self.B2 * self.B

    def g(self, t: Sequence[complex]) -> mp.matrix:
        G = self.B * _mpc(t[0])
        if len(t) > 1:
            G += self.B2 * _mpc(t[1])
        if len(t) > 2:
            G += self.B3 * _mpc(t[2])
        if len(t) > 3:
            raise ValueError("references use at most three times")
        return G

    def left(self, t: Sequence[complex]) -> mp.matrix:
        """A exp(g(B)) at times t."""
        return self.A * _expm(self.g(t))

    def step(self, h: float) -> mp.matrix:
        """exp(h B), the exact shift of t1 by h."""
        return _expm(self.B * mp.mpf(h))

    def shifted_right(self, shifts: Sequence[Tuple[complex, int]]) -> mp.matrix:
        """prod_j (I - B / c_j)^(k_j) C^T."""
        right = self.CT
        for c, k in shifts:
            c = _mpc(c)
            for _ in range(abs(int(k))):
                if k > 0:
                    right = right - self.B * right / c
                else:
                    right = mp.inverse(mp.eye(self.N) - self.B / c) * right
        return right


def _trace(M: mp.matrix) -> mp.mpc:
    return mp.fsum(M[i, i] for i in range(M.rows))


def u_line(mt: MpTriple, t1_start: float, step: float, count: int,
           rest: Sequence[complex]) -> List[Dict[str, complex]]:
    """u and d log tau / dt1 at t1 = t1_start + k step."""
    L = mt.left([t1_start, *rest])
    S = mt.step(step)
    out = []
    for k in range(count):
        if k:
            L = L * S
        M = L * mt.CT
        Minv = mp.inverse(M)
        X1 = Minv * (L * mt.BCT)
        X2 = Minv * (L * mt.B2CT)
        out.append({"u": complex(2 * (_trace(X2) - _trace(X1 * X1))), "L1": complex(_trace(X1))})
    return out


def scaled(w: mp.mpc) -> Tuple[float, float]:
    """(log|w|, arg w) of an mpmath number."""
    return float(mp.log(abs(w))), float(mp.arg(w))


def g_scalar(z: complex, t: Sequence[complex]) -> mp.mpc:
    z = _mpc(z)
    return mp.fsum(_mpc(tk) * z ** (k + 1) for k, tk in enumerate(t))


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def rel_err(value: complex, ref: complex) -> float:
    return abs(complex(value) - complex(ref)) / abs(complex(ref))


def scaled_rel_err(value: Sequence[float], ref: Sequence[float]) -> float:
    """|a - b| / |b| for values given as (log magnitude, phase)."""
    d = complex(value[0] - ref[0], math.remainder(value[1] - ref[1], 2 * math.pi))
    return abs(cmath.exp(d) - 1.0)


def digits(err: float) -> float:
    if err <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err))
