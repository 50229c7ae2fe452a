"""Residual checks for every identity the determinant tau is supposed to
satisfy, each packaged as a :class:`VerificationReport`.

All residuals are relative: the defect is divided by the magnitude of
the largest contributing term, so "small" means small compared to the
quantities that were combined, not on some absolute scale. The bilinear
lattice residual is formed as arrays from the signs and log magnitudes of
its six determinants, with no tau folded on its own.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .cases import (
    CalogeroMoserData,
    IntertwiningData,
    from_calogero_moser,
    from_intertwining,
    wilson_tau_closed_form,
)
from .errors import (
    DegenerateSpectrumError,
    DimensionError,
    GeometryError,
    InadmissibleTripleError,
)
from .matkernel import (
    _integral,
    _log_peak,
    as_cmatrix,
    det_scaled,
    matexp,
    numerical_rank,
    rel_difference,
    ScaledComplex,
)
from .tau import TauEvaluator, TimeVector, TimesLike, _slogdet, tau
from .triple import RankOneTriple

__all__ = [
    "DEFAULT_HBDE_TOL",
    "DEFAULT_KP_TOL",
    "DEFAULT_H3_TOL",
    "DEFAULT_BETHE_TOL",
    "DEFAULT_WILSON_TOL",
    "DEFAULT_INTERTWINING_TOL",
    "VerificationReport",
    "draw_lattice_parameters",
    "hbde_residual",
    "kp_residual",
    "h3_residual",
    "bethe_check",
    "crosscheck_wilson",
    "crosscheck_intertwining",
]

DEFAULT_HBDE_TOL = 1e-8
DEFAULT_KP_TOL = 1e-8
DEFAULT_H3_TOL = 1e-10
DEFAULT_BETHE_TOL = 1e-8
DEFAULT_WILSON_TOL = 1e-10
DEFAULT_INTERTWINING_TOL = 1e-12


@dataclass(frozen=True)
class VerificationReport:
    """One named residual against one tolerance, with free-form context."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    context: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def make(cls, name: str, residual: float, tolerance: float, **context) -> "VerificationReport":
        residual = float(residual)
        if not (residual >= 0.0):  # also rejects nan
            raise ValueError(f"residual must be a non-negative number, got {residual}")
        return cls(
            name=name,
            residual=residual,
            tolerance=float(tolerance),
            passed=bool(residual <= tolerance),
            context=dict(context),
        )


def draw_lattice_parameters(rng: np.random.Generator, B) -> List[complex]:
    """Three distinct lattice parameters for :func:`hbde_residual`, reproducibly.

    ``B`` is a square matrix or a :class:`RankOneTriple`, whose kept
    eigenvalues of B are used (no eigendecomposition per draw).
    Candidates c = (1 + 2 u) e^{2 pi i v}, with u, v two successive
    ``rng.random()`` draws, so 1 <= |c| <= 3; a candidate is kept when it
    lies at least 0.3 from every eigenvalue of B and 0.2 from every kept
    one. Raises GeometryError after 1000 candidates.
    """
    lam = B.eigvals_B if isinstance(B, RankOneTriple) else np.linalg.eigvals(B)
    out: List[complex] = []
    for _ in range(1000):
        c = complex((1.0 + 2.0 * rng.random()) * np.exp(2j * np.pi * rng.random()))
        if np.min(np.abs(lam - c)) < 0.3:
            continue
        if any(abs(c - p) < 0.2 for p in out):
            continue
        out.append(c)
        if len(out) == 3:
            return out
    raise GeometryError("could not draw lattice parameters away from the spectrum")


# the six taus of the three-term identity, in the order of its terms: the
# site (l, m, n) stepped by one in each listed parameter (0: c1, 1: c2, 2: c3)
_HBDE_STEPS = ((0,), (1, 2), (1,), (0, 2), (2,), (0, 1))


def _hbde_dets(
    tr: RankOneTriple, t: TimesLike, c: Tuple[complex, complex, complex], site: Tuple[int, int, int]
) -> Tuple[np.ndarray, np.ndarray, complex, List[complex]]:
    """The six Miwa determinants of the bilinear identity at ``site``, in
    ``_HBDE_STEPS`` order: (sign, log|det|) arrays (6,) of one ``slogdet``,
    the evaluator's scale and the six gauges, with tau = det e^scale /
    e^gauge.

    A step in c_a, or in c_a and c_b, multiplies the site factor
    R = prod_j (c_j I - B)^site_j C.T by c_a I - B, or by
    (c_a I - B)(c_b I - B), so its determinant is that of an n x n
    combination of the three moment blocks K_j = L B^j R of the left factor
    L (:meth:`TauEvaluator.moment_blocks`): c_a K0 - K1, or
    c_a c_b K0 - (c_a + c_b) K1 + K2. The six combinations are one stacked
    product and take one ``slogdet``. The gauge (prod_j c_j^k_j)^n of each
    is n sum_j k_j log c_j, summed in Python complex arithmetic.
    """
    ev = TauEvaluator(tr, t)
    n = tr.n
    # row i of K0, K1, K2 at K[i]
    K = ev.moment_blocks(tuple(zip(c, site)), 2)[0].reshape(n, 3, n)
    n_logs = [n * cmath.log(cj) for cj in c]
    site_gauge = site[0] * n_logs[0] + site[1] * n_logs[1] + site[2] * n_logs[2]
    weights, gauges = [], []  # weights: the (K0, K1, K2) coefficients, flat
    for step in _HBDE_STEPS:
        if len(step) == 1:
            a = step[0]
            weights += (c[a], -1.0, 0.0)
            gauges.append(site_gauge + n_logs[a])
        else:
            a, b = step
            weights += (c[a] * c[b], -(c[a] + c[b]), 1.0)
            gauges.append(site_gauge + n_logs[a] + n_logs[b])
    M = np.array(weights, dtype=np.complex128).reshape(6, 3) @ K
    signs, logdets = _slogdet(M.swapaxes(0, 1))
    return signs, logdets, complex(ev.scale[0]), gauges


def hbde_residual(
    tr: RankOneTriple,
    t: TimesLike,
    c1: complex,
    c2: complex,
    c3: complex,
    l: int = 0,
    m: int = 0,
    n_index: int = 0,
    tol: float = DEFAULT_HBDE_TOL,
) -> VerificationReport:
    """Three-term bilinear lattice residual at one lattice site.

    With T(i, j, k) the tau shifted by i [1/c1] + j [1/c2] + k [1/c3]
    from base time t, the combination

        (c2 - c3) T(l+1, m, n) T(l, m+1, n+1)
      - (c1 - c3) T(l, m+1, n) T(l+1, m, n+1)
      + (c1 - c2) T(l, m, n+1) T(l+1, m+1, n)

    vanishes identically for admissible triples. The report carries
    |sum| / max term magnitude, evaluated on the log scale. The six
    shifted taus are n x n combinations of three moment blocks of one
    site factor (:func:`_hbde_dets`), so the check takes one shifted right
    factor (none at site (0, 0, 0)), one product with the left factor and
    one n x n ``slogdet``; checks at one base time share its left factor.

    Each pair of taus carries the scale twice and the gauges of both steps,
    2 site gauge + n sum_j log c_j in every term, so that common factor
    drops out of |sum| / max and the terms are formed from the
    determinants as arrays: the term log magnitudes (reported as
    ``term_log_magnitudes``) from the folded log|tau|, (log|det| + Re scale)
    - Re gauge, the term phases as the unit signs sign_a sign_b w / |w|.
    An exact zero determinant drops out of the sum; where every term lies
    below ~1e-300, IndeterminateScaleError.
    """
    c1, c2, c3 = complex(c1), complex(c2), complex(c3)
    l, m, n_index = _integral(l, "l"), _integral(m, "m"), _integral(n_index, "n_index")
    if len({c1, c2, c3}) < 3:
        raise ValueError("the three lattice parameters must be distinct")
    if 0 in (c1, c2, c3):
        raise ValueError("lattice parameters must be nonzero")
    if not all(map(cmath.isfinite, (c1, c2, c3))):
        raise ValueError("shift parameter c must be finite")
    signs, logdets, scale, gauges = _hbde_dets(tr, t, (c1, c2, c3), (l, m, n_index))
    lm = (logdets + scale.real) - np.array([g.real for g in gauges])
    # T0 T1 (c2 - c3), T2 T3 (-(c1 - c3)), T4 T5 (c1 - c2)
    w = (c2 - c3, -(c1 - c3), c1 - c2)
    term_lm = (lm[0::2] + lm[1::2]) + np.array([math.log(abs(x)) for x in w])
    peak = _log_peak(term_lm)
    units = signs[0::2] * signs[1::2] * np.array([x / abs(x) for x in w])
    return VerificationReport.make(
        "hbde",
        abs(np.exp(term_lm - peak) @ units),
        tol,
        c=[c1, c2, c3],
        site=[l, m, n_index],
        term_log_magnitudes=term_lm.tolist(),
    )


def kp_residual(tr: RankOneTriple, t: TimesLike, tol: float = DEFAULT_KP_TOL) -> VerificationReport:
    """Bilinear residual of the first continuous equation of the hierarchy.

    Checks 2(T1111 T - 4 T111 T1 + 3 T11^2) - 8(T13 T - T1 T3)
    + 6(T22 T - T2^2) = 0, with subscripts denoting tau derivatives.
    Divided by tau^2 and written in the log derivatives L_a of tau, which
    :meth:`TauEvaluator.log_derivatives` returns exactly from one left
    factor and one solve, the left side collapses to
    2 L1111 + 12 L11^2 - 8 L13 + 6 L22. The scale is the largest monomial
    of the seven products expanded in the L_a, which stays positive when
    the products themselves vanish, as they do for tau linear in t_1.
    """
    L1, L2, L3, L11, L22, L13, L111, L1111 = TauEvaluator(tr, t).log_derivatives(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (1, 0, 1), (3, 0, 0), (4, 0, 0))
    )
    monomials = [
        2 * L1111,
        8 * L1 * L111,
        6 * L11 ** 2,
        24 * L1 ** 2 * L11,
        8 * L1 ** 4,
        8 * L13,
        8 * L1 * L3,
        6 * L22,
        6 * L2 ** 2,
    ]
    scale = max(abs(x) for x in monomials)
    defect = 2 * L1111 + 12 * L11 ** 2 - 8 * L13 + 6 * L22
    residual = abs(defect) / scale if scale > 0.0 else 0.0
    return VerificationReport.make(
        "kp", residual, tol, scale=scale, log_derivatives={"L1": L1, "L11": L11}
    )


def h3_residual(
    P,
    Q,
    c1: complex,
    c2: complex,
    c3: complex,
    tol: float = DEFAULT_H3_TOL,
) -> VerificationReport:
    """Alternating three-point determinant identity for rank-one Q.

    With h1(c) = det(c I - P) and h2(a, b) = det((a I - P)(b I - P) + Q),
    the *weighted* combination

        (c2 - c3) h1(c1) h2(c2, c3) - (c1 - c3) h1(c2) h2(c1, c3)
      + (c1 - c2) h1(c3) h2(c1, c2)

    vanishes whenever rank(Q) <= 1. The unweighted ("printed") form
    h1(c1) h2(c2, c3) - h1(c2) h2(c1, c3) + h1(c3) h2(c1, c2) does NOT
    vanish in general (for 1 x 1 P = 0 it equals c1 c2 c3 +
    (c1 - c2 + c3) Q); both values are reported, the residual is the
    weighted one.
    """
    P = as_cmatrix(P, "P")
    Q = as_cmatrix(Q, "Q")
    n = P.shape[0]
    if P.shape != (n, n) or Q.shape != (n, n):
        raise DimensionError(f"P and Q must be square and equal-sized, got {P.shape}, {Q.shape}")
    if numerical_rank(Q) > 1:
        raise InadmissibleTripleError(f"rank(Q) = {numerical_rank(Q)} > 1")
    c1, c2, c3 = complex(c1), complex(c2), complex(c3)
    I = np.eye(n, dtype=np.complex128)

    def h1(c: complex) -> complex:
        return complex(np.linalg.det(c * I - P))

    def h2(a: complex, b: complex) -> complex:
        return complex(np.linalg.det((a * I - P) @ (b * I - P) + Q))

    w_terms = [
        (c2 - c3) * h1(c1) * h2(c2, c3),
        -(c1 - c3) * h1(c2) * h2(c1, c3),
        (c1 - c2) * h1(c3) * h2(c1, c2),
    ]
    printed = h1(c1) * h2(c2, c3) - h1(c2) * h2(c1, c3) + h1(c3) * h2(c1, c2)
    scale = max(abs(x) for x in w_terms)
    residual = abs(sum(w_terms)) / scale if scale > 0.0 else 0.0
    return VerificationReport.make(
        "h3",
        residual,
        tol,
        weighted_value=sum(w_terms),
        printed_value=printed,
        scale=scale,
    )


def bethe_check(
    d: CalogeroMoserData,
    eta: complex,
    lambda1: complex,
    lambda2: complex,
    m: int = 1,
    tol: float = DEFAULT_BETHE_TOL,
) -> VerificationReport:
    """Product form of the rational nested spectral equations.

    Builds X(m) = -eta X (lambda1 - Z) - m eta (lambda2 - Z)^-1 (lambda1 - Z)
    for m - 1, m, m + 1, takes eigenvalues x_j^m of each, and checks for
    every j that

        prod_k [(x_j^m - x_k^(m-1)) (x_j^m - x_k^m + eta)
                (x_j^m - x_k^(m+1) - eta)]
              / [(x_j^m - x_k^(m-1) + eta) (x_j^m - x_k^m - eta)
                (x_j^m - x_k^(m+1))]  =  -1.

    The reported residual is max_j |product_j + 1|.
    """
    eta = complex(eta)
    lambda1 = complex(lambda1)
    lambda2 = complex(lambda2)
    if eta == 0:
        raise ValueError("eta must be nonzero")
    n = d.n
    I = np.eye(n, dtype=np.complex128)
    comm = d.X @ d.Z - d.Z @ d.X + I
    r = numerical_rank(comm)
    if r > 1:
        raise InadmissibleTripleError(f"commutator condition fails: rank([X, Z] + I) = {r} > 1")
    shifted = lambda2 * I - d.Z
    s = np.linalg.svd(shifted, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise DegenerateSpectrumError("lambda2 must stay away from the spectrum of Z")
    resolvent = np.linalg.solve(shifted, lambda1 * I - d.Z)

    def lax(mm: int) -> np.ndarray:
        return -eta * d.X @ (lambda1 * I - d.Z) - mm * eta * resolvent

    spectra = {mm: np.linalg.eigvals(lax(mm)) for mm in (m - 1, m, m + 1)}
    scale = max(
        [abs(eta)] + [float(np.max(np.abs(v))) for v in spectra.values()]
    )
    worst = 0.0
    for j in range(n):
        xj = spectra[m][j]
        prod = 1.0 + 0j
        for k in range(n):
            num = (
                (xj - spectra[m - 1][k])
                * (xj - spectra[m][k] + eta)
                * (xj - spectra[m + 1][k] - eta)
            )
            den = (
                (xj - spectra[m - 1][k] + eta)
                * (xj - spectra[m][k] - eta)
                * (xj - spectra[m + 1][k])
            )
            if abs(den) <= 1e-12 * scale ** 3:
                raise DegenerateSpectrumError(
                    "near-zero denominator in the spectral product; the "
                    "parameters sit on a collision locus"
                )
            prod *= num / den
        worst = max(worst, abs(prod + 1.0))
    return VerificationReport.make(
        "bethe",
        worst,
        tol,
        m=int(m),
        eta=eta,
        lambda1=lambda1,
        lambda2=lambda2,
        spectrum=[complex(v) for v in np.sort_complex(spectra[m])],
    )


def crosscheck_wilson(
    d: CalogeroMoserData, t: TimesLike, tol: float = DEFAULT_WILSON_TOL
) -> VerificationReport:
    """General determinant route against det(exp(g(Z))) det(X + g'(Z)),
    with the gauge det(exp(g(Z))) = exp(tr g(Z)) in exact form."""
    t = TimeVector.coerce(t)
    tr = from_calogero_moser(d)
    lhs = tau(tr, t)
    gauge = ScaledComplex.exp_of(np.trace(t.g_matrix(d.Z)))
    rhs = gauge * wilson_tau_closed_form(d, t)
    residual = rel_difference(lhs, rhs)
    return VerificationReport.make(
        "crosscheck_wilson",
        residual,
        tol,
        lhs_log_magnitude=lhs.log_magnitude,
        rhs_log_magnitude=rhs.log_magnitude,
    )


def crosscheck_intertwining(
    d: IntertwiningData, t: TimesLike, tol: float = DEFAULT_INTERTWINING_TOL
) -> VerificationReport:
    """General determinant route against det(X exp(g(Z)) + exp(g(Y))).

    Needs square X (so the default C = [I I] applies).
    """
    if d.m != d.n:
        raise DimensionError(
            f"the closed form needs square X, got shape {d.X.shape}"
        )
    t = TimeVector.coerce(t)
    tr = from_intertwining(d)
    lhs = tau(tr, t)
    rhs = det_scaled(d.X @ matexp(t.g_matrix(d.Z)) + matexp(t.g_matrix(d.Y)))
    residual = rel_difference(lhs, rhs)
    return VerificationReport.make(
        "crosscheck_intertwining",
        residual,
        tol,
        lhs_log_magnitude=lhs.log_magnitude,
        rhs_log_magnitude=rhs.log_magnitude,
    )
