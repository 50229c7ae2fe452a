"""Wave functions attached to the determinant tau, and the rational
structure of its spectral data.

The wave function is psi(t, z) = tau(t - [1/z]) / tau(t) exp(g(z)) with
g(z) = sum_i t_i z^i; its stationary (first-time-only) form t = (x,) is
the determinant ratio

    psi(x, z) = det(A e^{xB} (z I - B) C.T) / (z^n det(A e^{xB} C.T)) e^{xz},

normalized by z^n where n is the row count of A, so psi e^{-xz} -> 1 as
|z| -> infinity. The adjoint wave function flips the shift and the
exponential. The shift I - B/z acts on C.T, before the exponential, as
the right factor :func:`~kp_rankone.tau._shifted_right` builds for every
shifted value: where B has a kept eigenbasis a weight vector on the rows
of V^-1 C.T, the adjoint a division by it, so neither takes a product of
matrices or a solve; a triple without one takes an N x N product, the
adjoint a solve. Then psi and :func:`psi_grid` take one product with the
left factor and one ``slogdet`` of n x n slices (:func:`_psi_values`).
Values stay on the log scale (e^{xz} alone overflows doubles on moderate
grids), folded in Python floats by that one function for a point and a
grid, so a grid has the bits of its points.

The spectral support of the whole family is the eigenvalue multiset of
B: multiplying the adjoint shift by det(z I - B) clears every pole, for
every triple, admissible or not (by the Schur complement the product is
a bordered determinant, polynomial in z), and :func:`polynomiality_check`
verifies that claim by polynomial interpolation on a circle enclosing the
spectrum. Each node's resolvent is the same right factor again: in the
eigenbasis the weight vector 1 / (zeta - lam / r), so a node tau is one
n x n product and no solve; a triple without an eigenbasis takes one
stacked solve over the nodes, each of them well conditioned.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import GeometryError, PoleError
from .matkernel import ScaledComplex, eig, sign_phase, wrap_phase
from .tau import (
    TauEvaluator,
    TimeVector,
    TimesLike,
    _check_inverses,
    _fold,
    _shifted_right,
    _slogdet,
)
from .triple import RankOneTriple
from .verify import VerificationReport

__all__ = [
    "DEFAULT_POLY_TOL",
    "SpectralSupport",
    "BASample",
    "psi_stationary",
    "psi_time",
    "psi_dual",
    "psi_grid",
    "grassmann_support",
    "polynomiality_check",
]

DEFAULT_POLY_TOL = 1e-8

#: the check nodes of :func:`polynomiality_check` are turned by this
#: fraction of their spacing, so that none is a fit node
_CHECK_ROTATION = 0.37


@dataclass(frozen=True)
class SpectralSupport:
    """Eigenvalues of B with multiplicities; the degree is always N."""

    points: Tuple[Tuple[complex, int], ...]
    char_poly_degree: int


@dataclass(frozen=True)
class BASample:
    """One wave-function sample; ``value`` stays on the log scale."""

    x: complex
    z: complex
    value: ScaledComplex
    is_pole: bool = False

    @classmethod
    def pole(cls, x: complex, z: complex) -> "BASample":
        return cls(x, z, ScaledComplex(-math.inf, 0.0), True)

    @property
    def as_complex(self) -> complex:
        return self.value.to_complex()


def _spectral_parameters(zs) -> List[complex]:
    zs = [complex(z) for z in zs]
    if 0 in zs:
        raise ValueError("spectral parameter z must be nonzero")
    if not all(map(cmath.isfinite, zs)):
        raise ValueError("spectral parameter z must be finite")
    return zs


def _split(z: complex) -> Tuple[complex, float]:
    """(a, s) with s = 2^-e, e = max(0, exponent of |z|), and a = s z, both
    exact: |a| < 1 and s <= 1."""
    e = max(math.frexp(abs(z))[1], 0)
    return complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)), math.ldexp(1.0, -e)


def _psi_values(
    tr: RankOneTriple, ts: List[TimeVector], zs: List[complex], k: int
) -> List[Optional[ScaledComplex]]:
    """tau(t - k [1/z]) / tau(t) exp(k g(z)) for each z (outer) and base time
    t (inner), None where tau(t) vanishes; k = 1 is psi, -1 the adjoint
    (checked first by :func:`_check_inverses`).

    One ``slogdet`` takes det(L C.T) = tau(t) e^(-scale), L the left factor
    of the evaluator and scale its log factor, and per z det(L F^k C.T) =
    a^(k n) tau(t - k [1/z]) e^(-scale), F = a I - s B = s (z I - B)
    (:func:`_split`), with F^k C.T the right factor (a, s, k) over the
    stack of z (:func:`~kp_rankone.tau._shifted_right`): in the eigenbasis
    the weight vector a - s lam, or its inverse, on the rows of
    W = V^-1 C.T; without one the product F C.T, or a solve for the
    adjoint. Either way the shift acts on C.T before the exponential:
    K0 - K1 / z of the moment blocks would cancel the mode of an eigenvalue
    next to z after it. Each slice is its own product (n, N) @ (N, n): same
    bits in any stack. The quotient of a pair, times e^(k g(z)) over the
    gauge a^(k n), is folded in Python floats (:func:`_fold`). The exponent
    is g(z) or -g(z) as such: Python's k * g(z) would change the sign of a
    zero part."""
    ev = TauEvaluator(tr, np.array([t.values for t in ts]))
    if k == -1:
        _check_inverses(tr, zs)
    a, s = (np.array(v)[:, None] for v in zip(*map(_split, zs)))
    R = np.concatenate([_shifted_right(tr, ())[None], _shifted_right(tr, ((a, s, k),))])
    sign, logdet = _slogdet(ev._left[None] @ R[:, None])
    (lm0, *lms), (ph0, *phs) = logdet.tolist(), sign_phase(sign).tolist()
    values: List[Optional[ScaledComplex]] = []
    for z, a_z, lm1, ph1 in zip(zs, a.ravel().tolist(), lms, phs):
        gauge = k * tr.n * cmath.log(a_z)
        for t, l0, p0, l1, p1 in zip(ts, lm0, ph0, lm1, ph1):
            if l0 == -math.inf:
                values.append(None)
                continue
            g = t.g_scalar(z)
            value = _fold(l1 - l0, wrap_phase(p1 - p0), g if k == 1 else -g, gauge)
            values.append(ScaledComplex(*value))
    return values


def _psi_point(tr: RankOneTriple, t: TimesLike, z: complex, k: int) -> BASample:
    """The one value of :func:`_psi_values` at (t, z). Raises PoleError
    where tau(t) vanishes."""
    (z,) = _spectral_parameters([z])
    t = TimeVector.coerce(t)
    (value,) = _psi_values(tr, [t], [z], k)
    if value is None:
        raise PoleError("tau vanishes at the base time")
    return BASample(t.entry(1), z, value)


def psi_stationary(tr: RankOneTriple, x: complex, z: complex) -> BASample:
    """Stationary wave function at position x and spectral parameter z:
    :func:`psi_time` at t = (x,)."""
    return _psi_point(tr, (complex(x),), z, 1)


def psi_time(tr: RankOneTriple, t: TimesLike, z: complex) -> BASample:
    """tau(t - [1/z]) / tau(t) exp(g(z)), for a full time vector t."""
    return _psi_point(tr, t, z, 1)


def psi_dual(tr: RankOneTriple, t: TimesLike, z: complex) -> BASample:
    """Adjoint wave function tau(t + [1/z]) / tau(t) exp(-g(z)).

    The inverse shift factor requires z outside the spectrum of B.
    """
    return _psi_point(tr, t, z, -1)


def psi_grid(tr: RankOneTriple, x_values: Sequence[float], z_values) -> List[BASample]:
    """:func:`psi_stationary` over a grid, z outer and x inner, bit for bit:
    one left factor (:func:`~kp_rankone.tau._left_factor`), one
    product and one ``slogdet`` for the whole grid.
    Where tau(x) vanishes the sample is a pole, not a PoleError. An empty
    axis gives an empty list."""
    zs = _spectral_parameters(z_values)
    ts = [TimeVector.coerce((complex(x),)) for x in x_values]
    if not (ts and zs):
        return []
    xs = [t.entry(1) for t in ts]
    points = [(x, z) for z in zs for x in xs]
    return [
        BASample.pole(x, z) if value is None else BASample(x, z, value)
        for (x, z), value in zip(points, _psi_values(tr, ts, zs, 1))
    ]


def grassmann_support(tr: RankOneTriple) -> SpectralSupport:
    """Clustered eigenvalues of B; multiplicities sum to N."""
    return SpectralSupport(points=tuple(eig(tr.B)), char_poly_degree=tr.N)


@lru_cache(maxsize=16)
def _node_powers(M: int, rotation: float) -> np.ndarray:
    """zeta_k^p, k, p = 0 .. M - 1, for the M nodes
    zeta_k = e^(2 pi i (k + rotation) / M) of one circle, as a read-only
    (M, M) table kept per (M, rotation). Each entry is the twiddle
    e^(2 pi i m / M) of index m = k p mod M times e^(2 pi i rotation p / M),
    so a power is rounded once, not built up from rounded node powers.

    A twiddle is the cosine and sine of an angle of at most pi / 4: the
    index is folded into the first octant in integers and the quadrant
    restored by exact swaps and sign changes. So a node is as close to its
    exact root as a rounding allows, for every k; the characteristic
    polynomial, whose relative error is about N times a node's, is
    evaluated at these nodes.
    """
    k = np.arange(M)
    quadrant, m = np.divmod(4 * k, M)  # 2 pi k / M = pi / 2 (quadrant + m / M)
    high = 2 * m > M
    x = (math.pi / 2) * np.where(high, M - m, m) / M
    c, s = np.cos(x), np.sin(x)
    c, s = np.where(high, s, c), np.where(high, c, s)
    twiddles = np.choose(quadrant, [c, -s, -c, s]) + 1j * np.choose(quadrant, [s, c, -s, -c])
    Z = twiddles[np.outer(k, k) % M] * np.exp(2j * math.pi * rotation / M * k)
    Z.setflags(write=False)
    return Z


def _circle_taus(ev: TauEvaluator, r: float) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """tau(t + [1/z]) at the 3N + 1 nodes z = r zeta of
    :func:`polynomiality_check`: the N + 1 fit nodes, zeta^(N+1) = 1, then
    the 2N check nodes, zeta^(2N) = e^(2 pi i 0.37); ``ev`` is a
    single-point evaluator and r >= 2 ||B||_2. Returns the power tables of
    the two circles (:func:`_node_powers`), then log|tau| and the unit
    e^(i arg tau) at the nodes, circle by circle (log|tau| -inf and unit 0
    at an exact zero).

    tau(t + [1/z]) = z^n det(A E (z I - B)^-1 C.T) = e^scale zeta^n det S,
    where S = L (zeta I - B / r)^-1 C.T in the coordinates of L, the
    evaluator's left factor, and scale its log factor
    (:func:`~kp_rankone.tau._left_factor`). The resolvents of all nodes are
    one right factor (zeta, 1 / r, -1) over the stack of nodes
    (:func:`~kp_rankone.tau._shifted_right`): in the eigenbasis the weight
    vector 1 / (zeta - lam / r) on the rows of W = V^-1 C.T, no solve, and
    |zeta - lam / r| >= 1/2 keeps every weight within 2; without one a
    stacked solve over the nodes, and ||B / r||_2 <= 1/2 keeps the
    condition number of each zeta I - B / r at most 3, whatever ||B||_2.
    The 3N + 1 determinants take one ``slogdet``.
    """
    tr = ev.triple
    powers = [_node_powers(tr.N + 1, 0.0), _node_powers(2 * tr.N, _CHECK_ROTATION)]
    zeta = np.concatenate([Z[:, 1] for Z in powers])[:, None]
    S = ev._left[0] @ _shifted_right(tr, ((zeta, 1.0 / r, -1),))
    sign, logdet = _slogdet(S)
    scale = complex(ev.scale[0])
    unit = sign * np.concatenate([Z[:, tr.n] for Z in powers]) * cmath.exp(1j * scale.imag)
    return powers, logdet + scale.real, unit


def polynomiality_check(
    tr: RankOneTriple,
    t: TimesLike,
    tol: float = DEFAULT_POLY_TOL,
    radius: Optional[float] = None,
) -> VerificationReport:
    """Check that q(z) = det(z I - B) tau(t + [1/z]) is a polynomial of
    degree N whose top coefficient is tau(t).

    By the Schur complement, det(z I - B) det(A E (z I - B)^-1 C.T) is
    +-det([[z I - B, C.T], [A E, 0]]), a polynomial of degree at most
    N - n, and tau(t + [1/z]) carries the gauge z^n; so q is a polynomial
    of degree at most N for every triple, admissible or not, and the check
    tests how shifted taus are evaluated, not the rank-one condition (the
    bilinear check of :func:`~kp_rankone.verify.hbde_residual` does that).

    q is sampled at N + 1 equispaced nodes on a circle of radius
    r = max(2 + max|eig(B)|, 2 ||B||_2) (or the given override, which
    must be at least 2 ||B||_2, else GeometryError), fitted exactly in the
    DFT-conditioned basis (z / r)^k, and validated on 2N rotated nodes of
    the same circle. The nodes stay at least r / 2 from the spectrum, and
    their shifted taus come from one right factor over all 3N + 1 nodes
    (:func:`_circle_taus`). q / r^N is formed at all nodes at once: the
    characteristic polynomial from the kept eigenvalues of B as one
    product, the phases as products of unit complex numbers, and every
    node scaled by the peak |q| before the fit. The residual is the
    largest validation mismatch relative to the largest sampled |q|.
    """
    t = TimeVector.coerce(t)
    N = tr.N
    bound = 2.0 * tr.norm_B
    if radius is None:
        lam = tr.eigvals_B
        r = max(2.0 + float(np.max(np.abs(lam))), bound)
    else:
        r = float(radius)
        if not (math.isfinite(r) and r > 0.0 and r >= bound):
            raise GeometryError(
                f"radius {r} must be finite, positive and at least 2 ||B||_2 = {bound}"
            )
    powers, lm, unit = _circle_taus(TauEvaluator(tr, t), r)
    fit, check = powers
    zeta = np.concatenate([fit[:, 1], check[:, 1]])
    char_poly = np.prod(zeta[:, None] - tr.eigvals_B / r, axis=1)
    lm = lm + np.log(np.abs(char_poly))
    peak = float(lm.max())
    if peak == -math.inf:
        # the whole family vanishes; a zero function is trivially polynomial
        return VerificationReport.make("polynomiality", 0.0, tol, radius=r, degree=N)
    # q / (r^N e^peak) at every node
    scaled = np.exp(lm - peak) * (unit * (char_poly / np.abs(char_poly)))
    # the inverse DFT of the fit nodes, then the series at the check nodes
    coeffs = fit.conj() @ scaled[: N + 1] / (N + 1)
    residual = float(np.max(np.abs(check[:, : N + 1] @ coeffs - scaled[N + 1 :])))
    # the coefficient of z^N, which equals tau(t)
    leading = ScaledComplex(peak, 0.0) * ScaledComplex.from_complex(complex(coeffs[-1]))
    return VerificationReport.make(
        "polynomiality",
        residual,
        tol,
        radius=r,
        degree=N,
        leading_coefficient=leading,
    )
