"""Wave functions attached to the determinant tau, and the rational
structure of its spectral data.

The wave function is psi(t, z) = tau(t - [1/z]) / tau(t) exp(g(z)) with
g(z) = sum_i t_i z^i; its stationary (first-time-only) form t = (x,) is
the determinant ratio

    psi(x, z) = det(A e^{xB} (z I - B) C.T) / (z^n det(A e^{xB} C.T)) e^{xz},

normalized by z^n where n is the row count of A, so psi e^{-xz} -> 1 as
|z| -> infinity. The adjoint wave function flips the shift and the
exponential. The three point functions and :func:`psi_grid` share one
body: Miwa-shifted taus over plain taus from one :class:`TauEvaluator`
stack of base times, times exp(+-g(z)), so a grid of x takes one
exponential and the plain and every shifted tau one shifted-determinant
call. Values are carried as ScaledComplex because e^{xz} alone
overflows doubles on moderate grids.

The spectral support of the whole family is the eigenvalue multiset of
B: multiplying the adjoint shift by det(z I - B) clears every pole, and
:func:`polynomiality_check` verifies that claim by polynomial
interpolation on a circle enclosing the spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import GeometryError, PoleError, SingularShiftError
from .matkernel import ScaledComplex, eig
from .tau import TauEvaluator, TimeVector, TimesLike, _miwa_gauge
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


def _psi(tr: RankOneTriple, ts: List[TimeVector], zs, k: int) -> List[BASample]:
    """tau(t - k [1/z]) / tau(t) exp(k g(z)), z outer and t inner (ts nonempty,
    of one length); k = 1 gives psi, k = -1 its adjoint. One
    :class:`TauEvaluator` holds every t; where tau(t) vanishes the sample
    is a pole."""
    zs = [complex(z) for z in zs]
    if 0 in zs:
        raise ValueError("spectral parameter z must be nonzero")
    ev = TauEvaluator(tr, np.array([t.values for t in ts]))
    bases, *rows = ev.shifted_dets([()] + [((z, k),) for z in zs])
    out = []
    for z, row in zip(zs, rows):
        gauge = _miwa_gauge(tr.n, ((z, k),))
        for t, base, shifted in zip(ts, bases, row):
            if base.is_zero:
                out.append(BASample.pole(t.entry(1), z))
            else:
                val = shifted / gauge / base * ScaledComplex.exp_of(k * t.g_scalar(z))
                out.append(BASample(t.entry(1), z, val))
    return out


def _psi_point(tr: RankOneTriple, t: TimesLike, z: complex, k: int) -> BASample:
    sample = _psi(tr, [TimeVector.coerce(t)], [z], k)[0]
    if sample.is_pole:
        raise PoleError("tau vanishes at the base time")
    return sample


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
    """:func:`psi_stationary` over a grid, z outer and x inner, from one
    exponential; where tau(x) vanishes the sample is a pole, not a PoleError."""
    return _psi(tr, [TimeVector.coerce((complex(x),)) for x in x_values], z_values, 1)


def grassmann_support(tr: RankOneTriple) -> SpectralSupport:
    """Clustered eigenvalues of B; multiplicities sum to N."""
    return SpectralSupport(points=tuple(eig(tr.B)), char_poly_degree=tr.N)


def polynomiality_check(
    tr: RankOneTriple,
    t: TimesLike,
    tol: float = DEFAULT_POLY_TOL,
    radius: Optional[float] = None,
) -> VerificationReport:
    """Check that q(z) = det(z I - B) tau(t + [1/z]) is a degree-N polynomial.

    q is sampled at N + 1 equispaced nodes on a circle of radius
    2 + max|eig(B)| (or the given override), fitted exactly in the
    DFT-conditioned basis (z / r)^k, and validated on 2N rotated nodes of
    the same circle; all 3N + 1 shifted taus come from one
    :meth:`~kp_rankone.tau.TauEvaluator.shifted_dets` call, which makes
    one stacked solve. The residual is the largest validation mismatch
    relative to the largest sampled |q|. Rank-one admissibility is what
    makes this hold; generic B of full support would need degree n(N-1).
    """
    t = TimeVector.coerce(t)
    N = tr.N
    lam = tr.eigvals_B
    spec_radius = float(np.max(np.abs(lam))) if lam.size else 0.0
    r = float(radius) if radius is not None else 2.0 + spec_radius
    ev = TauEvaluator(tr, t)

    for _ in range(5):
        fit_nodes = r * np.exp(2j * np.pi * np.arange(N + 1) / (N + 1))
        check_nodes = r * np.exp(2j * np.pi * (np.arange(2 * N) + 0.37) / (2 * N))
        all_nodes = np.concatenate([fit_nodes, check_nodes])
        if np.min(np.abs(all_nodes[:, None] - lam[None, :])) < 1e-8 * r:
            r *= 1.3
            continue
        sets = [((complex(z), -1),) for z in all_nodes]
        try:
            rows = ev.shifted_dets(sets)
        except SingularShiftError:
            r *= 1.3
            continue
        break
    else:
        raise GeometryError("could not place interpolation nodes off the spectrum")

    # q(z) = det(z I - B) tau(t + [1/z]), the char poly taken from the spectrum
    q_vals = [
        row[0] / _miwa_gauge(tr.n, shifts) * complex(np.prod(z - lam))
        for row, shifts, z in zip(rows, sets, all_nodes)
    ]
    peak = max(q.log_magnitude for q in q_vals)
    if peak == -math.inf:
        # the whole family vanishes; a zero function is trivially polynomial
        return VerificationReport.make("polynomiality", 0.0, tol, radius=r, degree=N)
    scaled = np.array(
        [
            (q / ScaledComplex(peak, 0.0)).to_complex()
            for q in q_vals
        ],
        dtype=np.complex128,
    )
    V = (fit_nodes[:, None] / r) ** np.arange(N + 1)[None, :]
    coeffs = np.linalg.solve(V, scaled[: N + 1])
    Vc = (check_nodes[:, None] / r) ** np.arange(N + 1)[None, :]
    predicted = Vc @ coeffs
    residual = float(np.max(np.abs(predicted - scaled[N + 1 :])))
    # undo the peak normalization and the (z/r)^k basis scaling so the
    # reported value is the coefficient of z^N itself (equals tau(t))
    leading = (
        ScaledComplex(peak, 0.0)
        * ScaledComplex.from_complex(complex(coeffs[-1]))
        / ScaledComplex.exp_of(N * math.log(r))
    )
    return VerificationReport.make(
        "polynomiality",
        residual,
        tol,
        radius=r,
        degree=N,
        leading_coefficient=leading,
    )
