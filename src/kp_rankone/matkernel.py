"""Dense complex linear algebra kernel.

Everything in this package works on plain ``numpy`` arrays of
``complex128``; :func:`as_cmatrix` (with a stack form for
:func:`expm_centered` and :func:`det_scaled`, which take stacks
(..., k, k)) is the single validation point that coerces, copies and
finiteness-checks input at API boundaries.
Determinants (and anything else that can outgrow doubles) are carried as
:class:`ScaledComplex` values, which keep the natural log of the
magnitude separate from the phase so products spanning thousands of
orders of magnitude remain exact to relative rounding error. Many such
values at once travel as a *log-scale pair* of float arrays (log|w|,
phase), log magnitude -inf for an exact zero: :func:`slogdet_scaled`
makes them, :func:`log_scale_mul` and :func:`log_scale_div` combine
them and :func:`scaled_values` turns them into ScaledComplex values.
Each gives, entry by entry, the bits the ScaledComplex operation gives.

Numerical backends, all in ``numpy``: the matrix exponential by scaling
and squaring with a Pade core (:func:`_expm`; defective matrices are
fine, and a stack (..., k, k) costs a few batched products and one
batched solve), LU via ``numpy.linalg.slogdet`` for determinants, and
SVD for ranks and kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    IndeterminateScaleError,
    RangeError,
)

__all__ = [
    "DEFAULT_RANK_TOL",
    "EIG_CLUSTER_TOL",
    "ScaledComplex",
    "as_cmatrix",
    "wrap_phase",
    "log_scale",
    "log_scale_exp",
    "log_scale_mul",
    "log_scale_div",
    "scaled_values",
    "rel_difference",
    "residual_of_sum",
    "residual_of_log_sum",
    "matexp",
    "expm_centered",
    "det_scaled",
    "slogdet_scaled",
    "numerical_rank",
    "nullspace_rows",
    "spectral_norm",
    "eig",
]

#: relative threshold (against the largest singular value) used everywhere
#: a numerical rank decision is made
DEFAULT_RANK_TOL = 1e-9

#: absolute distance below which two eigenvalues are merged into one
#: support point with summed multiplicity
EIG_CLUSTER_TOL = 1e-7

# exp() beyond this overflows a double
_LOG_DOUBLE_MAX = 709.0
# below this magnitude a residual has no meaningful relative scale
_LOG_TINY = math.log(1e-300)
_TWO_PI = 2.0 * math.pi


def as_cmatrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, nonempty 2-D complex128 array (always copies)."""
    arr = np.array(M, dtype=np.complex128, order="C")
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {arr.shape}")
    return _finite_nonempty(arr, name)


def _as_square_stack(M, name: str) -> np.ndarray:
    """Coerce to a finite, nonempty stack (..., k, k) of square complex128 matrices."""
    arr = np.array(M, dtype=np.complex128, order="C")
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {arr.shape}")
    return _finite_nonempty(arr, name)


def _finite_nonempty(arr: np.ndarray, name: str) -> np.ndarray:
    if arr.size == 0:
        raise DimensionError(f"{name} must be nonempty")
    if not np.isfinite(arr).all():
        raise DegenerateInputError(f"{name} contains non-finite entries")
    return arr


def _require_square(M: np.ndarray, name: str = "matrix") -> None:
    if M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")


def wrap_phase(p: float) -> float:
    """Reduce an angle to the interval (-pi, pi]."""
    w = math.remainder(p, _TWO_PI)
    if w <= -math.pi:
        w += _TWO_PI
    return w


def _log_polar(w: complex) -> Tuple[float, float]:
    """(log|w|, arg w) of a finite complex w, (-inf, 0.0) for zero."""
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError("cannot represent a non-finite complex value")
    if w == 0:
        return -math.inf, 0.0
    # atan2, not cmath.phase: the latter raises on a subnormal part
    return math.log(abs(w)), wrap_phase(math.atan2(w.imag, w.real))


def _exp_polar(w: complex) -> Tuple[float, float]:
    """(log|e^w|, arg e^w) of a finite complex w."""
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError("exponent must be finite")
    return w.real, wrap_phase(w.imag)


def _wrap_near(w: np.ndarray) -> np.ndarray:
    """Wrap, in place, an array of phases in (-2 pi, 2 pi] to (-pi, pi], as
    :func:`wrap_phase` does: one subtraction or addition of 2 pi suffices
    there and is exact (Sterbenz)."""
    np.subtract(w, _TWO_PI, out=w, where=w > math.pi)
    np.add(w, _TWO_PI, out=w, where=w <= -math.pi)
    return w


@dataclass(frozen=True)
class ScaledComplex:
    """A complex value stored as (log magnitude, phase).

    ``log_magnitude`` is ln|w|, with -inf encoding an exact zero;
    ``phase`` lies in (-pi, pi]. Multiplication and division act on the
    log scale. Conversion back to a plain complex is exact to relative
    rounding as long as |log_magnitude| stays under ~709.
    """

    log_magnitude: float
    phase: float = 0.0

    @classmethod
    def from_complex(cls, w) -> "ScaledComplex":
        return cls(*_log_polar(complex(w)))

    @classmethod
    def one(cls) -> "ScaledComplex":
        return cls(0.0, 0.0)

    @classmethod
    def exp_of(cls, w) -> "ScaledComplex":
        """exp(w) for arbitrary complex w, without overflow."""
        return cls(*_exp_polar(complex(w)))

    @property
    def is_zero(self) -> bool:
        return self.log_magnitude == -math.inf

    def to_complex(self) -> complex:
        if self.is_zero:
            return 0j
        if self.log_magnitude > _LOG_DOUBLE_MAX:
            raise RangeError(
                f"log magnitude {self.log_magnitude:.3g} exceeds double range; "
                "keep the value in scaled form"
            )
        r = math.exp(self.log_magnitude)
        return complex(r * math.cos(self.phase), r * math.sin(self.phase))

    def _coerce(self, other):
        if isinstance(other, ScaledComplex):
            return other
        if isinstance(other, (int, float, complex, np.integer, np.floating, np.complexfloating)):
            return ScaledComplex.from_complex(complex(other))
        return None

    def __mul__(self, other):
        sc = self._coerce(other)
        if sc is None:
            return NotImplemented
        if self.is_zero or sc.is_zero:
            return ScaledComplex(-math.inf, 0.0)
        return ScaledComplex(
            self.log_magnitude + sc.log_magnitude,
            wrap_phase(self.phase + sc.phase),
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        sc = self._coerce(other)
        if sc is None:
            return NotImplemented
        if sc.is_zero:
            raise ZeroDivisionError("division by an exact scaled zero")
        if self.is_zero:
            return ScaledComplex(-math.inf, 0.0)
        return ScaledComplex(
            self.log_magnitude - sc.log_magnitude,
            wrap_phase(self.phase - sc.phase),
        )

    def __rtruediv__(self, other):
        sc = self._coerce(other)
        if sc is None:
            return NotImplemented
        return sc / self

    def __pow__(self, k: int):
        if not isinstance(k, (int, np.integer)):
            return NotImplemented
        k = int(k)
        if self.is_zero:
            if k > 0:
                return ScaledComplex(-math.inf, 0.0)
            if k == 0:
                return ScaledComplex.one()
            raise ZeroDivisionError("negative power of an exact scaled zero")
        return ScaledComplex(k * self.log_magnitude, wrap_phase(k * self.phase))

    def __neg__(self):
        if self.is_zero:
            return self
        return ScaledComplex(self.log_magnitude, wrap_phase(self.phase + math.pi))


def rel_difference(a: ScaledComplex, b: ScaledComplex) -> float:
    """|a - b| / max(|a|, |b|); zero when both inputs are exact zeros."""
    if a.is_zero and b.is_zero:
        return 0.0
    if a.is_zero or b.is_zero:
        return 1.0
    big, small = (a, b) if a.log_magnitude >= b.log_magnitude else (b, a)
    ratio = small / big  # magnitude <= 1, safe to realize
    return abs(1.0 - ratio.to_complex())


def residual_of_sum(terms: Iterable[ScaledComplex]) -> float:
    """|sum(terms)| / max|term|, evaluated with the peak magnitude factored out.

    Raises IndeterminateScaleError when every term lies below ~1e-300,
    in which case a relative residual carries no information.
    """
    terms = list(terms)
    return residual_of_log_sum([t.log_magnitude for t in terms], [t.phase for t in terms])


def residual_of_log_sum(log_magnitudes: List[float], phases: List[float]) -> float:
    """:func:`residual_of_sum` of the terms exp(log_magnitude + i phase),
    given as two lists of floats (-inf for an exact zero)."""
    if not log_magnitudes:
        raise ValueError("need at least one term")
    peak = max(log_magnitudes)
    if peak < _LOG_TINY:
        raise IndeterminateScaleError(
            "all terms are below 1e-300 in magnitude; relative residual undefined"
        )
    acc = 0j
    for lm, ph in zip(log_magnitudes, phases):
        if lm == -math.inf:
            continue  # an exact zero, whatever its phase
        r = math.exp(lm - peak)
        acc += complex(r * math.cos(ph), r * math.sin(ph))
    return abs(acc)


# ---------------------------------------------------------------------------
# log-scale pairs: many ScaledComplex values as two float arrays
# ---------------------------------------------------------------------------
#
# A log-scale pair (log|w|, phase) holds, entry by entry, what a
# ScaledComplex holds, and the functions below give the bits the
# ScaledComplex operations give. Log magnitude -inf is an exact zero; its
# phase means nothing inside the arithmetic (a product with a zero keeps
# the other factor's phase) and reads as 0.0 wherever a value leaves the
# pair (:func:`scaled_values`, :func:`residual_of_log_sum`).

LogScale = Tuple[np.ndarray, np.ndarray]


def log_scale(values: Iterable[complex]) -> LogScale:
    """(log|w|, arg w) of each finite complex w, as
    :meth:`ScaledComplex.from_complex` gives them."""
    polar = [_log_polar(complex(w)) for w in values]
    lm, ph = np.array(polar, dtype=np.float64).reshape(-1, 2).T
    return lm, ph


def log_scale_exp(exponents: Iterable[complex]) -> LogScale:
    """exp(w) of each finite complex w, as :meth:`ScaledComplex.exp_of`
    gives it."""
    polar = [_exp_polar(complex(w)) for w in exponents]
    lm, ph = np.array(polar, dtype=np.float64).reshape(-1, 2).T
    return lm, ph


def log_scale_mul(a: LogScale, b: LogScale) -> LogScale:
    """Entrywise product of two log-scale pairs of arrays (broadcast)."""
    return a[0] + b[0], _wrap_near(a[1] + b[1])


def log_scale_div(a: LogScale, b: LogScale) -> LogScale:
    """Entrywise quotient of two log-scale pairs of arrays (broadcast);
    ``b`` must hold no exact zero."""
    return a[0] - b[0], _wrap_near(a[1] - b[1])


def scaled_values(a: LogScale) -> List[ScaledComplex]:
    """The entries of a log-scale pair as ScaledComplex values, in C order."""
    return [
        ScaledComplex(lm, ph if lm != -math.inf else 0.0)
        for lm, ph in zip(np.ravel(a[0]).tolist(), np.ravel(a[1]).tolist())
    ]


# ---------------------------------------------------------------------------
# matrix exponential: scaling and squaring with a Pade core
# ---------------------------------------------------------------------------
#
# Degree m and scaling s follow Al-Mohy & Higham, "A new scaling and
# squaring algorithm for the matrix exponential" (SIAM J. Matrix Anal.
# Appl. 31, 2009), Algorithm 5.1, with exact 1-norms of the even powers in
# place of norm estimates; the Pade evaluation is that of Higham, "The
# scaling and squaring method for the matrix exponential revisited"
# (SIAM J. Matrix Anal. Appl. 26, 2005), eqs. (2.3) and (2.5).


def _pade_coefficients(m: int) -> Tuple[float, ...]:
    """b_0..b_m of the [m/m] Pade approximant p(x)/p(-x) to e^x, scaled to
    b_0 = 1 (then b_1 = 1/2 for every m, as _IDENTITY_TABLE uses)."""
    f = math.factorial
    return tuple(
        f(2 * m - k) * f(m) / (f(2 * m) * f(k) * f(m - k)) for k in range(m + 1)
    )


_DEGREES = (3, 5, 7, 9, 13)
# largest eta = max(||A^2j||^(1/2j), ...) for which r_m has backward error <= u
_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068e0,
    13: 4.25,
}
# log2 of u / |c_2m+1|, c_2m+1 = (m!)^2 / ((2m)! (2m+1)!) leading the
# backward error series; ell(A, m) > 0 only when ||A||^2m exceeds it
_LOG2_ELL_BOUND = {
    m: -53.0 - math.log2(
        math.factorial(m) ** 2 / (math.factorial(2 * m) * math.factorial(2 * m + 1))
    )
    for m in _DEGREES
}
# d_2j = ||A^2j||^(1/2j) from the norms of W = A^4, A^6, A^2, A^8
_ROOTS = np.array([1 / 4, 1 / 6, 1 / 2, 1 / 8])[:, None]
# scalings up to 2^-60 are folded into the Pade coefficients (b_13 2^-13s
# stays a normal double); larger ones scale A itself
_MAX_FOLDED_S = 60
# a stack is evaluated in chunks of at most this many matrix entries
# (slices times k^2), which keeps its temporaries small enough for the
# allocator to reuse rather than return to the system and fault in again
_CHUNK_ENTRIES = 16384

# r_m = (V - U)^-1 (V + U) with U = A Y_u, V = Y_v for m <= 9 and
# U = A (A^6 Z_u + Y_u), V = A^6 Z_v + Y_v for m = 13 (Higham 2005, eqs.
# 2.3 and 2.5). Z_u, Y_u, Z_v, Y_v combine the powers W = A^4, A^6, A^2,
# A^8, and Y_u, Y_v add b_1 I, b_0 I. Entry [row, c] is the power k of A
# whose coefficient b_k multiplies W[c] at degree 13 (or 9 in the last
# column), and the power that 2^-s scales.
_POWER = np.array([
    [11, 13, 9, 9],  # Z_u
    [5, 7, 3, 9],  # Y_u
    [10, 12, 8, 8],  # Z_v
    [4, 6, 2, 8],  # Y_v
])


def _combination_table() -> np.ndarray:
    """b_k at the places of _POWER, one table per degree: Z rows for
    m = 13 only, A^8 for m <= 9 only, 0 for k > m."""
    table = np.zeros((len(_DEGREES),) + _POWER.shape)
    for i, m in enumerate(_DEGREES):
        b = _pade_coefficients(m)
        for (row, c), k in np.ndenumerate(_POWER):
            used = c != 3 if m == 13 else row % 2 == 1  # even rows are Z
            if used and k <= m:
                table[i, row, c] = b[k]
    return table


_COMBINATIONS = _combination_table()
# the tables B of b_k 2^-ks at the places of _POWER, by degree and s, and
# the identity terms b_1 2^-s, b_0 of Y_u, Y_v, by s
_B_TABLE = np.ldexp(
    _COMBINATIONS[:, None], -np.multiply.outer(np.arange(_MAX_FOLDED_S + 1), _POWER)
)
_IDENTITY_TABLE = np.stack(
    [np.ldexp(0.5, -np.arange(_MAX_FOLDED_S + 1)), np.ones(_MAX_FOLDED_S + 1)], axis=-1
)[..., None]
# bound once: the solve inside the exponential is part of the exponential
_solve = np.linalg.solve


def _powers(A: np.ndarray) -> np.ndarray:
    """W = (A^4, A^6, A^2, A^8) of a stack A (P, k, k), as (4, P, k, k)."""
    W = np.empty((4,) + A.shape, dtype=np.complex128)
    A4, A6, A2, A8 = W
    np.matmul(A, A, out=A2)
    np.matmul(A2, A2, out=A4)
    np.matmul(A4, A2, out=A6)
    np.matmul(A4, A4, out=A8)
    return W


def _norm1(X: np.ndarray) -> np.ndarray:
    """1-norms over the last two axes."""
    return np.abs(X).sum(axis=-2).max(axis=-1)


def _abs_power_norms(A: np.ndarray):
    """A function m -> [log2 ||  |A_i|^(2m+1)  ||_1 for each slice A_i of
    A (P, k, k)], each degree computed for the whole stack when first
    asked for.

    2m + 1 is 3 mod 4 for every degree, so the row vectors e^T |A|^3
    are carried forward by |A|^4 as larger degrees ask for them.
    """
    absA = np.abs(A)
    abs2 = absA @ absA
    abs4 = abs2 @ abs2
    rows = [absA.sum(axis=-2)[:, None, :] @ abs2]  # 2m + 1 = 3, 7, 11, ...
    norms = {}

    def log2_norms(m: int) -> list:
        if m not in norms:
            while len(rows) <= m // 2:
                rows.append(rows[-1] @ abs4)
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                norms[m] = np.log2(rows[m // 2].max(axis=(-2, -1))).tolist()
        return norms[m]

    return log2_norms


def _degree_and_scaling(A: np.ndarray, W: np.ndarray):
    """For each slice of A (P, k, k): the index into _DEGREES of its Pade
    degree, its scaling s, whether its powers overflow, and whether
    A^2 = 0. The norms are taken for the whole stack at once; the choice
    is made slice by slice in Python floats."""
    power = None

    def log2_power(m: int) -> list:
        nonlocal power
        power = power or _abs_power_norms(A)
        return power(m)

    with np.errstate(over="ignore", invalid="ignore"):
        norms = _norm1(W)
        d4, d6, _, d8 = (norms ** _ROOTS).tolist()
    log2_n1 = [math.log2(n) if n > 0.0 else -math.inf for n in _norm1(A).tolist()]
    P = len(A)
    level, s, overflow, rest = [0] * P, [0] * P, [False] * P, []
    for i in range(P):
        eta1, eta3 = max(d4[i], d6[i]), max(d6[i], d8[i])
        if not eta1 + eta3 < math.inf:
            overflow[i] = True
            continue
        # the first of degrees 3..9 that eta and ell(A, m) = 0 allow; ell
        # is zero where the norm bound ||A||^(2m+1) already gives zero,
        # else where log2 ||  |A|^(2m+1)  || <= log2 ||A||_1 + bound
        for j, m in enumerate(_DEGREES[:4]):
            bound = _LOG2_ELL_BOUND[m]
            if (eta1 if m < 7 else eta3) <= _THETA[m] and (
                2 * m * log2_n1[i] <= bound or log2_power(m)[i] <= log2_n1[i] + bound
            ):
                level[i] = j
                break
        else:
            level[i] = 4
            rest.append(i)
    if rest:
        # degree 13: s from eta5, plus ell(2^-s A, 13) of Al-Mohy & Higham
        # (2009), eq. (5.1), where a power norm that overflows counts as 2^1024
        with np.errstate(over="ignore", invalid="ignore"):
            d10 = (_norm1(W[0, rest] @ W[1, rest]) ** 0.1).tolist()
        bound = _LOG2_ELL_BOUND[13]
        for i, d10_i in zip(rest, d10):
            eta5 = min(max(d6[i], d8[i]), max(d8[i], d10_i))
            if not eta5 < math.inf:
                overflow[i] = True
                continue
            s[i] = max(math.ceil(math.log2(eta5 / _THETA[13])), 0) if eta5 > 0.0 else 0
            if 26 * (log2_n1[i] - s[i]) > bound:
                excess = min(log2_power(13)[i], 1024.0) - 26 * s[i] - log2_n1[i] - bound
                if excess > 0:
                    s[i] += math.ceil(excess / 26)
    return np.array(level), np.array(s), np.array(overflow), norms[2] == 0


def _pade(A: np.ndarray, W: np.ndarray, level: np.ndarray, s: np.ndarray) -> np.ndarray:
    """r_m(2^-s A) of each slice of A (P, k, k) from its powers W, with m
    = _DEGREES[level] and s <= _MAX_FOLDED_S; the combinations Z_u, Y_u,
    Z_v, Y_v are one real matrix product per slice."""
    P, k = A.shape[0], A.shape[-1]
    rows = W.view(np.float64).reshape(4, P, 2 * k * k).swapaxes(0, 1)
    combos = (_B_TABLE[level, s] @ rows).view(np.complex128)
    combos[:, 1::2, :: k + 1] += _IDENTITY_TABLE[s]
    Zu, Yu, Zv, Yv = combos.reshape(P, 4, k, k).swapaxes(0, 1)
    big = np.nonzero(level == 4)[0]
    if len(big):
        Yu[big] += W[1, big] @ Zu[big]
        Yv[big] += W[1, big] @ Zv[big]
    U = A @ Yu
    # r_m = I + 2 (V - U)^-1 U: the identity is added after the solve,
    # so the solve's rounding scales with U, not with V + U
    E = _solve(Yv - U, U)
    E *= 2.0
    E.reshape(P, k * k)[:, :: k + 1] += 1.0
    return E


def _expm(A: np.ndarray) -> np.ndarray:
    """exp of a finite complex matrix (k, k) or stack (..., k, k).

    Each slice gets its own degree and scaling; one Pade evaluation serves
    a chunk of slices and each slice is squared s_i times, so a slice of a
    stack is bit-for-bit the matrix it gives alone. A^2 = 0 gives I + A
    exactly. A slice whose powers overflow comes back as nan; callers
    raise RangeError on non-finite output.
    """
    shape, k = A.shape, A.shape[-1]
    A = A.reshape((-1, k, k))
    chunk = max(_CHUNK_ENTRIES // (k * k), 1)
    if len(A) > chunk:
        parts = [_expm(A[i : i + chunk]) for i in range(0, len(A), chunk)]
        return np.concatenate(parts).reshape(shape)
    W = _powers(A)
    level, s, overflow, square_zero = _degree_and_scaling(A, W)
    top = int(s.max())
    # slices whose powers overflow are evaluated as zeros and set to nan;
    # those that scale past the folding range scale A itself
    if top > _MAX_FOLDED_S or overflow.any():
        scaled = np.where(s > _MAX_FOLDED_S, s, 0)
        scale = np.where(overflow, 0.0, np.ldexp(1.0, -scaled))
        A_s = A * scale[:, None, None]
        E = _pade(A_s, _powers(A_s), np.where(overflow, 0, level), s - scaled)
        E[overflow] = np.nan
    else:
        E = _pade(A, W, level, s)
    for step in range(1, top + 1):
        squared = s >= step
        E[squared] = E[squared] @ E[squared]
    if square_zero.any():
        E[square_zero] = A[square_zero] + np.eye(k)
    return E.reshape(shape)


# the benchmark's tracer counts exponentials by wrapping this name, which
# it has had since it was scipy.linalg.expm
_scipy_expm = _expm


def matexp(M) -> np.ndarray:
    """Matrix exponential of a square complex matrix.

    Backed by scaling and squaring, so defective (non-diagonalizable)
    inputs are handled exactly as well as diagonalizable ones.
    """
    M = as_cmatrix(M, "matexp input")
    _require_square(M, "matexp input")
    E = _scipy_expm(M)
    if not np.all(np.isfinite(E)):
        raise RangeError(
            "exp(M) overflows double precision; split off a scalar first "
            "(see expm_centered)"
        )
    return np.asarray(E, dtype=np.complex128)


def expm_centered(M) -> Tuple[np.ndarray, Union[complex, np.ndarray]]:
    """Return (E0, mu) with exp(M) = e^mu * E0 and mu the mean eigenvalue.

    Splitting off mu = tr(M)/dim centers the spectrum of the exponent at
    zero, which keeps E0 inside double range in many cases where exp(M)
    itself overflows. Callers fold ``e^mu`` back in on the log scale.
    A stack (..., dim, dim) gives a stack E0 and an array mu of shape
    (...), one per slice, from one ``expm`` call.
    """
    M = _as_square_stack(M, "exponent")
    dim = M.shape[-1]
    trace = np.asarray(np.trace(M, axis1=-2, axis2=-1))
    # parts divided separately, as Python's complex / int does (numpy
    # would multiply by the reciprocal)
    mu = np.empty_like(trace)
    mu.real, mu.imag = trace.real / dim, trace.imag / dim
    E0 = _scipy_expm(M - mu[..., None, None] * np.eye(dim))
    if not np.all(np.isfinite(E0)):
        raise RangeError("exp(M - mu I) still overflows double precision")
    return np.asarray(E0, dtype=np.complex128), (complex(mu) if mu.ndim == 0 else mu)


def det_scaled(M) -> Union[ScaledComplex, List[ScaledComplex]]:
    """Determinant as a ScaledComplex (LU based, safe for huge/tiny values);
    a stack (..., k, k) gives a list, one per slice in C order, from one ``slogdet``."""
    out = scaled_values(slogdet_scaled(M))
    return out[0] if np.ndim(M) == 2 else out


def slogdet_scaled(M) -> LogScale:
    """log|det| and phase of each slice of a stack (..., k, k), as a
    log-scale pair of shape (...), from one ``slogdet``; an exactly
    singular slice gives (-inf, 0.0)."""
    M = _as_square_stack(M, "determinant input")
    sign, logdet = np.linalg.slogdet(M)
    # arg(sign) in [-pi, pi], where wrap_phase moves only -pi; a singular
    # slice has sign 0 and logdet -inf, and its phase arctan2(0, 0) is 0.0
    phase = np.asarray(np.arctan2(sign.imag, sign.real))
    np.add(phase, _TWO_PI, out=phase, where=phase <= -math.pi)
    return logdet, phase


def numerical_rank(M, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above tol times the largest one."""
    M = as_cmatrix(M, "rank input")
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def spectral_norm(M) -> float:
    """Largest singular value."""
    M = as_cmatrix(M, "norm input")
    return float(np.linalg.svd(M, compute_uv=False)[0])


def nullspace_rows(A, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Rows spanning the kernel of A under the plain-transpose pairing.

    For a full-rank n x N input (N > n) returns an (N - n) x N matrix U
    with A @ U.T = 0; no conjugation is involved in that product, so the
    rows pair to zero against the rows of A under the standard bilinear
    form. The rows themselves are orthonormal in the Hermitian sense
    (they come from the SVD of A).
    """
    A = as_cmatrix(A, "A")
    n, N = A.shape
    if N <= n:
        raise DimensionError(f"need more columns than rows, got {A.shape}")
    if numerical_rank(A, tol) < n:
        raise DegenerateInputError("A is numerically rank-deficient; kernel basis not well-defined")
    _, _, vh = np.linalg.svd(A)
    # right singular vectors for zero singular values, transposed without
    # conjugation: rows u satisfy A @ u == 0
    return vh[n:].conj()


def eig(M, cluster_tol: float = EIG_CLUSTER_TOL) -> List[Tuple[complex, int]]:
    """Eigenvalues with multiplicities, clustered at absolute tolerance.

    Eigenvalues closer than ``cluster_tol`` are merged greedily (single
    linkage); each cluster reports its mean value and member count, and
    the counts always sum to the dimension. Sorted by (real, imag).
    """
    M = as_cmatrix(M, "eig input")
    _require_square(M, "eig input")
    vals = np.linalg.eigvals(M)
    d = len(vals)
    parent = list(range(d))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(d):
        for j in range(i + 1, d):
            if abs(vals[i] - vals[j]) <= cluster_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri

    groups: dict = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(vals[i])
    out = [(complex(np.mean(g)), len(g)) for g in groups.values()]
    out.sort(key=lambda p: (p[0].real, p[0].imag))
    return out
