"""Determinant tau evaluation: continuous times, exact lattice shifts,
log derivatives and the second-log-derivative field.

The central object is tau(t) = det(A exp(g(B)) C.T) with
g(x) = sum_{i=1..K} t_i x^i. Shifting the times by -k [1/c], meaning
t_i -> t_i - k c^(-i) / i for all i, acts exactly as the matrix factor
(I - B/c)^k inside the determinant; :class:`MiwaShiftList` carries such
shifts and :func:`tau_miwa` applies them without any series truncation.
The discrete variant :func:`tau_discrete` uses factors (c I - B)^k =
c^k (I - B/c)^k, so it is the Miwa tau times the scalar gauge
(c1^l c2^m c3^n)^n. c I - B keeps exact input exact, which I - B/c
does not.

Every shifted tau here is an n x n determinant of the moment blocks
K_j = A E B^j R, E = exp(g(B)), of :meth:`TauEvaluator.moment_blocks`:
the site factor R = prod_j (c_j I - B)^k_j C.T (:func:`_site_factor`,
negative powers as solves after :func:`_check_inverses`) applied to the
triple's kept right blocks [C.T, B C.T, ...], then one product with the
left factor. The factors commute with B, so nonnegative powers beyond R
are n x n combinations of the K_j: plain, Miwa and discrete taus take K0,
the bilinear check c_a K0 - K1 and c_a c_b K0 - (c_a + c_b) K1 + K2; the
jets use the blocks of R = C.T. Every value, a point's or a grid's, is
folded from its ``slogdet`` in Python floats as ScaledComplex folds it
(:func:`_fold`, :meth:`TauEvaluator._shifted_taus`): a point is a stack
of one, so a grid has the bits of its points.

Derivatives of log tau are exact. With M = A E C.T, E = exp(g(B)),
every time derivative of M stays in closed form,

    d^a M / dt_1^a1 dt_2^a2 dt_3^a3 = A B^w E C.T,   w = a1 + 2 a2 + 3 a3,

so M(t + s) = M (I + Y(s)) with Y(s) = sum_{a != 0} X_w(a) s^a / a! and
X_j = M^-1 A B^j E C.T. Mixed derivatives of log tau are then read off
the truncated series log det(I + Y) = sum_k (-1)^(k+1) tr(Y^k) / k;
one exponential and one linear solve serve every requested order (see
:meth:`TauEvaluator.jets`). The series for a tuple of multi-indices is a
plan made once, on first use, and cached: the trace words
tr(X_w1 ... X_wk), one per class of cyclic rotations, with their exact
rational coefficients. A call forms the products the words need, each
sharing the product of its prefix, takes one ``np.trace`` of them all and
sums the words; for u that is tr X_2 - tr X_1^2. The right blocks
[C.T, B C.T, ..., B^w C.T] are kept on the triple (:func:`_right_blocks`),
so the jets of a stack are one product with its left factor
(:meth:`TauEvaluator.moment_blocks`), one ``slogdet`` and one ``solve``.

One :class:`TauEvaluator` holds a stack of P base times, with g(B) formed
by Horner on a (P, N, N) stack and one ``expm`` call (the stack is built
here, so the exponential skips the input check that
:func:`~kp_rankone.matkernel.expm_centered` makes); its moment blocks
and jets serve the whole stack, and a single point is a stack of one.
The factor A exp(g(B)) of a single base time is kept on the triple
(:func:`_left_factor`), so checks made one after another at one base time
share one exponential; the triple's arrays cannot be made writeable, so
what it keeps cannot go stale. Everything kept goes through the triple's
one memo, :meth:`~kp_rankone.triple.RankOneTriple._kept`.

:func:`tau_grid` and :func:`~kp_rankone.baker.psi_grid` take one direct
stack per line of base times: one ``expm`` of P slices and one
``slogdet``. :func:`u_field` steps instead, since t1 is the flow of B
itself: exp(g(B)) at t1 + j h is exp(g(B)) exp(j h B), so a line of
P >= 4 points in arithmetic progression takes an exponential only at
every ceil(sqrt(P))-th point, and all lines of a grid share the offsets
exp(j h B) (:func:`_u_line_evaluators`). The offsets depend only on the
triple and the step, so the triple keeps those of its last step: a grid
whose step it does not keep takes one exponential call of its offsets and
one of its anchors, and a later grid with the same step, number of points
and K exponentiates only its anchors. That serves repeated lines (one t1
axis at several (t2, t3), call after call). Stepping would put an
exact zero of tau (the Wilson point at t1 = -3) at a rounding-size
number, which the tau and psi grids would not flag, while u flags any
|tau| below ``POLE_REL_THRESHOLD`` times the grid maximum.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import PoleError, RangeError, SingularShiftError
from .matkernel import (
    ScaledComplex,
    as_cmatrix,
    _expm_centered,
    _exp_polar,
    det_scaled,  # noqa: F401  (the benchmark's tracer wraps tau.det_scaled)
    sign_phase,
    wrap_phase,
)
from .triple import RankOneTriple

__all__ = [
    "DEFAULT_TRUNCATION",
    "TimeVector",
    "MiwaShiftList",
    "TauEvaluator",
    "tau",
    "tau_miwa",
    "tau_discrete",
    "log_tau_derivative",
    "tau_grid",
    "u_field",
    "GridSample",
]

#: default number of retained times when a scenario or caller does not say
DEFAULT_TRUNCATION = 6

#: u_field flags a point as a pole where |tau| is below this fraction of
#: the largest |tau| on the grid
POLE_REL_THRESHOLD = 1e-10

TimesLike = Union["TimeVector", Sequence[complex]]
ShiftsLike = Union["MiwaShiftList", Iterable[Tuple[complex, int]]]
#: one shift set ((c_j, k_j), ...), read more than once
ShiftSet = Sequence[Tuple[complex, int]]
#: grid coordinates (t1, t2, t3); t2, t3 are None where the grid has no such axis
GridCoords = Tuple[float, Optional[float], Optional[float]]


def _integral(x, what: str) -> int:
    """``x`` as an int: 2, 2.0 and numpy integers pass; 1.5, nan and inf
    raise ValueError rather than being truncated."""
    try:
        k = int(x)
    except (OverflowError, ValueError):
        k = None
    if k is None or k != x:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return k


@dataclass(frozen=True, eq=False)
class TimeVector:
    """Truncated sequence of times (t_1, ..., t_K), K >= 1, all finite."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.array(self.values, dtype=np.complex128))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("times must form a nonempty 1-D sequence")
        if not np.isfinite(arr).all():
            raise ValueError("times must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def coerce(cls, t: TimesLike) -> "TimeVector":
        if isinstance(t, TimeVector):
            return t
        return cls(np.asarray(list(t)))

    @classmethod
    def zeros(cls, K: int = DEFAULT_TRUNCATION) -> "TimeVector":
        return cls(np.zeros(K, dtype=np.complex128))

    @property
    def K(self) -> int:
        return int(self.values.size)

    def entry(self, index: int) -> complex:
        """t_index with 1-based index; zero beyond the truncation."""
        if index < 1:
            raise IndexError("time indices start at 1")
        if index > self.K:
            return 0j
        return complex(self.values[index - 1])

    def padded(self, K: int) -> "TimeVector":
        """Extend with zeros to at least K entries (tau is unchanged)."""
        if K <= self.K:
            return self
        out = np.zeros(K, dtype=np.complex128)
        out[: self.K] = self.values
        return TimeVector(out)

    def with_entry(self, index: int, value: complex) -> "TimeVector":
        """Copy with t_index replaced (1-based; pads if needed)."""
        base = self.padded(index)
        out = np.array(base.values)
        out[index - 1] = value
        return TimeVector(out)

    def g_scalar(self, z: complex) -> complex:
        """g(z) = sum_i t_i z^i by Horner."""
        acc = 0j
        for t_i in self.values[::-1]:
            acc = z * (complex(t_i) + acc)
        return acc

    def g_matrix(self, B: np.ndarray) -> np.ndarray:
        """g(B) = sum_i t_i B^i by Horner (exact for the truncation)."""
        return _exponents(as_cmatrix(B, "B"), self.values[None])[0]

    def g_prime_matrix(self, Z: np.ndarray) -> np.ndarray:
        """g'(Z) = sum_i i t_i Z^(i-1) by Horner."""
        Z = as_cmatrix(Z, "Z")
        dim = Z.shape[0]
        acc = np.zeros((dim, dim), dtype=np.complex128)
        I = np.eye(dim, dtype=np.complex128)
        for i in range(self.K, 0, -1):
            acc = acc @ Z + (i * complex(self.values[i - 1])) * I
        return acc


@dataclass(frozen=True)
class MiwaShiftList:
    """Shifts ((c, k), ...): positive k subtracts k [1/c] from the times.

    Each entry contributes the exact factor (I - B/c)^k inside the
    determinant. Negative k is allowed as long as c stays away from the
    spectrum of B (checked when the factor is built).
    """

    shifts: Tuple[Tuple[complex, int], ...] = ()

    def __post_init__(self):
        cleaned = []
        for entry in self.shifts:
            c, k = entry
            c = complex(c)
            k = _integral(k, "shift multiplicity k")
            if c == 0:
                raise ValueError("shift parameter c must be nonzero")
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError("shift parameter c must be finite")
            cleaned.append((c, k))
        object.__setattr__(self, "shifts", tuple(cleaned))

    @classmethod
    def coerce(cls, s: ShiftsLike) -> "MiwaShiftList":
        if isinstance(s, MiwaShiftList):
            return s
        return cls(tuple(s))

    def merged(self) -> "MiwaShiftList":
        """Combine repeated parameters by adding multiplicities."""
        acc: dict = {}
        order: list = []
        for c, k in self.shifts:
            if c not in acc:
                acc[c] = 0
                order.append(c)
            acc[c] += k
        return MiwaShiftList(tuple((c, acc[c]) for c in order if acc[c] != 0))


def _check_inverses(tr: RankOneTriple, cs: Sequence[complex]) -> None:
    """Raise SingularShiftError unless c I - B is safely invertible for
    each c in ``cs``.

    A norm certificate settles most c without an SVD of c I - B: where
    |c| - ||B||_2 > 1e-8 (|c| + ||B||_2), s_min(c I - B) >= |c| - ||B||_2
    and s_max <= |c| + ||B||_2, so the ratio the SVD test compares with
    1e-12 stays near 1e-8 or above. ||B||_2 is computed once per triple
    (:attr:`RankOneTriple.norm_B`); the c left over get one stacked SVD,
    and the smallest singular value of each must exceed 1e-12 times its
    largest.
    """
    if not cs:
        return
    norm_B = tr.norm_B
    doubtful = [c for c in cs if not abs(c) - norm_B > 1e-8 * (abs(c) + norm_B)]
    if not doubtful:
        return
    factors = np.asarray(doubtful, dtype=np.complex128)[:, None, None] * _identity(tr.N) - tr.B
    for c, s in zip(doubtful, np.linalg.svd(factors, compute_uv=False)):
        if s[0] == 0.0 or s[-1] <= 1e-12 * s[0]:
            raise SingularShiftError(
                f"shift parameter c = {c} lies in (or too close to) the "
                "spectrum of B; the inverse factor does not exist"
            )


def _exponents(B: np.ndarray, times: np.ndarray) -> np.ndarray:
    """g(B) for each row of a time array (P, K), by Horner on a (P, N, N)
    stack; each slice is bit for bit what it gives in any other stack."""
    I = _identity(len(B))
    G = np.zeros((len(times),) + B.shape, dtype=np.complex128)
    for t_i in times.T[::-1]:
        G = B @ (t_i[:, None, None] * I + G)
    return G


@lru_cache(maxsize=8)
def _identity(N: int) -> np.ndarray:
    """The read-only N x N complex identity."""
    I = np.eye(N, dtype=np.complex128)
    I.setflags(write=False)
    return I


def _slogdet(S: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.slogdet`` (sign, log|det|) of an n x n stack S, after
    one scan: RangeError where S is not finite (a singular slice with an inf
    can give log|det| = -inf, so the determinants cannot tell)."""
    if not np.isfinite(S).all():
        raise RangeError("a moment-block combination overflows double precision")
    return np.linalg.slogdet(S)


def _fold(lm: float, ph: float, times: complex, over: complex) -> Tuple[float, float]:
    """(log|w|, arg w) of w = d e^times / e^over, d of log magnitude ``lm``
    and phase ``ph``, in Python floats as ScaledComplex's product and then
    its quotient fold it; a zero d gives (-inf, 0.0)."""
    t_lm, t_ph = _exp_polar(times)
    o_lm, o_ph = _exp_polar(over)
    if lm == -math.inf:
        return lm, 0.0
    return lm + t_lm - o_lm, wrap_phase(wrap_phase(ph + t_ph) - o_ph)


def _site_factor(tr: RankOneTriple, shifts: ShiftSet, right: np.ndarray) -> np.ndarray:
    """prod_j (c_j I - B)^k_j X for one shift set ((c_j, k_j), ...), with X
    (N, m) the array ``right``, which is not written to: the factors act in
    the set's own order, a positive power as k products and a negative one
    as |k| solves; k = 0 entries are skipped. The caller checks the
    inverted c first (:func:`_check_inverses`)."""
    for c, k in shifts:
        if k:
            F = c * _identity(tr.N) - tr.B
            for _ in range(abs(k)):
                right = np.linalg.solve(F, right) if k < 0 else F @ right
    return right


def _left_factor(tr: RankOneTriple, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(mu, A exp(g(B) - mu I)) of a (P, K) time array, shapes (P,) and
    (P, n, N), read-only, from one centred ``expm`` call. A single base time
    (P = 1) is kept on the triple as ``"base_factor"``, keyed by the dtype,
    shape and bytes of ``times``, in place of the last one. A stack of P > 1
    times (a grid line, a psi grid) is not kept and leaves the kept one be:
    it is rarely asked for twice, and would stay alive with the triple."""

    def make():
        E0, mu = _expm_centered(_exponents(tr.B, times))
        return mu, tr.A @ E0

    if len(times) == 1:
        return tr._kept("base_factor", (times.dtype.str, times.shape, times.tobytes()), make)
    mu, left = make()
    mu.setflags(write=False)
    left.setflags(write=False)
    return mu, left


class TauEvaluator:
    """Tau values for one triple at P >= 1 base times: ``t`` is one time
    vector or an array (P, K).

    g(B) is formed by Horner on a (P, N, N) stack and exponentiated by one
    centred ``expm`` call, kept as A exp(g(B) - mu I) (``_left``, shape
    (P, n, N)) and ``mu`` (P,), so huge tau magnitudes never leave the log
    scale. :meth:`moment_blocks`, :meth:`jets` and :meth:`_shifted_taus`
    serve the whole stack; :meth:`tau`, :meth:`tau_miwa` and
    :meth:`tau_discrete` give the value at the first base time.

    A single-point evaluator (P = 1) takes ``mu`` and ``_left`` from the
    triple where one at the same time array made them (:func:`_left_factor`),
    so every check at one base time shares one exponential; any other
    times, even one ulp away or padded with zeros, compute afresh.
    """

    def __init__(self, tr: RankOneTriple, t: Union[TimesLike, np.ndarray]):
        self.triple = tr
        stack = isinstance(t, np.ndarray) and t.ndim == 2
        times = t if stack else TimeVector.coerce(t).values[None, :]
        self.mu, self._left = _left_factor(tr, times)

    @classmethod
    def _of_factor(cls, tr: RankOneTriple, mu: np.ndarray, left: np.ndarray) -> "TauEvaluator":
        """An evaluator over a left factor A exp(g(B) - mu I) (P, n, N) and
        its mu (P,) formed elsewhere; the triple's memo is not touched."""
        ev = cls.__new__(cls)
        ev.triple, ev.mu, ev._left = tr, mu, left
        return ev

    def moment_blocks(self, base: ShiftSet, degree: int) -> np.ndarray:
        """The blocks A exp(g(B) - mu I) B^j R, j = 0 .. degree, side by side,
        shape (P, n, (degree + 1) n), with R = prod_j (c_j I - B)^k_j C.T of
        the shift set ``base`` ((c_j, k_j), ...).

        Every shifted tau whose set is ``base`` plus nonnegative powers is
        an n x n combination of these blocks: the factors commute with B,
        so p(B) R with p(B) = sum_j p_j B^j gives sum_j p_j K_j. For the
        same reason [R, B R, ..., B^degree R] is the site factor of ``base``
        (:func:`_site_factor`) applied to the triple's kept right blocks
        [C.T, B C.T, ...], which are the product's right factor where every
        k_j is zero. Raises ValueError if a shift parameter is not finite,
        SingularShiftError if an inverted c fails :func:`_check_inverses`.
        """
        if not all(cmath.isfinite(c) for c, _ in base):
            raise ValueError("shift parameter c must be finite")
        _check_inverses(self.triple, list(dict.fromkeys(c for c, k in base if k < 0)))
        return self._left @ _site_factor(self.triple, base, _right_blocks(self.triple, degree))

    def jets(self, wanted: Sequence[Tuple[int, int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """log|tau| (P,) and derivatives of log tau (P, len(wanted)), one per
        multi-index (a1, a2, a3), read by :func:`_jet_series` off the blocks
        X_1 .. X_w of one ``solve``; -inf and nan where M = A exp(g(B)) C.T
        is exactly singular, as one ``slogdet`` tells.
        """
        n = self.triple.n
        plan = _jet_plan(tuple(map(tuple, wanted)))
        W = self.moment_blocks((), plan[0])
        sign, logdet = np.linalg.slogdet(W[..., :n])
        regular = (sign != 0) & np.isfinite(logdet)
        Wr = W[regular]
        derivs = np.full((len(W), len(wanted)), complex(math.nan, math.nan))
        derivs[regular] = _jet_series(np.linalg.solve(Wr[..., :n], Wr[..., n:]), plan)
        return np.where(regular, logdet + n * self.mu.real, -math.inf), derivs

    def _shifted_taus(self, shifts: ShiftSet, gauge: complex = 0j) -> List[ScaledComplex]:
        """det(A exp(g(B)) prod_j (c_j I - B)^k_j C.T) / e^gauge at every base
        time: one ``slogdet`` of :meth:`moment_blocks` ``(shifts, 0)``, each
        slice folded as det e^(n mu) / e^gauge (:func:`_fold`)."""
        sign, logdet = _slogdet(self.moment_blocks(shifts, 0))
        slices = zip(logdet.tolist(), sign_phase(sign).tolist(), (self.triple.n * self.mu).tolist())
        return [ScaledComplex(*_fold(lm, ph, n_mu, gauge)) for lm, ph, n_mu in slices]

    def tau(self) -> ScaledComplex:
        return self._shifted_taus(())[0]

    def tau_miwa(self, shifts: ShiftsLike) -> ScaledComplex:
        """The discrete determinant over its gauge prod_j c_j^(k_j n), whose
        exponent n sum_j k_j log c_j is summed in Python complex arithmetic."""
        shifts = MiwaShiftList.coerce(shifts).shifts
        return self._shifted_taus(
            shifts, self.triple.n * sum(k * cmath.log(c) for c, k in shifts if k)
        )[0]

    def tau_discrete(
        self, l: int, m: int, n_index: int, c1: complex, c2: complex, c3: complex
    ) -> ScaledComplex:
        return self._shifted_taus(
            (
                (complex(c1), _integral(l, "l")),
                (complex(c2), _integral(m, "m")),
                (complex(c3), _integral(n_index, "n_index")),
            )
        )[0]

    def log_derivatives(self, orders_list: Iterable[Sequence[int]]) -> List[complex]:
        """Partial derivatives of log tau at the base time, one per multi-index.

        Each entry of ``orders_list`` is (a1, a2, a3) over (t_1, t_2, t_3)
        with total order at least one (see :meth:`jets`). Raises PoleError
        where M is singular or a derivative is not finite.
        """
        derivs = self.jets([_multi_index(o) for o in orders_list])[1][0]
        if not np.isfinite(derivs).all():
            raise PoleError("tau is zero or numerically zero at the evaluation point")
        return derivs.tolist()


def tau(tr: RankOneTriple, t: TimesLike) -> ScaledComplex:
    """det(A exp(g(B)) C.T) as a ScaledComplex."""
    return TauEvaluator(tr, t).tau()


def tau_miwa(
    tr: RankOneTriple, shifts: ShiftsLike, t: Optional[TimesLike] = None
) -> ScaledComplex:
    """Tau at t shifted by sum_j -k_j [1/c_j], via exact matrix factors."""
    base = t if t is not None else TimeVector.zeros(1)
    return TauEvaluator(tr, base).tau_miwa(shifts)


def tau_discrete(
    tr: RankOneTriple,
    l: int,
    m: int,
    n_index: int,
    c1: complex,
    c2: complex,
    c3: complex,
    t: Optional[TimesLike] = None,
) -> ScaledComplex:
    """det(A exp(g(B)) (c1 I - B)^l (c2 I - B)^m (c3 I - B)^n C.T).

    With t omitted the exponential factor is the identity. Equal to
    (c1^l c2^m c3^n)^n_rows times the corresponding :func:`tau_miwa`. A c
    may be zero (its factor is (-B)^k); a c that is not finite raises
    ValueError.
    """
    base = t if t is not None else TimeVector.zeros(1)
    return TauEvaluator(tr, base).tau_discrete(l, m, n_index, c1, c2, c3)


# ---------------------------------------------------------------------------
# log derivatives
# ---------------------------------------------------------------------------


def _multi_index(orders: Sequence[int]) -> Tuple[int, int, int]:
    """Validate a derivative multi-index (a1, a2, a3) of total order >= 1."""
    raw = tuple(orders)
    try:
        o = tuple(map(int, raw))
    except (OverflowError, ValueError):  # inf, nan
        o = None
    # one comparison, not _integral per order: kp_residual asks for eight
    if o != raw or len(o) != 3 or min(o) < 0:
        raise ValueError(f"orders must be three non-negative integers, got {raw!r}")
    if sum(o) < 1:
        raise ValueError("total derivative order must be at least 1")
    return o


def _weight(a: Tuple[int, int, int]) -> int:
    """Power of B in the a-th derivative of A exp(g(B)) C.T."""
    return a[0] + 2 * a[1] + 3 * a[2]


def _factorial(a: Tuple[int, int, int]) -> int:
    return math.factorial(a[0]) * math.factorial(a[1]) * math.factorial(a[2])


def _right_blocks(tr: RankOneTriple, weight: int, scale: float = 1.0) -> np.ndarray:
    """[C.T, b C.T, ..., b^weight C.T] with b = B / scale, side by side,
    shape (N, (weight + 1) n), read-only and kept on the triple (one array
    per weight and scale asked for). A scale of ||B||_2 keeps every block
    within ||C||_2, whatever the weight; scale 1 gives the blocks of B."""

    def make():
        b = tr.B / scale
        blocks = [tr.C.T]
        for _ in range(weight):
            blocks.append(b @ blocks[-1])
        return np.hstack(blocks)

    return tr._kept(("right_blocks", weight, scale), None, make)


def _compositions(c: Tuple[int, int, int]) -> Iterator[Tuple[Tuple[int, int, int], ...]]:
    """Every ordered sequence of nonzero multi-indices that sums to c."""
    for a in itertools.product(*(range(x + 1) for x in c)):
        if any(a):
            rest = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
            if any(rest):
                yield from ((a,) + tail for tail in _compositions(rest))
            else:
                yield (a,)


@lru_cache(maxsize=64)
def _jet_plan(wanted: Tuple[Tuple[int, int, int], ...]):
    """The trace words of the series for the multi-indices ``wanted``, made
    on first use of a ``wanted`` tuple.

    The c-th derivative of log det(I + Y(s)) at s = 0 is c! times the s^c
    coefficient of sum_k (-1)^(k+1) tr(Y^k) / k, that is the sum over
    ordered sequences a_1 + ... + a_k = c of nonzero multi-indices of
    c! (-1)^(k+1) / (k a_1! ... a_k!) tr(X_w(a_1) ... X_w(a_k)). Sequences
    with the same weights, up to a cyclic rotation, share one trace word.

    Returns (weight, chain, traced, coefficients): the largest weight
    w(c); the products to form, each (i, j): matrix i times block X_(j+1),
    appended to the list of blocks X_1 .. X_weight; the index in that list
    of each trace word, shortest first; and their exact coefficients. The
    arrays (words,) and (words, 1, len(wanted)) are read-only.
    """
    weight = max(_weight(a) for a in wanted)
    # exact: integer numerators over the common denominator lcm(1 .. |c|)
    denominator = math.lcm(*range(1, max(sum(c) for c in wanted) + 1))
    numerators: dict = {}  # trace word -> numerator per wanted multi-index
    for col, c in enumerate(wanted):
        for parts in _compositions(c):
            k = len(parts)
            multinomial = _factorial(c) // math.prod(_factorial(a) for a in parts)
            word = tuple(_weight(a) for a in parts)
            word = min(word[i:] + word[:i] for i in range(k))
            row = numerators.setdefault(word, [0] * len(wanted))
            row[col] += (-1) ** (k + 1) * multinomial * (denominator // k)
    index = {(w,): w - 1 for w in range(1, weight + 1)}
    chain: List[Tuple[int, int]] = []

    def product(word: Tuple[int, ...]) -> int:
        if word not in index:
            chain.append((product(word[:-1]), word[-1] - 1))
            index[word] = weight + len(chain) - 1
        return index[word]

    words = sorted(numerators, key=lambda w: (len(w), w))
    traced = np.array([product(word) for word in words])
    coefficients = np.array([numerators[word] for word in words])[:, None] / denominator
    traced.setflags(write=False)
    coefficients.setflags(write=False)
    return weight, tuple(chain), traced, coefficients


def _jet_series(X: np.ndarray, plan) -> np.ndarray:
    """Derivatives of log det(I + Y(s)) at s = 0, per :func:`_jet_plan`.

    X holds the blocks X_1 .. X_w side by side for a stack of P points,
    shape (P, n, w n). The blocks and the plan's products, one stacked
    ``matmul`` each, fill one stack; one ``np.trace`` of the stack gives
    the traces of the words, and their sum with the coefficients, shortest
    word first, an array of shape (P, len(wanted)).
    """
    weight, chain, traced, coefficients = plan
    P, n = X.shape[:2]
    mats = np.empty((weight + len(chain), P, n, n), dtype=np.complex128)
    mats[:weight] = X.reshape(P, n, weight, n).transpose(2, 0, 1, 3)
    for k, (i, j) in enumerate(chain, weight):
        np.matmul(mats[i], mats[j], out=mats[k])
    # a row of zeros, then the terms: summed term by term from zero, in the
    # same order for every P (numpy's sum reduction changes with the shape)
    terms = np.zeros((len(traced) + 1, P, coefficients.shape[-1]), dtype=np.complex128)
    np.multiply(np.trace(mats, axis1=-2, axis2=-1)[traced, :, None], coefficients, out=terms[1:])
    return np.add.accumulate(terms, axis=0)[-1]


def log_tau_derivative(
    tr: RankOneTriple, t: TimesLike, orders: Sequence[int]
) -> complex:
    """Partial derivative of log tau at t.

    ``orders`` is a multi-index (d1, d2, d3) over (t_1, t_2, t_3) with
    1 <= d1 + d2 + d3 <= 4. The value is exact up to rounding: it is a
    trace polynomial in X_j = M^-1 A B^j E C.T (see
    :meth:`TauEvaluator.log_derivatives`). Raises PoleError at a zero of
    tau.
    """
    o = _multi_index(orders)
    if sum(o) > 4:
        raise ValueError(f"total derivative order must lie in 1..4, got {sum(o)}")
    return TauEvaluator(tr, t).log_derivatives([o])[0]


# ---------------------------------------------------------------------------
# second-derivative field on grids
# ---------------------------------------------------------------------------


class GridSample(NamedTuple):
    """One grid point of the field u = 2 d^2/dt_1^2 log tau (a named tuple:
    immutable, and cheap to make for every point of a grid)."""

    t1: float
    t2: Optional[float]
    t3: Optional[float]
    value: complex
    is_pole: bool


def _grid_times(
    t1_values: Sequence[float],
    t2_values: Optional[Sequence[float]],
    t3_values: Optional[Sequence[float]],
    base: Optional[TimesLike],
) -> Tuple[List[GridCoords], List[np.ndarray]]:
    """Grid coordinates (t3 outer, t2, t1 inner) and their times, one
    array (len(t1_values), K) per t1 line.

    Grid coordinates overwrite t_1 (and t_2, t_3 when given) of ``base``;
    the remaining base entries are kept.
    """
    base_t = TimeVector.coerce(base).padded(3) if base is not None else TimeVector.zeros(3)
    t1s = [float(v) for v in t1_values]
    t2s = [float(v) for v in t2_values] if t2_values is not None else [None]
    t3s = [float(v) for v in t3_values] if t3_values is not None else [None]
    coords = [(v1, v2, v3) for v3 in t3s for v2 in t2s for v1 in t1s]
    times = np.tile(base_t.values, (len(coords), 1))
    for col in range(3):
        if coords and coords[0][col] is not None:
            times[:, col] = [c[col] for c in coords]
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    line = max(len(t1s), 1)
    return coords, [times[start : start + line] for start in range(0, len(times), line)]


def tau_grid(
    tr: RankOneTriple,
    t1_values: Sequence[float],
    t2_values: Optional[Sequence[float]] = None,
    t3_values: Optional[Sequence[float]] = None,
    base: Optional[TimesLike] = None,
) -> List[Tuple[GridCoords, ScaledComplex]]:
    """tau over a grid, as ((t1, t2, t3), value) pairs in :func:`u_field` order.

    Each t1 line is one :class:`TauEvaluator` stack: one ``expm`` and one
    ``slogdet`` call. An exact zero of tau is the scaled zero (log
    magnitude -inf).
    """
    coords, lines = _grid_times(t1_values, t2_values, t3_values, base)
    values = [v for times in lines for v in TauEvaluator(tr, times)._shifted_taus(())]
    return list(zip(coords, values))


_EPS = float(np.finfo(float).eps)
#: a stepped u grid exponentiates anchors of at most this many matrix
#: entries (slices times N^2) in one call: one call for all but large 3-D
#: grids, whose memory this bounds
_ANCHOR_ENTRIES = 1 << 16


def _t1_step(t1: np.ndarray) -> Optional[float]:
    """The step h of a t1 line (P,) that is stepped from anchors, or None
    where the line keeps the direct stack: P < 4, or some t1_k further than
    8 eps max|t1| from t1_0 + k h, h = (t1_(P-1) - t1_0) / (P - 1)."""
    P = len(t1)
    if P < 4:
        return None
    h = (t1[-1] - t1[0]) / (P - 1)
    drift = np.abs(t1 - (t1[0] + h * np.arange(P))).max()
    return h if drift <= 8 * _EPS * np.abs(t1).max() else None


@lru_cache(maxsize=16)
def _anchor_layout(P: int) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The anchors of a stepped line of P points, as (s, anchors, block,
    slot, offsets), made once per P (read-only arrays).

    With s = ceil(sqrt(P)) and half = floor(s / 2), block b holds the points
    b s .. b s + s - 1 and its anchor is the point b s + half, or the last
    point where that lies past the end (only a short last block can have
    it so). ``block`` is the block of each point and ``slot`` its offset j
    from the block's anchor plus half, an index into the offsets
    -half .. s - 1 - half; ``offsets`` lists those j other than 0, as
    floats.
    """
    s = math.isqrt(P - 1) + 1
    half = s // 2
    k = np.arange(P)
    anchors = np.minimum(np.arange(0, P, s) + half, P - 1)
    block = k // s
    layout = (anchors, block, k - anchors[block] + half, np.r_[-half:0, 1 : s - half].astype(float))
    for a in layout:
        a.setflags(write=False)
    return (s,) + layout


def _u_line_evaluators(tr: RankOneTriple, lines: List[np.ndarray]) -> Iterator[TauEvaluator]:
    """One evaluator per t1 line of a grid, whose lines share their t1
    values, made as they are consumed: stepped from anchors where those
    have a step (:func:`u_field`, :func:`_anchor_layout`), else one direct
    stack per line. The offsets exp(j h B), j != 0, are g(B) of the times
    (j h, 0, ...), each centred on its own mu, so a stepped point gets
    mu_anchor + mu_j. All lines share them, and so do later calls: the
    triple keeps the stack S of the last step as ``"step_offsets"``, keyed
    by the shape and bytes of the step times, which fix h, s and K.

    A step the triple does not keep takes one exponential call of its
    offsets; then the anchors take one call per group of lines that fits
    ``_ANCHOR_ENTRIES`` (one group but on large 3-D grids). Raises
    RangeError where a stepped left factor is not finite.
    """
    h = _t1_step(lines[0][:, 0].real)
    if h is None:
        yield from (TauEvaluator(tr, times) for times in lines)
        return
    s, anchors, block, slot, offsets = _anchor_layout(len(lines[0]))
    half = s // 2
    steps = np.zeros((s - 1, lines[0].shape[1]), dtype=np.complex128)
    steps[:, 0] = offsets * h

    def make():
        E, mu = _expm_centered(_exponents(tr.B, steps))
        S = np.concatenate([E[:half], _identity(tr.N)[None], E[half:]])
        return S, np.concatenate([mu[:half], [0.0], mu[half:]])

    S, mu_S = tr._kept("step_offsets", (steps.shape, steps.tobytes()), make)
    per_call = max(_ANCHOR_ENTRIES // (len(anchors) * tr.N**2), 1)
    for first in range(0, len(lines), per_call):
        group = lines[first : first + per_call]
        E0, mu = _expm_centered(_exponents(tr.B, np.concatenate([times[anchors] for times in group])))
        AE = (tr.A @ E0).reshape(len(group), len(anchors), tr.n, tr.N)
        for AE_line, mu_line in zip(AE, mu.reshape(len(group), len(anchors))):
            left = AE_line[:, None] @ S
            left[:, half] = AE_line
            left = left[block, slot]
            if not np.isfinite(left).all():
                raise RangeError("a stepped left factor A exp(g(B) - mu I) overflows double precision")
            yield TauEvaluator._of_factor(tr, mu_line[block] + mu_S[slot], left)


def u_field(
    tr: RankOneTriple,
    t1_values: Sequence[float],
    t2_values: Optional[Sequence[float]] = None,
    t3_values: Optional[Sequence[float]] = None,
    base: Optional[TimesLike] = None,
) -> List[GridSample]:
    """Sample u = 2 d^2/dt_1^2 log tau over a grid.

    Grid coordinates overwrite t_1 (and t_2, t_3 when given) of ``base``.
    Each t1 line is one :class:`TauEvaluator` stack whose
    :meth:`~TauEvaluator.jets` give |tau| and u = 2 (tr X_2 - tr X_1^2).
    Where the t1 values are an arithmetic progression of P >= 4 points,
    every ceil(sqrt(P))-th point of a line is an anchor with its own
    exponential, and the other points step from their anchor by offsets
    exp(j h B) that all lines share (see the module docstring). The grid's
    anchors take one exponential call (one per group of lines on large 3-D
    grids), and its offsets one more unless the triple keeps them from an
    earlier call with the same step, P and K (another (t2, t3), say); the
    bits are those of a fresh triple either way.
    A stepped point is evaluated at t1_anchor + j h, within 8 eps max|t1|
    of its reported t1; anchors are bit for bit the direct stack. Other t1
    values give one direct stack per line.
    Samples where |tau| falls below ``POLE_REL_THRESHOLD`` times the grid
    maximum, M is exactly singular or u is not finite are poles with value
    nan. An empty grid gives an empty list. Raises RangeError where a left
    factor overflows.
    """
    coords, lines = _grid_times(t1_values, t2_values, t3_values, base)
    if not coords:
        return []
    jets = [ev.jets(((2, 0, 0),)) for ev in _u_line_evaluators(tr, lines)]
    log_mag = np.concatenate([m for m, _ in jets])
    u = 2.0 * np.concatenate([d[:, 0] for _, d in jets])
    threshold = log_mag.max() + math.log(POLE_REL_THRESHOLD)
    pole = ~np.isfinite(u) | (log_mag < threshold)
    u[pole] = complex(math.nan, math.nan)
    return [
        GridSample(v1, v2, v3, value, p)
        for (v1, v2, v3), value, p in zip(coords, u.tolist(), pole.tolist())
    ]
