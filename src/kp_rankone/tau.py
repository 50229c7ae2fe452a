"""Determinant tau evaluation: continuous times, exact lattice shifts,
log derivatives and the second-log-derivative field.

The central object is tau(t) = det(A exp(g(B)) C.T) with
g(x) = sum_{i=1..K} t_i x^i. Shifting the times by -k [1/c], meaning
t_i -> t_i - k c^(-i) / i for all i, acts exactly as the matrix factor
(I - B/c)^k inside the determinant; :class:`MiwaShiftList` carries such
shifts and :func:`tau_miwa` applies them without any series truncation.
The discrete variant :func:`tau_discrete` uses factors (c I - B)^k =
c^k (I - B/c)^k, so it is the Miwa tau times the scalar gauge
(c1^l c2^m c3^n)^n. Plain, Miwa and discrete taus share one shifted
determinant: the factors (c I - B)^k act on C.T, positive powers as k
products and negative powers as |k| linear solves after one check that
c I - B is safely invertible, and a Miwa tau divides the gauge out on
the log scale. c I - B keeps exact input exact, which I - B/c does not.

A lattice identity needs several shifted taus at one base time: six for
the bilinear lattice check, 3N + 1 for the polynomiality check, one per
spectral parameter for a wave function. :meth:`TauEvaluator.shifted_dets`
takes them as a list of shift sets and answers in one call. A step plan,
made in one pass over the sets, groups depth by depth the sets that
multiply and the sets that solve, so each step is one stacked product or
solve (on a slice of the stack when its sets are consecutive); the
factors c I - B of every step come from one broadcast expression; the
invertibility check runs once per distinct inverted c (a norm
certificate, |c| safely above ||B||_2, spares most of them an SVD); and
one ``slogdet`` covers every set and base time. Each set keeps its own
factor order, so a value does not depend on the other sets of the call.

The answer is a log-scale pair of (sets, P) float arrays, log|det| and
phase (see :mod:`kp_rankone.matkernel`), which give bit for bit what the
corresponding ScaledComplex arithmetic gives. The gauges, terms and
residuals of the checks are formed on those arrays, and ScaledComplex
values are made only where a public function returns one.

Derivatives of log tau are exact. With M = A E C.T, E = exp(g(B)),
every time derivative of M stays in closed form,

    d^a M / dt_1^a1 dt_2^a2 dt_3^a3 = A B^w E C.T,   w = a1 + 2 a2 + 3 a3,

so M(t + s) = M (I + Y(s)) with Y(s) = sum_{a != 0} X_w(a) s^a / a! and
X_j = M^-1 A B^j E C.T. Mixed derivatives of log tau are then read off
the truncated series log det(I + Y) = sum_k (-1)^(k+1) tr(Y^k) / k;
one exponential and one linear solve serve every requested order (see
:meth:`TauEvaluator.jets`).

One :class:`TauEvaluator` holds a stack of P base times, with g(B) formed
by Horner on a (P, N, N) stack and one ``expm`` call; its two methods, the
shifted determinant and the jets, serve the whole stack. A single point is
a stack of one; :func:`tau_grid` and :func:`u_field` take one stack per t1
line, whose points differ only in the scalars t_i multiplying fixed powers
of B, so a line costs one ``expm``, one ``slogdet`` and, for u, one ``solve``.

The factor A exp(g(B)) of a single base time is memoized on the triple,
in one slot keyed by the exact (1, K) time array it was computed for:
evaluators built one after another at the same base time (the checks of
:mod:`kp_rankone.verify` and :mod:`kp_rankone.baker`, and :func:`tau`,
:func:`tau_miwa`, :func:`tau_discrete` and :func:`log_tau_derivative`)
share one exponential, and a hit returns exactly the arrays a miss would
compute. Stacks of several base times neither read nor replace the slot.
The triple's arrays cannot be made writeable, so the slot cannot go stale.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import PoleError, SingularShiftError
from .matkernel import (
    LogScale,
    ScaledComplex,
    as_cmatrix,
    det_scaled,  # noqa: F401  (the benchmark's tracer wraps tau.det_scaled)
    expm_centered,
    log_scale_div,
    log_scale_exp,
    log_scale_mul,
    scaled_values,
    slogdet_scaled,
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
#: grid coordinates (t1, t2, t3); t2, t3 are None where the grid has no such axis
GridCoords = Tuple[float, Optional[float], Optional[float]]


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
        B = as_cmatrix(B, "B")
        dim = B.shape[0]
        acc = np.zeros((dim, dim), dtype=np.complex128)
        I = np.eye(dim, dtype=np.complex128)
        for t_i in self.values[::-1]:
            acc = B @ (complex(t_i) * I + acc)
        return acc

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
            k = int(k)
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


@lru_cache(maxsize=8)
def _identity(N: int) -> np.ndarray:
    """The read-only N x N complex identity."""
    I = np.eye(N, dtype=np.complex128)
    I.setflags(write=False)
    return I


def _miwa_taus(
    ev: "TauEvaluator", shift_sets: Sequence[Iterable[Tuple[complex, int]]]
) -> LogScale:
    """Miwa taus, (sets, P): each discrete determinant of
    :meth:`TauEvaluator.shifted_dets` over its gauge prod_j c_j^(k_j n),
    whose exponent n sum_j k_j log c_j is summed per set in Python complex
    arithmetic. The empty set has gauge 1 and keeps its bits."""
    n = ev.triple.n
    lm, ph = log_scale_exp(
        n * sum(k * cmath.log(c) for c, k in shifts if k) for shifts in shift_sets
    )
    return log_scale_div(ev.shifted_dets(shift_sets), (lm[:, None], ph[:, None]))


class TauEvaluator:
    """Tau values for one triple at P >= 1 base times: ``t`` is one time
    vector or an array (P, K).

    g(B) is formed by Horner on a (P, N, N) stack and exponentiated by one
    ``expm_centered`` call, kept as A exp(g(B) - mu I) (``_left``, shape
    (P, n, N)) and ``mu`` (P,), so huge tau magnitudes never leave the log
    scale. :meth:`shifted_dets` and :meth:`jets` serve the whole stack;
    the single-point methods read slice 0.

    The triple keeps the read-only ``mu`` and ``_left`` of its last
    single-point evaluator (P = 1) in one slot, keyed by the dtype, shape
    and bytes of the (1, K) time array. A new single-point evaluator with
    the same key takes them from there instead of exponentiating again, so
    every check at one base time shares one exponential; any other times,
    even one ulp away or padded with zeros, compute afresh and replace the
    slot. A stack of P > 1 times (a grid line, a psi grid) neither reads
    nor replaces the slot: it is rarely asked for twice, and its (P, n, N)
    factor would stay alive with the triple.
    """

    def __init__(self, tr: RankOneTriple, t: Union[TimesLike, np.ndarray]):
        self.triple = tr
        stack = isinstance(t, np.ndarray) and t.ndim == 2
        times = t if stack else TimeVector.coerce(t).values[None, :]
        single = len(times) == 1
        if single:
            key = (times.dtype.str, times.shape, times.tobytes())
            memo = tr._base_factor
            if memo is not None and memo[0] == key:
                _, self.mu, self._left = memo
                return
        I = _identity(tr.N)
        G = np.zeros((len(times), tr.N, tr.N), dtype=np.complex128)
        for t_i in times.T[::-1]:
            G = tr.B @ (t_i[:, None, None] * I + G)
        E0, self.mu = expm_centered(G)
        self._left = tr.A @ E0
        self.mu.setflags(write=False)
        self._left.setflags(write=False)
        if single:
            object.__setattr__(tr, "_base_factor", (key, self.mu, self._left))

    def shifted_dets(self, shift_sets: Sequence[Iterable[Tuple[complex, int]]]) -> LogScale:
        """det(A exp(g(B)) prod_j (c_j I - B)^k_j C.T) for each shift set
        ((c_j, k_j), ...), as a log-scale pair of (sets, P) float arrays:
        log|det| with n mu folded in, and the phase in (-pi, pi]; an exact
        zero has log magnitude -inf.

        Each set applies its factors to C.T in its own order, positive
        powers as products and negative ones as solves; k = 0 entries are
        dropped. One pass over the sets makes the step plan: for each
        depth, the sets that multiply there and the sets that solve, each
        with its c, so a step is one stacked product or one stacked solve.
        The factors c I - B of all steps are built by one broadcast
        expression. Every c that some set inverts passes
        :func:`_check_inverses` once. One product with the left factor and
        one ``slogdet`` serve every set and base time. Raises
        SingularShiftError if an inverted c I - B fails the check.
        """
        tr = self.triple
        count = len(shift_sets)
        if not count:
            return np.empty((0, len(self.mu))), np.empty((0, len(self.mu)))
        plan: dict = {}  # (depth, solve) -> (sets, their c)
        inverted: dict = {}  # the c some set solves with, in order
        for s, shifts in enumerate(shift_sets):
            depth = 0
            for c, k in shifts:
                if k:
                    if k < 0:
                        inverted[c] = None
                    for _ in range(abs(k)):
                        at, cs = plan.setdefault((depth, k < 0), ([], []))
                        at.append(s)
                        cs.append(c)
                        depth += 1
        _check_inverses(tr, list(inverted))
        rights = np.repeat(tr.C.T[None], count, axis=0)
        # by depth, products before solves
        steps = sorted(plan)
        if steps:
            cs = [c for step in steps for c in plan[step][1]]
            factors = np.asarray(cs, dtype=np.complex128)[:, None, None] * _identity(tr.N) - tr.B
        start = 0
        for step in steps:
            at = plan[step][0]
            F = factors[start : start + len(at)]
            start += len(at)
            # consecutive sets (all of them, often) are a slice, not a gather
            if at[-1] - at[0] + 1 == len(at):
                at = slice(at[0], at[-1] + 1)
            rights[at] = np.linalg.solve(F, rights[at]) if step[1] else F @ rights[at]
        dets = slogdet_scaled(self._left[None] @ rights[:, None])
        return log_scale_mul(dets, log_scale_exp(tr.n * self.mu))

    def jets(self, wanted: List[Tuple[int, int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """log|tau| (P,) and derivatives of log tau (P, len(wanted)), one per
        multi-index (a1, a2, a3), read by :func:`_jet_series` off the blocks
        X_1 .. X_w of one ``solve``; -inf and nan where M = A exp(g(B)) C.T
        is exactly singular, as one ``slogdet`` tells.
        """
        n = self.triple.n
        W = self._left @ _right_blocks(self.triple, max(_weight(a) for a in wanted))
        sign, logdet = np.linalg.slogdet(W[..., :n])
        regular = (sign != 0) & np.isfinite(logdet)
        Wr = W[regular]
        derivs = np.full((len(W), len(wanted)), complex(math.nan, math.nan))
        derivs[regular] = _jet_series(np.linalg.solve(Wr[..., :n], Wr[..., n:]), wanted)
        return np.where(regular, logdet + n * self.mu.real, -math.inf), derivs

    def tau(self) -> ScaledComplex:
        return scaled_values(self.shifted_dets([()]))[0]

    def tau_miwa(self, shifts: ShiftsLike) -> ScaledComplex:
        """The discrete determinant over its gauge prod_j c_j^(k_j n)."""
        return scaled_values(_miwa_taus(self, [MiwaShiftList.coerce(shifts).shifts]))[0]

    def tau_discrete(
        self, l: int, m: int, n_index: int, c1: complex, c2: complex, c3: complex
    ) -> ScaledComplex:
        return scaled_values(
            self.shifted_dets(
                [((complex(c1), int(l)), (complex(c2), int(m)), (complex(c3), int(n_index)))]
            )
        )[0]

    def log_derivatives(self, orders_list: Iterable[Sequence[int]]) -> List[complex]:
        """Partial derivatives of log tau at the base time, one per multi-index.

        Each entry of ``orders_list`` is (a1, a2, a3) over (t_1, t_2, t_3)
        with total order at least one (see :meth:`jets`). Raises PoleError
        where M is singular or a derivative is not finite.
        """
        out = [complex(v) for v in self.jets([_multi_index(o) for o in orders_list])[1][0]]
        if not np.all(np.isfinite(out)):
            raise PoleError("tau is zero or numerically zero at the evaluation point")
        return out


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
    (c1^l c2^m c3^n)^n_rows times the corresponding :func:`tau_miwa`.
    """
    base = t if t is not None else TimeVector.zeros(1)
    return TauEvaluator(tr, base).tau_discrete(l, m, n_index, c1, c2, c3)


# ---------------------------------------------------------------------------
# log derivatives
# ---------------------------------------------------------------------------


def _multi_index(orders: Sequence[int]) -> Tuple[int, int, int]:
    """Validate a derivative multi-index (a1, a2, a3) of total order >= 1."""
    o = tuple(int(x) for x in orders)
    if len(o) != 3 or any(x < 0 for x in o):
        raise ValueError("orders must be three non-negative integers")
    if sum(o) < 1:
        raise ValueError("total derivative order must be at least 1")
    return o


def _weight(a: Tuple[int, int, int]) -> int:
    """Power of B in the a-th derivative of A exp(g(B)) C.T."""
    return a[0] + 2 * a[1] + 3 * a[2]


def _factorial(a: Tuple[int, int, int]) -> int:
    return math.factorial(a[0]) * math.factorial(a[1]) * math.factorial(a[2])


def _right_blocks(tr: RankOneTriple, weight: int) -> np.ndarray:
    """[C.T, B C.T, ..., B^weight C.T] side by side, shape (N, (weight + 1) n)."""
    blocks = [tr.C.T]
    for _ in range(weight):
        blocks.append(tr.B @ blocks[-1])
    return np.hstack(blocks)


def _jet_series(X: np.ndarray, wanted: List[Tuple[int, int, int]]) -> np.ndarray:
    """Derivatives of log det(I + Y(s)) at s = 0, one per multi-index in ``wanted``.

    X holds the blocks X_1 .. X_w side by side, shape (..., n, w n), with
    any leading stack axes. The series sum_k (-1)^(k+1) tr(Y^k) / k is
    truncated to the multi-indices below a wanted one. Returns shape
    (..., len(wanted)).
    """
    keep = {
        (i, j, k)
        for a1, a2, a3 in wanted
        for i in range(a1 + 1)
        for j in range(a2 + 1)
        for k in range(a3 + 1)
    }
    keep.discard((0, 0, 0))
    n = X.shape[-2]
    Y = {a: X[..., (_weight(a) - 1) * n : _weight(a) * n] / _factorial(a) for a in keep}
    series = dict.fromkeys(keep, 0j)
    power = Y
    for k in range(1, max(sum(a) for a in keep) + 1):
        if k > 1:
            power = _jet_product(power, Y, keep)
        for a, block in power.items():
            series[a] = series[a] + (-1) ** (k + 1) / k * np.trace(block, axis1=-2, axis2=-1)
    return np.stack([_factorial(a) * series[a] for a in wanted], axis=-1)


def _jet_product(left: dict, right: dict, keep: set) -> dict:
    """Product of two matrix jets {multi-index: block}, truncated to ``keep``."""
    out: dict = {}
    for a, P in left.items():
        for b, Q in right.items():
            c = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
            if c in keep:
                out[c] = out[c] + P @ Q if c in out else P @ Q
    return out


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


@dataclass(frozen=True)
class GridSample:
    """One grid point of the field u = 2 d^2/dt_1^2 log tau."""

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
    values = [
        v for times in lines for v in scaled_values(TauEvaluator(tr, times).shifted_dets([()]))
    ]
    return list(zip(coords, values))


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
    Samples where |tau| falls below ``POLE_REL_THRESHOLD`` times the grid
    maximum, M is exactly singular or u is not finite are poles with value
    nan. An empty grid gives an empty list.
    """
    coords, lines = _grid_times(t1_values, t2_values, t3_values, base)
    if not coords:
        return []
    jets = [TauEvaluator(tr, times).jets([(2, 0, 0)]) for times in lines]
    log_mag = np.concatenate([m for m, _ in jets])
    u = 2.0 * np.concatenate([d[:, 0] for _, d in jets])
    threshold = log_mag.max() + math.log(POLE_REL_THRESHOLD)
    pole = ~np.isfinite(u) | (log_mag < threshold)
    u[pole] = complex(math.nan, math.nan)
    return [
        GridSample(v1, v2, v3, complex(value), bool(p))
        for (v1, v2, v3), value, p in zip(coords, u, pole)
    ]
