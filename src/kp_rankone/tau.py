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
K_j = L B^j R of :meth:`TauEvaluator.moment_blocks`, with L the left
factor of A exp(g(B)) (below) and R = prod_j (c_j I - B)^k_j C.T, after
:func:`_check_inverses` has cleared the inverted c. One function builds
every such right factor, these sites as well as the wave function's and
the polynomiality nodes' (:func:`_shifted_right`): the factors commute
with B, so where B has a kept eigenbasis, B = V diag(lam) V^-1, they are
one weight vector on the rows of the kept right blocks [W, lam W, ...],
W = V^-1 C.T, a negative power a division, and no solve; a triple without
an eigenbasis applies them as matrices to its kept right blocks
[C.T, B C.T, ...], negative powers as solves. Nonnegative powers beyond R
are n x n combinations of the K_j: plain, Miwa and discrete taus take K0,
the bilinear check c_a K0 - K1 and c_a c_b K0 - (c_a + c_b) K1 + K2; the
jets use the blocks of R = C.T.
Every value, a point's or a grid's, is folded from its ``slogdet`` in
Python floats as ScaledComplex folds it (:func:`_fold`,
:meth:`TauEvaluator._shifted_taus`): a point is a stack of one, so a grid
has the bits of its points.

Derivatives of log tau are exact. With M = A E C.T, E = exp(g(B)),
every time derivative of M stays in closed form,

    d^a M / dt_1^a1 dt_2^a2 dt_3^a3 = A B^w E C.T,   w = a1 + 2 a2 + 3 a3,

so M(t + s) = M (I + Y(s)) with Y(s) = sum_{a != 0} X_w(a) s^a / a! and
X_j = M^-1 A B^j E C.T. Mixed derivatives of log tau are then read off
the truncated series log det(I + Y) = sum_k (-1)^(k+1) tr(Y^k) / k;
one left factor and one linear solve serve every requested order (see
:meth:`TauEvaluator.jets`). The series for a tuple of multi-indices is a
plan made once, on first use, and cached: the trace words
tr(X_w1 ... X_wk), one per class of cyclic rotations, with their exact
rational coefficients. A call forms the products the words need, each
sharing the product of its prefix, takes one ``np.trace`` of them all and
sums the words; for u that is tr X_2 - tr X_1^2. The right blocks
[C.T, B C.T, ..., B^w C.T], in the coordinates of the left factor, are
kept on the triple (:func:`_right_blocks`), so the jets of a stack are
one product with its left factor
(:meth:`TauEvaluator.moment_blocks`), one ``slogdet`` and one ``solve``.

One :class:`TauEvaluator` holds a stack of P base times and one left
factor for them all (:func:`_left_factor`), which spans the rows of
A exp(g(B)) and comes with the complex log ``scale`` of what its
determinants leave out. It comes one of three ways, and only the last
exponentiates a matrix:

* Wilson's formula, where the triple is exactly the Calogero-Moser
  embedding A = [X I], B = [[Z, 0], [I, Z]], C = [I 0]
  (:func:`_calogero_moser`). Any f gives f(B) = [[f(Z), 0], [f'(Z), f(Z)]]
  (Higham, Functions of Matrices, Thm 3.6), so for every right factor
  h(B) C.T, A exp(g(B)) h(B) C.T = ([X + g'(Z), I] h(B) C.T) exp(g(Z)):
  the left factor is [X + g'(Z)  I], g'(Z) by Horner, and scale =
  tr g(Z) (Wilson, Invent. Math. 133, 1998). The jets see the right
  factor exp(g(Z)) as a similarity of every X_j, which leaves the traces
  alone.
* The eigenbasis, where B = V diag(lam) V^-1 has a well conditioned
  eigenvector matrix (:func:`_eigenbasis`): with L = A V, n pivot columns
  S of L and T = L_S^-1 L kept on the triple, the left factor is
  T o e^(r - mu) in eigen coordinates, r = g(lam) by Horner and
  mu = max Re r per time, and scale = n mu + log det L_S; its right
  factors are weights on the rows of W, so V^-1 is never multiplied back.
  Normalising by L_S keeps tau accurate where the weights e^r span many
  orders of magnitude (large times).
* Every other triple, defective or ill-conditioned B, takes
  A exp(g(B) - mu I) from one
  :func:`~kp_rankone.matkernel.expm_centered` call of the Horner stack
  g(B), with scale = n mu.

Moment blocks and jets serve the whole stack, and a single point is a
stack of one. The left factor of a single base time is kept on the
triple, so checks made one after another at one base time share it; the
triple's arrays cannot be made writeable, so what it keeps cannot go
stale. Everything kept goes through the triple's one memo,
:meth:`~kp_rankone.triple.RankOneTriple._kept`.

:func:`tau_grid`, :func:`u_field` and :func:`~kp_rankone.baker.psi_grid`
take one stack per line of base times and one ``slogdet``, on every path.
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
    DEFAULT_RANK_TOL,
    ScaledComplex,
    as_cmatrix,
    _exp_polar,
    _integral,
    det_scaled,  # noqa: F401  (the benchmark's tracer wraps tau.det_scaled)
    expm_centered,
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

#: the left factor comes from the eigenbasis of B where the eigenvector
#: matrix V has cond_1(V) at most this, else from ``expm`` (see
#: :func:`_eigenbasis`). Set by a sweep of near-defective triples against
#: mpmath: at desk scale the eigenbasis loses about eps cond_1(V) on tau
#: and 5 eps cond_1(V) on u; at t1 = 10..20 it is the more accurate path
#: on every triple swept below cond_1(V) ~ 1e3, on half of them above.
#: Random triples up to (16, 48) stay below 7e2, conjugated Calogero-Moser
#: triples (defective B) above 1e7
_MAX_EIGENVECTOR_COND = 1e3

TimesLike = Union["TimeVector", Sequence[complex]]
ShiftsLike = Union["MiwaShiftList", Iterable[Tuple[complex, int]]]
#: one shift set ((c_j, k_j), ...), read more than once
ShiftSet = Sequence[Tuple[complex, int]]
#: one right factor (a, s, k), (a I - s B)^k; a and s are scalars or (S, 1)
#: arrays over a stack of S shift sets (:func:`_shifted_right`)
Factor = Tuple[Union[complex, np.ndarray], Union[float, np.ndarray], int]
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
        return _exponents(as_cmatrix(B, "B"), self.values[None])[0]

    def g_prime_matrix(self, Z: np.ndarray) -> np.ndarray:
        """g'(Z) = sum_i i t_i Z^(i-1) by Horner."""
        return _derivative_exponents(as_cmatrix(Z, "Z"), self.values[None])[0]


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


def _derivative_exponents(Z: np.ndarray, times: np.ndarray) -> np.ndarray:
    """g'(Z) = sum_i i t_i Z^(i-1) for each row of a time array (P, K), by
    Horner on a (P, n, n) stack; each slice is bit for bit what it gives in
    any other stack."""
    I = _identity(len(Z))
    D = np.zeros((len(times),) + Z.shape, dtype=np.complex128)
    for i in range(times.shape[1], 0, -1):
        D = D @ Z + (i * times[:, i - 1])[:, None, None] * I
    return D


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


def _pivot_columns(L: np.ndarray) -> Optional[List[int]]:
    """n columns of L (n, N) by Gram-Schmidt with column pivoting: each step
    takes the column of largest norm once the chosen ones are projected
    out, so L_S is as well conditioned as the greedy choice makes it. None
    where L is numerically rank-deficient: a pivot's norm is at most
    ``DEFAULT_RANK_TOL`` times the first (A = 0 included)."""
    Q = np.array(L)
    chosen: List[int] = []
    first = 0.0
    for _ in range(len(L)):
        norms = (Q.real**2 + Q.imag**2).sum(axis=0)
        norms[chosen] = -1.0
        j = int(np.argmax(norms))
        pivot = math.sqrt(norms[j])
        first = first or pivot
        if not pivot > DEFAULT_RANK_TOL * first:
            return None
        chosen.append(j)
        q = Q[:, j] / pivot
        Q -= np.outer(q, q.conj() @ Q)
    return chosen


def _calogero_moser(tr: RankOneTriple) -> tuple:
    """(X, Z) where the triple is exactly the embedding that
    :func:`~kp_rankone.cases.from_calogero_moser` builds, A = [X I],
    B = [[Z, 0], [I, Z]] and C = [I 0], N = 2n, by exact equality of its
    blocks; else (). Made on the first evaluation of a triple and kept as
    ``"calogero_moser"``; X and Z are views of A and B."""

    def make():
        n = tr.n
        if tr.N != 2 * n:
            return ()
        A, B, C, I = tr.A, tr.B, tr.C, _identity(n)
        Z = B[:n, :n]
        exact = (
            np.array_equal(A[:, n:], I)
            and np.array_equal(B[n:, :n], I)
            and np.array_equal(B[n:, n:], Z)
            and not B[:n, n:].any()
            and np.array_equal(C[:, :n], I)
            and not C[:, n:].any()
        )
        return (A[:, :n], Z) if exact else ()

    return tr._kept("calogero_moser", None, make)


def _eigenbasis(tr: RankOneTriple) -> tuple:
    """(lam, T, W, log det L_S) of B = V diag(lam) V^-1, or () where the
    triple is a Calogero-Moser embedding (:func:`_calogero_moser`: its
    left factor is Wilson's, in the original coordinates), V is
    singular, cond_1(V) = ||V||_1 ||V^-1||_1 exceeds
    ``_MAX_EIGENVECTOR_COND`` or A V is numerically rank-deficient (then
    tau vanishes, and the exponential path finds its exact zero); made on
    the first evaluation of a triple, never while it is built, and kept as
    ``"eigenbasis"``.

    L = A V, S are n of its columns (:func:`_pivot_columns`) and T =
    L_S^-1 L, with the identity in the columns S; W = V^-1 C.T (N, n), by
    a solve with V, which keeps more digits than the product with V^-1;
    log det L_S is a complex 0-d array. The eigenvector method loses
    accuracy in proportion to cond(V) (Moler & Van Loan, SIAM Rev. 45,
    2003, method 14), hence the threshold. Normalising by L_S keeps the
    rows of the left factor apart where the weights e^g(lam) span many
    orders of magnitude: the plain L diag(e^g(lam)) V^-1 loses digits
    there.
    """

    def make():
        if _calogero_moser(tr):
            return ()
        try:
            lam, V = np.linalg.eig(tr.B)
            V_inv = np.linalg.inv(V)
        except np.linalg.LinAlgError:  # eig did not converge, or V is singular
            return ()
        # Python floats: a product past double range is inf, with no warning
        cond = float(np.linalg.norm(V, 1)) * float(np.linalg.norm(V_inv, 1))
        if not cond <= _MAX_EIGENVECTOR_COND:
            return ()
        L = tr.A @ V
        S = _pivot_columns(L)
        if S is None:
            return ()
        T = np.linalg.solve(L[:, S], L)
        T[:, S] = _identity(tr.n)
        sign, logdet = np.linalg.slogdet(L[:, S])
        log_det = np.array(complex(logdet, math.atan2(sign.imag, sign.real)))
        return lam, T, np.linalg.solve(V, tr.C.T), log_det

    return tr._kept("eigenbasis", None, make)


def _shifted_right(tr: RankOneTriple, factors: Sequence[Factor], degree: int = 0) -> np.ndarray:
    """prod_j (a_j I - s_j B)^k_j [C.T, B C.T, ..., B^degree C.T] for the
    factors ((a_j, s_j, k_j), ...), in the coordinates of the triple's left
    factors (:func:`_left_factor`), shape (N, (degree + 1) n), or
    (S, N, (degree + 1) n) where an a_j or s_j is an (S, 1) array over a
    stack of S shift sets; k = 0 entries are skipped.

    The one right factor of every shifted value: a lattice or Miwa site
    (c, 1, k), the wave function's shift (a, s, +-1) and a polynomiality
    node (zeta, 1 / r, -1). Each factor commutes with B, so it acts on the
    triple's kept right blocks (:func:`_right_blocks`), which are returned
    as they are where every k_j is zero. In the eigenbasis
    (:func:`_eigenbasis`) the product is one weight vector
    w = prod_j (a_j - s_j lam)^k_j on the rows of [W, lam W, ...], a
    negative power a division: no product of matrices and no solve. The
    arithmetic that would not change a bit is left out: w starts from the
    first factor (from 1.0 / f where that is inverted), s_j = 1 (the int)
    takes lam itself, and a power of 1 is not raised. A
    triple without an eigenbasis applies the factors as matrices in the
    given order, a positive power as k products and a negative one as |k|
    solves, stacked where the factor is. The caller checks the inverted
    factors first (:func:`_check_inverses`)."""
    blocks = _right_blocks(tr, degree)
    factors = [f for f in factors if f[2]]
    if not factors:
        return blocks
    basis = _eigenbasis(tr)
    if basis:
        lam, w = basis[0], None
        for a, s, k in factors:
            f = a - (lam if type(s) is int and s == 1 else s * lam)
            if abs(k) != 1:
                f = f ** abs(k)
            if k < 0:
                w = (1.0 if w is None else w) / f
            else:
                w = f if w is None else w * f
        return w[..., None] * blocks
    for a, s, k in factors:
        F = np.asarray(a)[..., None] * _identity(tr.N) - np.asarray(s)[..., None] * tr.B
        if k < 0 and blocks.ndim < F.ndim:
            # numpy 1.x reads a b of one dimension less than a as a stack
            # of vectors
            blocks = blocks[None]
        for _ in range(abs(k)):
            blocks = np.linalg.solve(F, blocks) if k < 0 else F @ blocks
    return blocks


def _left_factor(tr: RankOneTriple, times: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(scale, left) of a (P, K) time array, shapes (P,) and (P, n, N),
    read-only, with det(left R') e^scale = det(A exp(g(B)) R) for every
    R (N, n), R' its coordinates in the basis of the left factor.

    Where the triple is a Calogero-Moser embedding
    (:func:`_calogero_moser`), left = [X + g'(Z)  I] with g'(Z) by Horner
    on a (P, n, n) stack, scale = tr g(Z) and R' = R, for every R = h(B) C.T
    (the module docstring): no exponential and no eigendecomposition.
    Where the triple has an eigenbasis (:func:`_eigenbasis`), r = g(lam)
    by Horner on a (P, N) array, mu = max Re r per time, left = G =
    T o e^(r - mu) with the weights on the columns of T, scale =
    n mu + log det L_S and R' = V^-1 R: no exponential of a matrix, and
    no product with V^-1 either, since every right factor is diag(w) W in
    eigen coordinates (:func:`_shifted_right`). Else left =
    A exp(g(B) - mu I) from one centred ``expm`` call, scale = n mu,
    mu = tr g(B) / N, and R' = R.

    A single base time (P = 1) is kept on the triple as ``"base_factor"``,
    keyed by the dtype, shape and bytes of ``times``, in place of the last
    one. A stack of P > 1 times (a grid line, a psi grid) is not kept and
    leaves the kept one be: it is rarely asked for twice, and would stay
    alive with the triple. Raises RangeError where g(B), g(lam), g(Z),
    g'(Z) or the left factor is not finite."""

    def make():
        wilson = _calogero_moser(tr)
        if wilson:
            X, Z = wilson
            D = _derivative_exponents(Z, times) + X
            scale = np.trace(_exponents(Z, times), axis1=-2, axis2=-1)
            if not (np.isfinite(D).all() and np.isfinite(scale).all()):
                raise RangeError("g(Z) or g'(Z) overflows double precision")
            return scale, np.concatenate([D, np.broadcast_to(_identity(tr.n), D.shape)], axis=-1)
        basis = _eigenbasis(tr)
        if not basis:
            G = _exponents(tr.B, times)
            if not np.isfinite(G).all():
                raise RangeError("g(B) overflows double precision")
            E0, mu = expm_centered(G)
            return tr.n * mu, tr.A @ E0
        lam, T, _, log_det = basis
        r = np.zeros((len(times), len(lam)), dtype=np.complex128)
        for t_i in times.T[::-1]:
            r = lam * (t_i[:, None] + r)
        if not np.isfinite(r).all():
            raise RangeError("g(B) overflows double precision on the spectrum of B")
        mu = r.real.max(axis=1)
        return tr.n * mu + log_det, T * np.exp(r - mu[:, None])[:, None, :]

    if len(times) == 1:
        return tr._kept("base_factor", (times.dtype.str, times.shape, times.tobytes()), make)
    scale, left = make()
    scale.setflags(write=False)
    left.setflags(write=False)
    return scale, left


class TauEvaluator:
    """Tau values for one triple at P >= 1 base times: ``t`` is one time
    vector or an array (P, K); like a :class:`TimeVector`, an array that is
    empty or not finite raises ValueError, on every path.

    The left factor (``_left``, shape (P, n, N)) spans the rows of
    A exp(g(B)), in eigen coordinates where the triple has an eigenbasis,
    and ``scale`` (P,) is the complex log of what its determinants leave
    out (:func:`_left_factor`): Wilson's [X + g'(Z)  I] for a Calogero-Moser
    embedding, from the eigenbasis of B where the triple has one, else
    from one centred ``expm`` call of the Horner stack g(B).
    Right factors are taken in the same coordinates
    (:func:`_shifted_right`). Huge tau magnitudes never leave the log scale.
    :meth:`moment_blocks`, :meth:`jets` and :meth:`_shifted_taus` serve
    the whole stack; :meth:`tau`, :meth:`tau_miwa` and
    :meth:`tau_discrete` give the value at the first base time.

    A single-point evaluator (P = 1) takes ``scale`` and ``_left`` from the
    triple where one at the same time array made them (:func:`_left_factor`),
    so every check at one base time shares one left factor; any other
    times, even one ulp away or padded with zeros, compute afresh.
    """

    def __init__(self, tr: RankOneTriple, t: Union[TimesLike, np.ndarray]):
        self.triple = tr
        stack = isinstance(t, np.ndarray) and t.ndim == 2
        if stack and not (len(t) and np.isfinite(t).all()):
            raise ValueError("a time stack must be nonempty and finite")
        times = t if stack else TimeVector.coerce(t).values[None, :]
        self.scale, self._left = _left_factor(tr, times)

    def moment_blocks(self, base: ShiftSet, degree: int) -> np.ndarray:
        """The blocks L B^j R, j = 0 .. degree, of the left factor L, side by
        side, shape (P, n, (degree + 1) n), with R = prod_j (c_j I - B)^k_j C.T
        of the shift set ``base`` ((c_j, k_j), ...).

        Every shifted tau whose set is ``base`` plus nonnegative powers is
        an n x n combination of these blocks: the factors commute with B,
        so p(B) R with p(B) = sum_j p_j B^j gives sum_j p_j K_j. The right
        factor [R, B R, ..., B^degree R] is :func:`_shifted_right` of the
        site factors (c_j, 1, k_j). Raises ValueError if a shift parameter
        is not finite, SingularShiftError if an inverted c fails
        :func:`_check_inverses`.
        """
        if not all(cmath.isfinite(c) for c, _ in base):
            raise ValueError("shift parameter c must be finite")
        tr = self.triple
        _check_inverses(tr, list(dict.fromkeys(c for c, k in base if k < 0)))
        return self._left @ _shifted_right(tr, [(c, 1, k) for c, k in base], degree)

    def jets(self, wanted: Sequence[Tuple[int, int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        """log|tau| (P,) and derivatives of log tau (P, len(wanted)), one per
        multi-index (a1, a2, a3), read by :func:`_jet_series` off the blocks
        X_1 .. X_w of one ``solve``; -inf and nan where M = A exp(g(B)) C.T
        is exactly singular, as one ``slogdet`` tells. Raises RangeError
        where M is not finite (:func:`_slogdet`).
        """
        n = self.triple.n
        plan = _jet_plan(tuple(map(tuple, wanted)))
        W = self.moment_blocks((), plan[0])
        sign, logdet = _slogdet(W[..., :n])
        regular = sign != 0  # M is finite, so log|det| is -inf only where sign is 0
        Wr = W[regular]
        derivs = np.full((len(W), len(wanted)), complex(math.nan, math.nan))
        derivs[regular] = _jet_series(np.linalg.solve(Wr[..., :n], Wr[..., n:]), plan)
        return np.where(regular, logdet + self.scale.real, -math.inf), derivs

    def _shifted_taus(self, shifts: ShiftSet, gauge: complex = 0j) -> List[ScaledComplex]:
        """det(A exp(g(B)) prod_j (c_j I - B)^k_j C.T) / e^gauge at every base
        time: one ``slogdet`` of :meth:`moment_blocks` ``(shifts, 0)``, each
        slice folded as det e^scale / e^gauge (:func:`_fold`)."""
        sign, logdet = _slogdet(self.moment_blocks(shifts, 0))
        slices = zip(logdet.tolist(), sign_phase(sign).tolist(), self.scale.tolist())
        return [ScaledComplex(*_fold(lm, ph, scale, gauge)) for lm, ph, scale in slices]

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


def _right_blocks(tr: RankOneTriple, weight: int) -> np.ndarray:
    """[C.T, B C.T, ..., B^weight C.T], side by side, in the coordinates of
    the triple's left factors (:func:`_left_factor`), shape
    (N, (weight + 1) n), read-only and kept on the triple (one array per
    weight asked for). With an eigenbasis (:func:`_eigenbasis`) that is
    [W, lam W, ..., lam^weight W], elementwise on the rows of
    W = V^-1 C.T; else the products with B. Raises RangeError where a
    block is not finite, once, when the blocks are made."""

    def make():
        basis = _eigenbasis(tr)
        with np.errstate(over="ignore", invalid="ignore"):
            if basis:
                d = basis[0][:, None]
                blocks = [basis[2]]
                for _ in range(weight):
                    blocks.append(d * blocks[-1])
            else:
                blocks = [tr.C.T]
                for _ in range(weight):
                    blocks.append(tr.B @ blocks[-1])
            blocks = np.hstack(blocks)
        if not np.isfinite(blocks).all():
            raise RangeError(f"B^{weight} C.T overflows double precision")
        return blocks

    return tr._kept(("right_blocks", weight), None, make)


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

    Each t1 line is one :class:`TauEvaluator` stack: one left factor
    (:func:`_left_factor`) and one ``slogdet`` call. An exact zero of tau
    is the scaled zero (log magnitude -inf).
    """
    coords, lines = _grid_times(t1_values, t2_values, t3_values, base)
    values = [v for times in lines for v in TauEvaluator(tr, times)._shifted_taus(())]
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
    :meth:`~TauEvaluator.jets` give |tau| and u = 2 (tr X_2 - tr X_1^2),
    so a sample has the bits of its single point.
    Samples where |tau| falls below ``POLE_REL_THRESHOLD`` times the grid
    maximum, M is exactly singular or u is not finite are poles with value
    nan. An empty grid gives an empty list. Raises RangeError where a left
    factor, a right block B^j C.T or M overflows.
    """
    coords, lines = _grid_times(t1_values, t2_values, t3_values, base)
    if not coords:
        return []
    jets = [TauEvaluator(tr, times).jets(((2, 0, 0),)) for times in lines]
    log_mag = np.concatenate([m for m, _ in jets])
    u = 2.0 * np.concatenate([d[:, 0] for _, d in jets])
    threshold = log_mag.max() + math.log(POLE_REL_THRESHOLD)
    pole = ~np.isfinite(u) | (log_mag < threshold)
    u[pole] = complex(math.nan, math.nan)
    return [
        GridSample(v1, v2, v3, value, p)
        for (v1, v2, v3), value, p in zip(coords, u.tolist(), pole.tolist())
    ]
