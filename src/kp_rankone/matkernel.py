"""Dense complex linear algebra kernel.

Everything in this package works on plain ``numpy`` arrays of
``complex128``; :func:`as_cmatrix` (with a stack form for
:func:`expm_centered`) is the single validation point that coerces,
copies and finiteness-checks input at API boundaries.
Determinants (and anything else that can outgrow doubles) are carried as
:class:`ScaledComplex` values, which keep the natural log of the
magnitude separate from the phase so products spanning thousands of
orders of magnitude remain exact to relative rounding error.

Numerical backends: ``scipy.linalg.expm`` (scaling and squaring with a
Pade core, so defective matrices are fine), LU via ``numpy.linalg.slogdet``
for determinants, and SVD for ranks and kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

import numpy as np
from scipy.linalg import expm as _scipy_expm

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
    "rel_difference",
    "residual_of_sum",
    "matexp",
    "expm_centered",
    "det_scaled",
    "scaled_from_slogdet",
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
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
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
        w = complex(w)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValueError("cannot represent a non-finite complex value")
        if w == 0:
            return cls(-math.inf, 0.0)
        # atan2, not cmath.phase: the latter raises on a subnormal part
        return cls(math.log(abs(w)), wrap_phase(math.atan2(w.imag, w.real)))

    @classmethod
    def one(cls) -> "ScaledComplex":
        return cls(0.0, 0.0)

    @classmethod
    def exp_of(cls, w) -> "ScaledComplex":
        """exp(w) for arbitrary complex w, without overflow."""
        w = complex(w)
        if not (math.isfinite(w.real) and math.isfinite(w.imag)):
            raise ValueError("exponent must be finite")
        return cls(w.real, wrap_phase(w.imag))

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
    if not terms:
        raise ValueError("need at least one term")
    peak = max(t.log_magnitude for t in terms)
    if peak < _LOG_TINY:
        raise IndeterminateScaleError(
            "all terms are below 1e-300 in magnitude; relative residual undefined"
        )
    acc = 0j
    for t in terms:
        if t.is_zero:
            continue
        r = math.exp(t.log_magnitude - peak)
        acc += complex(r * math.cos(t.phase), r * math.sin(t.phase))
    return abs(acc)


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


def det_scaled(M) -> ScaledComplex:
    """Determinant as a ScaledComplex (LU based, safe for huge/tiny values)."""
    M = as_cmatrix(M, "determinant input")
    _require_square(M, "determinant input")
    return scaled_from_slogdet(*np.linalg.slogdet(M))


def scaled_from_slogdet(sign, logdet) -> ScaledComplex:
    """The ScaledComplex of one ``numpy.linalg.slogdet`` result."""
    if sign == 0:
        return ScaledComplex(-math.inf, 0.0)
    return ScaledComplex(float(logdet), wrap_phase(float(np.angle(sign))))


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
