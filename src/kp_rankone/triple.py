"""Admissible matrix triples and their validation.

A triple (A, B, C) consists of full-rank n x N matrices A and C (N > n)
and a square N x N matrix B. It is *admissible* when

* rank(A @ B @ U.T) <= 1, where the rows of U span the kernel of A under
  the plain-transpose pairing (A @ U.T = 0), and
* det(A @ C.T) != 0 at the rank tolerance.

Admissible triples are exactly the inputs for which the determinant
tau built in :mod:`kp_rankone.tau` satisfies the bilinear lattice
identity checked in :mod:`kp_rankone.verify`. The rank condition does
not depend on the basis chosen for the kernel; we fix the SVD basis for
reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from .errors import DimensionError, GenerationError, InadmissibleTripleError
from .matkernel import (
    DEFAULT_RANK_TOL,
    as_cmatrix,
    nullspace_rows,
    numerical_rank,
    spectral_norm,
)

__all__ = [
    "RankOneTriple",
    "TripleReport",
    "validate_triple",
    "make_triple",
    "random_admissible",
    "conjugate_triple",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of ``arr`` over an immutable bytes buffer, so numpy
    refuses to make it, or its base, writeable again."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


@dataclass(frozen=True, eq=False)
class RankOneTriple:
    """Immutable container for (A, B, C); construction checks shapes only.

    A, B and C are read-only copies of the inputs that numpy will not let
    anyone make writeable again, so whatever is derived from them once
    stays valid: ||B||_2 and the eigenvalues of B are computed on first
    use and kept, and :class:`~kp_rankone.tau.TauEvaluator` keeps the
    factor A exp(g(B)) of the last single base time in ``_base_factor``.
    Copies and pickles are rebuilt through the constructor and start empty.

    Use :func:`validate_triple` (or :func:`make_triple`) for the
    admissibility test itself.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    #: (key, mu, A exp(g(B) - mu I)) of the last single base time, or None
    _base_factor: Optional[Tuple[tuple, np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        A = _frozen(as_cmatrix(self.A, "A"))
        B = _frozen(as_cmatrix(self.B, "B"))
        C = _frozen(as_cmatrix(self.C, "C"))
        n, N = A.shape
        if N <= n:
            raise DimensionError(f"A must be wide (N > n), got shape {A.shape}")
        if C.shape != (n, N):
            raise DimensionError(f"C must match A's shape {A.shape}, got {C.shape}")
        if B.shape != (N, N):
            raise DimensionError(f"B must be {N} x {N}, got {B.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    def __reduce__(self):
        # copies and pickles go through the constructor: fresh read-only
        # arrays and nothing derived from the old ones
        return (RankOneTriple, (self.A, self.B, self.C))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def N(self) -> int:
        return self.A.shape[1]

    @cached_property
    def norm_B(self) -> float:
        """||B||_2, from one SVD of B."""
        return float(np.linalg.svd(self.B, compute_uv=False)[0])

    @cached_property
    def eigvals_B(self) -> np.ndarray:
        """Eigenvalues of B (read-only), from one ``eigvals`` call."""
        lam = np.linalg.eigvals(self.B)
        lam.setflags(write=False)
        return lam


@dataclass(frozen=True)
class TripleReport:
    """Diagnostics from the admissibility test.

    ``second_singular_ratio`` is sigma_2 / sigma_1 of A @ B @ U.T (zero
    when fewer than two singular values exist); it quantifies how far the
    rank-one condition is from failing.
    """

    rank_of_ABUt: int
    second_singular_ratio: float
    nondegeneracy_ok: bool
    full_rank_ok: bool
    admissible: bool


def validate_triple(A, B, C, tol: float = DEFAULT_RANK_TOL) -> TripleReport:
    """Run the full admissibility test and return a report.

    Never raises on merely inadmissible data; dimension mismatches and
    non-finite entries still raise.
    """
    A = as_cmatrix(A, "A")
    B = as_cmatrix(B, "B")
    C = as_cmatrix(C, "C")
    n, N = A.shape
    if N <= n:
        raise DimensionError(f"A must be wide (N > n), got shape {A.shape}")
    if C.shape != (n, N) or B.shape != (N, N):
        raise DimensionError(
            f"shape mismatch: A {A.shape}, B {B.shape}, C {C.shape}"
        )

    rank_A = numerical_rank(A, tol)
    rank_C = numerical_rank(C, tol)
    full_rank_ok = (rank_A == n) and (rank_C == n)

    # kernel basis from the SVD of A; if A is rank-deficient the kernel
    # is larger than N - n and the report reflects that
    _, _, vh = np.linalg.svd(A)
    U = vh[rank_A:].conj()
    R = A @ B @ U.T
    s = np.linalg.svd(R, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        rank_R = 0
        ratio = 0.0
    else:
        rank_R = int(np.count_nonzero(s > tol * s[0]))
        ratio = float(s[1] / s[0]) if s.size >= 2 else 0.0

    g = np.linalg.svd(A @ C.T, compute_uv=False)
    nondegeneracy_ok = bool(g[0] > 0.0 and g[-1] > tol * g[0])

    admissible = full_rank_ok and nondegeneracy_ok and rank_R <= 1
    return TripleReport(
        rank_of_ABUt=rank_R,
        second_singular_ratio=ratio,
        nondegeneracy_ok=nondegeneracy_ok,
        full_rank_ok=full_rank_ok,
        admissible=admissible,
    )


def make_triple(A, B, C, tol: float = DEFAULT_RANK_TOL) -> RankOneTriple:
    """Construct a triple and insist that it is admissible."""
    tr = RankOneTriple(A, B, C)
    report = validate_triple(tr.A, tr.B, tr.C, tol)
    if not report.admissible:
        raise InadmissibleTripleError(
            f"triple failed the admissibility test: {report}", report=report
        )
    return tr


def _unit_square(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Entries with independent real and imaginary parts uniform in [0, 1)."""
    return rng.random((rows, cols)) + 1j * rng.random((rows, cols))


def random_admissible(
    n: int,
    N: int,
    seed: int,
    *,
    tol: float = DEFAULT_RANK_TOL,
    b_norm: float = 1.0,
    max_resamples: int = 100,
) -> RankOneTriple:
    """Draw a random admissible triple, reproducibly.

    Construction: draw A, C, B0 and a rank-one target a @ b.T with entries
    uniform in the complex unit square, then correct

        B = B0 - M1 @ (A @ B0 @ U.T - a @ b.T) @ M2

    with M1 a right inverse of A (A @ M1 = I) and M2 a left inverse of
    U.T (M2 @ U.T = I), which forces A @ B @ U.T = a @ b.T exactly in
    exact arithmetic. B is then rescaled to spectral norm ``b_norm``
    (the rank condition is scale-invariant; the rescale keeps exp(g(B))
    at desk scale). Draws that fail full-rank or non-degeneracy checks
    are resampled, up to ``max_resamples`` times.

    Randomness comes from ``numpy.random.default_rng(seed)`` (the PCG64
    generator), so a given seed reproduces the same triple bit for bit
    on any platform.
    """
    if not (1 <= n < N):
        raise DimensionError(f"need 1 <= n < N, got n={n}, N={N}")
    rng = np.random.default_rng(int(seed))
    for _ in range(int(max_resamples)):
        A = _unit_square(rng, n, N)
        C = _unit_square(rng, n, N)
        B0 = _unit_square(rng, N, N)
        a = _unit_square(rng, n, 1)
        b = _unit_square(rng, N - n, 1)

        if numerical_rank(A, tol) < n or numerical_rank(C, tol) < n:
            continue
        U = nullspace_rows(A, tol)
        M1 = np.linalg.pinv(A)  # A @ M1 = I_n
        M2 = U.conj()           # M2 @ U.T = I_(N-n), rows of U are orthonormal
        R = A @ B0 @ U.T
        B = B0 - M1 @ (R - a @ b.T) @ M2
        nb = spectral_norm(B)
        if nb == 0.0:
            continue
        B = B * (b_norm / nb)

        report = validate_triple(A, B, C, tol)
        if report.admissible:
            return RankOneTriple(A, B, C)
    raise GenerationError(
        f"no admissible triple after {max_resamples} draws for n={n}, N={N}"
    )


def conjugate_triple(tr: RankOneTriple, G) -> RankOneTriple:
    """Change of basis (A, B, C) -> (A G^-1, G B G^-1, C G^T).

    This is an exact symmetry: admissibility and every tau value are
    unchanged (the factors of G cancel inside the determinant).
    """
    G = as_cmatrix(G, "G")
    if G.shape != (tr.N, tr.N):
        raise DimensionError(f"G must be {tr.N} x {tr.N}, got {G.shape}")
    Ginv = np.linalg.inv(G)
    return RankOneTriple(tr.A @ Ginv, G @ tr.B @ Ginv, tr.C @ G.T)
