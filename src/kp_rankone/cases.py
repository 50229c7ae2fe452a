"""Builders that embed structured matrix data into admissible triples.

Three families of square-matrix data are supported, each with its own
rank-one style constraint:

* almost-intertwining data (X, Y, Z) with rank(X Z - Y X) <= 1, embedded
  as A = [X I], B = diag(Z, Y); with the default C = [I I] the resulting
  tau collapses to det(X exp(g(Z)) + exp(g(Y))),
* commutator data (X, Z) with rank([X, Z] + I) <= 1, embedded with the
  non-diagonalizable block B = [[Z, 0], [I, Z]], for which tau factors as
  det(exp(g(Z))) det(X + g'(Z)) (the closed form below),
* anti-commutator pairs (X, Z) with rank(X Z + Z X) <= 1, a special case
  of the intertwining embedding with Y = -Z; restricted to odd times it
  produces the usual soliton tau of the half hierarchy.

Every builder copies its inputs, checks the case condition directly (for
a readable error), then validates the assembled triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    GenerationError,
    InadmissibleTripleError,
)
from .matkernel import DEFAULT_RANK_TOL, _integral, as_cmatrix, numerical_rank
from .triple import RankOneTriple, _frozen, make_triple

__all__ = [
    "IntertwiningData",
    "CalogeroMoserData",
    "KdVPairData",
    "from_intertwining",
    "from_calogero_moser",
    "from_kdv_pair",
    "wilson_tau_closed_form",
    "random_intertwining",
    "random_calogero_moser",
    "random_kdv_pair",
]


@dataclass(frozen=True, eq=False)
class IntertwiningData:
    """X (n x m), Y (n x n), Z (m x m) with rank(X Z - Y X) <= 1 intended."""

    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        X = _frozen(as_cmatrix(self.X, "X"))
        Y = _frozen(as_cmatrix(self.Y, "Y"))
        Z = _frozen(as_cmatrix(self.Z, "Z"))
        n, m = X.shape
        if Y.shape != (n, n):
            raise DimensionError(f"Y must be {n} x {n}, got {Y.shape}")
        if Z.shape != (m, m):
            raise DimensionError(f"Z must be {m} x {m}, got {Z.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class _SquarePairData:
    """Square X, Z of equal size (the body shared by the two pair cases)."""

    X: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        X = _frozen(as_cmatrix(self.X, "X"))
        Z = _frozen(as_cmatrix(self.Z, "Z"))
        n = X.shape[0]
        if X.shape != (n, n):
            raise DimensionError(f"X must be square, got {X.shape}")
        if Z.shape != (n, n):
            raise DimensionError(f"Z must match X's shape, got {Z.shape}")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True, eq=False)
class CalogeroMoserData(_SquarePairData):
    """Square X, Z of equal size with rank([X, Z] + I) <= 1 intended."""


@dataclass(frozen=True, eq=False)
class KdVPairData(_SquarePairData):
    """Square X, Z of equal size with rank(X Z + Z X) <= 1 intended."""

    def as_intertwining(self) -> IntertwiningData:
        """The embedding (X, Y, Z) = (X, -Z, Z): X Z - Y X = X Z + Z X."""
        return IntertwiningData(self.X, -self.Z, self.Z)


def from_intertwining(
    d: IntertwiningData,
    C=None,
    tol: float = DEFAULT_RANK_TOL,
) -> RankOneTriple:
    """Embed almost-intertwining data as A = [X I], B = diag(Z, Y).

    When X is square (N = 2n) and C is omitted, C defaults to [I I],
    which makes tau equal det(X exp(g(Z)) + exp(g(Y))) exactly.
    """
    n, m = d.n, d.m
    N = n + m
    defect = d.X @ d.Z - d.Y @ d.X
    r = numerical_rank(defect, tol)
    if r > 1:
        raise InadmissibleTripleError(
            f"almost-intertwining condition fails: rank(X Z - Y X) = {r} > 1"
        )
    A = np.hstack([d.X, np.eye(n, dtype=np.complex128)])
    B = np.zeros((N, N), dtype=np.complex128)
    B[:m, :m] = d.Z
    B[m:, m:] = d.Y
    if C is None:
        if m != n:
            raise DimensionError(
                "the default C = [I I] needs square X; pass C explicitly "
                f"for X of shape {d.X.shape}"
            )
        I = np.eye(n, dtype=np.complex128)
        C = np.hstack([I, I])
    else:
        C = as_cmatrix(C, "C")
        if C.shape != (n, N):
            raise DimensionError(f"C must be {n} x {N}, got {C.shape}")
    return make_triple(A, B, C, tol)


def from_calogero_moser(d: CalogeroMoserData, tol: float = DEFAULT_RANK_TOL) -> RankOneTriple:
    """Embed commutator data as A = [X I], B = [[Z, 0], [I, Z]], C = [I 0].

    Requires rank([X, Z] + I) <= 1 and X invertible; a singular X only
    means tau vanishes at t = 0, so the error suggests translating times
    (t_1 -> t_1 + s replaces X by X + s I in the closed form).
    """
    n = d.n
    comm = d.X @ d.Z - d.Z @ d.X + np.eye(n, dtype=np.complex128)
    r = numerical_rank(comm, tol)
    if r > 1:
        raise InadmissibleTripleError(
            f"commutator condition fails: rank([X, Z] + I) = {r} > 1"
        )
    if numerical_rank(d.X, tol) < n:
        raise DegenerateInputError(
            "X is numerically singular, so tau(0) = det(X) = 0; translate "
            "times first (X -> X + t1 I) and retry"
        )
    I = np.eye(n, dtype=np.complex128)
    O = np.zeros((n, n), dtype=np.complex128)
    A = np.hstack([d.X, I])
    B = np.block([[d.Z, O], [I, d.Z]])
    C = np.hstack([I, O])
    return make_triple(A, B, C, tol)


def from_kdv_pair(d: KdVPairData, tol: float = DEFAULT_RANK_TOL) -> RankOneTriple:
    """Embed an anti-commutator pair via the intertwining map with Y = -Z."""
    anti = d.X @ d.Z + d.Z @ d.X
    r = numerical_rank(anti, tol)
    if r > 1:
        raise InadmissibleTripleError(
            f"anti-commutator condition fails: rank(X Z + Z X) = {r} > 1"
        )
    return from_intertwining(d.as_intertwining(), tol=tol)


def wilson_tau_closed_form(d: CalogeroMoserData, t):
    """det(X + g'(Z)) with g'(x) = sum_i i t_i x^(i-1), as a ScaledComplex.

    This is the tau of :func:`from_calogero_moser` stripped of its
    t-dependent gauge det(exp(g(Z))).
    """
    from .matkernel import det_scaled
    from .tau import TimeVector

    t = TimeVector.coerce(t)
    return det_scaled(d.X + t.g_prime_matrix(d.Z))


# ---------------------------------------------------------------------------
# seeded random generators for the three families (test and CLI plumbing)
# ---------------------------------------------------------------------------


def _square(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.random((n, n)) + 1j * rng.random((n, n))


def random_intertwining(n: int, seed: int, *, max_resamples: int = 100) -> IntertwiningData:
    """Random (X, Y, Z) with X square invertible and X Z - Y X of rank one.

    Y is solved from Y = (X Z - a b.T) X^-1, so the defect is a b.T by
    construction; draws with ill-conditioned X are rejected.
    """
    rng = np.random.default_rng(_integral(seed, "seed"))
    for _ in range(max_resamples):
        X = _square(rng, n)
        Z = 0.8 * _square(rng, n)
        a = 0.5 * (rng.random((n, 1)) + 1j * rng.random((n, 1)))
        b = 0.5 * (rng.random((n, 1)) + 1j * rng.random((n, 1)))
        s = np.linalg.svd(X, compute_uv=False)
        if s[-1] < 1e-2 * s[0]:
            continue
        Y = (X @ Z - a @ b.T) @ np.linalg.inv(X)
        d = IntertwiningData(X, Y, Z)
        try:
            from_intertwining(d)
        except (InadmissibleTripleError, DegenerateInputError):
            continue
        return d
    raise GenerationError(f"no intertwining data after {max_resamples} draws (n={n})")


def random_calogero_moser(
    n: int,
    seed: int,
    *,
    conjugate: bool = True,
    max_resamples: int = 100,
) -> CalogeroMoserData:
    """Random (X, Z) with [X, Z] + I of exact rank one and X invertible.

    Z starts diagonal with well-separated entries and X carries the
    classic off-diagonal 1/(z_j - z_i) profile, which makes [X, Z] + I
    the all-ones matrix; an optional similarity by a random
    well-conditioned G hides that structure without touching either
    invariant. Rejection sampling enforces the rank test and det(X) != 0.
    """
    rng = np.random.default_rng(_integral(seed, "seed"))
    for _ in range(max_resamples):
        z = (rng.random(n) - 0.5) * 4 + 1j * (rng.random(n) - 0.5) * 4
        if n > 1:
            sep = min(
                abs(z[i] - z[j]) for i in range(n) for j in range(i + 1, n)
            )
            if sep < 0.5:
                continue
        x_diag = (rng.random(n) - 0.5) * 4 + 1j * (rng.random(n) - 0.5) * 4
        X = np.diag(x_diag).astype(np.complex128)
        for i in range(n):
            for j in range(n):
                if i != j:
                    X[i, j] = 1.0 / (z[j] - z[i])
        Z = np.diag(z).astype(np.complex128)
        if conjugate:
            G = np.eye(n) + 0.25 * _square(rng, n)
            s = np.linalg.svd(G, compute_uv=False)
            if s[-1] < 1e-2 * s[0]:
                continue
            Ginv = np.linalg.inv(G)
            X = G @ X @ Ginv
            Z = G @ Z @ Ginv
        d = CalogeroMoserData(X, Z)
        comm = X @ Z - Z @ X + np.eye(n)
        if numerical_rank(comm) != 1 or numerical_rank(X) < n:
            continue
        return d
    raise GenerationError(f"no commutator data after {max_resamples} draws (n={n})")


def random_kdv_pair(n: int, seed: int, *, max_resamples: int = 100) -> KdVPairData:
    """Random (X, Z) with X Z + Z X of exact rank one.

    Z = Q diag(ev) Q^-1 is built with spectrum in the right half plane, so
    the Sylvester equation X Z + Z X = a b.T is uniquely solvable; in the
    eigenbasis of Z it is diagonal, and X = Q [C_ij / (ev_i + ev_j)] Q^-1
    with C = Q^-1 a b.T Q.
    """
    rng = np.random.default_rng(_integral(seed, "seed"))
    for _ in range(max_resamples):
        # eigenvalues with real part bounded away from zero
        ev = 0.4 + rng.random(n) + 1j * (rng.random(n) - 0.5)
        Q = _square(rng, n)
        s = np.linalg.svd(Q, compute_uv=False)
        if s[-1] < 1e-2 * s[0]:
            continue
        Q_inv = np.linalg.inv(Q)
        Z = Q @ np.diag(ev) @ Q_inv
        a = rng.random((n, 1)) + 1j * rng.random((n, 1))
        b = rng.random((n, 1)) + 1j * rng.random((n, 1))
        X = Q @ ((Q_inv @ a @ b.T @ Q) / (ev[:, None] + ev[None, :])) @ Q_inv
        d = KdVPairData(X, Z)
        try:
            from_kdv_pair(d)
        except (InadmissibleTripleError, DegenerateInputError, DimensionError):
            continue
        return d
    raise GenerationError(f"no anti-commutator pair after {max_resamples} draws (n={n})")
