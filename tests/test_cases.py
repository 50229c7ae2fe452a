"""Structured inputs: intertwined pairs, pole-collision pairs, reflection pairs.

The builders assemble block triples whose coupling rank is guaranteed by
an operator identity; these tests pin the exact block layout and the
rejection behaviour, and exercise the random generators.
"""

import numpy as np
import pytest

from kp_rankone.cases import (
    CalogeroMoserData,
    IntertwiningData,
    KdVPairData,
    from_calogero_moser,
    from_intertwining,
    from_kdv_pair,
    random_calogero_moser,
    random_intertwining,
    random_kdv_pair,
    wilson_tau_closed_form,
)
from kp_rankone.errors import (
    DegenerateInputError,
    DimensionError,
    InadmissibleTripleError,
)
from kp_rankone.tau import TimeVector, tau
from kp_rankone.triple import random_admissible, validate_triple


# ---------------------------------------------------------------------------
# intertwined pairs
# ---------------------------------------------------------------------------


def test_intertwining_block_layout():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    Y = np.diag([1.0, 2.0])
    Z = np.array([[2.0, 1.0], [1.0, 3.0]])
    # X Z - Y X = Z - Y = all-ones here, exactly rank one
    d = IntertwiningData(X, Y, Z)
    tr = from_intertwining(d)
    assert np.array_equal(tr.A, np.hstack([X, np.eye(2)]))
    assert np.array_equal(tr.B[:2, :2], Z)
    assert np.array_equal(tr.B[2:, 2:], Y)
    assert np.all(tr.B[:2, 2:] == 0) and np.all(tr.B[2:, :2] == 0)
    assert np.array_equal(tr.C, np.hstack([np.eye(2), np.eye(2)]))


def test_intertwining_rejects_rank_two():
    X = np.eye(2)
    Y = np.zeros((2, 2))
    Z = np.diag([1.0, 2.0])  # X Z - Y X = Z, rank 2
    with pytest.raises(InadmissibleTripleError):
        from_intertwining(IntertwiningData(X, Y, Z))


def test_intertwining_rectangular_needs_explicit_C():
    # X is 1x2: N = n + m = 3, no canonical [I I] exists
    X = np.array([[1.0, 0.5]])
    Y = np.array([[2.0]])
    Z = np.diag([2.0, 2.0])
    # X Z - Y X = 2X - 2X = 0, admissible
    d = IntertwiningData(X, Y, Z)
    with pytest.raises(DimensionError):
        from_intertwining(d)
    C = np.array([[1.0, 0.0, 1.0]])
    tr = from_intertwining(d, C=C)
    assert tr.n == 1 and tr.N == 3


def test_intertwining_scalar_tau():
    # X=[1], Y=[0], Z=[1]: tau = e^{g(1)} + 1, so tau(0)=2 and tau(t1=1)=e+1
    d = IntertwiningData(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))
    tr = from_intertwining(d)
    assert tau(tr, TimeVector([0.0])).to_complex() == pytest.approx(2.0)
    assert tau(tr, TimeVector([1.0])).to_complex() == pytest.approx(np.e + 1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# pole-collision pairs
# ---------------------------------------------------------------------------


def test_calogero_moser_block_layout():
    X = np.array([[3.0]])
    Z = np.array([[1.0]])
    d = CalogeroMoserData(X, Z)
    tr = from_calogero_moser(d)
    # B is the 2x2 Jordan-like block [[Z,0],[I,Z]] around the single point
    assert np.array_equal(tr.B, np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert np.array_equal(tr.A, np.array([[3.0, 1.0]]))
    assert np.array_equal(tr.C, np.array([[1.0, 0.0]]))


def test_calogero_moser_rejects_bad_commutator():
    X = np.diag([1.0, 2.0])
    Z = np.diag([3.0, 4.0])  # [X,Z] = 0 so [X,Z]+I = I, rank 2
    with pytest.raises(InadmissibleTripleError):
        from_calogero_moser(CalogeroMoserData(X, Z))


def test_calogero_moser_singular_X_suggests_translation():
    # rank-one commutator shift but X not invertible
    Z = np.diag([0.0, 1.0])
    X = np.array([[0.0, 1.0], [-1.0, 0.0]])
    # [X,Z]+I: XZ-ZX = [[0,1],[1,0]]... build a valid rank-one pair instead
    z = np.array([0.0, 1.0])
    Xcm = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            if i != j:
                Xcm[i, j] = 1.0 / (z[j] - z[i])
    # force singularity while keeping the commutator structure exact:
    # Xcm has zero diagonal, det = -Xcm[0,1]*Xcm[1,0] = 1 here, so shift
    # the diagonal to make it singular
    Xs = Xcm + np.diag([1.0, -1.0])  # det = -1 - (1)(-1) = 0
    d = CalogeroMoserData(Xs, np.diag(z))
    with pytest.raises(DegenerateInputError) as err:
        from_calogero_moser(d)
    assert "translate" in str(err.value).lower() or "t1" in str(err.value)


def test_wilson_closed_form_scalar():
    # X=[3], Z=[0], t=(t1): det(X + g'(Z)) = 3 + t1
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    for t1 in (0.0, 2.0, -1.5):
        got = wilson_tau_closed_form(d, TimeVector([t1])).to_complex()
        assert got == pytest.approx(3.0 + t1, rel=1e-14)


def test_wilson_closed_form_matches_tau_scalar():
    # full determinant route: tau = det(e^{g(Z)}) det(X + g'(Z)); with Z=[1]
    # and t=(1,): tau = e * (3 + 1) = 4e
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[1.0]]))
    tr = from_calogero_moser(d)
    got = tau(tr, TimeVector([1.0])).to_complex()
    assert got == pytest.approx(4.0 * np.e, rel=1e-13)
    assert got == pytest.approx(10.87312731383618, rel=1e-13)


# ---------------------------------------------------------------------------
# reflection pairs
# ---------------------------------------------------------------------------


def test_kdv_pair_reduces_to_intertwining():
    X = np.array([[1.0]])
    Z = np.array([[1.0]])
    # X Z + Z X = 2, rank one
    tr = from_kdv_pair(KdVPairData(X, Z))
    assert tr.n == 1 and tr.N == 2
    assert np.array_equal(tr.B, np.diag([1.0, -1.0]))
    # tau = e^{g(k)} + e^{g(-k)} = 2 cosh(g(1))
    t = TimeVector([0.7])
    assert tau(tr, t).to_complex() == pytest.approx(2.0 * np.cosh(0.7), rel=1e-14)


def test_kdv_pair_rejects_rank_two():
    X = np.eye(2)
    Z = np.diag([1.0, 2.0])  # XZ + ZX = 2Z, rank 2
    with pytest.raises(InadmissibleTripleError):
        from_kdv_pair(KdVPairData(X, Z))


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_intertwining_valid(n):
    for seed in range(4):
        d = random_intertwining(n, seed=seed)
        R = d.X @ d.Z - d.Y @ d.X
        assert np.linalg.matrix_rank(R, tol=1e-8) <= 1
        tr = from_intertwining(d)
        assert validate_triple(tr.A, tr.B, tr.C).admissible


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_random_calogero_moser_valid(n):
    for seed in range(4):
        d = random_calogero_moser(n, seed=seed)
        R = d.X @ d.Z - d.Z @ d.X + np.eye(n)
        assert np.linalg.matrix_rank(R, tol=1e-8) <= 1
        tr = from_calogero_moser(d)
        assert validate_triple(tr.A, tr.B, tr.C).admissible


def test_random_calogero_moser_unconjugated_is_pair_form():
    d = random_calogero_moser(3, seed=2, conjugate=False)
    assert np.allclose(d.Z, np.diag(np.diag(d.Z)))
    z = np.diag(d.Z)
    # off-diagonal entries are reciprocal pole separations
    for i in range(3):
        for j in range(3):
            if i != j:
                assert d.X[i, j] == pytest.approx(1.0 / (z[j] - z[i]))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_kdv_pair_valid(n):
    for seed in range(4):
        d = random_kdv_pair(n, seed=seed)
        R = d.X @ d.Z + d.Z @ d.X
        assert np.linalg.matrix_rank(R, tol=1e-8) <= 1
        tr = from_kdv_pair(d)
        assert validate_triple(tr.A, tr.B, tr.C).admissible
        # spectrum of Z stays in the right half plane (solitons decay)
        assert np.all(np.linalg.eigvals(d.Z).real > 0)


def test_generators_deterministic():
    for gen in (random_intertwining, random_calogero_moser, random_kdv_pair):
        a, b = gen(2, seed=77), gen(2, seed=77)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.Z, b.Z)


def test_data_dimension_validation():
    with pytest.raises(DimensionError):
        IntertwiningData(np.eye(2), np.eye(3), np.eye(2))
    with pytest.raises(DimensionError):
        CalogeroMoserData(np.eye(2), np.eye(3))
    with pytest.raises(DimensionError):
        KdVPairData(np.ones((2, 3)), np.eye(3))


@pytest.mark.parametrize(
    "generate",
    [
        lambda seed: random_admissible(2, 6, seed=seed),
        lambda seed: random_intertwining(2, seed=seed),
        lambda seed: random_calogero_moser(2, seed=seed),
        lambda seed: random_kdv_pair(2, seed=seed),
    ],
    ids=["admissible", "intertwining", "calogero-moser", "kdv-pair"],
)
def test_generators_refuse_a_non_integral_seed(generate):
    # int() used to truncate: seed 1.5 gave the draw of seed 1
    for seed in (1.5, np.float64(2.5), float("nan"), float("inf")):
        with pytest.raises(ValueError, match="seed must be an integer"):
            generate(seed)

    def arrays(x):
        names = ("A", "B", "C", "X", "Y", "Z")
        return [getattr(x, k).tobytes() for k in names if hasattr(x, k)]

    want = arrays(generate(2))
    for seed in (2.0, np.int64(2), np.float32(2.0)):
        assert arrays(generate(seed)) == want
