"""Wave functions and spectral data attached to a tau function.

The scalar cases below were evaluated by hand from the closed tau forms;
the values are frozen so regressions in shift handling or normalization
show up as value changes, not just as broken self-consistency.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import psi_stationary_by_eigenbasis
from kp_rankone.baker import (
    BASample,
    _circle_taus,
    grassmann_support,
    polynomiality_check,
    psi_dual,
    psi_grid,
    psi_stationary,
    psi_time,
)
from kp_rankone.cases import (
    CalogeroMoserData,
    KdVPairData,
    from_calogero_moser,
    from_kdv_pair,
    random_calogero_moser,
    random_kdv_pair,
)
from kp_rankone.errors import GeometryError, PoleError
from kp_rankone.matkernel import ScaledComplex, rel_difference
from kp_rankone.tau import TauEvaluator, TimeVector, tau, tau_miwa
from kp_rankone.triple import RankOneTriple, make_triple, random_admissible, validate_triple
from kp_rankone.verify import hbde_residual

A2 = np.array([[1.0, 1.0]])
B2 = np.diag([1.0, 0.0])
C2 = np.array([[1.0, 1.0]])


@pytest.fixture()
def scalar_triple():
    return make_triple(A2, B2, C2)


# ---------------------------------------------------------------------------
# frozen scalar values
# ---------------------------------------------------------------------------


def test_psi_stationary_frozen(scalar_triple):
    # x=0, z=2: det(A (zI-B) C^T) / (z^1 det(A C^T)) = 3/4
    s = psi_stationary(scalar_triple, 0.0, 2.0)
    assert s.as_complex == pytest.approx(0.75, rel=1e-14)


def test_psi_dual_frozen(scalar_triple):
    # x=0, z=2: tau under the inverse shift is det(A (I-B/2)^{-1} C^T) = 3,
    # base tau is 2, and the exponential factor is 1 at t=0
    s = psi_dual(scalar_triple, TimeVector([0.0]), 2.0)
    assert s.as_complex == pytest.approx(1.5, rel=1e-13)


def test_psi_time_frozen_rational_point():
    # tau = 3 + t1 exactly (single pole datum X=[3], Z=[0]); then
    # psi(t, z) = (1 - 1/(z (3+t1))) e^{t1 z}, derived by substituting the
    # shifted time into the closed form. At t1 = 3/2, z = 2/3 this is
    # (1 - 1/3) e = 2e/3.
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr = from_calogero_moser(d)
    s = psi_time(tr, TimeVector([1.5]), 2.0 / 3.0)
    want = 2.0 * math.e / 3.0
    assert s.as_complex == pytest.approx(want, rel=1e-12)
    assert s.as_complex == pytest.approx(1.8121878856393633, rel=1e-12)


def test_psi_dual_frozen_rational_point():
    # same datum, opposite shift: (1 + 1/(z (3+t1))) e^{-t1 z} = (4/3)/e
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr = from_calogero_moser(d)
    s = psi_dual(tr, TimeVector([1.5]), 2.0 / 3.0)
    assert s.as_complex == pytest.approx(4.0 / (3.0 * math.e), rel=1e-12)


# ---------------------------------------------------------------------------
# consistency between the two evaluation routes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_time_route_matches_stationary_route(seed):
    # both routes against the stationary determinant formula, written in
    # the eigenbasis of B (no shared code with the library's psi path)
    tr = random_admissible(2 + seed % 2, 5 + seed % 4, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        x = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        z = complex(rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.0))
        want = ScaledComplex.from_complex(psi_stationary_by_eigenbasis(tr, x, z))
        a = psi_time(tr, TimeVector([x]), z)
        b = psi_stationary(tr, x, z)
        assert rel_difference(a.value, want) < 1e-12, (seed, x, z)
        assert rel_difference(b.value, want) < 1e-12, (seed, x, z)


def test_psi_large_z_normalization(scalar_triple):
    # psi e^{-xz} -> 1 as z -> infinity, with error O(1/z)
    for x in (0.2, 0.45, -0.3):
        s = psi_stationary(scalar_triple, x, 1e6)
        w = s.value * ScaledComplex.exp_of(-x * 1e6)
        assert abs(w.to_complex() - 1.0) < 1e-5


def test_psi_pole_path():
    # det(A C^T) = 0 makes the x=0 denominator exactly zero
    tr = RankOneTriple(
        np.array([[1.0, 1.0]]), np.diag([1.0, 0.0]), np.array([[1.0, -1.0]])
    )
    with pytest.raises(PoleError):
        psi_stationary(tr, 0.0, 2.0)


def test_ba_sample_pole_constructor():
    s = BASample.pole(0.5, 2.0)
    assert s.is_pole
    assert s.x == 0.5 and s.z == 2.0


def test_psi_rejects_zero_z(scalar_triple):
    with pytest.raises(ValueError):
        psi_stationary(scalar_triple, 0.1, 0.0)


@pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan, complex(1.0, math.inf)])
def test_psi_rejects_non_finite_z(z):
    tr = random_admissible(2, 5, seed=3)
    t = TimeVector([0.2, -0.1])
    for call in (
        lambda: psi_time(tr, t, z),
        lambda: psi_dual(tr, t, z),
        lambda: psi_grid(tr, [0.0, 0.5], [2.0, z]),
    ):
        with pytest.raises(ValueError, match="spectral parameter z must be finite"):
            call()


# ---------------------------------------------------------------------------
# spectral support
# ---------------------------------------------------------------------------


def test_support_diagonal():
    d = KdVPairData(np.array([[1.0]]), np.array([[1.0]]))
    tr = from_kdv_pair(d)
    sup = grassmann_support(tr)
    assert sup.char_poly_degree == 2
    vals = sorted((round(v.real, 9), m) for v, m in sup.points)
    assert vals == [(-1.0, 1), (1.0, 1)]


def test_support_defective_block():
    # the pole-collision construction gives a non-diagonalizable B whose
    # single eigenvalue must come back with multiplicity 2
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[1.0]]))
    tr = from_calogero_moser(d)
    sup = grassmann_support(tr)
    assert sup.char_poly_degree == 2
    assert len(sup.points) == 1
    v, m = sup.points[0]
    assert m == 2
    assert v == pytest.approx(1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# polynomiality of the shifted tau
# ---------------------------------------------------------------------------


def test_polynomiality_b_zero_exact():
    # B = 0: the shift factor is the identity, so the rescaled object is
    # z^N tau(t) on the nose
    tr = make_triple(np.array([[1.0, 0.0]]), np.zeros((2, 2)), np.array([[1.0, 1.0]]))
    t = TimeVector([0.4, -0.1])
    rep = polynomiality_check(tr, t)
    assert rep.passed
    assert rep.residual < 1e-12
    assert rep.context["degree"] == 2
    want = tau(tr, t)
    assert rel_difference(rep.context["leading_coefficient"], want) < 1e-10


def test_polynomiality_scalar_closed_form(scalar_triple):
    # at t=0: q(z) = z(z-1) [z/(z-1) + 1] = z(2z - 1); degree 2, leading 2
    rep = polynomiality_check(scalar_triple, TimeVector([0.0]))
    assert rep.passed
    assert rep.context["degree"] == 2
    assert rep.context["leading_coefficient"].to_complex() == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("seed", range(6))
def test_polynomiality_random(seed):
    tr = random_admissible(2 + seed % 3, 6 + seed % 5, seed=200 + seed)
    t = TimeVector([0.3, -0.15, 0.1])
    rep = polynomiality_check(tr, t)
    assert rep.passed, (seed, rep.residual)
    assert rep.context["degree"] == tr.N
    # the top coefficient of the fitted polynomial is the unshifted tau
    assert rel_difference(rep.context["leading_coefficient"], tau(tr, t)) < 1e-12


def test_polynomiality_radius_invariance():
    tr = random_admissible(2, 6, seed=300)
    t = TimeVector([0.2, 0.1])
    r1 = polynomiality_check(tr, t, radius=3.0)
    r2 = polynomiality_check(tr, t, radius=5.0)
    assert r1.passed and r2.passed
    assert rel_difference(
        r1.context["leading_coefficient"], r2.context["leading_coefficient"]
    ) < 1e-8


def test_polynomiality_holds_without_rank_one_admissibility():
    # det(z I - B) det(A E (z I - B)^-1 C.T) = +-det([[z I - B, C.T], [A E, 0]])
    # has degree <= N - n for any A, B, C: the check passes on a triple
    # whose rank(A B U.T) is 3, which the bilinear identity rejects
    rng = np.random.default_rng(11)
    A, B, C = (
        rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in ((3, 9), (9, 9), (3, 9))
    )
    report = validate_triple(A, B, C)
    assert report.rank_of_ABUt == 3 and not report.admissible
    tr = RankOneTriple(A, B, C)
    t = TimeVector([0.3, -0.15, 0.1])
    rep = polynomiality_check(tr, t)
    assert rep.residual < 1e-12
    assert rel_difference(rep.context["leading_coefficient"], tau(tr, t)) < 1e-12
    assert hbde_residual(tr, t, 1.5, 2 + 0.5j, -1.8).residual > 0.1


def _mp_node_taus(tr, t, zs, dps=40):
    """tau(t + [1/z]) = z^n det(A (z I - B)^-1 exp(g(B)) C.T) for each z, at
    ``dps`` digits: mpmath's exponential, then Gaussian elimination with
    partial pivoting of [z I - B | exp(g(B)) C.T]."""
    n, N = tr.n, tr.N
    with mp.workdps(dps):
        B = mp.matrix(tr.B.tolist())
        G = mp.zeros(N)
        for v in t.values[::-1]:
            G = B * (mp.mpc(complex(v)) * mp.eye(N) + G)
        R = mp.expm(G) * mp.matrix(tr.C.T.tolist())
        A = mp.matrix(tr.A.tolist())
        out = []
        for z in zs:
            z = mp.mpc(complex(z))
            rows = [
                [(z if i == j else 0) - B[i, j] for j in range(N)] + [R[i, j] for j in range(n)]
                for i in range(N)
            ]
            for k in range(N):
                p = max(range(k, N), key=lambda i: abs(rows[i][k]))
                rows[k], rows[p] = rows[p], rows[k]
                for i in range(k + 1, N):
                    f = rows[i][k] / rows[k][k]
                    rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
            Y = mp.matrix(N, n)
            for i in reversed(range(N)):
                for j in range(n):
                    acc = rows[i][N + j] - mp.fsum(rows[i][k] * Y[k, j] for k in range(i + 1, N))
                    Y[i, j] = acc / rows[i][i]
            out.append(complex(z ** n * mp.det(A * Y)))
    return out


def _b_zero_triple():
    rng = np.random.default_rng(5)
    A, C = (rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)) for _ in range(2))
    return RankOneTriple(A, np.zeros((6, 6)), C)


@pytest.mark.parametrize(
    "build",
    [
        lambda: random_admissible(8, 24, seed=1),
        lambda: from_calogero_moser(random_calogero_moser(2, seed=0)),  # defective B
        lambda: from_calogero_moser(random_calogero_moser(3, seed=1)),
        lambda: from_kdv_pair(random_kdv_pair(3, seed=0)),
        _b_zero_triple,
    ],
    ids=["admissible-8x24", "calogero-moser-2", "calogero-moser-3", "kdv-3", "b-zero"],
)
def test_circle_node_taus_match_miwa_and_mpmath(build):
    # the node taus of both circles against the one-shift Miwa tau and a
    # 40-digit determinant; six nodes per circle, every node of a smaller one
    tr = build()
    t = TimeVector([0.3, -0.15j, 0.1])
    r = max(2.0 + float(np.max(np.abs(tr.eigvals_B))), 2.0 * tr.norm_B)
    powers, lm, unit = _circle_taus(TauEvaluator(tr, t), r)
    assert lm.shape == unit.shape == (3 * tr.N + 1,)
    nodes, zs = [], []
    start = 0
    for Z in powers:
        picked = np.linspace(0, len(Z) - 1, min(6, len(Z))).round().astype(int)
        nodes += (start + picked).tolist()
        zs += (r * Z[picked, 1]).tolist()
        start += len(Z)
    for i, z, want in zip(nodes, zs, _mp_node_taus(tr, t, zs)):
        got = ScaledComplex(float(lm[i]), float(np.angle(unit[i])))
        assert rel_difference(got, tau_miwa(tr, ((z, -1),), t)) < 1e-12, (i, z)
        assert abs(got.to_complex() - want) < 1e-12 * abs(want), (i, z)


def test_polynomiality_default_radius():
    # max(2 + rho(B), 2 ||B||_2): for random_admissible ||B||_2 = 1, so the
    # spectral term decides; a nilpotent B of norm 5 needs 2 ||B||_2 = 10
    tr = random_admissible(2, 6, seed=300)
    rep = polynomiality_check(tr, TimeVector([0.2, 0.1]))
    assert tr.norm_B == pytest.approx(1.0, rel=1e-12)
    assert rep.context["radius"] == 2.0 + float(np.max(np.abs(tr.eigvals_B)))
    B = np.diag([5.0, 5.0], k=1)
    tr = RankOneTriple(np.array([[1.0, 0.5, 0.0]]), B, np.array([[1.0, 1.0, 1.0]]))
    t = TimeVector([0.2, 0.1])
    rep = polynomiality_check(tr, t)
    assert rep.context["radius"] == 2.0 * tr.norm_B == 10.0
    assert rep.passed and rep.residual < 1e-13
    assert rel_difference(rep.context["leading_coefficient"], tau(tr, t)) < 1e-13


@pytest.mark.parametrize("n,N,norm", [(2, 24, 4e6), (4, 100, 40.0), (2, 24, 1e150)])
def test_polynomiality_with_a_large_norm_of_B(n, N, norm):
    # the moment blocks are those of B / ||B||_2, so no power of B is
    # formed: ||B||_2^(2N-1) far past 1e308 does not overflow
    tr = random_admissible(n, N, seed=1)
    tr = RankOneTriple(tr.A, tr.B * (norm / tr.norm_B), tr.C)
    t = TimeVector([0.0])
    rep = polynomiality_check(tr, t)
    assert rep.context["radius"] == pytest.approx(2.0 * norm, rel=1e-12)
    assert rep.passed and rep.residual < 1e-12
    assert rel_difference(rep.context["leading_coefficient"], tau(tr, t)) < 1e-12


@pytest.mark.parametrize("radius", [1e-10, 1e-3, 3.0])
def test_polynomiality_b_zero_at_any_radius(radius):
    # B = 0 allows any positive radius; a tiny one must not overflow the
    # weights of the (zero) blocks past the first, 2N - 1 = 47 of them
    rng = np.random.default_rng(5)
    A, C = (rng.standard_normal((2, 24)) + 1j * rng.standard_normal((2, 24)) for _ in range(2))
    tr = RankOneTriple(A, np.zeros((24, 24)), C)
    t = TimeVector([0.2])
    rep = polynomiality_check(tr, t, radius=radius)
    assert rep.passed and rep.residual < 1e-13
    assert rel_difference(rep.context["leading_coefficient"], tau(tr, t)) < 1e-13


def test_polynomiality_radius_below_twice_norm_raises():
    tr = RankOneTriple(np.array([[1.0, 0.5, 0.0]]), np.diag([5.0, 5.0], k=1), np.ones((1, 3)))
    with pytest.raises(GeometryError, match="2 \\|\\|B\\|\\|_2"):
        polynomiality_check(tr, TimeVector([0.2]), radius=9.9)
    for bad in (0.0, -3.0, math.inf, math.nan):
        with pytest.raises(GeometryError):
            polynomiality_check(_b_zero_triple(), TimeVector([0.2]), radius=bad)
    assert polynomiality_check(tr, TimeVector([0.2]), radius=10.0).passed


@pytest.mark.parametrize("n,N", [(2, 6), (8, 24)])
def test_polynomiality_takes_no_solve_per_node(monkeypatch, n, N):
    # the 3N + 1 nodes share two site factors, one stacked solve of two
    # slices; a solve per node, or a stacked one over the nodes, fails here
    shapes = []
    solve = np.linalg.solve

    def counted(a, b):
        # b as a stack of a's rank: numpy 1.x reads a b of one dimension
        # less than a as a stack of vectors
        assert np.ndim(b) == np.ndim(a)
        shapes.append(np.shape(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    rep = polynomiality_check(random_admissible(n, N, seed=4), TimeVector([0.3, -0.15, 0.1]))
    assert rep.passed
    assert 1 <= len(shapes) <= 2
    assert all(len(shape) == 2 or shape[0] <= 2 for shape in shapes), shapes
