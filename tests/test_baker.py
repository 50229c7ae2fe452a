"""Wave functions and spectral data attached to a tau function.

The scalar cases below were evaluated by hand from the closed tau forms;
the values are frozen so regressions in shift handling or normalization
show up as value changes, not just as broken self-consistency.
"""

import math

import numpy as np
import pytest

from conftest import psi_stationary_by_eigenbasis
from kp_rankone.baker import (
    BASample,
    grassmann_support,
    polynomiality_check,
    psi_dual,
    psi_stationary,
    psi_time,
)
from kp_rankone.cases import (
    CalogeroMoserData,
    KdVPairData,
    from_calogero_moser,
    from_kdv_pair,
)
from kp_rankone.errors import PoleError
from kp_rankone.matkernel import ScaledComplex, rel_difference
from kp_rankone.tau import TimeVector, tau
from kp_rankone.triple import RankOneTriple, make_triple, random_admissible

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
    assert rel_difference(rep.context["leading_coefficient"], tau(tr, t)) < 1e-7


def test_polynomiality_radius_invariance():
    tr = random_admissible(2, 6, seed=300)
    t = TimeVector([0.2, 0.1])
    r1 = polynomiality_check(tr, t, radius=3.0)
    r2 = polynomiality_check(tr, t, radius=5.0)
    assert r1.passed and r2.passed
    assert rel_difference(
        r1.context["leading_coefficient"], r2.context["leading_coefficient"]
    ) < 1e-8
