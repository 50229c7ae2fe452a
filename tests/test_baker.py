"""Wave functions and spectral data attached to a tau function.

The scalar cases below were evaluated by hand from the closed tau forms;
the values are frozen so regressions in shift handling or normalization
show up as value changes, not just as broken self-consistency.
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import mp_psi, mp_rel_error, mp_shifted_tau
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
from kp_rankone.cli import load_scenario
from kp_rankone.errors import GeometryError, PoleError, SingularShiftError
from kp_rankone.matkernel import ScaledComplex, rel_difference
from kp_rankone.tau import TauEvaluator, TimeVector, _eigenbasis, tau, tau_discrete, tau_miwa
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
    # both routes against the wave function at t = (x,) at 40 digits
    tr = random_admissible(2 + seed % 2, 5 + seed % 4, seed=seed)
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        x = complex(rng.uniform(-1, 1), rng.uniform(-0.3, 0.3))
        z = complex(rng.uniform(1.5, 3.0), rng.uniform(-1.0, 1.0))
        want = mp_psi(tr, TimeVector([x]), z)
        a = psi_time(tr, TimeVector([x]), z)
        b = psi_stationary(tr, x, z)
        assert mp_rel_error(a.value, want) < 1e-12, (seed, x, z)
        assert mp_rel_error(b.value, want) < 1e-12, (seed, x, z)


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


def test_psi_grid_with_an_empty_axis_is_empty():
    tr = random_admissible(2, 5, seed=3)
    assert psi_grid(tr, [], [2.0]) == []
    assert psi_grid(tr, [0.0, 0.5], []) == []
    assert psi_grid(tr, [], []) == []
    with pytest.raises(ValueError, match="nonzero"):
        psi_grid(tr, [], [0.0])


# ---------------------------------------------------------------------------
# wave functions and point shifted taus from n x n moment blocks
# ---------------------------------------------------------------------------

_TRIPLES = {
    "admissible-2x6": lambda: random_admissible(2, 6, seed=1),
    "admissible-4x12": lambda: random_admissible(4, 12, seed=1),
    "admissible-8x24": lambda: random_admissible(8, 24, seed=1),
    "calogero-moser-2": lambda: from_calogero_moser(random_calogero_moser(2, seed=0)),  # defective B
    "kdv-3": lambda: from_kdv_pair(random_kdv_pair(3, seed=0)),
}


@pytest.mark.parametrize("build", _TRIPLES.values(), ids=_TRIPLES.keys())
def test_psi_and_point_taus_match_mpmath(build):
    # against 40-digit references; the base time is the one of the circle
    # test above, so both share the reference exp(g(B)) C.T of a triple.
    # One z below 1 in modulus, two above; the worst error seen is 2.3e-14,
    # on 8 x 24
    tr = build()
    t = TimeVector([0.3, -0.15j, 0.1])
    zs = [2.5 + 0.5j, -1.7 - 1.2j, 0.6 - 0.3j]
    for z in zs:
        assert mp_rel_error(psi_time(tr, t, z).value, mp_psi(tr, t, z)) < 1e-13, z
        assert mp_rel_error(psi_dual(tr, t, z).value, mp_psi(tr, t, z, -1)) < 1e-13, z
    xs = [0.3] if tr.N > 12 else [-0.7, 0.3]
    want = {(x, z): mp_psi(tr, TimeVector([x]), z) for x in xs for z in zs}
    for x, z in want:
        assert mp_rel_error(psi_stationary(tr, x, z).value, want[x, z]) < 1e-13, (x, z)
    for s in psi_grid(tr, xs, zs):
        assert mp_rel_error(s.value, want[s.x.real, s.z]) < 1e-13, (s.x, s.z)
    shifts = ((2.0, 1), (-2.5j, -1), (1.5 + 1j, 2))
    discrete = mp_shifted_tau(tr, t, shifts)
    gauge = ScaledComplex.from_complex(np.prod([c ** (k * tr.n) for c, k in shifts]))
    got = tau_discrete(tr, 1, -1, 2, 2.0, -2.5j, 1.5 + 1j, t=t)
    assert mp_rel_error(got, mp.mpc(discrete)) < 1e-13
    assert mp_rel_error(tau_miwa(tr, shifts, t) * gauge, mp.mpc(discrete)) < 1e-13


def test_eigenbasis_weights_match_mpmath():
    # in the eigenbasis every shift is a weight vector on the rows of
    # V^-1 C.T: powers -3 .. 3 of the discrete and Miwa taus, psi and its
    # adjoint, and the polynomiality check's top coefficient (its 3N + 1
    # node taus) against 40-digit references; one c, z inside the unit disk
    # that holds the spectrum. The worst error seen is 2.8e-14
    tr = random_admissible(4, 12, seed=5)
    assert _eigenbasis(tr)
    t = TimeVector([0.4 - 0.2j, 0.1, -0.05j])
    c1, c2, c3 = 1.7 + 0.4j, -0.9 + 1.1j, 0.45 - 0.35j
    for k in range(-3, 4):
        want = mp_shifted_tau(tr, t, ((c1, k), (c2, -k), (c3, k)))
        assert mp_rel_error(tau_discrete(tr, k, -k, k, c1, c2, c3, t=t), mp.mpc(want)) < 1e-13, k
        got = tau_miwa(tr, ((c3, k),), t) * ScaledComplex.from_complex(c3 ** (k * tr.n))
        assert mp_rel_error(got, mp.mpc(mp_shifted_tau(tr, t, ((c3, k),)))) < 1e-13, k
    for z in (c1, c2, c3):
        assert mp_rel_error(psi_time(tr, t, z).value, mp_psi(tr, t, z)) < 1e-13, z
        assert mp_rel_error(psi_dual(tr, t, z).value, mp_psi(tr, t, z, -1)) < 1e-13, z
    rep = polynomiality_check(tr, t)
    assert rep.passed and rep.residual < 1e-13
    want = mp.mpc(mp_shifted_tau(tr, t, ()))
    assert mp_rel_error(rep.context["leading_coefficient"], want) < 1e-13


@pytest.mark.parametrize("n,N", [(2, 6), (4, 12)])
def test_psi_with_z_next_to_the_spectrum(n, N):
    # the adjoint solves with a multiple of z I - B and loses digits in
    # proportion to 1 / delta (4.1e-9 at delta = 1e-6 on 4 x 12); psi itself
    # takes no solve and keeps its digits here
    tr = random_admissible(n, N, seed=6)
    t = TimeVector([0.2 - 0.1j, -0.1, 0.05])
    for delta in (1e-3, 1e-6):
        for lam in np.linalg.eigvals(tr.B)[:3]:
            z = complex(lam + delta * np.exp(0.7j))
            assert mp_rel_error(psi_dual(tr, t, z).value, mp_psi(tr, t, z, -1)) < 1e-13 / delta
            assert mp_rel_error(psi_time(tr, t, z).value, mp_psi(tr, t, z)) < 1e-12
    with pytest.raises(SingularShiftError):
        psi_dual(tr, t, complex(np.linalg.eigvals(tr.B)[0]) + 1e-14)


def test_psi_next_to_an_eigenvalue_whose_mode_dominates_tau():
    # two_soliton: B = diag(1, 3, ...), and e^(3x) dominates tau for x >= 1.
    # With z next to 3, z I - B nearly removes that mode; the difference
    # z - 3 is taken on C.T, before the exponential, so psi keeps the
    # accuracy it has elsewhere (at most 1.4e-14 here). The combination
    # K0 - K1 / z of the blocks
    # K_j = A exp(g(B)) B^j C.T cancels the dominant mode after the
    # exponential and was off by up to 7.9e-13 on these points
    tr = load_scenario(Path(__file__).parents[1] / "scenarios" / "two_soliton.json").build_triple()
    xs = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6]
    zs = [3 - 0.014, 3 - 1e-6, 3 + 0.01j]
    want = {(x, z): mp_psi(tr, TimeVector([x]), z) for x in xs for z in zs}
    for x, z in want:
        assert mp_rel_error(psi_stationary(tr, x, z).value, want[x, z]) < 3e-14, (x, z)
        t = TimeVector([x, 0.1, -0.05])
        assert mp_rel_error(psi_time(tr, t, z).value, mp_psi(tr, t, z)) < 3e-14, (x, z)
    for s in psi_grid(tr, xs, zs):
        assert mp_rel_error(s.value, want[s.x.real, s.z]) < 3e-14, (s.x, s.z)


@pytest.mark.parametrize("build", _TRIPLES.values(), ids=_TRIPLES.keys())
def test_psi_at_extreme_spectral_parameters(build):
    # |z| = 1e-300 and 1e300: the weights of the combinations stay within 1,
    # so nothing overflows. The ratio of taus, psi e^(-k g(z)), matches its
    # 40-digit reference to the rounding of its log magnitude (up to 1.4e3
    # here); e^(k g(z)) itself has no correct phase once |g(z)| ~ 1e299
    tr = build()
    t = TimeVector([0.3])
    eps = np.finfo(float).eps
    for z in (1e-300, -1e-300j, 3e-200 + 1e-200j, 1e300, 1e300j, -7e299 + 7e299j):
        for got, k in (
            (psi_time(tr, t, z), 1),
            (psi_stationary(tr, 0.3, z), 1),
            (psi_grid(tr, [-0.4, 0.3], [z])[1], 1),
            (psi_dual(tr, t, z), -1),
        ):
            ratio = got.value / ScaledComplex.exp_of(k * t.g_scalar(z))
            error = mp_rel_error(ratio, mp_psi(tr, t, z, k, exponential=False))
            assert error < 1e-13 + 4 * eps * abs(ratio.log_magnitude), (z, k)


def _linalg_calls(monkeypatch) -> dict:
    """Count the numpy.linalg solve and slogdet calls made from here on (the
    exponential binds its own solve, which is not counted)."""
    calls = {"solve": 0, "slogdet": 0}
    for name in calls:
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_psi_point_functions_take_one_slogdet(monkeypatch):
    tr = random_admissible(4, 12, seed=2)
    t = TimeVector([0.3, -0.1, 0.05])
    # the eigenbasis, made once on a triple's first evaluation (two solves
    # and one slogdet of L_S), is not counted
    assert _eigenbasis(tr)
    calls = _linalg_calls(monkeypatch)
    psi_time(tr, t, 2.5 - 0.5j)
    assert calls == {"solve": 0, "slogdet": 1}
    psi_stationary(tr, 0.3, 0.5j)
    assert calls == {"solve": 0, "slogdet": 2}
    # in the eigenbasis the adjoint divides by the weights z - lam
    psi_dual(tr, t, 2.5 - 0.5j)
    assert calls == {"solve": 0, "slogdet": 3}
    # a triple without an eigenbasis (defective B) solves once for the
    # adjoint's (z I - B)^-1 C.T
    cm = from_calogero_moser(random_calogero_moser(2, seed=0))
    assert not _eigenbasis(cm)
    psi_time(cm, t, 2.5 - 0.5j)
    assert calls == {"solve": 0, "slogdet": 4}
    psi_dual(cm, t, 2.5 - 0.5j)
    assert calls == {"solve": 1, "slogdet": 5}


def test_psi_grid_takes_one_slogdet_and_no_solve(monkeypatch):
    tr = random_admissible(4, 12, seed=2)
    assert _eigenbasis(tr)  # made once per triple, not counted (see above)
    calls = _linalg_calls(monkeypatch)
    samples = psi_grid(tr, np.linspace(-2.0, 2.0, 7), [2.5, 0.5j, -1.2 + 3.0j, 0.3, -4.0])
    assert len(samples) == 35
    assert calls == {"solve": 0, "slogdet": 1}


@pytest.mark.parametrize(
    "case",
    [(1, 3), (1, 4), (2, 6), (3, 8), (5, 7), (8, 24), "general_block"],
    ids=lambda c: c if isinstance(c, str) else "%d-%d" % c,
)
def test_psi_grid_samples_equal_psi_stationary_bit_for_bit(case):
    # a (n, N) random triple at seed 3, or the real triple of a fixture,
    # whose zero phases at negative real z keep their sign
    if isinstance(case, str):
        tr = load_scenario(Path(__file__).parents[1] / "scenarios" / f"{case}.json").build_triple()
    else:
        tr = random_admissible(*case, seed=3)
    zs = [2.0, -1.5 + 0.5j, 0.3j, 0.99, 1.0, 1e-300, 1e300, -3.1, 0.7 - 0.2j]
    for s in psi_grid(tr, np.linspace(-2.0, 2.0, 9), zs):
        want = psi_stationary(tr, s.x, s.z)
        assert (s.x, s.z) == (want.x, want.z)
        assert np.array([s.value.log_magnitude, s.value.phase]).tobytes() == np.array(
            [want.value.log_magnitude, want.value.phase]
        ).tobytes(), (s.x, s.z)


def _sample_bytes(samples) -> bytes:
    return np.array([(s.value.log_magnitude, s.value.phase) for s in samples]).tobytes()


@pytest.mark.parametrize("n,N", [(1, 4), (3, 8)])
def test_a_psi_grid_value_does_not_depend_on_the_other_z_of_its_grid(n, N):
    tr = random_admissible(n, N, seed=9)
    xs = np.linspace(-1.0, 1.5, 6)
    zs = [2.1 - 0.4j, 0.5 + 0.2j, -1.6 + 1.1j, 1e-300, 1e300j, 1.0]
    grid = psi_grid(tr, xs, zs)
    rows = [grid[i * len(xs) : (i + 1) * len(xs)] for i in range(len(zs))]
    for z, row in zip(zs, rows):
        assert _sample_bytes(psi_grid(tr, xs, [z])) == _sample_bytes(row), z
    backwards = psi_grid(tr, xs, zs[::-1])
    assert _sample_bytes(backwards) == _sample_bytes([s for row in rows[::-1] for s in row])
    # one x, whose grid has a single row per z
    for z, row in zip(zs, rows):
        assert _sample_bytes(psi_grid(tr, xs[2:3], [z])) == _sample_bytes(row[2:3]), z


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
    ``dps`` digits (:func:`conftest.mp_shifted_tau`)."""
    return [complex(z) ** tr.n * mp_shifted_tau(tr, t, ((z, -1),), dps) for z in zs]


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


@pytest.mark.parametrize(
    "n,N,norm,nilpotent",
    [
        pytest.param(2, 24, 4e6, False, id="2-24-4000000.0"),
        pytest.param(4, 100, 40.0, False, id="4-100-40.0"),
        pytest.param(2, 24, 1e150, False, id="2-24-1e+150"),
        pytest.param(2, 24, 4e6, True, id="nilpotent-2-24-4000000.0"),
        pytest.param(2, 24, 1e150, True, id="nilpotent-2-24-1e+150"),
    ],
)
def test_polynomiality_with_a_large_norm_of_B(n, N, norm, nilpotent):
    # every node factor is zeta I - B / r with ||B / r||_2 <= 1/2, so no
    # power of B is formed: ||B||_2^N far past 1e308 does not overflow. A
    # nilpotent B (one Jordan block) has no eigenbasis and takes the
    # stacked solve over the nodes
    tr = random_admissible(n, N, seed=1)
    B = norm * np.diag(np.ones(N - 1), k=1) if nilpotent else tr.B * (norm / tr.norm_B)
    tr = RankOneTriple(tr.A, B, tr.C)
    assert bool(_eigenbasis(tr)) != nilpotent
    t = TimeVector([0.0])
    rep = polynomiality_check(tr, t)
    assert rep.context["radius"] == pytest.approx(2.0 * norm, rel=1e-12)
    assert rep.passed and rep.residual < 1e-12
    assert rel_difference(rep.context["leading_coefficient"], tau(tr, t)) < 1e-12


@pytest.mark.parametrize("radius", [1e-10, 1e-3, 3.0])
def test_polynomiality_b_zero_at_any_radius(radius):
    # B = 0 allows any positive radius. Its eigenbasis is that of the
    # identity, lam = 0, so each node's weight is 1 / zeta, whatever r
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
    # in the eigenbasis a node's resolvent is a weight vector: no solve. A
    # triple without one (Calogero-Moser, N = 2n) takes one stacked solve
    # over the 3N + 1 nodes; a solve per node fails here
    shapes = []
    solve = np.linalg.solve

    def counted(a, b):
        # b as a stack of a's rank: numpy 1.x reads a b of one dimension
        # less than a as a stack of vectors
        assert np.ndim(b) == np.ndim(a)
        shapes.append(np.shape(a))
        return solve(a, b)

    t = TimeVector([0.3, -0.15, 0.1])
    tr = random_admissible(n, N, seed=4)
    assert _eigenbasis(tr)  # made once per triple, not counted
    monkeypatch.setattr(np.linalg, "solve", counted)
    assert polynomiality_check(tr, t).passed
    assert shapes == []
    cm = from_calogero_moser(random_calogero_moser(n, seed=4))
    assert polynomiality_check(cm, t).passed
    assert shapes == [(3 * cm.N + 1, cm.N, cm.N)]


def test_every_solve_of_a_defective_triple_has_b_of_a_rank(monkeypatch):
    # numpy 1.x reads a right-hand side b of one dimension less than a as a
    # stack of vectors, numpy 2 as a matrix: every shifted public function
    # of a triple without an eigenbasis solves with b of a's rank
    shapes = []
    solve = np.linalg.solve

    def checked(a, b):
        assert np.ndim(b) == np.ndim(a)
        shapes.append(np.shape(a))
        return solve(a, b)

    cm = from_calogero_moser(random_calogero_moser(3, seed=2))
    assert not _eigenbasis(cm)
    N, t = cm.N, TimeVector([0.3, -0.15, 0.1])
    monkeypatch.setattr(np.linalg, "solve", checked)
    for k in (2, -2):
        shifts = ((2.5, k), (-1.5 + 1j, -k), (3.0j, 1))
        gauge = ScaledComplex.from_complex(np.prod([c ** (j * cm.n) for c, j in shifts]))
        got = tau_discrete(cm, k, -k, 1, 2.5, -1.5 + 1j, 3.0j, t=t)
        assert rel_difference(tau_miwa(cm, shifts, t) * gauge, got) < 1e-13
    assert hbde_residual(cm, t, 1.8, 2.2 + 0.7j, -2.4, l=-1, m=2, n_index=-2).passed
    psi_dual(cm, t, 2.5 - 0.5j)
    assert len(psi_grid(cm, [-0.5, 0.4], [2.5, -1.2 + 3.0j])) == 4
    assert polynomiality_check(cm, t).passed
    # a solve per negative power: two for each discrete tau and its Miwa
    # tau, three for the site (-1, 2, -2), one stacked over z for psi_dual
    # and one over the 3N + 1 polynomiality nodes
    assert len(shapes) == 2 * 2 * 2 + 3 + 2
    assert shapes[-2:] == [(1, N, N), (3 * N + 1, N, N)]
