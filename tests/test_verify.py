"""Identity verification: lattice bilinear check, differential check,
weighted determinant identity, closed-form crosschecks, Bethe-type products.
"""

import itertools

import mpmath
import numpy as np
import pytest

from kp_rankone.cases import (
    CalogeroMoserData,
    IntertwiningData,
    from_calogero_moser,
    from_kdv_pair,
    random_calogero_moser,
    random_intertwining,
    random_kdv_pair,
)
from kp_rankone.errors import DegenerateSpectrumError, InadmissibleTripleError
from kp_rankone.matkernel import ScaledComplex, rel_difference, residual_of_sum
from kp_rankone.tau import TimeVector, tau, tau_miwa
from kp_rankone.triple import RankOneTriple, make_triple, random_admissible
from kp_rankone.verify import (
    DEFAULT_KP_TOL,
    VerificationReport,
    _hbde_taus,
    bethe_check,
    draw_lattice_parameters,
    crosscheck_intertwining,
    crosscheck_wilson,
    h3_residual,
    hbde_residual,
    kp_residual,
)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def test_report_pass_fail_threshold():
    r = VerificationReport.make("x", 1e-9, 1e-8)
    assert r.passed
    r = VerificationReport.make("x", 1e-7, 1e-8)
    assert not r.passed


def test_report_rejects_nan():
    with pytest.raises(ValueError):
        VerificationReport.make("x", float("nan"), 1e-8)
    with pytest.raises(ValueError):
        VerificationReport.make("x", -1.0, 1e-8)


# ---------------------------------------------------------------------------
# lattice bilinear identity
# ---------------------------------------------------------------------------


def test_hbde_scalar_example_tight():
    # n=1 data evaluates through short products; residual is near eps
    tr = make_triple(
        np.array([[1.0, 1.0]]), np.diag([1.0, 0.0]), np.array([[1.0, 1.0]])
    )
    rep = hbde_residual(tr, TimeVector([0.3]), 2.0, 3.0, -1.5)
    assert rep.residual < 1e-13


@pytest.mark.parametrize("seed", range(6))
def test_hbde_random_triples(seed):
    tr = random_admissible(2 + seed % 2, 6 + seed % 3, seed=seed)
    t = TimeVector([0.2, -0.1, 0.15])
    rep = hbde_residual(tr, t, 1.8, 2.2 + 0.7j, -2.4, l=seed % 2, m=(seed // 2) % 2)
    assert rep.passed, rep
    assert rep.residual < 1e-10


@pytest.mark.parametrize("seed", range(4))
def test_hbde_log_scale_arrays_match_scaled_complex_reference(seed):
    # the residual and the terms, formed in Python floats, are bit for bit
    # what ScaledComplex arithmetic gives from the six taus the check forms
    tr = random_admissible(1 + seed, 4 + 2 * seed, seed=40 + seed)
    t = TimeVector([0.3 - 0.1j, 0.2, -0.05])
    c1, c2, c3 = draw_lattice_parameters(np.random.default_rng(seed), tr)
    l, m, n = [(1, -1, 0), (0, 1, 1), (-1, 0, -1), (1, 1, 1)][seed]
    rep = hbde_residual(tr, t, c1, c2, c3, l=l, m=m, n_index=n)
    T = [ScaledComplex(lm, ph) for lm, ph in _hbde_taus(tr, t, (c1, c2, c3), (l, m, n))]
    terms = [T[0] * T[1] * (c2 - c3), T[2] * T[3] * (-(c1 - c3)), T[4] * T[5] * (c1 - c2)]
    assert rep.residual == residual_of_sum(terms)
    assert rep.context["term_log_magnitudes"] == [x.log_magnitude for x in terms]


# the sites of the identity's six taus, as offsets from (l, m, n)
_HBDE_OFFSETS = ((1, 0, 0), (0, 1, 1), (0, 1, 0), (1, 0, 1), (0, 0, 1), (1, 1, 0))


def _mpmath_hbde_taus(tr, t, c, site, dps=30):
    """The six Miwa taus of the bilinear identity at ``site`` in mpmath:
    R = prod_j (c_j I - B)^site_j C.T by products and inverses, exp(g(B)) R
    by its Taylor series, then det(A (c_a I - B)(c_b I - B) exp(g(B)) R)
    over the gauge (prod_j c_j^k_j)^n for each offset of the identity."""
    with mpmath.workdps(dps):
        A, B, R = (mpmath.matrix(M.tolist()) for M in (tr.A, tr.B, tr.C.T))
        I = mpmath.eye(tr.N)
        c = [mpmath.mpc(x) for x in c]
        for cj, k in zip(c, site):
            for _ in range(abs(k)):
                F = cj * I - B
                R = F * R if k > 0 else mpmath.inverse(F) * R
        G = mpmath.zeros(tr.N)
        for v in t.values[::-1]:
            G = B * (mpmath.mpc(complex(v)) * I + G)
        term, ER = R, R
        for j in range(1, 200):
            term = G * term / j
            ER += term
            if mpmath.mnorm(term, 1) < mpmath.eps * mpmath.mnorm(ER, 1):
                break
        out = []
        for offset in _HBDE_OFFSETS:
            X = ER
            for cj, a in zip(c, offset):
                if a:
                    X = (cj * I - B) * X
            gauge = mpmath.fprod(cj ** (s + a) for cj, s, a in zip(c, site, offset)) ** tr.n
            out.append(mpmath.det(A * X) / gauge)
        return out



def test_hbde_taus_match_tau_miwa_and_mpmath():
    # the six taus from the n x n moment blocks stay within 1e-11 of the
    # N x N shifted determinants of tau_miwa, and of a 30-digit mpmath
    # determinant on one draw per size
    rng = np.random.default_rng(77)
    t = TimeVector([0.25 - 0.1j, -0.15 + 0.05j, 0.1])
    sizes = ((1, 4), (2, 6), (4, 12), (8, 24))
    for draw in range(48):
        n, N = sizes[draw % 4]
        tr = random_admissible(n, N, seed=100 + draw)
        c = tuple(draw_lattice_parameters(rng, tr))
        site = tuple(int(k) for k in rng.integers(-1, 2, size=3))
        got = [ScaledComplex(lm, ph) for lm, ph in _hbde_taus(tr, t, c, site)]
        for offset, value in zip(_HBDE_OFFSETS, got):
            shifts = tuple((cj, s + a) for cj, s, a in zip(c, site, offset))
            assert rel_difference(value, tau_miwa(tr, shifts, t)) <= 1e-11, (draw, offset)
        if draw < 4:
            for value, want in zip(got, _mpmath_hbde_taus(tr, t, c, site)):
                with mpmath.workdps(30):
                    ratio = mpmath.exp(mpmath.mpc(value.log_magnitude, value.phase)) / want
                    assert abs(ratio - 1) <= 1e-11, (draw, value, want)


@pytest.mark.parametrize("n, N", [(2, 6), (4, 12), (8, 24)])
@pytest.mark.parametrize("delta", [1e-3, 1e-6])
def test_hbde_with_a_parameter_next_to_the_spectrum(n, N, delta):
    # one c at distance delta from an eigenvalue of B, at every site with
    # entries in -1..1: the residual stays within the tolerance wherever
    # that c is not inverted. Inverting c I - B, of condition ~1/delta,
    # loses digits in proportion (the N x N shifted determinants do alike)
    tr = random_admissible(n, N, seed=N)
    lam = tr.eigvals_B
    rng = np.random.default_rng(N)
    t = TimeVector([0.2 - 0.1j, -0.1, 0.05])
    for which in range(3):
        c = draw_lattice_parameters(rng, tr)
        c[which] = complex(lam[which] + delta * np.exp(2j * np.pi * rng.random()))
        for site in itertools.product((-1, 0, 1), repeat=3):
            rep = hbde_residual(tr, t, *c, *site)
            if site[which] >= 0:
                assert rep.passed, (which, site, rep.residual)
            else:
                assert rep.residual <= 1e-13 / delta, (which, site, rep.residual)


def test_hbde_at_the_origin_site_solves_nothing(monkeypatch):
    # at site (0, 0, 0) the moment blocks are the triple's kept right blocks
    # [C.T, B C.T, B^2 C.T]: no shifted factor is built and nothing is solved
    tr = random_admissible(3, 9, seed=3)
    t = TimeVector([0.2, -0.1])
    tau(tr, t)  # the exponential is memoized before counting
    solves = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or solve(*a, **k))
    rep = hbde_residual(tr, t, 1.8, 2.2 + 0.7j, -2.4)
    assert rep.passed and rep.residual < 1e-12
    assert solves == [] and ("right_blocks", 2, 1.0) in tr._memo
    hbde_residual(tr, t, 1.8, 2.2 + 0.7j, -2.4, l=-1)
    assert solves == [1]


def test_lattice_draw_reads_the_triples_eigenvalues(monkeypatch):
    # a triple gives the same draws as its matrix B, from the kept eigenvalues
    tr = random_admissible(3, 8, seed=9)
    want = [draw_lattice_parameters(np.random.default_rng(s), tr.B) for s in range(20)]
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda M: calls.append(1) or eigvals(M))
    got = [draw_lattice_parameters(np.random.default_rng(s), tr) for s in range(20)]
    assert got == want
    assert len(calls) == 1


def test_hbde_rejects_coincident_parameters():
    tr = random_admissible(1, 3, seed=0)
    with pytest.raises(ValueError):
        hbde_residual(tr, TimeVector([0.0]), 2.0, 2.0, 3.0)
    with pytest.raises(ValueError):
        hbde_residual(tr, TimeVector([0.0]), 0.0, 2.0, 3.0)


def test_hbde_negative_control_rank_two():
    # breaking the coupling rank must break the identity by a wide margin
    rng = np.random.default_rng(5)
    tr = random_admissible(2, 6, seed=5)
    P = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    u, s, vh = np.linalg.svd(P)
    bump = u[:, :2] @ np.diag([1.0, 0.5]) @ vh[:2, :]  # rank 2, norm 1
    bad = RankOneTriple(tr.A, tr.B + bump, tr.C)
    rep = hbde_residual(bad, TimeVector([0.2]), 1.8, 2.3, -2.6)
    assert rep.residual > 1e-3


def test_hbde_context_records_site():
    tr = random_admissible(1, 4, seed=9)
    rep = hbde_residual(tr, TimeVector([0.1]), 1.5, 2.5, -1.5, l=1, m=0, n_index=1)
    assert tuple(rep.context["site"]) == (1, 0, 1)


@pytest.mark.parametrize("site", [{"l": 0.5}, {"m": 1.25}, {"n_index": -0.5}, {"l": float("nan")}])
def test_hbde_rejects_a_non_integral_site(site):
    # int() used to truncate: l = 0.5 reported and checked site [0, 0, 0]
    tr = random_admissible(1, 4, seed=9)
    name = next(iter(site))
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        hbde_residual(tr, TimeVector([0.1]), 1.5, 2.5, -1.5, **site)


def test_hbde_takes_integral_floats_and_numpy_integers_as_sites():
    tr = random_admissible(1, 4, seed=9)
    t, c = TimeVector([0.1]), (1.5, 2.5, -1.5)
    want = hbde_residual(tr, t, *c, l=1, m=0, n_index=-1)
    for site in ((1.0, 0.0, -1.0), (np.int64(1), np.int32(0), np.int8(-1)), (np.float64(1), 0, -1)):
        rep = hbde_residual(tr, t, *c, l=site[0], m=site[1], n_index=site[2])
        assert rep.residual == want.residual and rep.context["site"] == [1, 0, -1]
        assert all(type(k) is int for k in rep.context["site"])


# ---------------------------------------------------------------------------
# differential identity
# ---------------------------------------------------------------------------


def test_kp_residual_soliton():
    d = random_kdv_pair(2, seed=3)
    from kp_rankone.cases import from_kdv_pair

    tr = from_kdv_pair(d)
    rep = kp_residual(tr, TimeVector([0.3, 0.2, -0.1]))
    assert rep.passed, rep.residual


@pytest.mark.parametrize("seed", range(4))
def test_kp_residual_random(seed):
    tr = random_admissible(2, 5 + seed, seed=40 + seed)
    t = TimeVector([0.25, -0.15, 0.1])
    rep = kp_residual(tr, t)
    assert rep.passed, (seed, rep.residual)


@pytest.mark.parametrize("t1", [0.7, -1.3, 2.1])
def test_kp_residual_wilson_off_origin(t1):
    # tau = t1 + 3 is linear in t1, so every product in the identity
    # vanishes; the residual must still be scaled by the log derivatives
    tr = from_calogero_moser(CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]])))
    rep = kp_residual(tr, TimeVector([t1, 0.2, -0.1]))
    assert rep.context["scale"] > 0.0
    assert rep.passed, rep.residual


@pytest.mark.parametrize(
    "make, t",
    [
        (lambda: from_kdv_pair(random_kdv_pair(3, seed=368)), [0.044, -0.105 + 0.057j, 0.059 + 0.015j]),
        (lambda: random_admissible(2, 6, seed=242), [0.203, -0.248 + 0.223j, -0.049 - 0.225j]),
    ],
)
def test_kp_residual_near_complex_zero(make, t):
    # both points lie within 0.1 of a zero of tau in complex t1
    rep = kp_residual(make(), TimeVector(t))
    assert rep.tolerance == DEFAULT_KP_TOL
    assert rep.passed, rep.residual


def test_kp_residual_negative_control():
    # same perturbation style as the lattice control
    rng = np.random.default_rng(6)
    tr = random_admissible(2, 6, seed=6)
    P = rng.standard_normal((6, 6))
    u, s, vh = np.linalg.svd(P)
    bump = u[:, :2] @ np.diag([1.0, 1.0]) @ vh[:2, :]
    bad = RankOneTriple(tr.A, tr.B + bump, tr.C)
    rep = kp_residual(bad, TimeVector([0.2, 0.1, 0.05]))
    assert rep.residual > 1e-3


# ---------------------------------------------------------------------------
# weighted determinant identity
# ---------------------------------------------------------------------------


def test_h3_weighted_vanishes_rank_one():
    rng = np.random.default_rng(50)
    for n in (1, 2, 3):
        P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = rng.standard_normal((n, 1))
        b = rng.standard_normal((1, n))
        rep = h3_residual(P, a @ b, 1.1, 2.7 + 0.4j, -1.9)
        assert rep.passed, (n, rep.residual)


def test_h3_printed_value_frozen():
    # the three-term form *without* the parameter-difference weights does
    # not vanish: at P=0, Q=1 (scalars), c=(1,2,3) it equals exactly 8
    rep = h3_residual(np.array([[0.0]]), np.array([[1.0]]), 1.0, 2.0, 3.0)
    assert rep.context["printed_value"] == pytest.approx(8.0, abs=1e-12)
    assert rep.residual < 1e-14  # while the weighted combination vanishes


def test_h3_rank_two_rejected():
    with pytest.raises(InadmissibleTripleError):
        h3_residual(np.zeros((2, 2)), np.eye(2), 1.0, 2.0, 3.0)


def test_h3_negative_control_weights_matter():
    # with generic data the unweighted sum stays O(1) while the weighted
    # combination cancels: the weights are what make the identity true
    rng = np.random.default_rng(51)
    P = rng.standard_normal((3, 3))
    a = rng.standard_normal((3, 1))
    b = rng.standard_normal((1, 3))
    rep = h3_residual(P, a @ b, 1.3, 2.1, -0.8)
    assert rep.residual < 1e-10
    assert abs(rep.context["printed_value"]) > 1e-3


# ---------------------------------------------------------------------------
# closed-form crosschecks
# ---------------------------------------------------------------------------


def test_crosscheck_wilson_scalar_4e():
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[1.0]]))
    rep = crosscheck_wilson(d, TimeVector([1.0]))
    assert rep.passed
    assert rep.residual < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_crosscheck_wilson_random(n):
    t = TimeVector([0.3, -0.2, 0.1])
    for seed in range(3):
        d = random_calogero_moser(n, seed=seed)
        rep = crosscheck_wilson(d, t)
        assert rep.passed, (n, seed, rep.residual)


@pytest.mark.parametrize("t1", [20.0, 30.0])
def test_crosscheck_wilson_reference_side_matches_mpmath(t1):
    # the reference side det exp(g(Z)) det(X + g'(Z)) must stay exact at large
    # times, where the library's own tau is not (its residual reads that error)
    import mpmath as mp

    d = random_calogero_moser(2, seed=0)
    tr = from_calogero_moser(d)
    rep = crosscheck_wilson(d, TimeVector([t1, 0.0, 0.0]))
    with mp.workdps(60):
        A, B, C = (mp.matrix(M.tolist()) for M in (tr.A, tr.B, tr.C))
        want = float(mp.log(abs(mp.det(A * mp.expm(t1 * B) * C.T))))
    assert abs(rep.context["rhs_log_magnitude"] - want) <= 1e-12, (t1, rep.context, want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_crosscheck_intertwining_random(n):
    t = TimeVector([0.2, 0.1, -0.05])
    for seed in range(3):
        d = random_intertwining(n, seed=seed)
        rep = crosscheck_intertwining(d, t)
        assert rep.passed, (n, seed, rep.residual)


def test_crosscheck_intertwining_scalar():
    # X=1, Y=0, Z=1: determinant route vs e^{g(1)} + 1 directly
    d = IntertwiningData(np.array([[1.0]]), np.array([[0.0]]), np.array([[1.0]]))
    rep = crosscheck_intertwining(d, TimeVector([1.0]))
    assert rep.residual < 1e-14


# ---------------------------------------------------------------------------
# Bethe-type products
# ---------------------------------------------------------------------------


def test_bethe_scalar_exact():
    # n=1: a single root, and the product telescopes to -1 identically
    d = random_calogero_moser(1, seed=1)
    rep = bethe_check(d, 0.8, 1.3, -2.0, m=1)
    assert rep.residual <= 1e-12


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (3, 1), (2, 2), (3, 2)])
def test_bethe_random(n, m):
    for seed in range(3):
        d = random_calogero_moser(n, seed=60 + seed)
        rep = bethe_check(d, 0.9 + 0.1j, 1.7, -2.2, m=m)
        assert rep.passed, (n, m, seed, rep.residual)


def test_bethe_conjugation_invariant():
    # the roots are eigenvalues, so a similarity transform changes nothing
    d = random_calogero_moser(3, seed=62)
    rng = np.random.default_rng(62)
    G = np.eye(3) + 0.2 * rng.standard_normal((3, 3))
    Gi = np.linalg.inv(G)
    d2 = CalogeroMoserData(G @ d.X @ Gi, G @ d.Z @ Gi)
    r1 = bethe_check(d, 0.9, 1.7, -2.2, m=1)
    r2 = bethe_check(d2, 0.9, 1.7, -2.2, m=1)
    assert r1.residual < 1e-8 and r2.residual < 1e-8


def test_bethe_refuses_broken_structure():
    # doubling X breaks the rank-one commutator condition; the checker
    # must refuse rather than report a residual for structurally invalid
    # data (the identity is only claimed for valid pairs)
    d = random_calogero_moser(3, seed=63)
    bad = CalogeroMoserData(2.0 * d.X, d.Z)
    with pytest.raises(InadmissibleTripleError):
        bethe_check(bad, 0.9, 1.7, -2.2, m=1)


def test_bethe_spectrum_collision_raises():
    d = random_calogero_moser(2, seed=64, conjugate=False)
    lam = np.diag(d.Z)[0]
    with pytest.raises(DegenerateSpectrumError):
        bethe_check(d, 0.9, 1.7, complex(lam), m=1)
