"""Tau evaluation: frozen scalar values, shift algebra, derivatives, grids.

Scalar cases where the determinant collapses to a short closed form are
evaluated by hand and frozen here; the multivariate machinery must hit
them to near machine precision.
"""

import math
import warnings

import numpy as np
import pytest

from conftest import discrete_tau_by_eigenbasis, u_by_eigenbasis
from kp_rankone import matkernel
from kp_rankone.baker import polynomiality_check, psi_dual, psi_grid, psi_time
from kp_rankone.cases import (
    CalogeroMoserData,
    KdVPairData,
    from_calogero_moser,
    from_kdv_pair,
    random_calogero_moser,
    random_kdv_pair,
)
from kp_rankone.errors import DimensionError, PoleError, SingularShiftError
from kp_rankone.matkernel import ScaledComplex, rel_difference, scaled_values, wrap_phase
from kp_rankone.tau import (
    MiwaShiftList,
    TauEvaluator,
    TimeVector,
    log_tau_derivative,
    tau,
    tau_discrete,
    tau_grid,
    tau_miwa,
    u_field,
)
from kp_rankone.triple import conjugate_triple, make_triple, random_admissible
from kp_rankone.verify import draw_lattice_parameters, hbde_residual, kp_residual

# exp(g(1)) + 1 with A=[1 1], B=diag(1,0), C=[1 1]; the workhorse example
A2 = np.array([[1.0, 1.0]])
B2 = np.diag([1.0, 0.0])
C2 = np.array([[1.0, 1.0]])


@pytest.fixture()
def scalar_triple():
    return make_triple(A2, B2, C2)


# ---------------------------------------------------------------------------
# TimeVector
# ---------------------------------------------------------------------------


def test_time_vector_entry_one_based():
    t = TimeVector([0.5, -0.25, 0.125])
    assert t.K == 3
    assert t.entry(1) == 0.5
    assert t.entry(3) == 0.125
    assert t.entry(4) == 0.0  # beyond truncation reads as zero


def test_time_vector_with_entry():
    t = TimeVector([1.0, 2.0])
    t2 = t.with_entry(1, 9.0)
    assert t.entry(1) == 1.0  # original untouched
    assert t2.entry(1) == 9.0
    t3 = t.with_entry(5, 1.0)  # extends as needed
    assert t3.K == 5 and t3.entry(5) == 1.0


def test_time_vector_padded():
    t = TimeVector([1.0])
    assert t.padded(4).K == 4
    assert t.padded(4).entry(1) == 1.0
    assert t.padded(1).K == 1


def test_time_vector_g_scalar():
    t = TimeVector([2.0, -1.0, 0.5])
    z = 1.5
    want = 2.0 * z - 1.0 * z**2 + 0.5 * z**3
    assert t.g_scalar(z) == pytest.approx(want, rel=1e-15)


def test_time_vector_g_matrix_matches_scalar_on_diagonal():
    t = TimeVector([0.3, 0.1, -0.2, 0.05])
    D = np.diag([0.5, -1.2, 2.0])
    G = t.g_matrix(D)
    for i, z in enumerate([0.5, -1.2, 2.0]):
        assert G[i, i] == pytest.approx(t.g_scalar(z), rel=1e-14)


def test_time_vector_g_prime():
    t = TimeVector([2.0, -1.0, 0.5])
    z = np.array([[1.5]])
    # g'(x) = 2 - 2x + 1.5x^2
    want = 2.0 - 2.0 * 1.5 + 1.5 * 1.5**2
    assert t.g_prime_matrix(z)[0, 0] == pytest.approx(want, rel=1e-14)


def test_time_vector_immutable():
    t = TimeVector([1.0])
    with pytest.raises((ValueError, AttributeError)):
        t.values[0] = 2.0


# ---------------------------------------------------------------------------
# frozen scalar values
# ---------------------------------------------------------------------------


def test_tau_at_zero(scalar_triple):
    assert tau(scalar_triple, TimeVector([0.0])).to_complex() == pytest.approx(2.0)


def test_tau_at_unit_time(scalar_triple):
    got = tau(scalar_triple, TimeVector([1.0])).to_complex()
    assert got == pytest.approx(np.e + 1.0, rel=1e-14)


def test_tau_two_times(scalar_triple):
    # g(1) = t1 + t2
    got = tau(scalar_triple, TimeVector([0.5, 0.25])).to_complex()
    assert got == pytest.approx(math.exp(0.75) + 1.0, rel=1e-14)


def test_tau_truncation_consistency(scalar_triple):
    # appending zero times must not change the value at all
    t3 = TimeVector([0.5, 0.25, 0.0])
    t6 = TimeVector([0.5, 0.25, 0.0, 0.0, 0.0, 0.0])
    a = tau(scalar_triple, t3)
    b = tau(scalar_triple, t6)
    assert a.log_magnitude == b.log_magnitude
    assert a.phase == b.phase


def test_tau_miwa_frozen(scalar_triple):
    # single shift c=2, k=1 at t=0: det(A (I - B/2) C^T) = 1/2 + 1 = 3/2
    got = tau_miwa(scalar_triple, MiwaShiftList(((2.0, 1),))).to_complex()
    assert got == pytest.approx(1.5, rel=1e-14)


def test_tau_discrete_frozen(scalar_triple):
    # l=1 at c1=2: det(A (2I - B) C^T) = 1 + 2 = 3
    got = tau_discrete(scalar_triple, 1, 0, 0, 2.0, 3.0, 5.0).to_complex()
    assert got == pytest.approx(3.0, rel=1e-14)


def test_discrete_gauge_link(scalar_triple):
    # discrete and shifted forms differ by the exact factor (c1^l c2^m c3^n)^n;
    # with B = diag(1, 0) the discrete tau is the closed form
    # e^{g(1)} prod (c_j - 1)^k_j + prod c_j^k_j
    t = TimeVector([0.3, -0.1])
    ev = TauEvaluator(scalar_triple, t)
    c = (2.0, 3.0 + 1.0j, -1.5)
    for site in [(1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 1, 0), (-1, 2, -1)]:
        l, m, nn = site
        shifted = math.prod((cj - 1) ** k for cj, k in zip(c, site))
        plain = math.prod(cj**k for cj, k in zip(c, site))
        want = ScaledComplex.from_complex(np.exp(0.3 - 0.1) * shifted + plain)
        td = ev.tau_discrete(l, m, nn, *c)
        tm = ev.tau_miwa(MiwaShiftList(((c[0], l), (c[1], m), (c[2], nn))))
        gauge = ScaledComplex.from_complex(plain)
        assert rel_difference(td, want) < 1e-13
        assert rel_difference(gauge**scalar_triple.n * tm, want) < 1e-13


def test_evaluator_matches_module_functions(scalar_triple):
    t = TimeVector([0.2, 0.1, 0.05])
    ev = TauEvaluator(scalar_triple, t)
    assert rel_difference(ev.tau(), tau(scalar_triple, t)) == 0.0


# ---------------------------------------------------------------------------
# shift algebra
# ---------------------------------------------------------------------------


def test_shift_composition(scalar_triple):
    t = TimeVector([0.4])
    twice = tau_miwa(scalar_triple, MiwaShiftList(((3.0, 1), (3.0, 1))), t=t)
    once_double = tau_miwa(scalar_triple, MiwaShiftList(((3.0, 2),)), t=t)
    assert rel_difference(twice, once_double) < 1e-14


def test_shift_round_trip(scalar_triple):
    t = TimeVector([0.4, 0.2])
    base = tau(scalar_triple, t)
    back = tau_miwa(scalar_triple, MiwaShiftList(((2.5, 1), (2.5, -1))), t=t)
    assert rel_difference(base, back) < 1e-13


def test_shift_list_merges():
    s = MiwaShiftList(((2.0, 1), (3.0, 2), (2.0, 3)))
    merged = dict(s.merged().shifts)
    assert merged[2.0] == 4
    assert merged[3.0] == 2


def test_shift_at_spectrum_point_raises(scalar_triple):
    # c = 1 sits in the spectrum of B; the inverse shift does not exist
    with pytest.raises(SingularShiftError):
        tau_miwa(scalar_triple, MiwaShiftList(((1.0, -1),)))


def test_shift_zero_c_rejected():
    with pytest.raises(ValueError):
        MiwaShiftList(((0.0, 1),))


def test_discrete_singular_parameter_raises(scalar_triple):
    with pytest.raises(SingularShiftError):
        tau_discrete(scalar_triple, -1, 0, 0, 1.0, 3.0, 5.0)


# ---------------------------------------------------------------------------
# stacked shifted determinants and the inverse-factor guard
# ---------------------------------------------------------------------------


def _svd_shapes(monkeypatch) -> list:
    """Record the shape of every array passed to numpy.linalg.svd."""
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return shapes


def _rows(dets) -> list:
    """The (sets, P) log-scale pair of shifted_dets as rows of ScaledComplex."""
    return [scaled_values(row) for row in zip(*dets)]


def test_shifted_dets_stack_matches_eigenbasis_oracle():
    tr = random_admissible(3, 8, seed=4)
    times = np.array([[0.3, -0.1, 0.05], [-0.4 + 0.2j, 0.2, 0.0], [0.1, 0.0, -0.2j]])
    c1, c2 = 2.1 - 0.4j, -1.6 + 1.1j
    sets = [
        (),
        ((c1, 1),),
        ((c1, 2), (c2, -1)),
        ((c1, 1), (c1, -2), (c2, 1)),
        ((c2, -2), (c1, 0)),
    ]
    dets = TauEvaluator(tr, times).shifted_dets(sets)
    assert dets[0].shape == dets[1].shape == (len(sets), len(times))
    rows = _rows(dets)
    for shifts, row in zip(sets, rows):
        for t, got in zip(times, row):
            want = discrete_tau_by_eigenbasis(tr, TimeVector(t), shifts)
            assert rel_difference(got, ScaledComplex.from_complex(want)) <= 1e-12, shifts


def test_inverse_guard_norm_certificate_skips_shift_svd(monkeypatch):
    # ||B||_2 = 1 and |c| = 2.5: the certificate alone clears c, so the
    # only SVD taken is the one of B
    tr = random_admissible(2, 6, seed=6)
    c, other = 2.5 * np.exp(0.7j), -1.9 + 0.2j
    sets = [((c, -1),), ((c, -2), (other, 1))]
    shapes = _svd_shapes(monkeypatch)
    rows = _rows(TauEvaluator(tr, TimeVector([0.2, -0.1])).shifted_dets(sets))
    assert shapes == [(tr.N, tr.N)]
    for shifts, row in zip(sets, rows):
        want = discrete_tau_by_eigenbasis(tr, TimeVector([0.2, -0.1]), shifts)
        assert rel_difference(row[0], ScaledComplex.from_complex(want)) <= 1e-12
    # the triple keeps ||B||_2: a second call, at another time, takes no SVD
    TauEvaluator(tr, TimeVector([0.5])).shifted_dets(sets)
    assert shapes == [(tr.N, tr.N)]


def test_inverse_guard_svd_branch_jordan_block(monkeypatch):
    # B = [[0, 100], [0, 0]] has ||B||_2 = 100 > |c| = 2, so the SVD of
    # 2 I - B decides (s_min / s_max ~ 4e-4, invertible). With A = C = [1 1],
    # exp(x B) = I + x B and (2 I - B)^-k = [[2^-k, 100 k 2^-(k+1)], [0, 2^-k]],
    # tau = 2^(1-k) + 100 k 2^-(k+1) + 100 x 2^-k: 41 for k = 1, 33 for
    # k = 2 at x = 0.3
    tr = make_triple([[1.0, 1.0]], [[0.0, 100.0], [0.0, 0.0]], [[1.0, 1.0]])
    shapes = _svd_shapes(monkeypatch)
    rows = _rows(TauEvaluator(tr, TimeVector([0.3])).shifted_dets([((2.0, -1),), ((2.0, -2),)]))
    assert shapes == [(2, 2), (1, 2, 2)]
    assert abs(rows[0][0].to_complex() - 41.0) <= 1e-13 * 41.0
    assert abs(rows[1][0].to_complex() - 33.0) <= 1e-13 * 33.0


def test_inverse_guard_rejects_shift_next_to_eigenvalue():
    tr = random_admissible(2, 6, seed=5)
    c = complex(np.linalg.eigvals(tr.B)[0]) + 1e-14
    ev = TauEvaluator(tr, TimeVector([0.1]))
    with pytest.raises(SingularShiftError):
        ev.shifted_dets([((c, -1),)])
    # one bad set in a stack fails the whole call, whatever its place
    with pytest.raises(SingularShiftError):
        ev.shifted_dets([(), ((2.5, -1),), ((c, 1), (c, -1))])
    # a positive power needs no inverse and stays allowed
    assert not _rows(ev.shifted_dets([((c, 1),)]))[0][0].is_zero


# ---------------------------------------------------------------------------
# the per-triple memo of the base-time factor A exp(g(B))
# ---------------------------------------------------------------------------


def _expm_calls(monkeypatch) -> list:
    """Record the shape of every stack the exponential kernel is given."""
    shapes = []
    expm = matkernel._scipy_expm

    def counting(M):
        shapes.append(np.shape(M))
        return expm(M)

    monkeypatch.setattr(matkernel, "_scipy_expm", counting)
    return shapes


def test_checks_at_one_base_time_share_one_exponential(monkeypatch):
    tr = random_admissible(2, 6, seed=11)
    t = TimeVector([0.3 - 0.1j, 0.2, -0.05])
    rng = np.random.default_rng(0)
    calls = _expm_calls(monkeypatch)
    for _ in range(6):
        c1, c2, c3 = draw_lattice_parameters(rng, tr.B)
        assert hbde_residual(tr, t, c1, c2, c3, l=1, m=0, n_index=1).passed
    assert polynomiality_check(tr, t).passed
    psi_time(tr, t, 2.5 + 0.5j)
    psi_dual(tr, t, 2.5 + 0.5j)
    tau_discrete(tr, 1, 0, 2, 2.0, -2.5j, 3.0, t=t)
    tau_miwa(tr, ((2.0, 1), (3.0, -1)), t)
    assert kp_residual(tr, t).passed
    tau(tr, TimeVector(t.values))  # an equal copy of the time vector hits too
    assert calls == [(1, tr.N, tr.N)]


def test_memo_misses_on_other_times_and_triples(monkeypatch):
    tr = random_admissible(2, 6, seed=12)
    t = TimeVector([0.4, -0.2, 0.1])
    calls = _expm_calls(monkeypatch)
    tau(tr, t)
    assert len(calls) == 1
    tau(tr, TimeVector([np.nextafter(0.4, 1.0), -0.2, 0.1]))  # one ulp away
    assert len(calls) == 2
    tau(tr, t)
    tau(tr, t.padded(5))  # the same tau, from another time array
    assert len(calls) == 4
    G = np.eye(tr.N) + 0.1 * np.triu(np.ones((tr.N, tr.N)), 1)
    tau(conjugate_triple(tr, G), t.padded(5))  # equal times, another triple
    assert len(calls) == 5
    stack = np.array([t.values, 2 * t.values])
    TauEvaluator(tr, stack)
    TauEvaluator(tr, stack.ravel())  # the same bytes as one time vector
    TauEvaluator(tr, stack[:1])
    assert len(calls) == 8


def test_memo_hit_is_bit_identical_to_a_miss():
    t = TimeVector([0.7 - 0.2j, 0.1, 0.3j, -0.05])
    cold = random_admissible(4, 12, seed=13)
    warm = random_admissible(4, 12, seed=13)
    first = TauEvaluator(warm, t)
    hit = TauEvaluator(warm, t)
    miss = TauEvaluator(cold, t)
    assert hit._left is first._left and hit.mu is first.mu
    assert miss._left is not hit._left
    assert hit._left.tobytes() == miss._left.tobytes()
    assert hit.mu.tobytes() == miss.mu.tobytes()
    sets = [(), ((2.0, 1), (-2.5, -1))]
    for a, b in zip(hit.shifted_dets(sets), miss.shifted_dets(sets)):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(hit.jets([(2, 0, 0)])[1], miss.jets([(2, 0, 0)])[1])


def test_grid_stacks_leave_the_single_point_memo_alone(monkeypatch):
    # a stack of P > 1 times neither reads nor replaces the slot, so a check
    # at the memoized time after a grid takes no exponential
    tr = random_admissible(2, 6, seed=15)
    t = TimeVector([0.2, -0.1, 0.05])
    tau(tr, t)
    memo = tr._base_factor
    calls = _expm_calls(monkeypatch)
    u_field(tr, np.linspace(-1.0, 1.0, 9), base=t)
    tau_grid(tr, [0.2, 0.3], base=t)
    psi_grid(tr, [0.2, 0.3], [2.5])
    assert tr._base_factor is memo and len(calls) == 3
    assert kp_residual(tr, t).passed
    assert hbde_residual(tr, t, 2.0, -2.5j, 3.0 + 1j).passed
    assert len(calls) == 3


def test_memo_arrays_are_read_only():
    tr = random_admissible(2, 6, seed=14)
    ev = TauEvaluator(tr, TimeVector([0.1, 0.2]))
    key, mu, left = tr._base_factor
    assert mu is ev.mu and left is ev._left
    for arr in (ev.mu, ev._left):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_exact_zero_of_tau_through_the_log_scale_arrays():
    # Wilson point: tau = t1 + 3 vanishes exactly at t1 = -3, where the
    # shifted-determinant arrays carry log magnitude -inf
    tr = from_calogero_moser(CalogeroMoserData([[3.0]], [[0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert tau(tr, TimeVector([-3.0])) == ScaledComplex(-math.inf, 0.0)
        grid = tau_grid(tr, [-4.0, -3.0, -2.0])
        assert [v for _, v in grid] == [
            ScaledComplex(0.0, math.pi),
            ScaledComplex(-math.inf, 0.0),
            ScaledComplex(0.0, 0.0),
        ]
        with pytest.raises(PoleError):
            psi_time(tr, TimeVector([-3.0]), 2.0)
        samples = psi_grid(tr, [-3.0, -2.0], [2.0, 1.0 + 1.0j])
        assert [s.is_pole for s in samples] == [True, False, True, False]
        for s in samples[1::2]:
            # psi = e^(x z) (1 - 1 / (z (x + 3))) away from the zero
            want = np.exp(s.x * s.z) * (1.0 - 1.0 / (s.z * (s.x + 3.0)))
            assert abs(s.as_complex - want) <= 1e-14 * abs(want)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def test_left_factor_covariance():
    # C -> G C with G invertible n x n multiplies tau by det(G), exactly
    tr = random_admissible(2, 6, seed=21)
    rng = np.random.default_rng(21)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    tr2 = make_triple(tr.A, tr.B, G @ tr.C)
    t = TimeVector([0.3, -0.2, 0.1])
    lhs = tau(tr2, t)
    rhs = ScaledComplex.from_complex(np.linalg.det(G)) * tau(tr, t)
    assert rel_difference(lhs, rhs) < 1e-12


def test_polynomial_of_B_on_C_keeps_admissibility():
    # C^T -> f(B) C^T leaves the coupling side (A, B) untouched
    from kp_rankone.triple import validate_triple
    from kp_rankone.verify import hbde_residual

    tr = random_admissible(2, 6, seed=22)
    fB = np.eye(6) + 0.3 * tr.B + 0.05 * tr.B @ tr.B
    C2_ = (fB @ tr.C.T).T
    rep = validate_triple(tr.A, tr.B, C2_)
    assert rep.admissible
    tr2 = make_triple(tr.A, tr.B, C2_)
    out = hbde_residual(tr2, TimeVector([0.2, 0.1]), 1.7, 2.4 + 0.3j, -2.1)
    assert out.residual < 1e-10


def test_real_input_gives_real_tau():
    d = KdVPairData(np.array([[0.5, 0.75], [0.75, 1.5]]), np.diag([1.0, 3.0]))
    tr = from_kdv_pair(d)
    for t1 in (-1.0, 0.3, 2.0):
        v = tau(tr, TimeVector([t1])).to_complex()
        assert abs(v.imag) < 1e-12 * abs(v)


# ---------------------------------------------------------------------------
# log derivatives: exact trace route vs direct finite differences
# ---------------------------------------------------------------------------


def fd_log_tau(tr, t, index, h=1e-6):
    """Test-side oracle: central difference of log tau with phase unwrap."""
    up = tau(tr, t.with_entry(index, t.entry(index) + h))
    dn = tau(tr, t.with_entry(index, t.entry(index) - h))
    dmag = up.log_magnitude - dn.log_magnitude
    dph = wrap_phase(up.phase - dn.phase)
    return complex(dmag, dph) / (2 * h)


def test_first_derivative_against_fd_oracle():
    tr = random_admissible(2, 6, seed=30)
    t = TimeVector([0.3, -0.1, 0.2])
    for k in (1, 2, 3):
        exact = log_tau_derivative(tr, t, tuple(1 if i == k else 0 for i in (1, 2, 3)))
        approx = fd_log_tau(tr, t, k)
        assert exact == pytest.approx(approx, rel=2e-8), k


def test_soliton_first_derivative_closed_form():
    # tau = 2 cosh(g(k)); d/dt1 log tau = k tanh(k t1) at single-time t
    d = KdVPairData(np.array([[1.0]]), np.array([[1.0]]))
    tr = from_kdv_pair(d)
    for t1 in (-1.2, 0.0, 0.8):
        got = log_tau_derivative(tr, TimeVector([t1]), (1, 0, 0))
        assert got == pytest.approx(math.tanh(t1), abs=1e-12)


def test_wilson_derivatives_closed_form():
    # tau = 3 + t1 exactly; successive log derivatives are rational
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr = from_calogero_moser(d)
    for t1 in (0.0, 1.0, -1.5):
        L1 = log_tau_derivative(tr, TimeVector([t1]), (1, 0, 0))
        assert L1 == pytest.approx(1.0 / (3.0 + t1), rel=1e-10)
        L2 = log_tau_derivative(tr, TimeVector([t1]), (2, 0, 0))
        assert L2 == pytest.approx(-1.0 / (3.0 + t1) ** 2, rel=1e-7)


def test_wilson_u_value_at_origin():
    # u = 2 d^2/dt1^2 log tau = -2/9 at t = 0
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr = from_calogero_moser(d)
    u0 = 2.0 * log_tau_derivative(tr, TimeVector([0.0]), (2, 0, 0))
    assert u0 == pytest.approx(-2.0 / 9.0, abs=1e-12)


def test_soliton_second_derivative_closed_form():
    d = KdVPairData(np.array([[1.0]]), np.array([[1.0]]))
    tr = from_kdv_pair(d)
    for t1 in (-0.8, 0.0, 1.1):
        L2 = log_tau_derivative(tr, TimeVector([t1]), (2, 0, 0))
        assert L2 == pytest.approx(1.0 / math.cosh(t1) ** 2, abs=1e-9)


def test_mixed_third_derivative_smoke():
    # d^3 log tau / dt1^2 dt2 on the soliton: for this
    # tau = 2cosh(t1 + t2 + ...) pattern every derivative reduces to
    # derivatives of log(2 cosh(s)) in s = g(1) ... but Z=[1] makes
    # g(k)=t1+t2+t3 and g(-k)=-t1+t2-t3; do it numerically instead
    d = KdVPairData(np.array([[1.0]]), np.array([[1.0]]))
    tr = from_kdv_pair(d)
    t = TimeVector([0.2, 0.1, 0.0])
    got = log_tau_derivative(tr, t, (2, 1, 0))
    # s = t1 - t2-side cancellation: tau = e^{t1+t2+t3} + e^{-t1+t2-t3},
    # log tau = t2 + log(2 cosh(t1 + t3)); so d/dt2 kills everything
    assert got == pytest.approx(0.0, abs=1e-6)


def test_derivative_validation():
    tr = random_admissible(1, 3, seed=31)
    t = TimeVector([0.1])
    with pytest.raises(ValueError):
        log_tau_derivative(tr, t, (0, 0, 0))  # total order zero
    with pytest.raises(ValueError):
        log_tau_derivative(tr, t, (5, 0, 0))  # beyond supported order
    with pytest.raises(ValueError):
        log_tau_derivative(tr, t, (1, 0))  # must name all three slots


def test_derivative_at_pole_raises():
    # Wilson tau = 3 + t1 vanishes at t1 = -3
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr = from_calogero_moser(d)
    with pytest.raises(PoleError):
        log_tau_derivative(tr, TimeVector([-3.0]), (1, 0, 0))


def _mpmath_log_tau_derivatives(tr, t, orders_list, terms=64):
    """30-digit oracle: mpmath.diff of log det M(t + s) / det M(t) at s = 0.

    M(t + s) = A E exp(s1 B + s2 B^2 + s3 B^3) C.T is summed as
    sum_j c_j(s) A B^j E C.T, where c_j(s) are the power-series
    coefficients of exp(s1 x + s2 x^2 + s3 x^3) (j c_j = sum_i i s_i c_(j-i)),
    carried until they drop below the working precision of mpmath.diff.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        A = mpmath.matrix(tr.A.tolist())
        B = mpmath.matrix(tr.B.tolist())
        G = mpmath.zeros(B.rows)
        for v in t.values[::-1]:
            G = B * (mpmath.mpc(complex(v)) * mpmath.eye(B.rows) + G)
        right = mpmath.expm(G) * mpmath.matrix(tr.C.T.tolist())
        Q = [A * right]
        for _ in range(terms):
            right = B * right
            Q.append(A * right)
        det0 = mpmath.det(Q[0])
        growth = 1 + mpmath.mnorm(B, 1)
        n = tr.n

        def log_ratio(*s):
            c = [mpmath.mpf(1)]
            for j in range(1, terms + 1):
                c.append(sum(i * s[i - 1] * c[j - i] for i in (1, 2, 3) if i <= j) / j)
                if j >= 3 and max(abs(x) for x in c[-3:]) * growth ** j < mpmath.mp.eps:
                    break
            else:
                raise AssertionError("series for exp(s1 B + s2 B^2 + s3 B^3) not converged")
            M = mpmath.matrix(n, n)
            for a in range(n):
                for b in range(n):
                    M[a, b] = mpmath.fsum(cj * Qj[a, b] for cj, Qj in zip(c, Q))
            return mpmath.log(mpmath.det(M) / det0)

        return [complex(mpmath.diff(log_ratio, (0, 0, 0), o)) for o in orders_list]


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_admissible(2, 6, seed=7),
        # B = [[Z, 0], [I, Z]] is defective
        lambda: from_calogero_moser(random_calogero_moser(3, seed=5)),
    ],
    ids=["admissible-2x6", "calogero-moser-defective"],
)
def test_log_derivatives_match_mpmath_oracle(make):
    tr = make()
    t = TimeVector([0.3, -0.2 + 0.1j, 0.1 - 0.05j])
    # every multi-index of total order 1..4, (0, 0, 4) needing B^12
    orders = [
        (i, j, k) for i in range(5) for j in range(5) for k in range(5) if 1 <= i + j + k <= 4
    ]
    assert len(orders) == 34 and (0, 0, 4) in orders and (2, 1, 1) in orders
    want = _mpmath_log_tau_derivatives(tr, t, orders)
    batch = TauEvaluator(tr, t).log_derivatives(orders)
    for o, ref, got in zip(orders, want, batch):
        single = log_tau_derivative(tr, t, o)
        for value in (got, single):
            assert abs(value - ref) <= 1e-11 * max(1.0, abs(ref)), (o, value, ref)


# ---------------------------------------------------------------------------
# u_field grids
# ---------------------------------------------------------------------------


def test_u_field_matches_wilson_closed_form():
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr = from_calogero_moser(d)
    grid = np.linspace(-1.0, 1.0, 5)
    samples = u_field(tr, grid)
    assert len(samples) == 5
    for s in samples:
        assert not s.is_pole
        want = -2.0 / (s.t1 + 3.0) ** 2
        assert s.value == pytest.approx(want, rel=1e-9)


def test_u_field_flags_pole():
    d = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr = from_calogero_moser(d)
    samples = u_field(tr, np.array([-4.0, -3.0, -2.0]))
    flags = [s.is_pole for s in samples]
    assert flags == [False, True, False]
    assert math.isnan(samples[1].value.real)
    # the regular neighbours are still accurate
    assert samples[0].value == pytest.approx(-2.0, rel=1e-9)
    assert samples[2].value == pytest.approx(-2.0, rel=1e-9)


def test_u_field_2d_grid_shape():
    tr = random_admissible(1, 3, seed=33)
    s = u_field(tr, np.linspace(0, 1, 3), np.linspace(0, 1, 2))
    assert len(s) == 6
    seen = {(round(x.t1, 6), round(x.t2, 6)) for x in s}
    assert len(seen) == 6


def test_u_field_base_replacement_semantics():
    # base supplies t2; the grid overrides t1 only
    d = KdVPairData(np.array([[1.0]]), np.array([[1.0]]))
    tr = from_kdv_pair(d)
    base = TimeVector([9.9, 0.4, 0.1])
    samples = u_field(tr, np.array([0.5]), base=base)
    # log tau = t2 + log(2 cosh(t1 + t3)) so u depends on t1 + t3 only
    want = 2.0 / math.cosh(0.5 + 0.1) ** 2
    assert samples[0].value == pytest.approx(want, rel=1e-8)


def _u_by_wilson_form(d):
    """u of a Calogero-Moser triple from tau = det exp(g(Z)) det(X + g'(Z)):
    tr g(Z) is linear in t_1 and d/dt_1 g'(Z) = I, so u = -2 tr((X + g'(Z))^-2)."""

    def u(tr, t):
        inv = np.linalg.inv(d.X + t.g_prime_matrix(d.Z))
        return complex(-2.0 * np.trace(inv @ inv))

    return u


def _with_oracle(make):
    return lambda: (make(), u_by_eigenbasis)


def _calogero_moser_case():
    d = random_calogero_moser(3, seed=5)
    return from_calogero_moser(d), _u_by_wilson_form(d)


@pytest.mark.parametrize(
    "make",
    [
        _with_oracle(lambda: random_admissible(1, 4, seed=11)),
        _with_oracle(lambda: random_admissible(2, 6, seed=12)),
        _with_oracle(lambda: random_admissible(4, 12, seed=13)),
        _with_oracle(lambda: random_admissible(8, 24, seed=14)),
        # B = [[Z, 0], [I, Z]] is defective: no eigenbasis, the closed form instead
        _calogero_moser_case,
        _with_oracle(lambda: from_kdv_pair(random_kdv_pair(3, seed=2))),
    ],
    ids=["1x4", "2x6", "4x12", "8x24", "calogero-moser-defective", "kdv-pair"],
)
def test_u_field_stack_matches_pointwise_derivative(make):
    tr, oracle = make()
    base = TimeVector([0.0, 0.15 - 0.1j, -0.05 + 0.2j])
    samples = u_field(tr, np.linspace(-1.0, 1.0, 9), base=base)
    assert len(samples) == 9
    for s in samples:
        assert not s.is_pole
        t = base.with_entry(1, s.t1)
        want = 2.0 * log_tau_derivative(tr, t, (2, 0, 0))
        assert abs(s.value - want) <= 1e-12 * abs(want), (s.t1, s.value, want)
        # grid and single point share one code path: judge both independently
        ref = oracle(tr, t)
        assert abs(s.value - ref) <= 1e-10 * abs(ref), (s.t1, s.value, ref)


def test_u_field_3d_grid_order_and_coordinates():
    tr = random_admissible(2, 6, seed=21)
    t1s, t2s, t3s = [-0.5, 0.0, 0.5], [0.1, -0.2], [0.3, -0.1]
    base = TimeVector([9.0, 9.0, 9.0, 0.05j])
    samples = u_field(tr, t1s, t2s, t3s, base=base)
    # t3 outer, then t2, t1 inner
    want_coords = [(v1, v2, v3) for v3 in t3s for v2 in t2s for v1 in t1s]
    assert [(s.t1, s.t2, s.t3) for s in samples] == want_coords
    for s in samples:
        t = TimeVector([s.t1, s.t2, s.t3, 0.05j])
        want = 2.0 * log_tau_derivative(tr, t, (2, 0, 0))
        assert abs(s.value - want) <= 1e-12 * abs(want)
        ref = u_by_eigenbasis(tr, t)
        assert abs(s.value - ref) <= 1e-10 * abs(ref), (s.t1, s.t2, s.t3, s.value, ref)


def test_u_field_wilson_zero_mid_stack():
    # tau = t1 + 3: the exact zero at t1 = -3 sits in the middle of the line
    tr = from_calogero_moser(CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]])))
    grid = np.linspace(-5.0, -1.0, 9)
    samples = u_field(tr, grid)
    assert [s.is_pole for s in samples] == [i == 4 for i in range(9)]
    assert samples[4].t1 == -3.0 and math.isnan(samples[4].value.real)
    for s in samples[:4] + samples[5:]:
        want = -2.0 / (s.t1 + 3.0) ** 2
        assert abs(s.value - want) <= 1e-12 * abs(want), (s.t1, s.value)


def test_u_field_empty_grid():
    tr = random_admissible(1, 4, seed=3)
    assert u_field(tr, []) == []
    assert u_field(tr, [0.0, 1.0], []) == []
    assert tau_grid(tr, []) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_grid_rejects_nonfinite_axis_value(bad):
    tr = random_admissible(1, 4, seed=3)
    with pytest.raises(ValueError):
        u_field(tr, [0.0, bad, 1.0])
    with pytest.raises(ValueError):
        u_field(tr, [0.0], t3_values=[bad])
    with pytest.raises(ValueError):
        tau_grid(tr, [0.0], [bad])


def test_tau_grid_matches_pointwise_tau():
    tr = random_admissible(4, 12, seed=8)
    base = TimeVector([0.0, 0.0, 0.0, 0.1 + 0.1j])
    grid = tau_grid(tr, np.linspace(-1.0, 1.0, 5), [0.2, -0.3], base=base)
    assert len(grid) == 10
    for (v1, v2, v3), value in grid:
        assert v3 is None
        t = TimeVector([v1, v2, 0.0, 0.1 + 0.1j])
        want = tau(tr, t)
        assert rel_difference(value, want) <= 1e-13
        ref = ScaledComplex.from_complex(discrete_tau_by_eigenbasis(tr, t, ()))
        assert rel_difference(value, ref) <= 1e-12, (v1, v2, value, ref)
