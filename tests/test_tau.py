"""Tau evaluation: frozen scalar values, shift algebra, derivatives, grids.

Scalar cases where the determinant collapses to a short closed form are
evaluated by hand and frozen here; the multivariate machinery must hit
them to near machine precision.
"""

import importlib
import math
import warnings

import numpy as np
import pytest

from conftest import discrete_tau_by_eigenbasis, u_by_eigenbasis
from kp_rankone import matkernel
from kp_rankone.baker import polynomiality_check, psi_dual, psi_grid, psi_stationary, psi_time
from kp_rankone.cases import (
    CalogeroMoserData,
    KdVPairData,
    from_calogero_moser,
    from_kdv_pair,
    random_calogero_moser,
    random_kdv_pair,
)
from kp_rankone.errors import DimensionError, PoleError, SingularShiftError
from kp_rankone.matkernel import ScaledComplex, det_scaled, rel_difference, wrap_phase
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
from kp_rankone.triple import RankOneTriple, conjugate_triple, make_triple, random_admissible
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


def _stack_taus(ev, shifts) -> list:
    """det(A exp(g(B)) prod_j (c_j I - B)^k_j C.T) at every base time of
    ``ev``, from its moment blocks of degree 0, as ScaledComplex values."""
    dets = det_scaled(ev.moment_blocks(shifts, 0))
    return [d * ScaledComplex.exp_of(ev.triple.n * mu) for d, mu in zip(dets, ev.mu.tolist())]


def test_moment_blocks_stack_matches_eigenbasis_oracle():
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
    ev = TauEvaluator(tr, times)
    for shifts in sets:
        assert ev.moment_blocks(shifts, 0).shape == (len(times), tr.n, tr.n)
        for t, got in zip(times, _stack_taus(ev, shifts)):
            want = discrete_tau_by_eigenbasis(tr, TimeVector(t), shifts)
            assert rel_difference(got, ScaledComplex.from_complex(want)) <= 1e-12, shifts


def test_inverse_guard_norm_certificate_skips_shift_svd(monkeypatch):
    # ||B||_2 = 1 and |c| = 2.5: the certificate alone clears c, so the
    # only SVD taken is the one of B
    tr = random_admissible(2, 6, seed=6)
    c, other = 2.5 * np.exp(0.7j), -1.9 + 0.2j
    t = TimeVector([0.2, -0.1])
    shapes = _svd_shapes(monkeypatch)
    for l, m in ((-1, 0), (-2, 1)):
        got = tau_discrete(tr, l, m, 0, c, other, 3.0, t=t)
        assert shapes == [(tr.N, tr.N)]
        want = discrete_tau_by_eigenbasis(tr, t, ((c, l), (other, m)))
        assert rel_difference(got, ScaledComplex.from_complex(want)) <= 1e-12
    # the triple keeps ||B||_2: a call at another time takes no SVD
    tau_miwa(tr, ((c, -2), (other, 1)), TimeVector([0.5]))
    psi_dual(tr, TimeVector([0.5]), c)
    assert shapes == [(tr.N, tr.N)]


def test_inverse_guard_svd_branch_jordan_block(monkeypatch):
    # B = [[0, 100], [0, 0]] has ||B||_2 = 100 > |c| = 2, so the SVD of
    # 2 I - B decides (s_min / s_max ~ 4e-4, invertible). With A = C = [1 1],
    # exp(x B) = I + x B and (2 I - B)^-k = [[2^-k, 100 k 2^-(k+1)], [0, 2^-k]],
    # tau = 2^(1-k) + 100 k 2^-(k+1) + 100 x 2^-k: 41 for k = 1, 33 for
    # k = 2 at x = 0.3
    tr = make_triple([[1.0, 1.0]], [[0.0, 100.0], [0.0, 0.0]], [[1.0, 1.0]])
    ev = TauEvaluator(tr, TimeVector([0.3]))
    shapes = _svd_shapes(monkeypatch)
    one, two = (ev.tau_discrete(k, 0, 0, 2.0, 3.0, 4.0) for k in (-1, -2))
    assert shapes == [(2, 2), (1, 2, 2), (1, 2, 2)]
    assert abs(one.to_complex() - 41.0) <= 1e-13 * 41.0
    assert abs(two.to_complex() - 33.0) <= 1e-13 * 33.0


def test_inverse_guard_rejects_shift_next_to_eigenvalue():
    tr = random_admissible(2, 6, seed=5)
    c = complex(np.linalg.eigvals(tr.B)[0]) + 1e-14
    t = TimeVector([0.1])
    ev = TauEvaluator(tr, t)
    for call in (
        lambda: ev.tau_discrete(-1, 0, 0, c, 2.0, 3.0),
        lambda: ev.tau_miwa(((2.5, -1), (c, 1), (c, -1))),
        lambda: ev.moment_blocks(((c, -1),), 2),
        lambda: psi_dual(tr, t, c),
    ):
        with pytest.raises(SingularShiftError):
            call()
    # a positive power needs no inverse and stays allowed
    assert not ev.tau_discrete(1, 0, 0, c, 2.0, 3.0).is_zero
    assert not psi_time(tr, t, c).value.is_zero


@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan, complex(2.0, math.inf)])
@pytest.mark.parametrize("k", [1, -1])
def test_non_finite_shift_parameter_is_rejected(c, k):
    tr = random_admissible(2, 6, seed=8)
    t = TimeVector([0.2, -0.1])
    ev = TauEvaluator(tr, t)
    for call in (
        lambda: tau_discrete(tr, k, 0, 0, c, 2.0, 3.0, t=t),
        lambda: ev.tau_discrete(0, k, 0, 2.0, c, 3.0),
        lambda: ev.moment_blocks(((2.5, 1), (c, k)), 1),
    ):
        with pytest.raises(ValueError, match="shift parameter c must be finite"):
            call()


@pytest.mark.parametrize("k", [1, -1])
def test_zero_shift_parameter_is_the_factor_minus_b(k):
    # c = 0 is a valid discrete shift: its factor is (-B)^k
    tr = random_admissible(2, 6, seed=8)
    t = TimeVector([0.2, -0.1])
    got = tau_discrete(tr, k, 0, 0, 0.0, 2.0, 3.0, t=t)
    want = discrete_tau_by_eigenbasis(tr, t, ((0.0, k),))
    assert rel_difference(got, ScaledComplex.from_complex(want)) <= 1e-12


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
    shifts = ((2.0, 1), (-2.5, -1))
    assert hit.moment_blocks(shifts, 2).tobytes() == miss.moment_blocks(shifts, 2).tobytes()
    assert hit.tau_miwa(shifts) == miss.tau_miwa(shifts)
    assert np.array_equal(hit.jets([(2, 0, 0)])[1], miss.jets([(2, 0, 0)])[1])


def test_grid_stacks_leave_the_single_point_memo_alone(monkeypatch):
    # a stack of P > 1 times neither reads nor replaces the kept factor, so
    # a check at the memoized time after a grid takes no exponential
    tr = random_admissible(2, 6, seed=15)
    t = TimeVector([0.2, -0.1, 0.05])
    tau(tr, t)
    memo = tr._memo["base_factor"]
    calls = _expm_calls(monkeypatch)
    u_field(tr, np.linspace(-1.0, 1.0, 9), base=t)
    tau_grid(tr, [0.2, 0.3], base=t)
    psi_grid(tr, [0.2, 0.3], [2.5])
    # the u grid's offsets (2 of its 4 steps j != 0) and its 3 anchors, then
    # one stack for each of the tau and psi grids
    assert calls == [(2, tr.N, tr.N), (3, tr.N, tr.N), (2, tr.N, tr.N), (2, tr.N, tr.N)]
    assert tr._memo["base_factor"] is memo
    assert kp_residual(tr, t).passed
    assert hbde_residual(tr, t, 2.0, -2.5j, 3.0 + 1j).passed
    assert len(calls) == 4


def _kept_arrays(tr, name: str) -> tuple:
    """The arrays the triple keeps under ``name``, the first item of a tuple
    name (one value per name here)."""
    (value,) = [v for k, (_, v) in tr._memo.items() if (k[0] if isinstance(k, tuple) else k) == name]
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("name", ["base_factor", "right_blocks", "step_offsets"])
def test_kept_arrays_are_read_only(name):
    tr = random_admissible(2, 6, seed=46)
    ev = TauEvaluator(tr, TimeVector([0.1, 0.2]))
    ev.jets([(2, 0, 0)])
    u_field(tr, np.linspace(-1.0, 1.0, 9))
    arrays = _kept_arrays(tr, name)
    if name == "base_factor":
        assert arrays[0] is ev.mu and arrays[1] is ev._left
    elif name == "right_blocks":
        BC = tr.B @ tr.C.T
        assert arrays[0].tobytes() == np.hstack([tr.C.T, BC, tr.B @ BC]).tobytes()
    else:
        S, mu_S = arrays
        s = math.isqrt(8) + 1
        assert S.shape == (s, tr.N, tr.N) and mu_S.shape == (s,)
        assert np.array_equal(S[s // 2], np.eye(tr.N)) and mu_S[s // 2] == 0.0
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_exact_zero_of_tau_is_the_scaled_zero_or_a_pole():
    # Wilson point: tau = t1 + 3 vanishes exactly at t1 = -3, where the
    # slogdet of the shifted determinants gives log magnitude -inf
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
        for call in (
            lambda: psi_time(tr, TimeVector([-3.0]), 2.0),
            lambda: psi_stationary(tr, -3.0, 0.5j),
            lambda: psi_dual(tr, TimeVector([-3.0, 0.2]), 2.0),
        ):
            with pytest.raises(PoleError):
                call()
        # both sides of |z| = 1, whose combinations take different weights
        samples = psi_grid(tr, [-3.0, -2.0], [2.0, 1.0 + 1.0j, 0.5j, -0.25 + 0.1j])
        assert [s.is_pole for s in samples] == [True, False] * 4
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
        lambda: random_admissible(4, 12, seed=8),
        lambda: from_kdv_pair(random_kdv_pair(3, seed=4)),
    ],
    ids=["admissible-2x6", "calogero-moser-defective", "admissible-4x12", "kdv-pair"],
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


_ORDERS_TO_4 = tuple(
    (i, j, k) for i in range(5) for j in range(5) for k in range(5) if 1 <= i + j + k <= 4
)
_KP_ORDERS = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (1, 0, 1), (3, 0, 0), (4, 0, 0))


def _series_by_powers(X, wanted):
    """Reference for the jet plan: the series log det(I + Y) summed as
    sum_k (-1)^(k+1) tr(Y^k) / k with Y^k a dict of multi-index blocks,
    truncated to the multi-indices below a wanted one."""
    weight = lambda a: a[0] + 2 * a[1] + 3 * a[2]  # noqa: E731
    fact = lambda a: math.factorial(a[0]) * math.factorial(a[1]) * math.factorial(a[2])  # noqa: E731
    keep = {
        (i, j, k)
        for a1, a2, a3 in wanted
        for i in range(a1 + 1)
        for j in range(a2 + 1)
        for k in range(a3 + 1)
    } - {(0, 0, 0)}
    n = X.shape[-2]
    Y = {a: X[..., (weight(a) - 1) * n : weight(a) * n] / fact(a) for a in keep}
    series = dict.fromkeys(keep, 0j)
    power = Y
    for k in range(1, max(sum(a) for a in keep) + 1):
        if k > 1:
            product = {}
            for a, L in power.items():
                for b, R in Y.items():
                    c = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                    if c in keep:
                        product[c] = product[c] + L @ R if c in product else L @ R
            power = product
        for a, block in power.items():
            series[a] = series[a] + (-1) ** (k + 1) / k * np.trace(block, axis1=-2, axis2=-1)
    return np.stack([fact(a) * series[a] for a in wanted], axis=-1)


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("n, P", [(1, 1), (1, 41), (3, 5), (8, 12)])
def test_jet_plan_matches_the_power_series(n, P, real):
    # u keeps its bits (words tr X_2 and tr X_1^2, summed from zero as the
    # power series sums them); other orders agree to rounding
    tau_module = importlib.import_module("kp_rankone.tau")
    rng = np.random.default_rng(10 * n + P)
    X = rng.standard_normal((P, n, 12 * n))
    if not real:
        X = X + 1j * rng.standard_normal(X.shape)
    X = X.astype(np.complex128)
    for wanted in (((2, 0, 0),), _KP_ORDERS, _ORDERS_TO_4):
        plan = tau_module._jet_plan(wanted)
        got = tau_module._jet_series(np.ascontiguousarray(X[..., : plan[0] * n]), plan)
        want = _series_by_powers(X[..., : plan[0] * n], wanted)
        if wanted == ((2, 0, 0),):
            assert got.tobytes() == want.tobytes()
        else:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), wanted


@pytest.mark.parametrize("P", [2, 12, 41])
@pytest.mark.parametrize(
    "make",
    [lambda: random_admissible(1, 4, seed=51), lambda: random_admissible(8, 24, seed=52)],
    ids=["1x4", "8x24"],
)
def test_stack_slices_are_bit_identical_to_single_points(make, P):
    # slice k of a P-stack is what the single point t_k gives alone: mu,
    # the left factor A exp(g(B) - mu I), and the jets of u, of the KP
    # check and of every order up to 4 (more than eight trace words)
    tr = make()
    rng = np.random.default_rng(P)
    times = np.zeros((P, 3), dtype=np.complex128)
    times[:, 0] = np.linspace(-1.0, 1.0, P)
    times[:, 1:] = 0.2 * (rng.random((P, 2)) - 0.5) + 0.2j * (rng.random((P, 2)) - 0.5)
    stack = TauEvaluator(tr, times)
    wanted_sets = [((2, 0, 0),), _KP_ORDERS, _ORDERS_TO_4]
    jets = [stack.jets(wanted) for wanted in wanted_sets]
    for k in range(P):
        single = TauEvaluator(tr, TimeVector(times[k]))
        assert single.mu.tobytes() == stack.mu[k : k + 1].tobytes()
        assert single._left.tobytes() == stack._left[k : k + 1].tobytes()
        for wanted, (log_mag, derivs) in zip(wanted_sets, jets):
            m, d = single.jets(wanted)
            assert m.tobytes() == log_mag[k : k + 1].tobytes(), (k, wanted)
            assert d.tobytes() == derivs[k : k + 1].tobytes(), (k, wanted)


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
    t1s = np.linspace(-1.0, 1.0, 9)
    samples = u_field(tr, t1s, base=base)
    assert len(samples) == 9
    exact = _mpmath_u_line(tr, base, t1s)
    for k, s in enumerate(samples):
        assert not s.is_pole
        t = base.with_entry(1, s.t1)
        want = 2.0 * log_tau_derivative(tr, t, (2, 0, 0))
        if k in (1, 4, 7):
            # anchors (ceil(sqrt(9)) = 3 apart, centred in their blocks)
            # take the single point's own exponential
            assert abs(s.value - want) <= 1e-12 * abs(want), (s.t1, s.value, want)
        else:
            # stepped from an anchor, another algorithm than the single
            # point: judged against mpmath, no less accurate than the
            # single point up to 1e-12 relative
            err, err_point = abs(s.value - exact[k]), abs(want - exact[k])
            assert err <= err_point + 1e-12 * abs(exact[k]), (s.t1, err, err_point)
        ref = oracle(tr, t)
        assert abs(s.value - ref) <= 3e-11 * abs(ref), (s.t1, s.value, ref)


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


def _mpmath_u_line(tr, base, t1s):
    """20-digit u = 2 (tr X_2 - tr X_1^2) along a t1 line t1_k = t1_0 + k h,
    the other times from ``base``: the left factor A exp(g(B)) of the first
    point, times exp(h B) once per step. The t1 values must be an exact
    arithmetic progression (dyadic steps make them one)."""
    mpmath = pytest.importorskip("mpmath")
    h = t1s[1] - t1s[0]
    assert all(v == t1s[0] + k * h for k, v in enumerate(t1s))
    with mpmath.workdps(20):
        B = mpmath.matrix(tr.B.tolist())
        CT = mpmath.matrix(tr.C.T.tolist())
        BCT = B * CT
        B2CT = B * BCT
        G = mpmath.zeros(B.rows)
        for v in base.with_entry(1, t1s[0]).values[::-1]:
            G = B * (mpmath.mpc(complex(v)) * mpmath.eye(B.rows) + G)
        left = mpmath.matrix(tr.A.tolist()) * mpmath.expm(G)
        step = mpmath.expm(mpmath.mpf(float(h)) * B)
        out = []
        for k in range(len(t1s)):
            if k:
                left = left * step
            inv = mpmath.inverse(left * CT)
            X1, X2 = inv * (left * BCT), inv * (left * B2CT)
            X11 = X1 * X1
            out.append(complex(2 * mpmath.fsum(X2[i, i] - X11[i, i] for i in range(tr.n))))
    return out


@pytest.mark.parametrize("P", [41, 61, 201])
def test_u_field_wilson_lines_flag_only_the_zero(P):
    # tau = t1 + 3: t1 = -3 is a stepped (not an anchor) point of each line,
    # and at P = 201 the last block is too short for a centred anchor
    tr = from_calogero_moser(CalogeroMoserData([[3.0]], [[0.0]]))
    grid = {41: np.linspace(-5.0, -1.0, 41), 61: np.linspace(-4.0, 2.0, 61),
            201: np.linspace(-5.0, -1.0, 201)}[P]
    samples = u_field(tr, grid)
    assert [s.t1 for s in samples if s.is_pole] == [-3.0]
    for s in samples:
        if not s.is_pole:
            want = -2.0 / (s.t1 + 3.0) ** 2
            assert abs(s.value - want) <= 1e-12 * abs(want), (s.t1, s.value, want)


def _direct_u(tr, times):
    """u from one direct TauEvaluator stack of the given times (P, K)."""
    return 2.0 * TauEvaluator(tr, times).jets([(2, 0, 0)])[1][:, 0]


@pytest.mark.parametrize(
    "t1s",
    [[-1.0, -0.5, 0.1, 0.2, 0.9, 1.3], [-0.3, 0.1, 0.5], [0.0, 0.1, 0.2, 0.3 + 1e-12]],
    ids=["uneven", "three-points", "off-by-1e-12"],
)
def test_u_field_lines_without_a_step_keep_the_direct_stack(t1s):
    tr = random_admissible(2, 6, seed=41)
    base = TimeVector([0.0, 0.1 - 0.2j, 0.05j])
    times = np.tile(base.values, (len(t1s), 1))
    times[:, 0] = t1s
    got = np.array([s.value for s in u_field(tr, t1s, base=base)])
    assert np.array_equal(got, _direct_u(tr, times))


@pytest.mark.parametrize("P", [41, 201])
def test_u_field_anchors_are_bit_identical_to_the_direct_stack(P):
    tr = random_admissible(4, 12, seed=42)
    base = TimeVector([0.0, 0.2 + 0.1j, -0.1j])
    grid = np.linspace(-1.5, 2.5, P)
    times = np.tile(base.values, (P, 1))
    times[:, 0] = grid
    # ceil(sqrt(P)) = 7 and 15 apart; the last block of 201 is too short
    # for a centred anchor, so the last point anchors it
    anchors = {41: [3, 10, 17, 24, 31, 38], 201: list(range(7, 195, 15)) + [200]}[P]
    got = np.array([x.value for x in u_field(tr, grid, base=base)])
    want = _direct_u(tr, times)
    assert got[anchors].tobytes() == want[anchors].tobytes()
    assert not np.array_equal(got, want)  # the other points are stepped


def test_u_field_line_is_one_small_exponential(monkeypatch):
    tr = random_admissible(2, 6, seed=43)
    calls = _expm_calls(monkeypatch)
    u_field(tr, np.linspace(-2.0, 2.0, 41), base=TimeVector([0.0, 0.1, 0.1j]))
    # the 6 anchors in one call, after the 6 offsets j != 0 that a fresh
    # triple makes in one call of their own, where the direct stack takes 41
    assert calls == [(6, tr.N, tr.N), (6, tr.N, tr.N)]


def test_u_field_3d_grid_is_one_exponential_call(monkeypatch):
    tr = random_admissible(2, 6, seed=44)
    calls = _expm_calls(monkeypatch)
    samples = u_field(tr, np.linspace(-1.0, 1.0, 21), [0.1, 0.2, 0.3], [-0.1, 0.0, 0.1])
    assert len(samples) == 21 * 9 and not any(s.is_pole for s in samples)
    # 5 anchors on each of the 9 lines in one call, after the 4 offsets that
    # they all share, in one call on a fresh triple
    assert calls == [(4, tr.N, tr.N), (9 * 5, tr.N, tr.N)]


def test_u_field_grid_beyond_the_anchor_budget_splits_its_lines(monkeypatch):
    tr = random_admissible(2, 6, seed=44)
    axes = (np.linspace(-1.0, 1.0, 21), [0.1, 0.2, 0.3], [-0.1, 0.0, 0.1])
    whole = _u_bits(u_field(tr, *axes))
    # room for the 5 anchors of two lines a call; the offsets are kept from
    # the first grid, on this triple, and made in a call of their own on a
    # fresh one, with the same bits either way
    monkeypatch.setattr(importlib.import_module("kp_rankone.tau"), "_ANCHOR_ENTRIES", 10 * tr.N**2)
    calls = _expm_calls(monkeypatch)
    assert _u_bits(u_field(tr, *axes)).tobytes() == whole.tobytes()
    assert calls == [(10, tr.N, tr.N)] * 4 + [(5, tr.N, tr.N)]
    calls.clear()
    assert _u_bits(u_field(random_admissible(2, 6, seed=44), *axes)).tobytes() == whole.tobytes()
    assert calls == [(4, tr.N, tr.N)] + [(10, tr.N, tr.N)] * 4 + [(5, tr.N, tr.N)]


def _u_bits(samples) -> np.ndarray:
    """The bits of the u values of a grid, as two uint64 per sample, so
    signed zeros count."""
    return np.array([x.value for x in samples], dtype=np.complex128).view(np.uint64)


def test_u_field_calls_with_one_step_share_the_kept_offsets():
    # one t1 axis at several (t2, t3), as when u is plotted line by line:
    # every call after the first takes the offsets from the triple, and
    # each matches the first call's bits and those of a fresh triple
    tr = random_admissible(4, 12, seed=45)
    t1s = np.linspace(-2.0, 2.0, 41)
    first = _u_bits(u_field(tr, t1s, [0.1], [0.2]))
    kept = tr._memo["step_offsets"]
    assert _u_bits(u_field(tr, t1s, [0.1], [0.2])).tobytes() == first.tobytes()
    for t2, t3 in [(0.3, -0.1), (-0.2, 0.05)]:
        got = _u_bits(u_field(tr, t1s, [t2], [t3]))
        fresh = _u_bits(u_field(random_admissible(4, 12, seed=45), t1s, [t2], [t3]))
        assert got.tobytes() == fresh.tobytes()
    assert tr._memo["step_offsets"] is kept


def test_u_field_with_a_kept_step_exponentiates_only_the_anchors(monkeypatch):
    tr = random_admissible(2, 6, seed=44)
    axes = (np.linspace(-1.0, 1.0, 21), [0.1, 0.2, 0.3], [-0.1, 0.0, 0.1])
    whole = _u_bits(u_field(tr, *axes))
    calls = _expm_calls(monkeypatch)
    again = _u_bits(u_field(tr, *axes))
    # the 5 anchors of each of the 9 lines, and no offsets
    assert calls == [(9 * 5, tr.N, tr.N)]
    assert again.tobytes() == whole.tobytes()


@pytest.mark.parametrize(
    "t1s, base",
    [
        (np.linspace(-1.0, 1.5, 41), TimeVector([0.0, 0.1, 0.1j])),  # h
        (np.linspace(-2.0, 2.0, 21), TimeVector([0.0, 0.1, 0.1j])),  # P, and so s
        (np.linspace(-2.0, 2.0, 41), TimeVector([0.0, 0.1, 0.1j, 0.02])),  # K
    ],
    ids=["h", "P", "K"],
)
def test_u_field_with_another_step_replaces_the_kept_offsets(monkeypatch, t1s, base):
    tr = random_admissible(2, 6, seed=43)
    u_field(tr, np.linspace(-2.0, 2.0, 41), base=TimeVector([0.0, 0.1, 0.1j]))
    old_key = tr._memo["step_offsets"][0]
    calls = _expm_calls(monkeypatch)
    got = _u_bits(u_field(tr, t1s, base=base))
    s = math.isqrt(len(t1s) - 1) + 1
    # the s - 1 offsets j != 0 in one call, then the ceil(P / s) anchors
    assert calls == [(s - 1, tr.N, tr.N), (-(-len(t1s) // s), tr.N, tr.N)]
    key, (S, mu_S) = tr._memo["step_offsets"]
    assert key != old_key and S.shape == (s, tr.N, tr.N) and mu_S.shape == (s,)
    fresh = _u_bits(u_field(random_admissible(2, 6, seed=43), t1s, base=base))
    assert got.tobytes() == fresh.tobytes()


def test_u_field_long_line_accuracy_against_mpmath():
    # 201 points in dyadic steps, so mpmath steps through exactly the same t1
    tr = random_admissible(4, 12, seed=12)
    base = TimeVector([0.0, 0.1 - 0.15j, 0.05 + 0.1j])
    t1s = np.linspace(-1.5625, 1.5625, 201)
    exact = np.array(_mpmath_u_line(tr, base, t1s))
    # the line oracle against the derivative oracle at both ends
    for k in (0, 200):
        t = base.with_entry(1, t1s[k])
        ref = 2.0 * _mpmath_log_tau_derivatives(tr, t, [(2, 0, 0)])[0]
        assert abs(exact[k] - ref) <= 1e-17 * abs(ref), (k, exact[k], ref)
    samples = u_field(tr, t1s, base=base)
    assert not any(s.is_pole for s in samples)
    point = np.array([2.0 * log_tau_derivative(tr, base.with_entry(1, v), (2, 0, 0)) for v in t1s])
    grid = np.array([s.value for s in samples])
    scale = np.abs(exact)
    err_grid, err_point = (np.max(np.abs(v - exact) / scale) for v in (grid, point))
    assert err_grid <= 2 * err_point + 1e-13, (err_grid, err_point)


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
        assert np.array([value.log_magnitude, value.phase]).tobytes() == np.array(
            [want.log_magnitude, want.phase]
        ).tobytes(), (v1, v2)
        ref = ScaledComplex.from_complex(discrete_tau_by_eigenbasis(tr, t, ()))
        assert rel_difference(value, ref) <= 1e-12, (v1, v2, value, ref)


def test_shifted_determinants_keep_their_bits_with_a_copying_slogdet(monkeypatch):
    # tau, Miwa and discrete taus, the wave functions and the tau grid, an
    # exact zero of tau among them (a singular slice), give the same bits
    # when every determinant goes through a slogdet that copies its input
    tr = random_admissible(3, 8, seed=12)
    zero = RankOneTriple(np.array([[1.0, 1.0]]), np.diag([1.0, 0.0]), np.array([[1.0, -1.0]]))
    t = TimeVector([0.3, -0.15, 0.1])

    def values():
        out = [
            tau(tr, t),
            tau_miwa(tr, ((1.5, 2), (2 - 1j, -1)), t),
            tau_discrete(tr, 1, -1, 2, 1.5, 2 - 1j, -1.8, t),
            psi_time(tr, t, 2.5).value,
            psi_dual(tr, t, 2.5 + 1j).value,
            tau(zero, TimeVector([0.0])),
        ]
        out += [s.value for s in psi_grid(zero, [0.0, 0.5], [2.0, 3.0 + 1j, 0.5j])]
        out += [v for _, v in tau_grid(tr, [0.0, 0.5, 1.0], base=t)]
        return np.array([(v.log_magnitude, v.phase) for v in out]).view(np.int64)

    got = values()
    assert got[5, 0] == np.float64(-math.inf).view(np.int64)
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda M: slogdet(np.array(M, order="C")))
    assert np.array_equal(got, values())


# ---------------------------------------------------------------------------
# integer arguments: powers, sites and derivative orders are never truncated
# ---------------------------------------------------------------------------


def test_non_integral_powers_sites_and_orders_raise():
    # each used to be cut by int(): k = 1.5 gave k = 1, l = 1.7 gave l = 1,
    # and orders (1.9, 0, 0) gave the first derivative
    tr = random_admissible(2, 5, seed=3)
    t = TimeVector([0.1, 0.05])
    calls = [
        (lambda: MiwaShiftList(((2.0, 1.5),)), "shift multiplicity k"),
        (lambda: tau_miwa(tr, ((2.0, 1.5),), t), "shift multiplicity k"),
        (lambda: tau_miwa(tr, ((2.0, math.inf),), t), "shift multiplicity k"),
        (lambda: tau_discrete(tr, 1.7, 0, 0, 2.0, 3.0, 4.0, t=t), "l must"),
        (lambda: tau_discrete(tr, 0, np.float64(-0.5), 0, 2.0, 3.0, 4.0, t=t), "m must"),
        (lambda: TauEvaluator(tr, t).tau_discrete(0, 0, math.nan, 2.0, 3.0, 4.0), "n_index must"),
        (lambda: log_tau_derivative(tr, t, (1.9, 0, 0)), "non-negative integers"),
        (lambda: TauEvaluator(tr, t).log_derivatives([(1, 0.5, 0)]), "non-negative integers"),
        (lambda: log_tau_derivative(tr, t, (math.inf, 0, 0)), "non-negative integers"),
        (lambda: log_tau_derivative(tr, t, (1, math.nan, 0)), "non-negative integers"),
    ]
    for call, message in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_integral_floats_and_numpy_integers_are_integers():
    tr = random_admissible(2, 5, seed=3)
    t = TimeVector([0.1, 0.05])
    shifts = ((2.0, 2), (-3.0, -1))
    want = tau_miwa(tr, shifts, t)
    for k1, k2 in ((2.0, -1.0), (np.int64(2), np.int32(-1)), (np.float64(2.0), -1)):
        got = tau_miwa(tr, ((2.0, k1), (-3.0, k2)), t)
        assert (got.log_magnitude, got.phase) == (want.log_magnitude, want.phase)
        assert all(type(k) is int for _, k in MiwaShiftList(((2.0, k1), (-3.0, k2))).shifts)
    want = tau_discrete(tr, 1, -1, 2, 2.0, 3.0, 4.0, t=t)
    got = tau_discrete(tr, 1.0, np.int64(-1), np.float32(2.0), 2.0, 3.0, 4.0, t=t)
    assert (got.log_magnitude, got.phase) == (want.log_magnitude, want.phase)
    assert log_tau_derivative(tr, t, (2.0, np.int64(0), 0)) == log_tau_derivative(tr, t, (2, 0, 0))
