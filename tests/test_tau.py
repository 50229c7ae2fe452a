"""Tau evaluation: frozen scalar values, shift algebra, derivatives, grids.

Scalar cases where the determinant collapses to a short closed form are
evaluated by hand and frozen here; the multivariate machinery must hit
them to near machine precision.
"""

import importlib
import itertools
import math
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from conftest import mp_psi, mp_rel_error, mp_shifted_tau, mp_u
from kp_rankone import matkernel
from kp_rankone.baker import polynomiality_check, psi_dual, psi_grid, psi_stationary, psi_time
from kp_rankone.cases import (
    CalogeroMoserData,
    IntertwiningData,
    KdVPairData,
    from_calogero_moser,
    from_intertwining,
    from_kdv_pair,
    random_calogero_moser,
    random_kdv_pair,
)
from kp_rankone.cli import load_scenario
from kp_rankone.errors import DimensionError, PoleError, RangeError, SingularShiftError
from kp_rankone.matkernel import ScaledComplex, det_scaled, rel_difference, wrap_phase
from kp_rankone.tau import (
    MiwaShiftList,
    TauEvaluator,
    TimeVector,
    _calogero_moser,
    _eigenbasis,
    _shifted_right,
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
    return [d * ScaledComplex.exp_of(scale) for d, scale in zip(dets, ev.scale.tolist())]


def test_moment_blocks_stack_matches_mpmath():
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
            assert mp_rel_error(got, mp_shifted_tau(tr, TimeVector(t), shifts)) <= 1e-12, shifts


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
        assert mp_rel_error(got, mp_shifted_tau(tr, t, ((c, l), (other, m)))) <= 1e-12
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
    # on both paths: the eigenbasis divides by the weights c - lam, a
    # triple without one (defective B) solves; the one guard comes first,
    # so SingularShiftError is raised, never RangeError, inf or nan
    t = TimeVector([0.1])
    for tr in (random_admissible(2, 6, seed=5), _expm_triple(5)):
        c = complex(np.linalg.eigvals(tr.B)[0]) + 1e-14
        ev = TauEvaluator(tr, t)
        for call in (
            lambda: ev.tau_discrete(-1, 0, 0, c, 2.0, 3.0),
            lambda: ev.tau_miwa(((2.5, -1), (c, 1), (c, -1))),
            lambda: ev.moment_blocks(((c, -1),), 2),
            lambda: hbde_residual(tr, t, c, 2.5, -2.5 + 1j, l=-1),
            lambda: psi_dual(tr, t, c),
        ):
            with pytest.raises(SingularShiftError):
                call()
        # a positive power needs no inverse and stays allowed, and finite
        for value in (ev.tau_discrete(1, 0, 0, c, 2.0, 3.0), psi_time(tr, t, c).value):
            assert not value.is_zero and math.isfinite(value.log_magnitude), tr.N
            assert math.isfinite(value.phase)


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
    assert mp_rel_error(got, mp_shifted_tau(tr, t, ((0.0, k),))) <= 1e-12


def test_jets_raise_range_error_where_right_blocks_overflow():
    # ||B|| = 1e80: tau at t1 = 1e-83 is regular, but B^4 C.T overflows, so
    # a KP check and a fourth derivative raise RangeError, not PoleError
    # (tau is not zero); u needs B^2 C.T only and stays a regular sample.
    # At ||B|| = 1e160 B^2 C.T overflows too, and u raises RangeError
    # rather than flagging a pole
    t = TimeVector([1e-83, 0.0, 0.0])
    tr = random_admissible(2, 6, 1, b_norm=1e80)
    assert abs(tau(tr, t).log_magnitude - 0.478) < 1e-3
    with pytest.raises(RangeError):
        kp_residual(tr, t)
    with pytest.raises(RangeError):
        log_tau_derivative(tr, t, (4, 0, 0))
    [sample] = u_field(tr, [1e-83])
    assert not sample.is_pole
    assert abs(sample.value / mp_u(tr, t, dps=60) - 1) < 1e-13
    with pytest.raises(RangeError):
        u_field(random_admissible(2, 6, 1, b_norm=1e160), [1e-83])


# ---------------------------------------------------------------------------
# the per-triple memo of the base-time factor A exp(g(B))
# ---------------------------------------------------------------------------


def _expm_triple(seed: int, n: int = 3):
    """A Calogero-Moser triple, N = 2n, in another basis: B is defective,
    so it has no eigenbasis, and the change of basis hides the block
    structure that Wilson's left factor needs, so its left factors come
    from ``expm``."""
    tr = from_calogero_moser(random_calogero_moser(n, seed=seed))
    return conjugate_triple(tr, np.eye(tr.N) + 0.1 * np.triu(np.ones((tr.N, tr.N)), 1))


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
    tr = _expm_triple(11)
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
    tr = _expm_triple(12)
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
    # on both paths: an eigenbasis triple and an expm one
    t = TimeVector([0.7 - 0.2j, 0.1, 0.3j, -0.05])
    for make in (lambda: random_admissible(4, 12, seed=13), lambda: _expm_triple(13)):
        cold, warm = make(), make()
        first = TauEvaluator(warm, t)
        hit = TauEvaluator(warm, t)
        miss = TauEvaluator(cold, t)
        assert hit._left is first._left and hit.scale is first.scale
        assert miss._left is not hit._left
        assert hit._left.tobytes() == miss._left.tobytes()
        assert hit.scale.tobytes() == miss.scale.tobytes()
        shifts = ((2.0, 1), (-2.5, -1))
        assert hit.moment_blocks(shifts, 2).tobytes() == miss.moment_blocks(shifts, 2).tobytes()
        assert hit.tau_miwa(shifts) == miss.tau_miwa(shifts)
        assert np.array_equal(hit.jets([(2, 0, 0)])[1], miss.jets([(2, 0, 0)])[1])


def test_grid_stacks_leave_the_single_point_memo_alone(monkeypatch):
    # a stack of P > 1 times neither reads nor replaces the kept factor, so
    # a check at the memoized time after a grid takes no exponential
    tr = _expm_triple(15)
    t = TimeVector([0.2, -0.1, 0.05])
    tau(tr, t)
    memo = tr._memo["base_factor"]
    calls = _expm_calls(monkeypatch)
    u_field(tr, np.linspace(-1.0, 1.0, 9), base=t)
    tau_grid(tr, [0.2, 0.3], base=t)
    psi_grid(tr, [0.2, 0.3], [2.5])
    # one stack for each of the u, tau and psi grids
    assert calls == [(9, tr.N, tr.N), (2, tr.N, tr.N), (2, tr.N, tr.N)]
    assert tr._memo["base_factor"] is memo
    assert kp_residual(tr, t).passed
    assert hbde_residual(tr, t, 2.0, -2.5j, 3.0 + 1j).passed
    assert len(calls) == 3


def _kept_arrays(tr, name: str) -> tuple:
    """The arrays the triple keeps under ``name``, the first item of a tuple
    name (one value per name here)."""
    (value,) = [v for k, (_, v) in tr._memo.items() if (k[0] if isinstance(k, tuple) else k) == name]
    return value if isinstance(value, tuple) else (value,)


@pytest.mark.parametrize("stack", [False, True])
def test_eigenbasis_weights_keep_the_bits_of_the_plain_product(stack):
    # the weight vector leaves out only arithmetic that changes no bit (it
    # starts from the first factor, takes lam itself for s = 1 and raises no
    # power of 1): the plain product from w = 1.0 gives the same bytes, for
    # every pair of powers in -2..2, s in {1, 0.5} or an (S, 1) stack
    tr = random_admissible(3, 9, seed=21)
    lam = _eigenbasis(tr)[0]
    blocks = _shifted_right(tr, (), 1)
    rng = np.random.default_rng(21)
    shape = (4, 1) if stack else ()
    a1, a2 = (rng.random(shape) + 1j * rng.random(shape) + 2.0 for _ in range(2))
    scales = (rng.random((4, 1)) + 0.5,) if stack else (1, 0.5)
    for s, k1, k2 in itertools.product(scales, range(-2, 3), range(-2, 3)):
        factors = [f for f in ((a1, s, k1), (a2, 1, k2)) if f[2]]
        if not factors:
            continue
        w = 1.0
        for a, s_j, k in factors:
            f = (a - s_j * lam) ** abs(k)
            w = w * f if k > 0 else w / f
        got = _shifted_right(tr, factors, 1)
        assert got.tobytes() == (w[..., None] * blocks).tobytes(), (s, k1, k2)


@pytest.mark.parametrize("name", ["base_factor", "right_blocks", "calogero_moser", "eigenbasis"])
def test_kept_arrays_are_read_only(name):
    # only a Calogero-Moser embedding keeps its blocks X and Z
    if name == "calogero_moser":
        tr = from_calogero_moser(random_calogero_moser(2, seed=46))
    else:
        tr = random_admissible(2, 6, seed=46)
    ev = TauEvaluator(tr, TimeVector([0.1, 0.2]))
    ev.jets([(2, 0, 0)])
    u_field(tr, np.linspace(-1.0, 1.0, 9))
    arrays = _kept_arrays(tr, name)
    if name == "base_factor":
        assert arrays[0] is ev.scale and arrays[1] is ev._left
    elif name == "eigenbasis":
        lam, T, W, log_det = arrays
        assert T.shape == (tr.n, tr.N) and W.shape == (tr.N, tr.n) and log_det.shape == ()
        # W = V^-1 C.T, with V the eigenvectors of B
        eigvals, V = np.linalg.eig(tr.B)
        assert lam.tobytes() == eigvals.tobytes()
        assert np.abs(V @ W - tr.C.T).max() <= 1e-14 * np.abs(tr.C).max()
        # A V = L_S T, so det(A C.T) = det(L_S) det(T W)
        got = log_det + np.log(np.linalg.det(T @ W))
        assert abs(np.exp(got) - np.linalg.det(tr.A @ tr.C.T)) <= 1e-13 * abs(np.exp(got))
    elif name == "right_blocks":
        # in the eigenbasis the rows of W = V^-1 C.T times lam^j: no product
        lam, W = _eigenbasis(tr)[0][:, None], _eigenbasis(tr)[2]
        assert arrays[0].tobytes() == np.hstack([W, lam * W, lam * (lam * W)]).tobytes()
        # without an eigenbasis, the products with B
        cm = _expm_triple(46)
        TauEvaluator(cm, TimeVector([0.1, 0.2])).jets([(2, 0, 0)])
        BC = cm.B @ cm.C.T
        (blocks,) = _kept_arrays(cm, "right_blocks")
        assert blocks.tobytes() == np.hstack([cm.C.T, BC, cm.B @ BC]).tobytes()
        assert not blocks.flags.writeable
    else:
        # A = [X I] and B = [[Z, 0], [I, Z]]
        X, Z = arrays
        assert X.tobytes() == tr.A[:, : tr.n].tobytes() and Z.tobytes() == tr.B[: tr.n, : tr.n].tobytes()
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
    [
        lambda: random_admissible(1, 4, seed=51),
        lambda: random_admissible(8, 24, seed=52),
        lambda: from_calogero_moser(random_calogero_moser(3, seed=53)),
        lambda: _expm_triple(53),
    ],
    ids=["1x4", "8x24", "calogero-moser", "conjugated-calogero-moser"],
)
def test_stack_slices_are_bit_identical_to_single_points(make, P):
    # slice k of a P-stack is what the single point t_k gives alone, from
    # the eigenbasis (random triples), Wilson's left factor (Calogero-Moser)
    # or the exponential (the conjugated Calogero-Moser triple):
    # the scale, the left factor, and the jets of u, of the KP check and
    # of every order up to 4 (more than eight trace words)
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
        assert single.scale.tobytes() == stack.scale[k : k + 1].tobytes()
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
    # no closed form: judged by the 30-digit line of _mpmath_u_line alone
    return lambda: (make(), None)


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
        # B = [[Z, 0], [I, Z]] is defective: Wilson's left factor, and the
        # closed form as oracle
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
        # one direct stack, whose slices are the single points' bits
        assert np.array([s.value]).tobytes() == np.array([want]).tobytes(), s.t1
        ref = exact[k] if oracle is None else oracle(tr, t)
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
        ref = mp_u(tr, t)
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
    """30-digit u = 2 (tr X_2 - tr X_1^2) along a t1 line t1_k = t1_0 + k h,
    the other times from ``base``: the left factor A exp(g(B)) of the first
    point, times exp(h B) once per step. The t1 values must be an exact
    arithmetic progression (dyadic steps make them one)."""
    mpmath = pytest.importorskip("mpmath")
    h = t1s[1] - t1s[0]
    assert all(v == t1s[0] + k * h for k, v in enumerate(t1s))
    with mpmath.workdps(30):
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
    # tau = t1 + 3: t1 = -3 is a point of each line (the middle one of the
    # 41- and 201-point lines), where Wilson's left factor [3 + t1  1] makes
    # tau the exact zero
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
    [
        [-1.0, -0.5, 0.1, 0.2, 0.9, 1.3],
        [-0.3, 0.1, 0.5],
        [0.0, 0.1, 0.2, 0.3 + 1e-12],
        [0.7],
        [-0.4, 0.6],
    ],
    ids=["uneven", "three-points", "off-by-1e-12", "one-point", "two-points"],
)
def test_u_field_uneven_and_short_lines_are_one_direct_stack(monkeypatch, t1s):
    # any t1 values, with no rule on their spacing or number: on a triple
    # that falls back to the exponential the line is one exponential call
    # of all its points, every point has the bits of the direct stack, and
    # each is judged against 40-digit u
    tr = _expm_triple(41)
    base = TimeVector([0.0, 0.1 - 0.2j, 0.05j])
    P = len(t1s)
    calls = _expm_calls(monkeypatch)
    got = np.array([s.value for s in u_field(tr, t1s, base=base)])
    assert calls == [(P, tr.N, tr.N)]
    times = np.tile(base.values, (P, 1))
    times[:, 0] = t1s
    assert got.tobytes() == _direct_u(tr, times).tobytes()
    for v, value in zip(t1s, got):
        ref = mp_u(tr, base.with_entry(1, v))
        assert abs(value - ref) <= 1e-12 * abs(ref), (v, value, ref)


@pytest.mark.parametrize(
    "make",
    [
        lambda: random_admissible(4, 12, seed=12),
        lambda: from_calogero_moser(random_calogero_moser(3, seed=12)),
        lambda: _expm_triple(12),
    ],
    ids=["4x12", "calogero-moser", "conjugated-calogero-moser"],
)
def test_u_field_long_line_accuracy_against_mpmath(make):
    # 201 points in dyadic steps, so mpmath steps through exactly the same
    # t1: one direct stack from the eigenbasis (4x12), Wilson's left factor
    # (Calogero-Moser) or the exponential (conjugated)
    tr = make()
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


@pytest.mark.parametrize(
    "make", [lambda: random_admissible(2, 6, seed=3), lambda: _expm_triple(3)], ids=["eigenbasis", "expm"]
)
@pytest.mark.parametrize(
    "stack",
    [
        np.zeros((0, 3), dtype=np.complex128),
        np.array([[0.1, 0.2, 0.0], [math.nan, 0.0, 0.0]], dtype=np.complex128),
        np.array([[0.1, complex(0.0, math.inf), 0.0]], dtype=np.complex128),
    ],
    ids=["empty", "nan", "inf"],
)
def test_time_stack_that_is_empty_or_not_finite_is_rejected(make, stack):
    # a TauEvaluator stack is checked as a TimeVector is, on both paths
    tr = make()
    with pytest.raises(ValueError, match="a time stack must be nonempty and finite"):
        TauEvaluator(tr, stack)
    assert tr._memo == {}  # rejected before the triple is evaluated


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
        assert mp_rel_error(value, mp_shifted_tau(tr, t, ())) <= 1e-12, (v1, v2, value)


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


# ---------------------------------------------------------------------------
# the left factor from the eigenbasis of B
# ---------------------------------------------------------------------------


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _fixture_triple(name: str):
    return load_scenario(SCENARIOS / f"{name}.json").build_triple()


_PATHS = {
    "1x4": (lambda: random_admissible(1, 4, seed=0), "eigenbasis"),
    "2x6": (lambda: random_admissible(2, 6, seed=1), "eigenbasis"),
    "4x12": (lambda: random_admissible(4, 12, seed=2), "eigenbasis"),
    "8x24": (lambda: random_admissible(8, 24, seed=3), "eigenbasis"),
    "kdv-pair": (lambda: from_kdv_pair(random_kdv_pair(3, seed=0)), "eigenbasis"),
    "one_soliton": (lambda: _fixture_triple("one_soliton"), "eigenbasis"),
    "two_soliton": (lambda: _fixture_triple("two_soliton"), "eigenbasis"),
    "intertwining_pair": (lambda: _fixture_triple("intertwining_pair"), "eigenbasis"),
    "general_block": (lambda: _fixture_triple("general_block"), "eigenbasis"),
    "wilson_point": (lambda: _fixture_triple("wilson_point"), "calogero_moser"),
    "calogero-moser": (lambda: from_calogero_moser(random_calogero_moser(3, seed=0)), "calogero_moser"),
    "conjugated-calogero-moser": (lambda: _expm_triple(0), "expm"),
}


@pytest.mark.parametrize("case", list(_PATHS))
def test_left_factor_path(monkeypatch, case):
    # three paths: a diagonalizable B with a well conditioned V, and the
    # Calogero-Moser embedding (Wilson's left factor, defective B), take no
    # exponential on any path that uses the left factor; any other
    # defective B, here a Calogero-Moser triple in another basis, takes the
    # exponential. The structure and the eigenbasis are found on the first
    # evaluation, not when the triple is built.
    make, path = _PATHS[case]
    tr = make()
    assert "eigenbasis" not in tr._memo and "calogero_moser" not in tr._memo
    calls = _expm_calls(monkeypatch)
    t = TimeVector([0.3 - 0.1j, 0.2, -0.05])
    tau(tr, t)
    tau_miwa(tr, ((2.5, 1), (3.5, 2)), t)
    tau_discrete(tr, 1, 0, 2, 2.5, -2.5j, 3.0, t=t)
    log_tau_derivative(tr, t, (1, 1, 0))
    hbde_residual(tr, t, 2.5, -2.5j, 3.0 + 1j)
    polynomiality_check(tr, t)
    kp_residual(tr, t)
    psi_time(tr, t, 2.5 + 0.5j)
    tau_grid(tr, [0.1, 0.2, 0.3], base=t)
    psi_grid(tr, [0.1, 0.2], [2.5, 3.5j])
    u_field(tr, np.linspace(-0.5, 0.5, 9), [0.1, 0.2], base=t)
    assert bool(_calogero_moser(tr)) == (path == "calogero_moser")
    assert bool(_eigenbasis(tr)) == (path == "eigenbasis")
    assert (calls == []) == (path != "expm"), calls


def test_checks_at_one_base_time_share_one_left_factor_without_an_exponential(monkeypatch):
    tr = random_admissible(2, 6, seed=11)
    t = TimeVector([0.3 - 0.1j, 0.2, -0.05])
    calls = _expm_calls(monkeypatch)
    tau(tr, t)
    kept, basis = tr._memo["base_factor"], tr._memo["eigenbasis"]
    rng = np.random.default_rng(0)
    for _ in range(6):
        c1, c2, c3 = draw_lattice_parameters(rng, tr.B)
        assert hbde_residual(tr, t, c1, c2, c3, l=1, m=0, n_index=1).passed
    assert polynomiality_check(tr, t).passed
    psi_time(tr, t, 2.5 + 0.5j)
    psi_dual(tr, t, 2.5 + 0.5j)
    assert kp_residual(tr, t).passed
    tau(tr, TimeVector(t.values))
    assert calls == []
    assert tr._memo["base_factor"] is kept and tr._memo["eigenbasis"] is basis


def test_rank_deficient_a_takes_the_exponential_and_tau_vanishes():
    # A V of rank < n has no n pivot columns; the exponential path finds
    # the exact zero of tau, as it did before the eigenbasis
    twice = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    for tr in (
        RankOneTriple(twice, np.diag([1.0, 0.5, 0.0]), np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])),
        RankOneTriple(np.zeros((1, 2)), np.eye(2), np.ones((1, 2))),
    ):
        assert tau(tr, TimeVector([0.3])) == ScaledComplex(-math.inf, 0.0)
        assert _eigenbasis(tr) == ()
        assert u_field(tr, [0.0, 0.1])[0].is_pole


def _mp_taus_by_eig(tr, t1s, dps=150):
    """tau at t = (t1,) for each t1 at ``dps`` digits, from eig(B) taken
    by mpmath at that precision: det(A V diag(e^(t1 lam)) V^-1 C.T). The
    eigenvector method loses about cond(V) 10^-dps here, nothing at this
    precision; mpmath's Taylor series of exp(t1 B) would take minutes."""
    with mp.workdps(dps):
        lam, V = mp.eig(mp.matrix(tr.B.tolist()))
        L = mp.matrix(tr.A.tolist()) * V
        W = mp.inverse(V) * mp.matrix(tr.C.T.tolist())
        out = []
        for t1 in t1s:
            w = [mp.exp(mp.mpf(t1) * x) for x in lam]
            M = mp.matrix(tr.n, tr.n)
            for a in range(tr.n):
                for b in range(tr.n):
                    M[a, b] = mp.fsum(L[a, j] * w[j] * W[j, b] for j in range(tr.N))
            out.append(mp.det(M))
    return out


@pytest.mark.parametrize("n, N", [(2, 6), (4, 12), (8, 24)])
def test_large_time_tau_against_mpmath(n, N):
    # exp(t1 B) spans up to e^120 at t1 = 60; A exp(t1 B) C.T formed from
    # the exponential lost tau there (relative errors 1.0, 47 and 2e20)
    tr = random_admissible(n, N, seed=1)
    t1s = (20.0, 40.0, 60.0)
    for t1, want in zip(t1s, _mp_taus_by_eig(tr, t1s)):
        assert mp_rel_error(tau(tr, TimeVector([t1])), want) <= 1e-10, t1
    rep = hbde_residual(tr, TimeVector([60.0, 0.0, 0.0]), 1.5, 2.0 + 0.5j, -1.8, l=1, m=1)
    assert rep.passed, rep.residual


def _near_defective_triple(delta: float, seed: int):
    """An admissible intertwining triple (N = 6) whose Z has the block
    [[lam, 1], [0, lam + delta]] in a random basis: two eigenvalues delta
    apart with nearly parallel eigenvectors, so cond_1(V) grows as 1 /
    delta (3.5e2 at 1e-2, 3.6e3 at 1e-3)."""
    rng = np.random.default_rng(seed)

    def square(scale):
        return scale * (rng.random((3, 3)) + 1j * rng.random((3, 3)))

    J = np.diag(rng.random(3) - 0.5 + 1j * (rng.random(3) - 0.5))
    J[1, 1] = J[0, 0] + delta
    J[0, 1] = 1.0
    Q = np.eye(3) + square(0.3)
    Z = Q @ J @ np.linalg.inv(Q)
    X = np.eye(3) + square(1.0)
    a, b = (0.5 * (rng.random((3, 1)) + 1j * rng.random((3, 1))) for _ in range(2))
    Y = (X @ Z - a @ b.T) @ np.linalg.inv(X)
    return from_intertwining(IntertwiningData(X, Y, Z))


@pytest.mark.parametrize("delta, eigenbasis", [(1e-2, True), (1e-3, False)])
def test_eigenvector_condition_threshold(delta, eigenbasis):
    # either side of _MAX_EIGENVECTOR_COND, judged against mpmath: above
    # it the eigenbasis would lose up to 3.2e-13 on tau and 1.8e-12 on u
    # at desk scale, where the exponential keeps 4e-15 and 2e-14
    for seed in range(3):
        tr = _near_defective_triple(delta, seed)
        assert bool(_eigenbasis(tr)) == eigenbasis
        for t in (TimeVector([0.5 + 0.2j, 0.1, -0.05]), TimeVector([2.0, 0.3j, 0.1])):
            assert mp_rel_error(tau(tr, t), mp_shifted_tau(tr, t, ())) <= 1e-13, (seed, t)
            u, want = 2.0 * log_tau_derivative(tr, t, (2, 0, 0)), mp_u(tr, t)
            assert abs(u - want) <= 1e-12 * abs(want), (seed, t)
        large = TimeVector([20.0])
        assert mp_rel_error(tau(tr, large), mp_shifted_tau(tr, large, (), dps=60)) <= 1e-11, seed


# ---------------------------------------------------------------------------
# Wilson's left factor for the Calogero-Moser embedding
# ---------------------------------------------------------------------------


_WILSON_C = (1.5, 2.0 + 0.5j, -1.8)


@pytest.mark.parametrize("t1", [5.0, 15.0, 30.0])
@pytest.mark.parametrize("n, seed", [(2, 0), (3, 1), (3, 0)], ids=["cm2-0", "cm3-1", "cm3-0"])
def test_wilson_left_factor_against_mpmath(n, seed, t1):
    # every quantity against mpmath on the triple itself at 60 + 4 t1
    # digits, never against wilson_tau_closed_form, which shares the
    # method; through the exponential these read up to 4e30 at t1 = 30.
    # u = -2 tr((X + g'(Z))^-2) falls as 1 / t1^2 while the jets cancel
    # tr Z^2 against it, so u is judged on its absolute error
    # (relative up to 6.3e-13 at t1 = 30)
    tr = from_calogero_moser(random_calogero_moser(n, seed=seed))
    t = TimeVector([t1, 0.3, -0.1])
    dps = int(60 + 4 * t1)
    assert mp_rel_error(tau(tr, t), mp_shifted_tau(tr, t, (), dps=dps)) <= 1e-13
    c1, c2, c3 = _WILSON_C
    for k in range(-2, 3):
        got = tau_discrete(tr, k, -k, 1, c1, c2, c3, t=t)
        want = mp_shifted_tau(tr, t, ((c1, k), (c2, -k), (c3, 1)), dps=dps)
        assert mp_rel_error(got, want) <= 1e-13, k
        got = tau_miwa(tr, ((c2, k),), t) * ScaledComplex.from_complex(c2 ** (k * tr.n))
        assert mp_rel_error(got, mp_shifted_tau(tr, t, ((c2, k),), dps=dps)) <= 1e-13, k
    for z in (2.5 + 0.5j, -1.7 - 1.2j):
        assert mp_rel_error(psi_time(tr, t, z).value, mp_psi(tr, t, z, dps=dps)) <= 1e-13, z
        assert mp_rel_error(psi_dual(tr, t, z).value, mp_psi(tr, t, z, -1, dps=dps)) <= 1e-13, z
    (u,) = u_field(tr, [t1], [0.3], base=t)
    assert abs(u.value - mp_u(tr, t, dps=dps)) <= 1e-13, u
    assert hbde_residual(tr, t, c1, c2, c3, l=1, m=1).residual <= 1e-13
    assert polynomiality_check(tr, t).residual <= 1e-13


@pytest.mark.parametrize("block", ["Z", "identity", "zero", "copy of Z"])
def test_an_embedding_one_ulp_off_falls_back_to_the_exponential(monkeypatch, block):
    # the structure is tested by exact equality: one entry of B moved by
    # one ulp takes the exponential, and its tau stays next to Wilson's
    cm = from_calogero_moser(random_calogero_moser(3, seed=7))
    n = cm.n
    row, col = {"Z": (0, 1), "identity": (n + 1, 1), "zero": (1, n + 2), "copy of Z": (n + 2, n)}[block]
    B = np.array(cm.B)
    B[row, col] = complex(np.nextafter(B[row, col].real, 2.0), B[row, col].imag)
    tr = RankOneTriple(cm.A, B, cm.C)
    t = TimeVector([0.4 - 0.1j, 0.2, -0.05])
    calls = _expm_calls(monkeypatch)
    got, want = tau(tr, t), tau(cm, t)
    assert _calogero_moser(tr) == () and _eigenbasis(tr) == ()
    assert len(_calogero_moser(cm)) == 2 and calls == [(1, tr.N, tr.N)]
    assert rel_difference(got, want) <= 1e-12, block
