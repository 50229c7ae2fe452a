"""Kernel numerics: scaled complex arithmetic, determinants, exponentials.

Reference values come from slow-but-simple oracles implemented here
(cofactor determinant, Taylor-series exponential) so the fast paths are
checked against independent arithmetic.
"""

import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import det_scaled_copying
from kp_rankone.errors import (
    DegenerateInputError,
    DimensionError,
    IndeterminateScaleError,
    RangeError,
)
from kp_rankone.matkernel import (
    ScaledComplex,
    as_cmatrix,
    det_scaled,
    eig,
    expm_centered,
    matexp,
    nullspace_rows,
    numerical_rank,
    rel_difference,
    residual_of_log_sum,
    residual_of_sum,
    spectral_norm,
    wrap_phase,
)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def det_cofactor(M):
    """Cofactor expansion along the first row. O(n!) but independent."""
    M = np.asarray(M, dtype=np.complex128)
    n = M.shape[0]
    if n == 1:
        return M[0, 0]
    total = 0.0 + 0.0j
    for j in range(n):
        minor = np.delete(np.delete(M, 0, axis=0), j, axis=1)
        total += (-1) ** j * M[0, j] * det_cofactor(minor)
    return total


def expm_mpmath(M, dps=30):
    """exp(M) by mpmath at ``dps`` digits, rounded to complex128."""
    with mp.workdps(dps):
        E = mp.expm(mp.matrix([[mp.mpc(complex(v)) for v in row] for row in M]))
        return np.array([[complex(E[i, j]) for j in range(E.cols)] for i in range(E.rows)])


def rel_error_1norm(got, want):
    return np.abs(got - want).sum(axis=0).max() / np.abs(want).sum(axis=0).max()


def expm_taylor(M, terms=60):
    """Plain Taylor series; adequate for the small norms used here."""
    M = np.asarray(M, dtype=np.complex128)
    out = np.eye(M.shape[0], dtype=np.complex128)
    term = np.eye(M.shape[0], dtype=np.complex128)
    for k in range(1, terms):
        term = term @ M / k
        out = out + term
    return out


# ---------------------------------------------------------------------------
# ScaledComplex
# ---------------------------------------------------------------------------


def test_scaled_complex_round_trip():
    w = 3.25 - 1.5j
    s = ScaledComplex.from_complex(w)
    assert s.to_complex() == pytest.approx(w, rel=1e-15)


def test_scaled_complex_zero():
    z = ScaledComplex.from_complex(0.0)
    assert z.is_zero
    assert z.to_complex() == 0.0
    # zero times anything stays zero
    assert (z * ScaledComplex.from_complex(5.0)).is_zero


def test_scaled_complex_huge_product_no_overflow():
    # each factor alone exceeds double range when cubed
    big = ScaledComplex.exp_of(500.0)
    prod = big * big * big
    assert prod.log_magnitude == pytest.approx(1500.0)
    with pytest.raises(RangeError):
        prod.to_complex()
    # ratio comes back on-scale
    back = prod / (big * big)
    assert back.to_complex() == pytest.approx(math.exp(500.0), rel=1e-12)


def test_exp_of_matches_cmath():
    w = 2.0 + 1.3j
    s = ScaledComplex.exp_of(w)
    assert s.to_complex() == pytest.approx(np.exp(w), rel=1e-14)
    with pytest.raises(ValueError):
        ScaledComplex.exp_of(complex(math.inf, 0.0))


def test_scaled_pow_and_neg():
    s = ScaledComplex.from_complex(2.0 + 1.0j)
    assert (s**3).to_complex() == pytest.approx((2 + 1j) ** 3, rel=1e-13)
    assert (-s).to_complex() == pytest.approx(-(2 + 1j), rel=1e-14)


def test_division_by_zero_raises():
    z = ScaledComplex.from_complex(0.0)
    with pytest.raises(ZeroDivisionError):
        ScaledComplex.from_complex(1.0) / z


@given(
    st.complex_numbers(
        min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False
    )
)
def test_round_trip_property(w):
    s = ScaledComplex.from_complex(w)
    assert abs(s.to_complex() - w) <= 1e-12 * abs(w)


@given(
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False),
    st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False),
)
@settings(max_examples=200)
def test_product_property(a, b):
    sa, sb = ScaledComplex.from_complex(a), ScaledComplex.from_complex(b)
    got = (sa * sb).to_complex()
    assert got == pytest.approx(a * b, rel=1e-12)


@given(st.floats(min_value=-50, max_value=50, allow_nan=False))
def test_phase_stays_wrapped(p):
    assert -math.pi < wrap_phase(p) <= math.pi


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.int64)


def _cbits(x) -> np.ndarray:
    """The bits of complex values, as two uint64 per entry."""
    return np.ascontiguousarray(x, dtype=np.complex128).view(np.uint64)


def test_det_scaled_of_a_stack_is_det_scaled_of_each_slice():
    rng = np.random.default_rng(33)
    M = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    M[1] = [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0], [0.0, 0.0, 1.0]]  # exactly singular
    M[2] = -np.eye(3)  # det -1: phase pi, never -pi
    got = det_scaled(M)
    assert got == [det_scaled(m) for m in M]
    assert got[1] == ScaledComplex(-math.inf, 0.0)
    assert got[2].phase == math.pi


def _scaled_bits(values) -> list:
    """The bits of (log magnitude, phase) of a ScaledComplex or a list."""
    values = values if isinstance(values, list) else [values]
    return _bits([(v.log_magnitude, v.phase) for v in values]).tolist()


def test_det_scaled_keeps_the_bits_of_a_copying_reference():
    rng = np.random.default_rng(34)
    M = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    M[1, :, 0] = 0.0  # exactly singular
    M[2] = np.diag([complex(-1.0, -0.0), 1.0, 1.0, 1.0])  # arctan2 gives -pi
    M[3] = np.diag([-1.0, 1.0, 1.0, 1.0])  # +pi
    before = M.copy()
    views = (M[0], M[2], M.transpose(0, 2, 1), np.asfortranarray(M), M[::2], M.real, M.tolist())
    for stack in (M,) + views:
        assert _scaled_bits(det_scaled(stack)) == _scaled_bits(det_scaled_copying(stack))
    got = det_scaled(M)
    assert got[1] == ScaledComplex(-math.inf, 0.0)
    assert got[2].phase == got[3].phase == math.pi
    assert np.array_equal(_cbits(M), _cbits(before))  # the input is not written
    M[4, 1, 1] = math.nan
    with pytest.raises(DegenerateInputError):
        det_scaled(M)


def test_scalar_mixing():
    s = ScaledComplex.from_complex(4.0)
    assert (2.0 * s).to_complex() == pytest.approx(8.0)
    assert (s / 2).to_complex() == pytest.approx(2.0)
    assert (1 / s).to_complex() == pytest.approx(0.25)


# ---------------------------------------------------------------------------
# rel_difference / residual_of_sum
# ---------------------------------------------------------------------------


def test_rel_difference_basics():
    a = ScaledComplex.from_complex(1.0)
    assert rel_difference(a, a) == 0.0
    assert rel_difference(a, ScaledComplex.from_complex(0.0)) == 1.0
    zero = ScaledComplex.from_complex(0.0)
    assert rel_difference(zero, zero) == 0.0


def test_rel_difference_symmetric():
    a = ScaledComplex.from_complex(2.0 + 1.0j)
    b = ScaledComplex.from_complex(2.0 + 1.000001j)
    assert rel_difference(a, b) == pytest.approx(rel_difference(b, a))
    assert rel_difference(a, b) < 1e-5


def test_residual_of_sum_cancellation():
    # terms at scale e^400 cancelling to machine precision; the residual
    # is bounded by the roundoff of sin(pi), not by the e^400 scale
    t1 = ScaledComplex.exp_of(400.0)
    t2 = -t1
    r = residual_of_sum([t1, t2])
    assert r < 1e-15


def test_residual_of_sum_detects_imbalance():
    terms = [
        ScaledComplex.from_complex(1.0),
        ScaledComplex.from_complex(1.0),
        ScaledComplex.from_complex(-1.0),
    ]
    assert residual_of_sum(terms) == pytest.approx(1.0)
    # the two-list form gives the same bits, exact zeros and -1 +- 0j among
    # the terms
    rng = np.random.default_rng(32)
    w = rng.standard_normal(300) + 1j * rng.standard_normal(300)
    w[:3] = [-1.0 - 0.0j, -1.0 + 0.0j, 0.0]
    terms = [ScaledComplex.from_complex(x) for x in w]
    lm, ph = [x.log_magnitude for x in terms], [x.phase for x in terms]
    assert residual_of_log_sum(lm, ph) == residual_of_sum(terms)


def test_residual_of_sum_all_tiny_raises():
    terms = [ScaledComplex.from_complex(0.0)] * 3
    with pytest.raises(IndeterminateScaleError):
        residual_of_sum(terms)


# ---------------------------------------------------------------------------
# determinants and exponentials against the oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_scaled_matches_cofactor(n):
    rng = np.random.default_rng(100 + n)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    want = det_cofactor(M)
    got = det_scaled(M).to_complex()
    assert got == pytest.approx(want, rel=1e-10)


def test_det_scaled_exact_zero():
    M = np.array([[1.0, 2.0], [2.0, 4.0]])
    assert det_scaled(M).is_zero


def test_det_scaled_large_scale():
    # det of 40*I in dim 20 is 40^20 ~ 1e32; log-form is exact
    M = 40.0 * np.eye(20)
    d = det_scaled(M)
    assert d.log_magnitude == pytest.approx(20 * math.log(40.0), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_matexp_matches_taylor(n):
    rng = np.random.default_rng(7 * n)
    M = 0.5 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    assert np.allclose(matexp(M), expm_taylor(M), rtol=1e-12, atol=1e-13)


def test_matexp_nilpotent_exact():
    # exp of strictly upper triangular 3x3 terminates: I + N + N^2/2
    N = np.array([[0, 1.0, 0], [0, 0, 1.0], [0, 0, 0]])
    want = np.eye(3) + N + N @ N / 2
    assert np.allclose(matexp(N), want, atol=1e-15)


def test_matexp_jordan_block():
    # exp of [[a,1],[0,a]] = e^a [[1,1],[0,1]]
    a = 0.7 - 0.2j
    M = np.array([[a, 1.0], [0.0, a]])
    want = np.exp(a) * np.array([[1.0, 1.0], [0.0, 1.0]])
    assert np.allclose(matexp(M), want, rtol=1e-13)


def test_expm_centered_reassembles():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    E0, mu = expm_centered(M)
    assert np.allclose(np.exp(mu) * E0, matexp(M), rtol=1e-12)
    assert mu == pytest.approx(np.trace(M) / 3)


def test_expm_centered_survives_large_trace():
    # exp(M) itself overflows; the centered factor stays finite
    M = 800.0 * np.eye(4) + 0.1 * np.arange(16).reshape(4, 4)
    E0, mu = expm_centered(M)
    assert np.all(np.isfinite(E0))
    assert mu.real > 700


def test_expm_centered_stack_matches_slices():
    rng = np.random.default_rng(10)
    M = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    M[1, 2] += 600.0 * np.eye(4)
    E0, mu = expm_centered(M)
    assert E0.shape == (2, 3, 4, 4) and mu.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        E0_i, mu_i = expm_centered(M[idx])
        assert mu[idx] == mu_i
        assert np.allclose(E0[idx], E0_i, rtol=1e-14, atol=0.0)


def test_expm_centered_rejects_nonsquare_stack():
    with pytest.raises(DimensionError):
        expm_centered(np.zeros((2, 3, 4)))


def test_matexp_overflow_raises():
    with pytest.raises(RangeError):
        matexp(np.array([[1000.0]]))


@pytest.mark.parametrize(
    "M",
    [[[800.0]], [[0.0, 1.0], [0.0, 800.0]], [[1e300]], 1e200 * np.ones((3, 3))],
    ids=["800", "triangular-800", "1e300", "ones-1e200"],
)
def test_matexp_overflow_raises_without_a_warning(M):
    # the overflow reaches the caller as RangeError, with no RuntimeWarning
    # on the way (the test configuration turns warnings into errors)
    with pytest.raises(RangeError):
        matexp(np.array(M))


@pytest.mark.parametrize("n", [2, 4, 6, 12])
@pytest.mark.parametrize("norm", [1e-3, 0.1, 1.0, 5.0, 30.0])
def test_matexp_matches_mpmath_oracle(n, norm):
    # 1-norms from 1e-3 to 30 reach every Pade degree and up to 3 squarings
    rng = np.random.default_rng(int(1000 * norm) + n)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M *= norm / np.abs(M).sum(axis=0).max()
    assert rel_error_1norm(matexp(M), expm_mpmath(M)) < 1e-14


@pytest.mark.parametrize("lam, size", [(-2.0 + 1.0j, 4), (3.0 - 0.5j, 6)])
def test_matexp_defective_jordan_block_matches_mpmath(lam, size):
    J = lam * np.eye(size) + 2.0 * np.eye(size, k=1)
    assert rel_error_1norm(matexp(J), expm_mpmath(J)) < 1e-14


def _similar_to_small_diagonal(seed, k, log_cond, scale):
    """V diag(lam) V^-1 with cond(V) = 10^log_cond and |lam| ~ scale: a
    1-norm in the hundreds or thousands over a spectrum near zero."""
    rng = np.random.default_rng(seed)

    def unitary():
        q, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        return q

    V = unitary() @ np.diag(np.logspace(0, -log_cond, k)) @ unitary()
    lam = scale * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    return V @ np.diag(lam) @ np.linalg.inv(V)


@pytest.mark.parametrize(
    "seed, k, log_cond, scale, bound",
    [(4, 4, 4, 0.05, 7e-12), (4, 6, 5, 0.05, 8e-11)],
)
def test_matexp_nonnormal_needs_ell_correction(seed, k, log_cond, scale, bound):
    # the powers' norms (eta) allow degree 7 with no scaling; only the
    # ell(A, m) backward-error test sees the non-normality: it rejects
    # degrees 3..9, and at degree 13 it raises s from 0 to 7 and 8.
    # Errors: 1.3e-12 and 9.7e-12 with it; 4.2e-11 and 6.6e-10 with the
    # test dropped for degrees 3..9 alone, or for degree 13 alone
    M = _similar_to_small_diagonal(seed, k, log_cond, scale)
    assert rel_error_1norm(matexp(M), expm_mpmath(M)) < bound


@given(st.floats(min_value=-1e8, max_value=1e8, allow_nan=False))
def test_matexp_square_zero_exact(t):
    # exp(N) = I + N to the last bit when N^2 = 0, in both triangles
    for N in (np.array([[0.0, t], [0.0, 0.0]]), np.array([[0.0, 0.0], [t, 0.0]])):
        assert np.array_equal(matexp(N), np.eye(2) + N)
        E0, mu = expm_centered(np.stack([N, 2 * N]))
        assert mu.tolist() == [0, 0]
        assert np.array_equal(E0[1], np.eye(2) + 2 * N)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([1, 2, 3, 5, 12]),
    st.lists(st.floats(min_value=-4.0, max_value=2.5), min_size=2, max_size=9),
)
@settings(max_examples=60, deadline=None)
@example(7, 24, [-1.0, 0.5, 1.5] * 20)  # 60 slices of 24 x 24
def test_expm_centered_stack_slices_bitwise(seed, n, log_norms):
    # slices of norm 1e-4..300 take different degrees and squarings; each
    # must come out exactly as when exponentiated alone, signed zeros
    # included (array_equal and == count -0.0 equal to 0.0)
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((len(log_norms), n, n)) + 1j * rng.standard_normal(
        (len(log_norms), n, n)
    )
    M *= (10.0 ** np.array(log_norms) / np.abs(M).sum(axis=-2).max(axis=-1))[:, None, None]
    E0, mu = expm_centered(M)
    for i in range(len(M)):
        E0_i, mu_i = expm_centered(M[i])
        assert np.array_equal(_cbits(mu[i]), _cbits(mu_i))
        assert np.array_equal(_cbits(E0[i]), _cbits(E0_i))


def test_expm_in_threads_matches_serial_bitwise():
    # the exponential keeps no state between calls: stacks of several
    # sizes exponentiated in four threads at once come out as one after
    # another
    rng = np.random.default_rng(5)
    stacks = [
        0.3 * (rng.standard_normal((12, k, k)) + 1j * rng.standard_normal((12, k, k)))
        for k in (4, 24, 6, 12) * 2
    ]
    serial = [expm_centered(M) for M in stacks]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            for _ in range(3):
                got = list(pool.map(expm_centered, stacks, timeout=60))
                for (E0, mu), (E0_s, mu_s) in zip(got, serial):
                    assert E0.tobytes() == E0_s.tobytes() and mu.tobytes() == mu_s.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_expm_centered_leaves_its_input_alone():
    M = np.array([[[1.0, 2.0], [0.5, -1.0]], [[0.0, 1j], [2.0, 3.0]]])
    copy = M.copy()
    expm_centered(M)
    assert M.tobytes() == copy.tobytes()


def test_expm_overflow_raises_for_stacks_and_huge_norms():
    spread = np.diag([800.0, -800.0])
    with pytest.raises(RangeError):
        expm_centered(np.stack([np.zeros((2, 2)), spread]))
    with pytest.raises(RangeError):
        expm_centered(np.array([[1e5, 1.0], [0.0, -1e5]]))
    with pytest.raises(RangeError):
        matexp(np.array([[0.0, 1e200], [1e200, 0.0]]))


def test_expm_centered_stack_scales_past_folding_range():
    # a rotation by 1e19 needs s = 62 squarings, so A itself is scaled by
    # 2^-62; its neighbours in the stack keep their own scaling
    R = np.array([[0.0, 1e19], [-1e19, 0.0]])
    M = np.stack([0.3 * np.ones((2, 2)), R, np.diag([2.0, -2.0])])
    E0, mu = expm_centered(M)
    assert np.all(np.isfinite(E0))
    for i in range(len(M)):
        assert np.array_equal(_cbits(E0[i]), _cbits(expm_centered(M[i])[0]))


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import kp_rankone.cli, sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# rank / nullspace / eigenvalues
# ---------------------------------------------------------------------------


def test_numerical_rank_rank_one():
    a = np.array([[1.0], [2.0], [3.0]])
    b = np.array([[1.0, -1.0, 0.5]])
    assert numerical_rank(a @ b) == 1


def test_numerical_rank_perturbed():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((4, 1))
    b = rng.standard_normal((1, 4))
    M = a @ b + 1e-13 * rng.standard_normal((4, 4))
    assert numerical_rank(M) == 1  # noise below tolerance
    M = a @ b + 1e-3 * rng.standard_normal((4, 4))
    assert numerical_rank(M) == 4


def test_nullspace_rows_plain_transpose_pairing():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
    U = nullspace_rows(A)
    assert U.shape == (4, 6)
    # pairing is plain transpose, no conjugation on A
    assert np.max(np.abs(A @ U.T)) < 1e-12
    # rows are orthonormal under the conjugate inner product
    assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-12)


def test_nullspace_rows_complex_row():
    # A = [1 i] has trivial conjugate kernel but plain kernel [1, i]/sqrt(2)
    A = np.array([[1.0, 1.0j]])
    U = nullspace_rows(A)
    assert U.shape == (1, 2)
    assert abs(A @ U.T)[0, 0] < 1e-14


def test_nullspace_rows_rank_deficient_raises():
    A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0]])
    with pytest.raises(DegenerateInputError):
        nullspace_rows(A)


def test_eig_clusters_multiplicity():
    M = np.diag([2.0, 2.0, 5.0])
    got = eig(M)
    assert [(round(v.real), m) for v, m in got] == [(2, 2), (5, 1)]


def test_eig_jordan_block_clusters():
    # defective eigenvalue: LAPACK splits it; clustering restores multiplicity 2
    M = np.array([[1.0, 1.0], [0.0, 1.0]])
    got = eig(M)
    assert len(got) == 1
    v, m = got[0]
    assert m == 2
    assert v == pytest.approx(1.0, abs=1e-7)


def test_spectral_norm_known():
    M = np.array([[3.0, 0.0], [0.0, -4.0]])
    assert spectral_norm(M) == pytest.approx(4.0)


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(DegenerateInputError):
        as_cmatrix(np.array([[np.nan, 1.0]]), "M")


def test_as_cmatrix_copies():
    M = np.eye(2)
    out = as_cmatrix(M, "M")
    out[0, 0] = 7.0
    assert M[0, 0] == 1.0
