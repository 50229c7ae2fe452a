"""Shared fixtures, mpmath oracles and the acceptance summary printer."""

import math

import mpmath as mp
import numpy as np

from kp_rankone.matkernel import ScaledComplex

ACCEPTANCE_LINES = []


def det_scaled_copying(M):
    """``matkernel.det_scaled`` of every slice, as a list, by a fresh
    C-ordered copy of the input and the phase fix as an in-place add of
    2 pi where the phase is -pi."""
    M = np.array(M, dtype=np.complex128, order="C")
    sign, logdet = np.linalg.slogdet(M)
    phase = np.asarray(np.arctan2(sign.imag, sign.real))
    np.add(phase, 2.0 * np.pi, out=phase, where=phase <= -np.pi)
    pairs = zip(np.ravel(logdet).tolist(), np.ravel(phase).tolist())
    return [ScaledComplex(lm, ph) for lm, ph in pairs]


_MP_EXP_RIGHT = {}


def mp_exp_right(tr, t, dps=40):
    """exp(g(B)) C.T for the time vector t at ``dps`` digits, as an mpmath
    matrix (N, n), kept per (triple, t, dps) by the bytes of their arrays,
    so tests that share a triple and a time share one reference; callers
    must not modify it.

    g(B) is formed by Horner (no matrix product for t = (x,)) and the
    exponential acts on C.T as its Taylor
    series, term by term until a term falls below 10^-(dps + guard) of the
    sum, at dps + guard digits: the guard covers the cancellation of terms
    up to e^||g(B)||_2, and the series runs at least ||g(B)||_2 terms, past
    its largest one (||g(B)^k||_2 / k! <= ||g(B)||_2^k / k!). That is
    N^2 n operations a term instead of the N^3 of a full matrix
    exponential.
    """
    key = (tr.A.tobytes(), tr.B.tobytes(), tr.C.tobytes(), t.values.tobytes(), dps)
    if key not in _MP_EXP_RIGHT:
        G = np.zeros_like(tr.B, dtype=np.complex128)
        for v in t.values[::-1]:
            G = tr.B @ (v * np.eye(tr.N) + G)
        norm = float(np.linalg.norm(G, 2))
        guard = 10 + int(2 * norm / math.log(10))
        with mp.workdps(dps + guard):
            B = mp.matrix(tr.B.tolist())
            *lower, top = [mp.mpc(complex(v)) for v in t.values]
            G = top * B
            for v in lower[::-1]:
                G = B * (v * mp.eye(tr.N) + G)
            term = total = mp.matrix(tr.C.T.tolist())
            tiny = mp.mpf(10) ** -(dps + guard)
            k = 0
            while k <= norm or mp.mnorm(term, 1) > tiny * mp.mnorm(total, 1):
                k += 1
                term = G * term / k
                total += term
        _MP_EXP_RIGHT[key] = total
    return _MP_EXP_RIGHT[key]


def mp_solve(M, R):
    """M^-1 R for mpmath matrices M (N, N) and R (N, m), by Gaussian
    elimination with partial pivoting at the working precision."""
    N, m = M.rows, R.cols
    rows = [[M[i, j] for j in range(N)] + [R[i, j] for j in range(m)] for i in range(N)]
    for k in range(N):
        p = max(range(k, N), key=lambda i: abs(rows[i][k]))
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, N):
            f = rows[i][k] / rows[k][k]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    Y = mp.matrix(N, m)
    for i in reversed(range(N)):
        for j in range(m):
            acc = rows[i][N + j] - mp.fsum(rows[i][k] * Y[k, j] for k in range(i + 1, N))
            Y[i, j] = acc / rows[i][i]
    return Y


def mp_shifted_tau(tr, t, shifts, dps=40):
    """det(A exp(g(B)) prod_j (c_j I - B)^k_j C.T) at ``dps`` digits, as a
    complex: the factors act on :func:`mp_exp_right`, negative powers by
    :func:`mp_solve`."""
    with mp.workdps(dps):
        B = mp.matrix(tr.B.tolist())
        R = mp_exp_right(tr, t, dps)
        for c, k in shifts:
            F = mp.mpc(complex(c)) * mp.eye(tr.N) - B
            for _ in range(abs(k)):
                R = mp_solve(F, R) if k < 0 else F * R
        return complex(mp.det(mp.matrix(tr.A.tolist()) * R))


def mp_u(tr, t, dps=40) -> complex:
    """u = 2 d^2/dt_1^2 log tau = 2 (tr(M^-1 M'') - tr((M^-1 M')^2)) at
    ``dps`` digits, with M = A R, M' = A B R and M'' = A B^2 R for
    R = :func:`mp_exp_right`."""
    with mp.workdps(dps):
        A, B = mp.matrix(tr.A.tolist()), mp.matrix(tr.B.tolist())
        R = mp_exp_right(tr, t, dps)
        BR = B * R
        inv = mp.inverse(A * R)
        X1, X2 = inv * (A * BR), inv * (A * (B * BR))
        X11 = X1 * X1
        return complex(2 * mp.fsum(X2[i, i] - X11[i, i] for i in range(tr.n)))


def mp_psi(tr, t, z, k=1, dps=40, exponential=True):
    """The wave function tau(t - [1/z]) / tau(t) exp(g(z)) (k = 1) or its
    adjoint tau(t + [1/z]) / tau(t) exp(-g(z)) (k = -1) at ``dps`` digits,
    as an mpmath complex: (I - B/z)^k acts on :func:`mp_exp_right`. With
    ``exponential`` False, the ratio of taus alone."""
    with mp.workdps(dps):
        A, B = mp.matrix(tr.A.tolist()), mp.matrix(tr.B.tolist())
        R = mp_exp_right(tr, t, dps)
        z = mp.mpc(complex(z))
        g = mp.fsum(mp.mpc(complex(v)) * z ** (i + 1) for i, v in enumerate(t.values))
        if k == 1:
            shifted = mp.det(A * (R - B * R / z))
        else:
            shifted = z ** tr.n * mp.det(A * mp_solve(z * mp.eye(tr.N) - B, R))
        return shifted / mp.det(A * R) * (mp.exp(k * g) if exponential else 1)


def mp_rel_error(got, want) -> float:
    """|got / want - 1| for a ScaledComplex ``got`` and an mpmath complex
    ``want``, formed on the log scale, so either may lie outside double
    range."""
    ratio = got / ScaledComplex(float(mp.log(abs(want))), float(mp.arg(want)))
    return abs(ratio.to_complex() - 1.0)


def record_criterion(tag: str, passed: bool, detail: str) -> None:
    """Queue one pass/fail line for the end-of-run summary."""
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"[{status}] {tag}  {detail}")


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
