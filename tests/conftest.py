"""Shared fixtures, eigenbasis oracles and the acceptance summary printer."""

import numpy as np

ACCEPTANCE_LINES = []


def _eigen_blocks(tr):
    """(A V, V^-1 C.T, eig(B)) for a diagonalizable B = V diag(eig) V^-1."""
    lam, V = np.linalg.eig(tr.B)
    return tr.A @ V, np.linalg.solve(V, tr.C.T), lam


def discrete_tau_by_eigenbasis(tr, t, shifts) -> complex:
    """det(A exp(g(B)) prod_j (c_j I - B)^k_j C.T) for ``shifts`` ((c, k), ...),
    with every factor a diagonal in the eigenbasis of B.

    An oracle for the shifted-determinant path that shares no code with
    it or with the library's exponential. Accurate while B is
    diagonalizable with a modest eigenvector condition number.
    """
    L, R, lam = _eigen_blocks(tr)
    d = np.exp(sum(t_i * lam ** (i + 1) for i, t_i in enumerate(t.values)))
    for c, k in shifts:
        d = d * (c - lam) ** k
    return complex(np.linalg.det(L * d @ R))


def psi_stationary_by_eigenbasis(tr, x: complex, z: complex) -> complex:
    """The stationary formula det(A e^{xB} (z I - B) C.T) / (z^n det(A e^{xB} C.T)) e^{xz},
    written directly in the eigenbasis of B (same accuracy caveat as above)."""
    L, R, lam = _eigen_blocks(tr)
    e = np.exp(x * lam)
    num = np.linalg.det(L * (e * (z - lam)) @ R)
    den = np.linalg.det(L * e @ R)
    return complex(num / (z ** tr.n * den) * np.exp(x * z))


def u_by_eigenbasis(tr, t) -> complex:
    """u = 2 d^2/dt_1^2 log tau = 2 (tr(M^-1 M'') - tr((M^-1 M')^2)) with
    M = A exp(g(B)) C.T, M' = A B exp(g(B)) C.T and M'' = A B^2 exp(g(B)) C.T,
    written in the eigenbasis of B (same accuracy caveat as above)."""
    L, R, lam = _eigen_blocks(tr)
    d = np.exp(sum(t_i * lam ** (i + 1) for i, t_i in enumerate(t.values)))
    M, M1, M2 = (L * (d * lam ** j) @ R for j in range(3))
    X1, X2 = np.linalg.solve(M, M1), np.linalg.solve(M, M2)
    return complex(2.0 * (np.trace(X2) - np.trace(X1 @ X1)))


def slogdet_scaled_copying(M):
    """``matkernel.slogdet_scaled`` by a fresh C-ordered copy of the input
    and the phase fix as an in-place add of 2 pi where the phase is -pi."""
    M = np.array(M, dtype=np.complex128, order="C")
    sign, logdet = np.linalg.slogdet(M)
    phase = np.asarray(np.arctan2(sign.imag, sign.real))
    np.add(phase, 2.0 * np.pi, out=phase, where=phase <= -np.pi)
    return logdet, phase


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
