"""Acceptance battery: every headline claim, at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line into the terminal summary
(see conftest.record_criterion) and then asserts, so a red run still
shows the full scoreboard. The shared population of admissible triples
cycles through desk-scale dimensions up to n=4, N=12.
"""

import math
import time

import numpy as np
import pytest

import mpmath as mp

from conftest import mp_exp_right, mp_rel_error, mp_shifted_tau, record_criterion

from kp_rankone.baker import polynomiality_check, psi_stationary, psi_time
from kp_rankone.cases import (
    CalogeroMoserData,
    KdVPairData,
    from_calogero_moser,
    from_kdv_pair,
    random_calogero_moser,
    random_intertwining,
)
from kp_rankone.cli import main as cli_main
from kp_rankone.matkernel import ScaledComplex
from kp_rankone.tau import MiwaShiftList, TauEvaluator, TimeVector, log_tau_derivative
from kp_rankone.triple import RankOneTriple, random_admissible
from kp_rankone.verify import (
    bethe_check,
    crosscheck_intertwining,
    crosscheck_wilson,
    draw_lattice_parameters,
    h3_residual,
    hbde_residual,
    kp_residual,
)

DIMS = [(1, 4), (2, 6), (2, 8), (3, 9), (4, 12), (1, 3), (2, 5), (3, 7), (2, 12), (3, 10)]

LATTICE_SITES = [(l, m, n) for l in (0, 1) for m in (0, 1) for n in (0, 1)]


@pytest.fixture(scope="session")
def population():
    """100 admissible triples over cycled dimensions, with times and c's."""
    items = []
    for idx in range(100):
        n, N = DIMS[idx % len(DIMS)]
        tr = random_admissible(n, N, seed=5000 + idx)
        rng = np.random.default_rng(9000 + idx)
        t = TimeVector(0.6 * (rng.random(3) - 0.5) + 0.3j * (rng.random(3) - 0.5))
        cs = draw_lattice_parameters(rng, tr.B)
        items.append((tr, t, cs))
    return items


# ---------------------------------------------------------------------------


def test_criterion_01_lattice_identity_population(population):
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for tr, t, (c1, c2, c3) in population:
        for l, m, nn in LATTICE_SITES:
            rep = hbde_residual(tr, t, c1, c2, c3, l=l, m=m, n_index=nn)
            worst = max(worst, rep.residual)
            count += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    record_criterion(
        "01 lattice-bilinear-identity",
        ok,
        f"max_residual={worst:.3e} over {count} evaluations in {elapsed:.2f}s (tol 1e-8, budget 10s)",
    )
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_02_rank_two_perturbation_detected():
    # restricted to n >= 2: a single-row coupling matrix is 1 x (N-1) and
    # can never exceed rank one, so for n = 1 *every* B is admissible and
    # no perturbation can break the identity (verified separately: those
    # residuals stay at machine precision). The verifier probes each
    # perturbed triple across all 8 unit lattice sites and 5 parameter
    # draws, which is how the positive battery sweeps valid triples too.
    dims = [(2, 6), (2, 8), (3, 9), (4, 12), (2, 5), (3, 7), (2, 12), (3, 10), (2, 7), (4, 10)]
    tripped = 0
    total = 0
    for idx in range(100):
        n, N = dims[idx % len(dims)]
        tr = random_admissible(n, N, seed=5000 + idx)
        rng = np.random.default_rng(9000 + idx)
        t = TimeVector(2.0 * (rng.random(3) - 0.5) + 0.5j * (rng.random(3) - 0.5))
        rng2 = np.random.default_rng(12000 + idx)
        G = rng2.standard_normal((N, N)) + 1j * rng2.standard_normal((N, N))
        u, _, vh = np.linalg.svd(G)
        bump = u[:, :2] @ np.diag([1.0, 0.7]) @ vh[:2, :]  # rank 2, spectral norm 1
        bad = RankOneTriple(tr.A, tr.B + bump, tr.C)
        best = 0.0
        for _ in range(5):
            c1, c2, c3 = draw_lattice_parameters(rng, tr.B)
            for l, m, nn in LATTICE_SITES:
                rep = hbde_residual(bad, t, c1, c2, c3, l=l, m=m, n_index=nn)
                best = max(best, rep.residual)
        total += 1
        if best > 1e-3:
            tripped += 1
    ok = tripped >= 95
    record_criterion(
        "02 negative-control-sensitivity",
        ok,
        f"{tripped}/{total} perturbed triples (n >= 2) exceed 1e-3 (need >= 95)",
    )
    assert tripped >= 95


def test_criterion_03_discrete_gauge_link(population):
    # both taus against det(A e^{g(B)} prod (c I - B)^k C^T) at 40 digits
    worst = 0.0
    for tr, t, (c1, c2, c3) in population:
        ev = TauEvaluator(tr, t)
        for l, m, nn in [(1, 0, 0), (0, 1, 1), (1, 1, 1)]:
            shifts = ((c1, l), (c2, m), (c3, nn))
            want = mp.mpc(mp_shifted_tau(tr, t, shifts))
            td = ev.tau_discrete(l, m, nn, c1, c2, c3)
            tm = ev.tau_miwa(MiwaShiftList(shifts))
            gauge = ScaledComplex.from_complex(c1**l * c2**m * c3**nn) ** tr.n
            worst = max(worst, mp_rel_error(td, want), mp_rel_error(gauge * tm, want))
    ok = worst < 1e-10
    record_criterion(
        "03 lattice-gauge-link",
        ok,
        f"max_rel_difference={worst:.3e} against the 40-digit determinant (tol 1e-10)",
    )
    assert worst < 1e-10


def test_criterion_04_differential_identity():
    worst = 0.0
    for idx in range(25):
        n, N = DIMS[idx % len(DIMS)]
        tr = random_admissible(n, N, seed=15000 + idx)  # b_norm 1 keeps ||B|| <= 2
        rng = np.random.default_rng(16000 + idx)
        t = TimeVector(np.concatenate([rng.uniform(-1, 1, 3), [0.0]]))  # K = 4
        rep = kp_residual(tr, t)
        worst = max(worst, rep.residual)
    ok = worst < 1e-8
    record_criterion(
        "04 differential-identity",
        ok,
        f"max_residual={worst:.3e} over 25 triples (tol 1e-8, exact jet derivatives)",
    )
    assert worst < 1e-8


def test_criterion_05_pole_collision_closed_form():
    worst = 0.0
    for idx in range(100):
        n = 1 + idx % 4
        d = random_calogero_moser(n, seed=17000 + idx)
        rng = np.random.default_rng(18000 + idx)
        t = TimeVector(0.5 * (rng.random(3) - 0.5))
        rep = crosscheck_wilson(d, t)
        worst = max(worst, rep.residual)
    # exact rational value at the origin for the scalar datum
    d0 = CalogeroMoserData(np.array([[3.0]]), np.array([[0.0]]))
    tr0 = from_calogero_moser(d0)
    u0 = 2.0 * log_tau_derivative(tr0, TimeVector([0.0]), (2, 0, 0))
    u_err = abs(u0 - (-2.0 / 9.0))
    ok = worst < 1e-10 and u_err < 1e-12
    record_criterion(
        "05 pole-collision-closed-form",
        ok,
        f"max_residual={worst:.3e} over 100 pairs (tol 1e-10); |u(0)+2/9|={u_err:.2e} (tol 1e-12)",
    )
    assert worst < 1e-10
    assert u_err < 1e-12


def test_criterion_06_intertwining_closed_form():
    worst = 0.0
    for idx in range(100):
        n = 1 + idx % 3
        d = random_intertwining(n, seed=19000 + idx)
        rng = np.random.default_rng(20000 + idx)
        t = TimeVector(0.4 * (rng.random(3) - 0.5))
        rep = crosscheck_intertwining(d, t)
        worst = max(worst, rep.residual)
    ok = worst < 1e-12
    record_criterion(
        "06 intertwining-closed-form",
        ok,
        f"max_residual={worst:.3e} over 100 pairs (tol 1e-12)",
    )
    assert worst < 1e-12


def test_criterion_07_reflection_soliton_profile():
    worst = 0.0
    for k in (0.5, 1.0, 2.0):
        d = KdVPairData(np.array([[1.0]]), np.array([[k]]))
        tr = from_kdv_pair(d)
        for t1 in np.linspace(-5.0, 5.0, 41):
            u = 2.0 * log_tau_derivative(tr, TimeVector([t1]), (2, 0, 0))
            want = 2.0 * k**2 / math.cosh(k * t1) ** 2
            worst = max(worst, abs(u - want))
    ok = worst < 1e-8
    record_criterion(
        "07 soliton-profile",
        ok,
        f"max|u - 2k^2 sech^2(k t1)|={worst:.3e} on k in {{0.5,1,2}}, t1 in [-5,5] (tol 1e-8)",
    )
    assert worst < 1e-8


def test_criterion_08_weighted_determinant_identity():
    worst = 0.0
    for idx in range(200):
        n = 1 + idx % 3
        rng = np.random.default_rng(21000 + idx)
        P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
        b = rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))
        c1, c2, c3 = draw_lattice_parameters(rng, P)
        rep = h3_residual(P, a @ b, c1, c2, c3)
        worst = max(worst, rep.residual)
    pinned = h3_residual(np.array([[0.0]]), np.array([[1.0]]), 1.0, 2.0, 3.0)
    printed_err = abs(pinned.context["printed_value"] - 8.0)
    ok = worst < 1e-10 and printed_err < 1e-12
    record_criterion(
        "08 weighted-determinant-identity",
        ok,
        f"max_residual={worst:.3e} over 200 draws (tol 1e-10); "
        f"unweighted pinned value err={printed_err:.2e}",
    )
    assert worst < 1e-10
    assert printed_err < 1e-12


def test_criterion_09_bethe_products():
    worst = 0.0
    scalar_worst = 0.0
    idx = 0
    for n in (1, 2, 3):
        for m in (0, 1, 2):
            for rep_i in range(6):
                if idx >= 50:
                    break
                d = random_calogero_moser(n, seed=23000 + idx)
                rng = np.random.default_rng(24000 + idx)
                eta = 0.6 + 0.8 * rng.random() + 0.3j * (rng.random() - 0.5)
                lam1 = complex(2.5 * (rng.random() - 0.5), 2.5 * (rng.random() - 0.5))
                lam2 = complex(3.5 + rng.random(), 2.0 * (rng.random() - 0.5))
                out = bethe_check(d, eta, lam1, lam2, m=m)
                worst = max(worst, out.residual)
                if n == 1:
                    scalar_worst = max(scalar_worst, out.residual)
                idx += 1
    ok = worst < 1e-8 and scalar_worst <= 1e-12
    record_criterion(
        "09 rational-bethe-products",
        ok,
        f"max_residual={worst:.3e} over {idx} draws (tol 1e-8); "
        f"n=1 max={scalar_worst:.2e} (tol 1e-12)",
    )
    assert worst < 1e-8
    assert scalar_worst <= 1e-12


def test_criterion_10_wave_function_consistency(population):
    sub = population[::10]  # one per dimension class
    worst = 0.0
    for tr, t, _ in sub:
        lam = np.linalg.eigvals(tr.B)
        zr = 2.5 + float(np.max(np.abs(lam)))
        xs = np.linspace(-0.5, 0.5, 10)
        zs = zr * np.exp(2j * np.pi * (np.arange(10) + 0.13) / 10)
        for x in xs:
            # both routes against the stationary formula at 40 digits,
            # det(K0 - K1 / z) / det(K0) e^{xz} with K_j = A B^j e^{xB} C^T
            t_x = TimeVector([complex(x)])
            with mp.workdps(40):
                A, B = mp.matrix(tr.A.tolist()), mp.matrix(tr.B.tolist())
                R = mp_exp_right(tr, t_x)
                K0, K1 = A * R, A * (B * R)
                det0 = mp.det(K0)
                for z in zs:
                    zm = mp.mpc(complex(z))
                    want = mp.det(K0 - K1 / zm) / det0 * mp.exp(mp.mpf(float(x)) * zm)
                    a = psi_time(tr, t_x, complex(z))
                    b = psi_stationary(tr, complex(x), complex(z))
                    worst = max(worst, mp_rel_error(a.value, want), mp_rel_error(b.value, want))
    # large-|z| normalization on the first triple
    tr0 = sub[0][0]
    norm_worst = 0.0
    for x in (0.2, -0.35):
        s = psi_stationary(tr0, x, 1e6)
        w = s.value * ScaledComplex.exp_of(-x * 1e6)
        norm_worst = max(norm_worst, abs(w.to_complex() - 1.0))
    ok = worst < 1e-12 and norm_worst < 1e-5
    record_criterion(
        "10 wave-function-consistency",
        ok,
        f"max_rel_difference={worst:.3e} against the 40-digit stationary formula on "
        f"{len(sub)}x100 grid points (tol 1e-12); "
        f"normalization err={norm_worst:.2e} at |z|=1e6 (tol 1e-5)",
    )
    assert worst < 1e-12
    assert norm_worst < 1e-5


def test_criterion_11_shifted_tau_polynomiality(population):
    worst = 0.0
    for tr, t, _ in population:
        rep = polynomiality_check(tr, t)
        worst = max(worst, rep.residual)
    ok = worst < 1e-8
    record_criterion(
        "11 shifted-tau-polynomiality",
        ok,
        f"max_residual={worst:.3e} over 100 triples (tol 1e-8)",
    )
    assert worst < 1e-8


def test_criterion_12_byte_determinism(tmp_path):
    a = random_admissible(3, 9, seed=777)
    b = random_admissible(3, 9, seed=777)
    gen_ok = (
        a.A.tobytes() == b.A.tobytes()
        and a.B.tobytes() == b.B.tobytes()
        and a.C.tobytes() == b.C.tobytes()
    )
    scen = str(
        __import__("pathlib").Path(__file__).resolve().parent.parent
        / "scenarios"
        / "general_block.json"
    )
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for out in (d1, d2):
        rc = cli_main(
            ["verify-hbde", scen, "--out", str(out), "--trials", "6", "--seed", "3"]
        )
        assert rc == 0
        rc = cli_main(["u-grid", scen, "--out", str(out), "--t1=-1:1:21"])
        assert rc == 0
    cli_ok = (d1 / "verify-hbde.json").read_bytes() == (
        d2 / "verify-hbde.json"
    ).read_bytes() and (d1 / "u-grid.csv").read_bytes() == (d2 / "u-grid.csv").read_bytes()
    ok = gen_ok and cli_ok
    record_criterion(
        "12 byte-determinism",
        ok,
        f"generator bit-identical={gen_ok}, CLI double-run identical={cli_ok}",
    )
    assert gen_ok
    assert cli_ok
