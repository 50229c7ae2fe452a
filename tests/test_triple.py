"""Admissibility of matrix triples: validation, generation, symmetries."""

import copy
import pickle

import numpy as np
import pytest

import kp_rankone.triple as triple_module
from kp_rankone.errors import (
    DimensionError,
    GenerationError,
    InadmissibleTripleError,
)
from kp_rankone.cases import from_calogero_moser, random_calogero_moser
from kp_rankone.matkernel import nullspace_rows, numerical_rank
from kp_rankone.tau import TimeVector, tau, u_field
from kp_rankone.triple import (
    RankOneTriple,
    TripleReport,
    conjugate_triple,
    make_triple,
    random_admissible,
    validate_triple,
)


def coupling_rank(A, B, tol=1e-9):
    """Independent route to the coupling rank via the plain-transpose kernel."""
    U = nullspace_rows(np.asarray(A, dtype=complex))
    return numerical_rank(np.asarray(A, complex) @ np.asarray(B, complex) @ U.T, tol=tol)


# ---------------------------------------------------------------------------
# worked examples with known verdicts
# ---------------------------------------------------------------------------


def test_accepts_rank_zero_coupling():
    # n=1, N=2: A=[1 0], B=I. A B U^T = A U^T = 0, coupling rank 0.
    A = np.array([[1.0, 0.0]])
    B = np.eye(2)
    C = np.array([[1.0, 1.0]])
    rep = validate_triple(A, B, C)
    assert rep.admissible
    assert rep.rank_of_ABUt == 0


def test_accepts_rank_one_coupling():
    A = np.array([[1.0, 0.0]])
    B = np.array([[1.0, 1.0], [0.0, 2.0]])
    C = np.array([[1.0, 0.0]])
    rep = validate_triple(A, B, C)
    assert rep.admissible
    assert rep.rank_of_ABUt == 1


def test_rejects_rank_two_coupling():
    # n=1, N=3 forces the kernel to be two-dimensional; generic B couples fully
    A = np.array([[1.0, 0.0, 0.0]])
    B = np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    C = np.array([[1.0, 0.0, 0.0]])
    # A B = [0 1 2]; kernel of A is span(e2, e3); A B U^T has rank... still 1
    rep = validate_triple(A, B, C)
    assert rep.admissible  # single row can never exceed rank one

    A2 = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    B2 = np.zeros((4, 4))
    B2[0, 2] = 1.0
    B2[1, 3] = 1.0  # two independent couplings into the kernel
    C2 = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 1.0]])
    rep2 = validate_triple(A2, B2, C2)
    assert not rep2.admissible
    assert rep2.rank_of_ABUt == 2
    with pytest.raises(InadmissibleTripleError) as err:
        make_triple(A2, B2, C2)
    assert err.value.report is not None
    assert err.value.report.rank_of_ABUt == 2


def test_rejects_degenerate_pairing():
    # admissible coupling but det(A C^T) = 0
    A = np.array([[1.0, 0.0]])
    B = np.eye(2)
    C = np.array([[0.0, 1.0]])
    rep = validate_triple(A, B, C)
    assert rep.rank_of_ABUt == 0
    assert not rep.nondegeneracy_ok
    assert not rep.admissible


def test_dimension_checks():
    with pytest.raises(DimensionError):
        RankOneTriple(np.eye(2), np.eye(2), np.eye(2))  # N must exceed n
    with pytest.raises(DimensionError):
        RankOneTriple(
            np.ones((1, 3)), np.eye(2), np.ones((1, 3))
        )  # B must be N x N
    with pytest.raises(DimensionError):
        RankOneTriple(np.ones((1, 3)), np.eye(3), np.ones((2, 3)))  # C shape


def test_triple_is_frozen():
    tr = random_admissible(1, 3, seed=0)
    with pytest.raises((ValueError, AttributeError)):
        tr.A[0, 0] = 99.0


def test_triple_arrays_cannot_be_made_writeable():
    A, B, C = np.ones((1, 3)), np.diag([1.0, 2.0, 3.0]), np.ones((1, 3))
    tr = RankOneTriple(A, B, C)
    for arr in (tr.A, tr.B, tr.C):
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        with pytest.raises(ValueError):
            arr.base.setflags(write=True)
    # the triple holds copies: the caller's arrays stay writeable
    B[0, 0] = 5.0
    assert tr.B[0, 0] == 1.0


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda tr: pickle.loads(pickle.dumps(tr))]
)
def test_triple_copies_stay_immutable_and_drop_derived_state(clone):
    tr = random_admissible(2, 5, seed=3)
    tau(tr, TimeVector([0.2, 0.1]))
    u_field(tr, np.linspace(-1.0, 1.0, 9))
    # whether it is a Calogero-Moser embedding, the eigenbasis, the base
    # factor and the right blocks of tau (weight 0) and of the jets (weight
    # 2) are kept, and so is ||B||_2
    kept = {"calogero_moser", "eigenbasis", "base_factor", ("right_blocks", 0), ("right_blocks", 2)}
    assert set(tr._memo) == kept and tr._memo["calogero_moser"] == (None, ())
    # a Calogero-Moser embedding keeps its blocks X and Z, and that it has
    # no eigenbasis
    cm = from_calogero_moser(random_calogero_moser(2, seed=3))
    tau(cm, TimeVector([0.2, 0.1]))
    u_field(cm, np.linspace(-1.0, 1.0, 9))
    assert set(cm._memo) == kept and cm._memo["eigenbasis"] == (None, ())
    assert len(cm._memo["calogero_moser"][1]) == 2
    assert tr.norm_B > 0.0
    other = clone(tr)
    assert other._memo == {} and "norm_B" not in vars(other)
    for mine, theirs in zip((tr.A, tr.B, tr.C), (other.A, other.B, other.C)):
        assert np.array_equal(mine, theirs)
        with pytest.raises(ValueError):
            theirs.setflags(write=True)


# ---------------------------------------------------------------------------
# generator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,N", [(1, 2), (1, 5), (2, 5), (3, 7), (4, 12)])
def test_random_admissible_is_admissible(n, N):
    for seed in range(5):
        tr = random_admissible(n, N, seed=seed)
        rep = validate_triple(tr.A, tr.B, tr.C)
        assert rep.admissible, (n, N, seed, rep)
        assert coupling_rank(tr.A, tr.B) <= 1


# A copy of the construction that the program replaced, which ran three
# overlapping rank paths: rank pre-checks of A and C, a kernel basis that
# checked the rank of A again, and a report that checked both once more.
# The program must keep its bits.


def _svd_rank(M, tol=1e-9):
    s = np.linalg.svd(M, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def _reference_report(A, B, C, tol=1e-9):
    A, B, C = (np.array(M, dtype=np.complex128) for M in (A, B, C))
    n = A.shape[0]
    full_rank_ok = _svd_rank(A, tol) == n and _svd_rank(C, tol) == n
    _, _, vh = np.linalg.svd(A)
    U = vh[_svd_rank(A, tol) :].conj()
    s = np.linalg.svd(A @ B @ U.T, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        rank_R, ratio = 0, 0.0
    else:
        rank_R = int(np.count_nonzero(s > tol * s[0]))
        ratio = float(s[1] / s[0]) if s.size >= 2 else 0.0
    g = np.linalg.svd(A @ C.T, compute_uv=False)
    nondegeneracy_ok = bool(g[0] > 0.0 and g[-1] > tol * g[0])
    admissible = full_rank_ok and nondegeneracy_ok and rank_R <= 1
    return TripleReport(rank_R, ratio, nondegeneracy_ok, full_rank_ok, admissible)


def _reference_draw(n, N, seed, tol=1e-9):
    rng = np.random.default_rng(seed)
    for _ in range(100):
        A, C, B0 = (rng.random(shape) + 1j * rng.random(shape) for shape in ((n, N), (n, N), (N, N)))
        a, b = (rng.random(shape) + 1j * rng.random(shape) for shape in ((n, 1), (N - n, 1)))
        if _svd_rank(A, tol) < n or _svd_rank(C, tol) < n:
            continue
        _, _, vh = np.linalg.svd(A)
        U = vh[n:].conj()
        B = B0 - np.linalg.pinv(A) @ (A @ B0 @ U.T - a @ b.T) @ U.conj()
        nb = float(np.linalg.svd(B, compute_uv=False)[0])
        if nb == 0.0:
            continue
        B = B * (1.0 / nb)
        if _reference_report(A, B, C, tol).admissible:
            return A, B, C
    raise AssertionError("no draw")


@pytest.mark.parametrize("n,N", [(1, 3), (2, 6), (3, 9), (4, 12), (6, 18), (8, 24)])
def test_random_admissible_keeps_the_bits_of_the_reference_construction(n, N):
    for seed in range(40):
        tr = random_admissible(n, N, seed=seed)
        for got, want in zip((tr.A, tr.B, tr.C), _reference_draw(n, N, seed)):
            assert got.tobytes() == want.tobytes(), (n, N, seed)


def _report_inputs():
    rng = np.random.default_rng(21)
    for i in range(60):
        n = 1 + i % 4
        N = n + 1 + i % 3
        A, B, C = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in ((n, N), (N, N), (n, N)))
        if i % 5 == 1:
            A[-1] = 2 * A[0]  # rank-deficient A (for n > 1): a larger kernel
        elif i % 5 == 2:
            C[-1] = C[0]  # rank-deficient C
        elif i % 5 == 3:
            tr = random_admissible(n, N, seed=i)
            A, B, C = tr.A, tr.B, tr.C
        elif i % 5 == 4:
            B = np.zeros((N, N))  # a coupling of rank zero
        yield A, B, C


def test_reports_keep_the_bits_of_the_reference_test():
    verdicts = set()
    for A, B, C in _report_inputs():
        want = _reference_report(A, B, C)
        assert validate_triple(A, B, C) == want
        verdicts.add((want.full_rank_ok, want.admissible))
        if want.admissible:
            make_triple(A, B, C)
        else:
            with pytest.raises(InadmissibleTripleError) as err:
                make_triple(A, B, C)
            assert err.value.report == want
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_admissibility_takes_one_svd_of_each_matrix(monkeypatch):
    # a draw: the kernel of A, ||B||_2, then rank(C), A B U.T and A C.T for
    # the report, which shares the draw's SVD of A; make_triple: the four
    # of the report
    counts = {"svd": 0, "square": 0}
    svd, square = np.linalg.svd, triple_module._unit_square

    def counted(name, fn):
        return lambda *a, **k: counts.update({name: counts[name] + 1}) or fn(*a, **k)

    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(triple_module, "_unit_square", counted("square", square))
    for n, N, seed in [(1, 3, 0), (4, 12, 3), (8, 24, 5)]:
        tr = random_admissible(n, N, seed=seed)
    draws, rest = divmod(counts["square"], 5)  # five arrays a draw
    assert rest == 0 and counts["svd"] == 5 * draws
    counts["svd"] = 0
    make_triple(tr.A, tr.B, tr.C)
    assert counts["svd"] == 4


def test_random_admissible_deterministic():
    a = random_admissible(2, 6, seed=123)
    b = random_admissible(2, 6, seed=123)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.B, b.B)
    assert np.array_equal(a.C, b.C)


def test_random_admissible_seed_sensitivity():
    a = random_admissible(2, 6, seed=1)
    b = random_admissible(2, 6, seed=2)
    assert not np.array_equal(a.B, b.B)


def test_random_admissible_b_norm():
    tr = random_admissible(3, 8, seed=4, b_norm=2.5)
    assert np.linalg.norm(tr.B, 2) == pytest.approx(2.5, rel=1e-12)


def test_random_admissible_rejects_bad_dims():
    with pytest.raises(DimensionError):
        random_admissible(3, 3, seed=0)


def test_generation_error_when_impossible():
    # max_resamples=0 leaves no room for even one draw
    with pytest.raises(GenerationError):
        random_admissible(2, 6, seed=0, max_resamples=0)


# ---------------------------------------------------------------------------
# invariances of the admissibility verdict
# ---------------------------------------------------------------------------


def test_rank_check_independent_of_kernel_basis():
    # validate_triple picks one kernel basis; the verdict must not depend
    # on that choice, which we probe by rotating A's rows (changes the SVD)
    tr = random_admissible(2, 7, seed=8)
    rng = np.random.default_rng(8)
    G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rep = validate_triple(G @ tr.A, tr.B, tr.C)
    # row operations on A preserve both the kernel and the coupling rank,
    # but C must rotate along to keep the pairing nondegenerate
    assert rep.rank_of_ABUt <= 1
    rep2 = validate_triple(G @ tr.A, tr.B, np.linalg.inv(G).conj().T @ tr.C)
    assert rep2.rank_of_ABUt <= 1


def test_rank_check_scale_invariant():
    tr = random_admissible(2, 6, seed=9)
    for s in (1e-6, 1e6):
        rep = validate_triple(tr.A, s * tr.B, tr.C)
        assert rep.admissible


def test_conjugate_triple_preserves_admissibility():
    tr = random_admissible(2, 6, seed=10)
    rng = np.random.default_rng(10)
    G = np.eye(6) + 0.3 * (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    tr2 = conjugate_triple(tr, G)
    rep = validate_triple(tr2.A, tr2.B, tr2.C)
    assert rep.admissible


def test_validate_never_raises_on_inadmissible():
    # arbitrary full-rank data: validate reports, never throws
    rng = np.random.default_rng(11)
    for _ in range(20):
        A = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        B = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        C = rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6))
        rep = validate_triple(A, B, C)
        assert isinstance(rep.admissible, bool)
        # generic B couples through the full kernel
        assert rep.rank_of_ABUt == 2
