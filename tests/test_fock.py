"""Fock-space oracle layer: operators, coded vacua, evolution, residual checks.

The oracle is trusted because its pieces are checked here against hand
arithmetic: ladder matrix entries are literal square roots, coded-vacuum
amplitudes follow the printed geometric law, and every closed form used
elsewhere in the package is reproduced by raw matrix algebra on the
truncated space.
"""

import math
import os
import re
import subprocess
import sys
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmem import fock
from dqmem.states import _WORK, Variances

SRC = os.path.dirname(os.path.dirname(fock.__file__))

# hand-derived: tanh(0.5) and sech(0.5) for the amplitude-law check
TANH_HALF = 0.46211715726000974
SECH_HALF = 0.886818883970074


@pytest.fixture(scope="module")
def ws32():
    return fock.build_workspace(32)


@pytest.fixture(scope="module")
def ws64():
    return fock.build_workspace(64)


@pytest.fixture(scope="module")
def pair32():
    return fock._PairSpace(32)


def dense(op):
    """A ShiftOperator as a dense array: entry (i, i + d) is coef[d][i]."""
    out = np.zeros(op.shape, dtype=np.complex128)
    rows = np.arange(op.shape[0])
    for d, c in op.coef.items():
        inside = (rows + d >= 0) & (rows + d < op.shape[1])
        assert np.all(c[~inside] == 0.0)  # no coefficient off the grid
        out[rows[inside], rows[inside] + d] = c[inside]
    return out


def shifts(m):
    """A dense array as a ShiftOperator, one offset per diagonal."""
    coef = {}
    for d in range(1 - m.shape[0], m.shape[1]):
        diag = np.diagonal(m, d)
        coef[d] = np.zeros(m.shape[0], dtype=m.dtype)
        coef[d][max(0, -d):max(0, -d) + diag.size] = diag
    return fock.ShiftOperator(m.shape, coef)


def sector_states(pair, s):
    """Flat pair-space indices of sector s = n - ntil, in the sector's order."""
    return np.flatnonzero(pair.n_index - pair.ntil_index == s)


def pair_vacuum(pair):
    """|0,0> on the pair space: flat index 0."""
    out = np.zeros(pair.size, dtype=np.complex128)
    out[0] = 1.0
    return out


def even_half(pair):
    """Flat pair-space indices of the n + ntil even states, in order."""
    return np.flatnonzero((pair.n_index + pair.ntil_index) % 2 == 0)


def embed(pair, v):
    """A sector-0 vector placed on the paired diagonal of the pair space."""
    out = np.zeros(pair.size, dtype=np.complex128)
    out[sector_states(pair, 0)] = v
    return out


def squeezer_generator(pair, r, mirror=False):
    """The reference squeezer generator on the whole pair space: the literal
    products mode @ mode and (mm - mm.H) * (-r/2) on m = b (btil with
    `mirror`)."""
    mode = pair.btil if mirror else pair.b
    mm = mode @ mode
    return (mm - mm.H) * (-0.5 * r)


def restrict(op, keep):
    """The block of `op` on the sorted states `keep`, indexed by position in
    keep: entry (i, i + d) lands at offset pos(i + d) - pos(i), which keeps
    every row's column order."""
    pos = np.full(op.shape[1], -1)
    pos[keep] = np.arange(keep.size)
    coef = {}
    for d, c in op.coef.items():
        cols = keep + d
        rows = np.flatnonzero((cols >= 0) & (cols < op.shape[1]))
        rows = rows[(c[keep[rows]] != 0) & (pos[cols[rows]] >= 0)]
        shift = pos[cols[rows]] - rows
        for e in sorted(set(shift.tolist())):
            at = rows[shift == e]
            coef.setdefault(e, np.zeros(keep.size, c.dtype))[at] = c[keep[at]]
    return fock.ShiftOperator((keep.size, keep.size), coef)


def full_quadratures(pair):
    """(x1, y1, x2, y2) of the rotated pair on the whole pair space."""
    out = []
    for mode in (pair.b, pair.btil):
        dag = mode.H
        out += [0.5 * (mode + dag), (-0.5j) * (mode - dag)]
    return out


def full_variances(pair, v):
    """<x^2> - <x>^2 of each full-space quadrature in the pair-space state v."""
    out = []
    for x in full_quadratures(pair):
        w = x.dot(v)
        mean = fock._re_inner(v, w)
        out.append(fock._re_inner(w, w) - mean * mean)
    return out


# ---------------------------------------------------------------------------
# operator construction


def test_lowering_operator_entries(pair32):
    a = dense(pair32.a)
    # <n-1, m| a |n, m> = sqrt(n); spot-check a few literal entries
    dim = pair32.dim
    for n, m in ((1, 0), (2, 3), (5, 5)):
        row = (n - 1) * dim + m
        col = n * dim + m
        assert a[row, col] == pytest.approx(math.sqrt(n), rel=1e-15)
    # annihilates the vacuum
    assert np.linalg.norm(a.dot(pair_vacuum(pair32))) == 0.0


def test_number_operators_are_diagonal_counts(ws32):
    # number is the literal product adag @ a, so entries are sqrt(n)^2:
    # integers only to round-off, never off the diagonal
    n_op = dense(ws32.number)
    assert np.count_nonzero(n_op - np.diag(np.diagonal(n_op))) == 0
    diag = np.real(np.diagonal(n_op))
    assert diag.min() == 0.0
    assert diag.max() == pytest.approx(ws32.dim - 1, rel=1e-14)
    assert np.allclose(diag, np.round(diag), atol=1e-12)


def test_workspace_validation():
    with pytest.raises(ValueError):
        fock.build_workspace(3)
    with pytest.raises(ValueError):
        fock.build_workspace(32, omega=-1.0)
    with pytest.raises(ValueError):
        fock.build_workspace(32, gamma=-0.1)


def test_weight_operator_counts_both_members(pair32):
    # j3 = (n + ntil + 1)/2 must be an exact half-integer diagonal
    j3 = dense(pair32.j3)
    diag = np.real(np.diagonal(j3))
    assert np.all(2.0 * diag == np.round(2.0 * diag))
    assert diag[0] == 0.5


@pytest.mark.parametrize("dim", [16, 32])
def test_sector_blocks_equal_the_full_space_operators(dim):
    # each block is the same literal product as its full-space operator, so
    # every entry of the matching sub-block is equal, not just close
    ws = fock.build_workspace(dim, omega=1.5, gamma=0.7)
    pair = fock._PairSpace(dim, 1.5, 0.7)
    minus, zero, plus = (sector_states(pair, s) for s in (-1, 0, 1))
    side = np.concatenate([minus, plus])
    # the mirror ladders are the same two blocks into the other sector
    blocks = [
        (ws.a, pair.a, minus), (ws.adag, pair.atildag, minus),
        (ws.a, pair.atil, plus), (ws.adag, pair.adag, plus),
        (ws.j_plus, pair.j_plus, zero), (ws.j_minus, pair.j_minus, zero),
        (ws.h_int, pair.h_int, zero), (ws.number, pair.number, zero),
        (ws.number_flipped, pair.a @ pair.adag, zero),
    ]
    # b's quadratures; btil's are not built
    assert len(ws.quadratures) == 2
    blocks += [(q, full, side) for q, full in zip(ws.quadratures, full_quadratures(pair))]
    for block, full, rows in blocks:
        want = dense(full)[np.ix_(rows, zero)]
        got = dense(block)
        assert got.shape == want.shape
        assert np.all(got == want)
    inside = pair.interior.coef[0]
    assert set(ws.interior) == {0, 1}
    for s, states in ((1, minus), (0, zero), (1, plus)):  # sector -1's mask is +1's
        assert np.all(ws.interior[s] == inside[states])
    # and nothing the blocks leave out: a memory state's images stay in them
    for full, rows in ((pair.a, minus), (pair.adag, plus), (pair.h_int, zero)):
        rest = np.setdiff1d(np.arange(pair.size), rows)
        assert np.count_nonzero(dense(full)[np.ix_(rest, zero)]) == 0


@pytest.mark.parametrize("dim", [16, 32])
def test_memory_vector_embeds_as_the_full_space_construction(dim):
    # the full-space construction: amplitudes on the paired diagonal of the
    # dim^2 vector, normalized there
    ws = fock.build_workspace(dim)
    pair = fock._PairSpace(dim)
    for theta in (-0.4, 0.0, 0.3, 0.7):
        want = np.zeros(pair.size, dtype=np.complex128)
        want[sector_states(pair, 0)] = ((-math.tanh(theta)) ** np.arange(dim)
                                        / math.cosh(theta))
        want /= fock._norm(want)
        got = embed(pair, fock.memory_vector(ws, theta, max_tail=1e-2))
        assert fock._norm(got - want) <= 1e-15


def test_sector_expectations_match_the_full_space(ws32, pair32):
    # every memory-state observable taken on sector 0 equals the literal
    # full-space expectation on the embedded state to round-off; the mirror
    # quantities sector 0 computes once match the pair space's own atil
    for big_t in (-0.8, 0.3):
        v = fock.memory_vector(ws32, -big_t)
        w = embed(pair32, v)
        n, ntil = (fock._norm(op.dot(w)) ** 2 for op in (pair32.a, pair32.atil))
        assert fock.occupation_expectation(ws32, v) == pytest.approx(n, rel=1e-14)
        assert fock.occupation_expectation(ws32, v) == pytest.approx(ntil, rel=1e-14)
        # the anti-normal-ordered route differs by the top level's weight alone
        assert fock.weight_expectation(ws32, v) == pytest.approx(
            0.5 * (n + ntil), abs=1e-10)
        q = fock.quadrature_variances(ws32, v)
        full = full_variances(pair32, w)
        assert [q.dx2, q.dy2, q.dx2_mirror, q.dy2_mirror] == pytest.approx(full, rel=1e-14)
        ch, sh = math.cosh(big_t), math.sinh(big_t)
        r1 = pair32.interior.dot(pair32.adag.dot(w) / ch - pair32.atil.dot(w) / sh)
        r2 = pair32.interior.dot(pair32.atildag.dot(w) / ch - pair32.a.dot(w) / sh)
        got = fock.check_hole_relations(ws32, v, big_t)
        assert got == pytest.approx(fock._norm(r1), abs=1e-15)
        assert got == pytest.approx(fock._norm(r2), abs=1e-15)


def random_shifts(rng, rows, cols, offsets, dtype=float):
    """A ShiftOperator with random coefficients on the given offsets."""
    coef = {}
    for d in offsets:
        c = rng.normal(size=rows).astype(dtype)
        if dtype is complex:
            c += 1j * rng.normal(size=rows)
        i = np.arange(rows)
        c[(i + d < 0) | (i + d >= cols)] = 0.0
        coef[d] = c
    return fock.ShiftOperator((rows, cols), coef)


@pytest.mark.parametrize("dtype", [float, complex])
def test_shift_operator_arithmetic_matches_dense(dtype):
    rng = np.random.default_rng(5)
    a = random_shifts(rng, 7, 9, (-3, 0, 2, 5), dtype)
    b = random_shifts(rng, 9, 6, (-4, -1, 1), dtype)
    c = random_shifts(rng, 7, 9, (-3, 1, 2), dtype)
    x = rng.normal(size=9) + 1j * rng.normal(size=9)
    assert np.allclose(a.dot(x), dense(a) @ x, rtol=1e-14, atol=1e-14)
    assert np.allclose(dense(a @ b), dense(a) @ dense(b), rtol=1e-14, atol=1e-14)
    assert np.array_equal(dense(a + c), dense(a) + dense(c))
    assert np.array_equal(dense(a - c), dense(a) - dense(c))
    assert np.array_equal(dense((0.5 - 2j) * a), (0.5 - 2j) * dense(a))
    assert np.array_equal(dense(a.H), dense(a).conj().T)
    assert (a @ b).shape == (7, 6) and a.H.shape == (9, 7)
    assert fock._fro(a) == pytest.approx(np.linalg.norm(dense(a)), rel=1e-14)
    # a product may compose an offset past every column: it stays empty
    edge = random_shifts(rng, 3, 3, (-2, 2), dtype)
    assert sorted((edge @ edge).coef) == [-4, 0, 4]
    # the references sum without BLAS, whose kernels may fuse a multiply-add
    e = dense(edge)
    ref = (e[:, :, None] * e[None]).sum(axis=1)
    assert np.array_equal(dense(edge @ edge), ref)
    assert np.array_equal((edge @ edge).dot(x[:3]), (ref * x[:3]).sum(axis=1))
    assert np.array_equal(dense((edge @ edge).H), dense(edge @ edge).conj().T)
    square = random_shifts(rng, 12, 12, (-5, -2, 0, 3, 7), dtype)
    keep = np.array([0, 2, 3, 7, 8, 11])
    block = restrict(square, keep)
    assert np.array_equal(dense(block), dense(square)[np.ix_(keep, keep)])


def test_shift_operator_rounds_as_csr():
    # the matvecs of the Taylor series and the products of the algebra
    # checks give the bits scipy's CSR arithmetic gives
    sparse = pytest.importorskip("scipy.sparse")
    rng = np.random.default_rng(3)
    ws = fock.build_workspace(128)
    hint = (-0.4j) * ws.h_int
    real = fock.ShiftOperator(hint.shape, {d: c.real for d, c in hint.coef.items()})
    pair = fock._PairSpace(20)
    for op in (real, fock._even_squeezer(20, 0.5, False)):
        x = rng.normal(size=op.shape[1])
        assert np.array_equal(op.dot(x), sparse.csr_matrix(dense(op).real).dot(x))
    want = sparse.csr_matrix(dense(pair.b)) @ sparse.csr_matrix(dense(pair.b))
    assert np.array_equal(dense(pair.b @ pair.b), want.toarray())


def test_hermitian_self_check_refuses_an_operator_that_is_not_its_adjoint():
    upper = fock.ShiftOperator((2, 2), {1: np.array([1.0, 0.0])})
    with pytest.raises(RuntimeError) as exc:
        fock._hermitian("upper", upper)
    assert str(exc.value) == "upper failed its Hermiticity self-check"
    symmetric = upper + upper.H
    assert fock._hermitian("symmetric", symmetric) is symmetric


# ---------------------------------------------------------------------------
# algebra residuals


def test_algebra_residuals_tiny(ws32):
    res = fock.algebra_residuals(ws32)
    for name, val in res.items():
        assert val < 1e-12, f"{name}: {val}"


def test_structural_identities_exact(ws32):
    res = fock.algebra_residuals(ws32)
    # these hold entry-by-entry on integer diagonals, not just approximately
    assert res["ccr_cross"] == 0.0
    assert res["h0_hint_commutator"] == 0.0
    assert res["h0_annihilates_diagonal"] == 0.0


# ---------------------------------------------------------------------------
# coded vacuum construction


def test_memory_vector_amplitude_law(ws64):
    v = fock.memory_vector(ws64, 0.5)
    # one amplitude per paired-diagonal state |n, n>: nothing off it
    assert v.shape == (ws64.dim,)
    # amplitudes (-tanh theta)^n sech theta on the paired diagonal
    for n in range(6):
        want = ((-TANH_HALF) ** n) * SECH_HALF
        assert v[n].real == pytest.approx(want, rel=1e-10)
        assert v[n].imag == 0.0


def test_memory_vector_normalized(ws64):
    for theta in (0.0, 0.3, 0.9, 1.2):
        v = fock.memory_vector(ws64, theta)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_memory_vector_sign_symmetric(ws64):
    # theta and -theta give amplitudes (+-tanh)^n: equal on even rungs
    vp = fock.memory_vector(ws64, 0.7)
    vm = fock.memory_vector(ws64, -0.7)
    signs = np.array([(-1.0) ** n for n in range(ws64.dim)])
    assert np.allclose(vp, signs * vm, atol=1e-15)


def test_memory_vector_budget_refusal(ws64):
    # tanh(2.0)^128 is far above the default tail budget at dim 64
    with pytest.raises(ValueError):
        fock.memory_vector(ws64, 2.0)
    # loosening the budget admits it
    v = fock.memory_vector(ws64, 2.0, max_tail=1e-2)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)


def test_state_builders_refuse_a_nan_theta(ws64):
    # a NaN theta has a NaN tail, which no budget admits: each builder
    # refuses it before any arithmetic on the state (which would warn);
    # check_entropy_flow refuses it earlier, at its singular-Theta guard
    nan = float("nan")
    with pytest.raises(ValueError, match="truncation budget"):
        fock.memory_vector(ws64, nan)
    with pytest.raises(ValueError, match="truncation budget"):
        fock.evolve_vector(ws64, ws64.vacuum(), 0.5, theta=nan)
    with pytest.raises(ValueError, match="entropy flow needs a finite"):
        fock.check_entropy_flow(ws64, nan, 1.0, 0.3, 1e-4)


def test_dual_construction_agrees(ws64):
    for theta in (0.3, 0.5, 0.8):
        direct = fock.memory_vector(ws64, theta)
        via_gen = fock.memory_vector_via_generator(ws64, theta)
        assert np.linalg.norm(direct - via_gen) < 1e-10


def test_expm_action_matches_dense_exponential():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    m = 0.5 * (m - m.conj().T)  # anti-hermitian keeps the norm bounded
    from scipy.linalg import expm
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    got = fock.expm_action(shifts(m), v)
    want = expm(m).dot(v)
    assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("touched", [(1,), (0, 2)])
def test_expm_action_on_a_permuted_block_diagonal(dtype, touched):
    # three dense blocks hidden by a permutation: the series on the whole
    # matrix keeps vec on the blocks it touches, with exact zeros elsewhere
    from scipy.linalg import expm
    rng = np.random.default_rng(17)
    sizes = (6, 9, 5)

    def block(n):
        b = rng.normal(size=(n, n))
        if dtype is complex:
            b = b + 1j * rng.normal(size=(n, n))
        return 0.4 * b

    perm = rng.permutation(sum(sizes))
    starts = np.cumsum((0,) + sizes)
    m = np.zeros((sum(sizes), sum(sizes)), dtype=dtype)
    for n, lo in zip(sizes, starts):
        m[lo:lo + n, lo:lo + n] = block(n)
    m = m[np.ix_(perm, perm)]
    inside = np.concatenate([np.arange(starts[b], starts[b + 1]) for b in touched])
    where = np.flatnonzero(np.isin(perm, inside))
    v = np.zeros(sum(sizes), dtype=dtype)
    v[where] = rng.normal(size=where.size)
    if dtype is complex:
        v[where] += 1j * rng.normal(size=where.size)
    got = fock.expm_action(shifts(m), v)
    want = expm(m).dot(v)
    assert got.dtype == np.complex128
    assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)
    assert np.all(got[np.setdiff1d(np.arange(v.size), where)] == 0.0)


def decimal_expm_action(op, v, digits=60):
    """exp(op) v for a real ShiftOperator and vector, as a Taylor sum in
    `decimal` at `digits` digits on the same float coefficients: stages of
    1-norm at most 1, each summed until a term is below 1e-50 of the sum."""
    n = op.shape[0]
    col = np.zeros(n)  # column sums of |entries|: only the stage count uses them
    for d, c in op.coef.items():
        lo, hi = max(0, -d), min(n, n - d)
        col[lo + d:hi + d] += np.abs(c[lo:hi])
    stages = max(1, math.ceil(col.max()))
    with localcontext() as ctx:
        ctx.prec = digits
        coef = {d: np.array([Decimal(float(x)) for x in c], dtype=object)
                for d, c in op.coef.items()}
        x = np.array([Decimal(float(t)) for t in v], dtype=object)
        tol = Decimal(10) ** -(digits - 10)
        for _ in range(stages):
            term, acc, k = x, x.copy(), 0
            while k == 0 or max(map(abs, term)) > tol * max(map(abs, acc)):
                k += 1
                out = np.array([Decimal(0)] * n, dtype=object)
                for d, c in coef.items():
                    lo, hi = max(0, -d), min(n, n - d)
                    out[lo:hi] += c[lo:hi] * term[lo + d:hi + d]
                term = out / (stages * k)
                acc += term
            x = acc
        return np.array([float(t) for t in x])


def sector0_write(theta):
    """-i G(theta) at the guard dim of theta, and the vacuum it acts on."""
    ws = fock.build_workspace(fock._guard_dim(theta))
    return ((-1j) * ws.generator(theta)).map(lambda c: c.real.copy()), ws.vacuum().real


def restricted_squeezer(d_pad, r):
    """The squeezer S_b(r)'s generator on the n + ntil even half at d_pad,
    and the vacuum it acts on."""
    op = fock._even_squeezer(d_pad, r, False)
    v = np.zeros(op.shape[0])
    v[0] = 1.0
    return op, v


# the write generator's 1-norm is 9.25 at dim 20, one stage near theta_55 =
# 9.9; the squeezer's is 57 on 72 states, six stages
SERIES_CASES = [(sector0_write, (0.25,)), (restricted_squeezer, (12, 3.0))]


@pytest.mark.parametrize("build, args", SERIES_CASES)
def test_expm_action_matches_a_decimal_taylor_sum(build, args):
    # the same truncated matrix in 60-digit arithmetic, so the comparison
    # sees the series error alone, however small, with no truncation in it
    op, v = build(*args)
    got = fock.expm_action(op, v)
    want = decimal_expm_action(op, v)
    assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


def test_expm_action_picks_al_mohy_higham_stages():
    # s = ceil(||A||_1 / theta_m*), m* minimizing m * ceil(||A||_1 / theta_m),
    # the smallest m on a tie; each stage sums at most m* terms
    def counts(op, v):
        before = dict(_WORK)
        fock.expm_action(op, v)
        return tuple(_WORK[k] - before[k] for k in ("taylor_stages", "taylor_terms"))

    # (1-norm, m*, s): m = 10 costs 10 at 0.14, m = 5 costs 5 * 59; 9.9 is
    # theta_55; past it m = 40 takes 2 stages (80 terms against 55's 110);
    # at 100, m = 50 costs 50 * 12 = 600 against 55's 55 * 11 = 605
    for norm1, degree, stages in ((0.14, 10, 1), (9.9, 55, 1), (9.91, 40, 2),
                                  (100.0, 50, 12)):
        s, terms = counts(fock.ShiftOperator.diag(np.array([-norm1])), np.ones(1))
        assert s == stages and stages <= terms <= stages * degree
    # the zero matrix takes no stage: exp(0) v is v
    assert counts(fock.ShiftOperator.diag(np.zeros(1)), np.ones(1)) == (0, 0)
    assert [counts(*build(*args))[0] for build, args in SERIES_CASES] == [1, 6]


@pytest.mark.filterwarnings("error")
def test_expm_action_refuses_non_finite_input():
    ws = fock.build_workspace(16)
    v = fock.memory_vector(ws, 0.3)
    # t H_int past the float range: one ValueError naming the matrix, no warning
    with pytest.raises(ValueError, match="matrix is not finite"):
        fock.evolve_vector(ws, v, 1e308)
    with pytest.raises(ValueError, match="matrix is not finite"):
        fock.memory_vector_via_generator(ws, 1e308)
    # finite coefficients whose column sum overflows
    with pytest.raises(ValueError, match="matrix is not finite"):
        fock.evolve_vector(ws, v, 1e307)
    with pytest.raises(ValueError, match="matrix is not finite"):
        fock.expm_action(fock.ShiftOperator.diag(np.array([1.0, np.nan])), np.ones(2))
    # a finite 1-norm whose stage count at theta_5 passes the float range
    with pytest.raises(ValueError, match="1-norm 1e[+]306 is too large to stage"):
        fock.expm_action(fock.ShiftOperator.diag(np.array([1e306, 1.0])), np.ones(2))
    bad = v.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="vector has a non-finite entry"):
        fock.evolve_vector(ws, bad, 0.1)
    bad[3] = np.inf
    with pytest.raises(ValueError, match="vector has a non-finite entry"):
        fock.expm_action(ws.h_int, bad)


def oracle_exponents():
    """Every kind of exponent oracle-verify takes, as expm_action reads it:
    -i G(theta) and -i t H_int on sector 0, real, and both squeezer
    generators on the even half, at the guard dims of the squeeze grid."""
    out = []
    for theta in (0.25, 0.5, 1.0):
        d = fock._guard_dim(theta)
        ws = fock.build_workspace(d)
        for op in ((-1j) * ws.generator(theta), (-1j * theta) * ws.h_int):
            out.append(op.map(lambda c: c.real.copy()))
        out += [fock._even_squeezer(d, r, mirror) for r, mirror in ((-theta, True), (theta, False))]
    return out


def test_the_1_norm_is_the_adjoints_row_sum_of_magnitudes():
    # bit for bit the row sums of the adjoint's magnitudes, which sum each
    # column of the operator in descending offset order
    def adjoint_row_sums(op):
        with np.errstate(over="ignore"):
            return float(np.max(op.map(abs).H.dot(np.ones(op.shape[0]))))

    rng = np.random.default_rng(23)
    ops = oracle_exponents()
    for dtype in (float, complex):
        for _ in range(60):
            n = int(rng.integers(1, 40))
            offsets = set(rng.integers(1 - n, n, size=int(rng.integers(1, 7))).tolist())
            op = random_shifts(rng, n, n, offsets, dtype)
            ops.append(op * float(10.0 ** rng.integers(-3, 4)))
    for op in ops:
        assert op.norm1() == adjoint_row_sums(op)


def test_expm_action_refuses_a_plan_past_the_matvec_budget():
    # a finite 1-norm near 1e300 once planned about 1e298 stages and never
    # returned; now it is one ValueError, at once and with no warning. In a
    # child process, so a regression fails on the timeout, not by hanging
    code = ("from dqmem import fock; ws = fock.build_workspace(16); "
            "fock.evolve_vector(ws, fock.memory_vector(ws, 0.3), 1e300)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1].startswith(
        "ValueError: expm_action: the matrix's 1-norm 2.9")
    assert proc.stderr.endswith(f"is too large to stage in {fock._MAX_MATVECS} matvecs\n")
    assert "Warning" not in proc.stderr
    # the largest plan of oracle-verify and these tests, 8 525 matvecs, is
    # far inside the budget
    assert fock._MAX_MATVECS >= 100 * 8525


def test_expm_action_runs_every_plan_within_the_matvec_budget(monkeypatch):
    # at 1-norm x the plan is 55 terms x ceil(x / 9.9) stages; with a
    # budget of 990 matvecs, 18 stages run and 19 are refused
    monkeypatch.setattr(fock, "_MAX_MATVECS", 990)
    v = np.array([1.0, 0.0])
    w = fock.expm_action(fock.ShiftOperator.diag(np.array([-18 * 9.9, 0.0])), v)
    assert w[0].real == pytest.approx(math.exp(-18 * 9.9), rel=1e-12)
    for norm in (math.nextafter(18 * 9.9, math.inf), 1e6, 1.7e308):
        with pytest.raises(ValueError, match="too large to stage in 990 matvecs"):
            fock.expm_action(fock.ShiftOperator.diag(np.array([-norm, 0.0])), v)


def test_closed_form_supports_of_the_oracle_exponents(ws32):
    # the squeeze check runs its squeezers on the n + ntil even half: it
    # holds the vacuum, and every nonzero coefficient of either squeezer
    # links two states of equal parity, so the half is closed under both
    for d_pad in (20, 36):
        pair = fock._PairSpace(d_pad)
        even = np.zeros(pair.size, dtype=bool)
        even[even_half(pair)] = True
        assert even[0]
        for mirror in (False, True):
            sq = squeezer_generator(pair, 0.5, mirror=mirror)
            for d, c in sq.coef.items():
                rows = np.flatnonzero(c)
                assert rows.size and np.array_equal(even[rows], even[rows + d])
    # the sector-0 exponents are tridiagonal and couple every pair of
    # neighbouring levels, so a memory state reaches the whole block and
    # expm_action needs no support search
    for op in (ws32.h_int, ws32.generator(0.5)):
        assert set(op.coef) <= {-1, 0, 1}
        assert np.all(op.coef[1][:-1] != 0) and np.all(op.coef[-1][1:] != 0)


@pytest.mark.parametrize("d_pad", [12, 13, 20, 21, 36, 102])
def test_even_squeezer_is_the_restricted_pair_space_generator(d_pad):
    # built on the even half alone, each generator has the offsets and the
    # coefficients of the full-space generator's block there, entry for entry
    pair = fock._PairSpace(d_pad)
    even = even_half(pair)
    assert np.array_equal(fock._even_states(d_pad), even)
    assert even.size == (d_pad * d_pad + 1) // 2
    for mirror in (False, True):
        for r in (0.5, -0.5, 1.0, -3.0):
            want = restrict(squeezer_generator(pair, r, mirror), even)
            got = fock._even_squeezer(d_pad, r, mirror)
            assert got.shape == want.shape and list(got.coef) == list(want.coef)
            assert len(got.coef) == (6 if d_pad % 2 else 8)
            for d, c in want.coef.items():
                assert np.array_equal(got.coef[d], c), (mirror, r, d)


def test_even_squeezer_scales_in_place():
    # at d = 102 the generator holds eight offsets of 5 202 coefficients
    # (332 928 bytes); scaled and negated in place, its build peaks at those
    # and its index arrays, with no scaled or negated copy of each offset
    fock._even_squeezer(102, 1.0, False)  # the first call adds one-time allocations
    tracemalloc.start()
    try:
        fock._even_squeezer(102, 1.0, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 600_000


def test_squeeze_check_write_route_matches_the_pair_space_exponential():
    # the check takes exp(-i G(theta))|0,0> from sector 0 at d_pad (20 at
    # theta = 0.25); on the full pair space the same exponential agrees
    theta = 0.25
    pair = fock._PairSpace(20)
    want = fock.expm_action((-theta) * (pair.j_plus - pair.j_minus), pair_vacuum(pair))
    got = embed(pair, fock.memory_vector_via_generator(fock.build_workspace(20), theta))
    assert np.linalg.norm(got - want) <= 1e-15


def test_evolve_vector_off_the_paired_diagonal_matches_dense():
    # (|0,0> + |1,0>)/sqrt(2) spans sectors 0 and +1 of the pair space; the
    # series there matches the dense exponential, and its sector-0 part is
    # what evolve_vector gives for the sector-0 part of the start
    from scipy.linalg import expm
    pair = fock._PairSpace(8)
    v = np.zeros(pair.size, dtype=np.complex128)
    v[[0, pair.dim]] = 1.0 / math.sqrt(2.0)
    m = (-0.3j) * pair.h_int
    got = fock.expm_action(m, v)
    want = expm(dense(m)).dot(v)
    assert np.linalg.norm(got - want) < 1e-12
    assert np.count_nonzero(got) > pair.dim  # both sectors were evolved
    ws = fock.build_workspace(8)
    pairs = sector_states(pair, 0)
    assert np.linalg.norm(fock.evolve_vector(ws, v[pairs], 0.3) - want[pairs]) < 1e-12
    # evolve_vector takes sector-0 vectors only
    with pytest.raises(ValueError, match="sector-0"):
        fock.evolve_vector(ws, v, 0.3)


# ---------------------------------------------------------------------------
# dissipative evolution


def test_evolution_follows_the_drain_line(ws64):
    v0 = fock.memory_vector(ws64, 0.8)
    w = fock.evolve_vector(ws64, v0, 0.3, theta=0.8)
    target = fock.memory_vector(ws64, 0.5)
    # the residual is the truncated tail of the theta = 0.8 start, ~4e-12
    assert np.linalg.norm(w - target) < 1e-10


def test_evolution_reaches_vacuum_at_tau(ws64):
    v0 = fock.memory_vector(ws64, 0.8)
    w = fock.evolve_vector(ws64, v0, 0.8, theta=0.8)
    assert abs(fock.oracle_overlap(w, ws64.vacuum()) - 1.0) < 1e-12


def test_evolution_preserves_norm(ws64):
    v0 = fock.memory_vector(ws64, 0.6)
    for t in (0.2, 0.6, 1.0):
        w = fock.evolve_vector(ws64, v0, t, theta=0.6)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-10


def test_evolution_zero_time_is_identity(ws64):
    v0 = fock.memory_vector(ws64, 0.5)
    w = fock.evolve_vector(ws64, v0, 0.0, theta=0.5)
    assert np.array_equal(w, v0)


def test_evolution_budget_scales_with_endpoint(ws64):
    # the worst point on the path theta -> theta - gamma t sets the budget;
    # at dim 64 the default refuses an endpoint beyond ~0.85
    v0 = fock.memory_vector(ws64, 0.9)
    with pytest.raises(ValueError):
        fock.evolve_vector(ws64, v0, 2.2, theta=0.9)  # endpoint -1.3
    ws256 = fock.build_workspace(256)
    v0 = fock.memory_vector(ws256, 0.9)
    w = fock.evolve_vector(ws256, v0, 2.1, theta=0.9)
    target = fock.memory_vector(ws256, 0.9 - 2.1)
    assert np.linalg.norm(w - target) < 1e-10


def test_evolution_budget_refuses_a_path_past_the_row_bound(ws64):
    # tanh(0.92)^128 = 1.6e-18 is a small tail, yet unchecked this path
    # lands 9e-10 from the closed form, past the 1e-10 bound
    v0 = fock.memory_vector(ws64, 0.92)
    with pytest.raises(ValueError, match="truncation budget"):
        fock.evolve_vector(ws64, v0, 0.1, theta=0.92)
    w = fock.evolve_vector(ws64, v0, 0.1)
    assert fock._norm(w - fock.memory_vector(ws64, 0.82)) > 1e-10


def test_every_admitted_evolution_meets_the_row_bound():
    # the budget implies the bound: every path of this scan that
    # evolve_vector admits lands within 1e-10 of the closed form
    admitted = 0
    for dim in (64, 128, 256):
        ws = fock.build_workspace(dim)
        for theta in np.linspace(0.3, 2.2, 20).tolist():
            v0 = fock.memory_vector(ws, theta, max_tail=1.0)
            for t in (0.5 * theta, theta, 1.5 * theta, 2.0 * theta):
                try:
                    w = fock.evolve_vector(ws, v0, t, theta=theta)
                except ValueError:
                    continue
                admitted += 1
                target = fock.memory_vector(ws, theta - t)
                assert fock._norm(w - target) <= 1e-10, (dim, theta, t)
    assert admitted == 112  # of 240 paths; the budget refuses the rest


def test_gamma_scales_the_drain_rate():
    ws = fock.build_workspace(64, gamma=0.25)
    v0 = fock.memory_vector(ws, 0.8)
    w = fock.evolve_vector(ws, v0, 1.2, theta=0.8)  # drains 0.3
    target = fock.memory_vector(ws, 0.5)
    assert np.linalg.norm(w - target) < 1e-10


# ---------------------------------------------------------------------------
# oracle expectations against closed forms


def test_occupation_expectation(ws64):
    for theta in (0.0, 0.4, 1.0):
        v = fock.memory_vector(ws64, theta)
        assert fock.occupation_expectation(ws64, v) == pytest.approx(
            math.sinh(theta) ** 2, abs=1e-9)


def test_overlap_pair_law(ws64):
    va = fock.memory_vector(ws64, 0.3)
    vb = fock.memory_vector(ws64, 0.9)
    assert fock.oracle_overlap(va, vb) == pytest.approx(
        1.0 / math.cosh(0.6), abs=1e-10)
    assert fock.oracle_overlap(va, ws64.vacuum()) == pytest.approx(
        1.0 / math.cosh(0.3), abs=1e-10)


def test_weight_expectation(ws64):
    v = fock.memory_vector(ws64, 0.8)
    assert fock.weight_expectation(ws64, v) == pytest.approx(
        math.sinh(0.8) ** 2, abs=1e-9)


def test_weight_rows_are_not_copies_of_the_occupation_rows():
    # <ntil> is taken as <atil atildag> - 1, not as a copy of <n>, so every
    # weight row carries its own rounding and truncation
    rows = fock._verify_rows(64)
    occupation = [r for r in rows if r[0] == "occupation"]
    weight = [r for r in rows if r[0] == "weight"]
    assert len(weight) == len(occupation) == 18
    for occ, w in zip(occupation, weight):
        assert w[1] == occ[1] and w[2] != occ[2], w


def test_quadrature_variances_closed_form(ws64):
    for theta in (0.25, 0.75):
        v = fock.memory_vector(ws64, theta)
        q = fock.quadrature_variances(ws64, v)
        assert isinstance(q, Variances)
        # the state carries effective parameter -theta at write time
        assert q.dx2 == pytest.approx(0.25 * math.exp(2.0 * theta), abs=1e-9)
        assert q.dy2 == pytest.approx(0.25 * math.exp(-2.0 * theta), abs=1e-9)
        assert q.dx2_mirror == pytest.approx(0.25 * math.exp(-2.0 * theta), abs=1e-9)
        assert q.dy2_mirror == pytest.approx(0.25 * math.exp(2.0 * theta), abs=1e-9)


def test_entropy_expectation_closed_form(ws64):
    for theta in (0.3, 0.8, 1.2):
        v = fock.memory_vector(ws64, theta)
        x = math.sinh(theta) ** 2
        want = (1.0 + x) * math.log1p(x) - x * math.log(x)
        assert fock.entropy_expectation(ws64, v, -theta) == pytest.approx(
            want, abs=1e-8)


def test_entropy_operator_rejects_zero(ws64):
    with pytest.raises(ValueError):
        ws64.entropy_operator(0.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_checks_refuse_a_non_finite_theta(ws64, theta):
    # each is refused with a ValueError naming the value, before any
    # arithmetic on it: a NaN passed `abs(x) < bound` guards, and an inf
    # gave a hole residual of 0.0, NaN entropies or warnings (any
    # RuntimeWarning fails the test)
    v = fock.memory_vector(ws64, -0.5)
    got = f"got {theta}$"
    with pytest.raises(ValueError, match=f"hole relations need a finite .* got {theta}:"):
        fock.check_hole_relations(ws64, v, theta)
    with pytest.raises(ValueError, match="entropy operator needs a finite Theta != 0, " + got):
        fock.entropy_expectation(ws64, v, theta)
    with pytest.raises(ValueError, match="entropy operator needs a finite Theta != 0, " + got):
        ws64.entropy_operator(theta)
    with pytest.raises(ValueError, match="entropy rate operator needs a finite Theta != 0, "
                       + got):
        ws64.entropy_rate_operator(theta, 1.0)
    # Theta(t) = gamma t - theta
    with pytest.raises(ValueError, match=f"entropy flow needs a finite .* got {-theta}:"):
        fock.check_entropy_flow(ws64, theta, 1.0, 0.3, 1e-4)


@pytest.mark.parametrize("theta", [710.0, 800.0, -800.0])
def test_checks_refuse_a_theta_past_the_float_range_of_cosh_squared(ws64, theta):
    # cosh and sinh overflow past |Theta| = 710.48 (OverflowError at 800),
    # and at 710 a hole residual divided by both underflowed to 0.0: each
    # check refuses such a Theta with a ValueError naming it, and warns of
    # nothing (any RuntimeWarning fails the test)
    v = fock.memory_vector(ws64, 0.5)
    with pytest.raises(ValueError, match=re.escape(
            f"hole relations need a finite |Theta| in [0.05, 350.0], got {theta}:")):
        fock.check_hole_relations(ws64, v, theta)
    got = re.escape(f"needs |Theta| <= 350.0, got {theta}") + "$"
    with pytest.raises(ValueError, match="entropy operator " + got):
        ws64.entropy_operator(theta)
    with pytest.raises(ValueError, match="entropy operator " + got):
        fock.entropy_expectation(ws64, v, theta)
    with pytest.raises(ValueError, match="entropy rate operator " + got):
        ws64.entropy_rate_operator(theta, 1.0)


def test_checks_take_a_theta_at_the_bound(ws64):
    # the bound itself is admitted, and its values are finite
    big = fock._MAX_ABS_THETA
    v = fock.memory_vector(ws64, 0.5)
    assert 0.0 < fock.check_hole_relations(ws64, v, big) < math.inf
    for op in (ws64.entropy_operator(-big), ws64.entropy_rate_operator(big, 1.0)):
        assert all(np.isfinite(c).all() for c in op.coef.values())


def test_argument_refusals_name_the_value(ws64):
    v = ws64.vacuum()
    for t in (-1.0, math.inf):
        with pytest.raises(ValueError, match=re.escape(f"t must be finite and >= 0, got {t}")
                           + "$"):
            fock.evolve_vector(ws64, v, t)
    with pytest.raises(ValueError, match=re.escape(
            "vector dimensions differ: (64,) vs (32,)") + "$"):
        fock.oracle_overlap(v, v[:32])
    for dt in (0.0, math.inf):
        with pytest.raises(ValueError, match=re.escape(
                f"dt must be positive and finite, got {dt}") + "$"):
            fock.check_entropy_flow(ws64, 0.3, 1.0, 0.3, dt)


def test_entropy_flow_refuses_a_theta_that_overflows(ws64):
    # gamma t = 1e308 * 10 is inf: the guard refuses it, not the budget
    with pytest.raises(ValueError, match="entropy flow needs a finite .* got inf:"):
        fock.check_entropy_flow(ws64, 0.3, 1e308, 10.0, 1e-4)


# ---------------------------------------------------------------------------
# hole relations, squeezing, entropy flow


def test_hole_relations_on_the_flow(ws64):
    for mag in (0.1, 0.6, 1.2):
        for sign in (1.0, -1.0):
            t_eff = sign * mag
            v = fock.memory_vector(ws64, -t_eff)
            assert fock.check_hole_relations(ws64, v, t_eff) < 1e-8


def test_hole_relations_reject_vacuum_limit(ws64):
    v = fock.memory_vector(ws64, 0.0)
    with pytest.raises(ValueError):
        fock.check_hole_relations(ws64, v, 0.0)


def test_hole_relations_fail_off_the_flow(ws64):
    # a state with the wrong parameter must NOT satisfy the relations
    v = fock.memory_vector(ws64, -0.4)
    assert fock.check_hole_relations(ws64, v, 0.8) > 1e-2


def test_squeeze_factorization(ws64):
    assert fock.check_squeeze_factorization(ws64, 0.0) == 0.0
    for theta in (0.25, 0.5, 1.0):
        assert fock.check_squeeze_factorization(ws64, theta) < 1e-8


def test_squeeze_factorization_refuses_padding_past_four_times_dim(ws64):
    # tanh(3)^d <= 1e-12 needs d = 5574, far above 4 * 64
    with pytest.raises(ValueError, match="4 \\* 64"):
        fock.check_squeeze_factorization(ws64, 3.0)
    # tanh(20) rounds to 1: no dim is enough
    with pytest.raises(ValueError, match="needs dim inf"):
        fock.check_squeeze_factorization(ws64, 20.0)


def test_squeeze_factorization_depends_on_theta_alone():
    # the check runs at the dim its guard tail needs, whatever the workspace
    for theta in (0.25, 0.5, 1.0):
        got = {dim: fock.check_squeeze_factorization(fock.build_workspace(dim), theta)
               for dim in (64, 128, 256)}
        assert got[64] == got[128] == got[256], (theta, got)


def test_squeeze_factorization_pads_with_a_workspace(ws64):
    # theta = 1.0 needs dim 102 at dim 64: the padded route is the same
    # computation as the check on a workspace built at that dim
    padded = fock.check_squeeze_factorization(ws64, 1.0)
    direct = fock.check_squeeze_factorization(fock.build_workspace(102), 1.0)
    assert padded == direct


def test_guard_dims_of_the_verify_grid():
    # the smallest d >= 4 with tanh(|Theta|)^d <= 1e-12, then capped by dim
    got = [fock._guard_dim(t) for t in (0.25, 0.3, 0.5, 0.8, 1.0, 1.2)]
    assert got == [20, 23, 36, 68, 102, 152]
    assert fock._guard_dim(-1.2) == 152 and fock._guard_dim(0.0) == 4
    assert fock._guard_dim(1.2, 128) == 128 and fock._guard_dim(0.3, 128) == 23
    # tanh(20) rounds to 1: no dim is enough, and the cap bounds it
    assert fock._guard_dim(20.0) == math.inf and fock._guard_dim(20.0, 64) == 64


def test_verify_rows_do_not_depend_on_dim_past_every_guard_dim():
    # every memory-state row runs at its own guard dim, at most 152 here
    rows = fock._verify_rows(256)
    assert rows == fock._verify_rows(1024)
    assert all(r[5] == "pass" for r in rows)
    # a dim below a state's budget still fails loudly, at the capped dim
    with pytest.raises(ValueError, match="truncation budget exceeded"):
        fock._verify_rows(32)


def test_squeeze_check_builds_only_what_it_squeezes():
    # at theta = 1 the check builds its generators on the 5 202-state even
    # half of a 102^2-state space, and only its residual on the whole space
    ws = fock.build_workspace(128)
    fock.check_squeeze_factorization(ws, 1.0)  # the first call adds one-time allocations
    tracemalloc.start()
    try:
        resid = fock.check_squeeze_factorization(ws, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert resid < 1e-8
    assert peak <= 1.25e6


def test_single_mode_squeezer_variances():
    # S_b(theta)|0>: rotated-mode x-variance stretches, y squeezes; the state
    # spreads over every even sector, so it is measured on the pair space
    theta = 0.4
    pair = fock._PairSpace(64)
    gen = squeezer_generator(pair, theta)
    v = fock.expm_action(gen, pair_vacuum(pair))
    dx2, dy2, dx2_mirror, dy2_mirror = full_variances(pair, v)
    assert dx2 == pytest.approx(0.25 * math.exp(2.0 * theta), abs=1e-10)
    assert dy2 == pytest.approx(0.25 * math.exp(-2.0 * theta), abs=1e-10)
    # the mirror rotated mode stays in vacuum
    assert dx2_mirror == pytest.approx(0.25, abs=1e-10)
    assert dy2_mirror == pytest.approx(0.25, abs=1e-10)


def test_entropy_flow_residual_and_order(ws64):
    for t_eff in (0.1, 0.5, 1.0):
        theta = t_eff + 0.3
        r1 = fock.check_entropy_flow(ws64, theta, 1.0, 0.3, 1e-4)
        r2 = fock.check_entropy_flow(ws64, theta, 1.0, 0.3, 5e-5)
        assert r1 < 1e-6
        assert 3.5 < r1 / r2 < 4.5


def test_entropy_flow_rejects_singular_point(ws64):
    with pytest.raises(ValueError):
        fock.check_entropy_flow(ws64, 0.3, 1.0, 0.3, 1e-4)


# ---------------------------------------------------------------------------
# property tests


@given(theta=st.floats(min_value=-0.9, max_value=0.9, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_memory_vector_norm_property(theta, ws64):
    v = fock.memory_vector(ws64, theta)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)


@given(ta=st.floats(min_value=0.0, max_value=0.9, allow_nan=False),
       tb=st.floats(min_value=0.0, max_value=0.9, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_oracle_overlap_matches_gap_law(ta, tb, ws64):
    va = fock.memory_vector(ws64, ta)
    vb = fock.memory_vector(ws64, tb)
    assert fock.oracle_overlap(va, vb) == pytest.approx(
        1.0 / math.cosh(ta - tb), abs=1e-9)
