"""Fock-space oracle layer: operators, coded vacua, evolution, residual checks.

The oracle is trusted because its pieces are checked here against hand
arithmetic: ladder matrix entries are literal square roots, coded-vacuum
amplitudes follow the printed geometric law, and every closed form used
elsewhere in the package is reproduced by raw matrix algebra on the
truncated space.
"""

import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmem import fock
from dqmem.states import Variances

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
    blocks = [
        (ws.a, pair.a, minus), (ws.atildag, pair.atildag, minus),
        (ws.atil, pair.atil, plus), (ws.adag, pair.adag, plus),
        (ws.j_plus, pair.j_plus, zero), (ws.j_minus, pair.j_minus, zero),
        (ws.h_int, pair.h_int, zero), (ws.number, pair.number, zero),
        (ws.number_flipped, pair.a @ pair.adag, zero),
    ]
    blocks += [(q, full, side) for q, full in zip(ws.quadratures, full_quadratures(pair))]
    for block, full, rows in blocks:
        want = dense(full)[np.ix_(rows, zero)]
        got = dense(block)
        assert got.shape == want.shape
        assert np.all(got == want)
    inside = pair.interior.coef[0]
    for s, states in ((-1, minus), (0, zero), (1, plus)):
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
    # full-space expectation on the embedded state to round-off
    for big_t in (-0.8, 0.3):
        v = fock.memory_vector(ws32, -big_t)
        w = embed(pair32, v)
        assert fock.occupation_expectation(ws32, v) == pytest.approx(
            fock._norm(pair32.a.dot(w)) ** 2, rel=1e-14)
        assert fock.mirror_occupation_expectation(ws32, v) == pytest.approx(
            fock._norm(pair32.atil.dot(w)) ** 2, rel=1e-14)
        q = fock.quadrature_variances(ws32, v)
        full = full_variances(pair32, w)
        assert [q.dx2, q.dy2, q.dx2_mirror, q.dy2_mirror] == pytest.approx(full, rel=1e-14)
        ch, sh = math.cosh(big_t), math.sinh(big_t)
        r1 = pair32.interior.dot(pair32.adag.dot(w) / ch - pair32.atil.dot(w) / sh)
        r2 = pair32.interior.dot(pair32.atildag.dot(w) / ch - pair32.a.dot(w) / sh)
        got = fock.check_hole_relations(ws32, v, big_t)
        assert got == pytest.approx((fock._norm(r1), fock._norm(r2)), abs=1e-15)


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
    assert np.array_equal(dense(edge @ edge), dense(edge) @ dense(edge))
    assert np.array_equal((edge @ edge).dot(x[:3]), dense(edge) @ dense(edge) @ x[:3])
    assert np.array_equal(dense((edge @ edge).H), dense(edge @ edge).conj().T)
    square = random_shifts(rng, 12, 12, (-5, -2, 0, 3, 7), dtype)
    keep = np.array([0, 2, 3, 7, 8, 11])
    block = fock._restrict(square, keep)
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
    gen = pair.squeezer_generator(0.5)
    for op in (real, fock._restrict(gen, even_half(pair))):
        x = rng.normal(size=op.shape[1])
        assert np.array_equal(op.dot(x), sparse.csr_matrix(dense(op).real).dot(x))
    want = sparse.csr_matrix(dense(pair.b)) @ sparse.csr_matrix(dense(pair.b))
    assert np.array_equal(dense(pair.b @ pair.b), want.toarray())


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
    pair = fock._PairSpace(d_pad)
    even = even_half(pair)
    v = np.zeros(even.size)
    v[0] = 1.0
    return fock._restrict(pair.squeezer_generator(r), even), v


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
        before = dict(fock._TAYLOR_WORK)
        fock.expm_action(op, v)
        return tuple(fock._TAYLOR_WORK[k] - before[k] for k in ("stages", "terms"))

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
    bad = v.copy()
    bad[3] = np.nan
    with pytest.raises(ValueError, match="vector has a non-finite entry"):
        fock.evolve_vector(ws, bad, 0.1)
    bad[3] = np.inf
    with pytest.raises(ValueError, match="vector has a non-finite entry"):
        fock.expm_action(ws.h_int, bad)


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
            sq = pair.squeezer_generator(0.5, mirror=mirror)
            for d, c in sq.coef.items():
                rows = np.flatnonzero(c)
                assert rows.size and np.array_equal(even[rows], even[rows + d])
    # the sector-0 exponents are tridiagonal and couple every pair of
    # neighbouring levels, so a memory state reaches the whole block and
    # expm_action needs no support search
    for op in (ws32.h_int, ws32.generator(0.5)):
        assert set(op.coef) <= {-1, 0, 1}
        assert np.all(op.coef[1][:-1] != 0) and np.all(op.coef[-1][1:] != 0)


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
        assert fock.mirror_occupation_expectation(ws64, v) == pytest.approx(
            math.sinh(theta) ** 2, abs=1e-9)


def test_overlap_pair_law(ws64):
    va = fock.memory_vector(ws64, 0.3)
    vb = fock.memory_vector(ws64, 0.9)
    assert fock.oracle_overlap(va, vb) == pytest.approx(
        1.0 / math.cosh(0.6), abs=1e-10)
    assert fock.oracle_overlap(va, ws64.vacuum()) == pytest.approx(
        1.0 / math.cosh(0.3), abs=1e-10)


def test_weight_and_casimir(ws64):
    v = fock.memory_vector(ws64, 0.8)
    assert fock.weight_expectation(ws64, v) == pytest.approx(
        math.sinh(0.8) ** 2, abs=1e-9)
    assert abs(fock.casimir_expectation(ws64, v)) < 1e-10


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


# ---------------------------------------------------------------------------
# hole relations, squeezing, entropy flow


def test_hole_relations_on_the_flow(ws64):
    for mag in (0.1, 0.6, 1.2):
        for sign in (1.0, -1.0):
            t_eff = sign * mag
            v = fock.memory_vector(ws64, -t_eff)
            r1, r2 = fock.check_hole_relations(ws64, v, t_eff)
            assert r1 < 1e-8 and r2 < 1e-8


def test_hole_relations_reject_vacuum_limit(ws64):
    v = fock.memory_vector(ws64, 0.0)
    with pytest.raises(ValueError):
        fock.check_hole_relations(ws64, v, 0.0)


def test_hole_relations_fail_off_the_flow(ws64):
    # a state with the wrong parameter must NOT satisfy the relations
    v = fock.memory_vector(ws64, -0.4)
    r1, r2 = fock.check_hole_relations(ws64, v, 0.8)
    assert max(r1, r2) > 1e-2


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


def test_squeeze_check_builds_only_what_it_squeezes(ws64):
    # the pair space builds each operator on first use: at theta = 1 the
    # check holds the ladder operators and b or btil of a 102^2-state space
    tracemalloc.start()
    try:
        fock.check_squeeze_factorization(ws64, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_single_mode_squeezer_variances():
    # S_b(theta)|0>: rotated-mode x-variance stretches, y squeezes; the state
    # spreads over every even sector, so it is measured on the pair space
    theta = 0.4
    pair = fock._PairSpace(64)
    gen = pair.squeezer_generator(theta, mirror=False)
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


def test_casimir_invariant_along_flow(ws64):
    for t in (0.0, 0.4, 0.8, 1.4):
        v = fock.memory_vector(ws64, 0.9 - t)
        assert abs(fock.casimir_expectation(ws64, v)) < 1e-10


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
