"""Closed-form layer: codes, effective parameters, overlaps, observables.

Frozen constants below are hand-derived from the analytic forms
(occupation sinh^2, overlap 1/cosh of the parameter gap, variances
exp(-/+2 Theta)/4) so the implementation is checked against independent
arithmetic, not against itself.
"""

import math
import re
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmem import states, thermo
from dqmem.states import (
    Code,
    MemoryState,
    ModeParams,
    QuantumNumbers,
    _row_sums,
    effective_theta,
    effective_thetas,
    evolve,
    forgetting_time,
    log_cosh,
    log_overlap,
    occupation,
    overlap,
    quantum_numbers,
    refresh,
    theta_from_beta,
    total_occupation,
    vacuum_overlap,
    variances,
)

# hand-derived: asinh(1) = ln(1 + sqrt 2); occupation sinh^2 = 1 exactly there
ASINH_1 = 0.8813735870195430
# hand-derived: acosh(2); the overlap across this parameter gap is exactly 1/2
ACOSH_2 = 1.3169578969248166
# hand-derived: sinh(1)^2 = (e - 1/e)^2 / 4
SINH1_SQ = 1.3810978455418157
# hand-derived: sech(1) = 2 / (e + 1/e)
SECH_1 = 0.6480542736638855
# hand-derived: e / 4 and 1 / (4 e), the variances at Theta = -0.5 and +0.5
E_OVER_4 = 0.6795704571147613
INV_4E = 0.09196986029286058


def single_mode(gamma=1.0, omega=1.0):
    return (ModeParams(0, omega, gamma),)


def make_state(theta, t=0.0, gamma=1.0, omega=1.0):
    return MemoryState(single_mode(gamma, omega), Code((theta,)), t)


finite_theta = st.floats(min_value=0.0, max_value=8.0, allow_nan=False)
pos_theta = st.floats(min_value=1e-3, max_value=8.0, allow_nan=False)
small_time = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


# ---------------------------------------------------------------------------
# construction and validation


def test_code_rejects_bad_thetas():
    with pytest.raises(ValueError):
        Code(())
    with pytest.raises(ValueError):
        Code((-0.1,))
    with pytest.raises(ValueError):
        Code((float("nan"),))
    with pytest.raises(ValueError):
        Code((float("inf"),))


def test_mode_params_validation():
    with pytest.raises(ValueError):
        ModeParams(-1, 1.0, 1.0)
    with pytest.raises(ValueError):
        ModeParams(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ModeParams(0, 1.0, -0.5)
    # gamma = 0 is a lossless pair, allowed
    ModeParams(0, 1.0, 0.0)


def test_state_register_must_be_contiguous():
    modes = (ModeParams(0, 1.0, 1.0), ModeParams(2, 1.0, 1.0))
    with pytest.raises(ValueError):
        MemoryState(modes, Code((0.1, 0.2)))


def test_state_code_length_must_match():
    with pytest.raises(ValueError):
        MemoryState(single_mode(), Code((0.1, 0.2)))


def test_state_time_nonnegative():
    with pytest.raises(ValueError):
        make_state(0.5, t=-0.1)


def test_code_occupation_round_trip_frozen():
    code = Code.from_occupations((1.0,))
    assert code.thetas[0] == pytest.approx(ASINH_1, abs=1e-15)
    assert code.occupations()[0] == pytest.approx(1.0, rel=1e-12)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
                min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_code_occupations_round_trip(occs):
    back = Code.from_occupations(occs).occupations()
    for want, got in zip(occs, back):
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ---------------------------------------------------------------------------
# effective parameter and occupation


def test_effective_theta_drains_linearly():
    s = make_state(0.8, t=0.3, gamma=1.0)
    assert effective_theta(s, 0) == pytest.approx(-0.5, abs=1e-15)
    assert effective_thetas(s)[0] == effective_theta(s, 0)


def test_occupation_frozen_value():
    assert occupation(make_state(1.0), 0) == pytest.approx(SINH1_SQ, rel=1e-14)


def test_occupation_vanishes_at_forgetting_time():
    s = make_state(0.8, t=0.8, gamma=1.0)
    assert occupation(s, 0) == 0.0


def test_total_occupation_sums_modes():
    modes = (ModeParams(0, 1.0, 1.0), ModeParams(1, 1.0, 0.5))
    s = MemoryState(modes, Code((1.0, 1.0)))
    assert total_occupation(s) == pytest.approx(2.0 * SINH1_SQ, rel=1e-13)


def test_total_occupation_is_the_fsum_of_the_occupations():
    # one occupation kernel: the scalar occupations sum to the total, bit for bit
    rng = np.random.default_rng(7)
    for _ in range(200):
        modes = tuple(ModeParams(i, 1.0, g) for i, g in enumerate(rng.uniform(0.5, 1.5, 4)))
        s = MemoryState(modes, Code(rng.uniform(0.0, 3.0, 4)), float(rng.uniform(0.0, 6.0)))
        assert math.fsum(occupation(s, i) for i in range(4)) == total_occupation(s)


def test_lossless_mode_keeps_its_theta():
    s = make_state(0.7, t=3.0, gamma=0.0)
    assert effective_theta(s, 0) == pytest.approx(-0.7)
    assert occupation(s, 0) == pytest.approx(math.sinh(0.7) ** 2, rel=1e-13)


# ---------------------------------------------------------------------------
# evolution


def test_evolve_accumulates_time():
    s = evolve(make_state(0.8), 0.25)
    assert s.time == 0.25
    with pytest.raises(ValueError):
        evolve(s, -0.1)


def test_refresh_resets_clock_and_code():
    aged = evolve(make_state(0.8), 1.0)
    fresh = refresh(aged, Code((0.3,)))
    assert fresh.time == 0.0
    assert fresh.code.thetas == (0.3,)
    assert fresh.modes == aged.modes
    with pytest.raises(ValueError) as exc:
        refresh(aged, Code((0.3, 0.4)))
    assert str(exc.value) == "replacement code length 2 != mode count 1"


@given(theta=pos_theta, t1=small_time, t2=small_time)
@settings(max_examples=100, deadline=None)
def test_evolve_is_a_semigroup(theta, t1, t2):
    s = make_state(theta)
    two_step = evolve(evolve(s, t1), t2)
    one_step = evolve(s, t1 + t2)
    assert two_step.time == pytest.approx(one_step.time, abs=1e-12)
    assert effective_theta(two_step, 0) == pytest.approx(
        effective_theta(one_step, 0), abs=1e-12)


def test_forgetting_time_takes_the_slowest_mode():
    modes = (ModeParams(0, 1.0, 1.0), ModeParams(1, 1.0, 0.5))
    s = MemoryState(modes, Code((0.8, 0.6)))
    assert forgetting_time(s) == pytest.approx(1.2, abs=1e-15)


def test_forgetting_time_infinite_without_damping():
    assert forgetting_time(make_state(0.5, gamma=0.0)) == math.inf


# ---------------------------------------------------------------------------
# overlaps


def test_overlap_frozen_half():
    a = make_state(0.0)
    b = make_state(ACOSH_2)
    assert overlap(a, b) == pytest.approx(0.5, abs=1e-14)


def test_vacuum_overlap_frozen():
    assert vacuum_overlap(make_state(1.0)) == pytest.approx(SECH_1, abs=1e-14)


def test_overlap_requires_same_register():
    a = make_state(0.5, gamma=1.0)
    b = make_state(0.5, gamma=0.5)
    with pytest.raises(ValueError):
        overlap(a, b)


def test_log_overlap_is_product_over_modes():
    modes = tuple(ModeParams(i, 1.0, 1.0) for i in range(3))
    a = MemoryState(modes, Code((0.1, 0.2, 0.3)))
    b = MemoryState(modes, Code((0.4, 0.6, 0.8)))
    want = -sum(math.log(math.cosh(d)) for d in (0.3, 0.4, 0.5))
    assert log_overlap(a, b) == pytest.approx(want, rel=1e-13)


@given(ta=finite_theta, tb=finite_theta, t=small_time)
@settings(max_examples=150, deadline=None)
def test_overlap_symmetric_bounded_and_maximal_on_equals(ta, tb, t):
    a = make_state(ta, t=t)
    b = make_state(tb, t=t)
    o = overlap(a, b)
    assert o == overlap(b, a)
    assert 0.0 < o <= 1.0
    assert overlap(a, a) == 1.0
    if ta == tb:
        assert o == 1.0


@given(theta=pos_theta)
@settings(max_examples=100, deadline=None)
def test_same_age_overlap_is_time_invariant(theta):
    a0, b0 = make_state(theta), make_state(theta / 2.0)
    a1, b1 = evolve(a0, 1.7), evolve(b0, 1.7)
    assert overlap(a1, b1) == pytest.approx(overlap(a0, b0), rel=1e-12)


# ---------------------------------------------------------------------------
# thermal parameterization


def test_theta_from_beta_frozen():
    # beta*omega = ln 2 puts exactly one quantum in the pair
    assert theta_from_beta(math.log(2.0), 1.0) == pytest.approx(ASINH_1, abs=1e-15)
    with pytest.raises(ValueError):
        theta_from_beta(0.0, 1.0)
    with pytest.raises(ValueError):
        theta_from_beta(1.0, -1.0)


def test_theta_from_beta_huge_beta_underflows_gracefully():
    assert theta_from_beta(1000.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_theta_from_beta_where_beta_energy_underflows_is_inf():
    # 5e-324 * 0.1 rounds to 0: the Bose factor is inf, as in bose_occupation
    assert theta_from_beta(5e-324, 0.1) == math.inf
    assert theta_from_beta(5e-324, 1.0) == math.inf
    for x in (0.0, 5e-324, 1e-300, 0.5, 700.0, 701.0, 1e308, math.inf):
        assert states._bose_factor(x) == thermo.bose_occupation(x, 1.0)


@given(beta=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
       omega=st.floats(min_value=0.2, max_value=4.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_thermal_round_trip(beta, omega):
    theta = theta_from_beta(beta, omega)
    n = math.sinh(theta) ** 2
    beta_back = math.log1p(1.0 / n) / omega
    assert beta_back == pytest.approx(beta, rel=1e-12)


# ---------------------------------------------------------------------------
# variances and sector labels


def test_variances_frozen_at_half():
    v = variances(make_state(0.5), 0)  # Theta = -0.5 at t = 0
    assert v.dx2 == pytest.approx(E_OVER_4, rel=1e-14)
    assert v.dy2 == pytest.approx(INV_4E, rel=1e-14)
    assert v.dx2_mirror == pytest.approx(INV_4E, rel=1e-14)
    assert v.dy2_mirror == pytest.approx(E_OVER_4, rel=1e-14)


def test_variances_vacuum_symmetric():
    v = variances(make_state(0.0), 0)
    assert v.dx2 == v.dy2 == 0.25


@given(theta=finite_theta, t=small_time)
@settings(max_examples=150, deadline=None)
def test_uncertainty_product_is_minimal(theta, t):
    v = variances(make_state(theta, t=t), 0)
    assert v.dx2 * v.dy2 == pytest.approx(1.0 / 16.0, rel=1e-12)
    assert v.dx2_mirror * v.dy2_mirror == pytest.approx(1.0 / 16.0, rel=1e-12)


def test_quantum_numbers_paired_sector():
    qn = quantum_numbers(make_state(1.0), 0)
    assert isinstance(qn, QuantumNumbers)
    assert qn.j == 0.0
    assert qn.m == pytest.approx(SINH1_SQ, rel=1e-14)


def test_quantum_numbers_index_checked():
    with pytest.raises(IndexError):
        quantum_numbers(make_state(1.0), 3)


# ---------------------------------------------------------------------------
# long-time behavior


def test_log_overlap_slope_saturates():
    # d log overlap / dt -> -sum(gamma) once every mode has decayed through
    modes = tuple(ModeParams(i, 1.0, 1.0) for i in range(4))
    s0 = MemoryState(modes, Code((0.2, 0.5, 0.9, 1.1)))
    ts = np.linspace(6.0, 12.0, 31)
    logs = [log_overlap(MemoryState(modes, s0.code, float(t)), s0) for t in ts]
    slope = np.polyfit(ts, logs, 1)[0]
    assert slope == pytest.approx(-4.0, rel=1e-4)


# ---------------------------------------------------------------------------
# accuracy against 70-digit decimal references: within 4 ulps, relatively

ULP4 = 4 * 2.0 ** -52


def decimal_ln_cosh(x: float) -> float:
    """ln cosh x of the float x, correctly rounded from 70 digits."""
    with localcontext() as ctx:
        ctx.prec = 70
        d = Decimal(x)
        return float(((d.exp() + (-d).exp()) / 2).ln())


def decimal_beta_energy(theta: float) -> float:
    """-ln tanh^2(theta) of the float theta, from 70 digits."""
    with localcontext() as ctx:
        ctx.prec = 70
        e = (2 * abs(Decimal(theta))).exp()
        return float(-(((e - 1) / (e + 1)) ** 2).ln())


@given(u=st.floats(min_value=0.0, max_value=5.0), sign=st.sampled_from([1.0, -1.0]))
@settings(max_examples=200, deadline=None)
def test_log_cosh_matches_a_decimal_reference(u, sign):
    # log-uniform |x| in [1, 1e5]; at most 3.7e-16 relative on 20 000 such points
    x = sign * 10.0 ** u
    want = decimal_ln_cosh(x)
    assert abs(float(log_cosh(x)) - want) <= ULP4 * want


# each kernel with its reference
NEAR_ZERO = {
    "log_cosh": (lambda x: float(log_cosh(x)), decimal_ln_cosh),
    "beta_energy": (lambda t: float(thermo._beta_energy(np.array([t]))[0]),
                    decimal_beta_energy),
    "effective_beta": (lambda t: thermo.effective_beta(make_state(t), 0),  # omega = 1
                       decimal_beta_energy),
}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="cancellation near 0: ROADMAP item 4's fixes are open")
@pytest.mark.parametrize("name, x", [
    ("log_cosh", 1e-8),  # 1.22 relative off: about x, not x^2 / 2
    ("log_cosh", 1e-12),  # 0.0
    ("beta_energy", 1e-12),  # 8.0e-7 relative off
    ("beta_energy", 1e-16),  # 2.8e-3 relative off
    ("effective_beta", 2.2e-17),  # inf, the empty-pair sentinel, for a pair not empty
])
def test_kernels_near_zero_miss_their_decimal_reference(name, x):
    kernel, reference = NEAR_ZERO[name]
    want = reference(x)
    assert abs(kernel(x) - want) <= ULP4 * want


# ---------------------------------------------------------------------------
# _row_sums: math.fsum of every row, bit for bit, inf for terms >= 0 past the range


def fsum_rows(block):
    return np.array([math.fsum(r) for r in block], dtype=float).reshape(len(block))


def fsum_or_inf(row):
    try:
        return math.fsum(row)
    except OverflowError:  # terms >= 0 summing past the float range
        if min(row) < 0.0:
            raise
        return math.inf


def same_bits(a, b):
    return np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))


_SIGNS = st.sampled_from([1.0, -1.0])
_ROW_ELEMENTS = {
    # one binade, so sums of a few terms land on exact half-ulp ties
    "binade": st.integers(2 ** 52, 2 ** 53 - 1).map(lambda m: m * 2.0 ** -52),
    # terms a half ulp of 1 and far below it: ties and second-level errors
    "ties": st.sampled_from([1.0, 1.5, 2.0 ** -52, 2.0 ** -53, 3 * 2.0 ** -54,
                             2.0 ** -106, 2.0 ** -107, 2.0 ** -160]),
    "subnormal": st.integers(1, 2 ** 20).map(lambda m: m * 2.0 ** -1074),
    "wide": st.floats(min_value=1e-300, max_value=1e300),
    "ln_cosh": st.floats(min_value=0.0, max_value=5.0).map(lambda x: float(log_cosh(x))),
}


@st.composite
def row_blocks(draw):
    n = draw(st.integers(0, 6))
    k = draw(st.integers(0, 64))
    kind = draw(st.sampled_from(sorted(_ROW_ELEMENTS)))
    signed = draw(st.booleans())
    element = _ROW_ELEMENTS[kind]
    if signed:
        element = st.builds(lambda s, x: s * x, _SIGNS, element)
    cells = draw(st.lists(element, min_size=n * k, max_size=n * k))
    return np.array(cells, dtype=float).reshape(n, k)


# rows of terms >= 0 outside the first tier's certificate, as patterns
# repeated to a block's width: a 0.0 term, a 2^-160 term beside 1.0, an
# all-zero row, sums that overflow (fsum raises, the row is inf) and a sum
# at the certificate's 2^1020 limit
_NONNEG_EDGE_ROWS = {
    "zero_term": [0.0] + [0.75] * 63,
    "tiny_term": [1.0, 2.0 ** -160] + [1.0] * 62,
    "all_zero": [0.0],
    "overflow": [sys.float_info.max],
    "overflow_late": [1.0, 1.7e308, 1.7e308],
    "at_limit": [2.0 ** 1019],
}


@given(block=row_blocks(),
       edges=st.lists(st.sampled_from(sorted(_NONNEG_EDGE_ROWS)), max_size=4))
@settings(max_examples=300, deadline=None)
def test_row_sums_equal_fsum_bit_for_bit(block, edges):
    if np.all(block >= 0.0):  # every unsigned draw
        k = block.shape[1]
        rows = [np.resize(np.array(_NONNEG_EDGE_ROWS[e]), k) for e in edges]
        block = np.vstack([block, *rows]) if rows else block
    got = _row_sums(block)
    assert got.shape == (block.shape[0],)
    assert same_bits(got, [fsum_or_inf(r) for r in block.tolist()])


def count_fsum_calls(monkeypatch):
    calls = []
    fsum = math.fsum

    def counting(xs):
        calls.append(1)
        return fsum(xs)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


@pytest.mark.parametrize("row, expected", [
    # 1 + 2^-53 is a tie the float sum rounds down to 1, and 2^-160 is lost
    # in the error sum q = 2^-53 (a nonzero second-level error): only the
    # exact sum sees that the row lies above the midpoint
    ([1.0, 2.0 ** -53, 2.0 ** -160], 1.0 + 2.0 ** -52),
    # s + q = 1 - 2^-54 rounds to 1.0: a half ulp above 1 but the whole
    # half ulp below it, so only the smaller ulp below a power of two sends
    # this row to fsum
    ([1.0, -2.0 ** -54, -2.0 ** -160], 1.0 - 2.0 ** -53),
    # |e3| sits below the half ulp of 1.5 by less than the second-level
    # errors, so only their bound sends this row to fsum
    ([1.5, 2.0 ** -107, -2.0 ** -107, 2.0 ** -108, 2.0 ** -53, 2.0 ** -106,
      -2.0 ** -106], 1.5 + 2.0 ** -52),
])
def test_row_sums_fallback_decides_second_level_near_ties(monkeypatch, row, expected):
    clear = [1.0, 2.0 ** -60, 2.0 ** -160] + [0.0] * (len(row) - 3)
    calls = count_fsum_calls(monkeypatch)
    got = _row_sums(np.array([row, clear]))
    monkeypatch.undo()
    assert len(calls) == 1
    assert got[0] == math.fsum(row) == expected
    assert got[1] == math.fsum(clear) == 1.0


def test_row_sums_empty_blocks_skip_the_column_loop():
    for shape in ((0, 0), (0, 5), (3, 0)):
        assert same_bits(_row_sums(np.zeros(shape)), np.zeros(shape[0]))


def test_row_sums_clustered_registry_block_takes_no_fallback(monkeypatch):
    # clustered K = 16 codes; every pair's ln cosh gaps, as fidelity_matrix sums them
    rng = np.random.default_rng(411)
    centers = rng.uniform(0.2, 2.5, size=(10, 16))
    codes = np.abs(centers[rng.integers(10, size=200)]
                   + rng.normal(0.0, 0.08, size=(200, 16)))
    rows, cols = np.triu_indices(len(codes), 1)
    block = log_cosh(codes[cols] - codes[rows])
    expected = fsum_rows(block)
    calls = count_fsum_calls(monkeypatch)
    # the first tier certifies every row: no second cascade, no fsum
    cascade_calls = []
    second = states._second_cascade
    monkeypatch.setattr(states, "_second_cascade",
                        lambda x: cascade_calls.append(1) or second(x))
    got = _row_sums(block)
    monkeypatch.undo()
    assert cascade_calls == [] and calls == [] and same_bits(got, expected)


def test_row_sums_of_the_first_law_ledger_take_the_first_tier(monkeypatch):
    # the ledger's rows are signed, but every row of positive terms within
    # 2^53 / (2K) of its sum passes the first tier's certificate: on a
    # K = 16 trajectory grid like perfbench's, none reaches the second cascade
    rng = np.random.default_rng(1101)
    k = 16
    modes = tuple(ModeParams(i, w, g) for i, (w, g) in
                  enumerate(zip(rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 1.5, k))))
    state = MemoryState(modes, Code(rng.uniform(0.5, 3.0, k)))
    ts = np.linspace(0.0, 20.0, 5000)
    trace = thermo._trace(state, ts)
    blocks, cascaded = [], []
    row_sums, second = thermo._row_sums, states._second_cascade
    monkeypatch.setattr(thermo, "_row_sums", lambda x: blocks.append(x) or row_sums(x))
    monkeypatch.setattr(states, "_second_cascade",
                        lambda x: cascaded.extend(x.tolist()) or second(x))
    thermo._ledger(state, ts, trace)
    monkeypatch.undo()

    def well_conditioned(row):
        return min(row) > 0.0 and min(row) >= 2 * k * 2.0 ** -53 * math.fsum(row)

    (block,) = blocks
    assert sum(map(well_conditioned, block.tolist())) > len(block) // 2
    assert cascaded and not any(map(well_conditioned, cascaded))


@pytest.mark.parametrize("row", [
    [1e308, 1e308, -1e308], [1.7e308, 1.7e308],
    # the float sums never overflow here, but fsum's partials do
    [sys.float_info.max, 2.0 ** 969, 2.0 ** 969, -sys.float_info.max],
    [math.inf, -math.inf], [-math.inf, 2.0, math.inf]])
def test_row_sums_raise_what_fsum_raises(row):
    with pytest.raises((OverflowError, ValueError)) as want:
        math.fsum(row)
    block = np.array([[0.5] * len(row), row])
    if min(row) >= 0.0:  # terms >= 0 past the float range: the exact sum, inf
        assert _row_sums(block).tolist() == [0.5 * len(row), math.inf]
        return
    with pytest.raises(want.type, match=re.escape(str(want.value))):
        _row_sums(block)


def test_row_sums_pass_infinities_and_nan_through_fsum():
    block = np.array([[math.inf, 1.0], [1.0, -math.inf], [math.nan, 1.0], [0.5, 0.25]])
    assert same_bits(_row_sums(block), fsum_rows(block))
