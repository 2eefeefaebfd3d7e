"""Thermodynamic layer: entropy, effective temperature, free energy, first law.

Key closed forms used as independent oracles here:
  s(Theta) = (1+x) ln(1+x) - x ln x with x = sinh^2(Theta)
  beta_kappa * omega = ln(1 + 1/x)  (Bose inversion)
At beta*omega = ln 2 the occupation is exactly 1 and the per-mode entropy
is exactly 2 ln 2 - 0 = 2 ln 2.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmem import states, thermo
from dqmem.states import (
    Code, MemoryState, ModeParams, effective_thetas, theta_from_beta, total_occupation)

# hand-derived: at occupation 1, s = 2 ln(2) - 1 ln(1) = 2 ln 2
TWO_LN2 = 1.3862943611198906
ASINH_1 = 0.8813735870195430


def single_mode(gamma=1.0, omega=1.0):
    return (ModeParams(0, omega, gamma),)


def make_state(theta, t=0.0, gamma=1.0, omega=1.0):
    return MemoryState(single_mode(gamma, omega), Code((theta,)), t)


def entropy_closed(theta_eff):
    # ln(1 + x) + x ln(1 + 1/x): both terms >= 0, unlike the cancelling
    # (1 + x) ln(1 + x) - x ln x, which is off by ~1e-11 already at |Theta| ~ 6;
    # below x = 1, x ln(1 + 1/x) = x (ln(1 + x) - ln x) avoids 1/x = inf
    x = math.sinh(theta_eff) ** 2
    if x == 0.0:
        return 0.0
    if x < 1.0:
        return math.log1p(x) + x * (math.log1p(x) - math.log(x))
    return math.log1p(x) + x * math.log1p(1.0 / x)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_frozen_at_unit_occupation():
    total, per_mode = thermo.entropy(make_state(ASINH_1))
    assert total == pytest.approx(TWO_LN2, rel=1e-13)
    assert per_mode.shape == (1,)


def test_entropy_zero_only_at_empty():
    assert thermo.entropy(make_state(0.0))[0] == 0.0
    assert thermo.entropy(make_state(0.8, t=0.8))[0] == 0.0
    assert thermo.entropy(make_state(1e-3))[0] > 0.0


def test_entropy_even_in_the_parameter():
    # Theta and -Theta give the same occupation, hence the same entropy
    before = thermo.entropy(make_state(0.6, t=0.0))[0]   # Theta = -0.6
    after = thermo.entropy(make_state(0.6, t=1.2))[0]    # Theta = +0.6
    assert before == pytest.approx(after, rel=1e-13)


def test_entropy_sums_over_register():
    modes = (ModeParams(0, 1.0, 1.0), ModeParams(1, 2.0, 0.5))
    s = MemoryState(modes, Code((0.5, 0.9)))
    total, per_mode = thermo.entropy(s)
    assert total == pytest.approx(entropy_closed(0.5) + entropy_closed(0.9),
                                  rel=1e-13)
    assert per_mode[0] == pytest.approx(entropy_closed(0.5), rel=1e-13)


@given(theta=st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
       t=st.floats(min_value=0.0, max_value=3.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_entropy_matches_closed_form(theta, t):
    total, _ = thermo.entropy(make_state(theta, t=t))
    assert total == pytest.approx(entropy_closed(t - theta), rel=1e-11,
                                  abs=1e-13)


def test_entropy_large_theta_asymptote():
    # s = 2|Theta| + 1 - 2 ln 2 + O(|Theta| e^{-2|Theta|}): exact to round-off
    # from |Theta| = 20; the cancelling form returned 0.0 at Theta = 29
    thetas = np.array([20.0, -29.0, 29.0, 57.5, -150.0, 350.0])
    s = thermo._entropy_per_mode(thetas)
    assert np.allclose(s, 2.0 * np.abs(thetas) + 1.0 - 2.0 * math.log(2.0),
                       rtol=1e-14, atol=0.0)
    trace = thermo.entropy_trace(make_state(0.5, gamma=1.0), np.array([29.5]))
    assert trace[0] == pytest.approx(2.0 * 29.0 + 1.0 - 2.0 * math.log(2.0),
                                     rel=1e-14)


def test_entropy_finite_where_sinh_squared_overflows():
    # sinh^2 overflows from |Theta| ~ 355.7; the old forms gave inf * 0 = nan
    thetas = np.array([356.0, -356.0, 800.0, -800.0, 1e4, -1e4])
    with np.errstate(over="raise", invalid="raise"):
        s = thermo._entropy_per_mode(thetas)
    assert np.all(np.isfinite(s))
    assert np.allclose(s, 2.0 * np.abs(thetas) + 1.0 - 2.0 * math.log(2.0),
                       rtol=1e-15, atol=0.0)


def test_entropy_tiny_theta_finite_and_zero_at_origin():
    s = thermo._entropy_per_mode(np.array([0.0, 5e-324, 1e-160, 1e-3]))
    assert s[0] == 0.0 and s[1] == 0.0
    assert np.all(np.isfinite(s)) and 0.0 < s[2] < s[3]


# ---------------------------------------------------------------------------
# effective temperature


def test_effective_beta_frozen():
    # occupation 1  <->  beta*omega = ln 2
    assert thermo.effective_beta(make_state(ASINH_1), 0) == pytest.approx(
        math.log(2.0), rel=1e-13)


def test_effective_beta_infinite_on_empty_pair():
    assert thermo.effective_beta(make_state(0.0), 0) == math.inf
    assert thermo.effective_beta(make_state(0.5, t=0.5), 0) == math.inf


def test_bose_occupation_inverts_beta():
    n = thermo.bose_occupation(math.log(2.0), 1.0)
    assert n == pytest.approx(1.0, rel=1e-14)
    for beta in (-1.0, -5e-324, math.nan):
        with pytest.raises(ValueError, match="beta must be >= 0"):
            thermo.bose_occupation(beta, 1.0)
    assert thermo.bose_occupation(0.0, 1.0) == thermo.bose_occupation(-0.0, 1.0) == math.inf


@given(beta=st.floats(min_value=0.05, max_value=5.0, allow_nan=False),
       omega=st.floats(min_value=0.2, max_value=4.0, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_beta_occupation_round_trip(beta, omega):
    theta = theta_from_beta(beta, omega)
    state = MemoryState((ModeParams(0, omega, 1.0),), Code((theta,)))
    assert thermo.effective_beta(state, 0) == pytest.approx(beta, rel=1e-12)


# ---------------------------------------------------------------------------
# free energy and stationarity


def test_free_energy_requires_positive_beta():
    with pytest.raises(ValueError):
        thermo.free_energy(make_state(0.5), 0.0)


def test_stationarity_zero_at_the_effective_beta():
    state = make_state(0.8)
    beta_star = thermo.effective_beta(state, 0)
    resid = thermo.stationarity_residual(state, beta_star)
    assert abs(resid[0]) < 1e-10


def test_stationarity_zero_at_empty_pair_any_beta():
    state = make_state(0.5, t=0.5)
    for beta in (0.1, 1.0, 10.0):
        assert thermo.stationarity_residual(state, beta)[0] == 0.0


def test_stationarity_sign_tracks_temperature_mismatch():
    # at t = 0 the pair sits at Theta = -theta < 0; colder probe (larger
    # beta) pulls the gradient one way, hotter the other
    state = make_state(0.8)
    beta_star = thermo.effective_beta(state, 0)
    colder = thermo.stationarity_residual(state, 2.0 * beta_star)[0]
    hotter = thermo.stationarity_residual(state, 0.5 * beta_star)[0]
    assert colder < 0.0 < hotter


def test_stationarity_by_finite_difference():
    # compare the analytic gradient to a central difference of F(beta fixed)
    # in Theta; the FD scale must account for curvature at larger Theta
    for theta in (0.3, 0.8, 1.5):
        state = make_state(theta)
        beta_star = thermo.effective_beta(state, 0)
        h = 1e-6
        up = MemoryState(state.modes, Code((theta - h,)))
        down = MemoryState(state.modes, Code((theta + h,)))
        fd = (thermo.free_energy(up, beta_star)
              - thermo.free_energy(down, beta_star)) / (2.0 * h)
        analytic = thermo.stationarity_residual(state, beta_star)[0]
        scale = max(1.0, abs(analytic))
        assert abs(fd - analytic) / scale < 1e-6


# ---------------------------------------------------------------------------
# entropy trace


def test_entropy_trace_minimum_at_forgetting_time():
    state = make_state(0.8)
    ts = np.linspace(0.0, 1.6, 2001)  # grid step 1e-3 * tau
    trace = thermo.entropy_trace(state, ts)
    i = int(np.argmin(trace))
    assert ts[i] == pytest.approx(0.8, abs=1e-12)
    assert trace[i] == 0.0
    # unique minimum: strictly larger on both neighbors
    assert trace[i - 1] > 0.0 and trace[i + 1] > 0.0


def test_entropy_trace_symmetric_about_tau():
    state = make_state(0.8)
    left = thermo.entropy_trace(state, np.array([0.3]))[0]   # Theta = -0.5
    right = thermo.entropy_trace(state, np.array([1.3]))[0]  # Theta = +0.5
    assert left == pytest.approx(right, rel=1e-12)


def test_entropy_trace_monotone_segments():
    state = make_state(0.8)
    ts = np.linspace(0.0, 1.6, 801)
    trace = thermo.entropy_trace(state, ts)
    i = int(np.argmin(trace))
    assert np.all(np.diff(trace[: i + 1]) < 0.0)
    assert np.all(np.diff(trace[i:]) > 0.0)


def test_entropy_trace_rejects_bad_grid():
    state = make_state(0.5)
    with pytest.raises(ValueError):
        thermo.entropy_trace(state, np.array([0.2, 0.1]))
    with pytest.raises(ValueError):
        thermo.entropy_trace(state, np.array([-0.1, 0.2]))


# ---------------------------------------------------------------------------
# first law


def ledger_error(theta, gamma, n):
    # summed |residual| is the global discretization error, O(h^2); the
    # per-step residual is the O(h^3) local error and halves ~8x instead
    state = make_state(theta, gamma=gamma)
    ts = np.linspace(0.05, 0.75, n)
    led = thermo.first_law_ledger(state, ts)
    return sum(abs(r) for r, f in zip(led.residual, led.flagged) if not f)


def test_first_law_second_order_in_step():
    r1 = ledger_error(0.8, 1.0, 101)
    r2 = ledger_error(0.8, 1.0, 201)
    r3 = ledger_error(0.8, 1.0, 401)
    assert 3.5 < r1 / r2 < 4.5
    assert 3.5 < r2 / r3 < 4.5


def test_first_law_exact_without_damping():
    state = make_state(0.8, gamma=0.0)
    led = thermo.first_law_ledger(state, np.linspace(0.0, 2.0, 21))
    assert all(r == 0.0 for r in led.residual)
    assert all(d == 0.0 for d in led.delta_energy)
    assert not any(led.flagged)


def test_first_law_flags_the_crossing_step():
    # tau = 0.8 falls inside one step of this grid; that step is flagged
    state = make_state(0.8)
    ts = np.linspace(0.5, 1.1, 7)  # steps of 0.1, crossing inside (0.7, 0.8]
    led = thermo.first_law_ledger(state, ts)
    assert any(led.flagged)
    flagged_steps = [i for i, f in enumerate(led.flagged) if f]
    for i in flagged_steps:
        assert ts[i] <= 0.8 <= ts[i + 1]


def test_first_law_heat_aliases_entropy_term():
    state = make_state(0.6)
    led = thermo.first_law_ledger(state, np.linspace(0.05, 0.55, 11))
    assert led.heat == led.entropy_term


def test_first_law_energy_change_is_exact():
    state = make_state(0.6, omega=2.0)
    ts = np.linspace(0.1, 0.5, 5)
    led = thermo.first_law_ledger(state, ts)
    for i, de in enumerate(led.delta_energy):
        want = 2.0 * (math.sinh(ts[i + 1] - 0.6) ** 2
                      - math.sinh(ts[i] - 0.6) ** 2)
        assert de == pytest.approx(want, rel=1e-12)


def test_first_law_refuses_an_energy_past_the_float_range():
    # sinh^2 Theta overflows from |Theta| ~ 355.7; the ledger names the first
    # grid time whose energy is inf
    with pytest.raises(ValueError, match=r"energy at time 0\.0 is not finite"):
        thermo.first_law_ledger(make_state(800.0), np.linspace(0.0, 1.0, 3))
    with pytest.raises(ValueError, match=r"energy at time 400\.0 is not finite"):
        thermo.first_law_ledger(make_state(0.0), np.array([0.0, 100.0, 400.0, 800.0]))


# ---------------------------------------------------------------------------
# snapshot


def test_snapshot_energy_past_the_float_range_is_inf_without_a_warning():
    # one mode whose sinh^2 Theta overflows, and four whose finite
    # occupations and energies (sinh^2 355.5 ~ 1.5e308) sum past the range
    four = MemoryState(tuple(ModeParams(i, 1.0, 1.0) for i in range(4)),
                       Code((355.5,) * 4), 0.0)
    for state in (make_state(800.0), four):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snap = thermo.thermo_snapshot(state)
            occupation = total_occupation(state)
        assert snap.energy == occupation == math.inf
        assert math.isfinite(snap.entropy)
    assert math.isfinite(states.occupation(four, 0))


def test_public_functions_past_the_float_range_give_values_or_sentinels():
    # code (800,) at t = 0, so Theta = -800: sinh^2 Theta and e^{-2 Theta} leave
    # the float range. Every public states/thermo function gives finite values
    # or the documented sentinels (inf, and the 0.0 its partner underflows
    # to), with no warning and no nan; first_law_ledger refuses the grid
    state = make_state(800.0)
    tiny = math.ulp(0.0)  # the pair's own beta, 4 e^-1600, underflows to 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = {
            "log_cosh": states.log_cosh(effective_thetas(state)).tolist(),
            "theta_from_beta": states.theta_from_beta(tiny, 1.0),
            "effective_theta": states.effective_theta(state, 0),
            "effective_thetas": effective_thetas(state).tolist(),
            "occupation": states.occupation(state, 0),
            "Code.occupations": state.code.occupations(),
            "total_occupation": total_occupation(state),
            "evolve": states.evolve(state, 1.0).time,
            "refresh": states.refresh(state, Code((1.0,))).time,
            "log_overlap": states.log_overlap(state, state),
            "overlap": states.overlap(state, state),
            "vacuum_overlap": states.vacuum_overlap(state),
            "forgetting_time": states.forgetting_time(state),
            "variances": states.variances(state, 0),
            "quantum_numbers": states.quantum_numbers(state, 0),
            "entropy": thermo.entropy(state)[0],
            "effective_beta": thermo.effective_beta(state, 0),
            "bose_occupation": (thermo.bose_occupation(tiny, 1.0),
                                thermo.bose_occupation(thermo.effective_beta(state, 0), 1.0)),
            "free_energy": thermo.free_energy(state, 1.0),
            "stationarity_residual": thermo.stationarity_residual(state, 1.0).tolist(),
            "entropy_trace": thermo.entropy_trace(state, [0.0, 1.0]).tolist(),
            "thermo_snapshot": thermo.thermo_snapshot(state),
        }
        with pytest.raises(ValueError, match=r"energy at time 0\.0 is not finite"):
            thermo.first_law_ledger(state, [0.0, 1.0])
    def s(a):  # the entropy at |Theta| = a past the float range: 2 ln cosh a + 1
        return 2.0 * (a - math.log(2.0)) + 1.0
    inf = math.inf
    assert got == {
        "log_cosh": [800.0 - math.log(2.0)],
        "theta_from_beta": inf,
        "effective_theta": -800.0,
        "effective_thetas": [-800.0],
        "occupation": inf,
        "Code.occupations": (inf,),
        "total_occupation": inf,
        "evolve": 1.0,
        "refresh": 0.0,
        "log_overlap": 0.0,
        "overlap": 1.0,
        "vacuum_overlap": 0.0,
        "forgetting_time": 800.0,
        "variances": states.Variances(inf, 0.0, 0.0, inf),
        "quantum_numbers": states.QuantumNumbers(0.0, inf),
        "entropy": s(800.0),
        "effective_beta": 0.0,
        "bose_occupation": (inf, inf),
        "free_energy": inf,
        "stationarity_residual": [-inf],
        "entropy_trace": [s(800.0), s(799.0)],
        "thermo_snapshot": thermo.ThermoSnapshot(0.0, (s(800.0),), s(800.0), inf, (0.0,),
                                                 0.0, 0.0),
    }
    public = {name for module in (states, thermo) for name in module.__all__
              if not isinstance(getattr(module, name), type)}
    assert public == set(got) - {"Code.occupations"} | {"first_law_ledger"}


@pytest.mark.parametrize("theta", [-354.0, -20.0, -0.5, 0.0, 1e-300, 0.7, 300.0, 354.0])
def test_scalar_observables_in_range_keep_their_bits(theta):
    # inside the float range the sentinel handling leaves every bit as it was
    state = make_state(-theta if theta < 0.0 else 0.0, t=max(theta, 0.0))
    t = states.effective_theta(state, 0)
    assert states.occupation(state, 0) == states._occupations(np.array([t]))[0]
    assert states.variances(state, 0) == states.Variances(
        0.25 * math.exp(-2.0 * t), 0.25 * math.exp(2.0 * t),
        0.25 * math.exp(2.0 * t), 0.25 * math.exp(-2.0 * t))
    ts = np.array([t])
    want = 0.0 if t == 0.0 else np.sinh(2.0 * ts) * (1.0 - thermo._beta_energy(ts) / 0.5)
    assert thermo.stationarity_residual(state, 0.5).tolist() == np.ravel(want).tolist()


def test_variance_whose_exponential_alone_overflows_stays_finite():
    # e^{710} overflows, a quarter of it does not
    v = states.variances(make_state(355.0), 0)
    assert v.dx2 == v.dy2_mirror == pytest.approx(math.exp(710.0 - 2.0 * math.log(2.0)),
                                                  rel=1e-13)
    assert v.dy2 == v.dx2_mirror == 0.25 * math.exp(-710.0)


def beta_fit_loop(y, energies):
    # the per-row fit _beta_fit replaced: numpy sums and a BLAS norm
    finite = np.isfinite(y)
    if not finite.any():
        return math.inf, 0.0
    ef, yf = energies[finite], y[finite]
    fit = float((ef * yf).sum() / (ef * ef).sum())
    return fit, float(np.linalg.norm(yf - fit * ef))


def test_beta_fit_block_matches_the_per_row_fit():
    rng = np.random.default_rng(5)
    energies = rng.uniform(0.5, 3.0, size=8)
    y = rng.uniform(0.01, 5.0, size=(40, 8))
    y[rng.random(y.shape) < 0.3] = np.inf  # empty modes
    y[0] = np.inf
    fit, residual = thermo._beta_fit(y, energies)
    # only the summation order differs: a few ulps over 8 terms
    for row, b, r in zip(y, fit, residual):
        want_fit, want_residual = beta_fit_loop(row, energies)
        assert b == pytest.approx(want_fit, rel=4 * 8 * 2.0 ** -52, abs=0.0)
        assert r == pytest.approx(want_residual, rel=1e-13, abs=0.0)
    assert (fit[0], residual[0]) == (math.inf, 0.0)


def test_snapshot_fields_consistent():
    modes = (ModeParams(0, 1.0, 1.0), ModeParams(1, 2.0, 0.5))
    state = MemoryState(modes, Code((0.5, 0.9)), 0.1)
    snap = thermo.thermo_snapshot(state)
    assert snap.time == 0.1
    assert snap.entropy == pytest.approx(thermo.entropy(state)[0], rel=1e-14)
    want_energy = (1.0 * math.sinh(0.1 - 0.5) ** 2
                   + 2.0 * math.sinh(0.05 - 0.9) ** 2)
    assert snap.energy == pytest.approx(want_energy, rel=1e-12)
    assert snap.beta_per_mode[0] == pytest.approx(
        thermo.effective_beta(state, 0), rel=1e-14)


def test_snapshot_thermal_state_has_uniform_beta():
    # a code printed from one bath temperature fits that beta exactly
    beta = 1.3
    modes = (ModeParams(0, 0.7, 1.0), ModeParams(1, 1.9, 1.0))
    code = Code(tuple(theta_from_beta(beta, m.omega) for m in modes))
    snap = thermo.thermo_snapshot(MemoryState(modes, code))
    assert snap.beta_fit == pytest.approx(beta, rel=1e-12)
    assert snap.beta_fit_residual < 1e-12


def test_snapshot_empty_state_sentinels():
    snap = thermo.thermo_snapshot(make_state(0.0))
    assert snap.entropy == 0.0
    assert snap.energy == 0.0
    assert snap.beta_fit == math.inf
    assert snap.beta_fit_residual == 0.0


def test_ledger_delta_energy_is_the_snapshot_energy_difference():
    modes = tuple(ModeParams(i, w, g) for i, (w, g)
                  in enumerate(zip((0.7, 1.3, 1.9, 0.55), (0.5, 1.4, 0.8, 0.0))))
    state = MemoryState(modes, Code((2.9, 0.6, 1.7, 2.2)))
    ts = np.linspace(0.0, 10.0, 201)
    led = thermo.first_law_ledger(state, ts)
    energy = [thermo.thermo_snapshot(MemoryState(modes, state.code, t)).energy
              for t in ts.tolist()]
    assert led.delta_energy == tuple(b - a for a, b in zip(energy, energy[1:]))


def test_ledger_heat_is_the_fsum_of_its_per_mode_terms():
    # each step's heat is math.fsum of its per-mode terms ds_k E_k / (beta_k E_k)
    # at the step midpoint, bit for bit
    rng = np.random.default_rng(411)
    k = 16
    modes = tuple(ModeParams(i, w, g) for i, (w, g)
                  in enumerate(zip(rng.uniform(0.5, 2.0, k), rng.uniform(0.5, 1.5, k))))
    code = Code(tuple(rng.uniform(0.5, 3.0, k)))
    ts = np.linspace(0.0, 20.0, 400).tolist()
    led = thermo.first_law_ledger(MemoryState(modes, code), ts)

    def thetas(t):
        return effective_thetas(MemoryState(modes, code, t))

    energies = np.array([m.omega for m in modes])
    s = [thermo._entropy_per_mode(thetas(t)) for t in ts]
    want = []
    for i, (a, b) in enumerate(zip(ts, ts[1:])):
        weight = energies / thermo._beta_energy(thetas(0.5 * (a + b)))
        want.append(math.fsum(((s[i + 1] - s[i]) * weight).tolist()))
    assert led.entropy_term == tuple(want)


def test_stationarity_at_the_pairs_own_beta_past_the_float_range_is_zero():
    # at Theta = -360 sinh(2 Theta) overflows, and at the pair's own beta,
    # a subnormal, the bracket E - y/beta is exactly 0: the gradient is 0.0
    state = make_state(360.0)
    beta = thermo.effective_beta(state, 0)
    assert 0.0 < beta < 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert thermo.stationarity_residual(state, beta).tolist() == [0.0]
        assert thermo.stationarity_residual(state, 1.0).tolist() == [-math.inf]
