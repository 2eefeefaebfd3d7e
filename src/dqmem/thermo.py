"""Thermodynamics of damped pair memories.

Each pair at effective parameter Theta looks exactly thermal: its occupation
sinh^2(Theta) is a Bose factor at inverse temperature beta_kappa determined
by beta_kappa E_kappa = -ln tanh^2(Theta_kappa), and the entropy expectation
has the closed form

    s(Theta) = cosh^2 ln cosh^2 - sinh^2 ln sinh^2.

The free energy Sum E sinh^2 - S/beta is stationary in each Theta exactly at
beta = beta_kappa, which is where the effective temperature comes from.
Different pairs generally disagree about beta, so multi-mode reports carry
per-mode values plus an optional least-squares single-beta fit with its
residual, never a fabricated global temperature.

The first law is verified as a discrete ledger: per time step,
residual = dE - (1/beta) dS with beta taken at the step midpoint. The
midpoint rule is second order, and steps in which a damped pair crosses
Theta = 0 (where beta diverges) are flagged rather than smoothed over.

All functions evaluate the closed-form trajectory Theta(t) = gamma t - theta
of the written code. Time grids are absolute ages since writing, each one
(T, K) Theta array (`states._trajectory`) whose rows are tested against
`thermo_snapshot` of the state at that time.
"""

from __future__ import annotations

import math

import numpy as np

from .states import (
    MemoryState,
    ModeParams,
    _Record,
    _bose_factor,
    _checked_times,
    _fsum_nonneg,
    _gammas,
    _occupations,
    _row_sums,
    _trajectory,
    effective_theta,
    effective_thetas,
    log_cosh,
)

__all__ = [
    "ThermoSnapshot",
    "FirstLawLedger",
    "entropy",
    "effective_beta",
    "bose_occupation",
    "free_energy",
    "stationarity_residual",
    "first_law_ledger",
    "entropy_trace",
    "thermo_snapshot",
]


def _entropy_per_mode(thetas: np.ndarray) -> np.ndarray:
    """s(Theta) = ln(1 + x) + x ln(1 + 1/x) elementwise, x = sinh^2 Theta.

    Both terms are >= 0, so nothing cancels; the textbook form
    (1 + x) ln(1 + x) - x ln x subtracts two terms of size x ln x and has
    lost every digit by |Theta| ~ 20. Below x = 1 the second term is taken
    as x (ln(1 + x) - ln x), so a subnormal x never forms 1/x = inf, and
    Theta = 0 gives exactly 0. Where x overflows (|Theta| > ~355.7) the
    first term is 2 ln cosh Theta and the second its limit 1, so s stays
    finite: 2|Theta| + 1 - 2 ln 2.
    """
    thetas = np.asarray(thetas, dtype=float)
    x = _occupations(thetas)
    finite = np.isfinite(x)
    head = np.where(finite, np.log1p(x), 2.0 * log_cosh(thetas))
    small = x < 1.0
    large = np.where(small | ~finite, 1.0, x)
    tail = np.where(
        small,
        x * (head - np.log(np.where(x > 0.0, x, 1.0))),
        np.where(finite, large * np.log1p(1.0 / large), 1.0),
    )
    return head + tail


def _beta_energy(thetas: np.ndarray) -> np.ndarray:
    """beta_kappa * E_kappa = -ln tanh^2(Theta), elementwise, inf at Theta = 0.

    Stable form 2(ln(1 + e^{-2|T|}) - ln(1 - e^{-2|T|})): accurate to
    round-off even for |T| ~ 5 where tanh is within 1e-4 of 1, which is what
    the 1e-12 round-trip contract needs.
    """
    ez = np.exp(-2.0 * np.abs(np.asarray(thetas, dtype=float)))
    with np.errstate(divide="ignore"):
        return 2.0 * (np.log1p(ez) - np.log1p(-ez))


def _energies(modes: tuple[ModeParams, ...]) -> np.ndarray:
    return np.array([m.omega for m in modes], dtype=float)


class ThermoSnapshot(_Record):
    """Thermodynamic readout of one state at one instant.

    beta_fit is the least-squares single inverse temperature over the modes
    with nonzero occupation (minimizing sum (y_k - beta E_k)^2 for
    y_k = beta_k E_k), with beta_fit_residual the root sum of squares left
    over; math.inf when every mode is empty. Empty modes (beta = inf) are
    excluded from the fit: no finite beta describes them and they carry no
    energy or entropy.
    """

    __slots__ = _fields = ("time", "entropy_per_mode", "entropy", "energy",
                           "beta_per_mode", "beta_fit", "beta_fit_residual")


class FirstLawLedger(_Record):
    """Discrete first-law bookkeeping over a time grid.

    Per step i (between times[i] and times[i+1]):
    entropy_term[i] = sum_k ds_k / beta_k(midpoint), correctly rounded, is the
    heat dQ by definition, residual[i] = delta_energy[i] - entropy_term[i], and
    flagged[i] marks steps where a damped mode's Theta changes sign (beta
    diverges inside the step, so the midpoint rule's premise fails there).
    """

    __slots__ = _fields = ("times", "delta_energy", "entropy_term", "residual", "flagged")

    @property
    def heat(self) -> tuple[float, ...]:
        """dQ per step; identical to entropy_term by the first law."""
        return self.entropy_term


def entropy(state: MemoryState) -> tuple[float, np.ndarray]:
    """Total and per-mode entropy of the state.

    Per mode s = cosh^2 Theta ln cosh^2 Theta - sinh^2 Theta ln sinh^2 Theta,
    which is the expectation of the modular entropy operator; even in Theta,
    zero only at Theta = 0.
    """
    per_mode = _entropy_per_mode(effective_thetas(state))
    return _fsum_nonneg(per_mode), per_mode


def effective_beta(state: MemoryState, kappa: int) -> float:
    """Inverse temperature of pair kappa: -ln tanh^2(Theta) / E.

    Returns math.inf at Theta = 0: an empty pair is a zero-temperature
    signal, not an error. The occupation round-trips through the Bose factor
    to 1e-12 relative over |Theta| in [0.05, 5].
    """
    t = effective_theta(state, kappa)
    return float(_beta_energy(np.array([t]))[0]) / state.modes[kappa].omega


def bose_occupation(beta: float, energy: float) -> float:
    """Thermal occupation 1/(e^{beta E} - 1).

    beta = 0, which effective_beta gives past |Theta| ~ 372.6, is the
    infinite temperature limit: the occupation is inf, as it is for the
    smallest positive beta.
    """
    beta = float(beta)
    energy = float(energy)
    if not (beta >= 0.0):
        raise ValueError(f"beta must be >= 0, got {beta}")
    if not (energy > 0.0 and math.isfinite(energy)):
        raise ValueError(f"energy must be positive and finite, got {energy}")
    return _bose_factor(beta * energy)


def free_energy(state: MemoryState, beta: float) -> float:
    """F = sum_k E_k sinh^2(Theta_k) - S/beta at the probe temperature."""
    beta = float(beta)
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    *_, (total_s,), (energy,) = _trace(state, [state.time])
    return float(energy - total_s / beta)


def stationarity_residual(state: MemoryState, beta: float) -> np.ndarray:
    """Analytic per-mode gradient dF/dTheta_kappa at the probe beta.

    Equals sinh(2 Theta)(E + ln tanh^2(Theta)/beta): zero at Theta = 0 for
    any beta (symmetric minimum) and zero at beta = effective_beta of that
    mode, which is the stationarity condition defining the effective
    temperature. Where sinh(2 Theta) leaves the float range the gradient is
    +-inf, or 0.0 at the beta whose bracket rounds to 0.
    """
    beta = float(beta)
    if not (beta > 0.0):
        raise ValueError(f"beta must be positive, got {beta}")
    t = effective_thetas(state)
    e = _energies(state.modes)
    y = _beta_energy(t)
    out = np.zeros_like(t)
    mask = t != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        out[mask] = np.sinh(2.0 * t[mask]) * (e[mask] - y[mask] / beta)
    out[np.isnan(out)] = 0.0  # an overflowing sinh times a bracket of 0
    return out


def _trace(state: MemoryState, times) -> tuple[np.ndarray, ...]:
    """Theta (T, K) on the grid, occupations, per-mode entropies, and each
    row's total entropy and energy (T,): the sum thermo_snapshot takes at
    that time, bit for bit, summed by `states._row_sums`, so a total of
    terms >= 0 past the float range is inf."""
    traj = _trajectory(_gammas(state.modes), state.code.thetas, times)
    occ = _occupations(traj)
    s_per = _entropy_per_mode(traj)
    # a mode energy past the float range is inf, as the Python product is
    with np.errstate(over="ignore"):
        energy_per = _energies(state.modes) * occ
    return traj, occ, s_per, _row_sums(s_per), _row_sums(energy_per)


def entropy_trace(state: MemoryState, times) -> np.ndarray:
    """Total entropy along the trajectory, one value per grid time.

    For a single damped mode the trace falls strictly on (0, theta/gamma),
    hits exactly 0 at the forgetting time, and rises strictly after it.
    """
    traj = _trajectory(_gammas(state.modes), state.code.thetas, _checked_times(times))
    return _row_sums(_entropy_per_mode(traj))


def first_law_ledger(state: MemoryState, times) -> FirstLawLedger:
    """Step-by-step first-law check dE = dQ = (1/beta) dS over the grid.

    Midpoint per-mode beta weights each mode's entropy change; undamped
    modes change nothing and contribute nothing. Steps where a damped
    mode's Theta crosses or touches 0 are flagged: beta diverges there and
    the midpoint value is meaningless, so the residual is reported but not
    trusted. Residuals on unflagged steps converge to 0 at second order in
    the step size. A grid time whose energy is not finite (sinh^2 Theta past
    the float range) is a ValueError naming the first such time.
    """
    ts = _checked_times(times, minimum_points=2)
    return _ledger(state, ts, _trace(state, ts))


def _ledger(state: MemoryState, ts: np.ndarray, trace) -> FirstLawLedger:
    """first_law_ledger on a checked grid from its `_trace`: delta_energy is
    the difference of consecutive trace energies, so of thermo.csv's."""
    traj, _, s_per, _, total_energy = trace
    overflow = ~np.isfinite(total_energy)
    if overflow.any():
        i = int(overflow.argmax())
        raise ValueError(f"energy at time {float(ts[i])!r} is not finite "
                         f"({float(total_energy[i])!r})")
    gammas = _gammas(state.modes)
    energies = _energies(state.modes)
    mid = _trajectory(gammas, state.code.thetas, 0.5 * (ts[:-1] + ts[1:]))
    y_mid = _beta_energy(mid)
    inv_beta_energy_weighted = energies[None, :] / y_mid  # 0 where y = inf

    ds = np.diff(s_per, axis=0)
    entropy_term = _row_sums(ds * inv_beta_energy_weighted)
    delta_energy = np.diff(total_energy)
    residual = delta_energy - entropy_term
    crossings = (traj[:-1] * traj[1:] <= 0.0) & (gammas[None, :] > 0.0)
    flagged = crossings.any(axis=1)

    return FirstLawLedger(
        times=tuple(float(x) for x in ts),
        delta_energy=tuple(float(x) for x in delta_energy),
        entropy_term=tuple(float(x) for x in entropy_term),
        residual=tuple(float(x) for x in residual),
        flagged=tuple(bool(x) for x in flagged),
    )


def _beta_fit(y: np.ndarray, energies: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(beta_fit, beta_fit_residual) of ThermoSnapshot for each row of a
    (T, K) block y of beta_kappa E_kappa, in one pass. Empty modes (y = inf)
    are left out; a row with every mode empty gives (inf, 0.0)."""
    finite = np.isfinite(y)
    ef = np.where(finite, energies, 0.0)
    yf = np.where(finite, y, 0.0)
    empty = ~finite.any(axis=1)
    with np.errstate(invalid="ignore"):  # 0/0 on an empty row
        fit = np.einsum("ij,ij->i", ef, yf) / np.einsum("ij,ij->i", ef, ef)
        left = yf - fit[:, None] * ef
    residual = np.sqrt(np.einsum("ij,ij->i", left, left))
    return np.where(empty, math.inf, fit), np.where(empty, 0.0, residual)


def thermo_snapshot(state: MemoryState) -> ThermoSnapshot:
    """Full thermodynamic readout of the state at its current time."""
    t = effective_thetas(state)
    e = _energies(state.modes)
    per_mode = _entropy_per_mode(t)
    y = _beta_energy(t)
    with np.errstate(invalid="ignore", over="ignore"):  # energy: inf past the float range
        beta_per_mode = y / e
        energy_per_mode = e * _occupations(t)
    (beta_fit,), (beta_fit_residual,) = _beta_fit(y[None, :], e)
    return ThermoSnapshot(
        time=state.time,
        entropy_per_mode=tuple(float(x) for x in per_mode),
        entropy=_fsum_nonneg(per_mode),
        energy=_fsum_nonneg(energy_per_mode),
        beta_per_mode=tuple(float(x) for x in beta_per_mode),
        beta_fit=float(beta_fit),
        beta_fit_residual=float(beta_fit_residual),
    )
