"""Closed-form engine for damped two-mode squeezed memories.

A memory is a register of K independent oscillator pairs. Pair kappa holds a
two-mode squeezed vacuum whose squeeze parameter theta_kappa encodes one
component of the stored code; writing couples the pair through the SU(1,1)
raiser/lowerer so the state lives on the paired diagonal |n, n>. Linear
damping at rate gamma_kappa then drags the effective parameter

    Theta_kappa(t) = gamma_kappa * t - theta_kappa

through zero (empty pair, the memory has forgotten that component) and back
out the other side. Every observable of the state is an elementary function
of Theta, which is what this module computes. `dqmem.fock` provides the
truncated-matrix oracle these closed forms are tested against.

Conventions: hbar = k_B = 1, pair energy is the mode frequency omega_kappa,
codes are componentwise >= 0, and negative effective parameters arise only
through the time dependence.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "ModeParams",
    "Code",
    "MemoryState",
    "QuantumNumbers",
    "Variances",
    "log_cosh",
    "theta_from_beta",
    "effective_theta",
    "effective_thetas",
    "occupation",
    "total_occupation",
    "evolve",
    "refresh",
    "log_overlap",
    "overlap",
    "vacuum_overlap",
    "forgetting_time",
    "variances",
    "quantum_numbers",
]

_LN2 = math.log(2.0)


def log_cosh(x):
    """ln cosh x, overflow-safe, elementwise on arrays.

    Uses |x| + ln(1 + e^{-2|x|}) - ln 2, exact at 0 and safe for |x| in the
    thousands where cosh itself overflows. Past |x| = 2^1023, -2|x| overflows
    to -inf, whose exp is the 0 it stands for, so that overflow is ignored.
    """
    ax = np.abs(x)
    with np.errstate(over="ignore"):
        return ax + np.log1p(np.exp(-2.0 * ax)) - _LN2


# rows whose K * max|x| stays below this cannot overflow any partial sum
_ROW_SUM_LIMIT = 2.0 ** 1020


def _two_sum(a, b):
    """(fl(a + b), error), a + b = sum + error exactly (Knuth's TwoSum)."""
    s = a + b
    bp = s - a
    return s, (a - (s - bp)) + (b - bp)


def _row_sums(block) -> np.ndarray:
    """math.fsum of each row of an (n, K) block, bit for bit.

    One vectorised pass across the columns runs two TwoSum cascades (Ogita,
    Rump & Oishi, "Accurate sum and dot product", 2005): s collects the
    float sum, q the first-level errors, and the second-level errors e2 are
    kept, so every row's exact sum is s + q + sum(e2). With res = fl(s + q)
    and e3 its TwoSum error, a row is decided without fsum when
    - every e2 is 0: res is then the correctly rounded exact sum, ties to
      even included, which is what math.fsum returns; or
    - |e3| + a float upper bound of sum |e2| stays below half the ulp of
      res, taking the smaller ulp below a power of two: the exact sum then
      lies strictly inside res's rounding interval.
    Every other row is re-summed by math.fsum itself: rows that are not
    finite or whose K * max|x| reaches 2**1020 (so fsum raises or returns
    exactly what it always did), rows summing to zero (the sign of a zero
    sum is fsum's to choose), and the undecided near-ties.
    """
    x = np.asarray(block, dtype=float)
    n, k = x.shape
    if n == 0 or k == 0:
        return np.zeros(n)
    s, q = x[:, 0], np.zeros(n)
    e2 = np.zeros((k, n))
    # inf and nan only arise in rows that fsum re-sums, so they warn nowhere
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(1, k):
            s, e = _two_sum(s, x[:, c])
            q, e2[c] = _two_sum(q, e)
        res, e3 = _two_sum(s, q)
        decided = res != 0.0
        if not (x.max() * k < _ROW_SUM_LIMIT and x.min() * -k < _ROW_SUM_LIMIT):
            decided &= np.abs(x).max(axis=1) * k < _ROW_SUM_LIMIT
    inexact = np.flatnonzero(decided & e2.any(axis=0))
    if inexact.size:
        # float sum of k terms >= (1 - 2^-53)^(k-1) times the exact one
        bound = np.abs(e2[:, inexact]).sum(axis=0) * (1.0 + (k + 1) * 2.0 ** -52)
        bound += 2.0 ** -1074  # covers the product's underflow
        ares = np.abs(res[inexact])
        half_ulp = 0.5 * (ares - np.nextafter(ares, 0.0))
        decided[inexact] = np.abs(e3[inexact]) + bound < half_ulp
    for i in np.flatnonzero(~decided).tolist():
        res[i] = math.fsum(x[i])
    return res


@dataclass(frozen=True)
class ModeParams:
    """One oscillator pair: position in the register, energy, damping rate.

    omega must be positive (it is the pair energy in hbar = 1 units); gamma
    is the amplitude damping rate and may be zero for a lossless pair.
    """

    index: int
    omega: float
    gamma: float

    def __post_init__(self):
        object.__setattr__(self, "index", int(self.index))
        object.__setattr__(self, "omega", float(self.omega))
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.index < 0:
            raise ValueError(f"mode index must be >= 0, got {self.index}")
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"mode omega must be positive and finite, got {self.omega}")
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ValueError(f"mode gamma must be >= 0 and finite, got {self.gamma}")


def _checked_modes(modes: Iterable[ModeParams]) -> tuple[ModeParams, ...]:
    ms = tuple(modes)
    if not ms:
        raise ValueError("mode list is empty")
    indices = [m.index for m in ms]
    if indices != list(range(len(ms))):
        raise ValueError(
            "mode indices must be contiguous from 0 and listed in order, "
            f"got {indices}"
        )
    return ms


def _checked_times(times, minimum_points: int = 1) -> np.ndarray:
    """A time grid as a float array: finite, >= 0 and strictly increasing."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < minimum_points:
        raise ValueError(f"time grid needs at least {minimum_points} points")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0.0):
        raise ValueError("time grid must be finite and non-negative")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("time grid must be strictly increasing")
    return ts


@dataclass(frozen=True)
class Code:
    """A stored code: one squeeze parameter theta >= 0 per pair.

    The condensate count sinh^2(theta) per pair determines theta uniquely on
    theta >= 0, so codes round-trip through occupations exactly
    (theta = arcsinh(sqrt(N))).
    """

    thetas: tuple[float, ...]

    def __post_init__(self):
        ts = tuple(map(float, self.thetas))
        if not ts:
            raise ValueError("code is empty")
        # isfinite rejects NaN, which min() may skip, before min() sees it
        if not all(map(math.isfinite, ts)) or min(ts) < 0.0:
            raise ValueError(f"code thetas must be finite and >= 0, got {ts}")
        object.__setattr__(self, "thetas", ts)

    def __len__(self) -> int:
        return len(self.thetas)

    @classmethod
    def from_occupations(cls, occupations: Sequence[float]) -> "Code":
        """Build the code whose per-pair condensate counts are given."""
        return cls(tuple(math.asinh(math.sqrt(n)) for n in occupations))

    def occupations(self) -> tuple[float, ...]:
        """Per-pair condensate count sinh^2(theta)."""
        return tuple(math.sinh(t) ** 2 for t in self.thetas)


@dataclass(frozen=True)
class MemoryState:
    """A code evolved to elapsed time `time` under the register's damping."""

    modes: tuple[ModeParams, ...]
    code: Code
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "modes", _checked_modes(self.modes))
        object.__setattr__(self, "time", float(self.time))
        if len(self.code) != len(self.modes):
            raise ValueError(
                f"code length {len(self.code)} != mode count {len(self.modes)}"
            )
        if not (self.time >= 0.0 and math.isfinite(self.time)):
            raise ValueError(f"time must be finite and >= 0, got {self.time}")

    @property
    def k(self) -> int:
        return len(self.modes)


@dataclass(frozen=True)
class QuantumNumbers:
    """SU(1,1) labels of one pair: Casimir j and weight m above it.

    Memory states sit in the paired (j = 0) sector; m equals the occupation
    of either member of the pair.
    """

    j: float
    m: float


@dataclass(frozen=True)
class Variances:
    """Quadrature variances of the rotated mode and its mirror partner."""

    dx2: float
    dy2: float
    dx2_mirror: float
    dy2_mirror: float


def theta_from_beta(beta: float, energy: float) -> float:
    """Squeeze parameter of the pair whose occupation is thermal at `beta`.

    Inverts sinh^2(theta) = 1/(e^{beta * energy} - 1); the round trip through
    the occupation is exact to round-off.
    """
    beta = float(beta)
    energy = float(energy)
    if not (beta > 0.0 and math.isfinite(beta)):
        raise ValueError(f"beta must be positive and finite, got {beta}")
    if not (energy > 0.0 and math.isfinite(energy)):
        raise ValueError(f"energy must be positive and finite, got {energy}")
    x = beta * energy
    # expm1 keeps small-x accuracy; past ~700 the exponential overflows but
    # the occupation is just e^{-x}
    n = math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)
    return math.asinh(math.sqrt(n))


def _gammas(modes: Sequence[ModeParams]) -> np.ndarray:
    return np.array([m.gamma for m in modes], dtype=float)


def _trajectory(gammas: np.ndarray, thetas, elapsed) -> np.ndarray:
    """Theta = gamma * elapsed - theta, (T, K), for one code or a code per row;
    each row is `effective_thetas` of the state at that age, bit for bit."""
    return np.asarray(elapsed, dtype=float)[:, None] * gammas - np.asarray(thetas)


def effective_thetas(state: MemoryState) -> np.ndarray:
    """All effective parameters Theta_kappa(t) = gamma_kappa t - theta_kappa."""
    return _gammas(state.modes) * state.time - np.asarray(state.code.thetas)


def _occupations(thetas) -> np.ndarray:
    """sinh^2 Theta elementwise: inf past |Theta| ~ 355.7, where the square
    leaves the float range, without an overflow warning."""
    with np.errstate(over="ignore"):
        return np.sinh(thetas) ** 2


def _check_index(state: MemoryState, kappa: int) -> int:
    kappa = int(kappa)
    if not 0 <= kappa < state.k:
        raise IndexError(f"mode index {kappa} out of range for K={state.k}")
    return kappa


def effective_theta(state: MemoryState, kappa: int) -> float:
    """Effective squeeze parameter of pair kappa at the state's time."""
    kappa = _check_index(state, kappa)
    return state.modes[kappa].gamma * state.time - state.code.thetas[kappa]


def occupation(state: MemoryState, kappa: int) -> float:
    """Occupation sinh^2(Theta) of either member of pair kappa."""
    return math.sinh(effective_theta(state, kappa)) ** 2


def total_occupation(state: MemoryState) -> float:
    """Sum of pair occupations over the register."""
    return math.fsum(_occupations(effective_thetas(state)))


def evolve(state: MemoryState, dt: float) -> MemoryState:
    """Advance the state by dt >= 0 under the register's damping.

    Composition law: evolve(evolve(s, a), b) == evolve(s, a + b) whenever
    a + b is computed in the same order, since only the elapsed time is
    stored. Backwards evolution is rejected; the damping is a semigroup.
    """
    dt = float(dt)
    if not (dt >= 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    return dataclasses.replace(state, time=state.time + dt)


def refresh(state: MemoryState, code: Code) -> MemoryState:
    """Rewrite the register with a new code, resetting elapsed time to zero."""
    if len(code) != state.k:
        raise ValueError(
            f"replacement code length {len(code)} != mode count {state.k}"
        )
    return MemoryState(state.modes, code, 0.0)


def _require_same_register(a: MemoryState, b: MemoryState) -> None:
    if a.modes != b.modes:
        raise ValueError("states do not share a mode register")


def log_overlap(a: MemoryState, b: MemoryState) -> float:
    """ln |<a|b>| for two states of the same register.

    Per pair the overlap is 1/cosh(Theta_a - Theta_b) (geometric series over
    the paired diagonal), and pairs multiply, so the log is a compensated sum
    of -ln cosh over the per-pair gaps. Always <= 0, and 0 only when every
    gap vanishes.
    """
    _require_same_register(a, b)
    gaps = effective_thetas(a) - effective_thetas(b)
    return -math.fsum(log_cosh(gaps))


def overlap(a: MemoryState, b: MemoryState) -> float:
    """|<a|b>| = exp(log_overlap(a, b)); underflows to 0.0 for huge gaps."""
    return math.exp(log_overlap(a, b))


def vacuum_overlap(state: MemoryState) -> float:
    """Overlap with the empty register, prod_kappa sech(Theta_kappa).

    Peaks at 1 when every damped pair crosses Theta = 0 simultaneously; for a
    single pair this happens exactly at the forgetting time.
    """
    return math.exp(-math.fsum(log_cosh(effective_thetas(state))))


def forgetting_time(state: MemoryState) -> float:
    """Time at which the last damped pair empties, max over theta/gamma.

    Measured from time zero of the written code, not from the state's current
    time. Pairs with gamma = 0 never empty and are excluded; if no pair is
    damped the memory never forgets and the result is math.inf.
    """
    ratios = [
        theta / m.gamma
        for theta, m in zip(state.code.thetas, state.modes)
        if m.gamma > 0.0
    ]
    if not ratios:
        return math.inf
    return max(ratios)


def variances(state: MemoryState, kappa: int) -> Variances:
    """Quadrature variances of pair kappa's rotated modes.

    The rotated mode a = (A - A_mirror)/sqrt(2) has position variance
    e^{-2 Theta}/4 and momentum variance e^{+2 Theta}/4; its mirror partner
    has them exchanged. Each mode saturates the uncertainty product 1/16.
    """
    t = effective_theta(state, kappa)
    contracted = 0.25 * math.exp(-2.0 * t)
    dilated = 0.25 * math.exp(2.0 * t)
    return Variances(dx2=contracted, dy2=dilated,
                     dx2_mirror=dilated, dy2_mirror=contracted)


def quantum_numbers(state: MemoryState, kappa: int) -> QuantumNumbers:
    """SU(1,1) labels of pair kappa: j = 0 always, m = sinh^2(Theta)."""
    return QuantumNumbers(j=0.0, m=occupation(state, kappa))
