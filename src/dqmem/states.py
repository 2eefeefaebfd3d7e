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

Sums over the pairs (ln cosh gaps, occupations, entropies, energies) are
math.fsum's correctly rounded value, and inf where terms >= 0 sum past the
float range. `_row_sums` is the one exact sum of a block's rows: the terms
of each row, not its caller, pick how it is summed. The scalar `occupation`
indexes the array kernel `_occupations`, so it has the bits of the tables.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from collections.abc import Iterable, Sequence

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


# Every module that annotates with np.ndarray keeps `from __future__ import
# annotations`: evaluated annotations would load numpy at import.
def _lazy_numpy():
    """numpy as sys.modules holds it, or else a module that imports numpy
    at its first attribute access (importlib's LazyLoader recipe), entered
    in sys.modules so that every later import shares it. An `import numpy`
    statement loads it at once, so `capacity` and `cli` take `np` from here."""
    np = sys.modules.get("numpy")
    if np is None:
        spec = importlib.util.find_spec("numpy")
        if spec is None:
            raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        np = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(np)
    return np


np = _lazy_numpy()

_LN2 = math.log(2.0)
_LN_MAX = math.log(1.7976931348623157e308)  # ln of the largest float


class _Record:
    """A frozen record, the one record type of the package.

    A subclass names its fields in `_fields`, in constructor order, and
    makes them its `__slots__` unless it needs a `__dict__` (for a
    cached_property). Fields listed in `_defaults` may be left out of the
    constructor, which takes the fields by position or by keyword and sets
    each once; a subclass that validates defines its own `__init__` and
    sets its fields with `_set`. Records of one class compare and hash by
    their fields and repr as `Name(field=value, ...)`; assigning or
    deleting a field raises AttributeError, and pickling or copying a
    record calls its class with its fields.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        if (len(args) > len(fields) or not kwargs.keys() <= set(fields[len(args):])
                or len(values) < len(fields)):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}, got "
                            f"{len(args)} by position and {sorted(kwargs)} by keyword")
        _set(self, *map(values.get, fields))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _set(record: _Record, *values) -> None:
    """Sets the record's fields, given in the order of its `_fields`."""
    for name, value in zip(record._fields, values):
        object.__setattr__(record, name, value)


def log_cosh(x):
    """ln cosh x, overflow-safe, elementwise on arrays.

    Uses |x| + ln(1 + e^{-2|x|}) - ln 2, exact at 0 and safe for |x| in the
    thousands where cosh itself overflows. Past |x| = 2^1023, -2|x| overflows
    to -inf, whose exp is the 0 it stands for, so that overflow is ignored.
    """
    return _log_cosh_into(np.array(x, dtype=float))[()]


def _log_cosh_into(g: np.ndarray) -> np.ndarray:
    """ln cosh of a float array, written over it and returned: |g| in place,
    then |g| + ln(1 + e^{-2|g|}) - ln 2 with one temporary. `log_cosh` runs
    it on a copy; a caller that passes its own block gives it up."""
    np.abs(g, out=g)
    tail = np.empty_like(g)  # an array even where g is 0-d
    with np.errstate(over="ignore"):
        np.exp(np.multiply(g, -2.0, out=tail), out=tail)
    g += np.log1p(tail, out=tail)
    g -= _LN2
    return g


# rows whose K * max|x| stays below this cannot overflow any partial sum
_ROW_SUM_LIMIT = 2.0 ** 1020
# the work of this process, each key counted where its work happens:
# `pairs`, the entry pairs of `capacity._pair_rects`' rectangles;
# `exact_rows`, the rows `_row_sums` sums, and `fsum_rows`, those of them it
# re-sums with math.fsum; `taylor_stages` and `taylor_terms`, those of
# `fock.expm_action` (a term is one matvec). Every manifest records its
# run's share of each
_WORK = dict.fromkeys(("pairs", "exact_rows", "fsum_rows", "taylor_stages", "taylor_terms"), 0)


def _two_sum(a, b):
    """(fl(a + b), error), a + b = sum + error exactly (Knuth's TwoSum)."""
    s = a + b
    bp = s - a
    return s, (a - (s - bp)) + (b - bp)


def _row_sums(block) -> np.ndarray:
    """math.fsum of each row of an (n, K) block, bit for bit, and inf for a
    row of terms >= 0 that sums past the float range, as its exact sum does.

    The terms pick one of three tiers for each row (after Ogita, Rump &
    Oishi, "Accurate sum and dot product", 2005):
    1. One TwoSum cascade across the columns, (s, e) = TwoSum(s, x_c) and
       q += e, so a row's exact sum is s plus the exact sum of its K - 1
       errors e. A row takes fl(s + q) under the certificate
       m >= fl(K 2^-53 s) and 0 < s < 2^1020, m its smallest term, which
       only rows of positive, finite terms meet (no partial sum then
       overflows). Proof, with u the spacing of the floats at m (2^-1074
       where K 2^-53 s < 2^-1022):
       - the partial sums only grow, so |e| <= 2^-53 s each and the errors
         total at most B = (K - 1) 2^-53 s <= m < 2^53 u (K, not K - 1, in
         the test covers its rounding; below 2^-1022, B < 2^-1021 = 2^53 u);
       - every term and partial sum is a float >= m, so a multiple of u, and
         so is every e: each partial q is a multiple of u below 2^53 u, exact;
       - so q is the errors' exact sum, and fl(s + q) the correctly rounded
         row sum, ties to even included: math.fsum's value.
    2. Every other row goes to `_second_cascade`, which decides the rows it
       can bound and leaves the rest undecided.
    3. An undecided row is re-summed by math.fsum: a row of terms >= 0 whose
       fsum overflows is inf, and any other row gets fsum's value or raises
       fsum's exception.
    Each call adds its rows, and the rows it re-sums, to `_WORK`.
    """
    x = np.asarray(block, dtype=float)
    n, k = x.shape
    _WORK["exact_rows"] += n
    if n == 0 or k == 0:
        return np.zeros(n)
    # inf and nan only arise in rows left to the later tiers, so they warn nowhere
    with np.errstate(over="ignore", invalid="ignore"):
        s, q = x[:, 0], np.zeros(n)
        for c in range(1, k):
            s, e = _two_sum(s, x[:, c])
            q += e
        res = s + q
        sure = (x.min(axis=1) >= s * (k * 2.0 ** -53)) & (s > 0.0) & (s < _ROW_SUM_LIMIT)
    rest = np.flatnonzero(~sure)
    if rest.size:
        res[rest] = _second_cascade(x[rest])
    return res


def _second_cascade(x: np.ndarray) -> np.ndarray:
    """`_row_sums`'s tiers 2 and 3 for the rows of an (n, K) block, K >= 1.

    One vectorised pass across the columns runs two TwoSum cascades: s
    collects the float sum, q the first-level errors, and the second-level
    errors e2 are kept, so every row's exact sum is s + q + sum(e2). With
    res = fl(s + q) and e3 its TwoSum error, a row is decided without fsum
    when
    - every e2 is 0: res is then the correctly rounded exact sum, ties to
      even included, which is what math.fsum returns; or
    - |e3| + a float upper bound of sum |e2| stays below half the ulp of
      res, taking the smaller ulp below a power of two: the exact sum then
      lies strictly inside res's rounding interval.
    Every other row is left to math.fsum: rows that are not finite or whose
    K * max|x| reaches 2**1020 (so fsum raises or returns exactly what it
    always did), rows summing to zero (the sign of a zero sum is fsum's to
    choose), and the undecided near-ties.
    """
    n, k = x.shape
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
    undecided = np.flatnonzero(~decided).tolist()
    _WORK["fsum_rows"] += len(undecided)
    for i in undecided:
        row = x[i]
        res[i] = _fsum_nonneg(row) if row.min() >= 0.0 else math.fsum(row)
    return res


def _fsum_nonneg(terms) -> float:
    """math.fsum of terms that are each >= 0 (ln cosh gaps, occupations,
    energies, entropies): inf where they sum past the float range, as the
    exact sum does, so an overlap exp(-inf) is 0.0 and an energy is inf."""
    try:
        return math.fsum(terms)
    except OverflowError:  # "intermediate overflow": finite terms, sum past range
        return math.inf


class ModeParams(_Record):
    """One oscillator pair: position in the register, energy, damping rate.

    omega must be positive (it is the pair energy in hbar = 1 units); gamma
    is the amplitude damping rate and may be zero for a lossless pair.
    """

    __slots__ = _fields = ("index", "omega", "gamma")

    def __init__(self, index: int, omega: float, gamma: float):
        index, omega, gamma = int(index), float(omega), float(gamma)
        if index < 0:
            raise ValueError(f"mode index must be >= 0, got {index}")
        if not (omega > 0.0 and math.isfinite(omega)):
            raise ValueError(f"mode omega must be positive and finite, got {omega}")
        if not (gamma >= 0.0 and math.isfinite(gamma)):
            raise ValueError(f"mode gamma must be >= 0 and finite, got {gamma}")
        _set(self, index, omega, gamma)


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


class Code(_Record):
    """A stored code: one squeeze parameter theta >= 0 per pair.

    The condensate count sinh^2(theta) per pair determines theta uniquely on
    theta >= 0, so codes round-trip through occupations exactly
    (theta = arcsinh(sqrt(N))).
    """

    __slots__ = _fields = ("thetas",)

    def __init__(self, thetas: Iterable[float]):
        ts = tuple(map(float, thetas))
        if not ts:
            raise ValueError("code is empty")
        # isfinite rejects NaN, which min() may skip, before min() sees it
        if not all(map(math.isfinite, ts)) or min(ts) < 0.0:
            raise ValueError(f"code thetas must be finite and >= 0, got {ts}")
        _set(self, ts)

    def __len__(self) -> int:
        return len(self.thetas)

    @classmethod
    def from_occupations(cls, occupations: Sequence[float]) -> "Code":
        """Build the code whose per-pair condensate counts are given."""
        return cls(tuple(math.asinh(math.sqrt(n)) for n in occupations))

    def occupations(self) -> tuple[float, ...]:
        """Per-pair condensate count sinh^2(theta), inf past the float range."""
        return tuple(_occupations(self.thetas).tolist())


class MemoryState(_Record):
    """A code evolved to elapsed time `time` under the register's damping."""

    __slots__ = _fields = ("modes", "code", "time")

    def __init__(self, modes: Iterable[ModeParams], code: Code, time: float = 0.0):
        modes, time = _checked_modes(modes), float(time)
        if len(code) != len(modes):
            raise ValueError(f"code length {len(code)} != mode count {len(modes)}")
        if not (time >= 0.0 and math.isfinite(time)):
            raise ValueError(f"time must be finite and >= 0, got {time}")
        _set(self, modes, code, time)

    @property
    def k(self) -> int:
        return len(self.modes)


class QuantumNumbers(_Record):
    """SU(1,1) labels of one pair: Casimir j and weight m above it.

    Memory states sit in the paired (j = 0) sector; m equals the occupation
    of either member of the pair.
    """

    __slots__ = _fields = ("j", "m")


class Variances(_Record):
    """Quadrature variances of the rotated mode and its mirror partner."""

    __slots__ = _fields = ("dx2", "dy2", "dx2_mirror", "dy2_mirror")


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
    return math.asinh(math.sqrt(_bose_factor(beta * energy)))


def _bose_factor(x: float) -> float:
    """The Bose occupation 1/(e^x - 1) at x = beta E >= 0: inf at x = 0
    (beta E underflowed, or beta = 0), e^{-x} past x = 700, where e^x
    overflows, and otherwise by expm1, which keeps small-x accuracy."""
    if x == 0.0:
        return math.inf
    return math.exp(-x) if x > 700.0 else 1.0 / math.expm1(x)


def _gammas(modes: Sequence[ModeParams]) -> np.ndarray:
    return np.array([m.gamma for m in modes], dtype=float)


def _trajectory(gammas: np.ndarray, thetas, elapsed) -> np.ndarray:
    """Theta = gamma * elapsed - theta, (T, K), for one code or a code per row;
    each row is `effective_thetas` of the state at that age, bit for bit."""
    return np.asarray(elapsed, dtype=float)[:, None] * gammas - np.asarray(thetas)


def _gaps(dthetas, gammas, dages):
    """Theta_a - Theta_b as dthetas + gammas * dages (code gap theta_b -
    theta_a, age gap t_a - t_b), no gamma t formed. All-zero age gaps return
    dthetas itself; a product past the float range is inf, with no warning."""
    if not np.any(dages):
        return dthetas
    with np.errstate(over="ignore"):
        return dthetas + gammas * dages


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
    return float(effective_thetas(state)[_check_index(state, kappa)])


def _quarter_exp(x: float) -> float:
    """e^x / 4, inf past the float range: 0.25 * math.exp(x), or where
    math.exp(x) alone overflows, exp(x - ln 4)."""
    try:
        return 0.25 * math.exp(x)
    except OverflowError:
        return math.exp(x - 2.0 * _LN2) if x - 2.0 * _LN2 <= _LN_MAX else math.inf


def occupation(state: MemoryState, kappa: int) -> float:
    """Occupation sinh^2(Theta) of either member of pair kappa; inf past
    the float range, as in total_occupation. The bits are those of the
    array kernel `_occupations`, which evolve.csv's occupations come from."""
    return float(_occupations(effective_thetas(state))[_check_index(state, kappa)])


def total_occupation(state: MemoryState) -> float:
    """Sum of pair occupations over the register; inf past the float range."""
    return _fsum_nonneg(_occupations(effective_thetas(state)))


def evolve(state: MemoryState, dt: float) -> MemoryState:
    """Advance the state by dt >= 0 under the register's damping.

    Composition law: evolve(evolve(s, a), b) == evolve(s, a + b) whenever
    a + b is computed in the same order, since only the elapsed time is
    stored. Backwards evolution is rejected; the damping is a semigroup.
    """
    dt = float(dt)
    if not (dt >= 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and >= 0, got {dt}")
    return MemoryState(state.modes, state.code, state.time + dt)


def refresh(state: MemoryState, code: Code) -> MemoryState:
    """Rewrite the register with a new code, resetting elapsed time to zero."""
    if len(code) != state.k:
        raise ValueError(
            f"replacement code length {len(code)} != mode count {state.k}"
        )
    return MemoryState(state.modes, code, 0.0)


def log_overlap(a: MemoryState, b: MemoryState) -> float:
    """ln |<a|b>| for two states of the same register.

    Per pair the overlap is 1/cosh(Theta_a - Theta_b) (geometric series over
    the paired diagonal), and pairs multiply, so the log is a compensated sum
    of -ln cosh over the per-pair `_gaps`, so states of one age read their
    code gaps at any t. Always <= 0, and 0 only when every gap vanishes;
    -inf when the terms sum past the float range.
    """
    if a.modes != b.modes:
        raise ValueError("states do not share a mode register")
    gaps = _gaps(np.subtract(b.code.thetas, a.code.thetas), _gammas(a.modes),
                 a.time - b.time)
    return -_fsum_nonneg(log_cosh(gaps))


def overlap(a: MemoryState, b: MemoryState) -> float:
    """|<a|b>| = exp(log_overlap(a, b)); underflows to 0.0 for huge gaps."""
    return math.exp(log_overlap(a, b))


def vacuum_overlap(state: MemoryState) -> float:
    """Overlap with the empty register, prod_kappa sech(Theta_kappa).

    Peaks at 1 when every damped pair crosses Theta = 0 simultaneously; for a
    single pair this happens exactly at the forgetting time.
    """
    return math.exp(-_fsum_nonneg(log_cosh(effective_thetas(state))))


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
    A variance past the float range is inf, and its partner then 0.0.
    """
    t = effective_theta(state, kappa)
    contracted = _quarter_exp(-2.0 * t)
    dilated = _quarter_exp(2.0 * t)
    return Variances(dx2=contracted, dy2=dilated,
                     dx2_mirror=dilated, dy2_mirror=contracted)


def quantum_numbers(state: MemoryState, kappa: int) -> QuantumNumbers:
    """SU(1,1) labels of pair kappa: j = 0 always, m = sinh^2(Theta) (inf
    past the float range)."""
    return QuantumNumbers(j=0.0, m=occupation(state, kappa))
