"""Brute-force matrix oracle on a truncated two-oscillator Fock space.

Everything `dqmem.states` claims in closed form is recomputed here the slow
way, for one mode pair at a time: explicit ladder-operator matrices on the
basis |n, ntil> (n counts quanta of the damped memory mode a, ntil of its
mirror partner atil, each truncated to dim levels), exponential actions
applied term by term, expectations taken literally.

Operator conventions, fixed once here and relied on everywhere:

    J+ = adag atildag        J- = a atil        J3 = (n + ntil + 1)/2
    H0 = omega (n - ntil)    H_int = i gamma (J+ - J-)
    G(theta) = -i theta (J+ - J-)
    memory_vector(theta) = exp(-i G(theta)) |0,0>
                         = sum_n (-tanh theta)^n / cosh theta |n, n>

so evolving under exp(-i t H_int) shifts the squeeze parameter linearly and
the state at effective parameter Theta = gamma t - theta has amplitudes
(tanh Theta)^n / cosh Theta, i.e. equals memory_vector(-Theta) exactly.

Sector layout. G(theta), H_int and the number operators conserve n - ntil,
and every other operator a memory-state check applies moves it by one, so
those checks run on three sectors of fixed n - ntil, never on the dim^2
pair space:

    sector  0:  |k, k>,     k = 0 .. dim-1    (memory states live here)
    sector -1:  |k, k+1>,   k = 0 .. dim-2
    sector +1:  |k+1, k>,   k = 0 .. dim-2

A memory state is a length-dim sector-0 vector. `build_workspace` holds the
ladder blocks from sector 0 into sectors -1 (a, atildag) and +1 (atil,
adag), and the sector-0 blocks of J+, J-, H_int and the number operators,
each the same literal product of ladder matrices as the full-space operator
it restricts, so every block entry equals that operator's entry bit for bit.
An observable that leaves sector 0 (a ladder, a quadrature) is measured by
its image in sectors -1 and +1. The full pair space (flat index
n * dim + ntil, `_PairSpace`, which builds each operator on first use)
remains in two places only: `algebra_residuals` checks the operator
identities on it at the workspace dim (the CLI uses dim 32), and
`check_squeeze_factorization` runs its squeezers on its n + ntil even half
at their own guard dim, because a single-mode squeezer spreads the vacuum
over every even sector; that check builds only the ladder operators and
the rotated mode it squeezes.

The rotated quadrature pair that factorizes the write operation is

    b = (a - atil)/sqrt(2),  btil = (a + atil)/sqrt(2),
    S_mode(r) = exp(-r/2 (mode^2 - modedag^2)),
    exp(-i G(theta)) = S_b(theta) S_btil(-theta),

under which the b position variance of the state at Theta is contracted,
exp(-2 Theta)/4. (The opposite pairing flips the factorization and the
variance table simultaneously; it is rejected by `check_squeeze_factorization`
at O(1), which is the point of keeping the check.)

Exponential actions (`expm_action`) are exact Taylor sums on the matrix
and vector they are given; no support is searched. A memory-state exponent
is a tridiagonal sector-0 block that couples every level to its
neighbours, so a memory state reaches the whole block anyway, and the
squeeze check names its one subspace, the n + ntil even half, in closed
form. Every exponent the oracle takes is real (-i G(theta), -i t H_int and
the squeezer generators), and a real exponent acting on a real vector is
summed in float64.

Truncation policy: the top Fock level of each oscillator is where the
commutation relations necessarily break, so operator-identity checks are
restricted to the interior {n < dim-1, ntil < dim-1}. State constructions
refuse parameters whose discarded tail tanh(theta)^(2 dim) exceeds an
explicit budget rather than truncating silently. A check on the memory
state at Theta needs no more than its guard dim (`_guard_dim`), the
smallest dim d with tanh(|Theta|)^d <= _GUARD_TAIL, so the residual suite
runs each state there with the caller's dim as a cap: its cost follows the
states, not the cap, and each budget is still enforced at the capped dim.

Fixed tolerances are module constants, not keyword arguments, so every
check runs at one setting: `expm_action` takes its term limit m* and stage
count s = ceil(||A||_1 / theta_m*) from the exact 1-norm and Al-Mohy and
Higham's double-precision bounds _THETA, m* minimizing m * ceil(||A||_1 /
theta_m), and a stage ends after m* terms or once a term is below
_EXPM_TOL = 1e-15 of the partial sum; `evolve_vector` allows a tail of
_EVOLVE_MAX_TAIL = (_EVOLVE_BOUND / 2)^2 = 2.5e-21 along its path, so its
error stays within _EVOLVE_BOUND = 1e-10; a guard dim is where the tail
tanh(|Theta|)^d falls to _GUARD_TAIL = 1e-12, and
`check_squeeze_factorization` runs at its uncapped guard dim d_pad, refusing
a d_pad above _MAX_PAD_FACTOR = 4 times dim; the hole-relation and
entropy-flow checks refuse |Theta| below _MIN_ABS_THETA = 0.05. Only
memory_vector's budget (1e-10) is a parameter.

Every operator is a `ShiftOperator`: a few shifted diagonals (a flat
index offset and one coefficient per row each), the exact form of every
ladder product here, multiplied with numpy slices alone. The module loads
lazily all the same: `import dqmem` leaves it unloaded until `dqmem.fock`
or one of the names the package re-exports from it is first used, and the
CLI imports it for `oracle-verify` only, whose residual suite
(`_verify_rows`) lives here.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .states import Variances, _Record
from . import thermo

__all__ = [
    "FockWorkspace",
    "build_workspace",
    "expm_action",
    "memory_vector",
    "memory_vector_via_generator",
    "evolve_vector",
    "oracle_overlap",
    "occupation_expectation",
    "mirror_occupation_expectation",
    "weight_expectation",
    "casimir_expectation",
    "quadrature_variances",
    "entropy_expectation",
    "algebra_residuals",
    "check_hole_relations",
    "check_squeeze_factorization",
    "check_entropy_flow",
]

# b, btil and the quadratures scale by 1/sqrt(2): dividing by sqrt(2) rounds
# differently, and residuals.csv would change in its last bits
_RSQRT2 = 1.0 / math.sqrt(2.0)
_MIN_DIM = 4

# fixed tolerances, described in the module docstring
_EXPM_TOL = 1e-15
# Al-Mohy and Higham's Table 3.1 for u = 2^-53: m Taylor terms of a stage
# of 1-norm at most theta_m meet the unit roundoff in backward error
_THETA = ((5, 2.4e-3), (10, 1.4e-1), (15, 6.4e-1), (20, 1.4), (25, 2.4), (30, 3.5),
          (35, 4.7), (40, 6.0), (45, 7.2), (50, 8.5), (55, 9.9))
# the most matvecs, m* s, that one expm_action plans; the largest plan of
# oracle-verify (at any --dim) and of the tests is 8 525 (55 terms x 155 stages)
_MAX_MATVECS = 10 ** 6
_EVOLVE_BOUND = 1e-10  # error bound of the oracle's evolution rows
_EVOLVE_MAX_TAIL = (_EVOLVE_BOUND / 2.0) ** 2
_GUARD_TAIL = 1e-12
_MAX_PAD_FACTOR = 4
_MIN_ABS_THETA = 0.05

# stages and terms (one matvec each) of every expm_action call in this
# process; oracle-verify's manifest records its run's share
_TAYLOR_WORK = {"stages": 0, "terms": 0}


class ShiftOperator:
    """A matrix stored as its shifted diagonals, the form of every ladder product.

    `coef` maps a flat index offset d to a coefficient vector c with one
    entry per row: entry (i, i + d) is c[i], and c is zero wherever i + d
    leaves the columns. A product composes offsets. Offsets are kept
    ascending, so each row is summed in column order, as a CSR matrix sums
    it, and every product, sum and matvec gives the bits of scipy's sparse
    arithmetic on the same matrices.
    """

    def __init__(self, shape: tuple[int, int], coef: dict[int, np.ndarray]):
        self.shape = shape
        self.dtype = np.result_type(float, *coef.values())
        self.coef = {d: np.asarray(coef[d], self.dtype) for d in sorted(coef)}
        # (d, rows, their coefficients, the columns they read) per offset
        self._spans = []
        for d, c in self.coef.items():
            lo = max(0, -d)
            hi = max(lo, min(shape[0], shape[1] - d))  # empty when d misses the columns
            self._spans.append((d, slice(lo, hi), c[lo:hi], slice(lo + d, hi + d)))

    @classmethod
    def diag(cls, values: np.ndarray) -> ShiftOperator:
        return cls((values.size, values.size), {0: values})

    def dot(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.shape[0], np.result_type(x, self.dtype))
        for _, rows, c, cols in self._spans:
            out[rows] += c * x[cols]
        return out

    def __matmul__(self, other: ShiftOperator) -> ShiftOperator:
        coef: dict[int, np.ndarray] = {}
        for d, rows, c, cols in self._spans:
            for e, b in other.coef.items():
                term = np.zeros(self.shape[0], np.result_type(c, b))
                term[rows] = c * b[cols]
                coef[d + e] = coef[d + e] + term if d + e in coef else term
        return ShiftOperator((self.shape[0], other.shape[1]), coef)

    def __add__(self, other: ShiftOperator) -> ShiftOperator:
        coef = dict(self.coef)
        for d, c in other.coef.items():
            coef[d] = coef[d] + c if d in coef else c
        return ShiftOperator(self.shape, coef)

    def map(self, f) -> ShiftOperator:
        """The operator with f applied to every coefficient vector."""
        return ShiftOperator(self.shape, {d: f(c) for d, c in self.coef.items()})

    def __neg__(self) -> ShiftOperator:
        return self.map(np.negative)

    def __sub__(self, other: ShiftOperator) -> ShiftOperator:
        return self + (-other)

    def __mul__(self, scalar: complex) -> ShiftOperator:
        # a coefficient scaled past the float range is inf (nan where a
        # complex product meets 0 * inf), with no warning; expm_action
        # refuses such an operator
        with np.errstate(over="ignore", invalid="ignore"):
            return self.map(lambda c: c * scalar)

    __rmul__ = __mul__

    @property
    def H(self) -> ShiftOperator:
        """The adjoint: entry (i, i + d) moves to (i + d, i), conjugated."""
        coef = {}
        for d, rows, c, cols in self._spans:
            coef[-d] = np.zeros(self.shape[1], c.dtype)
            coef[-d][cols] = c.conj()
        return ShiftOperator(self.shape[::-1], coef)


def _hermitian(name: str, op: ShiftOperator) -> ShiftOperator:
    """op, once it is checked entrywise to equal its adjoint."""
    if any(np.any(c) for c in (op - op.H).coef.values()):
        raise RuntimeError(f"{name} failed its Hermiticity self-check")
    return op


class FockWorkspace(_Record):
    """Immutable bundle of sector blocks for one damped mode pair.

    Every operator is a ShiftOperator with float64 coefficients, except the
    complex H_int and generator. The ladder blocks map sector 0 (dim states)
    into one neighbouring sector (dim - 1 states) with offsets 0 and +1: a
    and atildag into sector -1, atil and adag into sector +1; the adjoint of
    a block (`.H`) carries its sector back to 0 (a.H is adag there).
    `j_plus`, `j_minus`, `h_int`, `number` (adag a) and `number_flipped` (a
    adag) are dim x dim sector-0 blocks on offsets -1, 0 and +1, literal
    products of ladder blocks (not rebuilt from integer arrays, so
    expectation checks exercise the same floating arithmetic the identities
    do). `interior[s]` is the boolean mask of sector s's states inside
    {n < dim-1, ntil < dim-1}, for s in (-1, 0, 1). The four rotated
    quadratures are built on first use and then kept in the `__dict__`.
    Workspaces compare by identity.
    """

    _fields = ("dim", "omega", "gamma", "a", "adag", "atil", "atildag", "j_plus",
               "j_minus", "h_int", "number", "number_flipped", "interior")
    __eq__, __hash__ = object.__eq__, object.__hash__

    @cached_property
    def quadratures(self) -> tuple[ShiftOperator, ...]:
        """Position and momentum of b, then of btil: (x1, y1, x2, y2).

        Each maps sector 0 onto sectors -1 and +1, stacked in that order: a
        quadrature moves n - ntil by one, so these rows hold all of its image
        of a memory state. The two position quadratures are real.
        """
        top = np.arange(2 * self.dim - 2) < self.dim - 1
        # sectors -1 and +1 embedded as the top and bottom rows of the stack
        up = ShiftOperator((top.size, self.dim - 1), {0: top})
        down = ShiftOperator((top.size, self.dim - 1), {1 - self.dim: ~top})
        out = []
        for sign in (-1.0, 1.0):  # b = (a - atil)/sqrt2, btil = (a + atil)/sqrt2
            mode = (up @ self.a + down @ (sign * self.atil)) * _RSQRT2
            dag = (up @ (sign * self.atildag) + down @ self.adag) * _RSQRT2
            out += [0.5 * (mode + dag), (-0.5j) * (mode - dag)]
        return tuple(out)

    def vacuum(self) -> np.ndarray:
        """|0,0> as a sector-0 vector."""
        v = np.zeros(self.dim, dtype=np.complex128)
        v[0] = 1.0
        return v

    def generator(self, theta: float) -> ShiftOperator:
        """Write generator G(theta) = -i theta (J+ - J-) on sector 0, Hermitian."""
        return (-1j * theta) * (self.j_plus - self.j_minus)

    def entropy_operator(self, theta_eff: float) -> ShiftOperator:
        """Modular entropy operator of the damped mode at effective Theta, on sector 0.

        S(Theta) = -(ndag n ln sinh^2 - n ndag ln cosh^2); its expectation on
        the memory state at Theta is the closed-form pair entropy. Diverges
        logarithmically at Theta = 0.
        """
        theta_eff = float(theta_eff)
        if theta_eff == 0.0:
            raise ValueError("entropy operator is singular at Theta = 0")
        ln_sinh_sq = 2.0 * math.log(abs(math.sinh(theta_eff)))
        ln_cosh_sq = 2.0 * math.log(math.cosh(theta_eff))
        return -(ln_sinh_sq * self.number - ln_cosh_sq * self.number_flipped)

    def entropy_rate_operator(self, theta_eff: float, gamma: float) -> ShiftOperator:
        """Time derivative of entropy_operator along Theta(t) = gamma t - theta."""
        theta_eff = float(theta_eff)
        if theta_eff == 0.0:
            raise ValueError("entropy rate operator is singular at Theta = 0")
        coth = math.cosh(theta_eff) / math.sinh(theta_eff)
        tanh = math.tanh(theta_eff)
        return -(2.0 * gamma * coth * self.number
                 - 2.0 * gamma * tanh * self.number_flipped)


def build_workspace(dim: int, omega: float = 1.0, gamma: float = 1.0) -> FockWorkspace:
    """Construct the sector blocks at truncation `dim` per oscillator.

    dim >= 4 so the interior subspace is nontrivial. Hermiticity of the
    sector-0 H_int block is verified entrywise before the workspace is
    returned. Memory and time are linear in dim.
    """
    dim = int(dim)
    if dim < _MIN_DIM:
        raise ValueError(f"dim must be >= {_MIN_DIM}, got {dim}")
    omega = float(omega)
    gamma = float(gamma)
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")

    # a |k,k> = sqrt(k) |k-1,k> and atil |k,k> = sqrt(k) |k,k-1> are one
    # matrix in the sectors' state order; adag and atildag, with sqrt(k+1),
    # are another
    root = np.sqrt(np.arange(1, dim, dtype=float))
    a = ShiftOperator((dim - 1, dim), {1: root})
    adag = ShiftOperator((dim - 1, dim), {0: root})
    atil, atildag = a, adag
    # each product passes through the one sector its right factor reaches
    j_plus = a.H @ atildag
    j_minus = adag.H @ atil
    h_int = _hermitian("h_int", (1j * gamma) * (j_plus - j_minus))

    k = np.arange(dim)
    side = k[:-1] < dim - 2  # |k,k+1> and |k+1,k> leave the interior at k = dim-2

    return FockWorkspace(
        dim=dim,
        omega=omega,
        gamma=gamma,
        a=a,
        adag=adag,
        atil=atil,
        atildag=atildag,
        j_plus=j_plus,
        j_minus=j_minus,
        h_int=h_int,
        number=a.H @ a,
        number_flipped=adag.H @ adag,
        interior={-1: side, 0: k < dim - 1, 1: side},
    )


class _PairSpace:
    """Operators on the whole dim^2 pair space, flat index n * dim + ntil.

    Only the operator identities (`algebra_residuals`) and the squeeze
    factorization need it. A ladder operator is one offset, dim for a and 1
    for atil, with zero coefficients where the shift would wrap into the
    next n. `h0`, `j3` and `casimir` are exact integer diagonals, so [H0,
    H_int] = 0 and the weight-raising commutators hold float-exactly, not
    just to round-off; `interior` projects onto {n < dim-1, ntil < dim-1}.
    Each operator is built on first use and then kept, so the squeeze check
    builds only a, atil and the rotated mode it squeezes; H0 and H_int are
    verified Hermitian entrywise when they are built.
    """

    def __init__(self, dim: int, omega: float = 1.0, gamma: float = 1.0):
        self.dim, self.omega, self.gamma = dim, omega, gamma
        self.size = dim * dim
        self.n_index = np.repeat(np.arange(dim), dim)
        self.ntil_index = np.tile(np.arange(dim), dim)

    def _lowering(self, index: np.ndarray, d: int) -> ShiftOperator:
        # sqrt(index + 1) at the state d flat places on, if it exists
        root = np.where(index < self.dim - 1, np.sqrt(index + 1.0), 0.0)
        return ShiftOperator((self.size, self.size), {d: root})

    def _diag(self, values: np.ndarray) -> ShiftOperator:
        return ShiftOperator.diag(values.astype(float))

    a = cached_property(lambda self: self._lowering(self.n_index, self.dim))
    atil = cached_property(lambda self: self._lowering(self.ntil_index, 1))
    adag = cached_property(lambda self: self.a.H)
    atildag = cached_property(lambda self: self.atil.H)
    b = cached_property(lambda self: (self.a - self.atil) * _RSQRT2)
    btil = cached_property(lambda self: (self.a + self.atil) * _RSQRT2)
    j_plus = cached_property(lambda self: self.adag @ self.atildag)
    j_minus = cached_property(lambda self: self.a @ self.atil)
    number = cached_property(lambda self: self.adag @ self.a)
    mirror_number = cached_property(lambda self: self.atildag @ self.atil)
    h0 = cached_property(lambda self: _hermitian("h0", self._diag(
        self.omega * (self.n_index - self.ntil_index))))
    j3 = cached_property(lambda self: self._diag(0.5 * (self.n_index + self.ntil_index + 1)))
    casimir = cached_property(lambda self: self._diag(0.5 * (self.n_index - self.ntil_index)))
    h_int = cached_property(lambda self: _hermitian(
        "h_int", (1j * self.gamma) * (self.j_plus - self.j_minus)))
    interior = cached_property(lambda self: self._diag(
        (self.n_index < self.dim - 1) & (self.ntil_index < self.dim - 1)))

    def squeezer_generator(self, r: float, mirror: bool = False) -> ShiftOperator:
        """Generator of the squeezer S(r) = exp(-r/2 (m^2 - mdag^2)) on m = b
        (btil with `mirror`): real antisymmetric, so the exponential is
        orthogonal and the Taylor stages cannot blow up."""
        mode = self.btil if mirror else self.b
        mm = mode @ mode
        return (mm - mm.H) * (-0.5 * r)


def _restrict(op: ShiftOperator, keep: np.ndarray) -> ShiftOperator:
    """The block of `op` on the sorted states `keep`, indexed by position in
    keep: entry (i, i + d) lands at offset pos(i + d) - pos(i), which keeps
    every row's column order. On the n + ntil even half of the pair space
    the squeezers' six offsets become eight."""
    pos = np.full(op.shape[1], -1)
    pos[keep] = np.arange(keep.size)
    coef: dict[int, np.ndarray] = {}
    for d, c in op.coef.items():
        cols = keep + d
        rows = np.flatnonzero((cols >= 0) & (cols < op.shape[1]))
        rows = rows[(c[keep[rows]] != 0) & (pos[cols[rows]] >= 0)]
        shift = pos[cols[rows]] - rows
        for e in sorted(set(shift.tolist())):  # np.unique would import numpy.ma
            at = rows[shift == e]
            coef.setdefault(e, np.zeros(keep.size, c.dtype))[at] = c[keep[at]]
    return ShiftOperator((keep.size, keep.size), coef)


def _re_inner(u: np.ndarray, v: np.ndarray) -> float:
    """Re <u|v>, the one reduction of the oracle: an einsum over the float64
    views of the two vectors (a complex vector reads as its interleaved real
    and imaginary parts). It never enters BLAS, so no result depends on the
    BLAS thread count."""
    dtype = np.result_type(u, v, np.float64)
    return float(np.einsum("i,i->", np.ascontiguousarray(u, dtype).view(np.float64),
                           np.ascontiguousarray(v, dtype).view(np.float64)))


def _norm(x: np.ndarray) -> float:
    return math.sqrt(_re_inner(x, x))


def expm_action(matrix: ShiftOperator, vec: np.ndarray) -> np.ndarray:
    """Apply exp(matrix) to vec by staged Taylor series, deterministically.

    The series runs on the matrix and vector as given: a caller that wants
    a subspace passes the block of the matrix on it (`_restrict`) and the
    vector's entries there, as `check_squeeze_factorization` does. The
    stages and terms are Al-Mohy and Higham's (SIAM J. Sci. Comput. 33
    (2011) 488): with the exact 1-norm ||A||_1 and their double-precision
    Taylor bounds theta_m (`_THETA`), the degree m* minimizes the cost
    m * ceil(||A||_1 / theta_m), and the series runs s = ceil(||A||_1 /
    theta_m*) stages of at most m* terms. Each stage ends early once a term
    is below _EXPM_TOL relative to the partial sum. When matrix and vec
    are both real, as every exponent the oracle takes is, the series runs in
    float64; the result is complex128 either way. Deterministic by
    construction (no norm estimation, no randomness), so rerun artifacts are
    byte-identical. Every vector norm and inner product in this module, the
    term test included, is `_re_inner`, which never enters BLAS, so no
    result depends on the BLAS thread count either. Each call adds its
    stages and terms (one matvec each) to `_TAYLOR_WORK`.

    Raises ValueError, with no warning, if vec has a non-finite entry or
    the matrix a non-finite 1-norm, or one whose plan m* s passes
    _MAX_MATVECS matvecs (every plan takes at least 55 / 9.9 ||A||_1, so a
    1-norm above about 1.8e5), rather than run for ever.
    """
    w = np.asarray(vec, dtype=np.complex128)
    if not np.isfinite(w).all():
        raise ValueError("expm_action: the vector has a non-finite entry")
    if not (any(np.any(c.imag) for c in matrix.coef.values()) or np.any(w.imag)):
        matrix = matrix.map(lambda c: c.real.copy())  # contiguous, for the matvecs
        w = w.real.copy()
    # the largest column sum, as the row sums of the adjoint's magnitudes
    with np.errstate(over="ignore"):
        norm1 = float(np.max(matrix.map(abs).H.dot(np.ones(w.size))))
    if not math.isfinite(norm1):
        raise ValueError(f"expm_action: the matrix is not finite (1-norm {norm1})")
    # at most m* s matvecs, the fewest the table allows; the smallest m on a
    # tie. A 1-norm past _MAX_MATVECS is planned as that, whose plan passes
    # it too, so no stage count leaves the float range
    degree, stages = min(((m, math.ceil(min(norm1, _MAX_MATVECS) / theta))
                          for m, theta in _THETA), key=lambda ms: ms[0] * ms[1])
    if degree * stages > _MAX_MATVECS:
        raise ValueError(f"expm_action: the matrix's 1-norm {norm1} is too large to stage "
                         f"in {_MAX_MATVECS} matvecs")
    terms = 0
    for _ in range(stages):
        term = w.copy()
        acc = w.copy()
        reach = _norm(w)  # >= ||acc||: the norms of its summands, added up
        for k in range(1, degree + 1):
            term = matrix.dot(term) / (stages * k)
            acc += term
            size = _norm(term)
            reach += size
            # computed, ||acc|| <= reach up to rounding of relative order
            # (k + len(w)) eps, far inside the 1e-6 slack: a term above the
            # slackened bound fails the test, so ||acc|| is not taken for it
            if size <= _EXPM_TOL * reach * (1.0 + 1e-6) and size <= _EXPM_TOL * _norm(acc):
                break
        terms += k
        w = acc
    _TAYLOR_WORK["stages"] += stages
    _TAYLOR_WORK["terms"] += terms
    return w.astype(np.complex128)


def _guard_dim(theta: float, dim: float = math.inf) -> float:
    """The smallest dim d >= _MIN_DIM with tanh(|theta|)^d <= _GUARD_TAIL,
    capped by `dim`: the working dim of a check on the memory state at
    theta. It is inf, uncapped, where tanh(|theta|) rounds to 1 (|theta|
    beyond ~19) and no dim is enough."""
    lam = abs(math.tanh(float(theta)))
    d = _MIN_DIM
    if lam >= 1.0:
        d = math.inf
    elif lam > 0.0:
        d = max(d, math.ceil(math.log(_GUARD_TAIL) / math.log(lam)))
    return min(d, dim)


def _require_budget(theta: float, dim: int, max_tail: float, what: str) -> None:
    """Refuse a state whose discarded norm^2, tanh(|theta|)^(2 dim), exceeds max_tail."""
    tail = math.tanh(abs(theta)) ** (2 * dim)
    if tail > max_tail:
        raise ValueError(
            f"truncation budget exceeded for {what}: discarded tail {tail:.3e} "
            f"> budget {max_tail:.3e}; increase dim"
        )


def memory_vector(ws: FockWorkspace, theta: float, *, max_tail: float = 1e-10) -> np.ndarray:
    """Freshly written pair state sum_n (-tanh theta)^n / cosh theta |n, n>,
    as its length-dim sector-0 vector.

    Normalized on the truncated space; before renormalization the norm^2 is
    1 - tanh(theta)^(2 dim), which is exactly the discarded tail. The same
    state is constructible as exp(-i G(theta)) acting on the vacuum
    (`memory_vector_via_generator`); the two routes agree to 1e-10 wherever
    the generator route's own boundary error allows (tanh(theta)^dim small).

    The effective parameter of this state is Theta = -theta, so the state at
    effective parameter Theta is memory_vector(ws, -Theta).
    """
    theta = float(theta)
    _require_budget(theta, ws.dim, max_tail, f"memory_vector(theta={theta})")
    ratio = -math.tanh(theta)
    v = ((ratio ** np.arange(ws.dim)) / math.cosh(theta)).astype(np.complex128)
    return v / _norm(v)


def memory_vector_via_generator(ws: FockWorkspace, theta: float) -> np.ndarray:
    """Dual construction of memory_vector: exp(-i G(theta)) |0,0> on sector 0.

    Carries the boundary-reflection error of the exponential action,
    ~tanh(theta)^dim, on top of the explicit route's tail; callers comparing
    the two routes at 1e-10 should keep tanh(theta)^dim below that.
    """
    return expm_action((-1j) * ws.generator(theta), ws.vacuum())


def evolve_vector(ws: FockWorkspace, v: np.ndarray, t: float, *,
                  theta: float | None = None) -> np.ndarray:
    """Apply exp(-i t H_int) to the sector-0 vector v by error-controlled
    series action; H_int conserves n - ntil, so the result stays in sector 0.

    The propagator error is dominated by boundary reflection, at most about
    1.5 tanh(|Theta|)^dim at the worst effective parameter touched (dims 64,
    128 and 256, theta in [0.3, 2.2], t in [0, 2 theta]): the square root of
    the state tail. So the tail budget _EVOLVE_MAX_TAIL =
    (_EVOLVE_BOUND / 2)^2 = 2.5e-21 keeps the error within 1e-10. Pass
    `theta` (the code parameter of v) to enforce the budget on both endpoints
    of the path; with theta=None no budget check is possible and the caller
    owns the error.
    """
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != (ws.dim,):
        raise ValueError(f"v must be a sector-0 vector of shape ({ws.dim},), "
                         f"got {v.shape}")
    if theta is not None:
        worst = max(abs(float(theta)), abs(ws.gamma * t - float(theta)))
        _require_budget(worst, ws.dim, _EVOLVE_MAX_TAIL,
                        f"evolve_vector(theta={theta}, t={t})")
    return expm_action((-1j * t) * ws.h_int, v)


def oracle_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """Inner product of normalized vectors, real under the phase convention."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"vector dimensions differ: {u.shape} vs {v.shape}")
    return _re_inner(u / _norm(u), v / _norm(v))


def occupation_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """<adag a> = ||a v||^2, the damped-mode occupation of a sector-0 state."""
    return _norm(ws.a.dot(v)) ** 2


def mirror_occupation_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    return _norm(ws.atil.dot(v)) ** 2


def weight_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """SU(1,1) weight above the Casimir floor: (<n> + <ntil>)/2."""
    return 0.5 * (occupation_expectation(ws, v) + mirror_occupation_expectation(ws, v))


def casimir_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """(<n> - <ntil>)/2; identically 0 on the paired diagonal sector."""
    return 0.5 * (occupation_expectation(ws, v) - mirror_occupation_expectation(ws, v))


def quadrature_variances(ws: FockWorkspace, v: np.ndarray) -> Variances:
    """Position/momentum variances of the rotated pair (b, btil) in the
    sector-0 state v.

    A quadrature x maps v into sectors -1 and +1, orthogonal to v, so <x> is
    0 and the variance <x^2> - <x>^2 is ||x v||^2.
    """
    dx2, dy2, dx2_mirror, dy2_mirror = (_norm(q.dot(v)) ** 2 for q in ws.quadratures)
    return Variances(dx2=dx2, dy2=dy2, dx2_mirror=dx2_mirror, dy2_mirror=dy2_mirror)


def entropy_expectation(ws: FockWorkspace, v: np.ndarray, theta_eff: float) -> float:
    """<S(Theta)> in the sector-0 state v; matches the closed-form pair
    entropy on memory states."""
    return _re_inner(v, ws.entropy_operator(theta_eff).dot(v))


def _fro(m: ShiftOperator) -> float:
    """Frobenius norm: one pairwise numpy sum of the squared magnitudes of
    the nonzero entries, taken row by row in column order."""
    c = np.array(list(m.coef.values())).T
    return math.sqrt(np.sum(abs(c[c != 0]) ** 2))


def algebra_residuals(ws: FockWorkspace) -> dict[str, float]:
    """Residuals of every operator identity the construction promises, on
    the full pair space at ws.dim.

    Each entry is a relative Frobenius residual on the interior subspace:
    ||P (lhs - rhs) P||_F / max(1, largest ||P term P||_F among the products
    involved). Identities that are structurally exact with the integer-
    diagonal construction (the [H0, H_int] commutator, the diagonal-sector
    closure of H_int, the cross-mode commutators) come out as exact 0.0;
    the rest are float round-off, orders below 1e-12.
    """
    full = _PairSpace(ws.dim, ws.omega, ws.gamma)
    p = full.interior
    ident = ShiftOperator.diag(np.ones(full.size))

    def proj(m):
        return p @ m @ p

    def residual(diff: ShiftOperator, *terms: ShiftOperator) -> float:
        scale = max([1.0] + [_fro(proj(t)) for t in terms])
        return _fro(proj(diff)) / scale

    bdag = full.b.H
    btildag = full.btil.H

    out: dict[str, float] = {}

    def ccr(name, lo, hi):
        lohi = lo @ hi
        hilo = hi @ lo
        out[name] = residual(lohi - hilo - ident, lohi, hilo, ident)

    ccr("ccr_pair", full.a, full.adag)
    ccr("ccr_mirror", full.atil, full.atildag)
    ccr("ccr_rotated", full.b, bdag)
    ccr("ccr_rotated_mirror", full.btil, btildag)

    cross = full.a @ full.atildag - full.atildag @ full.a
    out["ccr_cross"] = residual(cross, full.a @ full.atildag, full.atildag @ full.a)
    rcross = full.b @ btildag - btildag @ full.b
    out["ccr_rotated_cross"] = residual(rcross, full.b @ btildag, btildag @ full.b)

    jpjm = full.j_plus @ full.j_minus
    jmjp = full.j_minus @ full.j_plus
    out["su11_ladder"] = residual(jpjm - jmjp + 2.0 * full.j3, jpjm, jmjp, 2.0 * full.j3)

    j3jp = full.j3 @ full.j_plus
    jpj3 = full.j_plus @ full.j3
    out["su11_weight_raise"] = residual(j3jp - jpj3 - full.j_plus, j3jp, jpj3, full.j_plus)
    j3jm = full.j3 @ full.j_minus
    jmj3 = full.j_minus @ full.j3
    out["su11_weight_lower"] = residual(j3jm - jmj3 + full.j_minus, j3jm, jmj3,
                                        full.j_minus)

    c2 = full.casimir @ full.casimir
    quad = full.j3 @ full.j3 - 0.5 * (jpjm + jmjp) + 0.25 * ident
    out["casimir_quadratic"] = residual(c2 - quad, c2, quad)
    delta = full.number - full.mirror_number
    out["casimir_number_form"] = residual(c2 - 0.25 * (delta @ delta), c2, delta @ delta)

    h0h = full.h0 @ full.h_int
    hh0 = full.h_int @ full.h0
    out["h0_hint_commutator"] = residual(h0h - hh0, h0h, hh0)

    # sector checks: columns of the paired diagonal must stay on it, and H0
    # must annihilate it (not just phase it); exact by integer construction
    on_diag = (full.n_index == full.ntil_index).astype(float)
    diag_sel = ShiftOperator.diag(on_diag)
    off_rows = ShiftOperator.diag(1.0 - on_diag)
    out["interaction_diagonal_closure"] = residual(off_rows @ (full.h_int @ diag_sel),
                                                   full.h_int @ diag_sel)
    out["h0_annihilates_diagonal"] = residual(full.h0 @ diag_sel, full.h0)
    return out


def check_hole_relations(ws: FockWorkspace, v: np.ndarray,
                         theta_eff: float) -> tuple[float, float]:
    """Interior norms of the two hole relations on a memory state at Theta.

    Creating a quantum of the damped mode is the same as destroying one of
    its mirror, weighted by cosh/sinh of the effective parameter:
    (adag/cosh - atil/sinh) v, in sector +1, and (atildag/cosh - a/sinh) v,
    in sector -1, both vanish on exact memory states. Rejects
    |Theta| < _MIN_ABS_THETA (0.05), where the sinh division degenerates.
    """
    theta_eff = float(theta_eff)
    if abs(theta_eff) < _MIN_ABS_THETA:
        raise ValueError(
            f"hole relations are degenerate near Theta = 0 "
            f"(|{theta_eff}| < {_MIN_ABS_THETA}): sinh division blows up"
        )
    ch = math.cosh(theta_eff)
    sh = math.sinh(theta_eff)
    r1 = (ws.adag.dot(v) / ch - ws.atil.dot(v) / sh)[ws.interior[1]]
    r2 = (ws.atildag.dot(v) / ch - ws.a.dot(v) / sh)[ws.interior[-1]]
    return _norm(r1), _norm(r2)


def check_squeeze_factorization(ws: FockWorkspace, theta: float) -> float:
    """|| exp(-i G(theta))|0,0> - S_b(theta) S_btil(-theta)|0,0> ||.

    The single-mode squeezers spread amplitude over every even sector and
    across total-number shells with tail tanh(|theta|)^d, so computing both
    routes at a dim where that tail is not negligible saturates at the tail
    instead of testing the identity. The comparison therefore runs at d_pad
    = `_guard_dim(theta)`, uncapped: the smallest dim (at least 4) with
    tanh(|theta|)^d_pad <= _GUARD_TAIL (1e-12). It is refused when d_pad exceeds
    _MAX_PAD_FACTOR (4) times ws.dim. Both routes have their support in
    closed form: the squeezers run on the n + ntil even half of the pair
    space, which holds the vacuum and is closed under both, and the write
    operation is `memory_vector_via_generator` at d_pad, on the paired
    diagonal (sector 0). The residual depends on
    theta alone (ws sets only the refusal bound) and reflects the operator
    identity itself (below 1e-9), while a wrong sign convention still fails
    at O(1).
    """
    theta = float(theta)
    d_pad = _guard_dim(theta)
    if d_pad > _MAX_PAD_FACTOR * ws.dim:
        raise ValueError(
            f"squeeze factorization budget exceeded at theta={theta}: "
            f"needs dim {d_pad} > {_MAX_PAD_FACTOR} * {ws.dim}"
        )
    full = _PairSpace(d_pad)
    # the squeezers keep the vacuum on the n + ntil even half, whose first
    # state is |0,0>; the write operation keeps it on the paired diagonal
    even = np.flatnonzero((full.n_index + full.ntil_index) % 2 == 0)
    w = np.zeros(even.size)
    w[0] = 1.0
    for r, mirror in ((-theta, True), (theta, False)):
        w = expm_action(_restrict(full.squeezer_generator(r, mirror=mirror), even), w)
    u = np.zeros(full.size, dtype=np.complex128)
    u[::d_pad + 1] = memory_vector_via_generator(build_workspace(d_pad), theta)
    # the difference is taken on the whole pair space: the einsum's partial
    # sums, and so the last bits of the residual, depend on where zeros sit
    v = np.zeros(full.size, dtype=np.complex128)
    v[even] = w
    return _norm(u - v)


def check_entropy_flow(ws: FockWorkspace, theta: float, gamma: float, t: float,
                       dt: float) -> float:
    """Residual of the entropy-driven flow equation at time t.

    The damped pair obeys d/dt v(t) = -1/2 (dS/dt) v(t) with
    dS/dt = -(adag a 2 gamma coth Theta - a adag 2 gamma tanh Theta); the
    check builds v(t +/- dt) as exact memory states on the flow (not by
    evolving, so the central difference isolates the operator identity) and
    returns the interior norm of the sector-0 defect. Second order in dt:
    halving dt quarters it. Rejects |Theta| < _MIN_ABS_THETA (0.05), where
    coth diverges.

    `gamma` parameterizes the flow being tested and need not equal ws.gamma,
    which only enters H_int.
    """
    theta = float(theta)
    gamma = float(gamma)
    t = float(t)
    dt = float(dt)
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    theta_t = gamma * t - theta
    if abs(theta_t) < _MIN_ABS_THETA:
        raise ValueError(
            f"entropy flow is singular near Theta = 0 "
            f"(|{theta_t}| < {_MIN_ABS_THETA})"
        )
    # state at time s is memory_vector(theta - gamma s): effective parameter
    # gamma s - theta with the write convention's sign
    v0 = memory_vector(ws, theta - gamma * t)
    vp = memory_vector(ws, theta - gamma * (t + dt))
    vm = memory_vector(ws, theta - gamma * (t - dt))
    rate = ws.entropy_rate_operator(theta_t, gamma)
    defect = (vp - vm) / (2.0 * dt) + 0.5 * rate.dot(v0)
    return _norm(defect[ws.interior[0]])


def _verify_rows(dim: int) -> list[list]:
    """The residual suite of `dqmem oracle-verify` at truncation `dim`: one
    row [check, detail, value, lo, hi, status] per check.

    Every memory-state row runs at the guard dim of its own |Theta|
    (`_guard_dim`, the worst |Theta| of an evolution's path), capped by
    `dim`, on one workspace per distinct dim. Each check still enforces its
    own budget at the capped dim, so a `dim` too small for a state fails
    loudly, and once `dim` reaches every guard dim (152 on this grid) the
    rows no longer depend on it.
    """
    rows: list[list] = []
    spaces: dict[int, FockWorkspace] = {}

    def at(theta: float) -> FockWorkspace:
        d = _guard_dim(theta, dim)
        if d not in spaces:
            spaces[d] = build_workspace(d)
        return spaces[d]

    def add(check: str, detail: str, value: float, lo: float, hi: float):
        status = "pass" if lo <= value <= hi else "fail"
        rows.append([check, detail, float(value), float(lo), float(hi), status])

    # operator algebra on the interior of a small space
    ws32 = build_workspace(32)
    for name, resid in algebra_residuals(ws32).items():
        add("algebra", name, resid, 0.0, 1e-12)

    # two constructions of the same coded vacuum must agree
    for theta in (0.3, 0.5, 0.8):
        ws = at(theta)
        direct = memory_vector(ws, theta)
        via_gen = memory_vector_via_generator(ws, theta)
        add("dual-construction", f"theta={theta}",
            _norm(direct - via_gen), 0.0, 1e-10)

    # dissipative evolution against the closed-form trajectory
    for theta, t in ((0.3, 0.15), (0.5, 0.25), (0.8, 0.4), (0.8, 0.8)):
        ws = at(max(theta, abs(t - theta)))  # gamma = 1
        v0 = memory_vector(ws, theta)
        w = evolve_vector(ws, v0, t, theta=theta)
        target = memory_vector(ws, theta - ws.gamma * t)
        add("evolution", f"theta={theta},t={t}",
            _norm(w - target), 0.0, 1e-10)
        add("unitarity", f"theta={theta},t={t}",
            abs(_norm(w) - 1.0), 0.0, 1e-10)

    # closed-form observables against oracle expectations
    for theta in (0.1, 0.3, 0.5, 0.8, 1.0, 1.2):
        for frac in (0.0, 0.5, 2.0):  # of tau, at gamma = 1
            t_eff = theta * frac
            big_t = t_eff - theta
            ws = at(big_t)
            v = memory_vector(ws, -big_t)
            add("occupation", f"Theta={big_t:.3g}",
                abs(occupation_expectation(ws, v) - math.sinh(big_t) ** 2),
                0.0, 1e-8)
            add("vacuum-overlap", f"Theta={big_t:.3g}",
                abs(oracle_overlap(v, ws.vacuum()) - 1.0 / math.cosh(big_t)),
                0.0, 1e-8)
            q = quadrature_variances(ws, v)
            add("variances", f"Theta={big_t:.3g}",
                max(abs(q.dx2 - 0.25 * math.exp(-2.0 * big_t)),
                    abs(q.dy2 - 0.25 * math.exp(2.0 * big_t))),
                0.0, 1e-8)
            add("weight", f"Theta={big_t:.3g}",
                abs(weight_expectation(ws, v) - math.sinh(big_t) ** 2),
                0.0, 1e-8)
            if big_t != 0.0:
                s_closed = float(thermo._entropy_per_mode(big_t))
                add("entropy", f"Theta={big_t:.3g}",
                    abs(entropy_expectation(ws, v, big_t) - s_closed),
                    0.0, 1e-8)

    # squeeze factorization of the coded vacuum, which pads to its own guard
    # dim and refuses one above 4 times the workspace's, as at `dim`
    for theta in (0.25, 0.5, 1.0):
        add("squeeze-factorization", f"theta={theta}",
            check_squeeze_factorization(at(theta), theta), 0.0, 1e-8)

    # entropy flow: central-difference residual and its halving ratio
    for big_t in (0.1, 0.5, 1.0):
        ws = at(big_t)
        theta = big_t + 0.3
        t = 0.3
        r1 = check_entropy_flow(ws, theta, 1.0, t, 1e-4)
        r2 = check_entropy_flow(ws, theta, 1.0, t, 5e-5)
        add("entropy-flow", f"Theta={-big_t}", r1, 0.0, 1e-6)
        add("entropy-flow-ratio", f"Theta={-big_t}",
            r1 / r2 if r2 > 0.0 else 4.0, 3.5, 4.5)

    # hole relations at both signs of the effective parameter
    for mag in (0.1, 0.4, 0.8, 1.2):
        ws = at(mag)
        for sign in (1.0, -1.0):
            big_t = sign * mag
            v = memory_vector(ws, -big_t)
            r1, r2 = check_hole_relations(ws, v, big_t)
            add("hole-relations", f"Theta={big_t}", max(r1, r2), 0.0, 1e-8)

    return rows
