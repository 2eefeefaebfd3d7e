"""Brute-force matrix oracle on a truncated two-oscillator Fock space.

Everything `dqmem.states` claims in closed form is recomputed here the slow
way, for one mode pair at a time: explicit sparse matrices on the basis
|n, ntil> (n counts quanta of the damped memory mode a, ntil of its mirror
partner atil, each truncated to dim levels), exponential actions applied
term by term, expectations taken literally.

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
n * dim + ntil, built by `_pair_space`) remains in two places only:
`algebra_residuals` checks the operator identities on it at the workspace
dim (the CLI uses dim 32), and `check_squeeze_factorization` runs on it at
its own padded dim d_pad, because a single-mode squeezer spreads the vacuum
over every even sector.

The rotated quadrature pair that factorizes the write operation is

    b = (a - atil)/sqrt(2),  btil = (a + atil)/sqrt(2),
    S_mode(r) = exp(-r/2 (mode^2 - modedag^2)),
    exp(-i G(theta)) = S_b(theta) S_btil(-theta),

under which the b position variance of the state at Theta is contracted,
exp(-2 Theta)/4. (The opposite pairing flips the factorization and the
variance table simultaneously; it is rejected by `check_squeeze_factorization`
at O(1), which is the point of keeping the check.)

Exponential actions (`expm_action`) are exact Taylor sums run on the
reachable support of the start vector only, the set of basis states its
nonzeros reach through the matrix's nonzero pattern; outside that set every
term is zero. A squeezer acting on the vacuum stays on the n + ntil even
half of the pair space, so the squeeze check never evolves the full dim^2
vector. Every exponent the oracle takes is real (-i G(theta), -i t H_int
and the squeezer generators), and a real exponent acting on a real vector
is summed in float64.

Truncation policy: the top Fock level of each oscillator is where the
commutation relations necessarily break, so operator-identity checks are
restricted to the interior {n < dim-1, ntil < dim-1}. State constructions
refuse parameters whose discarded tail tanh(theta)^(2 dim) exceeds an
explicit budget rather than truncating silently.

Fixed tolerances are module constants, not keyword arguments, so every
check runs at one setting: an `expm_action` Taylor stage has 1-norm at most
_STAGE_NORM = 4 and ends once a term is below _EXPM_TOL = 1e-15 of the
partial sum, within _MAX_TERMS = 120 terms; `evolve_vector` allows a tail of
_EVOLVE_MAX_TAIL = 1e-17 along its path; `check_squeeze_factorization` runs
at d_pad, the dim where its tail is _SQUEEZE_GUARD_TAIL = 1e-12, and refuses
a d_pad above _MAX_PAD_FACTOR = 4 times dim; the hole-relation and
entropy-flow checks refuse |Theta| below _MIN_ABS_THETA = 0.05. Only
memory_vector's budget (1e-10) is a parameter.

This is the only module that needs scipy, and it loads lazily: `import
dqmem` leaves it (and scipy) unloaded until `dqmem.fock` or one of the
names the package re-exports from it is first used, and the CLI imports it
for `oracle-verify` only. Install it with the `dqmem[oracle]` extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .states import Variances

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

_SQRT2 = math.sqrt(2.0)
_MIN_DIM = 4

# fixed tolerances, described in the module docstring
_EXPM_TOL = 1e-15
_STAGE_NORM = 4.0
_MAX_TERMS = 120
_EVOLVE_MAX_TAIL = 1e-17
_SQUEEZE_GUARD_TAIL = 1e-12
_MAX_PAD_FACTOR = 4
_MIN_ABS_THETA = 0.05


def _real_csr(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """float64 CSR of a matrix whose entries are all real.

    (.real on the sparse matrix itself raises ComplexWarning; the copy keeps
    the data contiguous, so no matvec has to copy it again.)
    """
    return sparse.csr_matrix((matrix.data.real.copy(), matrix.indices, matrix.indptr),
                             shape=matrix.shape)


def _check_hermitian(**mats: sparse.csr_matrix) -> None:
    for name, mat in mats.items():
        defect = mat - mat.conj().T
        if defect.nnz and abs(defect).max() > 0.0:
            raise RuntimeError(f"{name} failed its Hermiticity self-check")


@dataclass(frozen=True, eq=False)
class FockWorkspace:
    """Immutable bundle of sector blocks for one damped mode pair.

    All matrices are complex128 CSR. The ladder blocks map sector 0 (dim
    states) into one neighbouring sector (dim - 1 states): a and atildag
    into sector -1, atil and adag into sector +1; the adjoint of a block
    carries its sector back to 0 (a.conj().T is adag there). `j_plus`,
    `j_minus`, `h_int`, `number` (adag a) and `number_flipped` (a adag) are
    dim x dim sector-0 blocks, literal products of ladder blocks (not rebuilt
    from integer arrays, so expectation checks exercise the same floating
    arithmetic the identities do). `interior[s]` is the boolean mask of
    sector s's states inside {n < dim-1, ntil < dim-1}, for s in (-1, 0, 1).
    The four rotated quadratures are built on first use and then kept.
    """

    dim: int
    omega: float
    gamma: float
    a: sparse.csr_matrix
    adag: sparse.csr_matrix
    atil: sparse.csr_matrix
    atildag: sparse.csr_matrix
    j_plus: sparse.csr_matrix
    j_minus: sparse.csr_matrix
    h_int: sparse.csr_matrix
    number: sparse.csr_matrix
    number_flipped: sparse.csr_matrix
    interior: dict[int, np.ndarray]

    @cached_property
    def quadratures(self) -> tuple[sparse.csr_matrix, ...]:
        """Position and momentum of b, then of btil: (x1, y1, x2, y2).

        Each maps sector 0 onto sectors -1 and +1, stacked in that order: a
        quadrature moves n - ntil by one, so these rows hold all of its image
        of a memory state. The two real position quadratures are float64
        CSR: a product with a complex vector casts their entries back to
        complex exactly.
        """
        out = []
        for sign in (-1.0, 1.0):  # b = (a - atil)/sqrt2, btil = (a + atil)/sqrt2
            mode = sparse.vstack([self.a, sign * self.atil], format="csr") / _SQRT2
            dag = sparse.vstack([sign * self.atildag, self.adag], format="csr") / _SQRT2
            out += [_real_csr(0.5 * (mode + dag)), ((-0.5j) * (mode - dag)).tocsr()]
        return tuple(out)

    def vacuum(self) -> np.ndarray:
        """|0,0> as a sector-0 vector."""
        v = np.zeros(self.dim, dtype=np.complex128)
        v[0] = 1.0
        return v

    def generator(self, theta: float) -> sparse.csr_matrix:
        """Write generator G(theta) = -i theta (J+ - J-) on sector 0, Hermitian."""
        return ((-1j * theta) * (self.j_plus - self.j_minus)).tocsr()

    def entropy_operator(self, theta_eff: float) -> sparse.csr_matrix:
        """Modular entropy operator of the damped mode at effective Theta, on sector 0.

        S(Theta) = -(ndag n ln sinh^2 - n ndag ln cosh^2); its expectation on
        the memory state at Theta is the closed-form pair entropy. Diverges
        logarithmically at Theta = 0.
        """
        theta_eff = float(theta_eff)
        if theta_eff == 0.0:
            raise ValueError("entropy operator is singular at Theta = 0")
        ln_sinh2 = 2.0 * math.log(abs(math.sinh(theta_eff)))
        ln_cosh2 = 2.0 * math.log(math.cosh(theta_eff))
        return (-(ln_sinh2 * self.number - ln_cosh2 * self.number_flipped)).tocsr()

    def entropy_rate_operator(self, theta_eff: float, gamma: float) -> sparse.csr_matrix:
        """Time derivative of entropy_operator along Theta(t) = gamma t - theta."""
        theta_eff = float(theta_eff)
        if theta_eff == 0.0:
            raise ValueError("entropy rate operator is singular at Theta = 0")
        coth = math.cosh(theta_eff) / math.sinh(theta_eff)
        tanh = math.tanh(theta_eff)
        return (-(2.0 * gamma * coth * self.number
                  - 2.0 * gamma * tanh * self.number_flipped)).tocsr()


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
    shape = (dim - 1, dim)
    a = sparse.diags(root, 1, shape=shape, format="csr", dtype=np.complex128)
    adag = sparse.diags(root, 0, shape=shape, format="csr", dtype=np.complex128)
    atil, atildag = a, adag
    # each product passes through the one sector its right factor reaches
    j_plus = (a.conj().T @ atildag).tocsr()
    j_minus = (adag.conj().T @ atil).tocsr()
    h_int = ((1j * gamma) * (j_plus - j_minus)).tocsr()
    _check_hermitian(h_int=h_int)

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
        number=(a.conj().T @ a).tocsr(),
        number_flipped=(adag.conj().T @ adag).tocsr(),
        interior={-1: side, 0: k < dim - 1, 1: side},
    )


@dataclass(frozen=True, eq=False)
class _PairSpace:
    """Operators on the whole dim^2 pair space, flat index n * dim + ntil.

    Only the operator identities (`algebra_residuals`) and the squeeze
    factorization need it. `h0`, `j3` and `casimir` are built from exact
    integer diagonals, `interior` projects onto {n < dim-1, ntil < dim-1}.
    """

    dim: int
    a: sparse.csr_matrix
    adag: sparse.csr_matrix
    atil: sparse.csr_matrix
    atildag: sparse.csr_matrix
    b: sparse.csr_matrix
    btil: sparse.csr_matrix
    j_plus: sparse.csr_matrix
    j_minus: sparse.csr_matrix
    j3: sparse.csr_matrix
    casimir: sparse.csr_matrix
    h0: sparse.csr_matrix
    h_int: sparse.csr_matrix
    number: sparse.csr_matrix
    mirror_number: sparse.csr_matrix
    interior: sparse.csr_matrix
    n_index: np.ndarray
    ntil_index: np.ndarray

    @property
    def size(self) -> int:
        """Dimension of the pair space, dim ** 2."""
        return self.dim * self.dim

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.size, dtype=np.complex128)
        v[0] = 1.0
        return v

    def squeezer_generator(self, r: float, mirror: bool = False) -> sparse.csr_matrix:
        """Generator of the squeezer S(r) = exp(-r/2 (m^2 - mdag^2)) on m = b
        (btil with `mirror`): real antisymmetric, so the exponential is
        orthogonal and the Taylor stages cannot blow up."""
        mode = self.btil if mirror else self.b
        # the adjoint and the scaling are taken in place: this is the largest
        # matrix the oracle builds, and its temporaries set its peak memory
        mm = (mode @ mode).tocsr()
        mmdag = mm.T.tocsr()
        np.conjugate(mmdag.data, out=mmdag.data)
        gen = mm - mmdag
        gen.data *= -0.5 * r
        return gen


def _pair_space(dim: int, omega: float = 1.0, gamma: float = 1.0) -> _PairSpace:
    """The one full-space construction; Hermiticity of H0 and H_int is
    verified entrywise before it is returned."""
    single = sparse.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr",
                          dtype=np.complex128)
    ident = sparse.identity(dim, format="csr", dtype=np.complex128)
    a = sparse.kron(single, ident, format="csr")
    atil = sparse.kron(ident, single, format="csr")
    adag = a.conj().T.tocsr()
    atildag = atil.conj().T.tocsr()
    j_plus = (adag @ atildag).tocsr()
    j_minus = (a @ atil).tocsr()
    n_index = np.repeat(np.arange(dim), dim)
    ntil_index = np.tile(np.arange(dim), dim)

    # exact integer diagonals: [H0, H_int] = 0 and the weight-raising
    # commutators then hold float-exactly, not just to round-off
    def diag(values: np.ndarray) -> sparse.csr_matrix:
        return sparse.diags(values.astype(np.complex128), 0, format="csr")

    h0 = diag(omega * (n_index - ntil_index).astype(float))
    j3 = diag(0.5 * (n_index + ntil_index + 1).astype(float))
    casimir = diag(0.5 * (n_index - ntil_index).astype(float))
    h_int = ((1j * gamma) * (j_plus - j_minus)).tocsr()
    _check_hermitian(h0=h0, h_int=h_int)

    inside = (n_index < dim - 1) & (ntil_index < dim - 1)
    interior = diag(inside.astype(float))

    return _PairSpace(
        dim=dim,
        a=a,
        adag=adag,
        atil=atil,
        atildag=atildag,
        b=((a - atil) / _SQRT2).tocsr(),
        btil=((a + atil) / _SQRT2).tocsr(),
        j_plus=j_plus,
        j_minus=j_minus,
        j3=j3,
        casimir=casimir,
        h0=h0,
        h_int=h_int,
        number=(adag @ a).tocsr(),
        mirror_number=(atildag @ atil).tocsr(),
        interior=interior,
        n_index=n_index,
        ntil_index=ntil_index,
    )


def _reachable(matrix: sparse.spmatrix, vec: np.ndarray) -> np.ndarray:
    """Sorted indices of the basis states that `vec` reaches under `matrix`.

    A frontier search over the column pattern: starting from vec's nonzeros,
    each pass adds the rows stored in the newly reached columns, until no new
    row appears. The set is closed under `matrix`, so every power of it
    applied to `vec` vanishes outside the set.
    """
    csr = sparse.csr_matrix(matrix)
    # the pattern alone, so the transpose copies no matrix values
    csc = sparse.csr_matrix((np.ones(csr.nnz, dtype=bool), csr.indices, csr.indptr),
                            shape=csr.shape).tocsc()
    indptr, indices = csc.indptr, csc.indices
    seen = np.zeros(csc.shape[1], dtype=bool)
    frontier = np.flatnonzero(vec)
    seen[frontier] = True
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        # position in `indices` of every entry stored in a frontier column
        base = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        rows = indices[base + np.arange(base.size)]
        frontier = np.unique(rows[~seen[rows]])
        seen[frontier] = True
    return np.flatnonzero(seen)


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


def expm_action(matrix: sparse.spmatrix, vec: np.ndarray) -> np.ndarray:
    """Apply exp(matrix) to vec by staged Taylor series, deterministically.

    The series runs on the reachable support of vec only: the basis states
    that vec's nonzeros reach through the column pattern of matrix. That set
    is closed under matrix, so every Taylor term vanishes outside it and the
    columns outside it only ever multiply zeros; restricting matrix to it
    (and embedding the result back into zeros) drops no term. A squeezer
    acting on the pair-space vacuum stays on the n + ntil even half.

    The restricted matrix is split into s stages of 1-norm <= _STAGE_NORM;
    each stage is summed until the term norm drops below _EXPM_TOL relative
    to the partial sum. When matrix and vec are both real, as every exponent
    the oracle takes is, the series runs in float64; the result is complex128
    either way. Deterministic by construction (no norm estimation, no
    randomness), which is why this exists instead of scipy's expm_multiply:
    rerun artifacts must be byte-identical. Every vector norm and inner
    product in this module, the term test included, is `_re_inner`, which
    never enters BLAS, so no result depends on the BLAS thread count either.

    Raises RuntimeError if a stage fails to converge within _MAX_TERMS terms.
    """
    vec = np.asarray(vec, dtype=np.complex128)
    matrix = sparse.csr_matrix(matrix)
    keep = _reachable(matrix, vec)
    w = vec[keep]
    if not (np.any(matrix.data.imag) or np.any(w.imag)):
        matrix = _real_csr(matrix)
        w = w.real.copy()
    if keep.size < vec.size:
        matrix = matrix[keep][:, keep]
    norm1 = float(np.max(abs(matrix).sum(axis=0))) if matrix.nnz else 0.0
    stages = max(1, int(math.ceil(norm1 / _STAGE_NORM)))
    for _ in range(stages):
        term = w.copy()
        acc = w.copy()
        for k in range(1, _MAX_TERMS + 1):
            term = matrix.dot(term) / (stages * k)
            acc += term
            if _norm(term) <= _EXPM_TOL * _norm(acc):
                break
        else:
            raise RuntimeError(
                f"exponential series did not converge within {_MAX_TERMS} terms "
                f"(stage 1-norm {norm1 / stages:.3g})"
            )
        w = acc
    out = np.zeros(vec.shape, dtype=np.complex128)
    out[keep] = w
    return out


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
    m = ((-1j) * ws.generator(theta)).tocsr()
    return expm_action(m, ws.vacuum())


def evolve_vector(ws: FockWorkspace, v: np.ndarray, t: float, *,
                  theta: float | None = None) -> np.ndarray:
    """Apply exp(-i t H_int) to the sector-0 vector v by error-controlled
    series action; H_int conserves n - ntil, so the result stays in sector 0.

    The propagator error is dominated by boundary reflection,
    ~0.7 tanh(|Theta|)^dim at the worst effective parameter touched, which is
    the square root of the state-tail bound; hence the much stricter tail
    budget here (_EVOLVE_MAX_TAIL = 1e-17) than in memory_vector. Pass
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
    m = ((-1j * t) * ws.h_int).tocsr()
    return expm_action(m, v)


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


def _fro(m: sparse.spmatrix) -> float:
    if m.nnz == 0:
        return 0.0
    return float(math.sqrt(abs(m).power(2).sum()))


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
    full = _pair_space(ws.dim, ws.omega, ws.gamma)
    p = full.interior
    ident = sparse.identity(full.size, format="csr", dtype=np.complex128)

    def proj(m):
        return p @ m @ p

    def residual(diff: sparse.spmatrix, *terms: sparse.spmatrix) -> float:
        scale = max([1.0] + [_fro(proj(t)) for t in terms])
        return _fro(proj(diff)) / scale

    bdag = full.b.conj().T.tocsr()
    btildag = full.btil.conj().T.tocsr()

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
    diag_sel = sparse.diags(on_diag.astype(np.complex128), 0, format="csr")
    off_rows = sparse.diags((1.0 - on_diag).astype(np.complex128), 0, format="csr")
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
    instead of testing the identity. The comparison therefore runs on the
    full pair space at d_pad, the smallest dim (at least 4) with
    tanh(|theta|)^d_pad <= _SQUEEZE_GUARD_TAIL (1e-12), and is refused when
    d_pad exceeds _MAX_PAD_FACTOR (4) times ws.dim. The residual depends on
    theta alone (ws sets only the refusal bound) and reflects the operator
    identity itself (below 1e-9), while a wrong sign convention still fails
    at O(1).
    """
    theta = float(theta)
    lam = abs(math.tanh(theta))
    d_pad = _MIN_DIM
    if lam >= 1.0:
        # tanh rounds to 1 beyond |theta| ~ 19, where no dim is enough
        d_pad = math.inf
    elif lam > 0.0:
        d_pad = max(d_pad, math.ceil(math.log(_SQUEEZE_GUARD_TAIL) / math.log(lam)))
    if d_pad > _MAX_PAD_FACTOR * ws.dim:
        raise ValueError(
            f"squeeze factorization budget exceeded at theta={theta}: "
            f"needs dim {d_pad} > {_MAX_PAD_FACTOR} * {ws.dim}"
        )
    full = _pair_space(d_pad)
    vac = full.vacuum()
    u = expm_action(((-theta) * (full.j_plus - full.j_minus)).tocsr(), vac)
    w = expm_action(full.squeezer_generator(-theta, mirror=True), vac)
    w = expm_action(full.squeezer_generator(theta), w)
    return _norm(u - w)


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
