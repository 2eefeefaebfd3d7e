"""Brute-force matrix oracle on a truncated two-oscillator Fock space.

Everything `dqmem.states` claims in closed form is recomputed here the slow
way, for one mode pair at a time: explicit sparse matrices on the basis
|n, ntil> (n counts quanta of the damped memory mode a, ntil of its mirror
partner atil; flat index n * dim + ntil), exponential actions applied term
by term, expectations taken literally. Memory states live on the paired
diagonal n == ntil.

Operator conventions, fixed once here and relied on everywhere:

    J+ = adag atildag        J- = a atil        J3 = (n + ntil + 1)/2
    H0 = omega (n - ntil)    H_int = i gamma (J+ - J-)
    G(theta) = -i theta (J+ - J-)
    memory_vector(theta) = exp(-i G(theta)) |0,0>
                         = sum_n (-tanh theta)^n / cosh theta |n, n>

so evolving under exp(-i t H_int) shifts the squeeze parameter linearly and
the state at effective parameter Theta = gamma t - theta has amplitudes
(tanh Theta)^n / cosh Theta, i.e. equals memory_vector(-Theta) exactly.

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
term is zero. A memory state stays on the dim paired-diagonal states under
G(theta) and H_int, and a squeezer acting on the vacuum stays on the
n + ntil even half of the pair space, so the oracle never evolves the full
dim^2 vector for them. Every exponent the oracle takes is real (-i G(theta),
-i t H_int and the squeezer generators), and a real exponent acting on a
real vector is summed in float64.

Truncation policy: the top Fock level of each oscillator is where the
commutation relations necessarily break, so operator-identity checks are
restricted to the interior {n < dim-1, ntil < dim-1}. State constructions
refuse parameters whose discarded tail tanh(theta)^(2 dim) exceeds an
explicit budget rather than truncating silently.

Fixed tolerances are module constants, not keyword arguments, so every
check runs at one setting: an `expm_action` Taylor stage has 1-norm at most
_STAGE_NORM = 4 and ends once a term is below _EXPM_TOL = 1e-15 of the
partial sum, within _MAX_TERMS = 120 terms; `evolve_vector` allows a tail of
_EVOLVE_MAX_TAIL = 1e-17 along its path; `check_squeeze_factorization` pads
until its tail is _SQUEEZE_GUARD_TAIL = 1e-12, to at most _MAX_PAD_FACTOR = 4
times dim; the hole-relation and entropy-flow checks refuse |Theta| below
_MIN_ABS_THETA = 0.05. Only memory_vector's budget (1e-10) is a parameter.

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


@dataclass(frozen=True, eq=False)
class FockWorkspace:
    """Immutable bundle of operator matrices for one damped mode pair.

    All matrices are complex128 CSR on the d^2-dimensional pair space.
    `interior` projects onto {n < dim-1, ntil < dim-1}; `number` and
    `mirror_number` are the literal products adag@a and atildag@atil (kept
    as products, not rebuilt from integer arrays, so expectation checks
    exercise the same floating arithmetic the identities do), while `h0`,
    `j3` and `casimir` are built from exact integer diagonals. The four
    rotated quadratures are built on first use and then kept, the two real
    position quadratures as float64 CSR: a product with a complex vector
    casts their entries back to complex exactly.
    """

    dim: int
    omega: float
    gamma: float
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
    number_flipped: sparse.csr_matrix
    interior: sparse.csr_matrix
    n_index: np.ndarray
    ntil_index: np.ndarray

    @property
    def size(self) -> int:
        """Dimension of the pair space, dim ** 2."""
        return self.dim * self.dim

    @cached_property
    def quadratures(self) -> tuple[sparse.csr_matrix, ...]:
        """Position and momentum of b, then of btil: (x1, y1, x2, y2)."""
        out = []
        for mode in (self.b, self.btil):
            dag = mode.conj().T.tocsr()
            out += [_real_csr(0.5 * (mode + dag)), ((-0.5j) * (mode - dag)).tocsr()]
        return tuple(out)

    def vacuum(self) -> np.ndarray:
        v = np.zeros(self.size, dtype=np.complex128)
        v[0] = 1.0
        return v

    def generator(self, theta: float) -> sparse.csr_matrix:
        """Write generator G(theta) = -i theta (J+ - J-), Hermitian."""
        return ((-1j * theta) * (self.j_plus - self.j_minus)).tocsr()

    def squeezer_generator(self, r: float, mirror: bool = False) -> sparse.csr_matrix:
        """Generator of the squeezer S(r) = exp(-r/2 (m^2 - mdag^2)) on m = b
        (btil with `mirror`): real antisymmetric, so the exponential is
        orthogonal and the Taylor stages cannot blow up."""
        mode = self.btil if mirror else self.b
        # the adjoint and the scaling are taken in place: this is the largest
        # matrix the oracle builds, and its temporaries set the run's peak memory
        mm = (mode @ mode).tocsr()
        mmdag = mm.T.tocsr()
        np.conjugate(mmdag.data, out=mmdag.data)
        gen = mm - mmdag
        gen.data *= -0.5 * r
        return gen

    def entropy_operator(self, theta_eff: float) -> sparse.csr_matrix:
        """Modular entropy operator of the damped mode at effective Theta.

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
    """Construct all pair-space matrices at truncation `dim` per oscillator.

    dim >= 4 so the interior subspace is nontrivial. Hermiticity of H0 and
    H_int is verified entrywise before the workspace is returned.
    """
    dim = int(dim)
    if dim < 4:
        raise ValueError(f"dim must be >= 4, got {dim}")
    omega = float(omega)
    gamma = float(gamma)
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ValueError(f"omega must be positive and finite, got {omega}")
    if not (gamma >= 0.0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be >= 0 and finite, got {gamma}")

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

    for name, mat in (("h0", h0), ("h_int", h_int)):
        defect = mat - mat.conj().T
        if defect.nnz and abs(defect).max() > 0.0:
            raise RuntimeError(f"{name} failed its Hermiticity self-check")

    inside = (n_index < dim - 1) & (ntil_index < dim - 1)
    interior = diag(inside.astype(float))

    return FockWorkspace(
        dim=dim,
        omega=omega,
        gamma=gamma,
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
        number_flipped=(a @ adag).tocsr(),
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
    (and embedding the result back into zeros) drops no term. A memory state
    under G(theta) or H_int stays on the dim paired-diagonal states, and a
    squeezer acting on the vacuum on the n + ntil even half of the pair space.

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
    """Freshly written pair state sum_n (-tanh theta)^n / cosh theta |n, n>.

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
    amps = (ratio ** np.arange(ws.dim)) / math.cosh(theta)
    v = np.zeros(ws.size, dtype=np.complex128)
    v[np.arange(ws.dim) * (ws.dim + 1)] = amps
    return v / _norm(v)


def memory_vector_via_generator(ws: FockWorkspace, theta: float) -> np.ndarray:
    """Dual construction of memory_vector: exp(-i G(theta)) |0,0>.

    Carries the boundary-reflection error of the exponential action,
    ~tanh(theta)^dim, on top of the explicit route's tail; callers comparing
    the two routes at 1e-10 should keep tanh(theta)^dim below that.
    """
    m = ((-1j) * ws.generator(theta)).tocsr()
    return expm_action(m, ws.vacuum())


def evolve_vector(ws: FockWorkspace, v: np.ndarray, t: float, *,
                  theta: float | None = None) -> np.ndarray:
    """Apply exp(-i t H_int) to v by error-controlled series action.

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
    if theta is not None:
        worst = max(abs(float(theta)), abs(ws.gamma * t - float(theta)))
        _require_budget(worst, ws.dim, _EVOLVE_MAX_TAIL,
                        f"evolve_vector(theta={theta}, t={t})")
    m = ((-1j * t) * ws.h_int).tocsr()
    return expm_action(m, np.asarray(v, dtype=np.complex128))


def oracle_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """Inner product of normalized vectors, real under the phase convention."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"vector dimensions differ: {u.shape} vs {v.shape}")
    return _re_inner(u / _norm(u), v / _norm(v))


def occupation_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """<adag a> = ||a v||^2, the damped-mode occupation."""
    return _norm(ws.a.dot(v)) ** 2


def mirror_occupation_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    return _norm(ws.atil.dot(v)) ** 2


def weight_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """SU(1,1) weight above the Casimir floor: (<n> + <ntil>)/2."""
    return 0.5 * (occupation_expectation(ws, v) + mirror_occupation_expectation(ws, v))


def casimir_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """(<n> - <ntil>)/2; identically 0 on the paired diagonal sector."""
    return 0.5 * (occupation_expectation(ws, v) - mirror_occupation_expectation(ws, v))


def _variance(op: sparse.csr_matrix, v: np.ndarray) -> float:
    w = op.dot(v)
    mean = _re_inner(v, w)
    return _norm(w) ** 2 - mean * mean


def quadrature_variances(ws: FockWorkspace, v: np.ndarray) -> Variances:
    """Position/momentum variances of the rotated pair (b, btil) in state v."""
    x1, y1, x2, y2 = ws.quadratures
    return Variances(
        dx2=_variance(x1, v),
        dy2=_variance(y1, v),
        dx2_mirror=_variance(x2, v),
        dy2_mirror=_variance(y2, v),
    )


def entropy_expectation(ws: FockWorkspace, v: np.ndarray, theta_eff: float) -> float:
    """<S(Theta)> in state v; matches the closed-form pair entropy on memory states."""
    return _re_inner(v, ws.entropy_operator(theta_eff).dot(v))


def _fro(m: sparse.spmatrix) -> float:
    if m.nnz == 0:
        return 0.0
    return float(math.sqrt(abs(m).power(2).sum()))


def algebra_residuals(ws: FockWorkspace) -> dict[str, float]:
    """Residuals of every operator identity the construction promises.

    Each entry is a relative Frobenius residual on the interior subspace:
    ||P (lhs - rhs) P||_F / max(1, largest ||P term P||_F among the products
    involved). Identities that are structurally exact with the integer-
    diagonal construction (the [H0, H_int] commutator, the diagonal-sector
    closure of H_int, the cross-mode commutators) come out as exact 0.0;
    the rest are float round-off, orders below 1e-12.
    """
    p = ws.interior
    ident = sparse.identity(ws.size, format="csr", dtype=np.complex128)

    def proj(m):
        return p @ m @ p

    def residual(diff: sparse.spmatrix, *terms: sparse.spmatrix) -> float:
        scale = max([1.0] + [_fro(proj(t)) for t in terms])
        return _fro(proj(diff)) / scale

    bdag = ws.b.conj().T.tocsr()
    btildag = ws.btil.conj().T.tocsr()

    out: dict[str, float] = {}

    def ccr(name, lo, hi):
        lohi = lo @ hi
        hilo = hi @ lo
        out[name] = residual(lohi - hilo - ident, lohi, hilo, ident)

    ccr("ccr_pair", ws.a, ws.adag)
    ccr("ccr_mirror", ws.atil, ws.atildag)
    ccr("ccr_rotated", ws.b, bdag)
    ccr("ccr_rotated_mirror", ws.btil, btildag)

    cross = ws.a @ ws.atildag - ws.atildag @ ws.a
    out["ccr_cross"] = residual(cross, ws.a @ ws.atildag, ws.atildag @ ws.a)
    rcross = ws.b @ btildag - btildag @ ws.b
    out["ccr_rotated_cross"] = residual(rcross, ws.b @ btildag, btildag @ ws.b)

    jpjm = ws.j_plus @ ws.j_minus
    jmjp = ws.j_minus @ ws.j_plus
    out["su11_ladder"] = residual(jpjm - jmjp + 2.0 * ws.j3, jpjm, jmjp, 2.0 * ws.j3)

    j3jp = ws.j3 @ ws.j_plus
    jpj3 = ws.j_plus @ ws.j3
    out["su11_weight_raise"] = residual(j3jp - jpj3 - ws.j_plus, j3jp, jpj3, ws.j_plus)
    j3jm = ws.j3 @ ws.j_minus
    jmj3 = ws.j_minus @ ws.j3
    out["su11_weight_lower"] = residual(j3jm - jmj3 + ws.j_minus, j3jm, jmj3, ws.j_minus)

    c2 = ws.casimir @ ws.casimir
    quad = ws.j3 @ ws.j3 - 0.5 * (jpjm + jmjp) + 0.25 * ident
    out["casimir_quadratic"] = residual(c2 - quad, c2, quad)
    delta = ws.number - ws.mirror_number
    out["casimir_number_form"] = residual(c2 - 0.25 * (delta @ delta), c2, delta @ delta)

    h0h = ws.h0 @ ws.h_int
    hh0 = ws.h_int @ ws.h0
    out["h0_hint_commutator"] = residual(h0h - hh0, h0h, hh0)

    # sector checks: columns of the paired diagonal must stay on it, and H0
    # must annihilate it (not just phase it); exact by integer construction
    on_diag = (ws.n_index == ws.ntil_index).astype(float)
    diag_sel = sparse.diags(on_diag.astype(np.complex128), 0, format="csr")
    off_rows = sparse.diags((1.0 - on_diag).astype(np.complex128), 0, format="csr")
    out["interaction_diagonal_closure"] = residual(off_rows @ (ws.h_int @ diag_sel),
                                                   ws.h_int @ diag_sel)
    out["h0_annihilates_diagonal"] = residual(ws.h0 @ diag_sel, ws.h0)
    return out


def check_hole_relations(ws: FockWorkspace, v: np.ndarray,
                         theta_eff: float) -> tuple[float, float]:
    """Interior norms of the two hole relations on a memory state at Theta.

    Creating a quantum of the damped mode is the same as destroying one of
    its mirror, weighted by cosh/sinh of the effective parameter:
    (adag/cosh - atil/sinh) v and (atildag/cosh - a/sinh) v both vanish on
    exact memory states. Rejects |Theta| < _MIN_ABS_THETA (0.05), where the
    sinh division degenerates.
    """
    theta_eff = float(theta_eff)
    if abs(theta_eff) < _MIN_ABS_THETA:
        raise ValueError(
            f"hole relations are degenerate near Theta = 0 "
            f"(|{theta_eff}| < {_MIN_ABS_THETA}): sinh division blows up"
        )
    ch = math.cosh(theta_eff)
    sh = math.sinh(theta_eff)
    r1 = ws.interior.dot(ws.adag.dot(v) / ch - ws.atil.dot(v) / sh)
    r2 = ws.interior.dot(ws.atildag.dot(v) / ch - ws.a.dot(v) / sh)
    return _norm(r1), _norm(r2)


def check_squeeze_factorization(ws: FockWorkspace, theta: float) -> float:
    """|| exp(-i G(theta))|0,0> - S_b(theta) S_btil(-theta)|0,0> ||.

    The single-mode squeezers spread amplitude across total-number shells
    with tail tanh(|theta|)^d, so computing both routes at the workspace dim
    saturates at that tail instead of testing the identity. The comparison
    is therefore done in a padded workspace, dim grown until
    tanh(|theta|)^d_pad <= _SQUEEZE_GUARD_TAIL (1e-12), and refused when that
    needs more than _MAX_PAD_FACTOR (4) times ws.dim; the returned residual
    then reflects the operator identity itself (~1e-12), while a wrong sign
    convention still fails at O(1).
    """
    theta = float(theta)
    lam = abs(math.tanh(theta))
    if lam > 0.0:
        # tanh rounds to 1 beyond |theta| ~ 19, where no padding is enough
        d_pad = (math.ceil(math.log(_SQUEEZE_GUARD_TAIL) / math.log(lam))
                 if lam < 1.0 else math.inf)
        if d_pad > _MAX_PAD_FACTOR * ws.dim:
            raise ValueError(
                f"squeeze factorization budget exceeded at theta={theta}: "
                f"needs dim {d_pad} > {_MAX_PAD_FACTOR} * {ws.dim}"
            )
        if d_pad > ws.dim:
            ws = build_workspace(d_pad, ws.omega, ws.gamma)
    vac = ws.vacuum()
    u = expm_action(((-theta) * (ws.j_plus - ws.j_minus)).tocsr(), vac)
    w = expm_action(ws.squeezer_generator(-theta, mirror=True), vac)
    w = expm_action(ws.squeezer_generator(theta), w)
    return _norm(u - w)


def check_entropy_flow(ws: FockWorkspace, theta: float, gamma: float, t: float,
                       dt: float) -> float:
    """Residual of the entropy-driven flow equation at time t.

    The damped pair obeys d/dt v(t) = -1/2 (dS/dt) v(t) with
    dS/dt = -(adag a 2 gamma coth Theta - a adag 2 gamma tanh Theta); the
    check builds v(t +/- dt) as exact memory states on the flow (not by
    evolving, so the central difference isolates the operator identity) and
    returns the interior norm of the defect. Second order in dt: halving dt
    quarters it. Rejects |Theta| < _MIN_ABS_THETA (0.05), where coth
    diverges.

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
    return _norm(ws.interior.dot(defect))
