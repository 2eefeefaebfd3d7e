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

Truncation policy: the top Fock level of each oscillator is where the
commutation relations necessarily break, so operator-identity checks are
restricted to the interior {n < dim-1, ntil < dim-1}. State constructions
refuse parameters whose discarded tail tanh(theta)^(2 dim) exceeds an
explicit budget rather than truncating silently.

This is the only module that needs scipy, and it loads lazily: `import
dqmem` leaves it (and scipy) unloaded until `dqmem.fock` or one of the
names the package re-exports from it is first used, and the CLI imports it
for `oracle-verify` only. Install it with the `dqmem[oracle]` extra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

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


def _pair_operators(dim: int) -> SimpleNamespace:
    """Sparse lowering/pair operators for one mode pair at truncation `dim`."""
    single = sparse.diags(
        np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr", dtype=np.complex128
    )
    ident = sparse.identity(dim, format="csr", dtype=np.complex128)
    a = sparse.kron(single, ident, format="csr")
    atil = sparse.kron(ident, single, format="csr")
    adag = a.conj().T.tocsr()
    atildag = atil.conj().T.tocsr()
    jp = (adag @ atildag).tocsr()
    jm = (a @ atil).tocsr()
    b = ((a - atil) / _SQRT2).tocsr()
    btil = ((a + atil) / _SQRT2).tocsr()
    return SimpleNamespace(
        a=a, adag=adag, atil=atil, atildag=atildag, jp=jp, jm=jm, b=b, btil=btil
    )


def _squeezer_generator(mode: sparse.csr_matrix, r: float) -> sparse.csr_matrix:
    # S(r) = exp(-r/2 (m^2 - mdag^2)); generator is real antisymmetric, so
    # the exponential is orthogonal and the Taylor stages cannot blow up
    mm = (mode @ mode).tocsr()
    return ((-0.5 * r) * (mm - mm.conj().T)).tocsr()


@dataclass(frozen=True, eq=False)
class FockWorkspace:
    """Immutable bundle of operator matrices for one damped mode pair.

    All matrices are complex128 CSR on the d^2-dimensional pair space.
    `interior` projects onto {n < dim-1, ntil < dim-1}; `number` and
    `mirror_number` are the literal products adag@a and atildag@atil (kept
    as products, not rebuilt from integer arrays, so expectation checks
    exercise the same floating arithmetic the identities do), while `h0`,
    `j3` and `casimir` are built from exact integer diagonals.
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
    mirror_number_flipped: sparse.csr_matrix
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

    def generator(self, theta: float) -> sparse.csr_matrix:
        """Write generator G(theta) = -i theta (J+ - J-), Hermitian."""
        return ((-1j * theta) * (self.j_plus - self.j_minus)).tocsr()

    def squeezer_generator(self, r: float, mirror: bool = False) -> sparse.csr_matrix:
        """Generator of the single-mode squeezer S(r) on b (or btil)."""
        return _squeezer_generator(self.btil if mirror else self.b, r)

    def entropy_operator(self, theta_eff: float, mirror: bool = False) -> sparse.csr_matrix:
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
        if mirror:
            return (-(ln_sinh2 * self.mirror_number - ln_cosh2 * self.mirror_number_flipped)).tocsr()
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

    ops = _pair_operators(dim)
    n_index = np.repeat(np.arange(dim), dim)
    ntil_index = np.tile(np.arange(dim), dim)

    # exact integer diagonals: [H0, H_int] = 0 and the weight-raising
    # commutators then hold float-exactly, not just to round-off
    def diag(values: np.ndarray) -> sparse.csr_matrix:
        return sparse.diags(values.astype(np.complex128), 0, format="csr")

    h0 = diag(omega * (n_index - ntil_index).astype(float))
    j3 = diag(0.5 * (n_index + ntil_index + 1).astype(float))
    casimir = diag(0.5 * (n_index - ntil_index).astype(float))
    h_int = ((1j * gamma) * (ops.jp - ops.jm)).tocsr()

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
        a=ops.a,
        adag=ops.adag,
        atil=ops.atil,
        atildag=ops.atildag,
        b=ops.b,
        btil=ops.btil,
        j_plus=ops.jp,
        j_minus=ops.jm,
        j3=j3,
        casimir=casimir,
        h0=h0,
        h_int=h_int,
        number=(ops.adag @ ops.a).tocsr(),
        mirror_number=(ops.atildag @ ops.atil).tocsr(),
        number_flipped=(ops.a @ ops.adag).tocsr(),
        mirror_number_flipped=(ops.atil @ ops.atildag).tocsr(),
        interior=interior,
        n_index=n_index,
        ntil_index=ntil_index,
    )


def expm_action(matrix: sparse.spmatrix, vec: np.ndarray, *, tol: float = 1e-15,
                stage_norm: float = 4.0, max_terms: int = 120) -> np.ndarray:
    """Apply exp(matrix) to vec by staged Taylor series, deterministically.

    The matrix is split into s stages of 1-norm <= stage_norm; each stage is
    summed until the term norm drops below tol relative to the partial sum.
    Deterministic by construction (no norm estimation, no randomness), which
    is why this exists instead of scipy's expm_multiply: rerun artifacts must
    be byte-identical.

    Raises RuntimeError if a stage fails to converge within max_terms.
    """
    norm1 = float(np.max(np.abs(matrix).sum(axis=0))) if matrix.nnz else 0.0
    stages = max(1, int(math.ceil(norm1 / stage_norm)))
    w = np.asarray(vec, dtype=np.complex128).copy()
    for _ in range(stages):
        term = w.copy()
        acc = w.copy()
        for k in range(1, max_terms + 1):
            term = matrix.dot(term) / (stages * k)
            acc += term
            if np.linalg.norm(term) <= tol * np.linalg.norm(acc):
                break
        else:
            raise RuntimeError(
                f"exponential series did not converge within {max_terms} terms "
                f"(stage 1-norm {norm1 / stages:.3g})"
            )
        w = acc
    return w


def _tail(theta: float, dim: int) -> float:
    """Discarded norm^2 of the state at squeeze parameter theta: tanh^(2 dim)."""
    return math.tanh(abs(theta)) ** (2 * dim)


def _require_budget(tail: float, max_tail: float, what: str) -> None:
    if tail > max_tail:
        raise ValueError(
            f"truncation budget exceeded for {what}: discarded tail {tail:.3e} "
            f"> budget {max_tail:.3e}; increase dim or loosen the budget"
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
    _require_budget(_tail(theta, ws.dim), max_tail, f"memory_vector(theta={theta})")
    ratio = -math.tanh(theta)
    amps = (ratio ** np.arange(ws.dim)) / math.cosh(theta)
    v = np.zeros(ws.size, dtype=np.complex128)
    v[np.arange(ws.dim) * (ws.dim + 1)] = amps
    return v / np.linalg.norm(v)


def memory_vector_via_generator(ws: FockWorkspace, theta: float) -> np.ndarray:
    """Dual construction of memory_vector: exp(-i G(theta)) |0,0>.

    Carries the boundary-reflection error of the exponential action,
    ~tanh(theta)^dim, on top of the explicit route's tail; callers comparing
    the two routes at 1e-10 should keep tanh(theta)^dim below that.
    """
    m = ((-1j) * ws.generator(theta)).tocsr()
    return expm_action(m, ws.vacuum())


def evolve_vector(ws: FockWorkspace, v: np.ndarray, t: float, *,
                  theta: float | None = None, max_tail: float = 1e-17) -> np.ndarray:
    """Apply exp(-i t H_int) to v by error-controlled series action.

    The propagator error is dominated by boundary reflection,
    ~0.7 tanh(|Theta|)^dim at the worst effective parameter touched, which is
    the square root of the state-tail bound; hence the much stricter default
    budget here than in memory_vector. Pass `theta` (the code parameter of
    v) to enforce the budget on both endpoints of the path; with theta=None
    no budget check is possible and the caller owns the error.
    """
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and >= 0, got {t}")
    if theta is not None:
        worst = max(abs(float(theta)), abs(ws.gamma * t - float(theta)))
        _require_budget(_tail(worst, ws.dim), max_tail,
                        f"evolve_vector(theta={theta}, t={t})")
    m = ((-1j * t) * ws.h_int).tocsr()
    return expm_action(m, np.asarray(v, dtype=np.complex128))


def oracle_overlap(u: np.ndarray, v: np.ndarray) -> float:
    """Inner product of normalized vectors, real under the phase convention."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise ValueError(f"vector dimensions differ: {u.shape} vs {v.shape}")
    return float(np.vdot(u / np.linalg.norm(u), v / np.linalg.norm(v)).real)


def occupation_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """<adag a> = ||a v||^2, the damped-mode occupation."""
    return float(np.linalg.norm(ws.a.dot(v)) ** 2)


def mirror_occupation_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    return float(np.linalg.norm(ws.atil.dot(v)) ** 2)


def weight_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """SU(1,1) weight above the Casimir floor: (<n> + <ntil>)/2."""
    return 0.5 * (occupation_expectation(ws, v) + mirror_occupation_expectation(ws, v))


def casimir_expectation(ws: FockWorkspace, v: np.ndarray) -> float:
    """(<n> - <ntil>)/2; identically 0 on the paired diagonal sector."""
    return 0.5 * (occupation_expectation(ws, v) - mirror_occupation_expectation(ws, v))


def _variance(op: sparse.csr_matrix, v: np.ndarray) -> float:
    w = op.dot(v)
    mean = float(np.vdot(v, w).real)
    return float(np.linalg.norm(w) ** 2) - mean * mean


def quadrature_variances(ws: FockWorkspace, v: np.ndarray) -> Variances:
    """Position/momentum variances of the rotated pair (b, btil) in state v."""
    # quadratures are cheap to form on demand; workspaces stay lean
    bdag = ws.b.conj().T.tocsr()
    btildag = ws.btil.conj().T.tocsr()
    x1 = (0.5 * (ws.b + bdag)).tocsr()
    y1 = ((-0.5j) * (ws.b - bdag)).tocsr()
    x2 = (0.5 * (ws.btil + btildag)).tocsr()
    y2 = ((-0.5j) * (ws.btil - btildag)).tocsr()
    return Variances(
        dx2=_variance(x1, v),
        dy2=_variance(y1, v),
        dx2_mirror=_variance(x2, v),
        dy2_mirror=_variance(y2, v),
    )


def entropy_expectation(ws: FockWorkspace, v: np.ndarray, theta_eff: float,
                        mirror: bool = False) -> float:
    """<S(Theta)> in state v; matches the closed-form pair entropy on memory states."""
    return float(np.vdot(v, ws.entropy_operator(theta_eff, mirror=mirror).dot(v)).real)


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


def check_hole_relations(ws: FockWorkspace, v: np.ndarray, theta_eff: float, *,
                         min_abs_theta: float = 0.05) -> tuple[float, float]:
    """Interior norms of the two hole relations on a memory state at Theta.

    Creating a quantum of the damped mode is the same as destroying one of
    its mirror, weighted by cosh/sinh of the effective parameter:
    (adag/cosh - atil/sinh) v and (atildag/cosh - a/sinh) v both vanish on
    exact memory states. Rejects |Theta| < min_abs_theta where the sinh
    division degenerates.
    """
    theta_eff = float(theta_eff)
    if abs(theta_eff) < min_abs_theta:
        raise ValueError(
            f"hole relations are degenerate near Theta = 0 "
            f"(|{theta_eff}| < {min_abs_theta}): sinh division blows up"
        )
    ch = math.cosh(theta_eff)
    sh = math.sinh(theta_eff)
    r1 = ws.interior.dot(ws.adag.dot(v) / ch - ws.atil.dot(v) / sh)
    r2 = ws.interior.dot(ws.atildag.dot(v) / ch - ws.a.dot(v) / sh)
    return float(np.linalg.norm(r1)), float(np.linalg.norm(r2))


def check_squeeze_factorization(ws: FockWorkspace, theta: float, *,
                                guard_tail: float = 1e-12,
                                max_pad_factor: int = 4) -> float:
    """|| exp(-i G(theta))|0,0> - S_b(theta) S_btil(-theta)|0,0> ||.

    The single-mode squeezers spread amplitude across total-number shells
    with tail tanh(|theta|)^d, so computing both routes at the workspace dim
    saturates at that tail instead of testing the identity. The comparison
    is therefore done in a padded space, dim grown until tanh(|theta|)^d_pad
    <= guard_tail (capped at max_pad_factor * dim); the returned residual
    then reflects the operator identity itself (~1e-12), while a wrong sign
    convention still fails at O(1).
    """
    theta = float(theta)
    lam = abs(math.tanh(theta))
    d_pad = ws.dim
    if lam > 0.0:
        needed = int(math.ceil(math.log(guard_tail) / math.log(lam)))
        d_pad = max(ws.dim, needed)
        if d_pad > max_pad_factor * ws.dim:
            raise ValueError(
                f"squeeze factorization budget exceeded at theta={theta}: "
                f"needs dim {d_pad} > {max_pad_factor} * {ws.dim}"
            )
    ops = _pair_operators(d_pad)
    vac = np.zeros(d_pad * d_pad, dtype=np.complex128)
    vac[0] = 1.0
    u = expm_action(((-theta) * (ops.jp - ops.jm)).tocsr(), vac)
    w = expm_action(_squeezer_generator(ops.btil, -theta), vac)
    w = expm_action(_squeezer_generator(ops.b, theta), w)
    return float(np.linalg.norm(u - w))


def check_entropy_flow(ws: FockWorkspace, theta: float, gamma: float, t: float,
                       dt: float, *, min_abs_theta: float = 0.05) -> float:
    """Residual of the entropy-driven flow equation at time t.

    The damped pair obeys d/dt v(t) = -1/2 (dS/dt) v(t) with
    dS/dt = -(adag a 2 gamma coth Theta - a adag 2 gamma tanh Theta); the
    check builds v(t +/- dt) as exact memory states on the flow (not by
    evolving, so the central difference isolates the operator identity) and
    returns the interior norm of the defect. Second order in dt: halving dt
    quarters it.

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
    if abs(theta_t) < min_abs_theta:
        raise ValueError(
            f"entropy flow is singular near Theta = 0 "
            f"(|{theta_t}| < {min_abs_theta})"
        )
    # state at time s is memory_vector(theta - gamma s): effective parameter
    # gamma s - theta with the write convention's sign
    v0 = memory_vector(ws, theta - gamma * t)
    vp = memory_vector(ws, theta - gamma * (t + dt))
    vm = memory_vector(ws, theta - gamma * (t - dt))
    rate = ws.entropy_rate_operator(theta_t, gamma)
    defect = (vp - vm) / (2.0 * dt) + 0.5 * rate.dot(v0)
    return float(np.linalg.norm(ws.interior.dot(defect)))
