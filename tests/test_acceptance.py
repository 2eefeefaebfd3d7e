"""Acceptance gate: nine numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v`; the verdict lines bypass
capture so they are visible either way. Every criterion states its
tolerance inline and fails loudly with the measured value if missed.
"""

import json
import math
import time

import numpy as np
import pytest

from dqmem import fock, thermo
from dqmem.capacity import capacity_estimate, load_registry, save_registry
from dqmem.cli import main as cli_main
from dqmem.states import (
    Code,
    MemoryState,
    ModeParams,
    log_overlap,
    theta_from_beta,
)

THETAS = (0.1, 0.3, 0.5, 0.8, 1.0, 1.2)
GAMMAS = (0.25, 1.0)


def verdict(capsys, num, ok, text):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {text}"
    with capsys.disabled():
        print(line, flush=True)
    return line


@pytest.fixture(scope="module")
def ws64():
    return fock.build_workspace(64)


_WS_CACHE: dict = {}


def workspace(dim, gamma):
    key = (dim, gamma)
    if key not in _WS_CACHE:
        _WS_CACHE[key] = fock.build_workspace(dim, gamma=gamma)
    return _WS_CACHE[key]


def test_criterion_1_oracle_equivalence(capsys, ws64):
    """Closed forms match the truncated-space oracle to 1e-8 on the grid."""
    tol = 1e-8
    start = time.perf_counter()
    worst = {"occupation": 0.0, "vacuum_overlap": 0.0, "pair_overlap": 0.0,
             "variances": 0.0, "entropy": 0.0, "weight_m": 0.0,
             "evolution_route": 0.0}

    for theta in THETAS:
        for gamma in GAMMAS:
            tau = theta / gamma
            params, vecs = [], []
            for t in (0.0, tau / 2.0, tau, 2.0 * tau):
                t_eff = gamma * t - theta
                v = fock.memory_vector(ws64, -t_eff)
                params.append(t_eff)
                vecs.append(v)
                worst["occupation"] = max(worst["occupation"], abs(
                    fock.occupation_expectation(ws64, v)
                    - math.sinh(t_eff) ** 2))
                worst["vacuum_overlap"] = max(worst["vacuum_overlap"], abs(
                    fock.oracle_overlap(v, ws64.vacuum())
                    - 1.0 / math.cosh(t_eff)))
                q = fock.quadrature_variances(ws64, v)
                worst["variances"] = max(
                    worst["variances"],
                    abs(q.dx2 - 0.25 * math.exp(-2.0 * t_eff)),
                    abs(q.dy2 - 0.25 * math.exp(2.0 * t_eff)),
                    abs(q.dx2_mirror - 0.25 * math.exp(2.0 * t_eff)),
                    abs(q.dy2_mirror - 0.25 * math.exp(-2.0 * t_eff)))
                worst["weight_m"] = max(worst["weight_m"], abs(
                    fock.weight_expectation(ws64, v) - math.sinh(t_eff) ** 2))
                if t_eff != 0.0:
                    x = math.sinh(t_eff) ** 2
                    closed = (1.0 + x) * math.log1p(x) - x * math.log(x)
                    worst["entropy"] = max(worst["entropy"], abs(
                        fock.entropy_expectation(ws64, v, t_eff) - closed))
                else:
                    # entropy operator is singular at the empty point; the
                    # closed form is exactly 0 and the state is the vacuum
                    assert abs(fock.oracle_overlap(v, ws64.vacuum()) - 1.0) < tol
            for i in range(4):
                for j in range(i + 1, 4):
                    worst["pair_overlap"] = max(worst["pair_overlap"], abs(
                        fock.oracle_overlap(vecs[i], vecs[j])
                        - 1.0 / math.cosh(params[i] - params[j])))

            # drive the actual evolution operator along the same grid;
            # deep endpoints need a larger space to hold their tails
            for t in (tau / 2.0, tau, 2.0 * tau):
                endpoint = max(abs(theta), abs(gamma * t - theta))
                tail = math.tanh(endpoint) ** 128
                dim = 64 if tail <= fock._EVOLVE_MAX_TAIL else 256
                ws = workspace(dim, gamma)
                v0 = fock.memory_vector(ws, theta)
                moved = fock.evolve_vector(ws, v0, t, theta=theta)
                target = fock.memory_vector(ws, theta - gamma * t)
                worst["evolution_route"] = max(
                    worst["evolution_route"],
                    float(np.linalg.norm(moved - target)))

    runtime = time.perf_counter() - start
    peak = max(worst.values())
    ok = peak <= tol and runtime < 60.0
    verdict(capsys, 1, ok,
            f"oracle equivalence: worst {peak:.3e} <= 1e-08 over "
            f"{len(THETAS) * len(GAMMAS) * 4} grid states "
            f"(runtime {runtime:.1f}s < 60s)")
    for name, val in worst.items():
        assert val <= tol, f"{name} residual {val:.3e} exceeds {tol}"
    assert runtime < 60.0


def test_criterion_2_algebra(capsys):
    """Commutators, Casimir, and sector closure to round-off at dim 32."""
    tol = 1e-12
    res = fock.algebra_residuals(fock.build_workspace(32))
    peak = max(res.values())
    ok = peak < tol
    verdict(capsys, 2, ok,
            f"operator algebra: worst residual {peak:.3e} < 1e-12 "
            f"across {len(res)} identities")
    for name, val in res.items():
        assert val < tol, f"{name}: {val:.3e}"


def test_criterion_3_squeeze_factorization(capsys, ws64):
    """Coded vacuum equals two counter-rotating single-mode squeezers."""
    tol = 1e-8
    resids = {theta: fock.check_squeeze_factorization(ws64, theta)
              for theta in (0.25, 0.5, 1.0)}
    peak = max(resids.values())
    ok = peak <= tol
    verdict(capsys, 3, ok,
            f"squeeze factorization: worst {peak:.3e} <= 1e-08 "
            f"for theta in {{0.25, 0.5, 1.0}}")
    for theta, val in resids.items():
        assert val <= tol, f"theta={theta}: {val:.3e}"


def test_criterion_4_entropy_flow(capsys, ws64):
    """State flow follows the entropy-rate operator, second order in dt."""
    tol = 1e-6
    rows = []
    for mag in (0.1, 0.5, 1.0):
        theta = mag + 0.3  # state parameter at t = 0.3 is -mag
        r1 = fock.check_entropy_flow(ws64, theta, 1.0, 0.3, 1e-4)
        r2 = fock.check_entropy_flow(ws64, theta, 1.0, 0.3, 5e-5)
        rows.append((mag, r1, r1 / r2))
    peak = max(r for _, r, _ in rows)
    ratios = [q for _, _, q in rows]
    ok = peak <= tol and all(3.5 <= q <= 4.5 for q in ratios)
    verdict(capsys, 4, ok,
            f"entropy flow: worst residual {peak:.3e} <= 1e-06 at dt=1e-4, "
            f"halving ratios {['%.2f' % q for q in ratios]} in [3.5, 4.5]")
    for mag, r, q in rows:
        assert r <= tol, f"|Theta|={mag}: residual {r:.3e}"
        assert 3.5 <= q <= 4.5, f"|Theta|={mag}: ratio {q:.2f}"


def test_criterion_5_hole_relations(capsys, ws64):
    """Annihilation identities of the coded vacuum across the band."""
    tol = 1e-8
    peak = 0.0
    for mag in (0.1, 0.25, 0.4, 0.6, 0.8, 1.0, 1.2):
        for sign in (1.0, -1.0):
            t_eff = sign * mag
            v = fock.memory_vector(ws64, -t_eff)
            peak = max(peak, fock.check_hole_relations(ws64, v, t_eff))
    ok = peak <= tol
    verdict(capsys, 5, ok,
            f"hole relations: worst {peak:.3e} <= 1e-08 "
            f"for |Theta| in [0.1, 1.2]")
    assert peak <= tol


def test_criterion_6_decay_asymptote(capsys):
    """Log self-overlap slope approaches -sum(gamma) within 1%."""
    rng = np.random.default_rng(20260814)
    results = []
    for k in (1, 4, 16):
        modes = tuple(ModeParams(i, 1.0, 1.0) for i in range(k))
        code = Code(tuple(float(x) for x in rng.uniform(0.2, 1.2, size=k)))
        base = MemoryState(modes, code, 0.0)
        ts = np.linspace(6.0, 12.0, 61)
        logs = [log_overlap(MemoryState(modes, code, float(t)), base)
                for t in ts]
        slope = float(np.polyfit(ts, logs, 1)[0])
        target = -float(k)
        results.append((k, slope, abs(slope - target) / abs(target)))
    worst_rel = max(r for _, _, r in results)
    ok = worst_rel < 0.01
    verdict(capsys, 6, ok,
            f"decay asymptote: slope within {worst_rel:.2e} relative "
            f"(< 1%) of -sum(gamma) for K in {{1, 4, 16}}")
    for k, slope, rel in results:
        assert rel < 0.01, f"K={k}: slope {slope:.6f} vs {-k}"


def test_criterion_7_thermo_suite(capsys):
    """Round trip, stationarity, first-law convergence, trace minimum."""
    # (a) beta <-> occupation round trip
    rt_worst = 0.0
    for beta in (0.05, 0.2, 1.0, 2.5, 5.0):
        for omega in (0.5, 1.0, 3.0):
            theta = theta_from_beta(beta, omega)
            state = MemoryState((ModeParams(0, omega, 1.0),), Code((theta,)))
            back = thermo.effective_beta(state, 0)
            rt_worst = max(rt_worst, abs(back - beta) / beta)

    # (b) free-energy stationarity at the effective temperature
    an_worst, fd_worst = 0.0, 0.0
    for theta in (0.3, 0.8, 1.5):
        state = MemoryState((ModeParams(0, 1.0, 1.0),), Code((theta,)))
        beta_star = thermo.effective_beta(state, 0)
        analytic = thermo.stationarity_residual(state, beta_star)[0]
        an_worst = max(an_worst, abs(analytic))
        h = 1e-6
        up = MemoryState(state.modes, Code((theta - h,)))
        down = MemoryState(state.modes, Code((theta + h,)))
        fd = (thermo.free_energy(up, beta_star)
              - thermo.free_energy(down, beta_star)) / (2.0 * h)
        fd_worst = max(fd_worst, abs(fd - analytic) / max(1.0, abs(analytic)))

    # (c) first-law ledger: summed |residual| drops 4x when steps halve
    def ledger_sum(n):
        state = MemoryState((ModeParams(0, 1.0, 1.0),), Code((0.8,)))
        led = thermo.first_law_ledger(state, np.linspace(0.05, 0.75, n))
        return sum(abs(r) for r, f in zip(led.residual, led.flagged) if not f)

    s1, s2, s3 = ledger_sum(101), ledger_sum(201), ledger_sum(401)
    ratios = (s1 / s2, s2 / s3)

    # (d) entropy trace: unique zero minimum at tau on a 1e-3*tau grid
    state = MemoryState((ModeParams(0, 1.0, 1.0),), Code((0.8,)))
    tau = 0.8
    ts = np.linspace(0.0, 2.0 * tau, 2001)
    trace = thermo.entropy_trace(state, ts)
    i = int(np.argmin(trace))
    min_ok = (trace[i] == 0.0 and abs(ts[i] - tau) < 1e-12
              and trace[i - 1] > 0.0 and trace[i + 1] > 0.0)

    ok = (rt_worst <= 1e-12 and an_worst <= 1e-10 and fd_worst <= 1e-6
          and all(3.5 <= r <= 4.5 for r in ratios) and min_ok)
    verdict(capsys, 7, ok,
            f"thermo suite: round trip {rt_worst:.2e} <= 1e-12, "
            f"stationarity {an_worst:.2e} <= 1e-10 analytic / "
            f"{fd_worst:.2e} <= 1e-06 FD, first-law ratios "
            f"({ratios[0]:.2f}, {ratios[1]:.2f}) ~ 4, trace min 0 at tau")
    assert rt_worst <= 1e-12
    assert an_worst <= 1e-10
    assert fd_worst <= 1e-6
    for r in ratios:
        assert 3.5 <= r <= 4.5, f"first-law convergence ratio {r:.2f}"
    assert min_ok


def test_criterion_8_capacity(capsys):
    """Product law in the log domain at K = 10^4; greedy count monotone."""
    start = time.perf_counter()

    log_worst = 0.0
    k_big = 10 ** 4
    modes_big = tuple(ModeParams(i, 1.0, 1.0) for i in range(k_big))
    for delta in (0.3, 1.0, 1.3169578969248166):
        a = MemoryState(modes_big, Code((0.0,) * k_big))
        b = MemoryState(modes_big, Code((delta,) * k_big))
        got = log_overlap(a, b)
        want = -k_big * math.log(math.cosh(delta))
        log_worst = max(log_worst, abs(got - want))

    counts = []
    for k in (1, 2, 4, 8, 16):
        modes = tuple(ModeParams(i, 1.0, 1.0) for i in range(k))
        rep = capacity_estimate(modes, (0.0, 1.5), 0.05,
                                candidate_count=400, seed=20260814)
        counts.append(rep.accepted_count)
    monotone = all(b >= a for a, b in zip(counts, counts[1:]))

    runtime = time.perf_counter() - start
    ok = log_worst <= 1e-12 and monotone and runtime < 120.0
    verdict(capsys, 8, ok,
            f"capacity: product law {log_worst:.2e} <= 1e-12 in log domain "
            f"at K=10^4; greedy counts {counts} non-decreasing "
            f"(runtime {runtime:.1f}s < 120s)")
    assert log_worst <= 1e-12
    assert monotone, f"greedy counts not monotone: {counts}"
    assert runtime < 120.0


def test_criterion_9_reproducibility(capsys, tmp_path):
    """Byte-identical artifacts on rerun; byte-stable registry round trip."""
    cap_cfg = tmp_path / "cap.json"
    cap_cfg.write_text(json.dumps({
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0] * 4, "gamma": [1.0] * 4},
        "theta_range": [0.0, 1.5],
        "epsilon": 0.05,
        "candidates": 120,
        "seed": 20260814,
    }), encoding="utf-8")
    forget_cfg = tmp_path / "forget.json"
    forget_cfg.write_text(json.dumps({
        "kind": "forgetting-curve",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [0.8]},
        "times": {"start": 0.0, "stop": 1.6, "num": 33},
    }), encoding="utf-8")

    identical = True
    for cmd, cfg, artifacts in (
        ("capacity", cap_cfg, ("capacity.csv", "summary.json")),
        ("forgetting", forget_cfg, ("forgetting.csv", "summary.json")),
    ):
        out_a = tmp_path / f"{cmd}_a"
        out_b = tmp_path / f"{cmd}_b"
        assert cli_main([cmd, "--config", str(cfg), "--out", str(out_a),
                         "--quiet"]) == 0
        assert cli_main([cmd, "--config", str(cfg), "--out", str(out_b),
                         "--quiet"]) == 0
        for name in artifacts:
            same = (out_a / name).read_bytes() == (out_b / name).read_bytes()
            identical = identical and same
            assert same, f"{cmd}/{name} differs between reruns"
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        volatile = {k for k in ma if ma[k] != mb[k]}
        assert volatile <= {"wall_time_s", "argv", "out"}, volatile

    # registry persistence: save -> load -> save reproduces every byte
    from dqmem.capacity import new_registry, print_memory
    reg = new_registry(tuple(ModeParams(i, 1.0, 1.0) for i in range(3)))
    reg = print_memory(reg, "a", Code((0.3, 0.5, 0.7)))
    reg = print_memory(reg, "b", beta=1.5, printed_at=2.0)
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    save_registry(reg, p1)
    save_registry(load_registry(p1), p2)
    stable = p1.read_bytes() == p2.read_bytes()

    ok = identical and stable
    verdict(capsys, 9, ok,
            "reproducibility: CLI reruns byte-identical (capacity, "
            "forgetting); registry save/load/save byte-stable")
    assert stable
