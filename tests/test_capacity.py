"""Registry, fidelity matrices, packing, persistence, experiment configs.

The fidelity hand-values use the single-pair law 1/cosh(gap): a gap of
acosh(2) = 1.3169... gives exactly 1/2, and K identical gaps raise the
overlap to the K-th power.
"""

import json
import math
import pathlib
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmem.capacity import (
    _expected_log_cosh_gap,
    CodeSpec,
    Registry,
    RegistryCodeLengthError,
    RegistryError,
    RegistryFormatError,
    RegistryVersionError,
    association_graph,
    capacity_estimate,
    fidelity_matrix,
    forgetting_curve,
    greedy_pack,
    load_registry,
    new_registry,
    parse_experiment_config,
    print_memory,
    registry_to_json,
    save_registry,
)
from dqmem.states import Code, MemoryState, ModeParams, log_cosh, overlap

ACOSH_2 = 1.3169578969248166


def modes_k(k, gamma=1.0, omega=1.0):
    return tuple(ModeParams(i, omega, gamma) for i in range(k))


def registry_k(k, codes, ids=None, printed_at=None):
    reg = new_registry(modes_k(k))
    for i, thetas in enumerate(codes):
        reg = print_memory(
            reg,
            (ids or [f"m{j}" for j in range(len(codes))])[i],
            Code(tuple(thetas)),
            printed_at=0.0 if printed_at is None else printed_at[i],
        )
    return reg


# ---------------------------------------------------------------------------
# registry value semantics


def test_print_memory_appends_without_mutating():
    reg1 = registry_k(2, [[0.3, 0.5]], ids=["first"])
    reg2 = print_memory(reg1, "second", Code((0.9, 0.1)))
    assert reg1.ids == ("first",)
    assert reg2.ids == ("first", "second")
    assert reg1.entries[0] is reg2.entries[0]


def test_printing_leaves_old_overlaps_unchanged():
    # sequential recording is non-destructive: pairwise fidelities among
    # the old entries are identical before and after a new print
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1], [0.5, 0.5]])
    before = fidelity_matrix(reg, 0.0)
    bigger = print_memory(reg, "late", Code((0.2, 0.8)))
    after = fidelity_matrix(bigger, 0.0)
    assert np.array_equal(before.values, after.values[:3, :3])


def test_duplicate_entry_id_rejected():
    reg = registry_k(1, [[0.3]], ids=["dup"])
    with pytest.raises(ValueError):
        print_memory(reg, "dup", Code((0.5,)))


def test_print_memory_needs_exactly_one_code_source():
    reg = new_registry(modes_k(1))
    with pytest.raises(ValueError):
        print_memory(reg, "x")
    with pytest.raises(ValueError):
        print_memory(reg, "x", Code((0.5,)), beta=1.0)


def test_print_memory_thermal_code():
    reg = print_memory(new_registry(modes_k(2)), "therm", beta=math.log(2.0))
    # beta*omega = ln 2 puts one quantum in each pair
    occs = reg.entry("therm").code.occupations()
    assert occs[0] == pytest.approx(1.0, rel=1e-12)


def test_registry_code_length_checked():
    with pytest.raises(RegistryCodeLengthError):
        registry_k(2, [[0.3]])


def test_registry_state_accessor():
    reg = registry_k(1, [[0.8]], ids=["m"])
    s = reg.state("m", 0.3)
    assert isinstance(s, MemoryState)
    assert s.time == 0.3
    with pytest.raises(KeyError):
        reg.state("absent")


# ---------------------------------------------------------------------------
# fidelity matrix


def test_fidelity_matrix_shape_and_diagonal():
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1], [0.5, 0.5]])
    fm = fidelity_matrix(reg, 0.0)
    assert fm.values.shape == (3, 3)
    assert np.array_equal(np.diag(fm.values), np.ones(3))
    assert np.array_equal(fm.values, fm.values.T)
    assert np.all(fm.values > 0.0)


def test_fidelity_matrix_hand_value():
    reg = registry_k(1, [[0.0], [ACOSH_2]])
    fm = fidelity_matrix(reg, 0.0)
    assert fm.values[0, 1] == pytest.approx(0.5, abs=1e-14)


def test_fidelity_matrix_doubling_modes_squares_entries():
    gap = 0.7
    one = fidelity_matrix(registry_k(1, [[0.0], [gap]]), 0.0).values[0, 1]
    two = fidelity_matrix(registry_k(2, [[0.0, 0.0], [gap, gap]]), 0.0).values[0, 1]
    assert two == pytest.approx(one ** 2, rel=1e-13)


def test_fidelity_matrix_exactly_time_invariant():
    reg = registry_k(3, [[0.3, 0.5, 0.1], [0.9, 0.1, 0.6], [0.5, 0.5, 0.5]])
    fm0 = fidelity_matrix(reg, 0.0)
    fm7 = fidelity_matrix(reg, 7.3)
    assert np.array_equal(fm0.values, fm7.values)


def test_fidelity_matrix_agrees_with_state_overlap():
    # same-age gap shortcut must reproduce the generic state overlap
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1]])
    fm = fidelity_matrix(reg, 0.4)
    a = MemoryState(reg.modes, reg.entries[0].code, 0.4)
    b = MemoryState(reg.modes, reg.entries[1].code, 0.4)
    assert fm.values[0, 1] == pytest.approx(overlap(a, b), rel=1e-14)


def test_fidelity_matrix_rejects_mixed_print_times_unless_staggered():
    reg = registry_k(1, [[0.3], [0.5]], printed_at=[0.0, 1.0])
    with pytest.raises(ValueError, match="staggered"):
        fidelity_matrix(reg, 2.0)
    fm = fidelity_matrix(reg, 2.0, staggered=True)
    # entry ages differ: 2.0 and 1.0
    a = MemoryState(reg.modes, reg.entries[0].code, 2.0)
    b = MemoryState(reg.modes, reg.entries[1].code, 1.0)
    assert fm.values[0, 1] == pytest.approx(overlap(a, b), rel=1e-13)


def test_staggered_needs_time_after_last_print():
    reg = registry_k(1, [[0.3], [0.5]], printed_at=[0.0, 1.0])
    with pytest.raises(ValueError):
        fidelity_matrix(reg, 0.5, staggered=True)


def test_fidelity_matrix_entry_order_invariant():
    # reversing the registry reverses both axes, bit for bit
    codes = [[0.1 * i, 0.05 * i, 0.2] for i in range(8)]
    forward = fidelity_matrix(registry_k(3, codes), 0.0)
    backward = fidelity_matrix(registry_k(3, codes[::-1]), 0.0)
    assert np.array_equal(forward.values, backward.values[::-1, ::-1])


# ---------------------------------------------------------------------------
# greedy packing and capacity


def test_greedy_pack_hand_example():
    # gaps 1.3/2.6/3.9 from the first code give overlaps ~0.508, ~0.148,
    # ~0.0405; only the last clears epsilon = 0.05
    accepted, curve = greedy_pack([[0.0], [1.3], [2.6], [3.9]], 0.05)
    assert accepted == (0, 3)
    assert curve == (1, 1, 1, 2)


def test_greedy_pack_epsilon_validated():
    with pytest.raises(ValueError):
        greedy_pack([[0.0]], 0.0)
    with pytest.raises(ValueError):
        greedy_pack([[0.0]], 1.0)


def test_greedy_pack_loose_epsilon_accepts_all():
    accepted, _ = greedy_pack([[0.0], [0.4], [0.9]], 0.999)
    assert accepted == (0, 1, 2)


def per_pair_fsum_pack(thetas, epsilon):
    """The per-pair fsum loop greedy_pack must reproduce decision for decision."""
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    log_eps = math.log(epsilon)
    cands = [np.asarray(c, dtype=float) for c in thetas]
    accepted: list[int] = []
    curve: list[int] = []
    for idx, cand in enumerate(cands):
        ok = True
        for j in accepted:
            if -math.fsum(log_cosh(cand - cands[j])) >= log_eps:
                ok = False
                break
        if ok:
            accepted.append(idx)
        curve.append(len(accepted))
    return tuple(accepted), tuple(curve)


@given(k=st.integers(1, 64), n=st.integers(0, 200),
       epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       width=st.floats(0.0, 4.0), lattice=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_greedy_pack_matches_per_pair_fsum_loop(k, n, epsilon, width, lattice, seed):
    cands = np.random.default_rng(seed).uniform(0.0, width, size=(n, k))
    if lattice:  # repeated codes and exactly equal gaps
        cands = np.round(cands * 2.0) / 2.0
    assert greedy_pack(cands, epsilon) == per_pair_fsum_pack(cands, epsilon)


def count_fsum_calls(monkeypatch):
    calls = []
    fsum = math.fsum

    def counting(xs):
        calls.append(1)
        return fsum(xs)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


@pytest.mark.parametrize("k", [1, 7])
def test_greedy_pack_near_tie_takes_exact_fallback(monkeypatch, k):
    # K equal gaps d with K ln cosh d = -ln epsilon: the block sum lands
    # within a few ulps of the threshold, so only fsum can decide
    epsilon = 0.05
    d = math.acosh(math.exp(-math.log(epsilon) / k))
    decisions = set()
    for gap in (d + i * math.ulp(d) for i in range(-8, 9)):
        cands = [[0.0] * k, [gap] * k]
        expected = per_pair_fsum_pack(cands, epsilon)
        calls = count_fsum_calls(monkeypatch)
        assert greedy_pack(cands, epsilon) == expected
        assert len(calls) == 1
        monkeypatch.undo()
        decisions.add(expected[0])
    assert decisions == {(0,), (0, 1)}  # the scan straddles the threshold


def test_greedy_pack_screen_decides_clear_rows_without_fsum(monkeypatch):
    cands = np.random.default_rng(3).uniform(0.0, 3.0, size=(150, 16))
    expected = per_pair_fsum_pack(cands, 0.05)
    calls = count_fsum_calls(monkeypatch)
    assert greedy_pack(cands, 0.05) == expected
    assert len(expected[0]) > 20 and calls == []


def test_greedy_pack_rejects_non_finite_or_ragged_candidates():
    for bad in ([[0.0], [math.nan], [5.0]], [[0.0], [math.inf]],
                [[0.0, 1.0], [2.0]], [0.0, 5.0], [[[0.0]]], [["x"]]):
        with pytest.raises(ValueError, match="candidate codes"):
            greedy_pack(bad, 0.05)
    assert greedy_pack([], 0.05) == ((), ())


def test_capacity_estimate_deterministic():
    a = capacity_estimate(modes_k(4), (0.0, 1.5), 0.05, 100, seed=7)
    b = capacity_estimate(modes_k(4), (0.0, 1.5), 0.05, 100, seed=7)
    assert a == b
    c = capacity_estimate(modes_k(4), (0.0, 1.5), 0.05, 100, seed=8)
    assert c.accepted_indices != a.accepted_indices or c.accepted_codes != a.accepted_codes


def test_capacity_estimate_rejects_empty_range():
    with pytest.raises(ValueError, match="theta range"):
        capacity_estimate(modes_k(2), (1.0, 1.0), 0.05, 10, seed=0)
    with pytest.raises(ValueError, match="theta range"):
        capacity_estimate(modes_k(2), (-0.5, 1.0), 0.05, 10, seed=0)


def test_capacity_estimate_report_is_consistent():
    rep = capacity_estimate(modes_k(2), (0.0, 1.2), 0.2, 50, seed=3)
    assert rep.accepted_count == len(rep.accepted_indices)
    assert rep.acceptance_curve[-1] == rep.accepted_count
    assert all(len(c) == 2 for c in rep.accepted_codes)
    # theoretical summary: exp(-K * E[ln cosh gap]) in (0, 1]
    assert 0.0 < rep.expected_pair_overlap <= 1.0
    assert rep.expected_pair_overlap == pytest.approx(
        math.exp(rep.expected_pair_log_overlap), rel=1e-14)


PI_50 = Decimal("3.1415926535897932384626433832795028841971693993751")
ZETA3_50 = Decimal("1.2020569031595942853997381615114499907649862923405")


def expected_log_cosh_gap_li3(width):
    """E[ln cosh |U1 - U2|] in closed form, to 50 digits.

    (2/w^2) [w^3/6 - w^2 ln2 / 2 + w pi^2/24 - (eta(3) + Li3(-e^{-2w}))/4],
    eta(3) = (3/4) zeta(3); decimal arithmetic, so the cancellation at small
    w costs none of the digits that matter.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        w = Decimal(width)
        q = (-2 * w).exp()
        li3, k, term = Decimal(0), 1, -q
        while abs(term) > Decimal("1e-60"):
            li3 += term / k ** 3
            k += 1
            term *= -q
        bracket = (w ** 3 / 6 - w * w * Decimal(2).ln() / 2 + w * PI_50 ** 2 / 24
                   - (ZETA3_50 * 3 / 4 + li3) / 4)
        return float(2 * bracket / (w * w))


@pytest.mark.parametrize("width", [0.1, 0.5, 1.0, 1.5, 3.0, 10.0, 19.5, 20.0,
                                   20.5, 64.0, 1e3, 1e4])
def test_expected_log_cosh_gap_matches_li3_closed_form(width):
    assert _expected_log_cosh_gap(width) == pytest.approx(
        expected_log_cosh_gap_li3(width), rel=1e-12, abs=0.0)


def test_expected_pair_overlap_at_huge_width():
    # w/3 - ln 2 + pi^2/(12 w) + O(e^{-2w}); the old quadrature formed w * w,
    # which overflowed and reported an overlap of 1.0 at w = 1e300
    for w in (1e300, 1e308):
        assert _expected_log_cosh_gap(w) == pytest.approx(
            w / 3.0 - math.log(2.0) + math.pi ** 2 / (12.0 * w), rel=1e-12)
    rep = capacity_estimate(modes_k(2), (0.0, 1e300), 0.05, 5, seed=1)
    assert rep.expected_pair_overlap == 0.0
    assert rep.expected_pair_log_overlap == pytest.approx(-2e300 / 3.0, rel=1e-12)


@given(k=st.integers(min_value=1, max_value=6))
@settings(max_examples=20, deadline=None)
def test_capacity_monotone_under_mode_count(k):
    small = capacity_estimate(modes_k(k), (0.0, 1.5), 0.05, 60, seed=42)
    big = capacity_estimate(modes_k(k + 1), (0.0, 1.5), 0.05, 60, seed=42)
    assert big.accepted_count >= small.accepted_count


# ---------------------------------------------------------------------------
# forgetting curve


def test_forgetting_curve_single_mode():
    curve = forgetting_curve(Code((0.8,)), modes_k(1), np.linspace(0.0, 2.0, 41))
    assert curve.tau == pytest.approx(0.8, abs=1e-15)
    i = int(np.argmax(curve.vacuum_overlap))
    assert curve.times[i] == pytest.approx(0.8, abs=1e-12)
    assert curve.vacuum_overlap[i] == 1.0
    assert curve.self_overlap[0] == 1.0
    assert curve.total_occupation[0] == pytest.approx(
        math.sinh(0.8) ** 2, rel=1e-13)


def test_forgetting_curve_undamped_is_flat():
    curve = forgetting_curve(Code((0.8,)), modes_k(1, gamma=0.0),
                             np.linspace(0.0, 2.0, 5))
    assert curve.tau == math.inf
    assert set(curve.self_overlap) == {1.0}


def test_forgetting_curve_rejects_bad_grid():
    with pytest.raises(ValueError):
        forgetting_curve(Code((0.5,)), modes_k(1), [0.4, 0.2])


# ---------------------------------------------------------------------------
# association graph


def test_association_graph_threshold_extremes():
    reg = registry_k(1, [[0.0], [0.4], [3.5]])
    dense = association_graph(reg, 0.0, 0.05)
    # 1/cosh(0.4) ~ 0.925, 1/cosh(3.1) ~ 0.09, 1/cosh(3.5) ~ 0.06: all edges
    assert len(dense.edges) == 3
    assert len(dense.clusters) == 1
    sparse_g = association_graph(reg, 0.0, 0.5)
    assert len(sparse_g.edges) == 1
    assert sparse_g.edges[0][:2] == ("m0", "m1")
    assert len(sparse_g.clusters) == 2


def test_association_graph_duplicate_codes_unit_edge():
    reg = registry_k(1, [[0.7], [0.7]])
    g = association_graph(reg, 0.0, 0.9)
    assert g.edges[0][2] == 1.0


def test_association_shrinking_mode_count_adds_edges():
    # same per-mode gap; fewer modes -> larger overlap -> more association
    gap = 1.2
    big = registry_k(4, [[0.0] * 4, [gap] * 4])
    small = registry_k(1, [[0.0], [gap]])
    thr = 0.3  # 1/cosh(1.2) ~ 0.552; 0.552^4 ~ 0.093
    assert len(association_graph(small, 0.0, thr).edges) == 1
    assert len(association_graph(big, 0.0, thr).edges) == 0


def loop_association_graph(registry, t, threshold):
    """Edges by a double loop and clusters by scipy, as association_graph had them."""
    from scipy import sparse
    from scipy.sparse.csgraph import connected_components

    fm = fidelity_matrix(registry, t)
    n = len(fm.ids)
    adj = np.zeros((n, n), dtype=bool)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if fm.values[i, j] >= threshold:
                edges.append((fm.ids[i], fm.ids[j], float(fm.values[i, j])))
                adj[i, j] = adj[j, i] = True
    n_comp, labels = connected_components(sparse.csr_matrix(adj), directed=False)
    clusters = tuple(
        tuple(fm.ids[i] for i in range(n) if labels[i] == c) for c in range(n_comp)
    )
    return tuple(edges), clusters


def test_association_graph_matches_loop_and_connected_components():
    rng = np.random.default_rng(5)
    centres = rng.uniform(0.0, 8.0, size=(6, 3))
    codes = centres[rng.integers(0, 6, size=80)] + rng.normal(0.0, 0.2, size=(80, 3))
    reg = registry_k(3, np.abs(codes).tolist(), ids=[f"e{j:02d}" for j in rng.permutation(80)])
    for threshold in (0.05, 0.3, 0.5, 0.8, 0.99):
        g = association_graph(reg, 0.0, threshold)
        assert (g.edges, g.clusters) == loop_association_graph(reg, 0.0, threshold)
    assert 1 < len(association_graph(reg, 0.0, 0.5).clusters) < 80


def test_association_graph_threshold_validated():
    reg = registry_k(1, [[0.0], [0.4]])
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            association_graph(reg, 0.0, bad)


# ---------------------------------------------------------------------------
# persistence


def test_save_load_save_byte_stable(tmp_path):
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1]], printed_at=[0.0, 1.5])
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_registry(reg, p1)
    save_registry(load_registry(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_round_trips_all_fields(tmp_path):
    reg = registry_k(2, [[0.3, 0.5]], printed_at=[2.25])
    path = tmp_path / "r.json"
    save_registry(reg, path)
    back = load_registry(path)
    assert back == reg


def test_load_rejects_malformed_json(tmp_path):
    doc = json.loads(registry_to_json(registry_k(1, [[0.3]])))
    doc["modes"][0]["index"] = 0.5
    path = tmp_path / "broken.json"
    for text in ("{not json", json.dumps(doc)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(RegistryFormatError):
            load_registry(path)


def test_load_rejects_legacy_version(tmp_path):
    reg = registry_k(1, [[0.3]])
    doc = json.loads(registry_to_json(reg))
    doc["schema_version"] = 0
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(RegistryVersionError, match="schema_version 0"):
        load_registry(path)


def test_load_rejects_code_length_mismatch(tmp_path):
    reg = registry_k(2, [[0.3, 0.5]])
    doc = json.loads(registry_to_json(reg))
    doc["entries"][0]["thetas"] = [0.3]
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(RegistryCodeLengthError):
        load_registry(path)


def test_load_rejects_unknown_keys(tmp_path):
    reg = registry_k(1, [[0.3]])
    doc = json.loads(registry_to_json(reg))
    doc["extra"] = True
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(RegistryFormatError, match="unknown keys"):
        load_registry(path)


def test_error_classes_are_distinct_but_catchable():
    assert issubclass(RegistryVersionError, RegistryError)
    assert issubclass(RegistryFormatError, RegistryError)
    assert issubclass(RegistryCodeLengthError, RegistryError)
    assert not issubclass(RegistryVersionError, RegistryFormatError)
    assert not issubclass(RegistryFormatError, RegistryVersionError)


# ---------------------------------------------------------------------------
# code specs and experiment configs


def test_code_spec_thermal_and_sampled():
    modes = modes_k(3, omega=1.0)
    thermal = CodeSpec(beta=math.log(2.0)).realize(modes)
    assert thermal.occupations()[0] == pytest.approx(1.0, rel=1e-12)
    sampled = CodeSpec(sample=(0.0, 1.0, 5)).realize(modes)
    again = CodeSpec(sample=(0.0, 1.0, 5)).realize(modes)
    assert sampled == again
    assert all(0.0 <= t < 1.0 for t in sampled.thetas)


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        parse_experiment_config({
            "kind": "forgetting-curve",
            "modes": {"omega": [1.0], "gamma": [1.0]},
            "code": {"thetas": [0.5]},
            "times": {"start": 0.0, "stop": 1.0, "num": 5},
            "surprise": 1,
        })


def test_parse_config_rejects_unknown_nested_keys():
    with pytest.raises(ValueError, match="unknown keys"):
        parse_experiment_config({
            "kind": "forgetting-curve",
            "modes": {"omega": [1.0], "gamma": [1.0], "mass": [1.0]},
            "code": {"thetas": [0.5]},
            "times": {"start": 0.0, "stop": 1.0, "num": 5},
        })


def test_parse_config_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        parse_experiment_config({"kind": "telepathy"})


def test_parse_config_capacity_validation():
    base = {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "theta_range": [0.0, 1.5],
        "epsilon": 0.05,
        "candidates": 10,
        "seed": 1,
    }
    cfg = parse_experiment_config(base)
    assert cfg.kind == "capacity-sweep"
    assert cfg.theta_range == (0.0, 1.5)
    bad = dict(base, epsilon=1.5)
    with pytest.raises(ValueError, match="epsilon"):
        parse_experiment_config(bad)
    with pytest.raises(ValueError, match="missing keys"):
        parse_experiment_config({k: v for k, v in base.items() if k != "seed"})


def test_parse_config_times_grid():
    cfg = parse_experiment_config({
        "kind": "thermo-trace",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"beta": 2.0},
        "times": {"start": 0.0, "stop": 1.0, "num": 5},
    })
    assert cfg.times == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ValueError):
        parse_experiment_config({
            "kind": "thermo-trace",
            "modes": {"omega": [1.0], "gamma": [1.0]},
            "code": {"beta": 2.0},
            "times": {"start": 1.0, "stop": 0.5, "num": 5},
        })


def test_parse_config_code_exactly_one_field():
    with pytest.raises(ValueError, match="exactly one"):
        parse_experiment_config({
            "kind": "forgetting-curve",
            "modes": {"omega": [1.0], "gamma": [1.0]},
            "code": {"thetas": [0.5], "beta": 1.0},
            "times": {"start": 0.0, "stop": 1.0, "num": 5},
        })


# ---------------------------------------------------------------------------
# property: the product law survives large registers


@given(k=st.integers(min_value=1, max_value=64),
       gap=st.floats(min_value=0.01, max_value=2.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_overlap_product_law(k, gap):
    reg = registry_k(k, [[0.0] * k, [gap] * k])
    fm = fidelity_matrix(reg, 0.0)
    want = math.exp(-k * math.log(math.cosh(gap)))
    assert fm.values[0, 1] == pytest.approx(want, rel=1e-11)
