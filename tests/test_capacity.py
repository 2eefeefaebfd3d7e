"""Registry, fidelity matrices, packing, persistence, experiment configs.

The fidelity hand-values use the single-pair law 1/cosh(gap): a gap of
acosh(2) = 1.3169... gives exactly 1/2, and K identical gaps raise the
overlap to the K-th power.
"""

import copy
import json
import math
import pathlib
import pickle
import sys
import threading
import time
import warnings
from collections.abc import Mapping
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dqmem import capacity
from dqmem.capacity import (
    _expected_log_cosh_gap,
    SCHEMA_VERSION,
    CodeSpec,
    Registry,
    RegistryCodeLengthError,
    RegistryEntry,
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
from dqmem.states import (
    Code,
    MemoryState,
    ModeParams,
    log_cosh,
    log_overlap,
    overlap,
    total_occupation,
    vacuum_overlap,
)

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


def one_shot(k, rows):
    """A registry of (id, thetas) rows built by the constructor in one go."""
    return Registry(modes_k(k), [RegistryEntry(e, Code(tuple(c))) for e, c in rows])


def assert_same_registry(reg, k, rows):
    expected = one_shot(k, rows)
    assert reg == expected
    assert reg.ids == expected.ids == tuple(e for e, _ in rows)
    assert np.array_equal(reg.codes, np.reshape([c for _, c in rows], (-1, k)))
    assert reg.entries == expected.entries
    assert all(reg.entry(e) is ent for e, ent in zip(reg.ids, reg.entries))
    assert np.array_equal(fidelity_matrix(reg, 0.5).values,
                          fidelity_matrix(expected, 0.5).values)


def test_branching_appends_leave_both_registries_unchanged():
    # reg1 is extended twice, reg2 twice more: no print may show through in
    # another registry, and every registry keeps reg1's entry objects
    rng = np.random.default_rng(7)
    base = [(f"m{i}", rng.uniform(0.0, 2.0, 3).tolist()) for i in range(5)]
    reg1 = registry_k(3, [c for _, c in base], ids=[e for e, _ in base])
    left = [("x", [0.1, 0.2, 0.3]), ("y", [1.0, 1.5, 0.5])]
    right = [("y", [0.7, 0.7, 0.7]), ("x", [2.0, 0.0, 1.0]), ("z", [0.4, 0.4, 0.9])]
    reg2 = reg1
    for e, c in left:
        reg2 = print_memory(reg2, e, Code(tuple(c)))
    reg3 = reg1
    for e, c in right:
        reg3 = print_memory(reg3, e, Code(tuple(c)))
    reg4 = print_memory(reg2, "w", Code((0.0, 0.0, 0.0)))
    reg5 = print_memory(reg2, "v", Code((3.0, 3.0, 3.0)))
    assert_same_registry(reg1, 3, base)
    assert_same_registry(reg2, 3, base + left)
    assert_same_registry(reg3, 3, base + right)
    assert_same_registry(reg4, 3, base + left + [("w", [0.0, 0.0, 0.0])])
    assert_same_registry(reg5, 3, base + left + [("v", [3.0, 3.0, 3.0])])
    for reg, absent in ((reg1, "x"), (reg2, "z"), (reg3, "w"), (reg4, "v")):
        with pytest.raises(KeyError, match=f"no entry with id '{absent}'"):
            reg.entry(absent)
    assert reg1.entries[0] is reg3.entries[0] is reg5.entries[0]


def test_loaded_rows_make_one_entry_for_every_registry_sharing_them(tmp_path):
    path = tmp_path / "r.json"
    save_registry(registry_k(2, [[0.3, 0.5], [0.9, 0.1]], ids=["a", "b"]), path)
    loaded = load_registry(path)
    extended = print_memory(loaded, "c", Code((0.5, 0.5)))
    branched = print_memory(loaded, "d", Code((0.1, 0.2)))  # copies loaded's rows
    assert extended.entry("b") is loaded.entry("b") is branched.entry("b")
    assert branched.entries[:2] == loaded.entries
    assert all(a is b for a, b in zip(extended.entries, loaded.entries))


def test_threads_printing_from_shared_registries_keep_their_own_rows(monkeypatch):
    # threads keep extending whichever registry was printed last, so several
    # often print to the same one: each print checks its new entry against
    # that registry's id index and builds its own entries and index from it,
    # and no print may show through in another's. A thread switch is forced
    # inside the check.
    check = capacity._check_entry

    def yielding_check(row, k, entry):
        time.sleep(0)
        check(row, k, entry)

    monkeypatch.setattr(capacity, "_check_entry", yielding_check)
    latest = [registry_k(2, [[0.1, 0.1]], ids=["base"])]
    wrong = []

    def extend(w):
        for i in range(300):
            reg = latest[0]
            new = print_memory(reg, f"w{w}-{i}", Code((float(w), float(i))))
            if (new.ids[:-1] != reg.ids or new.ids[-1] != f"w{w}-{i}"
                    or new.codes[-1].tolist() != [w, i]):
                wrong.append(new.ids[-1])
            latest[0] = new

    threads = [threading.Thread(target=extend, args=(w,)) for w in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_reading_entries_while_another_thread_branches_cannot_deadlock(monkeypatch):
    # the printer branches from reg1, which reg2 has extended past, and is
    # held inside the new entry's check until the reader has begun reading
    # the columns of a registry sharing reg1's entries. On Python 3.10 and
    # 3.11 every cached_property holds one class-wide lock while it
    # computes, so a print that held a lock of its own while reading a
    # cached property, while a reader held that property's lock waiting
    # for the print's, would hang
    reg1 = registry_k(2, [[0.1, 0.2], [0.3, 0.4]], ids=["a", "b"])
    reg2 = print_memory(reg1, "c", Code((0.5, 0.6)))
    fresh = print_memory(reg2, "d", Code((0.7, 0.8)))
    held, reading = threading.Event(), threading.Event()
    out = {}

    check = capacity._check_entry

    def handing_over_check(row, k, entry):
        if threading.current_thread() is printer and not held.is_set():
            held.set()
            reading.wait(5)
            time.sleep(0.05)  # the reader is now reading `fresh`
        check(row, k, entry)

    monkeypatch.setattr(capacity, "_check_entry", handing_over_check)

    def read():
        held.wait(5)
        reading.set()
        out["ids"], out["codes"] = fresh.ids, fresh.codes
        out["entries"] = fresh.entries

    def branch():
        out["branch"] = print_memory(reg1, "e", Code((0.9, 1.0)))

    printer = threading.Thread(target=branch, daemon=True)
    reader = threading.Thread(target=read, daemon=True)
    printer.start()
    reader.start()
    printer.join(10)
    reader.join(10)
    assert not printer.is_alive() and not reader.is_alive()
    assert [e.entry_id for e in out["entries"]] == ["a", "b", "c", "d"]
    assert out["ids"] == ("a", "b", "c", "d")
    assert out["codes"].tolist() == [[0.1, 0.2], [0.3, 0.4], [0.5, 0.6], [0.7, 0.8]]
    assert out["branch"].ids == ("a", "b", "e")
    assert out["branch"].entries[:2] == out["entries"][:2]


def test_registry_columns_are_read_only():
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1]], printed_at=[0.0, 1.5])
    assert np.array_equal(reg.printed_at, [0.0, 1.5])
    for column in (reg.codes, reg.printed_at):
        with pytest.raises(ValueError):
            column[0] = 7.0
    with pytest.raises(AttributeError):
        reg.modes = modes_k(1)


def test_registry_pickles_and_copies(tmp_path):
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1]], printed_at=[0.0, 1.5])
    for clone in (pickle.loads(pickle.dumps(reg)), copy.copy(reg), copy.deepcopy(reg)):
        assert clone == reg
        assert registry_to_json(print_memory(clone, "c", Code((0.5, 0.5)))) == registry_to_json(
            print_memory(reg, "c", Code((0.5, 0.5))))


def test_clones_of_a_read_registry_keep_its_contract():
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1]], printed_at=[0.0, 1.5])
    codes, printed_at = reg.codes, reg.printed_at  # cached before cloning
    for clone in (copy.copy(reg), copy.deepcopy(reg), pickle.loads(pickle.dumps(reg))):
        assert clone == reg and hash(clone) == hash(reg)
        assert repr(clone) == repr(reg)
        assert clone.ids == reg.ids
        for column, original in ((clone.codes, codes), (clone.printed_at, printed_at)):
            assert np.array_equal(column, original)
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[0] = 7.0


def test_sequential_prints_equal_the_one_shot_and_the_loaded_registry(tmp_path):
    rng = np.random.default_rng(15)
    rows = [(f"m{i}", rng.uniform(0.0, 2.0, 4).tolist()) for i in range(500)]
    reg = new_registry(modes_k(4))
    for entry_id, thetas in rows:
        reg = print_memory(reg, entry_id, Code(tuple(thetas)))
    assert_same_registry(reg, 4, rows)
    path = tmp_path / "r.json"
    save_registry(reg, path)
    loaded = load_registry(path)
    assert loaded == reg == one_shot(4, rows)
    assert hash(loaded) == hash(reg) == hash(one_shot(4, rows))
    assert registry_to_json(loaded) == registry_to_json(reg) == registry_to_json(one_shot(4, rows))
    assert path.read_text(encoding="utf-8") == registry_to_json(one_shot(4, rows))


def test_rejected_appends_keep_their_errors_and_change_nothing():
    reg = registry_k(2, [[0.3, 0.5], [0.9, 0.1]], ids=["a", "b"])
    with pytest.raises(ValueError, match=r"^duplicate entry id 'b'$"):
        print_memory(reg, "b", Code((0.5, 0.5)))
    with pytest.raises(RegistryCodeLengthError,
                       match=r"^entry 'c' has code length 1, registry has 2 modes$"):
        print_memory(reg, "c", Code((0.5,)))
    with pytest.raises(ValueError, match=r"^duplicate entry id 'a'$"):
        one_shot(2, [("a", [0.1, 0.1]), ("a", [0.2, 0.2])])
    with pytest.raises(RegistryCodeLengthError,
                       match=r"^entry 'b' has code length 3, registry has 2 modes$"):
        one_shot(2, [("a", [0.1, 0.1]), ("b", [0.2, 0.2, 0.2])])
    assert_same_registry(print_memory(reg, "c", Code((0.5, 0.5))), 2,
                         [("a", [0.3, 0.5]), ("b", [0.9, 0.1]), ("c", [0.5, 0.5])])


def test_print_memory_validates_the_new_row_only(monkeypatch):
    # count the code-length reads one print makes: the same at every size
    calls = []
    original = Code.__len__

    def counted(self):
        calls.append(1)
        return original(self)

    def reads_per_print(n):
        reg = registry_k(2, [[0.01 * i, 0.5] for i in range(n)])
        calls.clear()
        monkeypatch.setattr(Code, "__len__", counted)
        print_memory(reg, "new", Code((0.3, 0.3)))
        monkeypatch.setattr(Code, "__len__", original)
        return len(calls)

    assert reads_per_print(1) == reads_per_print(50) == reads_per_print(400) >= 1


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


def test_staggered_fidelity_matrix_bit_identical_to_pairwise_log_overlap():
    modes = tuple(ModeParams(i, 1.0 + 0.1 * i, g)
                  for i, g in enumerate((1.0, 0.35, 0.0, 1.7)))
    reg = new_registry(modes)
    rng = np.random.default_rng(5)
    for i, at in enumerate((0.0, 0.4, 1.1, 0.25, 2.0, 0.9)):
        reg = print_memory(reg, f"m{i}", Code(tuple(rng.uniform(0.0, 2.5, 4))),
                           printed_at=at)
    t = 2.6
    states = [MemoryState(modes, e.code, t - e.printed_at) for e in reg.entries]
    logs = np.array([[log_overlap(a, b) for b in states] for a in states])
    fm = fidelity_matrix(reg, t, staggered=True)
    # math.exp, the exp of states.overlap
    assert np.array_equal(fm.values, [[math.exp(x) for x in row] for row in logs])


@pytest.mark.parametrize("staggered", [False, True])
def test_fidelity_matrix_is_state_overlap_bit_for_bit(staggered, monkeypatch):
    # one exp for every overlap: each pair's matrix entry is overlap() of the
    # two states, math.exp of the same log, in the last bit too; with blocks
    # of 16 pairs, 40 entries span one-row blocks (39 pairs) and many-row ones
    monkeypatch.setattr(capacity, "_PAIR_CHUNK", 16)
    modes = tuple(ModeParams(i, 1.0, g) for i, g in enumerate((1.0, 0.35, 0.0, 1.7, 0.6)))
    rng = np.random.default_rng(411)
    for n in (1, 2, 40):
        reg = new_registry(modes)
        for i in range(n):
            at = float(rng.uniform(0.0, 1.0)) if staggered else 0.0
            reg = print_memory(reg, f"m{i}", Code(tuple(rng.uniform(0.0, 1.2, 5))),
                               printed_at=at)
        t = 1.3
        fm = fidelity_matrix(reg, t, staggered=staggered)
        # same-time entries are compared at age 0: the matrix is t-invariant
        ages = [t - e.printed_at if staggered else 0.0 for e in reg.entries]
        states = [reg.state(e.entry_id, age) for e, age in zip(reg.entries, ages)]
        expected = [[overlap(a, b) for b in states] for a in states]
        assert np.array_equal(fm.values, expected)


@pytest.mark.parametrize("chunk", [1, 2, 3, 7, 1024])
def test_pair_rectangles_tile_the_upper_triangle(monkeypatch, chunk):
    # every pair i < j exactly once, in row-major order, with the gap
    # thetas[j] - thetas[i] bit for bit; each rectangle is whole rows holding
    # at least `chunk` pairs, except a last one cut at row n - 1, and each
    # mode's gaps are contiguous
    monkeypatch.setattr(capacity, "_PAIR_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    seen = set()
    for n in range(0, 41):
        thetas = rng.uniform(0.0, 2.0, (n, 3))
        pairs = []
        for a, gap in capacity._pair_rects(thetas):
            k, rows, cols = gap.shape
            assert k == 3 and rows >= 1 and cols == n - 1 - a and gap.flags.c_contiguous
            size = sum(cols - r for r in range(rows))
            seen.add("rows 1" if rows == 1 else "rows > 1")
            if size < chunk:
                assert a + rows == n - 1
                seen.add("cut at row n - 1")
            for r in range(rows):
                for c in range(r, cols):
                    i, j = a + r, a + 1 + c
                    pairs.append((i, j))
                    assert gap[:, r, c].tolist() == (thetas[j] - thetas[i]).tolist()
        assert pairs == [(i, j) for i in range(n) for j in range(i + 1, n)]
    assert "rows 1" in seen
    assert ("cut at row n - 1" in seen) == (chunk > 1)
    assert ("rows > 1" in seen) == (chunk > 2)


def test_staggered_needs_time_after_last_print():
    reg = registry_k(1, [[0.3], [0.5]], printed_at=[0.0, 1.0])
    # the message names the first entry printed after the evaluation time
    with pytest.raises(ValueError, match="printed_at 1.0 of entry 'm1'"):
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
       width=st.floats(0.0, 4.0), bracket=st.none() | st.floats(0.5, 1.5),
       lattice=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_greedy_pack_matches_per_pair_fsum_loop(k, n, epsilon, width, bracket, lattice,
                                                seed):
    if bracket is not None:
        # a typical pair's L1 bound K w / 3 - K ln 2 lands near -ln epsilon,
        # so some candidates clear the bracket and others fall to the screen
        width = bracket * 3.0 * (math.log(2.0) - math.log(epsilon) / k)
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


@pytest.mark.parametrize("k, epsilon", [pytest.param(1, 0.05, id="1"),
                                        pytest.param(7, 0.05, id="7"),
                                        (1, 1e-300), (5, 1e-300)])
def test_greedy_pack_near_tie_takes_exact_fallback(monkeypatch, k, epsilon):
    # K equal gaps d with K ln cosh d = -ln epsilon: the block sum lands
    # within a few ulps of the threshold, so only fsum can decide; at
    # epsilon = 1e-300, ln cosh d = d - ln 2 in floats, where only the L1
    # bracket's slack keeps it from accepting
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
    # a candidate that the L1 bracket leaves undecided sends to log_cosh
    # exactly its rows whose floor C sum g min(g, 1) is at most -ln epsilon;
    # every other row is cleared without a log_cosh or fsum call
    cands = np.random.default_rng(3).uniform(0.0, 3.0, size=(150, 16))
    k, cut = 16, -math.log(0.05)
    expected = per_pair_fsum_pack(cands, 0.05)
    c = math.log(math.cosh(1.0))
    floored, margins = 0, []
    for idx in range(1, 150):
        rows = [np.abs(cands[idx] - cands[j]).tolist() for j in expected[0] if j < idx]
        l1 = min(math.fsum(r) for r in rows) - k * math.log(2.0)
        q = 0.5 * min(math.fsum(x * x for x in r) for r in rows)
        margins += [abs(l1 - cut), abs(q - cut)]
        if cut < l1 or q <= cut:
            continue
        floors = [c * math.fsum(x * min(x, 1.0) for x in r) for r in rows]
        margins += [abs(f - cut) for f in floors]
        floored += sum(f <= cut for f in floors)
    # no row so near a bound that the slacks could decide it
    assert min(margins) > 1e-6
    seen = []
    real = capacity.log_cosh
    monkeypatch.setattr(capacity, "log_cosh", lambda x: seen.append(x) or real(x))
    calls = count_fsum_calls(monkeypatch)
    assert greedy_pack(cands, 0.05) == expected
    reaching = np.concatenate(seen)
    assert len(reaching) == floored and 0 < len(calls) <= floored
    for gaps in reaching.tolist():
        assert c * math.fsum(x * min(x, 1.0) for x in gaps) <= cut
    assert len(expected[0]) > 20


def count_log_cosh_calls(monkeypatch):
    calls = []

    def counting(x):
        calls.append(1)
        return log_cosh(x)

    monkeypatch.setattr(capacity, "log_cosh", counting)
    return calls


def test_greedy_pack_far_apart_block_takes_no_log_cosh(monkeypatch):
    # every pair clears the L1 bracket, so no transcendental runs at all. A
    # pair's l1 misses the bracket about 3 sigma below its mean (64 +- 5.7
    # against 47.4), so larger draws send a few candidates to the screen;
    # all 435 pairs of this one clear it
    cands = np.random.default_rng(2).uniform(0.0, 3.0, size=(30, 64))
    expected = per_pair_fsum_pack(cands, 0.05)
    lc_calls, fsum_calls = count_log_cosh_calls(monkeypatch), count_fsum_calls(monkeypatch)
    assert greedy_pack(cands, 0.05) == expected
    assert expected[0] == tuple(range(30))
    assert lc_calls == [] and fsum_calls == []


def test_greedy_pack_near_block_rejects_without_log_cosh(monkeypatch):
    # every later candidate is so near the first that q / 2 decides it
    cands = np.random.default_rng(8).uniform(0.0, 0.2, size=(100, 16))
    expected = per_pair_fsum_pack(cands, 0.05)
    calls = count_log_cosh_calls(monkeypatch)
    assert greedy_pack(cands, 0.05) == expected == ((0,), (1,) * 100)
    assert calls == []


@pytest.mark.parametrize("k, epsilon", [(1, 0.05), (1, 1e-300), (5, 1e-300)])
def test_greedy_pack_at_the_l1_threshold(monkeypatch, k, epsilon):
    # K equal gaps d: the bracket accepts iff K d (1 - r) - r K - K ln 2
    # clears -ln epsilon, r = 4 (K + 2) eps; scan a few ulps either side of
    # the d where that turns true
    rate = 4.0 * (k + 2) * 2.0 ** -52
    d = (-math.log(epsilon) + k * math.log(2.0) + rate * k) / (k * (1.0 - rate))
    bracketed = set()
    for gap in (d + i * math.ulp(d) for i in range(-6, 7)):
        cands = [[0.0] * k, [gap] * k]
        expected = per_pair_fsum_pack(cands, epsilon)
        calls = count_log_cosh_calls(monkeypatch)
        assert greedy_pack(cands, epsilon) == expected == ((0, 1), (1, 2))
        monkeypatch.undo()
        bracketed.add(calls == [])
    assert bracketed == {True, False}  # the scan straddles the bracket


@pytest.mark.parametrize("k", [1, 3])
def test_greedy_pack_tiny_gaps_match_the_fsum_rule(k):
    # -ln epsilon ~ 2^-50: ln cosh d ~ d^2 / 2 is that small, and log_cosh's
    # cancellation near 0 rounds it to a multiple of 2^-53, sometimes above
    # q / 2; only the q bound's K eps floor keeps it from rejecting those
    epsilon = 1.0 - 2.0 ** -50
    d = math.sqrt(-2.0 * math.log(epsilon) / k)
    for gap in np.linspace(0.9 * d, 1.1 * d, 101):
        cands = [[0.0] * k, [gap] * k]
        assert greedy_pack(cands, epsilon) == per_pair_fsum_pack(cands, epsilon)


@pytest.mark.parametrize("k", [1, 2, 5, 16])
def test_greedy_pack_at_the_floors_exact_point(monkeypatch, k):
    # K gaps of exactly 1, where the floor C K is ln cosh's own sum: at
    # epsilon = exp(-K C) and a few ulps either side, only the floor's slack
    # keeps it from clearing the row, so every decision takes one fsum
    base = math.exp(-k * math.log(math.cosh(1.0)))
    decisions = set()
    for epsilon in (base + i * math.ulp(base) for i in range(-12, 13)):
        cands = [[0.0] * k, [1.0] * k]
        expected = per_pair_fsum_pack(cands, epsilon)
        calls = count_fsum_calls(monkeypatch)
        assert greedy_pack(cands, epsilon) == expected
        assert len(calls) == 1
        monkeypatch.undo()
        decisions.add(expected[0])
    assert decisions == {(0,), (0, 1)}  # the scan straddles the threshold


def test_greedy_pack_overflowing_gaps_keep_their_result():
    # gaps and sums past the float range mean overlap 0.0, with no warning
    # (RuntimeWarning is an error here): first decided by the L1 bracket,
    # then with infinite rows, which the floor clears, beside the [1.42] * 4
    # row, which neither the bracket nor the floor decides: the exact step does
    result = greedy_pack([[0, 0], [1e308, 1e308], [-1e308, -1e308]], 0.05)
    assert result == ((0, 1, 2), (1, 2, 3))
    result = greedy_pack([[0] * 4, [1e308] * 4, [-1e308] * 4, [1.42] * 4], 0.05)
    assert result == ((0, 1, 2, 3), (1, 2, 3, 4))


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


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
def test_capacity_estimate_takes_the_config_seed_rule(seed):
    # the rule of the `seed` config key: an integer in [0, 2**64)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        capacity_estimate(modes_k(2), (0.0, 1.5), 0.05, 5, seed=seed)


@pytest.mark.parametrize("seed", [1.5, True, np.float64(1.0)])
def test_capacity_estimate_rejects_a_seed_that_is_not_an_integer(seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        capacity_estimate(modes_k(2), (0.0, 1.5), 0.05, 5, seed=seed)


def test_capacity_estimate_takes_a_numpy_integer_seed():
    assert (capacity_estimate(modes_k(2), (0.0, 1.5), 0.05, 40, seed=np.uint64(7))
            == capacity_estimate(modes_k(2), (0.0, 1.5), 0.05, 40, seed=7))


@pytest.mark.parametrize("count", [1.5, True, np.float64(1.0)])
def test_capacity_estimate_rejects_a_candidate_count_that_is_not_an_integer(count):
    # the rule of the `candidates` key: 1.5 and True no longer run as one candidate
    with pytest.raises(ValueError, match="candidate_count must be an integer"):
        capacity_estimate(modes_k(2), (0.0, 1.5), 0.05, count, seed=0)


def test_capacity_estimate_takes_a_numpy_integer_candidate_count():
    assert (capacity_estimate(modes_k(2), (0.0, 1.5), 0.05, np.uint64(3), seed=5)
            == capacity_estimate(modes_k(2), (0.0, 1.5), 0.05, 3, seed=5))


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


def gauss_legendre_60(x0):
    """The node of the exact 16-point Gauss-Legendre rule next to x0, and its
    weight, to 60 digits: Newton on P_16 from x0, then
    w = 2 / ((1 - x^2) P'_16(x)^2)."""
    def legendre(x):
        p0, p1 = Decimal(1), x
        for k in range(2, 17):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        return p1, 16 * (x * p1 - p0) / (x * x - 1)  # P_16, P'_16

    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x0)
        for _ in range(6):  # quadratic from a correctly rounded start
            p, dp = legendre(x)
            x -= p / dp
        p, dp = legendre(x)
        return x, 2 / ((1 - x * x) * dp * dp)


def test_gauss_legendre_table_against_a_60_digit_rule():
    # the table holds the bits of numpy's leggauss(16). Its nodes are
    # correctly rounded (the worst is 0.32 ulp off); its weights are not:
    # they are up to 63 ulps (7e-15 relative) off the exact ones, and are
    # kept as they are so that the capacity report keeps its bytes
    nodes, weights = capacity._GAP_NODES, capacity._GAP_WEIGHTS
    assert len(nodes) == len(weights) == 16
    assert nodes == tuple(-x for x in reversed(nodes))
    assert weights == weights[::-1]
    assert math.fsum(weights) == 2.0
    assert list(nodes) == sorted(nodes) and nodes[8] > 0.0
    for x0, w0 in zip(nodes[8:], weights[8:]):
        x, w = gauss_legendre_60(x0)
        assert abs(Decimal(x0) - x) <= Decimal(math.ulp(x0)) / 2
        assert abs(Decimal(w0) - w) <= Decimal("1e-13") * w


@pytest.mark.parametrize("width, value", [
    (0.1, 0.0008327785699327856),
    (1.5, 0.16581729151948585),
    (3.0, 0.5310604587671985),
    (25.0, 7.672363599968457),
    (1e300, 3.3333333333333335e+299),
])
def test_expected_log_cosh_gap_keeps_its_bits(width, value):
    # the values of the rule computed by leggauss(16) on numpy 2.4.6
    assert repr(_expected_log_cosh_gap(width)) == repr(value)


def test_capacity_rejects_overflowing_expected_overlap():
    # K * w / 3 passes the largest float: -K E[ln cosh gap] is -inf, so the
    # sweep is refused before any packing (and its overflow warnings)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="expected pair log-overlap"):
            capacity_estimate(modes_k(8), (0.0, 1e308), 0.05, 5, seed=1)


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


def test_forgetting_curve_bit_identical_to_per_state_reference():
    modes = tuple(ModeParams(i, 1.0, g)
                  for i, g in enumerate((1.0, 0.5, 0.0, 1.3, 0.8)))
    code = Code((0.8, 0.3, 0.6, 2.0, 0.0))
    times = np.linspace(0.0, 4.0, 257)
    curve = forgetting_curve(code, modes, times)
    written = MemoryState(modes, code)
    states = [MemoryState(modes, code, t) for t in times]
    assert curve.self_overlap == tuple(overlap(s, written) for s in states)
    assert curve.vacuum_overlap == tuple(vacuum_overlap(s) for s in states)
    assert curve.total_occupation == tuple(total_occupation(s) for s in states)


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


def test_association_graph_matches_loop_and_connected_components(monkeypatch):
    rng = np.random.default_rng(5)
    centres = rng.uniform(0.0, 8.0, size=(6, 3))
    codes = centres[rng.integers(0, 6, size=80)] + rng.normal(0.0, 0.2, size=(80, 3))
    reg = registry_k(3, np.abs(codes).tolist(), ids=[f"e{j:02d}" for j in rng.permutation(80)])
    for threshold in (0.05, 0.3, 0.5, 0.8, 0.99):
        g = association_graph(reg, 0.0, threshold)
        assert (g.edges, g.clusters) == loop_association_graph(reg, 0.0, threshold)
    assert 1 < len(association_graph(reg, 0.0, 0.5).clusters) < 80

    # tight clusters in 8 modes, where the floor screens out most pairs, with
    # duplicated codes (overlap exactly 1) and thresholds within an ulp of an
    # overlap; blocks of 50 pairs, so the 120 entries span many blocks
    monkeypatch.setattr(capacity, "_PAIR_CHUNK", 50)
    centres = rng.uniform(0.0, 3.0, size=(12, 8))
    codes = np.abs(centres[rng.integers(0, 12, size=120)] + rng.normal(0.0, 0.05, size=(120, 8)))
    codes[7], codes[90] = codes[3], codes[3]
    reg = registry_k(8, codes.tolist())
    fm = fidelity_matrix(reg, 0.0)
    assert fm.values[3, 7] == fm.values[3, 90] == 1.0
    inside = np.sort(fm.values[np.triu_indices(120, 1)])
    near = float(inside[inside < 1.0][-1])
    thresholds = [0.3, 0.7, math.nextafter(1.0, 0.0), near, math.nextafter(near, 0.0),
                  math.nextafter(near, 1.0)]
    for threshold in thresholds:
        g = association_graph(reg, 0.0, threshold)
        assert (g.edges, g.clusters) == loop_association_graph(reg, 0.0, threshold)
    assert (("m3", "m7", 1.0) in association_graph(reg, 0.0, math.nextafter(1.0, 0.0)).edges)
    assert sum(e[2] == near for e in association_graph(reg, 0.0, near).edges) >= 1
    assert not any(e[2] == near for e in association_graph(
        reg, 0.0, math.nextafter(near, 1.0)).edges)

    # gaps of exactly 1, where the floor is ln cosh 1 itself: at a threshold
    # on such an overlap only the screen's slack keeps the edge
    for k in (1, 2, 5):
        reg = registry_k(k, [[0.5] * k, [1.5] * k, [1.5] * (k - 1) + [0.5], [2.5] * k])
        fm = fidelity_matrix(reg, 0.0)
        for v in sorted(set(fm.values[np.triu_indices(4, 1)].tolist())):
            for threshold in {v, math.nextafter(v, 0.0), math.nextafter(v, 1.0)} - {1.0}:
                g = association_graph(reg, 0.0, threshold)
                assert (g.edges, g.clusters) == loop_association_graph(reg, 0.0, threshold)


@given(k=st.integers(1, 16), n=st.integers(2, 10), clusters=st.integers(1, 4),
       spread=st.sampled_from([0.0, 0.01, 0.1, 0.5]), lattice=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_association_graph_matches_loop_on_clustered_registries(k, n, clusters, spread,
                                                                lattice, seed):
    # thresholds on every overlap and one ulp either side; at gaps near 0
    # and 1 the floor is tight, and only its slack keeps such an edge
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 3.0, size=(clusters, k))
    codes = np.abs(centres[rng.integers(0, clusters, size=n)] + rng.normal(0.0, spread, (n, k)))
    if lattice:  # gaps within an ulp or two of whole numbers, 0 and 1 among them
        codes = np.round(codes) + rng.uniform(0.0, 1.0, size=k)
    reg = registry_k(k, codes.tolist())
    values = set(fidelity_matrix(reg, 0.0).values[np.triu_indices(n, 1)].tolist())
    thresholds = {t for v in values for t in (math.nextafter(v, 0.0), v, math.nextafter(v, 1.0))}
    for threshold in sorted(t for t in thresholds if 0.0 < t < 1.0):
        g = association_graph(reg, 0.0, threshold)
        assert (g.edges, g.clusters) == loop_association_graph(reg, 0.0, threshold)


def test_pair_summing_past_the_float_range_has_overlap_zero_and_no_edge():
    # each ln cosh term between codes (0, 0) and (1e308, 1e308) is finite,
    # their sum passes the float range: the log-overlap is -inf, in
    # log_overlap and in the row kernel alike, so the cell is 0.0 and the
    # pair no edge (its floor is past the float range too, so the screen
    # drops it without a log_cosh call)
    reg = registry_k(2, [[0.0, 0.0], [1e308, 1e308], [0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fm = fidelity_matrix(reg, 0.0)
        g = association_graph(reg, 0.0, 0.5)
        curve = forgetting_curve(Code((1e308, 1e308)), modes_k(2), [0.0, 1.0])
    a, b = reg.state("m0"), reg.state("m1")
    assert log_overlap(a, b) == log_overlap(b, a) == -math.inf
    assert overlap(a, b) == vacuum_overlap(b) == 0.0
    assert fm.values.tolist() == [[1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]
    assert g.edges == (("m0", "m2", 1.0),)
    assert g.clusters == (("m0", "m2"), ("m1",))
    assert curve.vacuum_overlap == (0.0, 0.0) and curve.self_overlap == (1.0, 1.0)


def test_log_cosh_past_the_float_range_of_2x_is_silent_and_exact():
    # -2|x| overflows to -inf past |x| = 2^1023, and exp(-inf) is the 0 it
    # stands for: ln cosh is |x| - ln 2 to the bit, with no warning, and so is
    # a registry's fidelity of 0.0 between codes 0 and 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in (1e308, -1e308, sys.float_info.max, -sys.float_info.max):
            assert log_cosh(x) == abs(x) - math.log(2.0)
            assert log_cosh(np.array([x, 0.0])).tolist() == [abs(x) - math.log(2.0), 0.0]
        fm = fidelity_matrix(registry_k(1, [[0.0], [1e308]]), 0.0)
    assert fm.values[0, 1] == fm.values[1, 0] == 0.0


def _decimal_log_cosh(x: float) -> Decimal:
    """ln cosh x in 800-digit decimal arithmetic; past x = 1000 it is
    x - ln 2 less a term below 1e-868, a lower bound."""
    d = abs(Decimal(x))
    if d > 1000:
        return d - Decimal(2).ln()
    return ((d.exp() + (-d).exp()) / 2).ln()


def test_association_floor_holds_against_decimal():
    # ln cosh x >= C min(x^2, |x|), C = ln cosh 1: equality at |x| = 1 and
    # x = 0; the screen's float C is the true one rounded down
    one = 1.0
    points = [0.0, 5e-324, 2.2e-308, 1e-8, 0.5, math.nextafter(one, 0.0), one,
              math.nextafter(one, 2.0), 2.0, 20.0, 700.0, 1e300]
    with localcontext() as ctx:
        ctx.prec = 800
        c = _decimal_log_cosh(1.0)
        assert Decimal(capacity._LN_COSH_1) <= c < Decimal(math.nextafter(capacity._LN_COSH_1, 1.0))
        for x in points + [-x for x in points]:
            d = abs(Decimal(x))
            floor = c * min(d * d, d)
            assert _decimal_log_cosh(x) >= floor, x
            if d in (0, 1):
                assert _decimal_log_cosh(x) == floor


def test_association_graph_sends_only_unscreened_pairs_to_log_cosh(monkeypatch):
    # every pair reaching log_cosh has a floor C sum min(g^2, g) at most
    # -ln threshold; all the others are ruled out without a log_cosh call
    rng = np.random.default_rng(8)
    centres = rng.uniform(0.0, 3.0, size=(10, 6))
    codes = np.abs(centres[rng.integers(0, 10, size=100)] + rng.normal(0.0, 0.08, size=(100, 6)))
    reg = registry_k(6, codes.tolist())
    threshold = 0.5
    c = math.log(math.cosh(1.0))
    floors = [c * math.fsum(min(g * g, g) for g in np.abs(codes[j] - codes[i]).tolist())
              for i in range(100) for j in range(i + 1, 100)]
    # no pair so near the cut that the screen's slack could decide it
    assert min(abs(f + math.log(threshold)) for f in floors) > 1e-6
    seen = []
    real = capacity.log_cosh
    monkeypatch.setattr(capacity, "log_cosh", lambda x: seen.append(x) or real(x))
    g = association_graph(reg, 0.0, threshold)
    reaching = np.concatenate(seen)
    assert len(reaching) == sum(f <= -math.log(threshold) for f in floors)
    assert len(g.edges) <= len(reaching) < len(floors) / 4
    for gaps in np.abs(reaching).tolist():
        assert c * math.fsum(min(x * x, x) for x in gaps) <= -math.log(threshold)
    monkeypatch.setattr(capacity, "log_cosh", real)
    assert (g.edges, g.clusters) == loop_association_graph(reg, 0.0, threshold)


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


def test_registry_carries_only_the_version_it_reads(tmp_path):
    # schema_version is a class constant, so no registry can be saved with a
    # version that load_registry rejects
    with pytest.raises(TypeError):
        Registry(modes_k(1), (), 2)
    reg = registry_k(1, [[0.3]])
    assert reg.schema_version == Registry.schema_version == SCHEMA_VERSION
    path = tmp_path / "r.json"
    save_registry(reg, path)
    assert load_registry(path) == reg


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


_GOOD = {"id": "b", "printed_at": 0.5, "thetas": [0.9, 0.1]}


@pytest.mark.parametrize("bad, error, message", [
    ([{"id": "b", "thetas": [0.9, 0.1]}], RegistryFormatError,
     "entries[1]: missing keys ['printed_at']"),
    ([[0.9, 0.1]], RegistryFormatError, "entries[1] must be an object"),
    ([dict(_GOOD, id=7)], RegistryFormatError, "entries[1].id must be a string"),
    ([dict(_GOOD, thetas="0.9")], RegistryFormatError, "entries[1].thetas must be an array"),
    ([dict(_GOOD, thetas=[0.9])], RegistryCodeLengthError,
     "entries[1] ('b') has 1 thetas, registry has 2 modes"),
    ([dict(_GOOD, thetas=[True, 0.1])], RegistryFormatError,
     "entries[1].thetas[0] must be a number"),
    ([dict(_GOOD, thetas=[-0.1, 0.1])], RegistryFormatError,
     "invalid registry contents: code thetas must be finite and >= 0, got (-0.1, 0.1)"),
    ([dict(_GOOD, thetas=[math.nan, 0.1])], RegistryFormatError,
     "invalid registry contents: code thetas must be finite and >= 0, got (nan, 0.1)"),
    ([dict(_GOOD, printed_at="0")], RegistryFormatError,
     "entries[1].printed_at must be a number"),
    ([dict(_GOOD, id="")], RegistryFormatError,
     "invalid registry contents: entry id must be a non-empty string"),
    ([dict(_GOOD, printed_at=math.inf)], RegistryFormatError,
     "invalid registry contents: printed_at must be finite and >= 0, got inf"),
    ([dict(_GOOD, id="a")], RegistryFormatError,
     "invalid registry contents: duplicate entry id 'a'"),
    # the first entry's first failing check is the one reported, and
    # duplicates only once every entry has passed its own checks
    ([dict(_GOOD, thetas=[-0.1, 0.1]), dict(_GOOD, id="c", extra=1)], RegistryFormatError,
     "invalid registry contents: code thetas must be finite and >= 0, got (-0.1, 0.1)"),
    ([dict(_GOOD, id="a"), dict(_GOOD, id="c", printed_at=-2.0)], RegistryFormatError,
     "invalid registry contents: printed_at must be finite and >= 0, got -2.0"),
])
def test_load_reports_the_first_bad_entry_value(tmp_path, bad, error, message):
    doc = json.loads(registry_to_json(registry_k(2, [[0.3, 0.5]], ids=["a"])))
    doc["entries"] += bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(error) as info:
        load_registry(path)
    assert str(info.value) == message


def test_load_takes_integer_thetas_and_times(tmp_path):
    reg = registry_k(2, [[0.0, 1.0], [2.0, 0.5]], printed_at=[0.0, 3.0])
    doc = json.loads(registry_to_json(reg))
    doc["entries"][0].update(thetas=[0, 1], printed_at=0)
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = load_registry(path)
    assert back == reg
    assert registry_to_json(back) == registry_to_json(reg)


def test_error_classes_are_distinct_but_catchable():
    assert issubclass(RegistryVersionError, RegistryError)
    assert issubclass(RegistryFormatError, RegistryError)
    assert issubclass(RegistryCodeLengthError, RegistryError)
    assert not issubclass(RegistryVersionError, RegistryFormatError)
    assert not issubclass(RegistryFormatError, RegistryVersionError)


# ---------------------------------------------------------------------------
# the canonical JSON writer


def _jsonable(obj):
    """Plain-JSON view: tuples to lists, non-finite floats to strings; the
    writer's old first pass, kept as its reference."""
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isfinite(x):
            return x
        return {math.inf: "inf", -math.inf: "-inf"}.get(x, "nan")
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def reference_json(obj):
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308,
               -1e308, 1.7976931348623157e308, math.inf, -math.inf, math.nan, 0.1, 1e16]
json_floats = st.sampled_from(EDGE_FLOATS) | st.floats()
json_scalars = st.one_of(
    st.text(st.characters(codec="utf-8", exclude_categories=["Cs"]), max_size=6),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\r\n\t", "caf\u00e9", "\u2028",
                     "\U0001d11e"]),
    st.booleans(), st.none(),
    st.integers(-2 ** 70, 2 ** 70),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    json_floats,
    json_floats.map(np.float64),
    st.floats(width=32).map(np.float32),
)
json_keys = st.sampled_from([1, "1", 0, "0", "", "a", '"q"', "\u00e9"]) | st.text(max_size=3)
json_values = st.recursive(
    json_scalars | st.lists(json_floats, max_size=6)
    | st.lists(json_floats, max_size=6).map(lambda xs: np.array(xs, dtype=float))
    | st.lists(st.integers(-9, 9), min_size=2, max_size=6).map(
        lambda xs: np.array(xs[:len(xs) // 2 * 2]).reshape(-1, 2)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(json_keys, children, max_size=4),
    ),
    max_leaves=24,
)


@given(json_values)
@settings(max_examples=300, deadline=None)
def test_json_text_is_the_json_dumps_text(obj):
    assert capacity._json_text(obj) == reference_json(obj)


def test_json_text_colliding_keys_and_empty_containers():
    obj = {1: "int", "1": "str", "b": [], "a": {}, "c": (), "d": np.array([])}
    assert capacity._json_text(obj) == reference_json(obj)
    assert json.loads(capacity._json_text(obj))["1"] == "str"


def test_json_text_refuses_what_json_refuses():
    for bad in (np.bool_(True), {"a": [1, np.bool_(False)]}, {1j}, 1j, object()):
        with pytest.raises(TypeError, match="not JSON serializable"):
            reference_json(bad)
        with pytest.raises(TypeError, match="not JSON serializable"):
            capacity._json_text(bad)


def json_dumps_registry(registry):
    """registry_to_json as json.dumps wrote it."""
    return json.dumps({
        "schema_version": registry.schema_version,
        "modes": [{"index": m.index, "omega": m.omega, "gamma": m.gamma}
                  for m in registry.modes],
        "entries": [{"id": e.entry_id, "printed_at": e.printed_at,
                     "thetas": list(e.code.thetas)} for e in registry.entries],
    }, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("n", [0, 1, 500])
def test_registry_to_json_keeps_the_json_dumps_bytes(n):
    rng = np.random.default_rng(n)
    ids = ['quote "q"', "back\\slash", "tab\tcr\r", "caf\u00e9", "\U0001d11e", "\x01"]
    ids = (ids + [f"m{i:05d}" for i in range(n)])[:n]
    reg = registry_k(3, rng.uniform(0.0, 2.0, size=(n, 3)).tolist(), ids=ids,
                     printed_at=rng.uniform(0.0, 5.0, size=n).tolist())
    assert registry_to_json(reg) == json_dumps_registry(reg)


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
