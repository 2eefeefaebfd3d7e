"""The record contract: every record type of the package, as callers see it.

Each record keeps the field names, the constructor (by position or by
keyword, with its defaults), the repr and the frozen fields it had as a
frozen dataclass; pickling and copying rebuild it through its constructor.
The reprs below are the ones the dataclass versions printed.
"""

import copy
import json
import pathlib
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

from dqmem.capacity import (
    AssociationGraph, CapacityReport, CodeSpec, ConfigKind, ExperimentConfig,
    FidelityMatrix, ForgettingCurve, Registry, RegistryEntry, _json_text)
from dqmem.fock import FockWorkspace
from dqmem.states import Code, MemoryState, ModeParams, QuantumNumbers, Variances
from dqmem.thermo import FirstLawLedger, ThermoSnapshot

MODES = (ModeParams(0, 1.0, 0.5),)
CODE = Code((0.25,))
ENTRY = RegistryEntry("a", CODE, 0.5)
MODES_REPR = "(ModeParams(index=0, omega=1.0, gamma=0.5),)"
ENTRY_REPR = "RegistryEntry(entry_id='a', code=Code(thetas=(0.25,)), printed_at=0.5)"

# class, field names, field values, repr
CASES = [
    (ModeParams, "index omega gamma", (0, 1.0, 0.5),
     "ModeParams(index=0, omega=1.0, gamma=0.5)"),
    (Code, "thetas", ((0.25, 1.5),), "Code(thetas=(0.25, 1.5))"),
    (MemoryState, "modes code time", (MODES, CODE, 0.75),
     f"MemoryState(modes={MODES_REPR}, code=Code(thetas=(0.25,)), time=0.75)"),
    (QuantumNumbers, "j m", (0.0, 1.5), "QuantumNumbers(j=0.0, m=1.5)"),
    (Variances, "dx2 dy2 dx2_mirror dy2_mirror", (0.125, 2.0, 2.0, 0.125),
     "Variances(dx2=0.125, dy2=2.0, dx2_mirror=2.0, dy2_mirror=0.125)"),
    (ThermoSnapshot,
     "time entropy_per_mode entropy energy beta_per_mode beta_fit beta_fit_residual",
     (0.5, (1.25,), 1.25, 2.0, (0.75,), 0.75, 0.0),
     "ThermoSnapshot(time=0.5, entropy_per_mode=(1.25,), entropy=1.25, energy=2.0, "
     "beta_per_mode=(0.75,), beta_fit=0.75, beta_fit_residual=0.0)"),
    (FirstLawLedger, "times delta_energy entropy_term residual flagged",
     ((0.0, 1.0), (0.5,), (0.25,), (0.25,), (False,)),
     "FirstLawLedger(times=(0.0, 1.0), delta_energy=(0.5,), entropy_term=(0.25,), "
     "residual=(0.25,), flagged=(False,))"),
    (RegistryEntry, "entry_id code printed_at", ("a", CODE, 0.5), ENTRY_REPR),
    (Registry, "modes entries", (MODES, (ENTRY,)),
     f"Registry(modes={MODES_REPR}, entries=({ENTRY_REPR},))"),
    (FidelityMatrix, "ids values eval_time staggered",
     (("a",), np.ones((1, 1)), 0.5, False),
     "FidelityMatrix(ids=('a',), values=array([[1.]]), eval_time=0.5, staggered=False)"),
    (AssociationGraph, "ids threshold eval_time edges clusters",
     (("a", "b"), 0.5, 0.0, (("a", "b", 0.75),), (("a", "b"),)),
     "AssociationGraph(ids=('a', 'b'), threshold=0.5, eval_time=0.0, "
     "edges=(('a', 'b', 0.75),), clusters=(('a', 'b'),))"),
    (CapacityReport,
     "modes theta_range epsilon candidate_count seed accepted_count accepted_indices "
     "accepted_codes acceptance_curve expected_pair_log_overlap expected_pair_overlap",
     (MODES, (0.0, 1.5), 0.05, 3, 7, 1, (0,), (CODE,), (1, 1, 1), -0.5, 0.625),
     f"CapacityReport(modes={MODES_REPR}, theta_range=(0.0, 1.5), epsilon=0.05, "
     "candidate_count=3, seed=7, accepted_count=1, accepted_indices=(0,), "
     "accepted_codes=(Code(thetas=(0.25,)),), acceptance_curve=(1, 1, 1), "
     "expected_pair_log_overlap=-0.5, expected_pair_overlap=0.625)"),
    (ForgettingCurve, "times self_overlap vacuum_overlap total_occupation tau",
     ((0.0, 1.0), (1.0, 0.5), (0.25, 0.5), (0.0625, 0.25), 0.25),
     "ForgettingCurve(times=(0.0, 1.0), self_overlap=(1.0, 0.5), "
     "vacuum_overlap=(0.25, 0.5), total_occupation=(0.0625, 0.25), tau=0.25)"),
    (CodeSpec, "thetas beta sample", (None, 2.0, None),
     "CodeSpec(thetas=None, beta=2.0, sample=None)"),
    (ExperimentConfig,
     "kind raw modes code registry time times threshold theta_range "
     "epsilon candidates seed entries probe",
     ("recall", {"kind": "recall"}, None, None, "r.json", 0.5, None, None,
      None, None, None, None, None, "a"),
     "ExperimentConfig(kind='recall', raw={'kind': 'recall'}, modes=None, code=None, "
     "registry='r.json', time=0.5, times=None, threshold=None, "
     "theta_range=None, epsilon=None, candidates=None, seed=None, entries=None, "
     "probe='a')"),
    (ConfigKind, "command required one_of",
     ("print", ("entries",), ("modes", "registry")),
     "ConfigKind(command='print', required=('entries',), "
     "one_of=('modes', 'registry'))"),
    (FockWorkspace,
     "dim omega gamma a adag j_plus j_minus h_int number number_flipped interior",
     tuple(range(11)),
     "FockWorkspace(dim=0, omega=1, gamma=2, a=3, adag=4, j_plus=5, j_minus=6, h_int=7, "
     "number=8, number_flipped=9, interior=10)"),
]

# records compared by identity; every other record compares by its fields
BY_IDENTITY = (FidelityMatrix, FockWorkspace)


def hashed(record):
    """hash(record), or None for a config, which holds the dict it was parsed
    from and so, as a dataclass did, raises TypeError."""
    if isinstance(record, ExperimentConfig):
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
        return None
    return hash(record)

# the fields a constructor may leave out, and what they then hold
DEFAULTS = {
    MemoryState: {"time": 0.0},
    RegistryEntry: {"printed_at": 0.0},
    Registry: {"entries": ()},
    CodeSpec: {"thetas": None, "beta": None, "sample": None},
    ExperimentConfig: dict.fromkeys(
        "modes code registry time times threshold theta_range epsilon candidates "
        "seed entries probe".split()),
    ConfigKind: {"one_of": ()},
}

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_constructed_by_position_or_by_keyword(cls, names, values, text):
    names = names.split()
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert repr(record) == text
        assert type(record) is cls
    if cls not in BY_IDENTITY:
        assert by_position == by_keyword == mixed
        assert hashed(by_position) == hashed(by_keyword)
        assert tuple(getattr(by_position, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_defaults_fill_the_fields_left_out(cls, names, values, text):
    names = names.split()
    defaults = DEFAULTS.get(cls, {})
    given = {name: value for name, value in zip(names, values) if name not in defaults}
    record = cls(**given)
    for name in names:
        want = defaults[name] if name in defaults else given[name]
        assert getattr(record, name) is want or getattr(record, name) == want
    for missing in given:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in given.items() if name != missing})
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError):
        cls(*values[:1], **{names[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, no_such_field=1)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_fields_are_frozen(cls, names, values, text):
    record = cls(*values)
    for name in names.split():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.no_such_field = 1
    assert repr(record) == text


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_pickled_and_copied_records_rebuild(cls, names, values, text):
    record = cls(*values)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is cls and repr(clone) == text
        if cls not in BY_IDENTITY:
            assert clone == record and hashed(clone) == hashed(record)


@pytest.mark.parametrize("cls, names, values, text", CASES, ids=IDS)
def test_records_are_not_tuples(cls, names, values, text):
    # a record equals no tuple, and the JSON writer refuses it as json does
    record = cls(*values)
    assert record != values and values != record
    assert not isinstance(record, tuple)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json_text(record)


def test_identity_records_compare_by_identity():
    values = np.zeros((2, 2))
    fm = FidelityMatrix(("a", "b"), values, 0.0, False)
    assert fm != FidelityMatrix(("a", "b"), values, 0.0, False) and fm == fm
    assert not fm.values.flags.writeable and fm.metric == "overlap"
    with pytest.raises(ValueError):
        fm.values[0, 0] = 1.0
    ws = FockWorkspace(*range(11))
    assert ws != FockWorkspace(*range(11)) and ws == ws
    assert len({ws, FockWorkspace(*range(11))}) == 2


def test_records_of_two_classes_differ():
    assert QuantumNumbers(0.0, 1.0) != Variances(0.0, 1.0, 1.0, 0.0)
    assert CodeSpec(beta=2.0) != CodeSpec(thetas=(2.0,))
    assert Registry(MODES) == Registry(MODES, ())
    assert Registry.schema_version == 1


def test_trace_still_counts_memory_states(tmp_path):
    # the benchmark's tracer counts MemoryState constructions by wrapping
    # MemoryState.__init__; the trajectory workload builds three per pass.
    # The benchmark runs from a copy, so its work files stay in tmp_path
    root = pathlib.Path(__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(root / "src" / "dqmem", tmp_path / "src" / "dqmem",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "trajectory",
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["states.MemoryState.calls"]["value"] > 0
