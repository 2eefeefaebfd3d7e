"""Memory-capacity laboratory: registries, recall experiments, persistence.

A Registry is an immutable record of printed memories over one shared mode
list: printing appends an entry and touches nothing else, which is the
non-destructive sequential recording the model promises. On top of it sit
the experiments: pairwise fidelity matrices, greedy capacity packing,
forgetting curves, association graphs, and a versioned JSON file format
with canonical key order so saved registries diff cleanly.

Fidelity here is the state overlap; it is the only distinguishability
metric the model defines, and artifacts record the metric name so others
could coexist. In the common same-time mode every entry has been evolved by
the same damping for the same duration, so per-mode parameter gaps reduce
to code differences and the matrix is computed directly from those: that
makes its time invariance exact in floating point, not approximate. The
generic time-dependent route lives in `dqmem.states.log_overlap` and is
cross-checked against this one in the tests; the staggered mode (entries
printed at different times) uses it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .states import (
    Code,
    MemoryState,
    ModeParams,
    _LN2,
    _checked_modes,
    _checked_times,
    log_cosh,
    forgetting_time,
    overlap,
    theta_from_beta,
    total_occupation,
    vacuum_overlap,
)

__all__ = [
    "Registry",
    "RegistryEntry",
    "FidelityMatrix",
    "AssociationGraph",
    "CapacityReport",
    "ForgettingCurve",
    "CodeSpec",
    "ExperimentConfig",
    "ConfigKind",
    "RegistryError",
    "RegistryVersionError",
    "RegistryFormatError",
    "RegistryCodeLengthError",
    "new_registry",
    "print_memory",
    "fidelity_matrix",
    "association_graph",
    "capacity_estimate",
    "greedy_pack",
    "forgetting_curve",
    "save_registry",
    "load_registry",
    "parse_experiment_config",
    "CONFIG_KINDS",
]

SCHEMA_VERSION = 1


class RegistryError(ValueError):
    """Base class for registry persistence failures."""


class RegistryVersionError(RegistryError):
    """Registry file carries a schema version this build does not read."""


class RegistryFormatError(RegistryError):
    """Registry file is not valid JSON or violates the schema."""


class RegistryCodeLengthError(RegistryError):
    """An entry's code length disagrees with the registry's mode count."""


@dataclass(frozen=True)
class RegistryEntry:
    entry_id: str
    code: Code
    printed_at: float = 0.0

    def __post_init__(self):
        if not isinstance(self.entry_id, str) or not self.entry_id:
            raise ValueError("entry id must be a non-empty string")
        object.__setattr__(self, "printed_at", float(self.printed_at))
        if not (self.printed_at >= 0.0 and math.isfinite(self.printed_at)):
            raise ValueError(
                f"printed_at must be finite and >= 0, got {self.printed_at}"
            )


@dataclass(frozen=True)
class Registry:
    """Immutable collection of printed memories over one shared mode list."""

    modes: tuple[ModeParams, ...]
    entries: tuple[RegistryEntry, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "modes", _checked_modes(self.modes))
        object.__setattr__(self, "entries", tuple(self.entries))
        k = len(self.modes)
        seen: set[str] = set()
        for e in self.entries:
            if len(e.code) != k:
                raise RegistryCodeLengthError(
                    f"entry '{e.entry_id}' has code length {len(e.code)}, "
                    f"registry has {k} modes"
                )
            if e.entry_id in seen:
                raise ValueError(f"duplicate entry id '{e.entry_id}'")
            seen.add(e.entry_id)

    @property
    def k(self) -> int:
        return len(self.modes)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.entry_id for e in self.entries)

    def entry(self, entry_id: str) -> RegistryEntry:
        for e in self.entries:
            if e.entry_id == entry_id:
                return e
        raise KeyError(f"no entry with id '{entry_id}'")

    def state(self, entry_id: str, time: float = 0.0) -> MemoryState:
        """Memory state of one entry at absolute age `time` since printing."""
        return MemoryState(self.modes, self.entry(entry_id).code, time)


def new_registry(modes: Iterable[ModeParams]) -> Registry:
    return Registry(tuple(modes), ())


def print_memory(registry: Registry, entry_id: str, code: Code | None = None, *,
                 beta: float | None = None, printed_at: float = 0.0) -> Registry:
    """Append one memory, given either its code or a thermal beta-spec.

    With `beta`, the code is the thermal one per mode: theta_kappa such that
    the occupation is Bose at (beta, omega_kappa). Returns a new registry;
    the input and every existing entry are untouched.
    """
    if (code is None) == (beta is None):
        raise ValueError("provide exactly one of code or beta")
    if beta is not None:
        code = Code(tuple(theta_from_beta(beta, m.omega) for m in registry.modes))
    assert code is not None
    if any(e.entry_id == entry_id for e in registry.entries):
        raise ValueError(f"duplicate entry id '{entry_id}'")
    entry = RegistryEntry(entry_id=entry_id, code=code, printed_at=printed_at)
    return Registry(registry.modes, registry.entries + (entry,),
                    registry.schema_version)


@dataclass(frozen=True, eq=False)
class FidelityMatrix:
    """Symmetric pairwise-overlap matrix of registry entries at one time.

    values is read-only; diagonal exactly 1, entries in (0, 1]. In same-time
    mode the values depend only on code gaps, so matrices taken at different
    evaluation times are equal array-for-array.
    """

    ids: tuple[str, ...]
    values: np.ndarray
    eval_time: float
    staggered: bool
    metric: str = "overlap"

    def __post_init__(self):
        self.values.setflags(write=False)


def _same_time_log_rows(codes: np.ndarray, i: int) -> np.ndarray:
    """-sum_k ln cosh(theta_j - theta_i) for all j > i; exact in code gaps."""
    gaps = codes[i + 1:] - codes[i]
    logs = log_cosh(gaps)
    return np.array([-math.fsum(row) for row in logs], dtype=float)


def fidelity_matrix(registry: Registry, t: float, *,
                    staggered: bool = False) -> FidelityMatrix:
    """Pairwise overlaps of all entries evolved to common evaluation time t.

    Same-time mode (default) treats every entry as printed at time 0 and
    evolved for t: the per-mode gap (gamma t - theta_a) - (gamma t - theta_b)
    collapses algebraically to theta_b - theta_a, and it is computed that
    way, making the result exactly t-independent. Staggered mode gives each
    entry its own elapsed time t - printed_at (requires t >= every
    printed_at) and uses the generic trajectory route.
    """
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"evaluation time must be finite and >= 0, got {t}")
    if not registry.entries:
        raise ValueError("registry has no entries")
    n = len(registry.entries)

    if staggered:
        latest = max(e.printed_at for e in registry.entries)
        if t < latest:
            raise ValueError(
                f"evaluation time {t} precedes an entry's printing time {latest}"
            )
        states = [
            MemoryState(registry.modes, e.code, t - e.printed_at)
            for e in registry.entries
        ]
        from .states import log_overlap as _lo

        def row(i: int) -> np.ndarray:
            return np.array([_lo(states[i], s) for s in states[i + 1:]], dtype=float)
    else:
        stamps = {e.printed_at for e in registry.entries}
        if len(stamps) > 1:
            raise ValueError(
                "entries have differing printing times; same-time fidelity "
                "would misread them — pass staggered=True"
            )
        codes = np.array([e.code.thetas for e in registry.entries], dtype=float)

        def row(i: int) -> np.ndarray:
            return _same_time_log_rows(codes, i)

    values = np.ones((n, n), dtype=float)
    for i in range(n):
        values[i, i + 1:] = np.exp(row(i))
        values[i + 1:, i] = values[i, i + 1:]
    return FidelityMatrix(ids=registry.ids, values=values, eval_time=t,
                          staggered=staggered)


@dataclass(frozen=True)
class AssociationGraph:
    """Thresholded fidelity graph: edges and connected association clusters."""

    ids: tuple[str, ...]
    threshold: float
    eval_time: float
    edges: tuple[tuple[str, str, float], ...]
    clusters: tuple[tuple[str, ...], ...]


def association_graph(registry: Registry, t: float, threshold: float, *,
                      staggered: bool = False) -> AssociationGraph:
    """Edges (i, j) wherever fidelity >= threshold, plus connected clusters.

    Clusters are ordered by first member; members keep registry order, so
    the output is deterministic.
    """
    threshold = float(threshold)
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    fm = fidelity_matrix(registry, t, staggered=staggered)
    rows, cols = np.triu(fm.values >= threshold, 1).nonzero()  # row-major
    pairs = list(zip(rows.tolist(), cols.tolist()))
    edges = tuple((fm.ids[i], fm.ids[j], v)
                  for (i, j), v in zip(pairs, fm.values[rows, cols].tolist()))
    # union-find; grouping in registry order lists each cluster from its first member
    root = list(range(len(fm.ids)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, j in pairs:
        a, b = find(i), find(j)
        root[max(a, b)] = min(a, b)
    members: dict[int, list[str]] = {}
    for i, entry_id in enumerate(fm.ids):
        members.setdefault(find(i), []).append(entry_id)
    return AssociationGraph(ids=fm.ids, threshold=threshold, eval_time=float(t),
                            edges=edges,
                            clusters=tuple(tuple(m) for m in members.values()))


@dataclass(frozen=True)
class CapacityReport:
    """Outcome of one greedy packing sweep, reproducible from its fields."""

    modes: tuple[ModeParams, ...]
    theta_range: tuple[float, float]
    epsilon: float
    candidate_count: int
    seed: int
    accepted_count: int
    accepted_indices: tuple[int, ...]
    accepted_codes: tuple[Code, ...]
    acceptance_curve: tuple[int, ...]
    expected_pair_log_overlap: float
    expected_pair_overlap: float


def _candidate_block(thetas) -> np.ndarray:
    """Candidates as a finite (n, K) float array; ValueError otherwise."""
    try:
        cands = np.asarray(thetas, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"candidate codes must form an (n, K) array: {exc}") from None
    if cands.size == 0 and cands.ndim == 1:
        return cands.reshape(0, 0)
    if cands.ndim != 2:
        raise ValueError(
            f"candidate codes must form an (n, K) array, got shape {cands.shape}"
        )
    if not np.isfinite(cands).all():
        raise ValueError("candidate codes must be finite")
    return cands


def greedy_pack(thetas: Sequence[Sequence[float]], epsilon: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy mutual-distinguishability packing over candidate codes.

    Accepts a candidate iff its overlap with every already accepted code is
    strictly below epsilon, that is iff fsum_k ln cosh(gap_k) > -ln epsilon
    for every accepted code, the sum taken by math.fsum (correctly rounded).
    Returns (accepted indices, acceptance curve), the curve being the
    accepted count after each candidate.

    Each candidate is screened against the whole accepted block at once:
    s = log_cosh(c - accepted).sum(axis=1) differs from the fsum of the same
    row by at most 4 (K + 2) eps (|s| + K eps), eps the float64 machine
    epsilon: the terms are >= 0 up to a few eps each, and the K eps floor
    covers those near s = 0. A row that clears -ln epsilon by more than
    that bound is decided by s alone; any other row is re-decided by the
    exact fsum rule on its own. The accepted set is therefore the one the per-pair
    fsum loop gives, bit for bit. Candidates must form a finite (n, K)
    array; an empty sequence packs to ((), ()).
    """
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    log_eps = math.log(epsilon)
    cands = _candidate_block(thetas)
    k = cands.shape[1]
    machine_eps = np.finfo(float).eps
    acc = np.empty_like(cands)
    accepted: list[int] = []
    curve: list[int] = []
    for idx, cand in enumerate(cands):
        block = acc[:len(accepted)]
        s = log_cosh(cand - block).sum(axis=1)
        bound = 4.0 * (k + 2) * machine_eps * (np.abs(s) + k * machine_eps)
        # s +- bound brackets each row's fsum; reject iff some fsum <= -ln epsilon
        if not np.any(s + bound <= -log_eps):
            unsure = np.flatnonzero(s - bound <= -log_eps)
            if all(-math.fsum(log_cosh(cand - block[j])) < log_eps for j in unsure):
                acc[len(accepted)] = cand
                accepted.append(idx)
        curve.append(len(accepted))
    return tuple(accepted), tuple(curve)


_GAP_NODES = 16    # Gauss-Legendre nodes per panel of length <= 1
_GAP_KNEE = 20.0   # past it ln cosh u = u - ln 2 to within e^-40


def _expected_log_cosh_gap(width: float) -> float:
    """E[ln cosh(D)] for D = |U1 - U2|, U uniform on an interval of `width`.

    D has density (2/w)(1 - u/w) on [0, w]. Up to a = min(w, 20) the
    integral is composite Gauss-Legendre, 16 nodes on each of ceil(a) equal
    panels; ln cosh is analytic in the strip |Im u| < pi/2, so each panel is
    exact to round-off. Past u = 20, ln cosh u = u - ln 2 and that part is
    exact: (w - ln 2) b^2 - (2/3) w b^3 with b = 1 - a/w. No w^2 is formed,
    so every finite width works; the mean tends to w/3 - ln 2 + pi^2/(12 w).
    """
    # numpy.polynomial is imported here so other subcommands skip its import
    from numpy.polynomial.legendre import leggauss

    w = float(width)
    if w == 0.0:
        return 0.0
    a = min(w, _GAP_KNEE)
    panels = math.ceil(a)
    h = a / panels
    nodes, weights = leggauss(_GAP_NODES)
    u = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) * h
    terms = weights * (1.0 - u / w) * log_cosh(u)
    head = h / w * math.fsum(terms.ravel())
    b = 1.0 - a / w
    return head + (w - _LN2) * b * b - (2.0 / 3.0) * w * b ** 3


def capacity_estimate(modes: Iterable[ModeParams], theta_range: tuple[float, float],
                      epsilon: float, candidate_count: int, seed: int) -> CapacityReport:
    """Greedy capacity estimate: how many mutually distinguishable codes fit.

    Candidates are sampled uniformly in theta_range per mode with numpy's
    default_rng(seed) and packed greedily; the whole report is a pure
    function of (modes, range, epsilon, count, seed). The theoretical
    summary is the expected pairwise overlap between two random candidates,
    exp(-K * E[ln cosh gap]), computed by quadrature, not sampling.
    """
    ms = _checked_modes(modes)
    lo, hi = (float(theta_range[0]), float(theta_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
        raise ValueError(f"empty or invalid theta range [{lo}, {hi})")
    candidate_count = int(candidate_count)
    if candidate_count < 1:
        raise ValueError(f"candidate_count must be >= 1, got {candidate_count}")
    seed = int(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")

    rng = np.random.default_rng(seed)
    samples = rng.uniform(lo, hi, size=(candidate_count, len(ms)))
    accepted_idx, curve = greedy_pack(samples, epsilon)

    mean_log = -len(ms) * _expected_log_cosh_gap(hi - lo)
    return CapacityReport(
        modes=ms,
        theta_range=(lo, hi),
        epsilon=float(epsilon),
        candidate_count=candidate_count,
        seed=seed,
        accepted_count=len(accepted_idx),
        accepted_indices=accepted_idx,
        accepted_codes=tuple(Code(tuple(samples[i])) for i in accepted_idx),
        acceptance_curve=curve,
        expected_pair_log_overlap=mean_log,
        expected_pair_overlap=math.exp(mean_log),
    )


@dataclass(frozen=True)
class ForgettingCurve:
    """Recall observables along the trajectory of one code."""

    times: tuple[float, ...]
    self_overlap: tuple[float, ...]
    vacuum_overlap: tuple[float, ...]
    total_occupation: tuple[float, ...]
    tau: float


def forgetting_curve(code: Code, modes: Iterable[ModeParams], times) -> ForgettingCurve:
    """Self-overlap, vacuum overlap and occupation of a code over time.

    The vacuum overlap peaks at exactly 1 at the forgetting time for a
    single-mode code; the self-overlap log-slope approaches -sum(gamma) at
    large times. tau is forgetting_time of the written state (math.inf if
    nothing is damped).
    """
    ms = _checked_modes(modes)
    ts = _checked_times(times)
    written = MemoryState(ms, code, 0.0)
    self_o, vac_o, occ = [], [], []
    for t in ts:
        s = MemoryState(ms, code, float(t))
        self_o.append(overlap(s, written))
        vac_o.append(vacuum_overlap(s))
        occ.append(total_occupation(s))
    return ForgettingCurve(
        times=tuple(float(t) for t in ts),
        self_overlap=tuple(self_o),
        vacuum_overlap=tuple(vac_o),
        total_occupation=tuple(occ),
        tau=forgetting_time(written),
    )


# ---------------------------------------------------------------------------
# strict JSON checks, shared by registry files and experiment configs


def _cfg_error(msg: str) -> ValueError:
    return ValueError(f"invalid experiment config: {msg}")


def _check_keys(obj, where: str, required=(), optional=(), one_of=(),
                error=_cfg_error) -> None:
    """obj is an object holding every required key, at most the listed keys,
    and exactly one key of `one_of` when that group is non-empty."""
    if not isinstance(obj, Mapping):
        raise error(f"{where} must be an object")
    got = set(obj)
    unknown = sorted(got.difference(required, optional, one_of))
    if unknown:
        raise error(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - got)
    if missing:
        raise error(f"{where}: missing keys {missing}")
    if one_of and len(got.intersection(one_of)) != 1:
        raise error(f"{where}: give exactly one of {list(one_of)}")


def _number(x, where: str, error=_cfg_error) -> float:
    """A JSON number as a float; booleans and numeric strings are rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise error(f"{where} must be a number")
    return float(x)


def _integer(x, where: str, error=_cfg_error) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise error(f"{where} must be an integer")
    return x


# ---------------------------------------------------------------------------
# persistence


def _registry_document(registry: Registry) -> dict:
    return {
        "schema_version": registry.schema_version,
        "modes": [
            {"index": m.index, "omega": m.omega, "gamma": m.gamma}
            for m in registry.modes
        ],
        "entries": [
            {
                "id": e.entry_id,
                "printed_at": e.printed_at,
                "thetas": list(e.code.thetas),
            }
            for e in registry.entries
        ],
    }


def registry_to_json(registry: Registry) -> str:
    """Canonical serialization: sorted keys, two-space indent, one trailing LF."""
    return json.dumps(_registry_document(registry), sort_keys=True, indent=2) + "\n"


def save_registry(registry: Registry, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(registry_to_json(registry))


def load_registry(path) -> Registry:
    """Read a registry file, distinguishing the three failure classes.

    Version mismatch -> RegistryVersionError; malformed JSON, wrong shapes
    or bad values -> RegistryFormatError; code/mode length disagreement ->
    RegistryCodeLengthError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise RegistryFormatError(f"malformed registry file {path}: {exc}") from exc

    bad = RegistryFormatError
    _check_keys(doc, "registry document", ("schema_version", "modes", "entries"),
                error=bad)
    version = _integer(doc["schema_version"], "schema_version", bad)
    if version != SCHEMA_VERSION:
        raise RegistryVersionError(
            f"unsupported registry schema_version {version}; this build reads "
            f"version {SCHEMA_VERSION} only — re-export the registry or upgrade"
        )
    if not isinstance(doc["modes"], list) or not isinstance(doc["entries"], list):
        raise RegistryFormatError("modes and entries must be arrays")

    try:
        modes = []
        for i, m in enumerate(doc["modes"]):
            _check_keys(m, f"modes[{i}]", ("index", "omega", "gamma"), error=bad)
            modes.append(ModeParams(
                index=_integer(m["index"], f"modes[{i}].index", bad),
                omega=_number(m["omega"], f"modes[{i}].omega", bad),
                gamma=_number(m["gamma"], f"modes[{i}].gamma", bad),
            ))
        entries = []
        for i, e in enumerate(doc["entries"]):
            _check_keys(e, f"entries[{i}]", ("id", "printed_at", "thetas"), error=bad)
            if not isinstance(e["id"], str):
                raise RegistryFormatError(f"entries[{i}].id must be a string")
            if not isinstance(e["thetas"], list):
                raise RegistryFormatError(f"entries[{i}].thetas must be an array")
            if len(e["thetas"]) != len(modes):
                raise RegistryCodeLengthError(
                    f"entries[{i}] ('{e['id']}') has {len(e['thetas'])} thetas, "
                    f"registry has {len(modes)} modes"
                )
            thetas = tuple(
                _number(x, f"entries[{i}].thetas[{j}]", bad)
                for j, x in enumerate(e["thetas"])
            )
            entries.append(RegistryEntry(
                entry_id=e["id"],
                code=Code(thetas),
                printed_at=_number(e["printed_at"], f"entries[{i}].printed_at", bad),
            ))
        return Registry(tuple(modes), tuple(entries), version)
    except RegistryError:
        raise
    except ValueError as exc:
        raise RegistryFormatError(f"invalid registry contents: {exc}") from exc


# ---------------------------------------------------------------------------
# experiment configs


@dataclass(frozen=True)
class CodeSpec:
    """How an experiment obtains its code: explicit, thermal, or sampled."""

    thetas: tuple[float, ...] | None = None
    beta: float | None = None
    sample: tuple[float, float, int] | None = None  # (lo, hi, seed)

    def realize(self, modes: tuple[ModeParams, ...]) -> Code:
        if self.thetas is not None:
            return Code(self.thetas)
        if self.beta is not None:
            return Code(tuple(theta_from_beta(self.beta, m.omega) for m in modes))
        assert self.sample is not None
        lo, hi, seed = self.sample
        rng = np.random.default_rng(seed)
        return Code(tuple(rng.uniform(lo, hi, size=len(modes))))


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed, validated experiment description; `raw` echoes the source.

    Only the fields named by the kind's row of CONFIG_KINDS are set. `probe`
    is a registry entry id or a CodeSpec; `entries` holds one
    (id, CodeSpec, printed_at) triple per memory to print.
    """

    kind: str
    raw: dict
    modes: tuple[ModeParams, ...] | None = None
    code: CodeSpec | None = None
    registry: str | None = None
    time: float | None = None
    times: tuple[float, ...] | None = None
    threshold: float | None = None
    staggered: bool = False
    theta_range: tuple[float, float] | None = None
    epsilon: float | None = None
    candidates: int | None = None
    seed: int | None = None
    entries: tuple[tuple[str, CodeSpec, float], ...] | None = None
    probe: str | CodeSpec | None = None


@dataclass(frozen=True)
class ConfigKind:
    """Schema row of one config kind.

    `command` is the CLI subcommand that runs the kind; `flags` pairs a
    config key with the CLI option that fills it when the document omits it.
    """

    command: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()
    one_of: tuple[str, ...] = ()
    flags: tuple[tuple[str, str], ...] = ()


_TRAJECTORY = ("modes", "code", "times")

CONFIG_KINDS = {
    "print": ConfigKind("print", ("entries",), one_of=("modes", "registry")),
    "recall": ConfigKind("recall", ("registry", "probe", "time"), ("staggered",)),
    "evolve": ConfigKind("evolve", _TRAJECTORY),
    "forgetting-curve": ConfigKind("forgetting", _TRAJECTORY),
    "capacity-sweep": ConfigKind(
        "capacity", ("modes", "theta_range", "epsilon", "candidates", "seed"),
        flags=(("seed", "seed"), ("epsilon", "epsilon"))),
    "association-graph": ConfigKind(
        "associate", ("registry", "time", "threshold"), ("staggered",),
        flags=(("threshold", "epsilon"),)),
    "fidelity-matrix": ConfigKind("associate", ("registry", "time"),
                                  ("staggered", "threshold")),
    "thermo-trace": ConfigKind("thermo-trace", _TRAJECTORY),
}


def _number_list(obj, where: str) -> tuple[float, ...]:
    if not isinstance(obj, list):
        raise _cfg_error(f"{where} must be an array")
    return tuple(_number(x, f"{where}[{i}]") for i, x in enumerate(obj))


def _in_unit_interval(obj, where: str) -> float:
    x = _number(obj, where)
    if not 0.0 < x < 1.0:
        raise _cfg_error(f"{where} must be in (0, 1)")
    return x


def _at_least(minimum: int):
    def parse(obj, where: str) -> int:
        n = _integer(obj, where)
        if n < minimum:
            raise _cfg_error(f"{where} must be >= {minimum}")
        return n
    return parse


_parse_seed = _at_least(0)


def _parse_time(obj, where: str) -> float:
    t = _number(obj, where)
    if not (t >= 0.0 and math.isfinite(t)):
        raise _cfg_error(f"{where} must be finite and >= 0")
    return t


def _parse_string(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise _cfg_error(f"{where} must be a string")
    return obj


def _parse_bool(obj, where: str) -> bool:
    if not isinstance(obj, bool):
        raise _cfg_error(f"{where} must be a boolean")
    return obj


def _parse_modes(obj, where: str) -> tuple[ModeParams, ...]:
    _check_keys(obj, where, ("omega", "gamma"))
    omega = _number_list(obj["omega"], f"{where}.omega")
    gamma = _number_list(obj["gamma"], f"{where}.gamma")
    if len(omega) != len(gamma) or not omega:
        raise _cfg_error(f"{where}: omega and gamma must be equally sized and non-empty")
    try:
        return tuple(ModeParams(index=i, omega=o, gamma=g)
                     for i, (o, g) in enumerate(zip(omega, gamma)))
    except ValueError as exc:
        raise _cfg_error(f"{where}: {exc}") from exc


def _parse_code(obj, where: str, one_of=("thetas", "beta", "sample")) -> CodeSpec:
    _check_keys(obj, where, one_of=one_of)
    if "thetas" in obj:
        return CodeSpec(thetas=_number_list(obj["thetas"], f"{where}.thetas"))
    if "beta" in obj:
        beta = _number(obj["beta"], f"{where}.beta")
        if beta <= 0.0:
            raise _cfg_error(f"{where}.beta must be positive")
        return CodeSpec(beta=beta)
    sub, at = obj["sample"], f"{where}.sample"
    _check_keys(sub, at, ("lo", "hi", "seed"))
    lo = _number(sub["lo"], f"{at}.lo")
    hi = _number(sub["hi"], f"{at}.hi")
    if not (0.0 <= lo < hi and math.isfinite(hi)):
        raise _cfg_error(f"{at} needs 0 <= lo < hi, both finite")
    return CodeSpec(sample=(lo, hi, _parse_seed(sub["seed"], f"{at}.seed")))


def _parse_times(obj, where: str) -> tuple[float, ...]:
    _check_keys(obj, where, ("start", "stop", "num"))
    start = _number(obj["start"], f"{where}.start")
    stop = _number(obj["stop"], f"{where}.stop")
    num = _integer(obj["num"], f"{where}.num")
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            grid = np.linspace(start, stop, max(num, 0))
        return tuple(float(x) for x in _checked_times(grid, minimum_points=2))
    except ValueError as exc:
        raise _cfg_error(f"{where}: {exc}") from exc


def _parse_theta_range(obj, where: str) -> tuple[float, float]:
    pair = _number_list(obj, where)
    if len(pair) != 2 or not 0.0 <= pair[0] < pair[1]:
        raise _cfg_error(f"{where} must be a pair [lo, hi] with 0 <= lo < hi")
    return pair


def _parse_entries(obj, where: str) -> tuple[tuple[str, CodeSpec, float], ...]:
    if not isinstance(obj, list) or not obj:
        raise _cfg_error(f"{where} must be a non-empty array")
    entries = []
    for i, ent in enumerate(obj):
        at = f"{where}[{i}]"
        _check_keys(ent, at, ("id",), ("printed_at", "thetas", "beta"))
        code = {k: v for k, v in ent.items() if k not in ("id", "printed_at")}
        entries.append((_parse_string(ent["id"], f"{at}.id"),
                        _parse_code(code, at, one_of=("thetas", "beta")),
                        _number(ent.get("printed_at", 0.0), f"{at}.printed_at")))
    return tuple(entries)


def _parse_probe(obj, where: str) -> str | CodeSpec:
    if isinstance(obj, Mapping) and set(obj) == {"entry"}:
        return _parse_string(obj["entry"], f"{where}.entry")
    return _parse_code(obj, where)


# config key -> parser(value, where); every key of every kind has one
_FIELDS = {
    "modes": _parse_modes,
    "code": _parse_code,
    "times": _parse_times,
    "time": _parse_time,
    "registry": _parse_string,
    "staggered": _parse_bool,
    "threshold": _in_unit_interval,
    "theta_range": _parse_theta_range,
    "epsilon": _in_unit_interval,
    "candidates": _at_least(1),
    "seed": _parse_seed,
    "entries": _parse_entries,
    "probe": _parse_probe,
}


def parse_experiment_config(doc: Mapping) -> ExperimentConfig:
    """Validate a config document against its kind's row of CONFIG_KINDS.

    Unknown keys anywhere are errors, and numeric fields must be JSON
    numbers. No file is read: a `registry` value stays a path.
    """
    if not isinstance(doc, Mapping):
        raise _cfg_error("top level must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in CONFIG_KINDS:
        raise _cfg_error(f"unknown kind {kind!r}; expected one of {list(CONFIG_KINDS)}")
    spec = CONFIG_KINDS[kind]
    _check_keys(doc, kind, ("kind",) + spec.required, spec.optional, spec.one_of)
    fields = {key: _FIELDS[key](value, key) for key, value in doc.items() if key != "kind"}
    return ExperimentConfig(kind=kind, raw=dict(doc), **fields)
