"""Memory-capacity laboratory: registries, recall experiments, persistence.

A Registry is an immutable value, a mode list and a tuple of printed
memories: printing returns a new registry holding the old entries plus one
and touches nothing else, which is the non-destructive sequential recording
the model promises. An id -> row index checks a new entry's id without a
scan; the id tuple, the (n, K) code array and the printed_at array are
built from the entries on first read, the arrays read-only. A print copies
the entry tuple and the index: about 3.5 us at 1000 entries and 12 us at
4000 (K = 16), so 4000 sequential prints take about 25 ms; `dqmem print`
copies them once for all of its entries. On top of it
sit the experiments: pairwise fidelity matrices, greedy capacity packing,
forgetting curves, association graphs, and a versioned JSON file format
with canonical key order so saved registries diff cleanly.

Fidelity here is the state overlap; it is the only distinguishability
metric the model defines, and artifacts record the metric name so others
could coexist. Every pairwise read works in the printing frame: an entry
printed at p has Theta = gamma (t - p) - theta, so two entries' gap is
(theta_j - theta_i) + gamma (p_j - p_i) (`dqmem.states._gaps`), and no read
forms gamma t: time invariance is exact in floating point. This is the
one read mode: t only has to follow every printing, and entries that share
a printing time have the code gaps as their gaps. Pair reads, recall and
the forgetting curve go through one row kernel; `dqmem.states.log_overlap`,
which forms its gaps the same way, is the per-state reference the tests
hold reads of entries that share a printing time to, bit for bit.
"""

from __future__ import annotations

import json
import math
import operator
from functools import cached_property
from json.encoder import encode_basestring_ascii
from collections.abc import Iterable, Mapping, Sequence

from .states import (
    Code,
    MemoryState,
    ModeParams,
    _LN2,
    _WORK,
    _Record,
    _checked_modes,
    _checked_times,
    _fsum_nonneg,
    _gammas,
    _gaps,
    _log_cosh_into,
    _occupations,
    _row_sums,
    _set,
    forgetting_time,
    log_cosh,
    np,
    theta_from_beta,
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


class RegistryEntry(_Record):
    __slots__ = _fields = ("entry_id", "code", "printed_at")

    def __init__(self, entry_id: str, code: Code, printed_at: float = 0.0):
        if not isinstance(entry_id, str) or not entry_id:
            raise ValueError("entry id must be a non-empty string")
        printed_at = float(printed_at)
        if not (printed_at >= 0.0 and math.isfinite(printed_at)):
            raise ValueError(f"printed_at must be finite and >= 0, got {printed_at}")
        _set(self, entry_id, code, printed_at)


def _check_entry(row: Mapping[str, int], k: int, entry: RegistryEntry) -> None:
    """The checks every entry of a registry passes, in this order: a code of
    the registry's k modes, then an id not yet in `row`."""
    if len(entry.code) != k:
        raise RegistryCodeLengthError(
            f"entry '{entry.entry_id}' has code length {len(entry.code)}, "
            f"registry has {k} modes"
        )
    if entry.entry_id in row:
        raise ValueError(f"duplicate entry id '{entry.entry_id}'")


def _indexed(row: dict[str, int], k: int, entries: Iterable[RegistryEntry]) -> tuple:
    """`entries` as a tuple, each passing `_check_entry` against `row` as
    it is read, then entered in `row` at the next row index."""
    checked = []
    for entry in entries:
        _check_entry(row, k, entry)
        row[entry.entry_id] = len(row)
        checked.append(entry)
    return tuple(checked)


class Registry(_Record):
    """Immutable collection of printed memories over one shared mode list.

    `entries` is a tuple in print order and `_row` maps each id to its row;
    `ids`, `codes` (n, K) and `printed_at` (n,) are columns built from the
    entries on first read, the arrays read-only. `print_memory` returns a
    new registry holding the same entry objects plus one. Its fields and
    columns live in its `__dict__`; a pickled or copied registry is rebuilt
    from its fields, so its columns are built again, read-only.
    """

    _fields = ("modes", "entries")
    schema_version = SCHEMA_VERSION  # the one version this build reads

    def __init__(self, modes: Iterable[ModeParams], entries: Iterable[RegistryEntry] = ()):
        modes, row = _checked_modes(modes), {}
        vars(self).update(modes=modes, entries=_indexed(row, len(modes), entries), _row=row)

    def _extended(self, entries: Iterable[RegistryEntry]) -> Registry:
        """A new registry holding this one's entries and then `entries`,
        each checked as it is read; one copy of the entry tuple and the id
        index however many are added, and this registry is untouched."""
        row = dict(self._row)
        added = _indexed(row, self.k, entries)
        registry = object.__new__(Registry)
        vars(registry).update(modes=self.modes, entries=self.entries + added, _row=row)
        return registry

    @property
    def k(self) -> int:
        return len(self.modes)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(self._row)

    @cached_property
    def codes(self) -> np.ndarray:
        codes = np.array([e.code.thetas for e in self.entries], dtype=float)
        codes.shape = (len(self.entries), self.k)  # (0, K) when empty
        codes.flags.writeable = False
        return codes

    @cached_property
    def printed_at(self) -> np.ndarray:
        printed_at = np.array([e.printed_at for e in self.entries], dtype=float)
        printed_at.flags.writeable = False
        return printed_at

    def entry(self, entry_id: str) -> RegistryEntry:
        try:
            return self.entries[self._row[entry_id]]
        except KeyError:
            raise KeyError(f"no entry with id '{entry_id}'") from None

    def state(self, entry_id: str, time: float = 0.0) -> MemoryState:
        """Memory state of one entry at absolute age `time` since printing."""
        return MemoryState(self.modes, self.entry(entry_id).code, time)


def new_registry(modes: Iterable[ModeParams]) -> Registry:
    return Registry(modes)


def print_memory(registry: Registry, entry_id: str, code: Code | None = None, *,
                 beta: float | None = None, printed_at: float = 0.0) -> Registry:
    """Append one memory, given either its code or a thermal beta-spec.

    With `beta`, the code is the thermal one per mode: theta_kappa such that
    the occupation is Bose at (beta, omega_kappa). Returns a new registry;
    the input and every existing entry are untouched. Only the new entry is
    validated; the new registry copies the input's entry tuple and id index.
    """
    if (code is None) == (beta is None):
        raise ValueError("provide exactly one of code or beta")
    if beta is not None:
        code = CodeSpec(beta=beta).realize(registry.modes)
    return registry._extended((RegistryEntry(entry_id=entry_id, code=code,
                                             printed_at=printed_at),))


class FidelityMatrix(_Record):
    """Symmetric pairwise-overlap matrix of registry entries at one time.

    values is read-only; diagonal exactly 1, entries in [0, 1]. The values
    depend only on printing-frame gaps, so matrices taken at different
    evaluation times are equal array-for-array. staggered is derived, not
    chosen: whether the entries' printing times differ. Matrices compare
    by identity.
    """

    __slots__ = _fields = ("ids", "values", "eval_time", "staggered")
    __eq__, __hash__ = object.__eq__, object.__hash__
    metric = "overlap"  # the one distinguishability metric

    def __init__(self, ids: tuple[str, ...], values: np.ndarray, eval_time: float,
                 staggered: bool):
        values.setflags(write=False)
        _set(self, ids, values, eval_time, staggered)


_PAIR_CHUNK = 1024  # entry pairs per rectangle of a pairwise read: 128 KB at K = 16
_EPS = 2.0 ** -52   # float64 machine epsilon
_LN_COSH_1 = 0.4337808304830272  # C = ln cosh 1, rounded down


def _floor_clears(g: np.ndarray, c: float) -> np.ndarray:
    """The rows of an (m, K) block of gaps g >= 0 whose fsum of log_cosh
    surely exceeds c, found with no log_cosh call: the one screen of every
    pairwise ln cosh decision, in greedy_pack and association_graph.

    For every x, max(|x| - ln 2, C min(x^2, |x|)) <= ln cosh x <= x^2 / 2
    with C = ln cosh 1, since ln cosh x / x^2 falls and ln cosh x / |x|
    rises with |x|. A computed log_cosh(g) is within 4 eps (g + 1) of
    ln cosh g (eps the float64 machine epsilon; exp and log1p are good to a
    few ulps), g + 1 is at most g min(g, 1) + 2 and at most g^2 + 2, and a
    sum of K terms >= 0 is within K eps of its value, relatively, in any
    order. So with rate = 4 (K + 2) eps, a row's fsum of log_cosh exceeds
    l1 - K ln 2 - rate (l1 + K), is below q / 2 + rate (q + K) and exceeds
    f (1 - rate / C) - rate K, where l1 and q are the row's computed sums
    of g and g^2 and f = C sum_k g_k min(g_k, 1), computed; each slack
    covers the rounding of its terms, its sums and the test itself. A row
    is cleared where f exceeds (c + rate K) / (1 - rate / C), so its fsum
    exceeds c, or where f passes the float range, so its fsum is inf.
    """
    rate = 4.0 * (g.shape[1] + 2) * _EPS
    cut = (c + rate * g.shape[1]) / (1.0 - rate / _LN_COSH_1)
    with np.errstate(over="ignore"):
        return _LN_COSH_1 * np.einsum("ij,ij->i", g, np.minimum(g, 1.0)) > cut


def _log_overlap_rows(gaps: np.ndarray) -> np.ndarray:
    """-fsum_k ln cosh g_k for each row g of a block of Theta gaps: the value
    `states.log_overlap` gives for two rows whose difference is g, bit for
    bit, -inf for a row whose terms sum past the float range. The block is
    the caller's to give up: it is overwritten with its ln cosh
    (`states._log_cosh_into`), so the call makes one temporary of its size.
    The sums are `states._row_sums`, math.fsum's value with no Python call
    per row: its first tier, one TwoSum cascade across the K columns, is
    exact for every row of positive terms that its certificate admits (every
    pair of a clustered registry's block). Every caller takes overlaps as
    math.exp of them, as `states.overlap` does."""
    return -_row_sums(_log_cosh_into(gaps))


def _pair_frame(registry: Registry, t: float) -> tuple:
    """(codes, gammas, printed_at) of a pairwise read at time t; a t before
    a printing is a ValueError naming the first such entry."""
    t = float(t)
    if not (t >= 0.0 and math.isfinite(t)):
        raise ValueError(f"evaluation time must be finite and >= 0, got {t}")
    if not registry.entries:
        raise ValueError("registry has no entries")
    printed = registry.printed_at
    if np.any(printed > t):
        i = int(np.argmax(printed > t))
        raise ValueError(f"evaluation time {t} precedes printed_at {float(printed[i])} "
                         f"of entry '{registry.ids[i]}'")
    return registry.codes, _gammas(registry.modes), printed


def _pair_rects(frame: tuple):
    """The pairs i < j of a `_pair_frame`'s n entries in K-major row
    rectangles: for rows a..b-1 against the columns a+1..n-1, (a, gap) with
    gap the fresh (K, b - a, n - 1 - a) `_gaps` array of the transposed
    codes' T[:, None, a+1:] - T[:, a:b, None] and the print times' same
    difference. Row a + r's gaps to the entries after it are
    gap[:, r, r:]; a cell left of those (column <= row) is no pair. The
    rows a..b-1 are the fewest whole rows holding _PAIR_CHUNK pairs, cut at
    b = n - 1, so no array spans the triangle. Each gap[k] is contiguous,
    so a block of pairs taken from it as a (K, m) array and read through
    its transpose runs `_row_sums`'s TwoSum cascades, one column at a time,
    over contiguous memory. Each rectangle adds its pairs to `states._WORK`."""
    codes, gammas, printed = frame
    t, gammas = np.ascontiguousarray(codes.T), gammas[:, None, None]
    n = t.shape[1]
    a = 0
    while a < n - 1:
        b, size = a, 0
        while b < n - 1 and size < _PAIR_CHUNK:
            size += n - 1 - b
            b += 1
        _WORK["pairs"] += size
        # unbound: a local would hold the rectangle while the generator waits
        yield a, _gaps(t[:, None, a + 1:] - t[:, a:b, None], gammas,
                       printed[None, a + 1:] - printed[a:b, None])
        a = b


def _upper_overlaps(frame: tuple):
    """The one pairwise overlap kernel: for i = 0, ..., n - 1 in turn, the
    list of row i's overlaps with the entries j > i of a `_pair_frame` (the
    last list empty). Each is math.exp of the pair's log-overlap, as in
    states.overlap (np.exp differs from it in some last bits), taken over
    `_pair_rects`' rectangles: a rectangle's rows of pairs, joined into one
    (K, m) block, are one `_log_overlap_rows` call, which overwrites that
    block. Only one rectangle of pairs is held at a time, and none while its
    rows are read."""
    for _, gap in _pair_rects(frame):
        rows, cols = gap.shape[1:]
        # gap and cells go before the rows are yielded, not held while
        # fidelity.csv's lines are written
        cells = np.concatenate([gap[:, r, r:] for r in range(rows)], axis=1)
        del gap
        exps = list(map(math.exp, _log_overlap_rows(cells.T).tolist()))
        del cells
        start = 0
        for r in range(rows):
            stop = start + cols - r
            yield exps[start:stop]
            start = stop
    yield []  # the last entry's; `_pair_frame` refuses an empty registry


def fidelity_matrix(registry: Registry, t: float) -> FidelityMatrix:
    """Pairwise overlaps of all entries evolved to common evaluation time t.

    Each pair is read in the printing frame, its gap (theta_j - theta_i) +
    gamma (p_j - p_i), so gamma t is never formed and the matrix does not
    depend on t, bit for bit; t must be at or after every printed_at.
    `staggered` says whether the printing times differ: where they do not,
    the gaps are the code gaps.

    The matrix is filled a row at a time from the upper-triangle row
    kernel: row i's overlaps go into values[i, i+1:] and are mirrored into
    values[i+1:, i], so the lower triangle equals the upper one bit for bit.
    """
    frame = _pair_frame(registry, t)
    n = len(frame[0])
    values = np.ones((n, n), dtype=float)
    for i, row in enumerate(_upper_overlaps(frame)):
        values[i, i + 1:] = row
        values[i + 1:, i] = row
    return FidelityMatrix(ids=registry.ids, values=values, eval_time=float(t),
                          staggered=bool(np.ptp(frame[2]) > 0))


class AssociationGraph(_Record):
    """Thresholded fidelity graph: edges (id_a, id_b, fidelity) and connected
    association clusters, each a tuple of ids."""

    __slots__ = _fields = ("ids", "threshold", "eval_time", "edges", "clusters")


def association_graph(registry: Registry, t: float, threshold: float) -> AssociationGraph:
    """Edges (i, j) wherever fidelity >= threshold, plus connected clusters.

    The fidelity of a pair is math.exp of its log-overlap, the negated fsum
    of ln cosh over its printing-frame gaps g, as in fidelity_matrix; the
    graph does not depend on t, which must follow every printing, and the
    edge test is math.exp(log) >= threshold. Clusters are ordered by first
    member; members keep registry order, so the output is deterministic.
    The read is `_association_edges`'; this builds the record's edge tuples
    from its arrays.
    """
    threshold, clusters, firsts, seconds, values = _association_edges(registry, t, threshold)
    ids = registry.ids
    edges = tuple(zip(map(ids.__getitem__, firsts), map(ids.__getitem__, seconds), values))
    return AssociationGraph(ids=ids, threshold=threshold, eval_time=float(t), edges=edges,
                            clusters=clusters)


def _association_edges(registry: Registry, t: float, threshold: float) -> tuple:
    """`association_graph`'s read: (threshold, clusters, firsts, seconds,
    values), the edges as columns, array('l') of the entries' row indices
    and array('d') of the fidelities, so no edge is a Python object.

    math.exp and math.log are each within an ulp, so a log whose exp
    reaches the threshold is at least ln(threshold) - 4 eps (1 +
    |ln threshold|), eps the float64 machine epsilon. Most pairs of a
    spread-out registry are ruled out first, without a log_cosh call, by
    `_floor_clears`: a pair whose floor C sum_k g_k min(g_k, 1),
    C = ln cosh 1, puts its fsum past the negation of that has no edge (one
    whose gaps sum past the float range included: its overlap is 0.0). The
    floor runs on each of `_pair_rects`' rectangles; the pairs it leaves are
    gathered across rectangles and go through the row kernel, one
    `_log_overlap_rows` call per _PAIR_CHUNK / 2 of them or more (a batch of
    a whole rectangle's 128 KB at K = 16 raised the step's peak resident
    memory by 0.4 MB). So the edges, their order and the clusters are those
    of testing every pair.
    """
    from array import array  # here, not at the top: its module maps 72 kB

    threshold = float(threshold)
    if not (0.0 < threshold < 1.0):
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    frame = _pair_frame(registry, t)
    log_threshold = math.log(threshold)
    # a pair whose fsum exceeds this has an overlap below the threshold
    far = -log_threshold + 4.0 * _EPS * (1.0 - log_threshold)
    ids = registry.ids
    # union-find; grouping in registry order lists each cluster from its first member
    root = list(range(len(ids)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    firsts, seconds, values = array("l"), array("l"), array("d")

    def decide(near: list) -> None:
        """The exact step for the pairs (i, j, gaps) that the floor left."""
        i_parts, j_parts, gaps = zip(*near)
        near.clear()
        logs = _log_overlap_rows(np.concatenate(gaps, axis=1).T)
        for i, j, log in zip(np.concatenate(i_parts).tolist(),
                             np.concatenate(j_parts).tolist(), logs.tolist()):
            value = math.exp(log)
            if value >= threshold:
                firsts.append(i)
                seconds.append(j)
                values.append(value)
                a, b = find(i), find(j)
                root[max(a, b)] = min(a, b)

    near, count = [], 0
    for a, gap in _pair_rects(frame):
        k, rows, cols = gap.shape
        g = np.abs(gap, out=gap)
        for r in range(1, rows):  # cells that are no pair: inf, which the floor clears
            g[:, r, :r] = math.inf
        i, j = np.nonzero(~_floor_clears(g.reshape(k, rows * cols).T, far).reshape(rows, cols))
        near.append((a + i, a + 1 + j, g[:, i, j]))
        del gap, g  # no rectangle is held during the exact step
        count += i.size
        if count >= _PAIR_CHUNK // 2:
            decide(near)
            count = 0
    if count:
        decide(near)
    members: dict[int, list[str]] = {}
    for i, entry_id in enumerate(ids):
        members.setdefault(find(i), []).append(entry_id)
    return threshold, tuple(map(tuple, members.values())), firsts, seconds, values


class CapacityReport(_Record):
    """Outcome of one greedy packing sweep, reproducible from its fields."""

    __slots__ = _fields = (
        "modes", "theta_range", "epsilon", "candidate_count", "seed", "accepted_count",
        "accepted_indices", "accepted_codes", "acceptance_curve",
        "expected_pair_log_overlap", "expected_pair_overlap")


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


def _checked_epsilon(epsilon: float) -> float:
    """The packing threshold as a float in (0, 1), the one rule for it."""
    epsilon = float(epsilon)
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return epsilon


def greedy_pack(thetas: Sequence[Sequence[float]], epsilon: float) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Greedy mutual-distinguishability packing over candidate codes.

    Accepts a candidate iff its overlap with every already accepted code is
    strictly below epsilon, that is iff fsum_k ln cosh(gap_k) > -ln epsilon
    for every accepted code, the sum taken by math.fsum (correctly rounded).
    Returns (accepted indices, acceptance curve), the curve being the
    accepted count after each candidate.

    Each candidate is decided against the whole accepted block at once from
    its gaps g = |c - accepted|, in three stages, by the bounds whose
    rounding slacks `_floor_clears` derives:

    1. L1 bracket: the candidate is accepted if the smallest row sum l1 of
       g puts every row's fsum past -ln epsilon, and rejected if the
       smallest row sum q of g^2 keeps some row's at or below it, with no
       log_cosh call.
    2. Floor: a row whose f = C sum_k g_k min(g_k, 1), C = ln cosh 1, puts
       its fsum past -ln epsilon is cleared, with no log_cosh call.
    3. Every other row is decided by the exact fsum rule on its own.

    The accepted set is therefore the one the per-pair fsum loop gives, bit
    for bit. A gap or sum past the float range is inf, with no warning, and
    means overlap 0.0, as in `_log_overlap_rows`. Candidates must form a
    finite (n, K) array; an empty sequence packs to ((), ()).
    """
    log_eps = math.log(_checked_epsilon(epsilon))
    cands = _candidate_block(thetas)
    acc = np.empty_like(cands)
    accepted: list[int] = []
    curve: list[int] = []
    with np.errstate(over="ignore"):  # an infinite gap or sum means overlap 0.0
        for idx, cand in enumerate(cands):
            if _accepts(np.abs(cand - acc[:len(accepted)]), log_eps):
                acc[len(accepted)] = cand
                accepted.append(idx)
            curve.append(len(accepted))
    return tuple(accepted), tuple(curve)


def _accepts(gap: np.ndarray, log_eps: float) -> bool:
    """greedy_pack's decision for one candidate from its (m, K) gaps to the
    accepted block: the L1 bracket, the floor, then fsum."""
    k = gap.shape[1]
    rate = 4.0 * (k + 2) * _EPS
    l1 = float(np.einsum("ij->i", gap).min(initial=math.inf))  # inf: no rows
    if l1 * (1.0 - rate) - rate * k - k * _LN2 > -log_eps:
        return True
    q = float(np.einsum("ij,ij->i", gap, gap).min(initial=math.inf))
    if 0.5 * q + rate * (q + k) <= -log_eps:
        return False
    near = gap[~_floor_clears(gap, -log_eps)]
    # a handful of rows at most: math.fsum beats _row_sums's column loop
    return not len(near) or all(-_fsum_nonneg(r) < log_eps for r in log_cosh(near).tolist())


# The 16-node Gauss-Legendre rule on [-1, 1] (see _expected_log_cosh_gap):
# its positive nodes and their weights, ascending. The rule is exactly
# symmetric, x = -x[::-1] and w = w[::-1], so the other half is a mirror.
_GL_X = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737,
         0.6178762444026438, 0.755404408355003, 0.8656312023878318,
         0.9445750230732326, 0.9894009349916499)
_GL_W = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265,
         0.1495959888165767, 0.12462897125553407, 0.0951585116824926,
         0.062253523938647456, 0.027152459411754176)
_GAP_NODES = tuple(-x for x in reversed(_GL_X)) + _GL_X
_GAP_WEIGHTS = _GL_W[::-1] + _GL_W
_GAP_KNEE = 20.0   # past it ln cosh u = u - ln 2 to within e^-40


def _expected_log_cosh_gap(width: float) -> float:
    """E[ln cosh(D)] for D = |U1 - U2|, U uniform on an interval of `width`.

    D has density (2/w)(1 - u/w) on [0, w]. Up to a = min(w, 20) the
    integral is composite Gauss-Legendre, 16 nodes on each of ceil(a) equal
    panels; ln cosh is analytic in the strip |Im u| < pi/2, so each panel is
    exact to round-off. Past u = 20, ln cosh u = u - ln 2 and that part is
    exact: (w - ln 2) b^2 - (2/3) w b^3 with b = 1 - a/w. No w^2 is formed,
    so every finite width works; the mean tends to w/3 - ln 2 + pi^2/(12 w).

    The rule is the table _GAP_NODES/_GAP_WEIGHTS, not computed. numpy's
    leggauss(16) solves an eigenproblem through LAPACK: computing the rule
    would import numpy.polynomial and start the BLAS library for one call,
    and its last bits could follow the LAPACK build. The table holds the
    bits leggauss gave on numpy 2.4.6, so the report keeps its bytes, on
    every machine. Its nodes are correctly rounded; its weights are within
    1e-13 relative of the exact ones (up to 63 ulps off), kept for those
    bytes.
    """
    w = float(width)
    if w == 0.0:
        return 0.0
    a = min(w, _GAP_KNEE)
    panels = math.ceil(a)
    h = a / panels
    nodes, weights = np.array(_GAP_NODES), np.array(_GAP_WEIGHTS)
    u = (np.arange(panels)[:, None] + 0.5 * (nodes + 1.0)) * h
    terms = weights * (1.0 - u / w) * log_cosh(u)
    head = h / w * math.fsum(terms.ravel())
    b = 1.0 - a / w
    return head + (w - _LN2) * b * b - (2.0 / 3.0) * w * b ** 3


def _capacity_sweep(modes, theta_range, epsilon, candidate_count, seed) -> tuple:
    """`capacity_estimate`'s sweep: its five inputs checked, the (n, K) draw,
    the accepted indices and curve, and the expected pair log-overlap. The
    draws, lo + (hi - lo) u with u in [0, 1), are finite and >= lo >= 0, so
    the CLI writes the accepted ones with no `Code` check."""
    ms = _checked_modes(modes)
    lo, hi = (float(theta_range[0]), float(theta_range[1]))
    if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo < hi):
        raise ValueError(f"empty or invalid theta range [{lo}, {hi})")
    epsilon = _checked_epsilon(epsilon)  # before the draw, which it would waste
    candidate_count = _integer(candidate_count, "candidate_count", ValueError)
    if candidate_count < 1:
        raise ValueError(f"candidate_count must be >= 1, got {candidate_count}")
    seed = _parse_seed(seed, "seed", ValueError)
    mean_log = -len(ms) * _expected_log_cosh_gap(hi - lo)
    if not math.isfinite(mean_log):
        raise ValueError(f"expected pair log-overlap overflows for {len(ms)} "
                         f"modes over theta range [{lo}, {hi}]")

    from ._rng import uniform

    samples = uniform(seed, lo, hi, candidate_count * len(ms))
    samples = samples.reshape(candidate_count, len(ms))
    return (ms, (lo, hi), epsilon, candidate_count, seed, samples,
            *greedy_pack(samples, epsilon), mean_log)


def capacity_estimate(modes: Iterable[ModeParams], theta_range: tuple[float, float],
                      epsilon: float, candidate_count: int, seed: int) -> CapacityReport:
    """Greedy capacity estimate: how many mutually distinguishable codes fit.

    Candidates are sampled uniformly in theta_range per mode, the draws of
    numpy's default_rng(seed).uniform bit for bit (from `dqmem._rng`, which
    does not import numpy.random), and packed greedily; the whole report is
    a pure function of (modes, range, epsilon, count, seed). The theoretical
    summary is the expected pairwise overlap between two random candidates,
    exp(-K * E[ln cosh gap]), by quadrature, not sampling. Only this library
    call builds the accepted codes as `Code` tuples; the CLI writes array rows.
    """
    *inputs, samples, accepted, curve, mean_log = _capacity_sweep(
        modes, theta_range, epsilon, candidate_count, seed)
    codes = tuple(map(Code, samples[list(accepted)].tolist()))
    return CapacityReport(*inputs, len(accepted), accepted, codes, curve, mean_log,
                          math.exp(mean_log))


class ForgettingCurve(_Record):
    """Recall observables along the trajectory of one code."""

    __slots__ = _fields = ("times", "self_overlap", "vacuum_overlap", "total_occupation",
                           "tau")


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
    gamma_t = ts[:, None] * _gammas(ms)  # the written state's gap to itself at age t
    traj = gamma_t - np.asarray(code.thetas)  # `_trajectory`, bit for bit
    total_occupation = tuple(_row_sums(_occupations(traj)).tolist())
    # each block goes to the row kernel, which overwrites it, after its last other use
    self_log = _log_overlap_rows(gamma_t)
    vacuum_log = _log_overlap_rows(traj)  # the empty register, Theta = 0
    # math.exp as in states.overlap: np.exp differs from it in some last bits
    return ForgettingCurve(
        times=tuple(ts.tolist()),
        self_overlap=tuple(math.exp(x) for x in self_log),
        vacuum_overlap=tuple(math.exp(x) for x in vacuum_log),
        total_occupation=total_occupation,
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


def _is_number(x) -> bool:
    """A JSON number: an int or a float, not a bool or a numeric string."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(x, where: str, error=_cfg_error) -> float:
    if not _is_number(x):
        raise error(f"{where} must be a number")
    return float(x)


def _number_list(obj, where: str, error=_cfg_error) -> tuple[float, ...]:
    """A JSON array of numbers as floats; `where` is formatted only to name
    the failing value. A list of plain ints and floats, as JSON parses,
    passes on one set of its types; the loop runs only for other lists."""
    if not isinstance(obj, list):
        raise error(f"{where} must be an array")
    if not set(map(type, obj)) <= {int, float}:
        for i, x in enumerate(obj):
            if not _is_number(x):
                raise error(f"{where}[{i}] must be a number")
    return tuple(map(float, obj))


def _from_numpy(x) -> bool:
    """Whether x's type is numpy's or derives from one of numpy's: only
    then is x tested against np's types, so no other value loads numpy."""
    return any(cls.__module__.partition(".")[0] == "numpy" for cls in type(x).__mro__)


def _integer(x, where: str, error=_cfg_error) -> int:
    """An int or a numpy integer, as a Python int; a bool or a float is an error."""
    if isinstance(x, bool) or _from_numpy(x) and isinstance(x, np.bool_):
        raise error(f"{where} must be an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise error(f"{where} must be an integer") from None


def _read_json(path, error, label: str, digest=None):
    """The JSON document in file `path`; a file that is not UTF-8 JSON is
    error(f"malformed {label} {path}: ..."), as is one whose integers carry
    too many digits or whose nesting is too deep for the parser. `digest`,
    a hashlib object when given, takes the bytes the document was read from."""
    with open(path, "rb") as fh:
        data = fh.read()
    if digest is not None:
        digest.update(data)
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise error(f"malformed {label} {path}: {exc}") from exc


_NON_FINITE = {math.inf: '"inf"', -math.inf: '"-inf"'}


def _json_text(obj) -> str:
    """Canonical JSON text of obj, the text of every JSON artifact.

    The text is that of json.dumps(_jsonable(obj), sort_keys=True,
    indent=2, allow_nan=False) + "\n", where the old _jsonable made mappings
    into dicts with str() keys, tuples and arrays (through tolist) into
    lists, numpy numbers into Python ones, and inf, -inf and nan into those
    strings. It is written in one walk, without json's pure-Python indent
    encoder: strings go through json's encode_basestring_ascii, and a list
    of floats is one join of float.__repr__, the format json gives a float.
    Any other type raises TypeError, as json does. The walk is
    `_json_parts`, which `cli` also streams into summary.json's file.
    """
    out: list[str] = []
    _json_parts(obj, "\n", out.append)
    out.append("\n")
    return "".join(out)


def _json_parts(obj, newline: str, write) -> None:
    """Passes obj's JSON text to write, in parts; `newline` is a line break
    plus the indent of obj's own level."""
    if isinstance(obj, str):
        write(encode_basestring_ascii(obj))
    elif obj is None or obj is True or obj is False:
        write({None: "null", True: "true", False: "false"}[obj])
    elif isinstance(obj, float):
        x = float(obj)
        write(float.__repr__(x) if math.isfinite(x) else _NON_FINITE.get(x, '"nan"'))
    elif isinstance(obj, int):
        write(int.__repr__(int(obj)))
    elif isinstance(obj, Mapping):
        items = {str(key): value for key, value in obj.items()}
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(items):
            write(sep + encode_basestring_ascii(key) + ": ")
            _json_parts(items[key], inner, write)
            sep = "," + inner
        write(newline + "}" if items else "{}")
    elif isinstance(obj, (list, tuple)):
        inner = newline + "  "
        try:  # floats only, all finite: no repr holds an "n"
            text = ("," + inner).join(map(float.__repr__, obj))
            if obj and "n" not in text:
                write("[" + inner + text + newline + "]")
                return
        except TypeError:
            pass
        _json_items(obj, newline, write)
    elif _from_numpy(obj) and type(obj) is np.ndarray and obj.ndim > 1:
        # a row at a time (a subclass goes whole): no float object outlives its row
        _json_items((row.tolist() for row in obj), newline, write)
    elif _from_numpy(obj) and isinstance(obj, (np.floating, np.integer, np.ndarray)):
        # as its Python float, int or list; numpy's bool is refused below
        _json_parts(float(obj) if isinstance(obj, np.floating) else
                    int(obj) if isinstance(obj, np.integer) else list(obj.tolist()),
                    newline, write)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _json_items(items, newline: str, write) -> None:
    """Passes the JSON text of a list of items to write, one item at a time."""
    inner, sep = newline + "  ", "["
    for item in items:
        write(sep + inner)
        _json_parts(item, inner, write)
        sep = ","
    write("[]" if sep == "[" else newline + "]")


# ---------------------------------------------------------------------------
# persistence


def registry_to_json(registry: Registry) -> str:
    """Canonical serialization: sorted keys, two-space indent, one trailing LF."""
    return _json_text({
        "schema_version": registry.schema_version,
        "modes": [
            {"index": m.index, "omega": m.omega, "gamma": m.gamma}
            for m in registry.modes
        ],
        "entries": [
            {"id": e.entry_id, "printed_at": e.printed_at, "thetas": e.code.thetas}
            for e in registry.entries
        ],
    })


def save_registry(registry: Registry, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(registry_to_json(registry))


def load_registry(path) -> Registry:
    """Read a registry file, distinguishing the three failure classes.

    Version mismatch -> RegistryVersionError; malformed JSON, wrong shapes
    or bad values -> RegistryFormatError; code/mode length disagreement ->
    RegistryCodeLengthError.
    """
    bad = RegistryFormatError
    doc = _read_json(path, bad, "registry file")
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
            thetas = e["thetas"]
            if isinstance(thetas, list) and len(thetas) != len(modes):
                raise RegistryCodeLengthError(
                    f"entries[{i}] ('{e['id']}') has {len(thetas)} thetas, "
                    f"registry has {len(modes)} modes"
                )
            entries.append(RegistryEntry(
                entry_id=e["id"],
                code=Code(_number_list(thetas, f"entries[{i}].thetas", bad)),
                printed_at=_number(e["printed_at"], f"entries[{i}].printed_at", bad),
            ))
        return Registry(tuple(modes), tuple(entries))
    except RegistryError:
        raise
    except ValueError as exc:
        raise RegistryFormatError(f"invalid registry contents: {exc}") from exc


# ---------------------------------------------------------------------------
# experiment configs


class CodeSpec(_Record):
    """How an experiment obtains its code: explicit thetas, a thermal beta,
    or a sample (lo, hi, seed); the other two fields are None."""

    __slots__ = _fields = ("thetas", "beta", "sample")
    _defaults = dict.fromkeys(_fields)

    def realize(self, modes: tuple[ModeParams, ...]) -> Code:
        """The code for these modes. A sample draws one theta per mode,
        the first len(modes) draws of numpy's default_rng(seed).uniform(lo,
        hi) bit for bit, from `dqmem._rng` (numpy.random is not imported)."""
        if self.thetas is not None:
            return Code(self.thetas)
        if self.beta is not None:
            return Code(tuple(theta_from_beta(self.beta, m.omega) for m in modes))
        assert self.sample is not None
        from ._rng import uniform

        lo, hi, seed = self.sample
        return Code(uniform(seed, lo, hi, len(modes)).tolist())


class ExperimentConfig(_Record):
    """Parsed, validated experiment description; `raw` echoes the source.

    Only the fields named by the kind's row of CONFIG_KINDS are set; the
    others are None. `probe` is a registry entry id or a CodeSpec;
    `entries` holds one (id, CodeSpec, printed_at) triple per memory to
    print.
    """

    __slots__ = _fields = (
        "kind", "raw", "modes", "code", "registry", "time", "times", "threshold",
        "theta_range", "epsilon", "candidates", "seed", "entries", "probe")
    _defaults = dict.fromkeys(_fields[2:])


class ConfigKind(_Record):
    """Schema row of one config kind: the CLI subcommand that runs it, and
    its required and exactly-one-of keys."""

    __slots__ = _fields = ("command", "required", "one_of")
    _defaults = {"one_of": ()}


_TRAJECTORY = ("modes", "code", "times")

CONFIG_KINDS = {
    "print": ConfigKind("print", ("entries",), one_of=("modes", "registry")),
    "recall": ConfigKind("recall", ("registry", "probe", "time")),
    "evolve": ConfigKind("evolve", _TRAJECTORY),
    "forgetting-curve": ConfigKind("forgetting", _TRAJECTORY),
    "capacity-sweep": ConfigKind(
        "capacity", ("modes", "theta_range", "epsilon", "candidates", "seed")),
    "association-graph": ConfigKind("associate", ("registry", "time", "threshold")),
    "fidelity-matrix": ConfigKind("associate", ("registry", "time")),
    "thermo-trace": ConfigKind("thermo-trace", _TRAJECTORY),
}


def _parse_seed(obj, where: str, error=_cfg_error) -> int:
    """A seed is an integer in [0, 2**64)."""
    seed = _integer(obj, where, error)
    if not 0 <= seed < 2 ** 64:
        raise error(f"{where} must be in [0, 2**64)")
    return seed


def _parse_string(obj, where: str) -> str:
    if not isinstance(obj, str):
        raise _cfg_error(f"{where} must be a string")
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
        return CodeSpec(beta=_number(obj["beta"], f"{where}.beta"))
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
    if len(pair) != 2:
        raise _cfg_error(f"{where} must be a pair [lo, hi]")
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
    "time": _number,
    "registry": _parse_string,
    "threshold": _number,
    "theta_range": _parse_theta_range,
    "epsilon": _number,
    "candidates": _integer,
    "seed": _parse_seed,
    "entries": _parse_entries,
    "probe": _parse_probe,
}


def parse_experiment_config(doc: Mapping) -> ExperimentConfig:
    """Validate a config document against its kind's row of CONFIG_KINDS.

    It checks keys, JSON types and shapes, and the rules only the grammar
    states: seed range, sample 0 <= lo < hi, equal-length modes, time grid.
    The model checks value ranges. No file is read: `registry` stays a path.
    """
    if not isinstance(doc, Mapping):
        raise _cfg_error("top level must be an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in CONFIG_KINDS:
        raise _cfg_error(f"unknown kind {kind!r}; expected one of {list(CONFIG_KINDS)}")
    spec = CONFIG_KINDS[kind]
    _check_keys(doc, kind, ("kind",) + spec.required, one_of=spec.one_of)
    fields = {key: _FIELDS[key](value, key) for key, value in doc.items() if key != "kind"}
    return ExperimentConfig(kind=kind, raw=dict(doc), **fields)
