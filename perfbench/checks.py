"""Reference values and artifact checks for the benchmark's CLI invocations.

Every reference is computed here with numpy from numerically stable closed
forms; nothing is imported from dqmem. Each check takes the invocation's
output directory and returns a list of failure messages, empty when every
artifact is correct.

Tolerances:
- floats agree within REL = 1e-9 relative;
- a quantity defined as a difference of larger terms (Theta = gamma t -
  theta, an energy step, a heat, a first-law residual) is compared relative
  to the size of those terms, which is the most any double evaluation of it
  can promise;
- decisions (accepted candidates, edges, clusters, flagged steps) must
  agree exactly, except within REL of the decision boundary (ln epsilon in
  the log domain, the threshold, or Theta = 0), where either outcome is
  accepted.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

REL = 1e-9
_LN2 = math.log(2.0)
_ZETA3 = 1.2020569031595942

# oracle-verify residual families and the tolerances the README promises
ORACLE_TOLERANCES = {
    "algebra": (0.0, 1e-12),
    "dual-construction": (0.0, 1e-10),
    "evolution": (0.0, 1e-10),
    "unitarity": (0.0, 1e-10),
    "occupation": (0.0, 1e-8),
    "vacuum-overlap": (0.0, 1e-8),
    "variances": (0.0, 1e-8),
    "weight": (0.0, 1e-8),
    "entropy": (0.0, 1e-8),
    "squeeze-factorization": (0.0, 1e-8),
    "entropy-flow": (0.0, 1e-6),
    "entropy-flow-ratio": (3.5, 4.5),
    "hole-relations": (0.0, 1e-8),
}


class CheckFailed(Exception):
    """An artifact is missing or unreadable; the message says which."""


# ---------------------------------------------------------------------------
# closed forms


def log_cosh(x):
    """ln cosh x = |x| + ln(1 + e^{-2|x|}) - ln 2, finite for every finite x."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LN2


def pair_entropy(theta):
    """s(Theta) = ln cosh^2 + sinh^2 ln(1 + 1/sinh^2), a sum of two terms >= 0.

    The textbook form (1+x) ln(1+x) - x ln x with x = sinh^2 cancels two
    terms of size x ln x and loses digits once x exceeds ~1e7.
    """
    x = np.sinh(np.asarray(theta, dtype=float)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.where(x < 1.0, x * (np.log1p(x) - np.log(x)),
                        x * np.log1p(1.0 / x))
    return 2.0 * log_cosh(theta) + np.where(x > 0.0, tail, 0.0)


def beta_energy(theta):
    """beta E = -ln tanh^2 Theta = 2 (ln(1+q) - ln(1-q)), q = e^{-2|Theta|}; inf at 0."""
    q = np.exp(-2.0 * np.abs(np.asarray(theta, dtype=float)))
    with np.errstate(divide="ignore"):
        return 2.0 * (np.log1p(q) - np.log1p(-q))


def expected_log_cosh_gap(width: float) -> float:
    """E[ln cosh |U1 - U2|] for U uniform on an interval of `width`, in closed form.

    With ln cosh u = u - ln 2 + ln(1 + e^{-2u}) and the gap density
    2(w - u)/w^2, the integral is
    (2/w^2) [w^3/6 - w^2 ln2 / 2 + w pi^2/24 - (eta(3) + Li3(-e^{-2w}))/4].
    """
    w = float(width)
    q = math.exp(-2.0 * w)
    li3 = math.fsum((-q) ** k / k ** 3 for k in range(1, 200) if q ** k > 1e-300)
    eta3 = 0.75 * _ZETA3
    bracket = math.fsum([w ** 3 / 6.0, -0.5 * _LN2 * w * w,
                         w * math.pi ** 2 / 24.0, -0.25 * (eta3 + li3)])
    return 2.0 * bracket / (w * w)


# ---------------------------------------------------------------------------
# artifact readers and comparison helpers


def read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from exc


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: unreadable ({exc})") from exc
    if not rows:
        raise CheckFailed(f"{path.name}: empty")
    return rows[0], rows[1:]


def column(path: Path, header: list[str], rows: list[list[str]], name: str, conv=float):
    if name not in header:
        raise CheckFailed(f"{path.name}: no column {name!r}")
    j = header.index(name)
    try:
        return np.array([conv(r[j]) for r in rows])
    except (IndexError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: column {name!r} unreadable ({exc})") from exc


def results(out: Path) -> dict:
    doc = read_json(out / "summary.json")
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), dict):
        raise CheckFailed("summary.json: no results object")
    return doc["results"]


def number(x) -> float:
    """JSON number, with the CLI's "inf"/"-inf"/"nan" strings for non-finite values."""
    try:
        return float(x)
    except (TypeError, ValueError) as exc:
        raise CheckFailed(f"summary.json: {x!r} is not a number") from exc


def compare(fails: list[str], where: str, got, want, scale=None, at=None) -> None:
    """Record a failure unless |got - want| <= REL * scale elementwise.

    scale defaults to |want|; equal infinities match. `at` labels rows in
    the message (e.g. the time grid).
    """
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        fails.append(f"{where}: {got.size} values, expected {want.size}")
        return
    got, want = got.ravel(), want.ravel()
    scale = np.abs(want) if scale is None else np.asarray(scale, dtype=float).ravel()
    with np.errstate(invalid="ignore"):
        err = np.abs(got - want)
        bad = ~((err <= REL * scale) | (got == want))
    if bad.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            rel = np.where(bad, err / np.where(scale > 0.0, scale, 1.0), 0.0)
        i = int(np.nanargmax(rel)) if np.isfinite(rel).any() else int(np.argmax(bad))
        label = f"value {i}" if at is None else f"{at[0]} {float(at[1][i])!r}"
        fails.append(f"{where}: {int(bad.sum())} of {bad.size} values off by more than "
                     f"{REL:g} relative (worst {rel[i]:.3g} at {label}: "
                     f"got {float(got[i])!r}, expected {float(want[i])!r})")


def expect(fails: list[str], ok: bool, message: str) -> None:
    if not ok:
        fails.append(message)


def guarded(check):
    """Turn a missing, unreadable or malformed artifact into a failure message."""
    def run(out: Path) -> list[str]:
        fails: list[str] = []
        try:
            check(out, fails)
        except CheckFailed as exc:
            fails.append(str(exc))
        except (TypeError, ValueError) as exc:
            fails.append(f"malformed artifact: {exc}")
        return fails
    return run


# ---------------------------------------------------------------------------
# capacity


def capacity_check(k: int, lo: float, hi: float, epsilon: float, count: int, seed: int):
    samples = np.random.default_rng(seed).uniform(lo, hi, size=(count, k))
    log_eps = math.log(epsilon)
    mean_log = -k * expected_log_cosh_gap(hi - lo)

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        path = out / "capacity.csv"
        header, rows = read_csv(path)
        index = column(path, header, rows, "candidate_index", int)
        flags = column(path, header, rows, "accepted", int)
        curve = column(path, header, rows, "accepted_count", int)
        if not np.array_equal(index, np.arange(count)):
            raise CheckFailed(f"capacity.csv: candidate_index is not 0..{count - 1}")
        expect(fails, bool(np.isin(flags, (0, 1)).all()), "capacity.csv: accepted not 0/1")
        expect(fails, np.array_equal(curve, np.cumsum(flags)),
               "capacity.csv: accepted_count is not the running count of accepted")
        accept = flags == 1
        accepted = np.flatnonzero(accept)

        # the greedy rule, replayed on the program's own earlier decisions
        closest = np.full(count, -np.inf)
        for j in accepted:
            later = slice(j + 1, count)
            logs = -log_cosh(samples[later] - samples[j]).sum(axis=1)
            closest[later] = np.maximum(closest[later], logs)
        wrong_accept = np.flatnonzero(accept & (closest >= log_eps + REL))
        wrong_reject = np.flatnonzero(~accept & (closest < log_eps - REL))
        expect(fails, wrong_accept.size == 0,
               f"capacity.csv: {wrong_accept.size} candidates accepted although an "
               f"earlier accepted code overlaps >= epsilon (first {wrong_accept[:1].tolist()})")
        expect(fails, wrong_reject.size == 0,
               f"capacity.csv: {wrong_reject.size} candidates rejected although every "
               f"earlier accepted code overlaps < epsilon (first {wrong_reject[:1].tolist()})")

        res = results(out)
        expect(fails, res.get("accepted_count") == accepted.size,
               "summary.json: accepted_count disagrees with capacity.csv")
        expect(fails, res.get("accepted_indices") == accepted.tolist(),
               "summary.json: accepted_indices disagree with capacity.csv")
        codes = res.get("accepted_codes")
        expect(fails, isinstance(codes, list) and len(codes) == accepted.size
               and np.array_equal(np.array(codes, dtype=float).reshape(-1, k),
                                  samples[accepted]),
               "summary.json: accepted_codes are not the sampled candidates")
        expect(fails, res.get("candidate_count") == count and res.get("seed") == seed
               and res.get("mode_count") == k and res.get("epsilon") == epsilon
               and res.get("theta_range") == [lo, hi],
               "summary.json: run parameters not echoed")
        compare(fails, "summary.json: expected_pair_log_overlap",
                number(res.get("expected_pair_log_overlap", "nan")), mean_log)
        compare(fails, "summary.json: expected_pair_overlap",
                number(res.get("expected_pair_overlap", "nan")), math.exp(mean_log))

    return check


# ---------------------------------------------------------------------------
# registry: print, recall, associate


def overlaps_to(thetas: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Same-time overlap of every code with `probe`: prod sech(theta - probe)."""
    return np.exp(-log_cosh(thetas - probe).sum(axis=1))


def fidelity_reference(thetas: np.ndarray) -> np.ndarray:
    return np.array([overlaps_to(thetas, row) for row in thetas])


def print_check(omega, gamma, ids, thetas):
    modes = [{"index": i, "omega": float(o), "gamma": float(g)}
             for i, (o, g) in enumerate(zip(omega, gamma))]
    entries = [{"id": e, "printed_at": 0.0, "thetas": [float(x) for x in row]}
               for e, row in zip(ids, thetas)]

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        doc = read_json(out / "registry.json")
        if not isinstance(doc, dict):
            raise CheckFailed("registry.json: not an object")
        expect(fails, doc.get("schema_version") == 1, "registry.json: schema_version is not 1")
        expect(fails, doc.get("modes") == modes, "registry.json: modes differ from the config")
        expect(fails, doc.get("entries") == entries,
               "registry.json: entries differ from the config")
        res = results(out)
        expect(fails, res.get("entry_count") == len(ids) and res.get("ids") == list(ids)
               and res.get("mode_count") == len(omega),
               "summary.json: entry_count, ids or mode_count wrong")

    return check


def recall_check(ids, thetas, probe, time):
    want = overlaps_to(thetas, np.asarray(probe, dtype=float))
    top = want.max()
    # any entry within REL of the best score may win the tie
    may_win = {ids[i] for i in np.flatnonzero(want >= top * (1.0 - REL))}

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        path = out / "recall.csv"
        header, rows = read_csv(path)
        got_ids = column(path, header, rows, "entry_id", str).tolist()
        expect(fails, got_ids == list(ids), "recall.csv: entries not in registry order")
        compare(fails, "recall.csv: score", column(path, header, rows, "score"), want)
        res = results(out)
        expect(fails, res.get("best_id") in may_win,
               f"summary.json: best_id {res.get('best_id')!r} is not the best match")
        compare(fails, "summary.json: best_score", number(res.get("best_score", "nan")), top)
        expect(fails, res.get("metric") == "overlap" and res.get("eval_time") == time
               and res.get("staggered") is False,
               "summary.json: metric, eval_time or staggered wrong")

    return check


def fidelity_check(ids, thetas, time):
    n = len(ids)

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        path = out / "fidelity.csv"
        header, rows = read_csv(path)
        expect(fails, header == ["entry_id"] + list(ids),
               "fidelity.csv: header is not entry_id plus the registry ids")
        expect(fails, [r[0] for r in rows] == list(ids),
               "fidelity.csv: rows not in registry order")
        try:
            values = np.array([[float(x) for x in r[1:]] for r in rows])
        except ValueError as exc:
            raise CheckFailed(f"fidelity.csv: unreadable value ({exc})") from exc
        if values.shape != (n, n):
            raise CheckFailed(f"fidelity.csv: shape {values.shape}, expected {(n, n)}")
        compare(fails, "fidelity.csv: values", values, fidelity_reference(thetas))
        expect(fails, np.array_equal(values, values.T), "fidelity.csv: not symmetric")
        expect(fails, bool((np.diag(values) == 1.0).all()), "fidelity.csv: diagonal is not 1")
        res = results(out)
        expect(fails, res.get("ids") == list(ids) and res.get("eval_time") == time
               and res.get("staggered") is False and res.get("metric") == "overlap",
               "summary.json: ids, eval_time, staggered or metric wrong")

    return check


def clusters_of(n: int, edges) -> list[list[int]]:
    """Connected components by union-find, ordered by first member."""
    parent = list(range(n))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        a, b = root(i), root(j)
        if a != b:
            parent[max(a, b)] = min(a, b)
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(root(i), []).append(i)
    return sorted(groups.values())


def graph_check(ids, thetas, time, threshold):
    index = {e: i for i, e in enumerate(ids)}
    n = len(ids)

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        fid = fidelity_reference(thetas)
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        must = upper & (fid >= threshold * (1.0 + REL))
        may = upper & (fid >= threshold * (1.0 - REL))
        path = out / "edges.csv"
        header, rows = read_csv(path)
        a = column(path, header, rows, "entry_a", str)
        b = column(path, header, rows, "entry_b", str)
        w = column(path, header, rows, "fidelity")
        try:
            pairs = [(index[x], index[y]) for x, y in zip(a, b)]
        except KeyError as exc:
            raise CheckFailed(f"edges.csv: unknown entry {exc}") from exc
        expect(fails, pairs == sorted(set(pairs)) and all(i < j for i, j in pairs),
               "edges.csv: edges not unique, upper-triangular and in row-major order")
        got = np.zeros((n, n), dtype=bool)
        for i, j in pairs:
            got[i, j] = True
        missing, extra = int((must & ~got).sum()), int((got & ~may).sum())
        expect(fails, missing == 0, f"edges.csv: {missing} edges at or above the threshold missing")
        expect(fails, extra == 0, f"edges.csv: {extra} edges below the threshold present")
        if pairs:
            rows_, cols_ = np.array(pairs).T
            compare(fails, "edges.csv: fidelity", w, fid[rows_, cols_])
        res = results(out)
        want_clusters = [[ids[i] for i in c] for c in clusters_of(n, pairs)]
        expect(fails, res.get("clusters") == want_clusters,
               "summary.json: clusters are not the connected components of the edges")
        expect(fails, res.get("edge_count") == len(pairs) and res.get("ids") == list(ids)
               and res.get("threshold") == threshold and res.get("eval_time") == time,
               "summary.json: edge_count, ids, threshold or eval_time wrong")

    return check


# ---------------------------------------------------------------------------
# trajectory: forgetting, evolve, thermo-trace


class Trajectory:
    """Closed-form trajectory Theta(t) = gamma t - theta of one sampled code."""

    def __init__(self, omega, gamma, lo, hi, code_seed, start, stop, num):
        self.omega = np.asarray(omega, dtype=float)
        self.gamma = np.asarray(gamma, dtype=float)
        self.theta = np.random.default_rng(code_seed).uniform(lo, hi, size=self.gamma.size)
        self.times = np.linspace(start, stop, num)
        self.big = self.path(self.times)
        # the size of the two terms of each Theta, for the difference tolerance
        self.big_scale = np.abs(self.times[:, None] * self.gamma) + self.theta
        self.occ = np.sinh(self.big) ** 2
        self.s = pair_entropy(self.big)
        self.rows = ("time", self.times)
        self.steps = ("t_left", self.times[:-1])

    def path(self, times):
        return times[:, None] * self.gamma[None, :] - self.theta[None, :]


def forgetting_check(tr: Trajectory):
    self_overlap = np.exp(-log_cosh(tr.times[:, None] * tr.gamma[None, :]).sum(axis=1))
    vacuum = np.exp(-log_cosh(tr.big).sum(axis=1))
    total = tr.occ.sum(axis=1)
    tau = float(np.max(tr.theta / tr.gamma))

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        path = out / "forgetting.csv"
        header, rows = read_csv(path)
        at = tr.rows
        for name, want in (("time", tr.times), ("self_overlap", self_overlap),
                           ("vacuum_overlap", vacuum), ("total_occupation", total)):
            compare(fails, f"forgetting.csv: {name}",
                    column(path, header, rows, name), want, at=at)
        res = results(out)
        compare(fails, "summary.json: tau", number(res.get("tau", "nan")), tau)
        compare(fails, "summary.json: final_self_overlap",
                number(res.get("final_self_overlap", "nan")), self_overlap[-1])
        expect(fails, res.get("time_points") == tr.times.size, "summary.json: time_points wrong")

    return check


def evolve_check(tr: Trajectory):
    k = tr.gamma.size
    entropy = tr.s.sum(axis=1)
    energy = tr.occ @ tr.omega

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        path = out / "evolve.csv"
        header, rows = read_csv(path)
        at = tr.rows
        compare(fails, "evolve.csv: time", column(path, header, rows, "time"), tr.times, at=at)
        for i in range(k):
            compare(fails, f"evolve.csv: theta_{i}", column(path, header, rows, f"theta_{i}"),
                    tr.big[:, i], scale=tr.big_scale[:, i], at=at)
            compare(fails, f"evolve.csv: occupation_{i}",
                    column(path, header, rows, f"occupation_{i}"), tr.occ[:, i], at=at)
        for name, want in (("total_occupation", tr.occ.sum(axis=1)),
                           ("entropy", entropy), ("energy", energy)):
            compare(fails, f"evolve.csv: {name}", column(path, header, rows, name), want, at=at)
        res = results(out)
        expect(fails, res.get("mode_count") == k and res.get("time_points") == tr.times.size,
               "summary.json: mode_count or time_points wrong")
        compare(fails, "summary.json: final_entropy",
                number(res.get("final_entropy", "nan")), entropy[-1])
        compare(fails, "summary.json: final_energy",
                number(res.get("final_energy", "nan")), energy[-1])

    return check


def thermo_check(tr: Trajectory):
    entropy = tr.s.sum(axis=1)
    energy = tr.occ @ tr.omega
    y = beta_energy(tr.big)
    finite = np.isfinite(y)
    fit = np.full(tr.times.size, math.inf)
    fit_residual = np.zeros(tr.times.size)
    for r in np.flatnonzero(finite.any(axis=1)):
        e, yr = tr.omega[finite[r]], y[r, finite[r]]
        fit[r] = (e * yr).sum() / (e * e).sum()
        fit_residual[r] = np.linalg.norm(yr - fit[r] * e)

    # first-law ledger, with the size of each difference's terms
    y_mid = beta_energy(tr.path(0.5 * (tr.times[:-1] + tr.times[1:])))
    weight = tr.omega[None, :] / y_mid
    delta_energy = np.diff(energy)
    energy_scale = energy[:-1] + energy[1:]
    heat = (np.diff(tr.s, axis=0) * weight).sum(axis=1)
    heat_scale = ((tr.s[:-1] + tr.s[1:]) * weight).sum(axis=1)
    residual = delta_energy - heat
    residual_scale = energy_scale + heat_scale
    damped = tr.gamma[None, :] > 0.0
    flagged = ((tr.big[:-1] * tr.big[1:] <= 0.0) & damped).any(axis=1)
    near_zero = np.abs(tr.big) <= REL * tr.big_scale
    ambiguous = ((near_zero[:-1] | near_zero[1:]) & damped).any(axis=1)
    worst = int(np.argmax(np.abs(residual)))

    @guarded
    def check(out: Path, fails: list[str]) -> None:
        path = out / "thermo.csv"
        header, rows = read_csv(path)
        at = tr.rows
        for name, want in (("time", tr.times), ("entropy", entropy), ("energy", energy),
                           ("beta_fit", fit), ("beta_fit_residual", fit_residual)):
            compare(fails, f"thermo.csv: {name}", column(path, header, rows, name), want, at=at)

        path = out / "first_law.csv"
        header, rows = read_csv(path)
        at = tr.steps
        compare(fails, "first_law.csv: t_left", column(path, header, rows, "t_left"),
                tr.times[:-1], at=at)
        compare(fails, "first_law.csv: t_right", column(path, header, rows, "t_right"),
                tr.times[1:], at=at)
        for name, want, scale in (("delta_energy", delta_energy, energy_scale),
                                  ("heat", heat, heat_scale),
                                  ("residual", residual, residual_scale)):
            compare(fails, f"first_law.csv: {name}", column(path, header, rows, name),
                    want, scale=scale, at=at)
        got_flags = column(path, header, rows, "flagged", int)
        wrong = np.flatnonzero((got_flags != flagged) & ~ambiguous)
        expect(fails, wrong.size == 0,
               f"first_law.csv: flagged wrong on {wrong.size} steps (first {wrong[:1].tolist()})")

        res = results(out)
        expect(fails, res.get("time_points") == tr.times.size, "summary.json: time_points wrong")
        expect(fails, res.get("flagged_intervals") == int(got_flags.sum()),
               "summary.json: flagged_intervals disagrees with first_law.csv")
        compare(fails, "summary.json: max_first_law_residual",
                number(res.get("max_first_law_residual", "nan")), abs(residual[worst]),
                scale=residual_scale[worst])
        compare(fails, "summary.json: final_entropy",
                number(res.get("final_entropy", "nan")), entropy[-1])
        compare(fails, "summary.json: final_energy",
                number(res.get("final_energy", "nan")), energy[-1])

    return check


# ---------------------------------------------------------------------------
# oracle-verify


def oracle_check(dim: int):
    @guarded
    def check(out: Path, fails: list[str]) -> None:
        path = out / "residuals.csv"
        header, rows = read_csv(path)
        names = column(path, header, rows, "check", str)
        details = column(path, header, rows, "detail", str)
        value = column(path, header, rows, "value")
        lo = column(path, header, rows, "lo")
        hi = column(path, header, rows, "hi")
        status = column(path, header, rows, "status", str)
        for i, name in enumerate(names):
            label = f"residuals.csv: {name}[{details[i]}]"
            expect(fails, status[i] == "pass", f"{label}: status {status[i]!r}")
            expect(fails, lo[i] <= value[i] <= hi[i],
                   f"{label}: value {value[i]!r} outside [{lo[i]!r}, {hi[i]!r}]")
            if name in ORACLE_TOLERANCES:
                expect(fails, (lo[i], hi[i]) == ORACLE_TOLERANCES[name],
                       f"{label}: tolerance [{lo[i]!r}, {hi[i]!r}] is not "
                       f"{list(ORACLE_TOLERANCES[name])}")
        absent = sorted(set(ORACLE_TOLERANCES) - set(names.tolist()))
        expect(fails, not absent, f"residuals.csv: check families missing: {absent}")
        res = results(out)
        expect(fails, res.get("dim") == dim and res.get("checks") == len(rows)
               and res.get("failed") == 0,
               "summary.json: dim, checks or failed count wrong")

    return check
