"""End-to-end command-line flows: artifacts, exit codes, determinism.

main() is called in-process so tmp_path isolation and coverage work; one
test shells out to the installed console script to prove the entry point
is wired.
"""

import csv
import hashlib
import io
import json
import math
import os
import pathlib
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

import dqmem
from dqmem import thermo
from dqmem.cli import main
from dqmem.states import Code, MemoryState, ModeParams, log_cosh, occupation, overlap


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run(args):
    return main([str(a) for a in args])


# `python(MAIN, *argv)` runs the command line in a fresh interpreter
MAIN = "import sys\nfrom dqmem.cli import main\nsys.exit(main(sys.argv[1:]))\n"


@pytest.fixture()
def registry_path(tmp_path):
    cfg = write_config(tmp_path, "print.json", {
        "kind": "print",
        "modes": {"omega": [1.0, 1.0], "gamma": [1.0, 0.5]},
        "entries": [
            {"id": "alpha", "thetas": [0.3, 0.5]},
            {"id": "beta", "thetas": [0.9, 0.1]},
            {"id": "gamma", "beta": 2.0},
        ],
    })
    out = tmp_path / "reg_out"
    assert run(["print", "--config", cfg, "--out", out, "--quiet"]) == 0
    return out / "registry.json"


# ---------------------------------------------------------------------------
# happy paths


def test_print_writes_registry_and_manifest(registry_path):
    out = registry_path.parent
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "registry.json", "summary.json"]
    reg = json.loads(registry_path.read_text())
    assert reg["schema_version"] == 1
    assert [e["id"] for e in reg["entries"]] == ["alpha", "beta", "gamma"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "print"
    assert set(manifest["versions"]) == {"python", "numpy", "numpy_simd", "dqmem"}
    assert manifest["versions"]["python"] == platform.python_version()
    assert manifest["wall_time_s"] >= 0.0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["entry_count"] == 3
    assert summary["config"]["kind"] == "print"


def test_print_extends_existing_registry(tmp_path, registry_path):
    cfg = write_config(tmp_path, "extend.json", {
        "kind": "print",
        "registry": str(registry_path),
        "entries": [{"id": "delta", "thetas": [0.6, 0.7], "printed_at": 1.0}],
    })
    out = tmp_path / "extended"
    assert run(["print", "--config", cfg, "--out", out, "--quiet"]) == 0
    reg = json.loads((out / "registry.json").read_text())
    assert [e["id"] for e in reg["entries"]] == ["alpha", "beta", "gamma", "delta"]


def test_recall_scores_every_entry(tmp_path, registry_path):
    cfg = write_config(tmp_path, "recall.json", {
        "kind": "recall",
        "registry": str(registry_path),
        "probe": {"entry": "alpha"},
        "time": 0.7,
    })
    out = tmp_path / "recall_out"
    assert run(["recall", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(out / "recall.csv")
    assert rows[0] == ["entry_id", "score"]
    assert [r[0] for r in rows[1:]] == ["alpha", "beta", "gamma"]
    assert float(rows[1][1]) == 1.0  # probe is alpha itself
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["best_id"] == "alpha"
    assert summary["results"]["metric"] == "overlap"


def test_evolve_tabulates_observables(tmp_path):
    cfg = write_config(tmp_path, "evolve.json", {
        "kind": "evolve",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [0.8]},
        "times": {"start": 0.0, "stop": 0.8, "num": 5},
    })
    out = tmp_path / "evolve_out"
    assert run(["evolve", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(out / "evolve.csv")
    assert rows[0] == ["time", "theta_0", "occupation_0",
                       "total_occupation", "entropy", "energy"]
    # last grid point is the forgetting time: everything drains to zero
    last = rows[-1]
    assert float(last[1]) == pytest.approx(0.0, abs=1e-15)
    assert float(last[3]) == pytest.approx(0.0, abs=1e-15)
    first = rows[1]
    assert float(first[2]) == pytest.approx(math.sinh(0.8) ** 2, rel=1e-12)


def test_evolve_entropy_finite_where_occupation_overflows(tmp_path):
    cfg = write_config(tmp_path, "evolve.json", {
        "kind": "evolve",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [800.0]},
        "times": {"start": 0.0, "stop": 1.0, "num": 3},
    })
    out = tmp_path / "evolve_out"
    assert run(["evolve", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(out / "evolve.csv")
    entropy = [float(r[4]) for r in rows[1:]]
    # s = 2|Theta| + 1 - 2 ln 2 at Theta = -800, -799.5, -799
    assert entropy == pytest.approx(
        [2.0 * a + 1.0 - 2.0 * math.log(2.0) for a in (800.0, 799.5, 799.0)],
        rel=1e-15)


def test_print_at_a_beta_whose_energy_underflows_is_one_domain_error(tmp_path):
    # beta omega underflows to 0: the Bose factor, and with it theta, is inf,
    # which no code takes
    cfg = write_config(tmp_path, "tiny.json", {
        "kind": "print",
        "modes": {"omega": [0.1], "gamma": [1.0]},
        "entries": [{"id": "a", "beta": 5e-324}],
    })
    proc = python(MAIN, "print", "--config", cfg, "--out", tmp_path / "o", "--quiet")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: domain:") and proc.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("first", ["domain", "duplicate"])
def test_print_reports_its_first_bad_entry(tmp_path, capsys, first):
    # each entry is realized and then checked before the next is read
    bad = {"domain": {"id": "b", "beta": 5e-324}, "duplicate": {"id": "a", "thetas": [0.5]}}
    later = "duplicate" if first == "domain" else "domain"
    cfg = write_config(tmp_path, "print.json", {
        "kind": "print",
        "modes": {"omega": [0.1], "gamma": [1.0]},
        "entries": [{"id": "a", "thetas": [0.3]}, bad[first], bad[later]],
    })
    assert run(["print", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == 1
    message = {"domain": "code thetas must be finite", "duplicate": "duplicate entry id 'a'"}
    assert capsys.readouterr().err.startswith("error: domain: " + message[first])


def test_print_copies_the_registry_once(tmp_path, registry_path, monkeypatch):
    # one new registry for all of a print's entries, with the bytes of
    # print_memory applied entry by entry
    from dqmem import capacity

    extended = []
    original = capacity.Registry._extended

    def counted(self, entries):
        extended.append(1)
        return original(self, entries)

    monkeypatch.setattr(capacity.Registry, "_extended", counted)
    entries = [{"id": f"e{i}", "thetas": [0.1 * i, 0.05 * i], "printed_at": 0.5 * i}
               for i in range(40)]
    cfg = write_config(tmp_path, "extend.json", {
        "kind": "print", "registry": str(registry_path), "entries": entries})
    assert run(["print", "--config", cfg, "--out", tmp_path / "o", "--quiet"]) == 0
    assert extended == [1]
    monkeypatch.setattr(capacity.Registry, "_extended", original)
    registry = capacity.load_registry(registry_path)
    for e in entries:
        registry = capacity.print_memory(registry, e["id"], Code(tuple(e["thetas"])),
                                         printed_at=e["printed_at"])
    assert (tmp_path / "o" / "registry.json").read_text() == capacity.registry_to_json(registry)


@pytest.mark.parametrize("command", ["evolve", "forgetting", "thermo-trace"])
def test_theta_800_code_is_inf_or_one_domain_error(tmp_path, command):
    # sinh^2 800 leaves the float range: evolve and forgetting write inf
    # without a warning, and thermo-trace, whose first law needs a finite
    # energy, refuses the grid
    kind = {"forgetting": "forgetting-curve"}.get(command, command)
    cfg = write_config(tmp_path, "big.json", {
        "kind": kind,
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [800.0]},
        "times": {"start": 0.0, "stop": 1.0, "num": 3},
    })
    out = tmp_path / "o"
    proc = python(MAIN, command, "--config", cfg, "--out", out, "--quiet")
    if command == "thermo-trace":
        assert (proc.returncode, proc.stderr) == (
            1, "error: domain: energy at time 0.0 is not finite (inf)\n")
        assert not out.exists()
        return
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = read_csv(out / f"{command}.csv")
    column = rows[0].index("total_occupation")
    assert [r[column] for r in rows[1:]] == ["inf"] * 3


@pytest.mark.parametrize("command", ["evolve", "forgetting"])
def test_occupation_sum_past_the_float_range_is_inf(tmp_path, command):
    # four finite occupations sinh^2 355.5 ~ 1.5e308 sum past the float range
    kind = {"forgetting": "forgetting-curve"}.get(command, command)
    cfg = write_config(tmp_path, "big.json", {
        "kind": kind,
        "modes": {"omega": [1.0] * 4, "gamma": [1.0] * 4},
        "code": {"thetas": [355.5] * 4},
        "times": {"start": 0.0, "stop": 1.0, "num": 2},
    })
    proc = python(MAIN, command, "--config", cfg, "--out", tmp_path / "o", "--quiet")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = read_csv(tmp_path / "o" / f"{command}.csv")
    column = rows[0].index("total_occupation")
    assert rows[1][column] == "inf"
    assert math.isfinite(float(rows[2][column]))


def test_manifest_records_import_time_and_missing_scipy(tmp_path):
    # no run loads scipy, the oracle's included, so the manifest names no
    # scipy version; each run gets a fresh interpreter for its import time
    cfg = write_config(tmp_path, "forget.json", VALID_CONFIGS["forgetting-curve"][1])
    for args in (["forgetting", "--config", cfg], ["oracle-verify"]):
        out = tmp_path / args[0]
        proc = python(MAIN, *args, "--out", out, "--quiet")
        assert (proc.returncode, proc.stderr) == (0, ""), args[0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["versions"]) == {"python", "numpy", "numpy_simd", "dqmem"}
        assert 0.0 < manifest["import_s"] < 60.0


def test_forgetting_marks_tau(tmp_path):
    cfg = write_config(tmp_path, "forget.json", {
        "kind": "forgetting-curve",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [0.8]},
        "times": {"start": 0.0, "stop": 1.6, "num": 17},
    })
    out = tmp_path / "forget_out"
    assert run(["forgetting", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(out / "forgetting.csv")
    assert rows[0] == ["time", "self_overlap", "vacuum_overlap",
                       "total_occupation"]
    vac = [float(r[2]) for r in rows[1:]]
    times = [float(r[1 - 1]) for r in rows[1:]]
    assert times[vac.index(max(vac))] == pytest.approx(0.8)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["tau"] == pytest.approx(0.8)


@pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1, 2 ** 64, 2 ** 70, -1, 1.5])
def test_seed_flag_and_key_take_the_same_values(tmp_path, seed, capsys):
    # the `seed` key is the only way to give a seed (there is no --seed flag,
    # see test_each_subcommand_takes_only_the_options_it_reads): an integer
    # in [0, 2**64), which the summary echoes
    cfg = write_config(tmp_path, "key.json", {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "theta_range": [0.0, 1.5],
        "epsilon": 0.05,
        "candidates": 5,
        "seed": seed,
    })
    code = run(["capacity", "--config", cfg, "--out", tmp_path / "key", "--quiet"])
    err = capsys.readouterr().err
    if isinstance(seed, int) and 0 <= seed < 2 ** 64:
        assert (code, err) == (0, "")
        summary = json.loads((tmp_path / "key" / "summary.json").read_text())
        assert summary["config"]["seed"] == summary["results"]["seed"] == seed
    else:
        assert code == 1
        assert err.startswith("error: config: ") and err.count("\n") == 1
        assert not (tmp_path / "key").exists()


def test_associate_graph_and_matrix(tmp_path, registry_path):
    graph_cfg = write_config(tmp_path, "graph.json", {
        "kind": "association-graph",
        "registry": str(registry_path),
        "time": 0.0,
        "threshold": 0.5,
    })
    out_g = tmp_path / "graph_out"
    assert run(["associate", "--config", graph_cfg, "--out", out_g,
                "--quiet"]) == 0
    rows = read_csv(out_g / "edges.csv")
    assert rows[0] == ["entry_a", "entry_b", "fidelity"]
    summary = json.loads((out_g / "summary.json").read_text())
    assert summary["kind"] == "association-graph"
    assert summary["results"]["edge_count"] == len(rows) - 1

    matrix_cfg = write_config(tmp_path, "matrix.json", {
        "kind": "fidelity-matrix",
        "registry": str(registry_path),
        "time": 0.0,
    })
    out_m = tmp_path / "matrix_out"
    assert run(["associate", "--config", matrix_cfg, "--out", out_m,
                "--quiet"]) == 0
    rows = read_csv(out_m / "fidelity.csv")
    assert rows[0] == ["entry_id", "alpha", "beta", "gamma"]
    assert float(rows[1][1]) == 1.0


def csv_module_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else c for c in row])
    return buf.getvalue().encode("utf-8")


def test_fidelity_csv_is_the_csv_module_rendering(tmp_path):
    # ids that need quoting, written the way csv.writer writes every cell, in
    # fidelity.csv, recall.csv and edges.csv
    ids = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", " pad"]
    cfg = write_config(tmp_path, "print.json", {
        "kind": "print",
        "modes": {"omega": [1.0, 2.0], "gamma": [1.0, 0.5]},
        "entries": [{"id": e, "thetas": [0.2 * i, 1.0 - 0.15 * i]}
                    for i, e in enumerate(ids)],
    })
    assert run(["print", "--config", cfg, "--out", tmp_path / "reg", "--quiet"]) == 0
    registry = str(tmp_path / "reg" / "registry.json")
    modes = (ModeParams(0, 1.0, 1.0), ModeParams(1, 2.0, 0.5))

    def overlaps(t):
        states = [MemoryState(modes, Code((0.2 * i, 1.0 - 0.15 * i)), t)
                  for i in range(len(ids))]
        return [[overlap(a, b) for b in states] for a in states]

    # the same-time matrix comes from the codes, as at t = 0; recall evolves
    fid, scores = overlaps(0.0), overlaps(0.3)[2]
    edges = [[ids[i], ids[j], fid[i][j]] for i in range(len(ids))
             for j in range(i + 1, len(ids)) if fid[i][j] >= 0.9]
    assert {e for edge in edges for e in edge[:2]} == set(ids)
    for command, doc, name, header, rows in (
            ("associate", {"kind": "fidelity-matrix"}, "fidelity.csv",
             ["entry_id", *ids], [[e, *row] for e, row in zip(ids, fid)]),
            ("recall", {"kind": "recall", "probe": {"entry": ids[2]}}, "recall.csv",
             ["entry_id", "score"], [[e, f] for e, f in zip(ids, scores)]),
            ("associate", {"kind": "association-graph", "threshold": 0.9}, "edges.csv",
             ["entry_a", "entry_b", "fidelity"], edges)):
        doc = dict(doc, registry=registry, time=0.3)
        out = tmp_path / name
        assert run([command, "--config", write_config(tmp_path, "c.json", doc),
                    "--out", out, "--quiet"]) == 0
        assert (out / name).read_bytes() == csv_module_text(header, rows), name


def full_matrix_graph(fm, threshold):
    """Edges and clusters by thresholding every upper-triangle entry of the
    full matrix, clusters by label propagation in registry order."""
    n = len(fm.ids)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if fm.values[i, j] >= threshold]
    label = list(range(n))
    for _ in range(n):
        for i, j in pairs:
            label[i] = label[j] = min(label[i], label[j])
    clusters = {}
    for i, entry_id in enumerate(fm.ids):
        clusters.setdefault(label[i], []).append(entry_id)
    edges = [(fm.ids[i], fm.ids[j], float(fm.values[i, j])) for i, j in pairs]
    return edges, list(clusters.values())


@pytest.mark.parametrize("staggered", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7])
def test_registry_artifacts_are_the_full_matrix_bytes(tmp_path, monkeypatch, staggered, n):
    # fidelity.csv is streamed from the upper triangle and edges.csv
    # thresholds the log-overlaps: both must match the full matrix, at
    # thresholds within an ulp of an overlap and at an overlap of exactly 1;
    # also in blocks of 3 pairs, where the 7 entries span one-row blocks and
    # a two-row one, with fidelity.csv's cursors splitting 2 cells at a time
    from dqmem import capacity, cli
    from dqmem.capacity import fidelity_matrix, load_registry
    from dqmem.cli import _csv_lines

    ids = ["plain", "a,b", 'say "hi"', "cr\r\nlf", "twin", "twin,copy", "last\n"][:n]
    codes = [[0.3, 0.5, 0.1], [0.5, 0.4, 0.3], [1.2, 0.2, 0.6], [0.4, 0.6, 0.2],
             [0.8, 0.8, 0.8], [0.8, 0.8, 0.8], [2.0, 1.9, 0.1]]
    printed = [0.0, 0.4, 1.1, 0.25, 0.9, 0.9, 2.0] if staggered else [0.0] * 7
    cfg = write_config(tmp_path, "print.json", {
        "kind": "print",
        "modes": {"omega": [1.0, 2.0, 0.5], "gamma": [1.0, 0.35, 0.0]},
        "entries": [{"id": e, "thetas": c, "printed_at": p}
                    for e, c, p in zip(ids, codes, printed)],
    })
    assert run(["print", "--config", cfg, "--out", tmp_path / "reg", "--quiet"]) == 0
    registry = str(tmp_path / "reg" / "registry.json")
    t = 2.5
    fm = fidelity_matrix(load_registry(registry), t)
    assert fm.staggered is (staggered and n > 1)
    doc = {"registry": registry, "time": t}

    full_rows = ([e, *row.tolist()] for e, row in zip(fm.ids, fm.values))
    matrix_bytes = "".join(_csv_lines(["entry_id", *fm.ids], full_rows)).encode("utf-8")
    thresholds = [0.5]
    if n > 1:
        near = fm.values[0, 1]
        thresholds += [near, math.nextafter(near, 0.0), math.nextafter(near, 1.0),
                       math.nextafter(math.nextafter(near, 1.0), 1.0)]
    if n == 7:
        assert fm.values[4, 5] == 1.0
        thresholds.append(math.nextafter(1.0, 0.0))
    for chunk, split in ((capacity._PAIR_CHUNK, cli._SPLIT), (3, 2)):
        monkeypatch.setattr(capacity, "_PAIR_CHUNK", chunk)
        monkeypatch.setattr(cli, "_SPLIT", split)
        out = tmp_path / f"matrix-{chunk}"
        assert run(["associate", "--config", write_config(
            tmp_path, "m.json", dict(doc, kind="fidelity-matrix")), "--out", out,
            "--quiet"]) == 0
        assert (out / "fidelity.csv").read_bytes() == matrix_bytes
        assert json.loads((out / "summary.json").read_text())["results"]["staggered"] \
            is fm.staggered
        for threshold in thresholds:
            out = tmp_path / f"graph-{chunk}-{threshold!r}"
            assert run(["associate", "--config", write_config(
                tmp_path, "g.json", dict(doc, kind="association-graph", threshold=threshold)),
                "--out", out, "--quiet"]) == 0
            edges, clusters = full_matrix_graph(fm, threshold)
            assert (out / "edges.csv").read_bytes() == "".join(_csv_lines(
                ["entry_a", "entry_b", "fidelity"], edges)).encode("utf-8")
            summary = json.loads((out / "summary.json").read_text())
            assert summary["results"]["clusters"] == clusters
            assert summary["results"]["edge_count"] == len(edges)
    if n > 1:  # the pair at the threshold is an edge, one ulp above it is not
        assert full_matrix_graph(fm, near)[0][:1] == [(ids[0], ids[1], near)]
        assert (ids[0], ids[1], near) not in full_matrix_graph(
            fm, math.nextafter(near, 1.0))[0]


# ids that csv quotes: commas, quotes, CR and LF
QUOTED_IDS = ("plain{}", "a,b{}", 'say "hi" {}', "cr\r\nlf{}", "{},", '"{}"', "last\n{}")


@given(n=st.integers(1, 40), k=st.integers(1, 6), chunk=st.sampled_from([1, 2, 3, 7, 1024]),
       split=st.sampled_from([1, 2, 16]), staggered=st.booleans(), twins=st.booleans(),
       seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
@example(n=40, k=2, chunk=1, split=1, staggered=False, twins=True, seed=1, pick=0)
@example(n=40, k=3, chunk=7, split=2, staggered=True, twins=False, seed=2, pick=5)
@example(n=40, k=6, chunk=1024, split=16, staggered=False, twins=True, seed=3, pick=9)
@example(n=1, k=1, chunk=3, split=2, staggered=True, twins=False, seed=4, pick=0)
def test_rectangle_reads_write_the_full_matrix_bytes(n, k, chunk, split, staggered, twins,
                                                     seed, pick):
    # fidelity.csv and edges.csv from K-major rectangles of every width, the
    # last rows and a last rectangle cut at row n - 1 included, against the
    # full matrix: fidelity.csv byte for byte, and the edges and clusters at
    # a pair's overlap and one ulp either side of it
    import tempfile

    from dqmem import capacity, cli
    from dqmem.capacity import (
        fidelity_matrix, load_registry, new_registry, print_memory, save_registry)

    rng = np.random.default_rng(seed)
    modes = [ModeParams(i, 1.0, g) for i, g in enumerate(rng.uniform(0.0, 1.5, k))]
    codes = rng.uniform(0.0, 1.2, (n, k))
    if twins:  # a few codes repeat: overlaps of exactly 1
        codes[1::3] = codes[0]
    printed = rng.uniform(0.0, 2.0, n) if staggered else np.zeros(n)
    registry = new_registry(modes)
    for i in range(n):
        registry = print_memory(registry, QUOTED_IDS[i % 7].format(i),
                                Code(tuple(codes[i].tolist())), printed_at=printed[i])
    t = 2.5
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        save_registry(registry, tmp / "registry.json")
        fm = fidelity_matrix(load_registry(tmp / "registry.json"), t)
        gammas = np.array([m.gamma for m in modes])
        # the printing frame: gaps (theta_j - theta_i) + gamma (p_j - p_i)
        assert fm.values.tolist() == [[math.exp(-math.fsum(log_cosh(
            (codes[j] - codes[i]) + gammas * (printed[j] - printed[i]))))
            for j in range(n)] for i in range(n)]
        upper = sorted(set(fm.values[np.triu_indices(n, 1)].tolist()) - {0.0, 1.0})
        near = upper[pick % len(upper)] if upper else 0.5
        thresholds = {0.5, near, math.nextafter(near, 0.0), math.nextafter(near, 1.0)}
        doc = {"registry": str(tmp / "registry.json"), "time": t}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(capacity, "_PAIR_CHUNK", chunk)
            mp.setattr(cli, "_SPLIT", split)
            for a, gap in capacity._pair_rects(capacity._pair_frame(registry, t)):
                rows, cols = gap.shape[1:]
                event(f"rows {'1' if rows == 1 else '> 1'}")
                if a + rows == n - 1 and sum(range(cols - rows + 1, cols + 1)) < chunk:
                    event("cut at row n - 1")
            assert run(["associate", "--config", write_config(
                tmp, "m.json", dict(doc, kind="fidelity-matrix")), "--out", tmp / "m",
                "--quiet"]) == 0
            assert (tmp / "m" / "fidelity.csv").read_bytes() == "".join(cli._csv_lines(
                ["entry_id", *fm.ids], ([e, *row] for e, row in zip(fm.ids, fm.values.tolist())))
            ).encode("utf-8")
            for threshold in thresholds:
                out = tmp / f"g{threshold!r}"
                assert run(["associate", "--config", write_config(
                    tmp, "g.json", dict(doc, kind="association-graph", threshold=threshold)),
                    "--out", out, "--quiet"]) == 0
                edges, clusters = full_matrix_graph(fm, threshold)
                assert (out / "edges.csv").read_bytes() == "".join(cli._csv_lines(
                    ["entry_a", "entry_b", "fidelity"], edges)).encode("utf-8")
                assert json.loads((out / "summary.json").read_text())["results"]["clusters"] \
                    == clusters


@given(n=st.integers(1, 8), k=st.integers(1, 4), staggered=st.booleans(),
       seed=st.integers(0, 2**32 - 1), t1=st.floats(0.0, 1e16), t2=st.floats(0.0, 1e16))
@settings(max_examples=50, deadline=None)
@example(n=2, k=1, staggered=False, seed=1, t1=0.0, t2=1e16)
@example(n=5, k=3, staggered=True, seed=2, t1=0.0, t2=1e16)
def test_pair_reads_do_not_depend_on_the_evaluation_time(n, k, staggered, seed, t1, t2):
    # every pairwise read forms its gaps in the printing frame, where t
    # cancels: recall.csv, fidelity.csv and edges.csv keep their bytes at
    # any two evaluation times after the last printing, whether the entries
    # share one printing time or not
    import tempfile

    from dqmem.capacity import new_registry, print_memory, save_registry

    rng = np.random.default_rng(seed)
    gammas = rng.choice([0.0, 0.35, 1.0, 1.7, 1e300], k)
    registry = new_registry([ModeParams(i, 1.0, g) for i, g in enumerate(gammas.tolist())])
    printed = rng.uniform(0.0, 2.0, n) if staggered else np.full(n, rng.uniform(0.0, 2.0))
    for i in range(n):
        registry = print_memory(registry, f"m{i}", Code(rng.uniform(0.0, 1.2, k).tolist()),
                                printed_at=printed[i])
    probe = rng.uniform(0.0, 1.2, k).tolist()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        save_registry(registry, tmp / "registry.json")
        for command, name, doc in (
                ("recall", "recall.csv", {"kind": "recall", "probe": {"thetas": probe}}),
                ("associate", "fidelity.csv", {"kind": "fidelity-matrix"}),
                ("associate", "edges.csv", {"kind": "association-graph", "threshold": 0.5})):
            texts = set()
            for t in (t1, t2):
                doc = dict(doc, registry=str(tmp / "registry.json"),
                           time=float(printed.max()) + t)
                assert run([command, "--config", write_config(tmp, "c.json", doc),
                            "--out", tmp / "out", "--quiet"]) == 0
                texts.add((tmp / "out" / name).read_bytes())
            assert len(texts) == 1, name


def test_associate_manifest_counts_the_pair_work(tmp_path):
    # pairs n(n - 1)/2; the rows the exact sum reads (every pair for the
    # matrix, at least every edge for the graph) and the rows it re-sums
    # with fsum (a pair of equal codes sums to 0, whose sign fsum decides);
    # the counts repeat exactly from run to run
    rng = np.random.default_rng(8)
    codes = rng.uniform(0.0, 1.5, (30, 4))
    codes[7] = codes[3]
    cfg = write_config(tmp_path, "print.json", {
        "kind": "print", "modes": {"omega": [1.0] * 4, "gamma": [0.5] * 4},
        "entries": [{"id": f"m{i}", "thetas": c} for i, c in enumerate(codes.tolist())]})
    assert run(["print", "--config", cfg, "--out", tmp_path / "reg", "--quiet"]) == 0
    doc = {"registry": str(tmp_path / "reg" / "registry.json"), "time": 0.5}
    for kind, extra in (("fidelity-matrix", {}), ("association-graph", {"threshold": 0.3})):
        config = write_config(tmp_path, "c.json", dict(doc, kind=kind, **extra))
        work = []
        for rerun in range(2):
            out = tmp_path / f"{kind}-{rerun}"
            assert run(["associate", "--config", config, "--out", out, "--quiet"]) == 0
            work.append(json.loads((out / "manifest.json").read_text())["work"])
        assert work[0] == work[1]
        assert set(work[0]) == {"pairs", "exact_rows", "fsum_rows"}
        assert work[0]["pairs"] == 30 * 29 // 2
        if kind == "fidelity-matrix":
            assert work[0]["exact_rows"] == work[0]["pairs"]
        else:
            edges = json.loads((out / "summary.json").read_text())["results"]["edge_count"]
            assert 0 < edges <= work[0]["exact_rows"] < work[0]["pairs"]
        assert 1 <= work[0]["fsum_rows"] <= work[0]["exact_rows"]


def test_thermo_trace_artifacts(tmp_path):
    cfg = write_config(tmp_path, "thermo.json", {
        "kind": "thermo-trace",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [0.8]},
        "times": {"start": 0.05, "stop": 0.75, "num": 29},
    })
    out = tmp_path / "thermo_out"
    assert run(["thermo-trace", "--config", cfg, "--out", out, "--quiet"]) == 0
    head = read_csv(out / "thermo.csv")[0]
    assert head == ["time", "entropy", "energy", "beta_fit", "beta_fit_residual"]
    led = read_csv(out / "first_law.csv")
    assert led[0] == ["t_left", "t_right", "delta_energy", "heat",
                      "residual", "flagged"]
    resid = [abs(float(r[4])) for r in led[1:] if r[5] == "0"]
    assert max(resid) < 1e-4


def test_oracle_verify_passes(tmp_path):
    out = tmp_path / "verify_out"
    assert run(["oracle-verify", "--out", out, "--quiet"]) == 0
    rows = read_csv(out / "residuals.csv")
    assert rows[0] == ["check", "detail", "value", "lo", "hi", "status"]
    assert all(r[5] == "pass" for r in rows[1:])
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["failed"] == 0
    assert summary["results"]["checks"] == len(rows) - 1


def test_oracle_manifest_counts_the_taylor_work(tmp_path):
    # every term is one matvec; the counts repeat exactly, and past every
    # guard dim they do not depend on --dim
    work = []
    for dim in (128, 128, 256):
        out = tmp_path / str(len(work))
        assert run(["oracle-verify", "--dim", dim, "--out", out, "--quiet"]) == 0
        work.append(json.loads((out / "manifest.json").read_text())["work"])
    assert work[0] == work[1] == work[2]
    assert set(work[0]) == {"taylor_stages", "taylor_terms"}
    # a stage count of ceil(||A||_1 / 4) took 3 060 terms here (3 258
    # matvecs with the 1-norms and the observables)
    assert 0 < work[0]["taylor_stages"] < work[0]["taylor_terms"] < 3060


# ---------------------------------------------------------------------------
# array routes against the per-state references, bit for bit


def test_thermo_trace_rows_match_snapshots(tmp_path):
    # at t = 0.5 modes 0 and 1 sit at exactly Theta = 0 and leave the beta fit
    omega, gamma, thetas = [1.0, 2.0, 0.7], [1.0, 0.5, 1.0], [0.5, 0.25, 1.2]
    cfg = write_config(tmp_path, "thermo.json", {
        "kind": "thermo-trace",
        "modes": {"omega": omega, "gamma": gamma},
        "code": {"thetas": thetas},
        "times": {"start": 0.0, "stop": 2.0, "num": 9},
    })
    out = tmp_path / "thermo_out"
    assert run(["thermo-trace", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(out / "thermo.csv")[1:]
    modes = tuple(ModeParams(i, w, g) for i, (w, g) in enumerate(zip(omega, gamma)))
    snaps = [thermo.thermo_snapshot(MemoryState(modes, Code(tuple(thetas)), float(r[0])))
             for r in rows]
    assert snaps[2].time == 0.5 and snaps[2].beta_per_mode[:2] == (math.inf,) * 2
    assert rows == [[repr(x) for x in (s.time, s.entropy, s.energy, s.beta_fit,
                                       s.beta_fit_residual)] for s in snaps]


def test_evolve_occupations_are_the_state_occupations(tmp_path):
    # one occupation kernel: every cell is `occupation` of the state at its
    # time, bit for bit, on modes that empty and refill at different times
    omega = [0.5 + 0.1 * i for i in range(16)]
    gamma = [0.5 + 0.0625 * i for i in range(16)]
    thetas = [0.5 + 0.15625 * ((5 * i) % 16) for i in range(16)]
    cfg = write_config(tmp_path, "evolve.json", {
        "kind": "evolve",
        "modes": {"omega": omega, "gamma": gamma},
        "code": {"thetas": thetas},
        "times": {"start": 0.0, "stop": 20.0, "num": 400},
    })
    out = tmp_path / "evolve_out"
    assert run(["evolve", "--config", cfg, "--out", out, "--quiet"]) == 0
    rows = read_csv(out / "evolve.csv")
    assert rows[0][17:33] == [f"occupation_{i}" for i in range(16)]
    modes = tuple(ModeParams(i, w, g) for i, (w, g) in enumerate(zip(omega, gamma)))
    for r in rows[1:]:
        state = MemoryState(modes, Code(thetas), float(r[0]))
        assert r[17:33] == [repr(occupation(state, i)) for i in range(16)], r[0]


def test_first_law_delta_energy_is_the_thermo_energy_difference(tmp_path):
    # one energy sum: each ledger step is the difference of thermo.csv's
    # energies at its two ends, bit for bit
    cfg = write_config(tmp_path, "thermo.json", {
        "kind": "thermo-trace",
        "modes": {"omega": [0.7, 1.3, 1.9, 0.55, 1.1, 1.6],
                  "gamma": [0.5, 1.4, 0.8, 1.1, 0.0, 0.6]},
        "code": {"thetas": [2.9, 0.6, 1.7, 2.2, 1.05, 2.5]},
        "times": {"start": 0.0, "stop": 12.0, "num": 400},
    })
    out = tmp_path / "thermo_out"
    assert run(["thermo-trace", "--config", cfg, "--out", out, "--quiet"]) == 0
    energy = [float(r[2]) for r in read_csv(out / "thermo.csv")[1:]]
    ledger = read_csv(out / "first_law.csv")[1:]
    assert len(ledger) == len(energy) - 1
    assert [r[2] for r in ledger] == [repr(b - a) for a, b in zip(energy, energy[1:])]


@pytest.mark.parametrize("staggered", [False, True])
def test_recall_scores_match_state_overlap(tmp_path, staggered):
    omega, gamma = [1.0, 1.5, 0.5], [1.0, 0.3, 0.0]
    entries = [([0.3, 0.5, 0.9], 0.0), ([1.1, 0.2, 0.4], 0.7),
               ([0.6, 0.6, 0.1], 1.3), ([0.0, 1.4, 0.8], 0.2)]
    if not staggered:  # one shared printing time
        entries = [(th, 0.7) for th, _ in entries]
    printed = write_config(tmp_path, "print.json", {
        "kind": "print",
        "modes": {"omega": omega, "gamma": gamma},
        "entries": [{"id": f"e{i}", "thetas": th, "printed_at": at}
                    for i, (th, at) in enumerate(entries)],
    })
    assert run(["print", "--config", printed, "--out", tmp_path / "reg",
                "--quiet"]) == 0
    probe, t = [0.5, 0.45, 0.7], 1.9
    cfg = write_config(tmp_path, "recall.json", {
        "kind": "recall", "registry": str(tmp_path / "reg" / "registry.json"),
        "probe": {"thetas": probe}, "time": t,
    })
    out = tmp_path / "recall_out"
    assert run(["recall", "--config", cfg, "--out", out, "--quiet"]) == 0
    if staggered:  # the printing frame, the probe printed at the earliest time, 0
        want = [math.exp(-math.fsum(log_cosh(
            (np.array(th) - probe) + np.array(gamma) * at))) for th, at in entries]
    else:  # states of one age read their code gaps
        modes = tuple(ModeParams(i, w, g) for i, (w, g) in enumerate(zip(omega, gamma)))
        probe_state = MemoryState(modes, Code(tuple(probe)), t)
        want = [overlap(probe_state, MemoryState(modes, Code(tuple(th)), t))
                for th, _ in entries]
    assert read_csv(out / "recall.csv")[1:] == [
        [f"e{i}", repr(w)] for i, w in enumerate(want)]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["best_score"] == max(want)
    assert summary["results"]["staggered"] is staggered


@pytest.mark.parametrize("printed, shift", [([0.0] * 4, 0.7),
                                            ([0.0, 0.5, 1.25, 0.25], 2.0)])
def test_reads_keep_their_bytes_when_every_printing_moves_alike(tmp_path, printed, shift):
    # reads take printing-time differences, and recall reads its probe as
    # printed at the earliest printing: the same codes printed at p and at
    # p + shift (each difference exact) write the same recall.csv,
    # fidelity.csv and edges.csv, read at a t after every printing
    codes = [[0.3, 0.5], [0.9, 0.1], [0.35, 0.45], [0.6, 0.6]]
    texts = {}
    for moved in (0.0, shift):
        reg = tmp_path / f"reg{moved}"
        assert run(["print", "--config", write_config(tmp_path, "print.json", {
            "kind": "print", "modes": {"omega": [1.0, 2.0], "gamma": [1.0, 0.35]},
            "entries": [{"id": f"e{i}", "thetas": th, "printed_at": at + moved}
                        for i, (th, at) in enumerate(zip(codes, printed))],
        }), "--out", reg, "--quiet"]) == 0
        for kind, name in (("recall", "recall.csv"), ("fidelity-matrix", "fidelity.csv"),
                           ("association-graph", "edges.csv")):
            command, doc, _ = VALID_CONFIGS[kind]
            out = tmp_path / f"{kind}{moved}"
            assert run([command, "--config", write_config(tmp_path, "c.json", dict(
                doc, registry=str(reg / "registry.json"), time=3.5)),
                "--out", out, "--quiet"]) == 0
            texts.setdefault(name, set()).add((out / name).read_bytes())
    assert {name: len(t) for name, t in texts.items()} == {
        "recall.csv": 1, "fidelity.csv": 1, "edges.csv": 1}
    assert len(read_csv(tmp_path / "association-graph0.0" / "edges.csv")) > 1


def test_evolve_total_occupation_matches_forgetting(tmp_path):
    # both columns are the correctly rounded sum of sinh^2 over the modes
    body = {
        "modes": {"omega": [1.0] * 16, "gamma": [0.5 + 0.0625 * i for i in range(16)]},
        "code": {"sample": {"lo": 0.5, "hi": 3.0, "seed": 11}},
        "times": {"start": 0.0, "stop": 20.0, "num": 400},
    }
    columns = {}
    for command, kind, name, col in (("evolve", "evolve", "evolve.csv", 33),
                                     ("forgetting", "forgetting-curve",
                                      "forgetting.csv", 3)):
        cfg = write_config(tmp_path, f"{kind}.json", dict(body, kind=kind))
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 0
        rows = read_csv(out / name)
        assert rows[0][col] == "total_occupation"
        columns[command] = [r[col] for r in rows[1:]]
    assert columns["evolve"] == columns["forgetting"]


def test_oracle_verify_checks_the_shipped_entropy(tmp_path, monkeypatch):
    real = thermo._entropy_per_mode
    monkeypatch.setattr(thermo, "_entropy_per_mode", lambda t: real(t) + 1e-6)
    out = tmp_path / "verify_out"
    assert run(["oracle-verify", "--out", out, "--quiet"]) == 2
    failed = [r for r in read_csv(out / "residuals.csv")[1:] if r[5] == "fail"]
    assert failed and {r[0] for r in failed} == {"entropy"}


def check_energy_past_the_float_range(tmp_path, command, omega):
    # four modes at theta = 351: the first row's total energy is inf, which
    # evolve writes with nothing on stderr and thermo-trace refuses with one
    # error; the second row's is finite
    cfg = write_config(tmp_path, "big.json", {
        "kind": command,
        "modes": {"omega": [omega] * 4, "gamma": [1.0] * 4},
        "code": {"thetas": [351.0] * 4},
        "times": {"start": 0.0, "stop": 1.0, "num": 2},
    })
    proc = python(MAIN, command, "--config", cfg, "--out", tmp_path / "o", "--quiet")
    if command == "evolve":
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = read_csv(tmp_path / "o" / "evolve.csv")
        assert rows[1][-1] == "inf"
        assert float(rows[2][-1]) == math.fsum(omega * float(x) for x in rows[2][5:9])
        return rows
    assert (proc.returncode, proc.stderr) == (
        1, "error: domain: energy at time 0.0 is not finite (inf)\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["evolve", "thermo-trace"])
def test_overflowing_energy_sum_is_inf(tmp_path, command):
    # each mode's energy is finite, and their sum is past the float range
    rows = check_energy_past_the_float_range(tmp_path, command, 5e3)
    if rows:
        assert all(math.isfinite(5e3 * float(x)) for x in rows[1][5:9])


@pytest.mark.parametrize("command", ["evolve", "thermo-trace"])
def test_overflowing_mode_energy_warns_nowhere(tmp_path, command):
    # omega sinh^2 Theta itself overflows
    check_energy_past_the_float_range(tmp_path, command, 1e4)


def test_capacity_overflowing_expected_overlap_is_one_domain_error(tmp_path):
    cfg = write_config(tmp_path, "cap.json", {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0] * 8, "gamma": [1.0] * 8},
        "theta_range": [0.0, 1e308], "epsilon": 0.05, "candidates": 20, "seed": 1,
    })
    proc = python(MAIN, "capacity", "--config", cfg, "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: domain:")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# exit taxonomy


def test_exit_1_on_missing_config(tmp_path, capsys):
    assert run(["forgetting", "--out", tmp_path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: usage:")
    assert "\n" not in err.strip()


REGISTRY = "<registry>"  # replaced by the fixture registry's path

# kind -> (subcommand, valid config, paths of numeric fields in it)
VALID_CONFIGS = {
    "print": ("print", {
        "kind": "print",
        "modes": {"omega": [1.0, 1.0], "gamma": [1.0, 0.5]},
        "entries": [{"id": "a", "thetas": [0.3, 0.5], "printed_at": 0.0}],
    }, [("entries", 0, "thetas", 0), ("entries", 0, "printed_at"),
        ("modes", "omega", 0), ("modes", "gamma", 1)]),
    "recall": ("recall", {
        "kind": "recall", "registry": REGISTRY,
        "probe": {"thetas": [0.3, 0.5]}, "time": 0.5,
    }, [("time",), ("probe", "thetas", 0)]),
    "evolve": ("evolve", {
        "kind": "evolve",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"beta": 2.0},
        "times": {"start": 0.0, "stop": 1.0, "num": 3},
    }, [("modes", "gamma", 0), ("code", "beta"), ("times", "stop")]),
    "forgetting-curve": ("forgetting", {
        "kind": "forgetting-curve",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [0.5]},
        "times": {"start": 0.0, "stop": 1.0, "num": 5},
    }, [("modes", "omega", 0), ("code", "thetas", 0), ("times", "start")]),
    "capacity-sweep": ("capacity", {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "theta_range": [0.0, 1.5], "epsilon": 0.05, "candidates": 5, "seed": 1,
    }, [("modes", "gamma", 0), ("theta_range", 1), ("epsilon",)]),
    "fidelity-matrix": ("associate", {
        "kind": "fidelity-matrix", "registry": REGISTRY, "time": 0.5,
    }, [("time",)]),
    "association-graph": ("associate", {
        "kind": "association-graph", "registry": REGISTRY, "time": 0.5,
        "threshold": 0.5,
    }, [("threshold",)]),
    "thermo-trace": ("thermo-trace", {
        "kind": "thermo-trace",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"sample": {"lo": 0.0, "hi": 1.0, "seed": 3}},
        "times": {"start": 0.0, "stop": 1.0, "num": 5},
    }, [("modes", "omega", 0), ("code", "sample", "hi")]),
}


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return doc


def test_exit_1_on_unknown_config_keys(tmp_path, registry_path, capsys):
    # every kind: unknown key, missing key, and a boolean or a numeric string
    # in each numeric field must each give exit 1 with one config error line
    cases = []
    for kind, (command, doc, number_paths) in VALID_CONFIGS.items():
        doc = json.loads(json.dumps(doc).replace(REGISTRY, str(registry_path)))
        cases.append((f"{kind} valid", command, doc, 0))
        cases.append((f"{kind} unknown key", command, dict(doc, typo=1.0), 1))
        for key in doc:
            if key != "kind":
                missing = {k: v for k, v in doc.items() if k != key}
                cases.append((f"{kind} missing {key}", command, missing, 1))
        for path in number_paths:
            for bad in (True, "0.5"):
                cases.append((f"{kind} {path}={bad!r}", command,
                              _replaced(doc, path, bad), 1))
        if kind == "fidelity-matrix":  # only association-graph reads a threshold
            cases.append((f"{kind} threshold", command, dict(doc, threshold=0.5), 1))
        # whether a registry's printing times differ is read from it, never set
        if kind in ("recall", "fidelity-matrix", "association-graph"):
            cases.append((f"{kind} staggered", command, dict(doc, staggered=False), 1))

    wrong = []
    for name, command, doc, want in cases:
        cfg = write_config(tmp_path, "case.json", doc)
        code = run([command, "--config", cfg, "--out", tmp_path / "o", "--quiet"])
        err = capsys.readouterr().err
        ok = (code == 0 and err == "") if want == 0 else (
            code == 1 and err.startswith("error: config:") and err.count("\n") == 1)
        if not ok:
            wrong.append(f"{name}: exit {code}, stderr {err!r}")
    assert not wrong, "\n".join(wrong)


# (subcommand, config kind) -> the one input option it reads besides --out
# and --quiet; every value a config subcommand reads is in its config file
OPTIONS_READ = {
    ("print", "print"): "--config",
    ("recall", "recall"): "--config",
    ("evolve", "evolve"): "--config",
    ("forgetting", "forgetting-curve"): "--config",
    ("capacity", "capacity-sweep"): "--config",
    ("associate", "association-graph"): "--config",
    ("associate", "fidelity-matrix"): "--config",
    ("thermo-trace", "thermo-trace"): "--config",
    ("oracle-verify", None): "--dim",
}


@pytest.mark.parametrize("command, kind", list(OPTIONS_READ))
def test_each_subcommand_takes_only_the_options_it_reads(
        tmp_path, registry_path, capsys, monkeypatch, command, kind):
    # the residual suite itself runs in test_oracle_verify_passes
    monkeypatch.setattr("dqmem.fock._verify_rows", lambda dim: [])
    reads = OPTIONS_READ[command, kind]
    other = write_config(tmp_path, "other.json", VALID_CONFIGS["evolve"][1])
    # no option fills a config key: --seed and --epsilon are usage errors
    values = {"--config": other, "--seed": 7, "--epsilon": 0.25, "--dim": 64}
    wrong = []
    for option, value in values.items():
        out = tmp_path / option
        args = [command, "--out", out, "--quiet"]
        if kind is not None:
            doc = json.loads(json.dumps(VALID_CONFIGS[kind][1]).replace(
                REGISTRY, str(registry_path)))
            args += ["--config", write_config(tmp_path, "case.json", doc)]
        if option != "--config" or kind is None:
            args += [option, value]
        code, err = run(args), capsys.readouterr().err
        ok = (code == 0 and err == "") if option == reads else (
            code == 1 and err.startswith("error: usage:") and err.count("\n") == 1
            and not out.exists())
        if not ok:
            wrong.append(f"{command} {kind} {option}: exit {code}, stderr {err!r}")
    assert not wrong, "\n".join(wrong)

    assert run([command, "--help"]) == 0
    listed = set(re.findall(r"--[a-z]+", capsys.readouterr().out))
    assert listed == {"--help", "--out", "--quiet", reads}


@pytest.mark.parametrize("command, kind", list(OPTIONS_READ))
def test_summary_is_one_envelope(tmp_path, registry_path, monkeypatch, command, kind):
    monkeypatch.setattr("dqmem.fock._verify_rows", lambda dim: [])
    args = [command, "--out", tmp_path / "o", "--quiet"]
    sha256 = None
    if kind is not None:
        doc = json.loads(json.dumps(VALID_CONFIGS[kind][1]).replace(
            REGISTRY, str(registry_path)))
        config = write_config(tmp_path, "case.json", doc)
        args += ["--config", config]
        sha256 = hashlib.sha256(pathlib.Path(config).read_bytes()).hexdigest()
    assert run(args) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert set(summary) == {"command", "kind", "schema_version", "config", "results"}
    assert (summary["command"], summary["kind"]) == (command, kind or "oracle-verify")
    # the summary holds the one echo; the manifest names the file it came from
    assert "config" not in manifest
    assert manifest["config_sha256"] == sha256


BAD_JSON = {
    "byte 0xff": b'{"kind": "print"\xff}',
    "5000 digits": b'{"kind": ' + b"1" * 5000 + b"}",
    "100000 levels": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("bad", list(BAD_JSON))
@pytest.mark.parametrize("where", ["config", "registry"])
def test_unreadable_json_is_one_error_of_its_file(tmp_path, capsys, bad, where):
    path = tmp_path / "bad.json"
    path.write_bytes(BAD_JSON[bad])
    cfg = str(path) if where == "config" else write_config(tmp_path, "matrix.json", {
        "kind": "fidelity-matrix", "registry": str(path), "time": 0.0})
    assert run(["associate", "--config", cfg, "--out", tmp_path / "o"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_exit_1_on_kind_subcommand_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, "wrong.json", {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "theta_range": [0.0, 1.0],
        "epsilon": 0.1,
        "candidates": 5,
        "seed": 0,
    })
    assert run(["forgetting", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert "does not match subcommand" in capsys.readouterr().err


def test_exit_1_on_registry_error(tmp_path, capsys):
    bad = tmp_path / "reg.json"
    bad.write_text("{}", encoding="utf-8")
    cfg = write_config(tmp_path, "assoc.json", {
        "kind": "fidelity-matrix", "registry": str(bad), "time": 0.0,
    })
    assert run(["associate", "--config", cfg, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err.startswith("error: registry:")


def test_exit_1_on_domain_error(tmp_path, registry_path, capsys):
    # every read needs t at or after each printing: a read at 0.5 of a
    # registry extended with a print at 2.0 is refused, naming that entry,
    # whatever the kind, and nothing is written
    ext_cfg = write_config(tmp_path, "ext.json", {
        "kind": "print",
        "registry": str(registry_path),
        "entries": [{"id": "late", "thetas": [0.1, 0.1], "printed_at": 2.0}],
    })
    out2 = tmp_path / "ext_out"
    assert run(["print", "--config", ext_cfg, "--out", out2, "--quiet"]) == 0
    for kind in ("recall", "fidelity-matrix", "association-graph"):
        command, doc, _ = VALID_CONFIGS[kind]
        doc = dict(doc, registry=str(out2 / "registry.json"), time=0.5)
        assert run([command, "--config", write_config(tmp_path, "early.json", doc),
                    "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err == (
            "error: domain: evaluation time 0.5 precedes printed_at 2.0 of entry 'late'\n")
        assert not (tmp_path / "o").exists()


def test_an_array_numpy_cannot_allocate_is_one_domain_error(tmp_path, capsys):
    # 10**15 time points or candidates ask numpy for petabytes at once, which
    # it refuses before allocating anything: one error line, nothing written
    for kind, key, value in (
            ("evolve", "times", {"start": 0.0, "stop": 1.0, "num": 10 ** 15}),
            ("capacity-sweep", "candidates", 10 ** 15)):
        command, doc, _ = VALID_CONFIGS[kind]
        out = tmp_path / command
        assert run([command, "--config", write_config(tmp_path, "c.json", dict(
            doc, **{key: value})), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: domain: Unable to allocate") and err.count("\n") == 1
        assert not out.exists()


def test_recall_on_an_empty_registry_is_one_domain_error(tmp_path, capsys):
    # no entry has a score: recall refuses the registry as associate does,
    # with either kind of probe, and writes nothing
    from dqmem.capacity import new_registry, save_registry

    save_registry(new_registry([ModeParams(0, 1.0, 1.0)]), tmp_path / "registry.json")
    for command, doc in (("recall", {"kind": "recall", "probe": {"thetas": [0.3]}}),
                         ("recall", {"kind": "recall", "probe": {"entry": "a"}}),
                         ("associate", {"kind": "fidelity-matrix"})):
        doc = dict(doc, registry=str(tmp_path / "registry.json"), time=0.5)
        out = tmp_path / "out"
        assert run([command, "--config", write_config(tmp_path, "c.json", doc),
                    "--out", out]) == 1
        assert capsys.readouterr().err == "error: domain: registry has no entries\n"
        assert not out.exists()


@pytest.mark.parametrize("staggered", [False, True])
def test_recall_refuses_a_probe_of_another_length(tmp_path, registry_path, capsys,
                                                  staggered):
    # a probe is one theta per mode: one that numpy would stretch to fit (1 of
    # 2) is refused like one it could not (3 of 2), and nothing is written,
    # whether the entries share one printing time or not
    if staggered:
        assert run(["print", "--config", write_config(tmp_path, "ext.json", {
            "kind": "print", "registry": str(registry_path),
            "entries": [{"id": "late", "thetas": [0.1, 0.1], "printed_at": 0.5}],
        }), "--out", tmp_path / "ext", "--quiet"]) == 0
        registry_path = tmp_path / "ext" / "registry.json"
    for thetas in ([0.3], [0.3, 0.5, 0.7]):
        cfg = write_config(tmp_path, "recall.json", {
            "kind": "recall", "registry": str(registry_path),
            "probe": {"thetas": thetas}, "time": 1.0,
        })
        out = tmp_path / "out"
        assert run(["recall", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == (
            f"error: domain: code length {len(thetas)} != mode count 2\n")
        assert not out.exists()


def test_overflowing_staggered_reads_are_zero_and_silent(tmp_path):
    # gamma (t - p) passes the float range, and the frame's gap gamma (p_b - p_a)
    # = 1e300 does not: the pair's overlap is 0.0, with no warning and no nan
    cfg = write_config(tmp_path, "print.json", {
        "kind": "print", "modes": {"omega": [1.0], "gamma": [1e300]},
        "entries": [{"id": "a", "thetas": [0.3]},
                    {"id": "b", "thetas": [0.5], "printed_at": 1.0}]})
    assert run(["print", "--config", cfg, "--out", tmp_path / "reg", "--quiet"]) == 0
    doc = {"registry": str(tmp_path / "reg" / "registry.json"), "time": 1e10}
    for command, name, extra in (
            ("associate", "fidelity.csv", {"kind": "fidelity-matrix"}),
            ("associate", "edges.csv", {"kind": "association-graph", "threshold": 0.5}),
            ("recall", "recall.csv", {"kind": "recall", "probe": {"thetas": [0.5]}})):
        out = tmp_path / name
        proc = python(MAIN, command, "--config", write_config(tmp_path, "c.json", dict(
            doc, **extra)), "--out", out, "--quiet", flags=("-W", "error"))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        for artifact in out.iterdir():
            assert "nan" not in artifact.read_text(encoding="utf-8").lower(), artifact.name
    assert read_csv(tmp_path / "fidelity.csv" / "fidelity.csv")[1:] == [
        ["a", "1.0", "0.0"], ["b", "0.0", "1.0"]]
    assert read_csv(tmp_path / "edges.csv" / "edges.csv")[1:] == []
    assert read_csv(tmp_path / "recall.csv" / "recall.csv")[1:] == [
        ["a", "0.9803279976447252"], ["b", "0.0"]]


def test_exit_1_on_small_dim(tmp_path, capsys):
    assert run(["oracle-verify", "--dim", 32, "--out", tmp_path]) == 1
    assert "--dim" in capsys.readouterr().err


def test_failed_run_leaves_no_artifacts(tmp_path):
    out = tmp_path / "never"
    assert run(["forgetting", "--config", str(tmp_path / "absent.json"),
                "--out", out]) == 1
    assert not out.exists()


def trajectory_config(tmp_path, kind, num=50):
    return write_config(tmp_path, f"{kind}.json", {
        "kind": kind,
        "modes": {"omega": [1.0, 2.0], "gamma": [1.0, 0.5]},
        "code": {"thetas": [0.8, 0.3]},
        "times": {"start": 0.0, "stop": 2.0, "num": num},
    })


def test_reused_out_holds_one_runs_files(tmp_path, monkeypatch):
    out = tmp_path / "o"
    assert run(["forgetting", "--config", trajectory_config(tmp_path, "forgetting-curve"),
                "--out", out, "--quiet"]) == 0
    assert sorted(os.listdir(out)) == ["forgetting.csv", "manifest.json", "summary.json"]
    # the old run's file goes once the new files are complete, before the
    # renames, and the manifest is renamed last
    events = []
    for name in ("remove", "replace"):
        real = getattr(os, name)
        monkeypatch.setattr(os, name, lambda path, *rest, real=real, name=name: (
            events.append((name, os.path.basename(path))), real(path, *rest))[1])
    assert run(["evolve", "--config", trajectory_config(tmp_path, "evolve"),
                "--out", out, "--quiet"]) == 0
    monkeypatch.undo()
    assert events == [("remove", "forgetting.csv"), ("replace", "evolve.csv.partial"),
                      ("replace", "summary.json.partial"), ("replace", "manifest.json.partial")]
    names = ["evolve.csv", "manifest.json", "summary.json"]
    assert sorted(os.listdir(out)) == names
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == names

    # only plain file names a dqmem manifest lists are deleted
    (tmp_path / "victim").write_text("kept")
    (out / "sub").mkdir()
    (out / "sub" / "x").write_text("kept")
    (out / "mine.txt").write_text("kept")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["artifacts"] += ["../victim", "sub/x", "sub", "", ".", "..", 7,
                              str(tmp_path / "victim")]
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert run(["forgetting", "--config", trajectory_config(tmp_path, "forgetting-curve"),
                "--out", out, "--quiet"]) == 0
    assert sorted(os.listdir(out)) == ["forgetting.csv", "manifest.json", "mine.txt",
                                       "sub", "summary.json"]
    assert (tmp_path / "victim").read_text() == (out / "sub" / "x").read_text() == "kept"
    # a manifest.json that no dqmem run wrote names nothing to delete
    for doc in ({"artifacts": ["mine.txt"]}, {"command": [], "artifacts": ["mine.txt"]},
                {"command": "evolve", "artifacts": "mine.txt"}, ["mine.txt"]):
        (out / "manifest.json").write_text(json.dumps(doc))
        assert run(["evolve", "--config", trajectory_config(tmp_path, "evolve"),
                    "--out", out, "--quiet"]) == 0
        assert (out / "mine.txt").exists() and (out / "forgetting.csv").exists()


def test_rows_failing_mid_stream_leave_the_last_run_intact(tmp_path, monkeypatch, capsys):
    from dqmem import cli

    out = tmp_path / "o"
    config = trajectory_config(tmp_path, "evolve", num=2000)
    assert run(["evolve", "--config", config, "--out", out, "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    help_text, handler = cli._COMMANDS["evolve"]

    def failing(cfg):
        artifacts, results, line = handler(cfg)
        header, rows = artifacts["evolve.csv"]

        def stream():
            yield from rows[:1500]  # past the first buffer flush
            raise ValueError("row 1500 is not finite")
        return {"evolve.csv": (header, stream())}, results, line

    monkeypatch.setitem(cli._COMMANDS, "evolve", (help_text, failing))
    assert run(["evolve", "--config", config, "--out", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: domain: row 1500 is not finite\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    assert run(["evolve", "--config", config, "--out", tmp_path / "new", "--quiet"]) == 1
    assert list((tmp_path / "new").glob("*")) == []


def test_unencodable_cell_is_one_error_and_leaves_no_partial(tmp_path, capsys):
    # a lone surrogate parses from JSON but has no UTF-8 form: the CSV write
    # fails mid-file, which is one error line and no file left behind
    cfg = write_config(tmp_path, "print.json", {
        "kind": "print", "modes": {"omega": [1.0], "gamma": [1.0]},
        "entries": [{"id": "ok", "thetas": [0.2]}, {"id": "a\ud800", "thetas": [0.3]}],
    })
    assert run(["print", "--config", cfg, "--out", tmp_path / "r", "--quiet"]) == 0
    recall = write_config(tmp_path, "recall.json", {
        "kind": "recall", "registry": str(tmp_path / "r" / "registry.json"), "time": 0.5,
        "probe": {"thetas": [0.35]}})
    assert run(["recall", "--config", recall, "--out", tmp_path / "o", "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: domain: 'utf-8' codec can't encode") and err.count("\n") == 1
    assert list((tmp_path / "o").glob("*")) == []


def test_fidelity_run_holds_no_whole_csv_or_triangle_list(tmp_path):
    # a fidelity-matrix run holds no n x n matrix: beside one block of pairs
    # it keeps, of each written row, its unread cells after the diagonal as
    # one string, under half the CSV's size (0.75 times the CSV in all); the
    # whole CSV text, as a string or through a buffer, a list of every pair,
    # or one string object per unwritten lower cell (1.35 times the CSV,
    # 1.57 with the matrix) go past it
    import tracemalloc

    n = 300
    rng = np.random.default_rng(3)
    registry = write_config(tmp_path, "registry.json", {
        "schema_version": 1,
        "modes": [{"index": i, "omega": 1.0, "gamma": 0.5} for i in range(8)],
        "entries": [{"id": f"m{i:04d}", "printed_at": 0.0,
                     "thetas": rng.uniform(0.0, 2.0, 8).tolist()} for i in range(n)],
    })
    config = write_config(tmp_path, "f.json", {"kind": "fidelity-matrix",
                                               "registry": registry, "time": 0.5})
    assert run(["associate", "--config", config, "--out", tmp_path / "warm", "--quiet"]) == 0
    tracemalloc.start()
    try:
        assert run(["associate", "--config", config, "--out", tmp_path / "o", "--quiet"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / "o" / "fidelity.csv").stat().st_size
    assert size > 1.5e6
    assert peak < size


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical_outside_manifest(tmp_path):
    cfg = write_config(tmp_path, "cap.json", {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0] * 3, "gamma": [1.0] * 3},
        "theta_range": [0.0, 1.5],
        "epsilon": 0.05,
        "candidates": 80,
        "seed": 20260814,
    })
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(["capacity", "--config", cfg, "--out", out_a, "--quiet"]) == 0
    assert run(["capacity", "--config", cfg, "--out", out_b, "--quiet"]) == 0
    for name in ("capacity.csv", "summary.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    differing = {k for k in ma if ma[k] != mb[k]}
    assert differing <= {"wall_time_s", "argv", "out"}


def test_oracle_rerun_is_byte_identical(tmp_path):
    # two processes, so no state carries over from the first run
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert python(MAIN, "oracle-verify", "--out", out, "--quiet").returncode == 0
    for name in ("residuals.csv", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_oracle_residuals_do_not_depend_on_blas_threads(tmp_path):
    # the oracle's reductions never enter BLAS, so its thread count moves no bit
    for threads in ("1", "2"):
        code = f"import os\nos.environ['OPENBLAS_NUM_THREADS'] = '{threads}'\n" + MAIN
        proc = python(code, "oracle-verify", "--dim", 128, "--out", tmp_path / threads,
                      "--quiet")
        assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "1" / "residuals.csv").read_bytes()
            == (tmp_path / "2" / "residuals.csv").read_bytes())


def test_csv_artifacts_use_crlf(tmp_path):
    cfg = write_config(tmp_path, "forget.json", {
        "kind": "forgetting-curve",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "code": {"thetas": [0.5]},
        "times": {"start": 0.0, "stop": 1.0, "num": 3},
    })
    out = tmp_path / "o"
    assert run(["forgetting", "--config", cfg, "--out", out, "--quiet"]) == 0
    raw = (out / "forgetting.csv").read_bytes()
    assert raw.count(b"\r\n") == raw.count(b"\n")
    assert raw.endswith(b"\r\n")


def test_json_artifacts_are_canonical(tmp_path, registry_path):
    # keys sorted, two-space indent, single trailing newline; summary.json is
    # streamed part by part and manifest.json written whole, with one encoder
    for name in ("registry.json", "summary.json", "manifest.json"):
        raw = (registry_path.parent / name).read_text(encoding="utf-8")
        doc = json.loads(raw)
        assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n", name


def test_console_script_is_wired(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dqmem.cli", "oracle-verify", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--dim" in proc.stdout


@pytest.mark.parametrize("flags, frozen", [((), "1 True"), (("-X", "dev"), "0 False")])
def test_exit_freezes_the_collector_once_however_often_main_runs(flags, frozen):
    # instead of a last collection at exit, main has the process freeze the
    # collector's objects, once for any number of calls; an exit function
    # registered earlier runs after the freeze. Under -X dev the collection
    # stays, so a file left open in a cycle still warns
    proc = python("import atexit, gc\n"
                  "calls, freeze = [], gc.freeze\n"
                  "gc.freeze = lambda: calls.append(freeze())\n"
                  "atexit.register(lambda: print(len(calls), gc.get_freeze_count() > 0))\n"
                  "from dqmem.cli import main\n"
                  "print([main(['evolve']) for _ in range(3)])\n", flags=flags)
    assert proc.stdout.splitlines() == ["[1, 1, 1]", frozen]


def test_dev_mode_run_warns_of_a_file_left_open_in_a_cycle(tmp_path):
    # the CI guard runs reads under -X dev -W error and requires an empty
    # stderr: that catches a file that only the final collection would close,
    # here one that a cycle held by a global keeps open until the exit
    proc = python("import sys\n"
                  "from dqmem.cli import main\n"
                  "leak = [open(sys.argv[1], 'rb')]\n"
                  "leak.append(leak)\n"
                  "main(['evolve'])\n", __file__, flags=("-X", "dev", "-W", "error"))
    assert "ResourceWarning: unclosed file" in proc.stderr


def test_infinite_tau_serialized_as_string(tmp_path):
    cfg = write_config(tmp_path, "forget.json", {
        "kind": "forgetting-curve",
        "modes": {"omega": [1.0], "gamma": [0.0]},
        "code": {"thetas": [0.5]},
        "times": {"start": 0.0, "stop": 1.0, "num": 3},
    })
    out = tmp_path / "o"
    assert run(["forgetting", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["tau"] == "inf"


# ---------------------------------------------------------------------------
# no subcommand needs scipy, the oracle included

SRC = str(pathlib.Path(dqmem.__file__).resolve().parent.parent)

NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"import of {name} blocked")
        return None

sys.meta_path.insert(0, NoScipy())
"""


def python(code, *args, flags=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *flags, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env)


# what `import dqmem`, `import dqmem.cli` and then one subcommand load: the
# record modules never import dataclasses, and thermo, the oracle and the
# sampler (`dqmem._rng`) load only for the subcommands that use them
FOOTPRINT = """
import sys
def loaded():
    return sorted(m for m in sys.modules
                  if m in ('dataclasses', 'scipy', 'importlib.metadata')
                  or m.startswith(('scipy.', 'dqmem.')))
import dqmem
print(loaded())
import dqmem.cli
print(loaded())
print(dqmem.cli.main([*sys.argv[1:], '--quiet']), loaded())
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # nor importlib.metadata, dataclasses, thermo or the oracle until a
    # subcommand needs them; each subcommand runs in a fresh interpreter
    printed = write_config(tmp_path, "print.json", VALID_CONFIGS["print"][1])
    runs = [["print", "--config", printed, "--out", tmp_path / "reg"]]
    registry = str(tmp_path / "reg" / "registry.json")
    assert run([*runs[0], "--quiet"]) == 0
    for kind, (command, doc, _) in VALID_CONFIGS.items():
        if kind != "print":
            doc = json.loads(json.dumps(doc).replace(REGISTRY, registry))
            runs.append([command, "--config", write_config(tmp_path, f"{kind}.json", doc),
                         "--out", tmp_path / kind])
    runs.append(["oracle-verify", "--dim", "64", "--out", tmp_path / "oracle"])
    assert {argv[0] for argv in runs} == set(dqmem.cli._COMMANDS)
    base = ["dqmem.capacity", "dqmem.cli", "dqmem.states"]
    for argv in runs:
        proc = python(FOOTPRINT, *argv)
        assert proc.stderr == "", argv[0]
        after = base + {"evolve": ["dqmem.thermo"], "capacity": ["dqmem._rng"],
                        "thermo-trace": ["dqmem._rng", "dqmem.thermo"],  # a sampled code
                        "oracle-verify": ["dqmem.fock", "dqmem.thermo"]}.get(argv[0], [])
        assert proc.stdout.splitlines() == ["[]", str(base), f"0 {sorted(after)}"], argv[0]


def test_no_subcommand_imports_numpy_ma_or_openssl(tmp_path):
    # numpy.ma costs about 4 ms and 0.65 MB of import, and np.unique loads
    # it; hashlib's OpenSSL backend (_hashlib) costs 3.7 MB of memory, and
    # numpy.random loads it through secrets, so no run may load either
    printed = write_config(tmp_path, "print.json", VALID_CONFIGS["print"][1])
    registry = str(tmp_path / "reg" / "registry.json")
    runs = [["print", "--config", printed, "--out", str(tmp_path / "reg")]]
    for kind, (command, doc, _) in VALID_CONFIGS.items():
        doc = json.loads(json.dumps(doc).replace(REGISTRY, registry))
        cfg = write_config(tmp_path, f"{kind}.json", doc)
        runs.append([command, "--config", cfg, "--out", str(tmp_path / kind)])
    runs.append(["oracle-verify", "--dim", "64", "--out", str(tmp_path / "oracle")])
    proc = python("import json, sys\n"
                  "from dqmem.cli import main\n"
                  "for argv in json.loads(sys.argv[1]):\n"
                  "    code = main([*argv, '--quiet'])\n"
                  "    print(argv[0], code, {'numpy.ma', '_hashlib'} & set(sys.modules))\n",
                  json.dumps(runs))
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [f"{argv[0]} 0 set()" for argv in runs]
    assert {argv[0] for argv in runs} == set(dqmem.cli._COMMANDS)


def test_import_budget_of_each_cli_process(tmp_path):
    # each run is a fresh `python -m dqmem.cli` process, whose sys.modules a
    # sitecustomize prints at exit. None loads numpy.polynomial (the capacity
    # quadrature reads a fixed table) or numpy.random, which costs about
    # 5.4 MB (secrets loads OpenSSL): the capacity sweep and a sampled code
    # draw numpy's stream through dqmem._rng, and only they import that
    site = tmp_path / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(
        "import atexit, sys\n"
        "atexit.register(lambda: print(*sorted(sys.modules)))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(site), SRC, env.get("PYTHONPATH")]))
    registry = tmp_path / "reg" / "registry.json"
    runs = {}  # print comes first and writes the registry the others read
    for kind, (command, doc, _) in VALID_CONFIGS.items():
        doc = json.loads(json.dumps(doc).replace(REGISTRY, str(registry)))
        runs[kind] = [command, "--config", write_config(tmp_path, f"{kind}.json", doc),
                      "--out", str(registry.parent if kind == "print" else tmp_path / kind)]
    runs["oracle-verify"] = ["oracle-verify", "--dim", "64", "--out", str(tmp_path / "oracle")]
    assert {argv[0] for argv in runs.values()} == set(dqmem.cli._COMMANDS)
    sampled = {kind for kind, (_, doc, _) in VALID_CONFIGS.items()
               if "sample" in doc.get("code", {})}
    assert sampled == {"thermo-trace"}
    for kind, argv in runs.items():
        proc = subprocess.run([sys.executable, "-m", "dqmem.cli", *argv, "--quiet"],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stderr) == (0, ""), kind
        loaded = set(proc.stdout.split())
        assert {"dqmem.capacity", "numpy"} <= loaded, kind
        assert not {"numpy.polynomial", "numpy.random", "secrets", "_hashlib"} & loaded, kind
        sampling = kind == "capacity-sweep" or kind in sampled
        assert ("dqmem._rng" in loaded) == sampling, kind


# a fresh process: the numpy modules that `import dqmem.cli` starts to
# import, then main's exit code and which of numpy's modules it leaves loaded
NUMPY_LOADS = """
import sys
started = []
sys.addaudithook(lambda event, args: started.append(args[0]) if event == 'import' else None)
import dqmem.cli
print([m for m in started if m.split('.')[0] == 'numpy'])
code = dqmem.cli.main([*sys.argv[1:], '--quiet'])
print(code, sorted({'numpy._core', 'numpy.version'} & set(sys.modules)))
"""


def test_cli_import_starts_no_typing_import():
    # typing costs a few ms of a clean interpreter's import; numpy imports it
    # itself, so numpy's directory goes on the path, but no .pth file runs
    numpy_dir = os.path.dirname(os.path.dirname(np.__file__))
    proc = python("import sys\n"
                  "sys.path.append(sys.argv[1])\n"
                  "import dqmem.cli\n"
                  "print('typing' in sys.modules)\n", numpy_dir, flags=("-S",))
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "False\n")


def test_numpy_loads_at_its_first_array_use(tmp_path):
    # `import dqmem.cli` starts no numpy import, `dqmem print` (records,
    # config checks and JSON) never loads numpy, and every run that computes
    # loads it, a sampled code's included
    modes = {"omega": [1.0, 1.5], "gamma": [1.0, 0.0]}
    reg = tmp_path / "reg"
    registry = str(reg / "registry.json")
    prints = {
        "thetas": {"kind": "print", "modes": modes,
                   "entries": [{"id": "a", "thetas": [0.3, 0.5]}]},
        "beta": {"kind": "print", "modes": modes,
                 "entries": [{"id": "b", "beta": 1.5, "printed_at": 0.5}]},
        "extension": {"kind": "print", "registry": registry,
                      "entries": [{"id": "c", "thetas": [0.9, 0.1]},
                                  {"id": "d", "beta": 0.8, "printed_at": 1.0}]},
    }
    runs = {}
    for name, doc in prints.items():
        runs[name] = ["print", "--config", write_config(tmp_path, f"{name}.json", doc),
                      "--out", reg if name == "thetas" else tmp_path / name]
    for kind, (command, doc, _) in VALID_CONFIGS.items():
        if kind != "print":
            doc = json.loads(json.dumps(doc).replace(REGISTRY, registry))
            runs[kind] = [command, "--config", write_config(tmp_path, f"{kind}.json", doc),
                          "--out", tmp_path / kind]
    runs["oracle-verify"] = ["oracle-verify", "--dim", "64", "--out", tmp_path / "oracle"]
    assert {argv[0] for argv in runs.values()} == set(dqmem.cli._COMMANDS)
    assert "sample" in VALID_CONFIGS["thermo-trace"][1]["code"]
    for name, argv in runs.items():  # in order: the thetas print writes the registry
        proc = python(NUMPY_LOADS, *argv)
        assert (proc.returncode, proc.stderr) == (0, ""), name
        started, finished = proc.stdout.splitlines()
        assert started == "[]", name
        if argv[0] == "print":
            assert finished == "0 []", name
        else:
            assert finished.startswith("0 [") and "'numpy.version'" in finished, name


def test_manifest_names_the_numpy_the_run_loaded(tmp_path):
    # null when the run loaded no numpy, as print does; the keys stay the same.
    # numpy_simd is the SIMD targets numpy dispatches to on this CPU, which
    # the child process inherits with NPY_DISABLE_CPU_FEATURES
    umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
    simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    loaded = {}
    for kind in ("print", "forgetting-curve"):
        command, doc, _ = VALID_CONFIGS[kind]
        out = tmp_path / kind
        proc = python(MAIN, command, "--config", write_config(tmp_path, f"{kind}.json", doc),
                      "--out", out, "--quiet")
        assert (proc.returncode, proc.stderr) == (0, ""), kind
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert set(versions) == {"python", "numpy", "numpy_simd", "dqmem"}, kind
        loaded[kind] = versions["numpy"], versions["numpy_simd"]
    assert loaded == {"print": (None, None), "forgetting-curve": (np.__version__, simd)}


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt parameters")
def test_malloc_thresholds_pin_on_glibc():
    assert dqmem.cli._pin_malloc() == [1, 1]


@pytest.mark.parametrize("fake", [
    "def CDLL(*args, **kwargs):\n    raise OSError('no C library')\n",
    "def CDLL(*args, **kwargs):\n    return object()\n",
], ids=["cdll-fails", "no-mallopt"])
def test_cli_runs_where_mallopt_cannot_be_called(tmp_path, fake):
    # the malloc thresholds are a silent no-op there, and the bytes stay the same
    _, doc, _ = VALID_CONFIGS["capacity-sweep"]
    cfg = write_config(tmp_path, "capacity.json", doc)
    patched = ("import ctypes\n" + fake + "ctypes.CDLL = CDLL\nimport dqmem.cli\n"
               "assert dqmem.cli._pin_malloc() == []\n" + MAIN)
    outs = {}
    for name, code in (("plain", MAIN), ("patched", patched)):
        outs[name] = tmp_path / name
        proc = python(code, "capacity", "--config", cfg, "--out", outs[name], "--quiet")
        assert (proc.returncode, proc.stderr) == (0, ""), name
    files = sorted(p.name for p in outs["plain"].iterdir())
    assert files == sorted(p.name for p in outs["patched"].iterdir())
    for name in files:
        if name != "manifest.json":
            assert (outs["plain"] / name).read_bytes() == (outs["patched"] / name).read_bytes()


def test_closed_form_commands_run_without_scipy(tmp_path):
    cli = NO_SCIPY + "from dqmem.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    printed = write_config(tmp_path, "print.json", VALID_CONFIGS["print"][1])
    proc = python(cli, "print", "--config", printed, "--out", tmp_path / "reg")
    assert proc.returncode == 0, proc.stderr
    registry = str(tmp_path / "reg" / "registry.json")
    for kind in ("capacity-sweep", "fidelity-matrix", "association-graph",
                 "forgetting-curve", "evolve", "thermo-trace", "recall"):
        command, doc, _ = VALID_CONFIGS[kind]
        doc = json.loads(json.dumps(doc).replace(REGISTRY, registry))
        cfg = write_config(tmp_path, f"{kind}.json", doc)
        proc = python(cli, command, "--config", cfg, "--out", tmp_path / kind)
        assert (proc.returncode, proc.stderr) == (0, ""), kind


def test_oracle_verify_runs_without_scipy(tmp_path):
    cli = NO_SCIPY + "from dqmem.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = python(cli, "oracle-verify", "--dim", "64", "--quiet", "--out", tmp_path / "o")
    assert (proc.returncode, proc.stderr) == (0, "")
    rows = read_csv(tmp_path / "o" / "residuals.csv")
    assert rows[0] == ["check", "detail", "value", "lo", "hi", "status"]
    assert len(rows) == 133 and all(r[5] == "pass" for r in rows[1:])


def test_oracle_names_resolve_lazily():
    proc = python(
        "import sys, dqmem\n"
        "assert 'dqmem.fock' not in sys.modules\n"
        "build = dqmem.build_workspace\n"
        "assert build is sys.modules['dqmem.fock'].build_workspace\n"
        "assert dqmem.fock is sys.modules['dqmem.fock']\n"
        "assert 'build_workspace' not in vars(dqmem)\n"
        "assert build(8).dim == 8\n")
    assert proc.returncode == 0, proc.stderr
    # every other re-exported name resolves the same way; `import dqmem`
    # alone loads no submodule
    proc = python(
        "import sys, dqmem\n"
        "assert not [m for m in sys.modules if m.startswith('dqmem.')]\n"
        "for module, names in dqmem._EXPORTS.items():\n"
        "    for name in names.split():\n"
        "        value = getattr(dqmem, name)\n"
        "        assert value is getattr(sys.modules['dqmem.' + module], name), name\n"
        "        assert name not in vars(dqmem), name\n"
        "assert dqmem.thermo is sys.modules['dqmem.thermo']\n"
        "try:\n"
        "    dqmem.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert str(exc) == \"module 'dqmem' has no attribute 'no_such_name'\"\n"
        "else:\n"
        "    raise AssertionError('dqmem.no_such_name resolved')\n"
        "namespace = {}\n"
        "exec('from dqmem import *', namespace)\n"
        "assert 'Registry' in namespace and 'build_workspace' not in namespace\n")
    assert proc.returncode == 0, proc.stderr
    # and with every scipy import blocked, the oracle still loads and builds
    blocked = python(NO_SCIPY + "import dqmem\n"
                     "assert dqmem.build_workspace(8).dim == 8\n")
    assert blocked.returncode == 0, blocked.stderr
