"""End-to-end command-line flows: artifacts, exit codes, determinism.

main() is called in-process so tmp_path isolation and coverage work; one
test shells out to the installed console script to prove the entry point
is wired.
"""

import csv
import importlib.metadata
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

import dqmem
from dqmem.cli import main


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def run(args):
    return main([str(a) for a in args])


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
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "dqmem"}
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


def test_manifest_records_import_time_and_missing_scipy(tmp_path, monkeypatch):
    real_version = importlib.metadata.version

    def version(package):
        if package == "scipy":
            raise importlib.metadata.PackageNotFoundError(package)
        return real_version(package)

    monkeypatch.setattr(importlib.metadata, "version", version)
    cfg = write_config(tmp_path, "forget.json", VALID_CONFIGS["forgetting-curve"][1])
    out = tmp_path / "o"
    assert run(["forgetting", "--config", cfg, "--out", out, "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == "not installed"
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


def test_capacity_accepts_flag_seed_when_config_omits(tmp_path):
    cfg = write_config(tmp_path, "cap.json", {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0] * 4, "gamma": [1.0] * 4},
        "theta_range": [0.0, 1.5],
        "candidates": 50,
    })
    out = tmp_path / "cap_out"
    code = run(["capacity", "--config", cfg, "--out", out,
                "--seed", 7, "--epsilon", 0.05, "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["seed"] == 7
    assert summary["results"]["epsilon"] == 0.05
    rows = read_csv(out / "capacity.csv")
    assert rows[0] == ["candidate_index", "accepted", "accepted_count"]
    assert len(rows) == 51


def test_capacity_config_seed_wins_over_flag(tmp_path):
    cfg = write_config(tmp_path, "cap.json", {
        "kind": "capacity-sweep",
        "modes": {"omega": [1.0], "gamma": [1.0]},
        "theta_range": [0.0, 1.5],
        "epsilon": 0.05,
        "candidates": 20,
        "seed": 1,
    })
    out = tmp_path / "cap_out"
    assert run(["capacity", "--config", cfg, "--out", out,
                "--seed", 999, "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["seed"] == 1


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
    cfg = write_config(tmp_path, "stag.json", {
        "kind": "recall",
        "registry": str(registry_path.parent / "registry.json"),
        "probe": {"thetas": [0.3, 0.5]},
        "time": 0.5,
        "staggered": True,
    })
    # extend with a later print so staggered evaluation at 0.5 is impossible
    ext_cfg = write_config(tmp_path, "ext.json", {
        "kind": "print",
        "registry": str(registry_path),
        "entries": [{"id": "late", "thetas": [0.1, 0.1], "printed_at": 2.0}],
    })
    out2 = tmp_path / "ext_out"
    assert run(["print", "--config", ext_cfg, "--out", out2, "--quiet"]) == 0
    cfg2 = write_config(tmp_path, "stag2.json", {
        "kind": "recall",
        "registry": str(out2 / "registry.json"),
        "probe": {"thetas": [0.3, 0.5]},
        "time": 0.5,
        "staggered": True,
    })
    assert run(["recall", "--config", cfg2, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err.startswith("error: domain:")


def test_exit_1_on_small_dim(tmp_path, capsys):
    assert run(["oracle-verify", "--dim", 32, "--out", tmp_path]) == 1
    assert "--dim" in capsys.readouterr().err


def test_failed_run_leaves_no_artifacts(tmp_path):
    out = tmp_path / "never"
    assert run(["forgetting", "--config", str(tmp_path / "absent.json"),
                "--out", out]) == 1
    assert not out.exists()


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
    # keys sorted, two-space indent, single trailing newline
    raw = registry_path.read_text(encoding="utf-8")
    doc = json.loads(raw)
    assert raw == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_console_script_is_wired(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "dqmem.cli", "oracle-verify", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "--dim" in proc.stdout


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
# scipy stays on the oracle path

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


def python(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, env=env)


def test_cli_import_loads_no_scipy():
    proc = python("import sys, dqmem.cli\n"
                  "print(sorted(m for m in sys.modules if m == 'scipy'\n"
                  "             or m.startswith(('scipy.', 'dqmem.fock'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_closed_form_commands_run_without_scipy(tmp_path):
    cli = NO_SCIPY + "from dqmem.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    printed = write_config(tmp_path, "print.json", VALID_CONFIGS["print"][1])
    proc = python(cli, "print", "--config", printed, "--out", tmp_path / "reg")
    assert proc.returncode == 0, proc.stderr
    registry = str(tmp_path / "reg" / "registry.json")
    for kind in ("capacity-sweep", "fidelity-matrix", "association-graph",
                 "forgetting-curve"):
        command, doc, _ = VALID_CONFIGS[kind]
        doc = json.loads(json.dumps(doc).replace(REGISTRY, registry))
        cfg = write_config(tmp_path, f"{kind}.json", doc)
        proc = python(cli, command, "--config", cfg, "--out", tmp_path / kind)
        assert (proc.returncode, proc.stderr) == (0, ""), kind


def test_oracle_verify_without_scipy_is_one_error_line(tmp_path):
    cli = NO_SCIPY + "from dqmem.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    proc = python(cli, "oracle-verify", "--out", tmp_path / "o")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: dependency: oracle-verify needs scipy")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


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
    blocked = python(NO_SCIPY + "import dqmem\n"
                     "try:\n"
                     "    dqmem.fock\n"
                     "except ImportError:\n"
                     "    sys.exit(0)\n"
                     "sys.exit(1)\n")
    assert blocked.returncode == 0, blocked.stderr
