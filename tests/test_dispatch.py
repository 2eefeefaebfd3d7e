"""Artifact bytes across numpy's SIMD dispatch targets.

One fixed config set (recall, fidelity-matrix, association-graph,
forgetting, evolve, thermo-trace and oracle-verify --dim 64) runs twice,
each time in one fresh interpreter: first with the inherited environment,
then with NPY_DISABLE_CPU_FEATURES also naming the AVX-512 targets that
the first run's manifests list in versions.numpy_simd, or, where none is
active, every target they list (X86_V3 on numpy 2), so the second run takes
numpy's baseline loops. Every artifact but manifest.json must keep its
bytes. On AVX-512, numpy's float64 exp, log1p, log, sinh, cosh, expm1 and
tanh run numpy's own vector code, whose last bits differ from the AVX2
and baseline loops, so the check is a known failure there until the
transcendental call sites stop depending on the dispatch.
"""

import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from dqmem import states
from dqmem.cli import main

SRC = os.path.dirname(os.path.dirname(states.__file__))

# runs each argv of the JSON list in sys.argv[1] through main, in this interpreter
RUN_ALL = ("import json, sys\nfrom dqmem.cli import main\n"
           "for argv in json.loads(sys.argv[1]):\n    assert main(argv) == 0, argv\n")


def _active_targets() -> list[str]:
    """The SIMD targets numpy dispatches to in this process, as the
    manifest's versions.numpy_simd lists them."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))  # numpy 1.x
    return [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]


def _avx512(targets: list[str]) -> list[str]:
    return [t for t in targets if t == "X86_V4" or t.startswith("AVX512")]


ON_X86 = platform.machine().lower() in ("x86_64", "amd64")
AVX512_ACTIVE = ON_X86 and bool(_avx512(_active_targets()))


def _write(path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _config_set(tmp_path) -> list[list[str]]:
    """Every run of the set as an argv list ending in --out and a folder
    name, which `_run_set` places under its out folder: a clustered,
    staggered K = 8 registry's reads and one sampled K = 8 code's
    trajectories past its forgetting time."""
    rng = np.random.default_rng(2001)
    k, n = 8, 60
    omega, gamma = rng.uniform(0.5, 2.0, k).tolist(), rng.uniform(0.5, 1.5, k).tolist()
    modes = {"omega": omega, "gamma": gamma}
    centers = rng.uniform(0.2, 2.5, (6, k))
    thetas = np.abs(centers[rng.integers(6, size=n)] + rng.normal(0.0, 0.08, (n, k)))
    printed = rng.uniform(0.0, 0.5, n)
    entries = [{"id": f"m{i:02d}", "thetas": row, "printed_at": p}
               for i, (row, p) in enumerate(zip(thetas.tolist(), printed.tolist()))]
    config = _write(tmp_path / "print.json", {"kind": "print", "modes": modes,
                                               "entries": entries})
    assert main(["print", "--config", config, "--out", str(tmp_path / "reg"), "--quiet"]) == 0
    read = {"registry": str(tmp_path / "reg" / "registry.json"), "time": 1.25}
    probe = np.abs(thetas[0] + rng.normal(0.0, 0.08, k)).tolist()
    trajectory = {"modes": modes,
                  "code": {"sample": {"lo": 0.5, "hi": 3.0, "seed": 2001}},
                  "times": {"start": 0.0, "stop": 20.0, "num": 400}}
    docs = {
        "recall": ("recall", dict(read, kind="recall", probe={"thetas": probe})),
        "fidelity": ("associate", dict(read, kind="fidelity-matrix")),
        "graph": ("associate", dict(read, kind="association-graph", threshold=0.5)),
        "forgetting": ("forgetting", dict(trajectory, kind="forgetting-curve")),
        "evolve": ("evolve", dict(trajectory, kind="evolve")),
        "thermo": ("thermo-trace", dict(trajectory, kind="thermo-trace")),
    }
    runs = [[command, "--config", _write(tmp_path / f"{name}.json", doc), "--out", name]
            for name, (command, doc) in docs.items()]
    return [*runs, ["oracle-verify", "--dim", "64", "--out", "oracle"]]


def _run_set(runs: list[list[str]], out, disabled: list[str]) -> tuple[dict, list[str]]:
    """Runs the set in one fresh interpreter under out, with `disabled`
    added to NPY_DISABLE_CPU_FEATURES, and returns {path: bytes} of every
    artifact but the manifests, and the targets the manifests list."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(
            filter(None, [os.environ.get("NPY_DISABLE_CPU_FEATURES"), *disabled]))
    out.mkdir()
    argvs = [[*argv[:-1], str(out / argv[-1]), "--quiet"] for argv in runs]
    subprocess.run([sys.executable, "-c", RUN_ALL, json.dumps(argvs)], env=env,
                   check=True, timeout=120)
    files, targets = {}, set()
    for path in sorted(out.rglob("*")):
        if path.name == "manifest.json":
            targets.add(tuple(json.loads(path.read_text())["versions"]["numpy_simd"]))
        elif path.is_file():
            files[str(path.relative_to(out))] = path.read_bytes()
    assert len(targets) == 1, targets
    return files, list(targets.pop())


@pytest.mark.skipif(not ON_X86, reason="numpy's dispatch targets are named for x86 here")
@pytest.mark.xfail(AVX512_ACTIVE, strict=True, raises=AssertionError,
                   reason="numpy's AVX-512 exp, log1p, log, sinh, cosh and tanh differ "
                          "from its AVX2 and baseline loops in the last bits")
def test_artifacts_keep_their_bytes_across_simd_dispatch(tmp_path):
    runs = _config_set(tmp_path)
    first, targets = _run_set(runs, tmp_path / "inherited", [])
    off = _avx512(targets) or targets
    second, remaining = _run_set(runs, tmp_path / "disabled", off)
    assert not set(off) & set(remaining)
    assert sorted(first) == sorted(second)
    assert [name for name in first if first[name] != second[name]] == []
