"""The workloads: inputs generated from a seed, and the CLI steps of one pass.

`build(name, seed, inputs)` writes every config (and, for `registry`, the
registry file the reads use) into `inputs` and returns the pass as a list
of steps. Each step is one cold `dqmem` invocation with default flags; the
benchmark appends `--out`. The sizes below set how long a pass takes on a
2-core machine: about 4 to 6 s, of which about 1 s per step is interpreter
start and imports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# BENCHMARK.json lists all but `trajectory`, whose evolve and thermo-trace
# outputs fail their checks at large Theta (README.md, "Known failures")
NAMES = ("pack", "registry", "trajectory", "oracle")

# cold wall time of each named step; reported by the traced run, 0 where a
# workload has no such step
STEP_METRICS = ("pack_dense_s", "pack_mixed_s", "print_s", "recall_s", "fidelity_s",
                "graph_s", "forgetting_s", "evolve_s", "thermo_s")

# pack: two greedy packings; every candidate is accepted in the dense one,
# about a third in the mixed one, so rejected candidates exit the scan early
PACK_EPSILON = 0.05
PACK_DENSE = {"k": 64, "lo": 0.0, "hi": 3.0, "count": 400}
PACK_MIXED = {"k": 32, "lo": 0.0, "hi": 1.5, "count": 900}

# registry: clustered K=16 codes, so the association graph has edges and
# many clusters; a probe is a noisy copy of one entry
REGISTRY_K = 16
REGISTRY_ENTRIES = 500
REGISTRY_CLUSTER_SIZE = 20
REGISTRY_SPREAD = 0.08
REGISTRY_THRESHOLD = 0.5

# trajectory: one sampled K=16 code on a grid running several forgetting
# times past tau (tau <= 3.0 / 0.5 = 6), into the mirror-refill regime
TRAJECTORY_K = 16
TRAJECTORY_CODE = (0.5, 3.0)
TRAJECTORY_GRID = (0.0, 20.0, 5000)

ORACLE_DIM = 128


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a pass and the check of its artifacts."""

    name: str                       # step metric name, e.g. "pack_dense_s"
    argv: tuple[str, ...]           # dqmem arguments, without --out
    check: Callable[[Path], list[str]]


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _modes(rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
    return rng.uniform(0.5, 2.0, size=k), rng.uniform(0.5, 1.5, size=k)


def _mode_doc(omega, gamma) -> dict:
    return {"omega": [float(x) for x in omega], "gamma": [float(x) for x in gamma]}


def _pack(rng, inputs: Path) -> list[Step]:
    steps = []
    for name, spec in (("pack_dense_s", PACK_DENSE), ("pack_mixed_s", PACK_MIXED)):
        seed = int(rng.integers(2 ** 32))
        omega, gamma = _modes(rng, spec["k"])
        config = _write(inputs / f"{name}.json", {
            "kind": "capacity-sweep",
            "modes": _mode_doc(omega, gamma),
            "theta_range": [spec["lo"], spec["hi"]],
            "epsilon": PACK_EPSILON,
            "candidates": spec["count"],
            "seed": seed,
        })
        steps.append(Step(name, ("capacity", "--config", config), checks.capacity_check(
            spec["k"], spec["lo"], spec["hi"], PACK_EPSILON, spec["count"], seed)))
    return steps


def _registry(rng, inputs: Path) -> list[Step]:
    k, n = REGISTRY_K, REGISTRY_ENTRIES
    omega, gamma = _modes(rng, k)
    centers = rng.uniform(0.2, 2.5, size=(n // REGISTRY_CLUSTER_SIZE, k))
    members = rng.integers(len(centers), size=n)
    thetas = np.abs(centers[members] + rng.normal(0.0, REGISTRY_SPREAD, size=(n, k)))
    ids = [f"m{i:05d}" for i in range(n)]
    probe = np.abs(thetas[rng.integers(n)] + rng.normal(0.0, REGISTRY_SPREAD, size=k))
    time = float(rng.uniform(0.2, 2.0))

    modes = _mode_doc(omega, gamma)
    entries = [{"id": e, "thetas": [float(x) for x in row]} for e, row in zip(ids, thetas)]
    printed = _write(inputs / "print.json", {"kind": "print", "modes": modes,
                                             "entries": entries})
    # the reads use a registry file written here, in the schema-1 layout
    registry = _write(inputs / "registry.json", {
        "schema_version": 1,
        "modes": [{"index": i, "omega": o, "gamma": g}
                  for i, (o, g) in enumerate(zip(modes["omega"], modes["gamma"]))],
        "entries": [dict(e, printed_at=0.0) for e in entries],
    })
    recall = _write(inputs / "recall.json", {
        "kind": "recall", "registry": registry, "time": time,
        "probe": {"thetas": [float(x) for x in probe]},
    })
    fidelity = _write(inputs / "fidelity.json", {
        "kind": "fidelity-matrix", "registry": registry, "time": time,
    })
    graph = _write(inputs / "graph.json", {
        "kind": "association-graph", "registry": registry, "time": time,
        "threshold": REGISTRY_THRESHOLD,
    })
    return [
        Step("print_s", ("print", "--config", printed),
             checks.print_check(omega, gamma, ids, thetas)),
        Step("recall_s", ("recall", "--config", recall),
             checks.recall_check(ids, thetas, probe, time)),
        Step("fidelity_s", ("associate", "--config", fidelity),
             checks.fidelity_check(ids, thetas, time)),
        Step("graph_s", ("associate", "--config", graph),
             checks.graph_check(ids, thetas, time, REGISTRY_THRESHOLD)),
    ]


def _trajectory(rng, inputs: Path) -> list[Step]:
    omega, gamma = _modes(rng, TRAJECTORY_K)
    lo, hi = TRAJECTORY_CODE
    start, stop, num = TRAJECTORY_GRID
    code_seed = int(rng.integers(2 ** 32))
    body = {
        "modes": _mode_doc(omega, gamma),
        "code": {"sample": {"lo": lo, "hi": hi, "seed": code_seed}},
        "times": {"start": start, "stop": stop, "num": num},
    }
    tr = checks.Trajectory(omega, gamma, lo, hi, code_seed, start, stop, num)
    steps = []
    for name, command, kind, check in (
            ("forgetting_s", "forgetting", "forgetting-curve", checks.forgetting_check),
            ("evolve_s", "evolve", "evolve", checks.evolve_check),
            ("thermo_s", "thermo-trace", "thermo-trace", checks.thermo_check)):
        config = _write(inputs / f"{command}.json", dict(body, kind=kind))
        steps.append(Step(name, (command, "--config", config), check(tr)))
    return steps


def _oracle(rng, inputs: Path) -> list[Step]:
    # the residual suite has no inputs to draw; the seed changes nothing here
    return [Step("oracle_s", ("oracle-verify", "--dim", str(ORACLE_DIM)),
                 checks.oracle_check(ORACLE_DIM))]


_WORKLOADS = {"pack": _pack, "registry": _registry, "trajectory": _trajectory,
             "oracle": _oracle}


def build(name: str, seed: int, inputs: Path) -> list[Step]:
    """Write the workload's inputs for `seed` into `inputs` and return its steps."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    return _WORKLOADS[name](rng, inputs)
