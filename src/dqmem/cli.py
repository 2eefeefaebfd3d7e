"""Command-line front end: reproducible memory experiments with artifacts.

Every run writes its outputs into ``--out`` as a set of files plus a
``manifest.json`` recording the exact invocation (config echo, seed,
library versions, import and wall time). Outputs are buffered in memory
and written atomically at the end of a successful run, so a crashed run
leaves at worst ``*.partial`` files and never a truncated artifact.

Exit codes: 0 success, 1 usage/config/domain/registry/io/dependency
errors (one machine parsable line on stderr,
``error: <category>: <message>``), 2 when ``oracle-verify`` finds
residuals over tolerance (the residual table is still written).

Numbers in CSV cells are ``repr()`` of Python floats, so artifacts are
byte-stable across reruns; ``manifest.json`` differs only in its
``import_s`` and ``wall_time_s`` fields.

Only ``oracle-verify`` imports `dqmem.fock`, and with it scipy; every other
subcommand runs on numpy alone.
"""

from __future__ import annotations

import argparse
import csv
import importlib.metadata
import io
import json
import math
import os
import platform
import sys
import time
from collections.abc import Mapping

import numpy as np

from . import _IMPORT_STARTED, __version__
from . import thermo
from .capacity import (
    CONFIG_KINDS,
    ExperimentConfig,
    RegistryError,
    association_graph,
    capacity_estimate,
    fidelity_matrix,
    forgetting_curve,
    load_registry,
    new_registry,
    parse_experiment_config,
    print_memory,
    registry_to_json,
)
from .states import MemoryState, effective_thetas, overlap

SUMMARY_SCHEMA_VERSION = 1


class CliError(Exception):
    """Carries the stderr category for the one-line error report."""

    def __init__(self, category: str, message: str):
        super().__init__(message)
        self.category = category


class _Parser(argparse.ArgumentParser):
    # argparse wants to exit(2) on bad usage; route through the 0/1/2 taxonomy
    def error(self, message):
        raise CliError("usage", message)


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="experiment config (JSON)")
    common.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current directory)")
    common.add_argument("--seed", type=int, metavar="U64",
                        help="default seed when the config omits one")
    common.add_argument("--epsilon", type=float, metavar="F",
                        help="default distinguishability threshold")
    common.add_argument("--dim", type=int, default=64, metavar="N",
                        help="oracle truncation dimension (oracle-verify)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress informational stdout")

    parser = _Parser(prog="dqmem",
                     description="dissipative quantum memory experiments")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    helps = {
        "print": "write coded memories into a registry file",
        "recall": "score a probe code against every registry entry",
        "evolve": "tabulate per-mode state observables over a time grid",
        "forgetting": "self/vacuum overlap and occupation along decay",
        "capacity": "greedy count of mutually distinguishable codes",
        "associate": "fidelity matrix or thresholded association graph",
        "thermo-trace": "entropy/energy trace with a first-law ledger",
        "oracle-verify": "run the Fock-space residual suite",
    }
    for name, text in helps.items():
        sub.add_parser(name, parents=[common], help=text, description=text)
    return parser


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    """Plain-JSON view: tuples to lists, non-finite floats to strings."""
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


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    """RFC-4180 style: CRLF line ends, header row, repr'd floats."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(c) if isinstance(c, float) else str(c) for c in row])
    return buf.getvalue()


def _write_artifacts(out_dir: str, files: dict[str, str]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files.items():
        final = os.path.join(out_dir, name)
        partial = final + ".partial"
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(partial, final)


def _summary(command: str, kind: str, config_echo, results: dict) -> str:
    return _json_text({
        "command": command,
        "kind": kind,
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "config": config_echo,
        "results": results,
    })


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliError("config", f"malformed config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("config", f"config {path} must hold a JSON object")
    return doc


def _parse_config(args) -> ExperimentConfig:
    """Kind check, flag defaults, then the shared schema; config values win."""
    if args.config is None:
        raise CliError("usage", f"subcommand '{args.command}' needs --config")
    doc = _load_config(args.config)
    kinds = [k for k, spec in CONFIG_KINDS.items() if spec.command == args.command]
    kind = doc.get("kind")
    if kind not in kinds:
        raise CliError("config",
                       f"config kind {kind!r} does not match subcommand "
                       f"'{args.command}' (expected one of {kinds})")
    for key, flag in CONFIG_KINDS[kind].flags:
        if key not in doc and getattr(args, flag) is not None:
            doc[key] = getattr(args, flag)
    try:
        return parse_experiment_config(doc)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (artifacts, stdout line, exit code)


def _run_print(cfg: ExperimentConfig) -> tuple[dict[str, str], str, int]:
    if cfg.registry is not None:
        registry = load_registry(cfg.registry)
    else:
        registry = new_registry(cfg.modes)
    for entry_id, spec, printed_at in cfg.entries:
        registry = print_memory(registry, entry_id, spec.realize(registry.modes),
                                printed_at=printed_at)

    artifacts = {
        "registry.json": registry_to_json(registry),
        "summary.json": _summary("print", cfg.kind, cfg.raw, {
            "entry_count": len(registry.entries),
            "ids": list(registry.ids),
            "mode_count": registry.k,
        }),
    }
    return artifacts, (f"printed {len(cfg.entries)} entries "
                       f"({len(registry.entries)} total)"), 0


def _run_recall(cfg: ExperimentConfig) -> tuple[dict[str, str], str, int]:
    t = cfg.time
    registry = load_registry(cfg.registry)
    if isinstance(cfg.probe, str):
        if cfg.probe not in registry.ids:
            raise CliError("config",
                           f"recall.probe.entry {cfg.probe!r} not in registry")
        probe_code = registry.entry(cfg.probe).code
    else:
        probe_code = cfg.probe.realize(registry.modes)

    probe_state = MemoryState(registry.modes, probe_code, t)
    rows = []
    best_id, best_score = None, -1.0
    for ent in registry.entries:
        elapsed = t - ent.printed_at if cfg.staggered else t
        if elapsed < 0.0:
            raise ValueError(
                f"evaluation time {t} precedes printed_at {ent.printed_at} "
                f"of entry '{ent.entry_id}'")
        score = overlap(probe_state,
                        MemoryState(registry.modes, ent.code, elapsed))
        rows.append([ent.entry_id, float(score)])
        if score > best_score:
            best_id, best_score = ent.entry_id, float(score)

    artifacts = {
        "recall.csv": _csv_text(["entry_id", "score"], rows),
        "summary.json": _summary("recall", cfg.kind, cfg.raw, {
            "metric": "overlap",
            "best_id": best_id,
            "best_score": best_score,
            "eval_time": t,
            "staggered": cfg.staggered,
        }),
    }
    return artifacts, f"best match {best_id} (score {best_score:.6g})", 0


def _run_evolve(cfg: ExperimentConfig) -> tuple[dict[str, str], str, int]:
    modes, times = cfg.modes, cfg.times
    code = cfg.code.realize(modes)
    k = len(modes)
    header = (["time"]
              + [f"theta_{i}" for i in range(k)]
              + [f"occupation_{i}" for i in range(k)]
              + ["total_occupation", "entropy", "energy"])
    rows = []
    for t in times:
        state = MemoryState(modes, code, t)
        thetas = effective_thetas(state)
        snap = thermo.thermo_snapshot(state)
        occ = np.sinh(thetas) ** 2
        rows.append([float(t)]
                    + [float(x) for x in thetas]
                    + [float(x) for x in occ]
                    + [float(np.sum(occ)), snap.entropy, snap.energy])

    artifacts = {
        "evolve.csv": _csv_text(header, rows),
        "summary.json": _summary("evolve", cfg.kind, cfg.raw, {
            "mode_count": k,
            "time_points": len(times),
            "final_entropy": rows[-1][-2],
            "final_energy": rows[-1][-1],
        }),
    }
    return artifacts, f"tabulated {len(times)} points for {k} modes", 0


def _run_forgetting(cfg: ExperimentConfig) -> tuple[dict[str, str], str, int]:
    code = cfg.code.realize(cfg.modes)
    curve = forgetting_curve(code, cfg.modes, cfg.times)
    rows = [[t, s, v, n] for t, s, v, n in
            zip(curve.times, curve.self_overlap, curve.vacuum_overlap,
                curve.total_occupation)]
    artifacts = {
        "forgetting.csv": _csv_text(
            ["time", "self_overlap", "vacuum_overlap", "total_occupation"], rows),
        "summary.json": _summary("forgetting", cfg.kind, cfg.raw, {
            "tau": curve.tau,
            "time_points": len(curve.times),
            "final_self_overlap": curve.self_overlap[-1],
        }),
    }
    tau = "inf" if math.isinf(curve.tau) else f"{curve.tau:.6g}"
    return artifacts, f"forgetting time tau = {tau}", 0


def _run_capacity(cfg: ExperimentConfig) -> tuple[dict[str, str], str, int]:
    report = capacity_estimate(cfg.modes, cfg.theta_range, cfg.epsilon,
                               cfg.candidates, cfg.seed)
    accepted = set(report.accepted_indices)
    rows = [[i, int(i in accepted), c]
            for i, c in enumerate(report.acceptance_curve)]
    artifacts = {
        "capacity.csv": _csv_text(["candidate_index", "accepted", "accepted_count"],
                                  rows),
        "summary.json": _summary("capacity", cfg.kind, cfg.raw, {
            "accepted_count": report.accepted_count,
            "accepted_indices": list(report.accepted_indices),
            "accepted_codes": [list(c.thetas) for c in report.accepted_codes],
            "epsilon": report.epsilon,
            "theta_range": list(report.theta_range),
            "candidate_count": report.candidate_count,
            "seed": report.seed,
            "mode_count": len(report.modes),
            "expected_pair_overlap": report.expected_pair_overlap,
            "expected_pair_log_overlap": report.expected_pair_log_overlap,
        }),
    }
    line = (f"accepted {report.accepted_count} of {report.candidate_count} "
            f"candidates at epsilon {report.epsilon:g}")
    return artifacts, line, 0


def _run_associate(cfg: ExperimentConfig) -> tuple[dict[str, str], str, int]:
    registry = load_registry(cfg.registry)
    if cfg.kind == "fidelity-matrix":
        fm = fidelity_matrix(registry, cfg.time, staggered=cfg.staggered)
        rows = [[fm.ids[i]] + [float(x) for x in fm.values[i]]
                for i in range(len(fm.ids))]
        artifacts = {
            "fidelity.csv": _csv_text(["entry_id"] + list(fm.ids), rows),
            "summary.json": _summary("associate", cfg.kind, cfg.raw, {
                "ids": list(fm.ids),
                "eval_time": fm.eval_time,
                "staggered": fm.staggered,
                "metric": fm.metric,
            }),
        }
        return artifacts, f"fidelity matrix over {len(fm.ids)} entries", 0

    graph = association_graph(registry, cfg.time, cfg.threshold,
                              staggered=cfg.staggered)
    rows = [[a, b, w] for a, b, w in graph.edges]
    artifacts = {
        "edges.csv": _csv_text(["entry_a", "entry_b", "fidelity"], rows),
        "summary.json": _summary("associate", cfg.kind, cfg.raw, {
            "ids": list(graph.ids),
            "threshold": graph.threshold,
            "eval_time": graph.eval_time,
            "edge_count": len(graph.edges),
            "clusters": [list(c) for c in graph.clusters],
        }),
    }
    line = (f"{len(graph.edges)} association edges, "
            f"{len(graph.clusters)} clusters at threshold {graph.threshold:g}")
    return artifacts, line, 0


def _run_thermo_trace(cfg: ExperimentConfig) -> tuple[dict[str, str], str, int]:
    code = cfg.code.realize(cfg.modes)
    state = MemoryState(cfg.modes, code, 0.0)
    rows = []
    for t in cfg.times:
        snap = thermo.thermo_snapshot(MemoryState(cfg.modes, code, float(t)))
        rows.append([snap.time, snap.entropy, snap.energy,
                     snap.beta_fit, snap.beta_fit_residual])
    ledger = thermo.first_law_ledger(state, cfg.times)
    led_rows = [
        [ledger.times[i], ledger.times[i + 1], ledger.delta_energy[i],
         ledger.entropy_term[i], ledger.residual[i], int(ledger.flagged[i])]
        for i in range(len(ledger.delta_energy))
    ]
    max_resid = max((abs(r) for r in ledger.residual), default=0.0)
    artifacts = {
        "thermo.csv": _csv_text(
            ["time", "entropy", "energy", "beta_fit", "beta_fit_residual"], rows),
        "first_law.csv": _csv_text(
            ["t_left", "t_right", "delta_energy", "heat", "residual", "flagged"],
            led_rows),
        "summary.json": _summary("thermo-trace", cfg.kind, cfg.raw, {
            "time_points": len(cfg.times),
            "max_first_law_residual": max_resid,
            "flagged_intervals": int(sum(ledger.flagged)),
            "final_entropy": rows[-1][1],
            "final_energy": rows[-1][2],
        }),
    }
    return artifacts, f"max first-law residual {max_resid:.3e}", 0


# ---------------------------------------------------------------------------
# oracle-verify


def _verify_rows(dim: int) -> list[list]:
    """Residual suite rows: [check, detail, value, lo, hi, status]."""
    try:
        from . import fock
    except ImportError as exc:
        raise CliError("dependency",
                       f"oracle-verify needs scipy (pip install 'dqmem[oracle]'): "
                       f"{exc}") from exc
    rows: list[list] = []

    def add(check: str, detail: str, value: float, lo: float, hi: float):
        status = "pass" if lo <= value <= hi else "fail"
        rows.append([check, detail, float(value), float(lo), float(hi), status])

    # operator algebra on the interior of a small space
    ws32 = fock.build_workspace(32)
    for name, resid in fock.algebra_residuals(ws32).items():
        add("algebra", name, resid, 0.0, 1e-12)

    ws = fock.build_workspace(dim)

    # two constructions of the same coded vacuum must agree
    for theta in (0.3, 0.5, 0.8):
        direct = fock.memory_vector(ws, theta)
        via_gen = fock.memory_vector_via_generator(ws, theta)
        add("dual-construction", f"theta={theta}",
            float(np.linalg.norm(direct - via_gen)), 0.0, 1e-10)

    # dissipative evolution against the closed-form trajectory
    for theta, t in ((0.3, 0.15), (0.5, 0.25), (0.8, 0.4), (0.8, 0.8)):
        v0 = fock.memory_vector(ws, theta)
        w = fock.evolve_vector(ws, v0, t, theta=theta)
        target = fock.memory_vector(ws, theta - ws.gamma * t)
        add("evolution", f"theta={theta},t={t}",
            float(np.linalg.norm(w - target)), 0.0, 1e-10)
        add("unitarity", f"theta={theta},t={t}",
            abs(float(np.linalg.norm(w)) - 1.0), 0.0, 1e-10)

    # closed-form observables against oracle expectations
    for theta in (0.1, 0.3, 0.5, 0.8, 1.0, 1.2):
        for frac in (0.0, 0.5, 2.0):  # of tau, at gamma = 1
            t_eff = theta * frac
            big_t = t_eff - theta
            v = fock.memory_vector(ws, -big_t)
            add("occupation", f"Theta={big_t:.3g}",
                abs(fock.occupation_expectation(ws, v) - math.sinh(big_t) ** 2),
                0.0, 1e-8)
            add("vacuum-overlap", f"Theta={big_t:.3g}",
                abs(fock.oracle_overlap(v, ws.vacuum()) - 1.0 / math.cosh(big_t)),
                0.0, 1e-8)
            q = fock.quadrature_variances(ws, v)
            add("variances", f"Theta={big_t:.3g}",
                max(abs(q.dx2 - 0.25 * math.exp(-2.0 * big_t)),
                    abs(q.dy2 - 0.25 * math.exp(2.0 * big_t))),
                0.0, 1e-8)
            add("weight", f"Theta={big_t:.3g}",
                abs(fock.weight_expectation(ws, v) - math.sinh(big_t) ** 2),
                0.0, 1e-8)
            if big_t != 0.0:
                x = math.sinh(big_t) ** 2
                s_closed = (1.0 + x) * math.log1p(x) - x * math.log(x)
                add("entropy", f"Theta={big_t:.3g}",
                    abs(fock.entropy_expectation(ws, v, big_t) - s_closed),
                    0.0, 1e-8)

    # squeeze factorization of the coded vacuum
    for theta in (0.25, 0.5, 1.0):
        add("squeeze-factorization", f"theta={theta}",
            fock.check_squeeze_factorization(ws, theta), 0.0, 1e-8)

    # entropy flow: central-difference residual and its halving ratio
    for big_t in (0.1, 0.5, 1.0):
        theta = big_t + 0.3
        t = 0.3
        r1 = fock.check_entropy_flow(ws, theta, 1.0, t, 1e-4)
        r2 = fock.check_entropy_flow(ws, theta, 1.0, t, 5e-5)
        add("entropy-flow", f"Theta={-big_t}", r1, 0.0, 1e-6)
        add("entropy-flow-ratio", f"Theta={-big_t}",
            r1 / r2 if r2 > 0.0 else 4.0, 3.5, 4.5)

    # hole relations at both signs of the effective parameter
    for mag in (0.1, 0.4, 0.8, 1.2):
        for sign in (1.0, -1.0):
            big_t = sign * mag
            v = fock.memory_vector(ws, -big_t)
            r1, r2 = fock.check_hole_relations(ws, v, big_t)
            add("hole-relations", f"Theta={big_t}", max(r1, r2), 0.0, 1e-8)

    return rows


def _run_oracle_verify(args) -> tuple[dict[str, str], str, int]:
    dim = int(args.dim)
    if dim < 64:
        raise CliError("usage",
                       f"--dim must be >= 64 for oracle-verify, got {dim}")
    rows = _verify_rows(dim)
    failed = [r for r in rows if r[5] == "fail"]
    echo = {"dim": dim}
    artifacts = {
        "residuals.csv": _csv_text(
            ["check", "detail", "value", "lo", "hi", "status"], rows),
        "summary.json": _summary("oracle-verify", "oracle-verify", echo, {
            "dim": dim,
            "checks": len(rows),
            "failed": len(failed),
            "failed_checks": [f"{r[0]}[{r[1]}]" for r in failed],
        }),
    }
    if failed:
        return artifacts, f"{len(failed)} of {len(rows)} checks failed", 2
    return artifacts, f"all {len(rows)} checks within tolerance", 0


# ---------------------------------------------------------------------------
# driver


def _version(package: str) -> str:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def _manifest(args, argv: list[str], config_echo, seed, wall: float) -> str:
    return _json_text({
        "command": args.command,
        "argv": argv,
        "config_path": args.config,
        "config": config_echo,
        "out": args.out,
        "seed": seed,
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": _version("scipy"),
            "dqmem": __version__,
        },
        "import_s": _IMPORT_S,
        "wall_time_s": wall,
    })


_HANDLERS = {
    "print": _run_print,
    "recall": _run_recall,
    "evolve": _run_evolve,
    "forgetting": _run_forgetting,
    "capacity": _run_capacity,
    "associate": _run_associate,
    "thermo-trace": _run_thermo_trace,
}


def _dispatch(args) -> tuple[dict[str, str], str, int, object, object]:
    """Returns (artifacts, stdout line, exit code, config echo, seed)."""
    if args.command == "oracle-verify":
        if args.config is not None:
            raise CliError("usage", "oracle-verify takes no --config")
        artifacts, line, code = _run_oracle_verify(args)
        return artifacts, line, code, {"dim": int(args.dim)}, None

    cfg = _parse_config(args)
    artifacts, line, code = _HANDLERS[args.command](cfg)
    return artifacts, line, code, cfg.raw, cfg.seed


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)

        if args.seed is not None and not (0 <= args.seed < 2 ** 64):
            raise CliError("usage", f"--seed must fit in a u64, got {args.seed}")

        start = time.perf_counter()
        try:
            artifacts, line, exit_code, echo, seed = _dispatch(args)
        except RegistryError as exc:
            raise CliError("registry", str(exc)) from exc
        except ValueError as exc:
            raise CliError("domain", str(exc)) from exc
        wall = time.perf_counter() - start

        artifacts["manifest.json"] = _manifest(args, argv, echo, seed, wall)
        _write_artifacts(args.out, artifacts)

        if exit_code == 2:
            sys.stderr.write(f"error: verify: {line}\n")
        elif not args.quiet:
            print(line)
            print(f"wrote {len(artifacts)} artifacts to {args.out}")
        return exit_code
    except CliError as exc:
        msg = " ".join(str(exc).split())
        sys.stderr.write(f"error: {exc.category}: {msg}\n")
        return 1
    except OSError as exc:
        msg = " ".join(str(exc).split())
        sys.stderr.write(f"error: io: {msg}\n")
        return 1


# from the first line of dqmem/__init__.py to here, where main can start
_IMPORT_S = time.perf_counter() - _IMPORT_STARTED

if __name__ == "__main__":
    sys.exit(main())
