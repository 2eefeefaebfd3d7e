"""Command-line front end: reproducible memory experiments with artifacts.

Every run writes its outputs into ``--out`` as a set of files plus a
``manifest.json`` recording the exact invocation (the config's path and
``config_sha256``, the sha256 of the bytes read from it; seed, library
versions and numpy's SIMD targets, null for a run that loaded no numpy;
import and wall time, and ``work``: what the run added to each key of the
one process-wide counter table, `states._WORK`). Every run has the same
five keys: ``pairs``, the entry pairs it read (n(n - 1)/2 for
``associate``); ``exact_rows``, the rows the exact row sum took (a
pair's log-overlap, a recall score, a total at one time point);
``fsum_rows``, those of them it re-summed with ``math.fsum``; and
``taylor_stages`` and ``taylor_terms``, those of the oracle's matrix
exponentials, one matvec a term. ``summary.json`` holds the one echo of
the config.
``wall_time_s`` runs from parsing the config to the last artifact written
before the manifest, and ``artifacts`` lists every file the run wrote.
Each artifact, a JSON object, a CSV (header, rows) or finished lines, goes
to ``<name>.partial`` first, a CSV line by line (from arrays, 512 rows at
a time), so no CSV is held whole in memory (only the library's
`capacity_estimate`, `association_graph` and `first_law_ledger` build
records). Only when all
are complete are they renamed, ``manifest.json`` last; a failed run
deletes its ``.partial`` files, so ``--out`` holds the files it held.
Before the renames, the files that an earlier run's manifest in ``--out``
lists and this run does not write are deleted, so ``--out`` holds one
run's files.

Exit codes: 0 success, 1 usage/config/domain/registry/io errors (one
machine parsable line on stderr, ``error: <category>: <message>``), 2 when
``oracle-verify`` finds residuals over tolerance (the residual table is
still written, and stderr holds one ``error: verify:`` line).

Numbers in CSV cells are ``repr()`` of Python floats, so artifacts are
byte-stable across reruns; ``manifest.json`` differs only in its
``import_s`` and ``wall_time_s`` fields. ``fidelity.csv`` is streamed from
`capacity`'s upper-triangle row kernel, which reads the pairs in K-major
row rectangles, with no n x n matrix. Each line is written finished and
each value formatted once, 16 lines at a time: a line's cells after its
block also go to an anonymous file in the platform's temp directory
(deleted on close), and each block reads back, in one read per earlier
row, the cells below its diagonal. So memory is linear in n, about 0.4 KB
an entry (an offset, and its cells for one block of lines): cold, on
x86-64 Linux, 30.0 MB at 500 entries (K = 16), 32.3 at 1500.

Cyclic garbage is not freed at exit: `main` has the process freeze the
collector's objects instead of collecting them one last time (except under
``python -X dev``, where an unclosed file still warns). Every artifact is
written and closed by a ``with`` block before that.

A subcommand imports only the modules it uses: ``evolve`` and
``thermo-trace`` import `dqmem.thermo`, and only ``oracle-verify`` imports
`dqmem.fock`, which holds the residual suite and imports `dqmem.thermo`
itself. No subcommand imports ``numpy.random`` (with `secrets` and
OpenSSL, about 5 MB): ``capacity`` and a sampled code draw numpy's
``default_rng(seed)`` stream, bit for bit, from `dqmem._rng`, which only
they import. Past that, ``capacity`` imports what every subcommand does:
its quadrature reads a fixed Gauss-Legendre table, so no subcommand
imports ``numpy.polynomial`` or calls LAPACK. Every subcommand runs on
numpy alone; the closed-form ones on one Theta array per experiment (a
row per time point or registry entry) that matches the per-state
functions of `dqmem.states` and `thermo.thermo_snapshot` bit for bit.

numpy loads at its first array use: `dqmem.states` binds ``np`` to a
module that imports numpy at its first attribute access, and `capacity`
and this module take ``np`` from there. So ``import dqmem.cli`` imports no
numpy, and ``print``, which checks records and writes JSON, never loads
it; every other subcommand loads it inside `main`, after dqmem's modules
are compiled. On Linux `main` first pins glibc's mmap and trim thresholds
at 1 MiB, so the blocks of about 128 KB that the pair rectangles and the
packing scans free are reused, not unmapped and faulted back in, whatever
was freed before.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import itertools
import math
import os
import sys
import time
from collections.abc import Iterable

try:  # CPython's own SHA-256: hashlib loads OpenSSL, 3.7 MB of resident memory
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # a build without the built-in hashes
    from hashlib import sha256

from . import _IMPORT_STARTED, __version__
from .capacity import (
    CONFIG_KINDS,
    ExperimentConfig,
    FidelityMatrix,
    RegistryEntry,
    RegistryError,
    _association_edges,
    _capacity_sweep,
    _json_parts,
    _log_overlap_rows,
    _pair_frame,
    _read_json,
    _upper_overlaps,
    forgetting_curve,
    load_registry,
    new_registry,
    parse_experiment_config,
    registry_to_json,
)
from .states import _WORK, MemoryState, _gaps, _row_sums, np

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


# ---------------------------------------------------------------------------
# serialization helpers


def _csv_cell(cell) -> str:
    text = str(cell)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_lines(header: list[str], rows: Iterable):
    """RFC-4180 style lines: CRLF line ends, header row, repr'd floats.

    The bytes are those of csv.writer(lineterminator="\\r\\n") given the
    str of each cell (a float's is its repr), except that a row of one empty
    cell stays empty: that dialect quotes a cell, doubling its quotes, exactly
    when it holds a comma, a quote, CR or LF. A row is joined as is unless its
    line holds a quote, CR, LF or more commas than separators.
    """
    for row in itertools.chain([header], rows):
        line = ",".join(map(str, row))
        if line.count(",") >= len(row) or '"' in line or "\r" in line or "\n" in line:
            line = ",".join(map(_csv_cell, row))
        yield line + "\r\n"


_ROWS = 512  # rows a CSV takes from its column arrays at a time


def _rows(*columns):
    """The rows of equal-length 1-D array columns (a 2-D block passes as
    *block.T), _ROWS at a time with one tolist() per column block, so no
    table is held as Python objects whole."""
    for start in range(0, len(columns[0]), _ROWS):
        yield from zip(*(column[start:start + _ROWS].tolist() for column in columns))


def _listed_artifacts(out_dir: str) -> list[str]:
    """The artifact names in the manifest an earlier run left in out_dir:
    none when there is no such file or it is not a dqmem manifest, and only
    plain file names, so no listed path leaves out_dir."""
    try:
        doc = _read_json(os.path.join(out_dir, "manifest.json"), ValueError, "manifest")
    except (OSError, ValueError):
        return []
    if not (isinstance(doc, dict) and isinstance(doc.get("artifacts"), list)
            and isinstance(doc.get("command"), str) and doc["command"] in _COMMANDS):
        return []
    return [name for name in doc["artifacts"] if isinstance(name, str)
            and name not in ("", ".", "..") and os.path.basename(name) == name]


def _write_artifacts(out_dir: str, files: dict, manifest) -> None:
    """Writes one run's artifacts into out_dir, the manifest last.

    Each artifact goes to `<name>.partial` first: a dict as canonical JSON
    part by part (`_json_parts`, the bytes of `_json_text`), a (header,
    rows) CSV line by line and any other iterable as its finished lines.
    Then manifest(names), names being every file of the run sorted,
    manifest.json included, gives the manifest's dict, written likewise.
    Files that the manifest already in out_dir lists and this run does not
    write are deleted, and every `.partial` is renamed, manifest.json last.
    On any error the `.partial` files written so far are deleted.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = sorted([*files, "manifest.json"])
    partials = []

    def write(name: str, artifact) -> None:
        partials.append(os.path.join(out_dir, name + ".partial"))
        with open(partials[-1], "w", encoding="utf-8", newline="") as fh:
            if isinstance(artifact, dict):
                _json_parts(artifact, "\n", fh.write)
                fh.write("\n")
            elif isinstance(artifact, tuple):
                fh.writelines(_csv_lines(*artifact))
            else:  # finished lines
                fh.writelines(artifact)

    try:
        for name, artifact in files.items():
            write(name, artifact)
        write("manifest.json", manifest(names))
        for stale in sorted(set(_listed_artifacts(out_dir)).difference(names)):
            try:
                os.remove(os.path.join(out_dir, stale))
            except (FileNotFoundError, IsADirectoryError):
                pass
        for partial in partials:
            os.replace(partial, partial[:-len(".partial")])
    except BaseException:
        for partial in partials:
            try:
                os.remove(partial)
            except FileNotFoundError:
                pass
        raise


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> tuple[dict, str]:
    """The config object and the sha256 of the bytes it was read from."""
    digest = sha256()
    doc = _read_json(path, lambda message: CliError("config", message), "config", digest)
    if not isinstance(doc, dict):
        raise CliError("config", f"config {path} must hold a JSON object")
    return doc, digest.hexdigest()


def _kinds(command: str) -> list[str]:
    return [kind for kind, spec in CONFIG_KINDS.items() if spec.command == command]


def _parse_config(args) -> tuple[ExperimentConfig, str]:
    """Kind check, then the shared schema. Returns the config and the sha256
    of its file, which holds every value the run reads."""
    doc, sha256 = _load_config(args.config)
    kinds = _kinds(args.command)
    kind = doc.get("kind")
    if kind not in kinds:
        raise CliError("config",
                       f"config kind {kind!r} does not match subcommand "
                       f"'{args.command}' (expected one of {kinds})")
    try:
        return parse_experiment_config(doc), sha256
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (artifacts, results, stdout line). An
# artifact is a dict, a CSV (header, rows), its rows from _rows where they
# are arrays, or finished lines; main puts the results into summary.json.


def _run_print(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    if cfg.registry is not None:
        registry = load_registry(cfg.registry)
    else:
        registry = new_registry(cfg.modes)
    # one new registry for all the entries, each realized and then checked in
    # turn, as print_memory would, without a copy of the registry per entry
    modes = registry.modes
    registry = registry._extended(
        RegistryEntry(entry_id=entry_id, code=spec.realize(modes), printed_at=printed_at)
        for entry_id, spec, printed_at in cfg.entries)

    results = {
        "entry_count": len(registry.ids),
        "ids": list(registry.ids),
        "mode_count": registry.k,
    }
    return ({"registry.json": [registry_to_json(registry)]}, results,
            f"printed {len(cfg.entries)} entries ({len(registry.ids)} total)")


def _run_recall(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    """Scores the probe against each entry in the printing frame, with gaps
    (theta_i - probe) + gamma (p_i - p_min): the probe is read as printed at
    the registry's earliest printing time, and t must follow every printing."""
    t = cfg.time
    registry = load_registry(cfg.registry)
    codes, gammas, printed = _pair_frame(registry, t)
    if isinstance(cfg.probe, str):
        try:
            probe_code = registry.entry(cfg.probe).code
        except KeyError:
            raise CliError("config",
                           f"recall.probe.entry {cfg.probe!r} not in registry") from None
    else:
        probe_code = cfg.probe.realize(registry.modes)
    if len(probe_code) != registry.k:
        raise ValueError(f"code length {len(probe_code)} != mode count {registry.k}")
    gaps = _gaps(codes - probe_code.thetas, gammas, (printed - printed.min())[:, None])
    scores = list(map(math.exp, _log_overlap_rows(gaps).tolist()))
    best_id, best_score = max(zip(registry.ids, scores), key=lambda row: row[1])
    results = {
        "metric": "overlap",
        "best_id": best_id,
        "best_score": best_score,
        "eval_time": t,
        "staggered": bool(np.ptp(printed) > 0),
    }
    return ({"recall.csv": (["entry_id", "score"], zip(registry.ids, scores))}, results,
            f"best match {best_id} (score {best_score:.6g})")


def _run_evolve(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    from . import thermo
    modes, times = cfg.modes, np.asarray(cfg.times)  # checked by the config parser
    state = MemoryState(modes, cfg.code.realize(modes))
    k = len(modes)
    header = ["time", *(f"theta_{i}" for i in range(k)),
              *(f"occupation_{i}" for i in range(k)),
              "total_occupation", "entropy", "energy"]
    traj, occ, _, entropy, energy = thermo._trace(state, times)
    rows = _rows(times, *traj.T, *occ.T, _row_sums(occ), entropy, energy)

    results = {
        "mode_count": k,
        "time_points": len(times),
        "final_entropy": float(entropy[-1]),
        "final_energy": float(energy[-1]),
    }
    return ({"evolve.csv": (header, rows)}, results,
            f"tabulated {len(times)} points for {k} modes")


def _run_forgetting(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    code = cfg.code.realize(cfg.modes)
    curve = forgetting_curve(code, cfg.modes, cfg.times)
    artifacts = {
        "forgetting.csv": (
            ["time", "self_overlap", "vacuum_overlap", "total_occupation"],
            zip(curve.times, curve.self_overlap, curve.vacuum_overlap,
                curve.total_occupation)),
    }
    results = {
        "tau": curve.tau,
        "time_points": len(curve.times),
        "final_self_overlap": curve.self_overlap[-1],
    }
    tau = "inf" if math.isinf(curve.tau) else f"{curve.tau:.6g}"
    return artifacts, results, f"forgetting time tau = {tau}"


def _run_capacity(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    modes, theta_range, epsilon, count, seed, candidates, accepted, curve, mean_log = (
        _capacity_sweep(cfg.modes, cfg.theta_range, cfg.epsilon, cfg.candidates, cfg.seed))
    # candidate i is accepted iff the running count steps up at i
    rows = _rows(np.arange(count), np.diff(curve, prepend=0), np.array(curve))
    results = {
        "accepted_count": len(accepted),
        "accepted_indices": list(accepted),
        "accepted_codes": candidates[list(accepted)],
        "epsilon": epsilon,
        "theta_range": list(theta_range),
        "candidate_count": count,
        "seed": seed,
        "mode_count": len(modes),
        "expected_pair_overlap": math.exp(mean_log),
        "expected_pair_log_overlap": mean_log,
    }
    line = f"accepted {len(accepted)} of {count} candidates at epsilon {epsilon:g}"
    return ({"capacity.csv": (["candidate_index", "accepted", "accepted_count"], rows)},
            results, line)


_BLOCK = 16  # fidelity.csv lines made at a time; the cells a row reads back for them
_CELL = 24  # bytes of the longest cell, a float in [0, 1] (23 characters), and its comma


def _read_cells(scratch, offsets: list, j: int, m: int) -> list:
    """The next m cells of row j in the scratch file, from one positioned
    read of at most m * _CELL bytes at offsets[j], which moves past them."""
    scratch.seek(offsets[j])
    text = ""
    while text.count(",") < m:  # a raw read may return less than it was asked for
        text += scratch.read(m * _CELL).decode("ascii")
    cells = text.split(",", m)
    offsets[j] += len(text) - len(cells.pop())
    return cells


def _matrix_rows(ids, frame):
    """fidelity.csv's lines, each finished as it is made, from capacity's
    upper-triangle row kernel, each value formatted once. After the header,
    line i is _csv_cell of its id, the cells that lines 0..i-1 made for
    column i (the overlaps are symmetric bit for bit), 1.0, then the repr of
    its overlaps with the entries after it. Lines are made _BLOCK at a time.
    A line keeps its cells for the later columns of its block in memory and
    writes the rest, comma-ended, to an anonymous scratch file, closed on
    every path. At each block's start, each earlier row's next cells, one for
    each line of the block, come back in one read from its one offset; they
    are split at the first commas and transposed _BLOCK rows at a time with
    zip, so no Python step runs per cell."""
    import tempfile  # here, not at the top: print never loads it

    with tempfile.TemporaryFile(buffering=0) as scratch:
        yield from _csv_lines(["entry_id", *ids], ())
        offsets = []  # the file position of each earlier row's next unread cell
        for i, upper in enumerate(_upper_overlaps(frame)):
            b = i % _BLOCK
            if not b:  # a block starts: read back its cells below the diagonal
                m = min(_BLOCK, len(ids) - i)
                # each line's cells from earlier blocks, a string per _BLOCK rows
                lower = [[] for _ in range(m)]
                for group in range(0, i, _BLOCK):
                    for parts, column in zip(lower, zip(*(
                            _read_cells(scratch, offsets, j, m)
                            for j in range(group, min(group + _BLOCK, i))))):
                        parts.append(",".join(column))
                held = [[] for _ in range(m)]  # each line's cells from rows of its block
            cells = list(map(repr, upper))
            for column, cell in zip(held[b + 1:], cells):
                column.append(cell)
            yield ",".join([_csv_cell(ids[i]), *lower[b], *held[b], "1.0", *cells]) + "\r\n"
            offsets.append(scratch.seek(0, os.SEEK_END))
            # the cells past the block, comma-ended: none is an empty join
            data = ",".join([*cells[m - 1 - b:], ""]).encode("ascii")
            while data:  # a raw write may take only part of it
                data = data[scratch.write(data):]


def _run_associate(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    registry = load_registry(cfg.registry)
    n = len(registry.ids)
    if cfg.kind == "fidelity-matrix":
        # no file is opened before the time and printing times are checked
        frame = _pair_frame(registry, cfg.time)
        results = {
            "ids": list(registry.ids),
            "eval_time": cfg.time,
            "staggered": bool(np.ptp(frame[2]) > 0),
            "metric": FidelityMatrix.metric,
        }
        return ({"fidelity.csv": _matrix_rows(registry.ids, frame)},
                results, f"fidelity matrix over {n} entries")

    threshold, clusters, firsts, seconds, values = _association_edges(
        registry, cfg.time, cfg.threshold)
    results = {
        "ids": list(registry.ids),
        "threshold": threshold,
        "eval_time": cfg.time,
        "edge_count": len(values),
        "clusters": [list(c) for c in clusters],
    }
    line = (f"{len(values)} association edges, "
            f"{len(clusters)} clusters at threshold {threshold:g}")
    entry = registry.ids.__getitem__
    rows = zip(map(entry, firsts), map(entry, seconds), values)
    return {"edges.csv": (["entry_a", "entry_b", "fidelity"], rows)}, results, line


def _run_thermo_trace(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    from . import thermo
    state = MemoryState(cfg.modes, cfg.code.realize(cfg.modes))
    ts = np.asarray(cfg.times)  # checked by the config parser
    trace = thermo._trace(state, ts)
    traj, _, _, entropy, energy = trace
    fit, fit_residual = thermo._beta_fit(thermo._beta_energy(traj),
                                         thermo._energies(cfg.modes))
    delta_energy, heat, residual, flagged = thermo._ledger(state, ts, trace)
    max_resid = float(np.abs(residual).max(initial=0.0))
    artifacts = {
        "thermo.csv": (["time", "entropy", "energy", "beta_fit", "beta_fit_residual"],
                       _rows(ts, entropy, energy, fit, fit_residual)),
        "first_law.csv": (
            ["t_left", "t_right", "delta_energy", "heat", "residual", "flagged"],
            _rows(ts[:-1], ts[1:], delta_energy, heat, residual, flagged.view(np.int8))),
    }
    results = {
        "time_points": len(ts),
        "max_first_law_residual": max_resid,
        "flagged_intervals": int(flagged.sum()),
        "final_entropy": float(entropy[-1]),
        "final_energy": float(energy[-1]),
    }
    return artifacts, results, f"max first-law residual {max_resid:.3e}"


# ---------------------------------------------------------------------------
# oracle-verify


def _run_oracle_verify(dim: int) -> tuple[dict, dict, str]:
    if dim < 64:
        raise CliError("usage",
                       f"--dim must be >= 64 for oracle-verify, got {dim}")
    from . import fock
    rows = fock._verify_rows(dim)
    failed = [f"{r[0]}[{r[1]}]" for r in rows if r[5] == "fail"]
    results = {
        "dim": dim,
        "checks": len(rows),
        "failed": len(failed),
        "failed_checks": failed,
    }
    line = (f"{len(failed)} of {len(rows)} checks failed" if failed
            else f"all {len(rows)} checks within tolerance")
    return ({"residuals.csv": (["check", "detail", "value", "lo", "hi", "status"], rows)},
            results, line)


# ---------------------------------------------------------------------------
# driver


def _manifest(args, argv: list[str], config_sha256, seed, before: dict, names: list[str],
              wall: float) -> dict:
    """The manifest's JSON object. before is `_WORK` as it stood before
    the run; the manifest is written after every other artifact, so the
    work done while a CSV streams counts."""
    umath = (sys.modules.get("numpy._core._multiarray_umath")
             or sys.modules.get("numpy.core._multiarray_umath"))  # numpy 1.x
    return {
        "command": args.command,
        "argv": argv,
        "artifacts": names,
        "config_path": vars(args).get("config"),
        "config_sha256": config_sha256,
        "out": args.out,
        "seed": seed,
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "versions": {
            "python": sys.version.split()[0],  # platform.python_version() on CPython
            # the numpy this run loaded, None if none: reading np would load it
            "numpy": getattr(sys.modules.get("numpy.version"), "version", None),
            # the SIMD targets it dispatches to, which some artifacts' last bits follow
            "numpy_simd": umath and [
                t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]],
            "dqmem": __version__,
        },
        "import_s": _IMPORT_S,
        "wall_time_s": wall,
        "work": {key: count - before[key] for key, count in _WORK.items()},
    }


# subcommand -> (help, handler); a handler takes the parsed config, or the
# --dim of oracle-verify, the one subcommand that no config kind names
_COMMANDS = {
    "print": ("write coded memories into a registry file", _run_print),
    "recall": ("score a probe code against every registry entry", _run_recall),
    "evolve": ("tabulate per-mode state observables over a time grid", _run_evolve),
    "forgetting": ("self/vacuum overlap and occupation along decay", _run_forgetting),
    "capacity": ("greedy count of mutually distinguishable codes", _run_capacity),
    "associate": ("fidelity matrix or thresholded association graph", _run_associate),
    "thermo-trace": ("entropy/energy trace with a first-law ledger", _run_thermo_trace),
    "oracle-verify": ("run the Fock-space residual suite", _run_oracle_verify),
}


def _build_parser() -> argparse.ArgumentParser:
    """Each subcommand takes --out, --quiet and its one input: --config, or
    --dim for oracle-verify."""
    parser = _Parser(prog="dqmem", description="dissipative quantum memory experiments")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (text, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text, description=text)
        kinds = _kinds(name)
        if kinds:
            cmd.add_argument("--config", required=True, metavar="PATH",
                             help=f"JSON config of kind {' or '.join(kinds)}")
        else:
            cmd.add_argument("--dim", type=int, default=64, metavar="N",
                             help="cap on the oracle truncation dimension (at least 64)")
        cmd.add_argument("--out", metavar="DIR", default=".",
                         help="output directory (default: current directory)")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress informational stdout")
    return parser


def _dispatch(args) -> tuple[dict, dict, str, str, object, object, object, dict]:
    """Returns (artifacts, results, stdout line, kind, config echo, seed,
    config sha256, a copy of `_WORK` taken before the handler ran)."""
    handler = _COMMANDS[args.command][1]
    before = dict(_WORK)
    if "config" not in args:
        artifacts, results, line = handler(args.dim)
        meta = (args.command, {"dim": args.dim}, None, None)
    else:
        cfg, sha256 = _parse_config(args)
        artifacts, results, line = handler(cfg)
        meta = (cfg.kind, cfg.raw, cfg.seed, sha256)
    return (artifacts, results, line, *meta, before)


# glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, each pinned at 1 MiB
_MALLOC_THRESHOLDS = ((-3, 1 << 20), (-1, 1 << 20))


def _pin_malloc() -> list[int]:
    """Pins glibc's mmap and trim thresholds for this process and returns
    what mallopt gave for each, 1 on success: nothing off Linux, or where
    the C library cannot be loaded or has no mallopt.

    Otherwise glibc raises its mmap threshold only when a large block is
    freed, so whether a block of about 128 KB is mapped, or trimmed off the
    heap, and faulted back in each time depends on what was freed before.
    """
    if not sys.platform.startswith("linux"):
        return []
    import ctypes  # a run that computes pays nothing more: numpy's import loads it too

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return []
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return [mallopt(param, value) for param, value in _MALLOC_THRESHOLDS]


def main(argv: list[str] | None = None) -> int:
    _pin_malloc()
    # at exit, move every object out of the collector's reach, so the process
    # skips the final collection over numpy's and dqmem's module objects;
    # unregistering first keeps it one registration however often main runs.
    # A frozen object is never finalized, so an unclosed file in a cycle or a
    # module global would not warn: under -X dev the collection stays
    atexit.unregister(gc.freeze)
    if not sys.flags.dev_mode:
        atexit.register(gc.freeze)
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and friends
            return int(exc.code or 0)

        start = time.perf_counter()
        try:
            artifacts, results, line, kind, echo, seed, sha256, before = _dispatch(args)
            artifacts["summary.json"] = {
                "command": args.command,
                "kind": kind,
                "schema_version": SUMMARY_SCHEMA_VERSION,
                "config": echo,
                "results": results,
            }
            # a CSV's rows are computed as its file is written
            _write_artifacts(args.out, artifacts, lambda names: _manifest(
                args, argv, sha256, seed, before, names, time.perf_counter() - start))
        except RegistryError as exc:
            raise CliError("registry", str(exc)) from exc
        except (ValueError, OverflowError, MemoryError) as exc:  # fsum; an array numpy refuses
            raise CliError("domain", str(exc)) from exc

        if results.get("failed"):  # oracle-verify's checks over tolerance
            sys.stderr.write(f"error: verify: {line}\n")
            return 2
        if not args.quiet:
            print(line)
            print(f"wrote {len(artifacts) + 1} artifacts to {args.out}")
        return 0
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
