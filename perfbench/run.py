"""dqmem benchmark: cold CLI passes per workload, output checks, and a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the CLI of the checkout this file sits in (its `src/`), never an
installed copy. One pass runs the workload's steps (workloads.py) as cold
processes, one at a time: a closed loop with one client. Passes repeat
until S seconds have gone. Every artifact of the first pass is checked
against references computed in checks.py; every later pass must reproduce
the first pass's artifacts byte for byte (manifest.json aside).

--trace 0 reports the end-to-end metrics of BENCHMARK.json. --trace 1
reports the per-layer metrics: it runs one `python -X importtime` import,
then repeats a cold pass, an untraced in-process pass and a traced
in-process pass (tracing.py) until S seconds have gone.

The last line of stdout is the JSON result; the lines before it say what
was measured and which checks failed. No CPU pinning or cache control is
used; BLAS runs one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

# One BLAS thread, here and in every child (they inherit the environment):
# on two shared cores a second BLAS thread only spins, doubling the CPU of
# `oracle-verify` without shortening it and adding scheduler noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"


@dataclass
class Invocation:
    step: str
    kind: str                  # "cold"; in-process: "warmup", "plain" or "traced"
    out: Path
    wall: float
    setup: float | None = None
    cpu: float | None = None
    peak_mb: float | None = None
    artifact_bytes: int = 0
    module_file: str | None = None
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _stream_failures(code, stderr: str) -> list[str]:
    fails = [] if code == 0 else [f"exit code {code}"]
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    if errors:
        fails.append(f"stderr: {errors[0]}")
    if "Traceback" in stderr:
        fails.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
    return fails


def _fingerprint(inv: Invocation) -> None:
    files = sorted(p for p in inv.out.iterdir() if p.is_file()) if inv.out.is_dir() else []
    inv.artifact_bytes = sum(p.stat().st_size for p in files)
    inv.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in files if p.name != "manifest.json"}


def run_cold(step: workloads.Step, inv_dir: Path) -> Invocation:
    """One cold `dqmem` process, timed from spawn to exit."""
    inv_dir.mkdir(parents=True)
    out, mark = inv_dir / "out", inv_dir / "mark.json"
    argv = [sys.executable, str(HERE / "launch.py"), str(SRC), str(mark),
            *step.argv, "--out", str(out)]
    with open(inv_dir / "stdout", "wb") as so, open(inv_dir / "stderr", "wb") as se:
        start = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, cwd=inv_dir)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = Invocation(step.name, "cold", out, wall, cpu=usage.ru_utime + usage.ru_stime)
    stderr = (inv_dir / "stderr").read_text(encoding="utf-8", errors="replace")
    inv.failures = _stream_failures(proc.returncode, stderr)
    try:
        doc = json.loads(mark.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        inv.failures.append("the launcher never reached dqmem.cli.main")
    else:
        inv.setup = doc["ready"] - start
        inv.peak_mb = doc["peak_kb"] / 1024.0
        inv.module_file = doc["dqmem_file"]
        if not Path(inv.module_file).resolve().is_relative_to(SRC.resolve()):
            inv.failures.append(f"dqmem imported from {inv.module_file}, not from {SRC}")
    _fingerprint(inv)
    return inv


def run_inprocess(cli_main, step: workloads.Step, inv_dir: Path, kind: str,
                  tracer=None) -> Invocation:
    """One `dqmem.cli.main(argv)` call in this process, optionally inside a span."""
    out = inv_dir / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    code = None
    start = time.perf_counter()
    sid = tracer.open("cli.main") if tracer else None
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli_main([*step.argv, "--out", str(out)])
    except Exception:
        stderr.write(traceback.format_exc())
    finally:
        if tracer:
            tracer.close(sid)
    inv = Invocation(step.name, kind, out, time.perf_counter() - start)
    inv.failures = _stream_failures(code, stderr.getvalue())
    _fingerprint(inv)
    return inv


class Ledger:
    """Every invocation of a run; keeps each step's first outputs for the full check."""

    def __init__(self, steps):
        self.steps = steps
        self.invocations: list[Invocation] = []
        self.first: dict[str, Invocation] = {}

    def add(self, inv: Invocation) -> None:
        self.invocations.append(inv)
        first = self.first.setdefault(inv.step, inv)
        if first is not inv:
            if inv.digests != first.digests:
                changed = sorted(k for k in set(inv.digests) | set(first.digests)
                                 if inv.digests.get(k) != first.digests.get(k))
                inv.failures.append(f"artifacts differ from the first pass: {changed}")
            shutil.rmtree(inv.out, ignore_errors=True)

    def check(self) -> None:
        """Check each step's first artifacts; identical later passes share the verdict."""
        for step in self.steps:
            first = self.first.get(step.name)
            if first is None:
                continue
            verdict = step.check(first.out)
            for inv in self.invocations:
                if inv.step == step.name and inv.digests == first.digests:
                    inv.failures.extend(verdict)
            shutil.rmtree(first.out, ignore_errors=True)

    @property
    def failed(self) -> int:
        return sum(1 for inv in self.invocations if inv.failures)


def _median(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise SystemExit("perfbench: no samples for a metric; see the failures above")
    return float(statistics.median(values))


def _header(args) -> None:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "not installed"
    print(f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"perfbench: python {platform.python_version()}, numpy {np.__version__}, "
          f"scipy {scipy_version}, nproc {os.cpu_count()}, cpu {cpu}")
    print("perfbench: no CPU pinning or cache control; one child process at a time; "
          "one BLAS thread")


def _report(ledger: Ledger, passes: int) -> None:
    files = sorted({i.module_file for i in ledger.invocations if i.module_file})
    print(f"perfbench: dqmem.__file__ in the children: {files}")
    for step in ledger.steps:
        invs = [i for i in ledger.invocations if i.step == step.name]
        for kind in ("cold", "warmup", "plain", "traced"):
            walls = [i.wall for i in invs if i.kind == kind]
            if walls:
                print(f"perfbench: step {step.name} {kind}: n={len(walls)} "
                      f"median={statistics.median(walls):.4f}s min={min(walls):.4f}s "
                      f"max={max(walls):.4f}s")
        messages: dict[str, int] = {}
        for inv in invs:
            for msg in inv.failures:
                messages[msg] = messages.get(msg, 0) + 1
        for msg, n in messages.items():
            print(f"perfbench: FAIL {step.name} ({n} of {len(invs)} invocations): {msg}")
    print(f"perfbench: {passes} passes, {len(ledger.invocations)} invocations, "
          f"{ledger.failed} failed")


def measure_cold(steps, run_dir: Path, seconds: float, ledger: Ledger) -> dict:
    """Cold passes until `seconds` have gone; the end-to-end metrics."""
    passes = []
    deadline = time.monotonic() + seconds
    while not passes or time.monotonic() < deadline:
        pass_dir = run_dir / f"cold{len(passes)}"
        invs = [run_cold(step, pass_dir / step.name) for step in steps]
        for inv in invs:
            ledger.add(inv)
        passes.append(invs)
    ledger.check()
    _report(ledger, len(passes))
    return {
        "setup_s": _median(i.setup for i in ledger.invocations),
        "wall_s": _median(sum(i.wall for i in p) for p in passes),
        "cpu_s": _median(sum(i.cpu for i in p) for p in passes),
        "peak_rss_mb": _median(max((i.peak_mb for i in p if i.peak_mb is not None), default=None)
                               for p in passes),
        "ok_rate": (len(ledger.invocations) - ledger.failed) / len(ledger.invocations),
    }


def _import_times() -> tuple[float, float]:
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            f"sys.stderr.write({tracing.MARK!r} + '\\n'); import dqmem.cli")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: importing dqmem.cli failed:\n{proc.stderr[-2000:]}")
    return tracing.import_times(proc.stderr)


def measure_traced(steps, run_dir: Path, seconds: float, ledger: Ledger, names,
                   workload: str) -> dict:
    """Per-layer metrics: import breakdown, cold step times, traced in-process passes."""
    import_s, scipy_s = _import_times()
    sys.path.insert(0, str(SRC))
    import dqmem
    from dqmem.cli import main as cli_main
    if not Path(dqmem.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: dqmem imported from {dqmem.__file__}, not from {SRC}")

    tracer = tracing.Tracer(names)

    def in_process_pass(kind: str, it: int) -> tuple[float, list[Invocation]]:
        traced = kind == "traced"
        if traced:
            tracer.reset()
            tracer.install()
        invs = []
        start = time.perf_counter()
        try:
            for step in steps:
                tracer.invocation += 1
                invs.append(run_inprocess(cli_main, step, run_dir / f"{kind}{it}" / step.name,
                                          kind, tracer if traced else None))
        finally:
            if traced:
                tracer.uninstall()
        return time.perf_counter() - start, invs

    # one untimed in-process pass first, so that neither timed side pays
    # for first-call set-up inside numpy and scipy
    for inv in in_process_pass("warmup", 0)[1]:
        ledger.add(inv)
    cold, overhead, layers, artifact_bytes = [], [], [], []
    deadline = time.monotonic() + seconds
    while not layers or time.monotonic() < deadline:
        it = len(layers)
        invs = [run_cold(step, run_dir / f"cold{it}" / step.name) for step in steps]
        cold.extend(invs)
        # alternate which in-process side runs first, and pair them up
        walls = {}
        for kind in ("plain", "traced")[::-1 if it % 2 else 1]:
            walls[kind], side = in_process_pass(kind, it)
            invs += side
            if kind == "traced":
                layers.append(tracing.layer_metrics(tracer, names))
                artifact_bytes.append(sum(i.artifact_bytes for i in side))
        overhead.append(walls["traced"] - walls["plain"])
        for inv in invs:
            ledger.add(inv)
    ledger.check()
    _report(ledger, len(layers))
    if tracer.missing:
        print(f"perfbench: not found, reported as 0: {tracer.missing}")
    WORK.mkdir(exist_ok=True)
    tracing.write_spans(tracer, WORK / f"trace-{workload}.csv")
    print(f"perfbench: spans of the last traced pass in {WORK / f'trace-{workload}.csv'}")

    step_walls: dict[str, list[float]] = {}
    for inv in cold:
        step_walls.setdefault(inv.step, []).append(inv.wall)
    metrics = {}
    for name in names:
        if name == "cli.import_s":
            metrics[name] = import_s
        elif name == "cli.import.scipy_s":
            metrics[name] = scipy_s
        elif name == "cli.artifact_bytes":
            metrics[name] = _median(artifact_bytes)
        elif name == "trace.overhead_s":
            metrics[name] = _median(overhead)
        elif name in workloads.STEP_METRICS:
            metrics[name] = _median(step_walls[name]) if name in step_walls else 0.0
        else:
            metrics[name] = _median(layer.get(name, 0.0) for layer in layers)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    if not (SRC / "dqmem" / "cli.py").is_file():
        print(f"perfbench: no dqmem sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}

    _header(args)
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        inputs = run_dir / "inputs"
        inputs.mkdir()
        steps = workloads.build(args.workload, args.seed, inputs)
        ledger = Ledger(steps)
        if args.trace:
            metrics = measure_traced(steps, run_dir, args.seconds, ledger, list(units),
                                     args.workload)
        else:
            metrics = measure_cold(steps, run_dir, args.seconds, ledger)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted, failed = len(ledger.invocations), ledger.failed
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
