"""Per-layer tracing: spans around dqmem's public functions, and import times.

A Tracer replaces each traced function at every module attribute of the
loaded dqmem package that binds it (`dqmem.capacity.log_cosh` as well as
`dqmem.states.log_cosh`), so calls made through `from ... import` names are
caught too. A class is traced through its `__init__`. Spans (name, start,
end, parent span, invocation id) stay in memory until the caller writes
them out; `layer_metrics` reduces one pass's spans to the metric names in
BENCHMARK.json:

    <module>.<function>.calls    number of calls
    <module>.<function>.s        inclusive time of the outermost calls
    <module>.<function>.self_s   time minus the part its child spans cover
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self, metric_names):
        # traced function -> the metric suffixes it needs
        self.targets: dict[str, set[str]] = {}
        for metric in metric_names:
            target, _, kind = metric.rpartition(".")
            if kind in ("calls", "s", "self_s") and target.split(".")[0] in (
                    "states", "fock", "thermo", "capacity"):
                self.targets.setdefault(target, set()).add(kind)
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.invocation = -1
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(sid)
        self.spans.append((name, time.perf_counter(), None, parent, self.invocation))
        return sid

    def close(self, sid: int) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name, start, _, parent, inv = self.spans[sid]
        self.spans[sid] = (name, start, end, parent, inv)

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing

    def install(self) -> None:
        """Wrap every target at every dqmem module attribute that binds it."""
        wrapped = []
        for target in sorted(self.targets):
            module_name, _, attr = target.rpartition(".")
            try:
                module = importlib.import_module(f"dqmem.{module_name}")
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            make = self._count_wrapper if self.targets[target] == {"calls"} else self._span_wrapper
            if isinstance(original, type):
                self._undo.append((original, "__init__", original.__init__))
                original.__init__ = make(target, original.__init__)
                continue
            wrapper = make(target, original)
            wrapped.append(original)
            for owner in _dqmem_modules():
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._undo.append((owner, key, value))
                        setattr(owner, key, wrapper)
        left = [f"{m.__name__}.{key}" for m in _dqmem_modules()
                for key, value in vars(m).items() if any(value is f for f in wrapped)]
        if left:
            raise RuntimeError(f"tracer left bindings unwrapped: {left}")

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def reset(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()


def _dqmem_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "dqmem" or name.startswith("dqmem."))]


def layer_metrics(tracer: Tracer, names) -> dict[str, float]:
    """Reduce one pass's spans and counters to the requested span metrics."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_time = Counter(tracer.counts), Counter(), Counter()
    for sid, (name, start, end, parent, _) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_time[name] += duration - child_time[sid]
        outermost, p = True, parent
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            total[name] += duration
    out = {}
    for metric in names:
        target, _, kind = metric.rpartition(".")
        source = {"calls": calls, "s": total, "self_s": self_time}.get(kind)
        if source is not None:
            out[metric] = float(source.get(target, 0))
    return out


def write_spans(tracer: Tracer, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span,parent,invocation,name,start_s,end_s\n")
        for sid, (name, start, end, parent, inv) in enumerate(tracer.spans):
            fh.write(f"{sid},{parent},{inv},{name},{start!r},{end!r}\n")


# ---------------------------------------------------------------------------
# python -X importtime


MARK = "perfbench: importing dqmem.cli"


def import_times(stderr: str) -> tuple[float, float]:
    """(cumulative import time of dqmem.cli, of scipy within it), in seconds.

    Parses the `-X importtime` lines printed after MARK. Lines come in
    post-order with two spaces of indent per nesting level; scipy counts
    each outermost scipy module once.
    """
    lines = stderr.split(MARK, 1)[-1].splitlines()
    pending: list[tuple[int, tuple]] = []
    for line in lines:
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop()[1])
        pending.append((depth, (field.strip(), int(cumulative) * 1e-6, children)))
    roots = [node for _, node in pending]

    def scipy_time(node) -> float:
        name, cumulative, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative
        return sum(scipy_time(c) for c in children)

    return sum(n[1] for n in roots), sum(scipy_time(n) for n in roots)
