"""Layer wrappers, span recorder and per-layer metrics of the sweep
benchmark's traced passes.

The wrappers sit around the public entry point of each layer, installed
from outside the program by :func:`install` before the sweep starts.
Every name is wrapped where it is looked up: a module-level function is
rebound in every ``repro`` module that imported it by name
(``repro.engine.session.cache_key``, ``repro.kernels.suite.record_trace``,
``repro.pipeline.processor.get_specialized_loop``, ...), a method on its
class.

A span is ``[name, start, end, parent, note]``: ``parent`` indexes the
enclosing span of the same process (``-1`` at the root) and ``note``
keeps what a layer metric needs from the call's result (simulated
cycles, store hit).  Spans stay in memory and are appended to
``<trace dir>/<pid>.jsonl`` when the driver finishes, and in a pool
worker when each task finishes; every line carries the pid and the
run id.  The memory model is called millions of times per sweep, so
it gets counters (calls, seconds) instead of spans, in a pass of its
own: the wrapper's cost would otherwise land in the processor's self
time.

Pool workers are forked from the driver, so they inherit the wrappers;
the task wrapper drops the spans a worker inherited from the driver the
first time it runs in a new process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: system-wide monotonic clock, so driver and worker spans share a
#: time base with the spawn time ``run.py`` records
clock = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory span and counter buffer of one process."""

    def __init__(self, out_dir: str | Path):
        self.out_dir = Path(out_dir)
        self.run_id = self.out_dir.name
        self.counters: dict[str, list] = {}
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        for cell in self.counters.values():
            cell[0], cell[1] = 0, 0.0

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span timed by the caller."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, None])

    def span(self, name: str, fn, note=None):
        """``fn`` wrapped to record one span per call; ``note`` maps the
        call's result to the value kept in the span."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = [name, clock(), 0.0, rec.stack[-1] if rec.stack else -1,
                     None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = clock()
                rec.stack.pop()
            if note is not None:
                entry[4] = note(result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        """``fn`` wrapped to count its calls and their seconds."""
        cell = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args):
            start = clock()
            result = fn(*args)
            cell[1] += clock() - start
            cell[0] += 1
            return result

        return wrapper

    def task(self, fn):
        """Pool-worker entry point wrapped as a ``runner.task`` span,
        with this process's buffer written out after each task."""
        rec = self
        timed = self.span("runner.task", fn)

        @functools.wraps(fn)
        def wrapper(payload):
            if os.getpid() != rec.pid:
                rec._reset()
            try:
                return timed(payload)
            finally:
                rec.flush()

        return wrapper

    def flush(self) -> None:
        """Append the buffered spans and counters as one line of
        ``<pid>.jsonl`` and clear the buffer."""
        counters = {k: list(v) for k, v in self.counters.items() if v[0]}
        if not self.spans and not counters:
            return
        line = {"run": self.run_id, "pid": self.pid, "spans": self.spans,
                "counters": counters}
        with open(self.out_dir / f"{self.pid}.jsonl", "a") as f:
            f.write(json.dumps(line) + "\n")
        self.spans = []
        for cell in self.counters.values():
            cell[0], cell[1] = 0, 0.0


def rebind(original, replacement) -> None:
    """Point every ``repro`` module attribute bound to ``original`` at
    ``replacement``."""
    n = 0
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    if n == 0:
        raise RuntimeError(f"{original.__qualname__} is bound nowhere")


def _found(result) -> bool:
    return result is not None


def _cycles(result) -> int:
    return result.cycles


def install(rec: Recorder, which: str) -> None:
    """Wrap the layers for one traced pass: ``"spans"`` records a span
    per call of every layer but the memory model, ``"memory"`` only
    counts the memory model's calls and seconds."""
    from repro.analysis import loopcheck
    from repro.compiler import pipeline as compiler
    from repro.engine import cache, journal, runner, session
    from repro.kernels import suite
    from repro.memory.hierarchy import MemorySystem
    from repro.pipeline import processor, specialize, trace

    rebind(runner._simulate_cell, rec.task(runner._simulate_cell))
    if which == "memory":
        for attr in ("iaccess", "daccess"):
            setattr(MemorySystem, attr,
                    rec.counter("memory", getattr(MemorySystem, attr)))
        return
    for fn, name in (
        (compiler.compile_kernel, "compiler"),
        (trace.record_trace, "vm"),
        (suite.get_trace, "kernels"),
        (cache.cache_key, "cache.key"),
        (specialize.get_specialized_loop, "specialize"),
        (loopcheck.check_source, "verify"),
        (runner._run_pooled, "runner"),
    ):
        rebind(fn, rec.span(name, fn))
    for cls, attr, name, note in (
        (cache.ResultCache, "get", "store.get", _found),
        (cache.ResultCache, "put", "store.put", None),
        (journal.SweepJournal, "record_done", "journal", None),
        (journal.SweepJournal, "record_failed", "journal", None),
        (journal.SweepJournal, "checkpoint", "journal", None),
        (processor.Processor, "run", "processor", _cycles),
        (session.SimulationSession, "sweep", "session", None),
    ):
        setattr(cls, attr, rec.span(name, getattr(cls, attr), note))


def load_lines(trace_dir: Path) -> list[dict]:
    """Every buffer line the processes of one traced pass wrote."""
    lines = []
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        lines.extend(json.loads(t) for t in path.read_text().splitlines())
    return lines


def _spans_with_self(line: dict):
    """``(name, start, end, self_s, child_names, note)`` per span of
    one buffer line; self time is the span's duration minus the part
    its child spans cover."""
    spans = line["spans"]
    child_s = [0.0] * len(spans)
    children: list[list[str]] = [[] for _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
            children[parent].append(name)
    for i, (name, start, end, _, note) in enumerate(spans):
        yield name, start, end, end - start - child_s[i], children[i], note


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans_lines: list[dict],
    memory_lines: list[dict],
    driver_pid: int,
    wall_s: float,
    untraced_wall_s: float,
    cells: int,
    jobs: int,
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics ``{name: (value, unit)}`` of one workload from
    its span pass and its memory pass.

    Layer seconds (``<layer>.s``) are self times summed over every
    process.  The driver's own spans tile its wall time: their self
    times (``driver.accounted_s``) plus ``unaccounted_s`` equal
    ``trace.wall_s``.  On a pooled sweep the driver spends the pool's
    run in ``runner.wait_s`` while the workers' spans run beside it."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    trace_hits = spec_hits = store_hits = cycles = 0
    accounted = pool_window = busy = 0.0
    for line in spans_lines:
        on_driver = line["pid"] == driver_pid
        for name, start, end, own, children, note in _spans_with_self(line):
            calls[name] += 1
            self_s[name] += own
            if on_driver:
                accounted += own
            if name == "kernels" and "vm" not in children:
                trace_hits += 1
            elif name == "specialize" and "verify" not in children:
                spec_hits += 1
            elif name == "store.get" and note:
                store_hits += 1
            elif name == "processor":
                cycles += note or 0
            elif name == "runner":
                pool_window += end - start
            elif name == "runner.task":
                busy += end - start
    memory_calls, memory_s = 0, 0.0
    for line in memory_lines:
        count, seconds = line["counters"].get("memory", (0, 0.0))
        memory_calls += count
        memory_s += seconds
    capacity = jobs * pool_window
    s, n = "s", "count"
    return {
        "import.s": (self_s["import"], s),
        "compiler.calls": (calls["compiler"], n),
        "compiler.s": (self_s["compiler"], s),
        "vm.calls": (calls["vm"], n),
        "vm.s": (self_s["vm"], s),
        "kernels.trace_calls": (calls["kernels"], n),
        "kernels.trace_hit_ratio": (
            _ratio(trace_hits, calls["kernels"]), "ratio"),
        "kernels.s": (self_s["kernels"], s),
        "cache.key_calls": (calls["cache.key"], n),
        "cache.key_per_cell": (_ratio(calls["cache.key"], cells), "1/cell"),
        "cache.key_s": (self_s["cache.key"], s),
        "store.get_calls": (calls["store.get"], n),
        "store.get_s": (self_s["store.get"], s),
        "store.hit_ratio": (_ratio(store_hits, calls["store.get"]), "ratio"),
        "store.put_calls": (calls["store.put"], n),
        "store.put_s": (self_s["store.put"], s),
        "journal.appends": (calls["journal"], n),
        "journal.s": (self_s["journal"], s),
        "specialize.calls": (calls["specialize"], n),
        "specialize.hit_ratio": (
            _ratio(spec_hits, calls["specialize"]), "ratio"),
        "specialize.s": (self_s["specialize"], s),
        "verify.s": (self_s["verify"], s),
        "processor.runs": (calls["processor"], n),
        "processor.s": (self_s["processor"], s),
        "processor.cycles_per_s": (
            _ratio(cycles, self_s["processor"]), "cycles/s"),
        "memory.calls": (memory_calls, n),
        "memory.s": (memory_s, s),
        "runner.wait_s": (self_s["runner"], s),
        "runner.task_s": (self_s["runner.task"], s),
        "runner.worker_busy_frac": (_ratio(busy, capacity), "ratio"),
        "runner.idle_s": (capacity - busy, s),
        "session.self_s": (self_s["session"], s),
        "driver.accounted_s": (accounted, s),
        "unaccounted_s": (wall_s - accounted, s),
        "trace.wall_s": (wall_s, s),
        "trace.overhead_s": (wall_s - untraced_wall_s, s),
    }


def chrome_trace(
    spans_lines: list[dict], driver_pid: int, spawn: float, exit_: float
) -> dict:
    """The span pass as a Chrome trace-event document: one track per
    process, plus the driver's whole life (spawn to exit) as ``wall``."""
    events: list[dict] = []
    pids = sorted({line["pid"] for line in spans_lines} | {driver_pid},
                  key=lambda p: (p != driver_pid, p))
    for pid in pids:
        label = "driver" if pid == driver_pid else f"worker {pid}"
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})

    def us(t: float) -> float:
        return round((t - spawn) * 1e6, 3)

    events.append({"name": "wall", "ph": "X", "pid": driver_pid, "tid": 0,
                   "ts": 0.0, "dur": us(exit_), "args": {}})
    for line in spans_lines:
        for name, start, end, parent, note in line["spans"]:
            events.append({
                "name": name, "ph": "X", "pid": line["pid"], "tid": 0,
                "ts": us(start), "dur": round((end - start) * 1e6, 3),
                "args": {"run": line["run"], "parent": parent,
                         "note": note},
            })
    return {"traceEvents": events, "displayTimeUnit": "ms"}
