"""End-to-end sweep benchmark: cold, warm and pooled scenario sweeps,
timed from outside and split into layers by a separate traced run.

Run from the repository root::

    python3 perfbench/run.py                          # every workload, seed 12345
    python3 perfbench/run.py --workload cold-quick-sweep --seed 7 --seconds 20
    python3 perfbench/run.py --workload scenario-sweep-jobs2 --trace 1

Each timed sweep is one driver process (``driver.py``) timed from spawn
to exit, with its process tree's rusage.  Every cell's statistics are
checked: against ``expected.json`` at the default seed, otherwise
against the per-cycle reference loop on a stride sample of cells, and
every repeat against the first.  ``--trace 1`` adds a traced pass of
layer spans and one of memory-model counters and prints the per-layer
metrics instead of the end-to-end ones.  ``README.md`` has the metric
catalogue and the layer table.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` cells, and ``metrics``.  The exit code is
non-zero when any cell failed or mismatched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from statistics import median

from driver import WORKLOADS, clock, stats_digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
EXPECTED = BENCH / "expected.json"
DEFAULT_SEED = 12345
#: set-up-only driver spawns per workload, beside each sweep's own
SETUP_REPEATS = 8
#: timed sweeps per workload at least, whatever ``--seconds`` allows
MIN_SWEEPS = 2
#: cells checked against the reference loop at a non-default seed
REFERENCE_SAMPLE = 4
#: pool width of the untimed sweep that populates the warm snapshot
POPULATE_JOBS = 2


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the host-speed diagnostic
    recorded beside every timed sweep."""
    start = clock()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return clock() - start


@dataclass
class Sweep:
    """One driver process, measured from outside."""

    wall_s: float
    setup_s: float
    cpu_s: float
    peak_rss_mb: float
    pid: int
    spawn: float
    exit: float
    cells: dict[str, tuple[list, str]] = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)
    simulations: int = 0
    calib_s: float | None = None
    trace_dir: Path | None = None
    bad: int = 0


class Workload:
    """Store handling, sweeps and correctness state of one workload."""

    def __init__(self, name: str, seed: int, run_dir: Path, env: dict):
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = seed
        self.dir = run_dir / name
        self.dir.mkdir(parents=True)
        self.env = env
        self.snapshot: Path | None = None
        self.timed: list[Sweep] = []
        self.setups: list[float] = []
        self.traced: dict[str, Sweep] = {}
        self.first: Sweep | None = None
        self._n = 0

    # ------------------------------------------------------------ runs
    def run(self, *extra: str, store: Path | None = None) -> Sweep:
        """Spawn the driver once and wait for it (and so its pool).
        Without ``store`` the sweep gets a fresh store: empty, or a
        byte-identical copy of the warm workload's snapshot."""
        self._n += 1
        if store is None:
            store = self.dir / "store"
            shutil.rmtree(store, ignore_errors=True)
            if self.snapshot is not None:
                shutil.copytree(self.snapshot, store)
        out = self.dir / f"out-{self._n}.json"
        log = self.dir / f"driver-{self._n}.log"
        cmd = [sys.executable, str(BENCH / "driver.py"),
               "--workload", self.name, "--seed", str(self.seed),
               "--store", str(store), "--out", str(out), *extra]
        with open(log, "w") as err:
            spawn = clock()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            end = clock()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(
                f"driver for {self.name} exited {proc.returncode}:\n"
                + log.read_text()[-4000:]
            )
        result = json.loads(out.read_text())
        sweep = Sweep(
            wall_s=end - spawn,
            setup_s=result["sweep_entry"] - spawn,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024,
            pid=proc.pid, spawn=spawn, exit=end,
            cells={label: (spec, digest)
                   for label, spec, digest in result.get("cells", [])},
            failed=result.get("failed", []),
            simulations=result.get("simulations", 0),
        )
        if "cells" in result and self.first is None:
            self.first = sweep
        return sweep

    def prepare(self) -> None:
        """Untimed: populate the warm workload's snapshot store, and
        make the workload's warm-up run once per checkout."""
        if self.spec["warm"]:
            snapshot = self.dir / "snapshot"
            self.run("--jobs", str(POPULATE_JOBS), store=snapshot)
            self.snapshot = snapshot
        marker = WORK / "warmed" / self.name
        if not marker.exists():
            self.run()
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()

    def timed_sweep(self) -> None:
        calib = calibrate()
        sweep = self.run()
        sweep.calib_s = calib
        self.timed.append(sweep)
        self.setups.append(sweep.setup_s)

    def setup_sample(self) -> None:
        self.setups.append(self.run("--setup-only").setup_s)

    def traced_passes(self, trace_dir: Path) -> None:
        for which in ("spans", "memory"):
            d = trace_dir / f"{self.name}-s{self.seed}-{which}"
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
            sweep = self.run("--trace-dir", str(d), "--trace-pass", which)
            sweep.trace_dir = d
            self.traced[which] = sweep

    def wants_more(self, seconds: float) -> bool:
        """Whether the workload has fewer than :data:`MIN_SWEEPS`
        timed sweeps, or another one ends nearer the ``seconds`` budget
        of measured sweep time than stopping now does."""
        n = len(self.timed)
        measured = sum(s.wall_s for s in self.timed)
        return n < MIN_SWEEPS or measured + measured / n / 2 < seconds

    # ----------------------------------------------------- correctness
    def truth(self, expected: dict, update: bool) -> dict[str, str]:
        """Digest of every cell of the matrix.  At the default seed,
        the expected digests; otherwise the first sweep's (the populate
        sweep of the warm workload, so warm must equal cold), with a
        stride sample of cells replaced by the reference loop's.  A
        cell the first sweep lacks gets ``None``, which no sweep
        matches.  ``update`` checks every cell against the reference."""
        if self.seed == DEFAULT_SEED and not update:
            return expected["matrices"][self.spec["matrix"]]
        first = self.first.cells
        labels = sorted(first if update
                        else expected["matrices"][self.spec["matrix"]])
        stride = 1 if update else max(1, len(labels) // REFERENCE_SAMPLE)
        sample = [label for label in labels[self.seed % stride::stride]
                  if label in first]
        truth = {label: first[label][1] if label in first else None
                 for label in labels}
        truth.update(reference_digests(
            self.seed, [first[label][0] for label in sample]))
        return truth

    def check(self, sweep: Sweep, truth: dict[str, str | None]) -> int:
        """Cells of one sweep that failed, are missing or mismatch."""
        bad = set(sweep.failed) | (set(truth) - set(sweep.cells))
        bad |= {label for label, (_, digest) in sweep.cells.items()
                if truth.get(label) != digest}
        sweep.bad = len(bad)
        return sweep.bad


def reference_digests(seed: int, specs: list[list]) -> dict[str, str]:
    """Cell digests from the per-cycle reference simulation loop."""
    from repro.engine import QUICK_SCALE, SimulationSession
    from repro.engine.runner import cell_label

    session = SimulationSession(replace(QUICK_SCALE, seed=seed),
                                reference=True)
    return {cell_label(tuple(spec)): stats_digest(session.run(*spec))
            for spec in specs}


def end_to_end(w: Workload) -> dict[str, tuple[float, str, int]]:
    """``{name: (median, unit, samples)}`` of one workload's timed
    sweeps."""
    n = len(w.timed)
    return {
        "wall_s": (median([s.wall_s for s in w.timed]), "s", n),
        "setup_s": (median(w.setups), "s", len(w.setups)),
        "cpu_s": (median([s.cpu_s for s in w.timed]), "s", n),
        "peak_rss_mb": (median([s.peak_rss_mb for s in w.timed]), "MB", n),
    }


def per_layer(w: Workload, trace_dir: Path) -> dict[str, tuple[float, str]]:
    import layers
    from repro.obs.tracing import validate_trace_document

    spans, memory = w.traced["spans"], w.traced["memory"]
    span_lines = layers.load_lines(spans.trace_dir)
    tasks = sum(1 for line in span_lines for s in line["spans"]
                if s[0] == "runner.task")
    if w.spec["jobs"] > 1 and tasks != spans.simulations:
        raise RuntimeError(
            f"{w.name}: {tasks} worker task spans for "
            f"{spans.simulations} pooled simulations"
        )
    metrics = layers.layer_metrics(
        span_lines, layers.load_lines(memory.trace_dir), spans.pid,
        spans.wall_s, median([s.wall_s for s in w.timed]),
        len(spans.cells), w.spec["jobs"],
    )
    doc = layers.chrome_trace(span_lines, spans.pid, spans.spawn, spans.exit)
    validate_trace_document(doc)
    path = trace_dir / f"{w.name}-s{w.seed}.trace.json"
    path.write_text(json.dumps(doc))
    print(f"# {w.name}: Chrome trace {path.relative_to(ROOT)}",
          file=sys.stderr)
    return metrics


def report(w: Workload, e2e: dict, attempted: int, failed: int) -> None:
    calib = [s.calib_s for s in w.timed]
    digest = _matrix_digest(w.first)
    lines = [f"== {w.name}  seed {w.seed}  {len(w.first.cells)} cells  "
             f"digest {digest[:16]}"]
    for name, (value, unit, n) in e2e.items():
        lines.append(f"  {name:<14s} {value:12.4f} {unit:<4s} median, n={n}")
    lines.append(f"  {'failed_frac':<14s} {failed / attempted:12.4f}"
                 f"      {failed} of {attempted} cells")
    lines.append(f"  {'host calib':<14s} {median(calib):12.4f} s    "
                 f"median, n={len(calib)}, min {min(calib):.4f}, "
                 f"max {max(calib):.4f} (diagnostic)")
    print("\n".join(lines), file=sys.stderr)


def _matrix_digest(sweep: Sweep) -> str:
    text = "\n".join(f"{label}={digest}"
                     for label, (_, digest) in sorted(sweep.cells.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all",
                    choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="measured sweep seconds per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-expected", action="store_true",
                    help="check every cell against the reference loop "
                         "and rewrite expected.json (default seed only)")
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    if args.update_expected and args.seed != DEFAULT_SEED:
        ap.error("--update-expected needs the default seed")
    sys.path.insert(0, str(SRC))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env.pop("REPRO_FAULTS", None)  # no injected faults in timed sweeps

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return _bench(args, names, run_dir, env)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _bench(args, names: list[str], run_dir: Path, env: dict) -> int:
    benches = [Workload(n, args.seed, run_dir, env) for n in names]
    for w in benches:
        w.prepare()
    # timed sweeps, interleaved across workloads
    pending = list(benches)
    while pending:
        for w in pending:
            w.timed_sweep()
        pending = [w for w in pending if w.wants_more(args.seconds)]
    for _ in range(SETUP_REPEATS):
        for w in benches:
            w.setup_sample()
    trace_dir = WORK / "traces"
    if args.trace:
        for w in benches:
            w.traced_passes(trace_dir)

    expected = (
        {"seed": DEFAULT_SEED, "matrices": {}} if args.update_expected
        else json.loads(EXPECTED.read_text())
    )
    attempted = failed = 0
    results: dict[str, dict] = {}
    for w in benches:
        truth = w.truth(expected, args.update_expected)
        if args.update_expected:
            expected["matrices"][w.spec["matrix"]] = dict(sorted(truth.items()))
        sweeps = [*w.timed, *w.traced.values()]
        w_failed = sum(w.check(s, truth) for s in sweeps)
        w_attempted = len(truth) * len(sweeps)
        attempted += w_attempted
        failed += w_failed
        e2e = end_to_end(w)
        report(w, e2e, w_attempted, w_failed)
        if args.trace:
            metrics = per_layer(w, trace_dir)
            for name, (value, unit) in metrics.items():
                print(f"  {name:<24s} {value:14.4f} {unit}", file=sys.stderr)
        else:
            metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
        results[w.name] = {k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()}
        _save_artifact(w, args, e2e, w_attempted, w_failed)
    if args.update_expected:
        EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": results[names[0]] if len(names) == 1 else results,
    }))
    return 0 if correct else 1


def _save_artifact(w: Workload, args, e2e: dict, attempted: int,
                   failed: int) -> None:
    """Per-run record: every sweep's figures beside its host-speed
    calibration, for spread and drift analysis."""
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    fields = ("wall_s", "setup_s", "cpu_s", "peak_rss_mb", "calib_s", "bad")
    record = {
        "workload": w.name, "seed": w.seed, "trace": args.trace,
        "seconds": args.seconds, "time": time.time(),
        "digest": _matrix_digest(w.first),
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"median": v, "unit": u, "n": n}
                    for k, (v, u, n) in e2e.items()},
        "sweeps": [{k: getattr(s, k) for k in fields} for s in w.timed],
        "setups": w.setups,
    }
    path = out / f"{w.name}-s{w.seed}-t{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1))


if __name__ == "__main__":
    sys.exit(main())
