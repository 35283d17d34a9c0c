"""Run & sweep telemetry: what the engine *did*, not what it measured.

Every cell a :class:`~repro.engine.session.SimulationSession` resolves
— from the in-process memo, from the disk cache, or by simulating —
lands as one flat record in the session's :class:`TelemetryLedger`:

``policy, workload, n_threads, memory, machine`` (the cell),
``source``   — ``"memo"`` / ``"disk"`` / ``"simulated"``, or
``"failed"`` for cells that exhausted their sweep retry budget (these
additionally carry ``error`` — the failure category — and
``attempts``; see ``docs/robustness.md``),
``loop_used``— run-loop tier for simulated cells (``specialized`` /
``fast`` / ``reference``; ``None`` for cache hits),
``wall_s``   — wall-clock seconds to resolve the cell,
``spec_s``   — of which specialised-loop codegen+compile time,
``trace_s``  — of which trace front-end time: building the kernel
traces this cell was the first to need (the functional VM run, plus
the compile when no store-key derivation compiled the program first),
work done once per process and shared by every later cell, so the
digest reports it apart from the per-cell wall,
``worker``   — PID of the process that did the work (pool workers
report their own).

The ledger always accumulates in memory; give it a path and every
record is also appended as one JSON line, so a sweep's telemetry
survives the process and ``repro stats`` can aggregate it later.
:func:`summarize` / :func:`render_summary` produce the sweep-end
digest ("N simulated / M disk / K memo, trace front-end total, p50/p95
cell wall time net of trace builds, tier mix").
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class TelemetryLedger:
    """Append-only per-cell telemetry store (+ optional JSONL file)."""

    path: str | None = None
    records: list[dict] = field(default_factory=list)

    def record(self, **fields) -> dict:
        """Add one record; stamps the recording process's PID unless
        the caller already carries one (a pool worker's record keeps
        the worker's PID when the parent adopts it)."""
        fields.setdefault("worker", os.getpid())
        self.records.append(fields)
        if self.path:
            # append-per-record so a crashed sweep still leaves every
            # completed cell on disk
            with open(self.path, "a") as f:
                f.write(json.dumps(fields, sort_keys=True) + "\n")
        return fields

    def adopt(self, record: dict) -> dict:
        """Fold a record produced elsewhere (a pool worker) into this
        ledger, preserving its ``worker`` field."""
        return self.record(**record)

    def summary(self) -> dict:
        return summarize(self.records)


def load_jsonl(path: str | Path) -> list[dict]:
    """Read a telemetry JSONL file back into records (blank lines and
    trailing partial lines from a crashed writer are skipped)."""
    records = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue
    return records


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) — no numpy dependency."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-int(q) * len(ordered) // 100))  # ceil without math
    return ordered[min(rank, len(ordered)) - 1]


def summarize(records: list[dict]) -> dict:
    """Aggregate a record list into the sweep-end digest."""
    sources = {"memo": 0, "disk": 0, "simulated": 0, "failed": 0}
    tiers: dict[str, int] = {}
    failure_categories: dict[str, int] = {}
    failure_attempts = 0
    walls = []
    total_wall = 0.0
    spec_s = 0.0
    trace_s = 0.0
    workers = set()
    for r in records:
        src = r.get("source", "simulated")
        sources[src] = sources.get(src, 0) + 1
        total_wall += r.get("wall_s", 0.0)
        trace_s += r.get("trace_s", 0.0)
        workers.add(r.get("worker"))
        if src == "simulated":
            walls.append(r.get("wall_s", 0.0) - r.get("trace_s", 0.0))
            spec_s += r.get("spec_s", 0.0)
            tier = r.get("loop_used") or "unknown"
            tiers[tier] = tiers.get(tier, 0) + 1
        elif src == "failed":
            cat = r.get("error") or "error"
            failure_categories[cat] = failure_categories.get(cat, 0) + 1
            failure_attempts += r.get("attempts", 1)
    return {
        "cells": len(records),
        "sources": sources,
        "tiers": tiers,
        "failure_categories": failure_categories,
        "failure_attempts": failure_attempts,
        "wall_total_s": total_wall,
        "wall_p50_s": percentile(walls, 50),
        "wall_p95_s": percentile(walls, 95),
        "spec_total_s": spec_s,
        "trace_total_s": trace_s,
        "workers": len(workers),
    }


def render_summary(summary: dict) -> str:
    """The sweep-end telemetry digest, one ``#``-prefixed block."""
    s = summary["sources"]
    out = [
        f"# telemetry: {summary['cells']} cells — "
        f"{s['simulated']} simulated / {s['disk']} disk / "
        f"{s['memo']} memo ({summary['workers']} worker"
        f"{'s' if summary['workers'] != 1 else ''})",
        f"#   trace front-end: {summary['trace_total_s']:.2f} s",
    ]
    if s["simulated"]:
        tiers = ", ".join(
            f"{tier} {n}" for tier, n in sorted(summary["tiers"].items())
        )
        out.append(
            f"#   simulated cell wall time net of trace builds: p50 "
            f"{1e3 * summary['wall_p50_s']:.0f} ms, p95 "
            f"{1e3 * summary['wall_p95_s']:.0f} ms, total "
            f"{summary['wall_total_s']:.2f} s"
        )
        out.append(
            f"#   tier mix: {tiers}; specialisation codegen "
            f"{summary['spec_total_s']:.2f} s"
        )
    if s.get("failed"):
        cats = ", ".join(
            f"{cat} {n}" for cat, n in
            sorted(summary.get("failure_categories", {}).items())
        )
        out.append(
            f"#   {s['failed']} cell(s) FAILED ({cats}; "
            f"{summary.get('failure_attempts', 0)} attempts burned) — "
            "see the sweep journal; `repro sweep --resume` retries "
            "them"
        )
    return "\n".join(out)
