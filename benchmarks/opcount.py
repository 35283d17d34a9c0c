#!/usr/bin/env python3
"""Deterministic cost probe: bytecodes the specialised run loop executes.

Wall-clock speed numbers move with the host, its load and its clock;
the number of bytecode instructions the generated run loop
(`repro.pipeline.specialize`) executes for a fixed cell does not.  This
script runs a handful of quick-scale cells once each with a
``sys.settrace`` hook that turns on ``f_trace_opcodes`` for the
generated loop's own frame only (calls it makes — ``_fast_forward``,
the memory model on a miss — are not counted), and reports the count
per retired instruction and per simulated cycle.

The count is exact and repeatable on one CPython version, but the
bytecode set differs between versions, so compare counts only within
one version.  It is evidence for a run-loop change, not a gate.

Usage::

    python benchmarks/opcount.py
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # installed (`pip install -e .`) or PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # plain checkout
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.policies import get_policy
from repro.engine import QUICK_SCALE, SimulationSession
from repro.kernels.suite import get_trace
from repro.pipeline.processor import Processor
from repro.pipeline.specialize import LOOP_NAME

#: (policy, workload, n_threads, memory preset) — the paper-memory
#: split-issue merges (CCSI, COSI), CCSI on the MSHR + prefetch
#: hierarchy, op-level split (OOSI) and the no-split baseline (SMT)
CELLS = [
    ("CCSI AS", "llhh", 4, "paper"),
    ("COSI AS", "llhh", 4, "paper"),
    ("CCSI AS", "llhh", 4, "l2+pf+mshr"),
    ("OOSI AS", "lmhh", 2, "paper"),
    ("SMT", "mmhh", 4, "paper"),
]

#: cycle cap of every probed run
MAX_CYCLES = 20_000


def count_loop_opcodes(proc: Processor) -> tuple[object, int]:
    """Run ``proc`` and count the bytecodes executed in the generated
    loop's own frame; returns ``(stats, count)``."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_name != LOOP_NAME:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    sys.settrace(tracer)
    try:
        stats = proc.run(max_cycles=MAX_CYCLES)
    finally:
        sys.settrace(None)
    return stats, count


def probe(session: SimulationSession, policy_name: str, workload: str,
          n_threads: int, memory: str) -> dict:
    cfg = session.resolve_cfg(memory, None)
    bundles = [
        get_trace(name, session.scale.kernel_scale, cfg)
        for name in session.workload_members(workload)
    ]
    proc = Processor(
        get_policy(policy_name), bundles, n_threads, cfg,
        session.params(None),
    )
    stats, count = count_loop_opcodes(proc)
    if proc.loop_used != "specialized":
        raise SystemExit(
            f"{policy_name}/{workload}/{n_threads}/{memory}: ran the "
            f"{proc.loop_used!r} loop, not the specialised one"
        )
    return {
        "cell": f"{policy_name}/{workload}/{n_threads}/{memory}",
        "cycles": stats.cycles,
        "instructions": stats.instructions,
        "opcodes": count,
        "per_instruction": count / max(1, stats.instructions),
        "per_cycle": count / max(1, stats.cycles),
    }


def main() -> int:
    session = SimulationSession(QUICK_SCALE)
    print(
        f"bytecodes executed by the specialised run loop "
        f"(Python {sys.version.split()[0]}, quick scale, "
        f"{MAX_CYCLES}-cycle cap)"
    )
    print(
        f"{'cell':30s} {'cycles':>7s} {'instrs':>7s} {'opcodes':>10s} "
        f"{'/instr':>7s} {'/cycle':>7s}"
    )
    for cell in CELLS:
        r = probe(session, *cell)
        print(
            f"{r['cell']:30s} {r['cycles']:7d} {r['instructions']:7d} "
            f"{r['opcodes']:10d} {r['per_instruction']:7.1f} "
            f"{r['per_cycle']:7.1f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
