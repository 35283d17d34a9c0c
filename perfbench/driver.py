"""One sweep in one process: the unit the sweep benchmark times.

``run.py`` spawns this script once per timed sweep and measures it
from the outside (spawn to exit, rusage of the process tree).  The
driver builds a :class:`repro.engine.SimulationSession` at
``QUICK_SCALE`` with the benchmark seed, stamps the moment it enters
``SimulationSession.sweep`` (the end of set-up), runs the workload's
matrix into ``--store`` and writes one JSON result file: the sweep
entry time plus a SHA-256 digest of every cell's ``SimStats.to_dict()``.

``--setup-only`` stops at the sweep entry, so set-up can be sampled
cheaply.  ``--trace-dir`` installs the layer wrappers of
:mod:`layers` before the sweep (``--trace-pass spans`` for the layer
spans, ``memory`` for the memory-model counters) and writes the
recorded spans under that directory.

Only the standard library is imported at module level: ``run.py``
imports this module for :data:`WORKLOADS`, and the driver times
``import repro`` itself.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

#: The benchmark's workloads: ``sweep`` holds the keyword arguments of
#: ``SimulationSession.sweep``, ``jobs`` the session's pool width,
#: ``warm`` whether each timed sweep starts from a populated store, and
#: ``matrix`` the cell set whose expected digests it is checked against.
WORKLOADS: dict[str, dict] = {
    # `repro --quick --cache-dir DIR sweep` into an empty store
    "cold-quick-sweep": {
        "sweep": {}, "jobs": 1, "warm": False, "matrix": "quick-paper",
    },
    # the same command against a store populated for it
    "warm-quick-sweep": {
        "sweep": {}, "jobs": 1, "warm": True, "matrix": "quick-paper",
    },
    # `repro --quick --jobs 2 --cache-dir DIR sweep --policies SMT
    # "CCSI AS" "OOSI AS" --memory slow-dram l2+pf+mshr --machine paper
    # narrow` into an empty store
    "scenario-sweep-jobs2": {
        "sweep": {
            "policies": ["SMT", "CCSI AS", "OOSI AS"],
            "memory": ("slow-dram", "l2+pf+mshr"),
            "machine": ("paper", "narrow"),
        },
        "jobs": 2, "warm": False, "matrix": "scenario",
    },
}


def clock() -> float:
    """System-wide monotonic seconds, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def stats_digest(stats) -> str:
    """Canonical digest of one cell's simulated statistics."""
    text = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--store", required=True, help="result-store directory")
    ap.add_argument("--out", required=True, help="result JSON file")
    ap.add_argument("--jobs", type=int, default=None,
                    help="pool width (default: the workload's)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-dir", default=None)
    ap.add_argument("--trace-pass", choices=("spans", "memory"),
                    default="spans")
    args = ap.parse_args(argv)

    recorder = None
    if args.trace_dir is not None:
        import layers

        recorder = layers.Recorder(args.trace_dir)
        start = clock()
    from repro.engine import QUICK_SCALE, SimulationSession
    from repro.engine.runner import cell_label

    if recorder is not None:
        if args.trace_pass == "spans":
            recorder.record("import", start, clock())
        layers.install(recorder, args.trace_pass)

    workload = WORKLOADS[args.workload]
    session = SimulationSession(
        replace(QUICK_SCALE, seed=args.seed),
        cache_dir=args.store,
        jobs=workload["jobs"] if args.jobs is None else args.jobs,
    )
    out: dict = {"sweep_entry": clock()}
    if not args.setup_only:
        try:
            results = session.sweep(**workload["sweep"])
        finally:
            session.close()
        out["cells"] = [
            [cell_label(spec), list(spec), stats_digest(stats)]
            for spec, stats in results.items()
        ]
        out["failed"] = [f.cell for f in session.failures]
        out["simulations"] = session.simulations
    Path(args.out).write_text(json.dumps(out))
    if recorder is not None:
        recorder.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
