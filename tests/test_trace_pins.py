"""Pins of the program -> trace derivation the result store relies on.

The engine keys every cell on its members' compiled-program
fingerprints plus ``TRACE_VERSION``, never on the recorded trace
(``docs/engine.md``).  That is only sound while the trace is a fixed
function of the program, so ``tests/data/trace_pins.json`` records, for
each suite kernel on each of the ``paper``/``narrow``/``wide`` machine
shapes at a small scale, the program fingerprint, the trace fingerprint
and the ``TRACE_VERSION`` they were recorded under.  The test rebuilds
every pin: a trace that moved under an unchanged program means the VM,
the trace format or the static tables changed without a
``TRACE_VERSION`` bump, and stale results would be served.

Regenerate the pins after an intentional compiler/kernel change or a
``TRACE_VERSION`` bump::

    PYTHONPATH=src python tests/test_trace_pins.py --update
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.arch.scenarios import get_scenario
from repro.kernels.suite import BENCH_ORDER, get_program, get_trace
from repro.pipeline.trace import TRACE_VERSION

PINS = Path(__file__).with_name("data") / "trace_pins.json"
SCALE = 0.05
MACHINES = ("paper", "narrow", "wide")
REGENERATE = "PYTHONPATH=src python tests/test_trace_pins.py --update"


def build_pins() -> dict[str, dict]:
    """``{"<machine>/<bench>": {program, trace, trace_version}}`` for
    the current tree."""
    pins = {}
    for machine in MACHINES:
        cfg = get_scenario(machine).machine
        for bench in BENCH_ORDER:
            pins[f"{machine}/{bench}"] = {
                "program": get_program(bench, SCALE, cfg).fingerprint(),
                "trace": get_trace(bench, SCALE, cfg).fingerprint(),
                "trace_version": TRACE_VERSION,
            }
    return pins


def test_trace_pins():
    pinned = json.loads(PINS.read_text())
    assert pinned["scale"] == SCALE
    pinned = pinned["pins"]
    current = build_pins()
    assert set(current) == set(pinned), (
        f"pinned kernels/machines differ from the suite: {REGENERATE}"
    )
    drifted = sorted(
        label for label, pin in pinned.items()
        if pin["trace_version"] == TRACE_VERSION
        and pin["program"] == current[label]["program"]
        and pin["trace"] != current[label]["trace"]
    )
    assert not drifted, (
        "VM/trace semantics changed: bump TRACE_VERSION in "
        "repro/pipeline/trace.py (traces moved under unchanged "
        f"programs: {', '.join(drifted)}), then run `{REGENERATE}`"
    )
    stale = sorted(
        label for label, pin in pinned.items()
        if pin != current[label]
    )
    assert not stale, (
        f"programs or TRACE_VERSION changed for {', '.join(stale)}: "
        f"regenerate the pins with `{REGENERATE}`"
    )


def main(argv: list[str]) -> int:
    if argv != ["--update"]:
        print(f"usage: {REGENERATE}", file=sys.stderr)
        return 2
    PINS.parent.mkdir(exist_ok=True)
    doc = {"scale": SCALE, "pins": build_pins()}
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(doc['pins'])} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
