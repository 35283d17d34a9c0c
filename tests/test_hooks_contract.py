"""The SimHook event contract: ordering, argument values, and the
no-observer-effect guarantee.

Hooks are the foundation the whole observability layer stands on
(``TraceExporter``, ``CycleRecorder``): these tests pin down what the
simulator promises to any observer — events arrive in program order
(``on_run_start`` → ``on_cycle``/``on_retire``/``on_stall``/
``on_context_switch`` → ``on_run_end``), cycle arguments are monotone
and consistent with the final counters, and attaching a hook never
changes a single stat (hooked runs take the reference loop, which is
bit-identical to the specialised tier).
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch.config import PAPER_MACHINE, get_memory_config
from repro.compiler.pipeline import compile_kernel
from repro.core.policies import BY_NAME
from repro.engine.hooks import SimHook
from repro.pipeline.processor import Processor, SimParams
from repro.pipeline.trace import record_trace

from _kernels import make_axpy, make_wide

PARAMS = SimParams(target_instructions=1_000, timeslice=400, seed=11)

_traces = None


def traces():
    global _traces
    if _traces is None:
        _traces = [
            record_trace(compile_kernel(make_axpy()).program, PAPER_MACHINE),
            record_trace(compile_kernel(make_wide()).program, PAPER_MACHINE),
        ]
    return _traces


class EventLog(SimHook):
    """Records every event as (name, args...)."""

    def __init__(self):
        self.events = []

    def on_run_start(self, processor):
        self.events.append(("run_start", processor))

    def on_cycle(self, cycle, ops_issued, threads_contributing):
        self.events.append(("cycle", cycle, ops_issued, threads_contributing))

    def on_retire(self, cycle, slot, bench, was_split, taken):
        self.events.append(("retire", cycle, slot, bench, was_split, taken))

    def on_stall(self, cycle, slot, kind, cycles):
        self.events.append(("stall", cycle, slot, kind, cycles))

    def on_context_switch(self, cycle):
        self.events.append(("switch", cycle))

    def on_run_end(self, stats):
        self.events.append(("run_end", stats))


def run_logged(policy="CCSI AS", nt=4, memory=None, params=PARAMS):
    cfg = PAPER_MACHINE
    if memory is not None:
        cfg = replace(cfg, memory=get_memory_config(memory))
    log = EventLog()
    proc = Processor(
        BY_NAME[policy], traces(), nt, cfg, params, hooks=[log],
    )
    stats = proc.run()
    return log, stats, proc


def test_event_ordering_and_bounds():
    log, stats, proc = run_logged()
    names = [e[0] for e in log.events]
    # exactly one start and one end, bracketing everything else
    assert names[0] == "run_start" and names.count("run_start") == 1
    assert names[-1] == "run_end" and names.count("run_end") == 1
    assert log.events[0][1] is proc
    assert log.events[-1][1] is stats
    # every in-run event carries a cycle within the simulated range
    for e in log.events[1:-1]:
        assert 0 <= e[1] <= stats.cycles


def test_cycle_events_monotone_and_complete():
    log, stats, _ = run_logged()
    cycles = [e[1] for e in log.events if e[0] == "cycle"]
    # one on_cycle per issue cycle, strictly increasing
    assert cycles == sorted(cycles)
    assert len(cycles) == len(set(cycles))
    # on_cycle ops sum to the operations counter
    assert sum(e[2] for e in log.events if e[0] == "cycle") == stats.operations


def test_retire_events_match_counters():
    log, stats, _ = run_logged()
    retires = [e for e in log.events if e[0] == "retire"]
    assert len(retires) == stats.instructions
    assert sum(1 for e in retires if e[4]) == stats.split_instructions
    # retire cycles are non-decreasing (retirement is in program order
    # per thread and the loop walks cycles forward)
    cycles = [e[1] for e in retires]
    assert cycles == sorted(cycles)
    slots = {e[2] for e in retires}
    assert slots <= set(range(4))
    benches = {e[3] for e in retires}
    assert benches == {"axpy", "wide"}


def test_context_switch_cycles():
    log, stats, _ = run_logged()
    switches = [e[1] for e in log.events if e[0] == "switch"]
    assert len(switches) == stats.context_switches
    assert switches == sorted(switches)
    assert len(switches) == len(set(switches))
    # the first rotation cannot land before one full timeslice
    if switches:
        assert switches[0] >= PARAMS.timeslice


def test_on_stall_kinds_and_values():
    log, stats, _ = run_logged(memory="l2")
    stalls = [e for e in log.events if e[0] == "stall"]
    assert stalls, "expected memory stalls under the l2 hierarchy"
    kinds = {e[3] for e in stalls}
    assert kinds <= {"icache", "dcache"}
    for _, cycle, slot, kind, n in stalls:
        assert 0 <= slot < 4
        assert n > 0


def test_hooks_do_not_change_results():
    """Attaching an observer must not perturb one counter — hooked runs
    take the reference loop, whose stats are bit-identical to the
    unhooked specialised tier."""
    for policy, nt in (("SMT", 2), ("CCSI AS", 4), ("OOSI NS", 2)):
        log = EventLog()
        hooked = Processor(
            BY_NAME[policy], traces(), nt, PAPER_MACHINE, PARAMS,
            hooks=[log],
        )
        plain = Processor(
            BY_NAME[policy], traces(), nt, PAPER_MACHINE, PARAMS
        )
        hs, ps = hooked.run(), plain.run()
        assert hooked.loop_used == "reference"
        assert hs.to_dict() == ps.to_dict(), (policy, nt)
        assert log.events, "hooked run emitted no events"
