"""Micro-benchmarks of the simulator's hot paths.

These guard the performance engineering that makes a pure-Python cycle
simulator feasible (SWAR packed conflict checks, list-based static
tables, trace replay): regressions here multiply into every experiment.
"""

import random

from repro.arch.config import PAPER_MACHINE
from repro.arch.resources import capacity_packed, fits_packed, guards_mask, pack_usage
from repro.core.merging import MergeEngine
from repro.core.policies import OOSI_AS, SMT
from repro.core.splitstate import PendingInstruction
from repro.kernels import get_trace
from repro.memory.cache import Cache
from repro.pipeline.processor import Processor, SimParams
from repro.vm.machine import VM


def test_swar_fits_packed(benchmark):
    g = guards_mask(4)
    cap = capacity_packed(PAPER_MACHINE)
    usage = pack_usage([(2, 2, 0, 0), (1, 1, 0, 0), (0, 0, 0, 0),
                        (3, 2, 1, 0)])

    def run():
        ok = 0
        for _ in range(1000):
            ok += fits_packed(cap, usage, g)
        return ok

    assert benchmark(run) == 1000


def test_cache_access_throughput(benchmark):
    c = Cache(PAPER_MACHINE.dcache)
    rng = random.Random(1)
    addrs = [rng.randrange(0, 1 << 18) for _ in range(2000)]

    def run():
        for a in addrs:
            c.access(a)

    benchmark(run)
    benchmark.extra_info["miss_rate"] = round(c.miss_rate, 3)


def test_merge_engine_cycle(benchmark):
    tr = get_trace("g721encode", scale=0.05)
    table = tr.static
    idxs = tr.idx[:64]

    def run():
        e = MergeEngine(PAPER_MACHINE, "op")
        issued = 0
        for i in idxs:
            e.begin_cycle()
            p = PendingInstruction(table, i, "none", True)
            issued += e.try_whole(p)
        return issued

    assert benchmark(run) > 0


def _vm_bench_program():
    from repro.kernels.suite import build_program

    return build_program("gsmencode", 0.02).program


def test_vm_interpretation_rate(benchmark):
    """``VM.run``: the block translation (built in the first round, as
    a trace build translates each kernel once) executing the kernel."""
    vm = VM(_vm_bench_program())

    def run():
        vm.reset()
        vm.run()
        return vm.instr_count

    n = benchmark(run)
    benchmark.extra_info["instructions"] = n


def test_vm_step_rate(benchmark):
    """The per-instruction oracle ``VM.step`` on the same kernel."""
    vm = VM(_vm_bench_program())

    def run():
        vm.reset()
        while vm.step():
            pass
        return vm.instr_count

    n = benchmark(run)
    benchmark.extra_info["instructions"] = n


def test_timing_simulator_cycle_rate(benchmark):
    traces = [get_trace(n, scale=0.1) for n in ("mcf", "idct")]

    def run():
        proc = Processor(SMT, traces, 2, PAPER_MACHINE,
                         SimParams(target_instructions=10**9, timeslice=0))
        s = proc.run(max_cycles=3_000, stop_on_target=False)
        return s.cycles

    cycles = benchmark(run)
    benchmark.extra_info["cycles_per_run"] = cycles


def test_oosi_split_overhead(benchmark):
    """OOSI (op-granular state) is the most expensive policy to
    simulate; track its cost relative to SMT."""
    traces = [get_trace(n, scale=0.1) for n in ("colorspace", "idct")]

    def run():
        proc = Processor(OOSI_AS, traces, 2, PAPER_MACHINE,
                         SimParams(target_instructions=10**9, timeslice=0))
        s = proc.run(max_cycles=3_000, stop_on_target=False)
        return s.operations

    assert benchmark(run) > 0
