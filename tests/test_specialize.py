"""Bit-identity and dispatch behaviour of the specialised codegen loop.

``repro.pipeline.specialize`` generates a monomorphic run loop per
resolved (policy, machine, memory, thread-count) cell; ``Processor.run``
dispatches specialised → ``_run_reference``.  The generated loop must
be *bit-identical* (every ``SimStats`` counter, memory/MSHR/writeback
included) to the per-cycle reference loop across the full policy ×
machine × memory × nt matrix, the memo must hit on
fingerprint-equal configs, and every fallback edge (hooks,
``force_reference``, broken generation) must land on the right tier
without changing results.
"""

from __future__ import annotations

import re
from dataclasses import replace

import pytest

from repro.arch.config import get_memory_config
from repro.arch.scenarios import MACHINE_PRESETS
from repro.compiler.pipeline import compile_kernel
from repro.core.merging import MergeEngine
from repro.core.policies import ALL_POLICIES, BY_NAME
from repro.engine import CycleRecorder
from repro.pipeline import specialize
from repro.pipeline.processor import Processor, SimParams
from repro.pipeline.trace import record_trace

from _kernels import make_axpy, make_wide, rotated_suite_tables

MACHINES = ("paper", "narrow", "wide")
MEMORIES = ("paper", "l2", "l2+mshr", "slow-dram")

_trace_memo: dict = {}


def traces_for(machine: str):
    """Tiny kernels compiled against one machine scenario's config
    (cluster count / issue shape are compiler-visible, so traces are
    per-machine; memory presets share them)."""
    traces = _trace_memo.get(machine)
    if traces is None:
        cfg = MACHINE_PRESETS[machine].machine
        traces = [
            record_trace(compile_kernel(make_axpy(), cfg=cfg).program, cfg),
            record_trace(compile_kernel(make_wide(), cfg=cfg).program, cfg),
        ]
        _trace_memo[machine] = traces
    return traces


def run_tiers(policy, traces, nt, cfg, params):
    """(specialised stats, reference stats, specialised proc)."""
    sp = Processor(policy, traces, nt, cfg, params)
    rp = Processor(policy, traces, nt, cfg, params, force_reference=True)
    return sp.run(), rp.run(), sp


# ---------------------------------------------------------------- matrix
@pytest.mark.parametrize("machine", MACHINES)
@pytest.mark.parametrize(
    "policy", [p.name for p in ALL_POLICIES], ids=lambda p: p.replace(" ", "-")
)
def test_bit_identity_full_matrix(policy, machine):
    """Every policy × machine × memory preset × thread count: the
    specialised loop must actually be taken and produce identical
    stats to the reference loop."""
    base = MACHINE_PRESETS[machine].machine
    traces = traces_for(machine)
    for memory in MEMORIES:
        cfg = replace(base, memory=get_memory_config(memory))
        for nt in (1, 2, 4):
            params = SimParams(
                target_instructions=1_000, timeslice=400, seed=11
            )
            spec, ref, proc = run_tiers(
                BY_NAME[policy], traces, nt, cfg, params
            )
            assert proc.loop_used == "specialized", (machine, memory, nt)
            assert spec.to_dict() == ref.to_dict(), (machine, memory, nt)


def test_bit_identity_perfect_memory_and_fixed_priority():
    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    for params in (
        SimParams(target_instructions=1_000, timeslice=300, seed=5,
                  perfect_memory=True),
        SimParams(target_instructions=1_000, timeslice=250, seed=7,
                  priority="fixed"),
        SimParams(target_instructions=1_000, timeslice=0, seed=6),
    ):
        for policy in ("SMT", "CCSI AS", "COSI NS", "OOSI AS"):
            spec, ref, proc = run_tiers(
                BY_NAME[policy], traces, 4, cfg, params
            )
            assert proc.loop_used == "specialized"
            assert spec.to_dict() == ref.to_dict(), (policy, params)


def test_resumed_runs_stay_identical():
    """Consecutive ``run()`` calls on one processor keep the pending
    state representation consistent across max_cycles boundaries."""
    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    params = SimParams(target_instructions=10**9, timeslice=250, seed=4)
    for policy in ("SMT", "COSI AS"):
        sp = Processor(BY_NAME[policy], traces, 2, cfg, params)
        rp = Processor(BY_NAME[policy], traces, 2, cfg, params,
                       force_reference=True)
        for limit in (300, 400):
            s = sp.run(max_cycles=limit, stop_on_target=False)
            r = rp.run(max_cycles=limit, stop_on_target=False)
            assert s.to_dict() == r.to_dict(), (policy, limit)
        assert sp.loop_used == "specialized"


# ------------------------------------------------------------------ memo
@pytest.fixture
def fresh_cache():
    specialize.clear_cache()
    yield
    specialize.clear_cache()


def test_memo_hit_miss_by_fingerprint(fresh_cache):
    """Two field-for-field equal configs share one compiled loop (the
    key is the loop shape); a different shape compiles a second one."""
    traces = traces_for("paper")
    cfg_a = MACHINE_PRESETS["paper"].machine
    cfg_b = replace(cfg_a)  # equal content, distinct object
    params = SimParams(target_instructions=500, timeslice=200, seed=1)

    Processor(BY_NAME["SMT"], traces, 2, cfg_a, params).run()
    info = specialize.cache_info()
    assert (info["misses"], info["compiled"]) == (1, 1)

    Processor(BY_NAME["SMT"], traces, 2, cfg_b, params).run()
    info = specialize.cache_info()
    assert (info["hits"], info["compiled"]) == (1, 1)

    # different thread count -> different monomorphic loop
    Processor(BY_NAME["SMT"], traces, 4, cfg_a, params).run()
    info = specialize.cache_info()
    assert (info["misses"], info["compiled"]) == (2, 2)
    assert info["failures"] == 0


@pytest.mark.parametrize("policy", ["CCSI-AS", "OOSI-AS"])
@pytest.mark.parametrize(
    "axis, pair",
    [("machine", ("paper", "big-fu")), ("memory", ("l2", "slow-dram"))],
    ids=["paper-big-fu", "l2-slow-dram"],
)
def test_cells_with_different_numbers_share_one_loop(
    fresh_cache, policy, axis, pair
):
    """Scenario numbers are bound at loop entry, not baked into the
    source: ``paper`` and ``big-fu`` (4 clusters each, different packed
    capacity) and ``l2`` and ``slow-dram`` (one memory class, different
    latencies) run through one compiled loop, and each cell stays
    bit-identical to the reference loop."""
    params = SimParams(target_instructions=1_000, timeslice=400, seed=11)
    cfgs = []
    for name in pair:
        if axis == "machine":
            cfgs.append((name, MACHINE_PRESETS[name].machine))
        else:
            cfg = replace(
                MACHINE_PRESETS["paper"].machine,
                memory=get_memory_config(name),
            )
            cfgs.append(("paper", cfg))
    assert cfgs[0][1] != cfgs[1][1]
    for machine, cfg in cfgs:
        spec, ref, proc = run_tiers(
            BY_NAME[policy.replace("-", " ")], traces_for(machine), 4, cfg,
            params,
        )
        assert proc.loop_used == "specialized"
        assert spec.to_dict() == ref.to_dict(), (policy, machine, cfg)
    info = specialize.cache_info()
    assert (info["misses"], info["hits"], info["compiled"]) == (1, 1, 1)


# -------------------------------------------------------- tier dispatch
def test_hooks_and_force_reference_take_reference_loop():
    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    params = SimParams(target_instructions=500, timeslice=200, seed=3)

    hooked = Processor(BY_NAME["SMT"], traces, 2, cfg, params,
                       hooks=[CycleRecorder(limit=10**9)])
    hooked.run()
    assert hooked.loop_used == "reference"

    forced = Processor(BY_NAME["SMT"], traces, 2, cfg, params,
                       force_reference=True)
    forced.run()
    assert forced.loop_used == "reference"

    default = Processor(BY_NAME["SMT"], traces, 2, cfg, params)
    default.run()
    assert default.loop_used == "specialized"


def test_broken_generation_falls_back_to_reference(fresh_cache, monkeypatch):
    """A generator bug must not change results: pre-exec verification
    (``repro.analysis.loopcheck``) rejects the source, the dispatch
    memoises the rejection and lands on ``_run_reference``."""
    from repro.analysis import LoopVerificationError

    traces = traces_for("paper")
    cfg = MACHINE_PRESETS["paper"].machine
    params = SimParams(target_instructions=800, timeslice=200, seed=9)

    monkeypatch.setattr(specialize, "STRICT", False)
    monkeypatch.setattr(
        specialize, "generate_loop_source",
        lambda *a, **k: "def broken(:\n",
    )
    proc = Processor(BY_NAME["CCSI AS"], traces, 2, cfg, params)
    stats = proc.run()
    assert proc.loop_used == "reference"
    assert specialize.cache_info()["rejected"] == 1

    ref = Processor(BY_NAME["CCSI AS"], traces, 2, cfg, params,
                    force_reference=True).run()
    assert stats.to_dict() == ref.to_dict()

    # strict mode rejects before exec instead of falling back
    specialize.clear_cache()
    monkeypatch.setattr(specialize, "STRICT", True)
    strict_proc = Processor(BY_NAME["CCSI AS"], traces, 2, cfg, params)
    with pytest.raises(LoopVerificationError):
        strict_proc.run()


# ------------------------------------------- whole-instruction fast path
def test_fast_path_preconditions_hold_on_every_rotated_suite_table():
    """The CCSI/OOSI fast path issues a first offer that fits whole from
    the no-split fragments: ``nops`` ops and ``mem_cmask`` ports.  That
    equals the split merge's per-part sums only if, on every rotated
    table, CCSI's bundles add up to the instruction and OOSI's per-op
    usages add up to ``packed``."""
    usage = {}
    checked = 0
    for label, cfg, t in rotated_suite_tables():
        if cfg not in usage:
            usage[cfg] = MergeEngine(cfg, "op")._op_usage
        op_usage = usage[cfg]
        for i in range(len(t.nops)):
            # CCSI: whole = every bundle of cmask, memory ports inside it
            assert sum(t.bundle_nops[i]) == t.nops[i], (label, i)
            assert t.mem_cmask[i] & ~t.cmask[i] == 0, (label, i)
            # OOSI: whole = every op of ops_desc
            packed = sum(op_usage[c][fu] for c, fu, _ in t.ops_desc[i])
            assert packed == t.packed[i], (label, i)
            mem = 0
            for c, _fu, is_mem in t.ops_desc[i]:
                if is_mem:
                    mem |= 1 << c
            assert mem == t.mem_cmask[i], (label, i)
            checked += 1
    assert checked > 10_000


# ----------------------------------------------- mutation cases (codegen)
#: String edits of the generated source, each dropping one piece of the
#: inline L1 probe, and the memory preset that exercises it.
MUTATIONS = {
    # LRU order: a hit must move the line to the MRU end of its set
    "drop-mru-reinsert": (
        "paper",
        lambda src: re.sub(r"^ *ways\[d?line\] = dirty.*\n", "", src,
                           flags=re.M),
    ),
    # hits on in-flight / prefetched lines owe MSHR and prefetch
    # bookkeeping (``i_hit_watched``/``d_hit_watched``)
    "drop-watched-guard": (
        "l2+pf+mshr",
        lambda src: src.replace(
            "if dline in d_prefetched or dline in d_inflight:", "if False:"
        ).replace("if line in i_inflight:", "if False:"),
    ),
    # the loop counts hits in locals and must flush them to the caches
    "drop-hit-flush": (
        "l2",
        lambda src: re.sub(r"^ *l1[id]\.hits \+= l1[id]_hits\n", "", src,
                           flags=re.M),
    ),
}


def run_source(src, policy, traces, nt, cfg, params):
    """Run one cell on a loop compiled from ``src`` (no verification,
    no memo: the caller owns the source)."""
    ns: dict = {}
    exec(compile(src, "<mutant>", "exec"), ns)
    proc = Processor(policy, traces, nt, cfg, params)
    proc._loop_fn = ns[specialize.LOOP_NAME]
    stats = proc.run()
    assert proc.loop_used == "specialized"
    return stats


def identity_failures(memory, edit):
    """Cells of a small policy × nt identity matrix on ``memory`` whose
    stats differ from the reference loop when the generated source is
    passed through ``edit``."""
    traces = traces_for("paper")
    cfg = replace(
        MACHINE_PRESETS["paper"].machine, memory=get_memory_config(memory)
    )
    params = SimParams(target_instructions=1_000, timeslice=400, seed=11)
    failures = []
    for name in ("SMT", "CCSI AS", "COSI NS", "OOSI AS"):
        policy = BY_NAME[name]
        for nt in (2, 4):
            src = specialize.generate_loop_source(
                specialize.loop_shape(policy, cfg, params, nt, len(traces))
            )
            mutant = edit(src)
            assert mutant != src, (name, nt)
            got = run_source(mutant, policy, traces, nt, cfg, params)
            ref = Processor(
                policy, traces, nt, cfg, params, force_reference=True
            ).run()
            if got.to_dict() != ref.to_dict():
                failures.append((name, nt))
    return failures


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_identity_matrix_catches_inline_probe_mutation(mutation):
    memory, edit = MUTATIONS[mutation]
    assert identity_failures(memory, edit), mutation


@pytest.mark.parametrize("memory", ["paper", "l2", "l2+pf+mshr"])
def test_unmutated_source_passes_mutation_harness(memory):
    """Control: the same harness with an identity edit finds nothing."""
    assert identity_failures(memory, lambda src: src + "\n") == []
