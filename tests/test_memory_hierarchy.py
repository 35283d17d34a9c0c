"""The memory-hierarchy subsystem (repro.memory.hierarchy) and its
presets, engine axis, and CLI surface."""

import json

import pytest

from repro.arch.config import (
    MEMORY_PRESETS,
    CacheConfig,
    DramConfig,
    MachineConfig,
    MemoryConfig,
    get_memory_config,
)
from repro.engine import ExperimentScale, SimulationSession
from repro.memory.hierarchy import (
    Dram,
    MemorySystem,
    NextLinePrefetcher,
    StridePrefetcher,
    make_prefetcher,
)
from repro.pipeline.stats import SimStats

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_500, timeslice=800
)

L1 = CacheConfig(size_bytes=2 * 4 * 32, assoc=2, line_bytes=32,
                 miss_penalty=20)


def machine(**mem_kwargs) -> MachineConfig:
    return MachineConfig(
        icache=L1, dcache=L1, memory=MemoryConfig(**mem_kwargs)
    )


# ------------------------------------------------------------- config
def test_paper_preset_is_flat():
    m = get_memory_config("paper")
    assert m.is_flat
    assert m.l2 is None and m.dram is None and m.prefetch == "none"
    # the all-defaults MachineConfig carries the paper preset
    assert MachineConfig().memory == m


def test_presets_cover_issue_scenarios():
    for name in ("paper", "l2", "l2+prefetch"):
        assert name in MEMORY_PRESETS
    assert get_memory_config("l2").l2 is not None
    assert get_memory_config("l2+prefetch").prefetch == "nextline"


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown memory preset"):
        get_memory_config("l3")


def test_memory_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(prefetch="oracle")
    with pytest.raises(ValueError):
        MemoryConfig(prefetch_degree=0)
    with pytest.raises(ValueError):
        MemoryConfig(l2_hit_latency=-1)
    with pytest.raises(ValueError):
        DramConfig(n_banks=3)
    with pytest.raises(ValueError):
        DramConfig(latency=-1)
    with pytest.raises(ValueError):
        DramConfig(interleave_bytes=0)


# ------------------------------------------------------- flat latency
def test_flat_model_charges_l1_miss_penalty():
    mem = MemorySystem(machine())
    assert mem.daccess(0x100, False, 0) == 20  # L1 miss
    assert mem.daccess(0x100, False, 0) is None  # L1 hit
    assert mem.iaccess(0x200, 0) == 20
    assert mem.iaccess(0x200, 0) is None


def test_perfect_memory_never_misses():
    mem = MemorySystem(machine(), perfect=True)
    for a in range(0, 1 << 14, 64):
        assert mem.daccess(a, False, 0) is None
        assert mem.iaccess(a, 0) is None
    assert mem.l2 is None and mem.dram is None


# --------------------------------------------------------- hierarchy
def test_l2_hit_cheaper_than_dram():
    cfg = machine(
        name="t",
        l2=CacheConfig(size_bytes=64 * 1024, assoc=8, line_bytes=32,
                       miss_penalty=60),
        l2_hit_latency=8,
        dram=DramConfig(latency=60),
    )
    mem = MemorySystem(cfg)
    # cold: L1 miss + L2 miss -> l2_hit_latency + dram latency
    assert mem.daccess(0x100, False, 0) == 8 + 60
    # evict 0x100 from the tiny L1 but not from L2
    mem.l1d.flush()
    assert mem.daccess(0x100, False, 0) == 8  # L2 hit
    assert mem.l2.hits == 1 and mem.l2.misses == 1


def test_l2_miss_without_dram_uses_l2_miss_penalty():
    cfg = machine(
        name="t",
        l2=CacheConfig(size_bytes=64 * 1024, assoc=8, line_bytes=32,
                       miss_penalty=42),
        l2_hit_latency=5,
    )
    mem = MemorySystem(cfg)
    assert mem.daccess(0x100, False, 0) == 5 + 42


def test_dram_bank_busy_waits_deterministically():
    d = Dram(DramConfig(latency=10, n_banks=2, bank_busy=8,
                        interleave_bytes=64))
    assert d.access(0x000, cycle=0) == 10   # bank 0 busy until 8
    assert d.access(0x040, cycle=0) == 10   # bank 1: no conflict
    assert d.access(0x080, cycle=4) == 4 + 10  # bank 0 again: waits 4
    assert d.bank_conflicts == 1
    assert d.wait_cycles == 4
    assert d.access(0x000, cycle=100) == 10  # long idle: bank free
    assert d.bank_conflicts == 1
    assert d.wait_cycles == 4


# -------------------------------------------------------- prefetchers
def test_nextline_prefetcher_predictions():
    pf = NextLinePrefetcher(degree=2)
    assert pf.predict(10) == (11, 12)


def test_stride_prefetcher_needs_repeated_stride():
    pf = StridePrefetcher(degree=2)
    assert pf.predict(10) == ()
    assert pf.predict(14) == ()        # first stride observed (4)
    assert pf.predict(18) == (22, 26)  # stride confirmed
    assert pf.predict(19) == ()        # stride broken (now 1)
    assert pf.predict(20) == (21, 22)  # new stride (1) confirmed


def test_make_prefetcher_factory():
    assert make_prefetcher("none", 1) is None
    assert isinstance(make_prefetcher("nextline", 1), NextLinePrefetcher)
    assert isinstance(make_prefetcher("stride", 1), StridePrefetcher)
    with pytest.raises(ValueError):
        make_prefetcher("oracle", 1)


def test_prefetch_turns_sequential_misses_into_hits():
    cfg = machine(
        name="t",
        prefetch="nextline",
        prefetch_degree=1,
        dram=DramConfig(latency=20),
    )
    mem = MemorySystem(cfg)
    assert mem.daccess(0 * 32, False, 0) == 20  # miss, prefetches line 1
    assert mem.daccess(1 * 32, False, 1) is None  # prefetched
    assert mem.prefetch_issued >= 1
    assert mem.prefetch_useful == 1


def test_prefetch_fills_l2_too():
    cfg = machine(
        name="t",
        l2=CacheConfig(size_bytes=64 * 1024, assoc=8, line_bytes=32,
                       miss_penalty=60),
        dram=DramConfig(latency=60),
        prefetch="nextline",
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # prefetches line 1 into L1D and L2
    mem.l1d.flush()
    assert mem.l2.contains(1 * 32)
    assert mem.daccess(1 * 32, False, 1) == cfg.memory.l2_hit_latency


# ----------------------------------------------------- MSHRs (non-blocking)
def test_mshr_presets_registered():
    m = get_memory_config("mshr")
    assert m.mshr == 4 and m.writeback_penalty == 4 and m.dram is not None
    m2 = get_memory_config("l2+mshr")
    assert m2.mshr == 8 and m2.l2 is not None
    assert not m.is_flat
    assert not MemoryConfig(mshr=1).is_flat
    assert not MemoryConfig(writeback_penalty=1).is_flat


def test_mshr_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(mshr=-1)
    with pytest.raises(ValueError):
        MemoryConfig(writeback_penalty=-1)


def test_mshr_secondary_miss_merges_and_pays_residual():
    cfg = machine(name="t", mshr=2, dram=DramConfig(latency=60))
    mem = MemorySystem(cfg)
    assert mem.daccess(0x100, False, 0) == 60  # primary miss
    # access to the in-flight line: merge, residual latency only
    assert mem.daccess(0x104, False, 10) == 50
    assert mem.mshr_merges == 1
    # a secondary miss is a miss at both accounting levels
    assert mem.l1d.misses == 2 and mem.l1d.hits == 0
    # once the fill has landed it is a plain hit
    assert mem.daccess(0x108, False, 60) is None
    assert mem.l1d.hits == 1


def test_mshr_hit_under_miss_is_free():
    cfg = machine(name="t", mshr=2, dram=DramConfig(latency=60))
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)
    assert mem.daccess(0 * 32, False, 70) is None  # fill completed
    mem.daccess(1 * 32, False, 100)  # miss in flight until 160
    # a hit to a *different* resident line proceeds under the miss
    assert mem.daccess(0 * 32, False, 101) is None


def test_mshr_full_miss_waits_for_free_entry():
    cfg = machine(name="t", mshr=1, dram=DramConfig(latency=60))
    mem = MemorySystem(cfg)
    assert mem.daccess(0 * 32, False, 0) == 60
    # the single MSHR is occupied until 60: a new miss waits for it,
    # then pays its own DRAM trip
    assert mem.daccess(1 * 32, False, 10) == 50 + 60
    assert mem.mshr_full_stalls == 1
    assert mem.mshr_full_stall_cycles == 50


def test_mshr_merge_after_eviction_of_inflight_line():
    # L1D: 1 set x 1 way — the in-flight line gets evicted immediately
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", mshr=2, dram=DramConfig(latency=60)),
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # in flight until 60
    mem.daccess(1 * 32, False, 5)  # evicts line 0 from the tags
    # tag miss, but line 0's fill is still in flight: merge, no new
    # lower-level request
    dram_before = mem.dram.accesses
    assert mem.daccess(0 * 32, False, 10) == 50
    assert mem.mshr_merges == 1
    assert mem.dram.accesses == dram_before


def test_merging_miss_still_charges_dirty_victim_writeback():
    """Regression: a miss that merges into an in-flight MSHR has still
    evicted a line from the tags — if that victim was dirty, its
    writeback must be charged exactly like on the non-merge path."""
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", mshr=2, writeback_penalty=3,
                            dram=DramConfig(latency=60)),
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # A in flight until 60
    mem.daccess(1 * 32, True, 5)   # evicts A (clean); B dirty
    # re-access A at 10: tag miss (B resident) but A's fill is still in
    # flight — merge pays the residual, and evicted dirty B pays its
    # writeback drain + posts to DRAM
    assert mem.daccess(0 * 32, False, 10) == 50 + 3
    assert mem.wb_l1d == 1
    assert mem.dram.writes == 1


def test_priced_prefetch_skips_inflight_line():
    """With MSHRs, a prefetch prediction for a line whose fill is
    already in flight (here: a demand fill whose line got evicted) must
    not issue a duplicate request — the existing MSHR already covers
    it, and the demand access that follows merges into it."""
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", mshr=4, prefetch="nextline",
                            dram=DramConfig(latency=60)),
    )
    mem = MemorySystem(cfg)
    mem.daccess(5 * 32, False, 0)  # line 5 in flight; prefetch 6 evicts 5
    dram_before = mem.dram.accesses
    mem.daccess(4 * 32, False, 1)  # miss; its prefetch predicts line 5
    assert 5 not in mem._prefetched  # prediction skipped, not reissued
    # only the demand for line 4 went to DRAM
    assert mem.dram.accesses == dram_before + 1
    # the demand access merges into the original in-flight fill
    assert mem.daccess(5 * 32, False, 10) == 50
    assert mem.mshr_merges == 1


def test_priced_prefetch_lands_after_latency_and_counts_late():
    """With MSHRs, a predicted line allocates an MSHR and lands after
    its real fill latency: a demand arriving earlier pays the residual
    (late prefetch), one arriving later gets it free (useful)."""
    cfg = machine(name="t", mshr=4, prefetch="nextline",
                  prefetch_degree=2, dram=DramConfig(latency=60))
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # miss; prefetches lines 1 and 2
    assert mem.prefetch_issued == 2
    assert mem._d_inflight[1] == 60 and mem._d_inflight[2] == 60
    assert mem.dram.accesses == 3  # prefetch trips hit DRAM too
    # demand for line 1 at cycle 20: fill in flight, pay the residual
    misses_before = mem.l1d.misses
    assert mem.daccess(1 * 32, False, 20) == 40
    assert mem.prefetch_late == 1 and mem.prefetch_useful == 1
    # the stalling access is recounted hit -> miss, like a demand
    # secondary miss, so L1 counters agree with pipeline stalls
    assert mem.l1d.misses == misses_before + 1
    # demand for line 2 after the fill landed: free and useful
    assert mem.daccess(2 * 32, False, 100) is None
    assert mem.prefetch_useful == 2 and mem.prefetch_late == 1


def test_priced_prefetch_posts_dirty_victim_writeback():
    """A priced prefetch that displaces a dirty L1D line posts the
    victim's traffic below (DRAM bank occupancy) without stalling
    anyone — prefetches pay for the evictions they cause."""
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", mshr=4, prefetch="nextline",
                            writeback_penalty=3,
                            dram=DramConfig(latency=10, n_banks=1,
                                            bank_busy=8)),
    )
    mem = MemorySystem(cfg)
    # the write miss installs dirty line 0; its own prefetch (line 1)
    # then displaces it from the 1-set 1-way L1D
    mem.daccess(0 * 32, True, 0)
    assert mem.l1d.contains(1 * 32) and not mem.l1d.contains(0)
    assert mem.wb_l1d == 1
    assert mem.dram.writes == 1      # victim posted to the bank
    assert mem.wb_stall_cycles == 0  # but nobody stalled for it


def test_priced_prefetch_dropped_when_mshrs_full():
    """A prediction arriving with every MSHR occupied is dropped —
    demand misses keep priority over predictions."""
    cfg = machine(name="t", mshr=1, prefetch="nextline",
                  dram=DramConfig(latency=60))
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # the only MSHR now holds line 0
    assert mem.prefetch_dropped == 1  # line 1's prediction found it full
    assert mem.prefetch_issued == 0
    assert 1 not in mem._d_inflight and not mem.l1d.contains(1 * 32)


def test_timeless_prefetch_unchanged_without_mshrs():
    """Without MSHRs prefetches stay timeless: the predicted line is
    simply present, no latency, no DRAM traffic."""
    cfg = machine(name="t", prefetch="nextline",
                  dram=DramConfig(latency=60))
    mem = MemorySystem(cfg)
    dram_after_miss = None
    mem.daccess(0 * 32, False, 0)
    dram_after_miss = mem.dram.accesses
    assert mem.l1d.contains(1 * 32)
    assert mem.dram.accesses == dram_after_miss  # no prefetch DRAM trip
    assert mem.daccess(1 * 32, False, 1) is None
    assert mem.prefetch_useful == 1 and mem.prefetch_late == 0


def test_mshr_instruction_fetch_merges():
    cfg = machine(name="t", mshr=2, dram=DramConfig(latency=60))
    mem = MemorySystem(cfg)
    assert mem.iaccess(0x100, 0) == 60
    assert mem.iaccess(0x110, 10) == 50  # same line, fill in flight
    assert mem.mshr_merges == 1
    assert mem.l1i.misses == 2


def test_perfect_memory_disables_mshr_and_writeback():
    cfg = machine(name="t", mshr=4, writeback_penalty=3,
                  dram=DramConfig(latency=60))
    mem = MemorySystem(cfg, perfect=True)
    for a in range(0, 1 << 12, 32):
        assert mem.daccess(a, True, 0) is None
    d = mem.stats_dict()
    assert "mshr" not in d and "writeback" not in d


# ------------------------------------------------------ writeback traffic
def test_writeback_charges_penalty_and_occupies_dram_bank():
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(
            name="t", writeback_penalty=3,
            dram=DramConfig(latency=10, n_banks=1, bank_busy=8),
        ),
    )
    mem = MemorySystem(cfg)
    assert mem.daccess(0 * 32, True, 0) == 10  # dirty fill
    # the miss at 20 evicts dirty line 0: the read goes first (bank
    # free again), then the posted writeback re-occupies the bank, and
    # the thread pays the 3-cycle victim-buffer drain on top
    assert mem.daccess(1 * 32, False, 20) == 10 + 3
    assert mem.wb_l1d == 1
    assert mem.wb_stall_cycles == 3
    assert mem.dram.writes == 1
    # the write holds the bank until 36: a read at 22 waits 14 cycles
    assert mem.daccess(2 * 32, False, 22) == 14 + 10
    assert mem.dram.bank_conflicts == 1


def test_writeback_installs_dirty_victim_into_l2():
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    big_l2 = CacheConfig(size_bytes=64 * 1024, assoc=8, line_bytes=32,
                         miss_penalty=60)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", l2=big_l2, l2_hit_latency=8,
                            writeback_penalty=3),
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, True, 0)  # dirty in L1D; L2 missed
    assert mem.daccess(1 * 32, False, 100) == 8 + 60 + 3  # evicts dirty 0
    assert mem.wb_l1d == 1
    # the victim landed in L2: refetching it is an L2 hit
    assert mem.daccess(0 * 32, False, 200) == 8
    assert mem.l2.hits == 1


def test_dirty_l2_eviction_occupies_dram():
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    tiny_l2 = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                          miss_penalty=60)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", l2=tiny_l2, l2_hit_latency=8,
                            writeback_penalty=2,
                            dram=DramConfig(latency=10, n_banks=1,
                                            bank_busy=8)),
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, True, 0)    # L1D dirty; L2 installs line 0
    mem.daccess(1 * 32, False, 50)  # L1D evicts dirty 0 -> L2 (dirty)
    assert mem.wb_l1d == 1
    # the next demand L2 miss evicts the dirty line 0 from L2: its
    # writeback occupies a DRAM bank (posted, no direct stall)
    writes_before = mem.dram.writes
    mem.daccess(2 * 32, False, 100)
    assert mem.wb_l2 == 1
    assert mem.dram.writes == writes_before + 1


def test_cascading_dirty_l2_eviction_counted_without_dram():
    """wb_l2 counts dirty L2 evictions identically on the demand path
    and the writeback-install cascade, with or without a DRAM model."""
    tiny_l2 = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                          miss_penalty=60)
    cfg = machine(name="t", l2=tiny_l2, writeback_penalty=2)
    mem = MemorySystem(cfg)
    mem.l2.fill(0 * 32, dirty=True)  # L2 holds a dirty line
    mem._writeback(1 * 32, 0)        # an L1D victim displaces it
    assert mem.wb_l1d == 1
    assert mem.wb_l2 == 1  # cascade counted even with no DRAM


def test_paper_preset_keeps_writebacks_free():
    # flat model: dirty evictions are counted but charge nothing
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(icache=L1, dcache=tiny, memory=MemoryConfig())
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, True, 0)
    assert mem.daccess(1 * 32, False, 10) == 20  # evicts dirty: free
    assert mem.l1d.writebacks == 1
    assert mem.wb_l1d == 0 and mem.wb_stall_cycles == 0


# --------------------------------------- prefetch accounting (bugfixes)
def test_prefetch_does_not_refresh_l2_replacement_state():
    """Regression: prefetches used to call ``l2.fill`` on resident
    lines, silently making them MRU; the L2 LRU order must be exactly
    what the demand stream alone produces."""
    l2cfg = CacheConfig(size_bytes=64, assoc=2, line_bytes=32,
                        miss_penalty=60)  # one set, two ways
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", l2=l2cfg, prefetch="nextline"),
    )
    mem = MemorySystem(cfg)
    # L2 set holds lines 0 (LRU) and 2 (MRU); L1D holds only line 2
    mem.l2.access(0 * 32)
    mem.l2.access(2 * 32)
    mem.l1d.fill(2 * 32)
    # prefetch predicts line 0: absent in L1D, resident in L2
    mem._issue_prefetches(mem.prefetcher, -1, 0)
    assert mem.prefetch_issued == 1
    assert mem.l1d.contains(0 * 32)
    # line 0 must still be the L2 LRU victim
    mem.l2.access(4 * 32)
    assert not mem.l2.contains(0 * 32)
    assert mem.l2.contains(2 * 32)


def test_prefetch_useful_at_l2_after_l1_eviction():
    """Regression: a prefetched line evicted from L1D but still in L2
    was dropped from tracking and credited nothing, even though the L2
    hit it produces is the prefetch paying off."""
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    big_l2 = CacheConfig(size_bytes=64 * 1024, assoc=8, line_bytes=32,
                         miss_penalty=60)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", l2=big_l2, l2_hit_latency=8,
                            prefetch="nextline",
                            dram=DramConfig(latency=60)),
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # miss; prefetches line 1 to L1D+L2
    mem.daccess(2 * 32, False, 1)  # miss; evicts prefetched line 1
    # demand on line 1: L1D miss, L2 hit — credited at L2 level
    assert mem.daccess(1 * 32, False, 2) == 8
    assert mem.prefetch_useful == 0
    assert mem.prefetch_useful_l2 == 1
    assert mem.stats_dict()["prefetch"]["useful_l2"] == 1
    # the tracking entry was consumed: no double credit
    mem.l1d.flush()
    mem.daccess(1 * 32, False, 100)
    assert mem.prefetch_useful_l2 == 1


def test_prefetch_miss_all_the_way_to_dram_still_not_useful():
    """The l2-useful credit requires an actual L2 hit — a tracked line
    that misses L2 too stays useless."""
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    tiny_l2 = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                          miss_penalty=60)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", l2=tiny_l2, l2_hit_latency=8,
                            prefetch="nextline",
                            dram=DramConfig(latency=60)),
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # prefetches line 1 into L1D+L2
    mem.daccess(4 * 32, False, 1)  # evicts line 1 from L1D *and* L2
    mem.daccess(1 * 32, False, 2)  # tracked, but missed everywhere
    assert mem.prefetch_useful == 0
    assert mem.prefetch_useful_l2 == 0


# ---------------------------------------------------- engine integration
@pytest.fixture(scope="module")
def session():
    return SimulationSession(TINY)


def test_paper_preset_bit_identical_to_default(session):
    default = session.run("CCSI AS", "llhh", 4)
    via_preset = session.run("CCSI AS", "llhh", 4, memory="paper")
    assert via_preset is default  # same memo cell: identical by content


def test_memory_presets_change_results(session):
    flat = session.run("SMT", "llll", 2)
    l2 = session.run("SMT", "llll", 2, memory="l2")
    assert flat.cycles != l2.cycles
    assert "l2" in l2.memory["levels"]
    assert "l2" not in flat.memory["levels"]
    assert l2.memory["preset"] == "l2"
    assert l2.memory["dram"]["accesses"] > 0


def test_prefetch_preset_reduces_dcache_misses(session):
    l2 = session.run("SMT", "llll", 2, memory="l2")
    pf = session.run("SMT", "llll", 2, memory="l2+prefetch")
    assert pf.memory["prefetch"]["issued"] > 0
    assert pf.dcache_misses < l2.dcache_misses


def test_memory_stats_json_roundtrip(session):
    s = session.run("SMT", "llll", 2, memory="l2+prefetch")
    d = s.to_dict()
    json.dumps(d)  # JSON-safe
    back = SimStats.from_dict(d)
    assert back.memory == s.memory
    assert back.memory["levels"]["l2"]["misses"] >= 0


def test_distinct_disk_cache_keys_per_preset(session):
    params = session.params()
    members = session.workload_members("llll")
    keys = set()
    from repro.engine.cache import cache_key

    programs = session._program_prints(members)
    for preset in ("paper", "l2", "l2+prefetch"):
        cfg = session.resolve_cfg(preset)
        keys.add(cache_key(cfg, params, "SMT", members, programs, 2))
    assert len(keys) == 3


def test_warm_rerun_per_preset_resimulates_nothing(tmp_path):
    presets = ("l2", "l2+prefetch")
    s1 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    s1.sweep(policies=["SMT"], workloads=["llll"], n_threads=(2,),
             memory=presets)
    assert s1.simulations == 2

    s2 = SimulationSession(TINY, cache_dir=tmp_path / "c")
    out = s2.sweep(policies=["SMT"], workloads=["llll"], n_threads=(2,),
                   memory=presets)
    assert s2.simulations == 0
    assert set(out) == {("SMT", "llll", 2, p) for p in presets}
    # cached stats come back with their per-level counters intact
    assert out[("SMT", "llll", 2, "l2")].memory["preset"] == "l2"


def test_memory_axis_parallel_matches_serial():
    serial = SimulationSession(TINY)
    rs = serial.sweep(policies=["SMT"], workloads=["llll"],
                      n_threads=(2,), memory=("paper", "l2"))
    parallel = SimulationSession(TINY, jobs=2)
    rp = parallel.sweep(policies=["SMT"], workloads=["llll"],
                        n_threads=(2,), memory=("paper", "l2"))
    assert set(rs) == set(rp)
    for k in rs:
        assert rs[k].cycles == rp[k].cycles, k
        assert rs[k].operations == rp[k].operations, k
        assert rs[k].memory == rp[k].memory, k


def test_custom_config_does_not_collide_with_preset_memo():
    """A session whose config carries a custom MemoryConfig sharing a
    preset's (default) name must not serve that preset's cells from the
    custom config's memo entries — the memo keys on the full config."""
    from dataclasses import replace

    from repro.arch.config import PAPER_MACHINE

    custom = replace(
        PAPER_MACHINE,
        memory=MemoryConfig(  # name defaults to "paper"
            l2=CacheConfig(size_bytes=512 * 1024, assoc=8, line_bytes=32,
                           miss_penalty=60),
            dram=DramConfig(latency=60, n_banks=8, bank_busy=4),
        ),
    )
    s = SimulationSession(TINY, cfg=custom)
    hier = s.run("SMT", "llll", 2)
    flat = s.run("SMT", "llll", 2, memory="paper")
    assert hier is not flat
    assert "l2" in hier.memory["levels"]
    assert "l2" not in flat.memory["levels"]
    assert flat.cycles != hier.cycles


def test_prefetched_line_evicted_before_use_not_counted_useful():
    # L1D: 1 set x 1 way — any second line evicts the first
    tiny = CacheConfig(size_bytes=32, assoc=1, line_bytes=32,
                       miss_penalty=20)
    cfg = MachineConfig(
        icache=L1, dcache=tiny,
        memory=MemoryConfig(name="t", prefetch="nextline",
                            dram=DramConfig(latency=20)),
    )
    mem = MemorySystem(cfg)
    mem.daccess(0 * 32, False, 0)  # miss; prefetches line 1 (evicts 0)
    mem.daccess(2 * 32, False, 1)  # miss; evicts prefetched line 1
    mem.daccess(1 * 32, False, 2)  # miss: the prefetch was wasted
    mem.daccess(1 * 32, False, 3)  # plain hit on the demand refill
    assert mem.prefetch_useful == 0


def test_session_memory_default(tmp_path):
    s = SimulationSession(TINY, memory="l2")
    assert s.cfg.memory.name == "l2"
    stats = s.run("SMT", "llll", 2)
    assert stats.memory["preset"] == "l2"
    # naming the session's own preset reuses the same memo cell
    assert s.run("SMT", "llll", 2, memory="l2") is stats


def test_mshr_preset_changes_results_and_reports(session):
    blocking = session.run("CCSI AS", "llhh", 4, memory="slow-dram")
    nb = session.run("CCSI AS", "llhh", 4, memory="mshr")
    # same DRAM-heavy scenario, but misses overlap and merges fire
    assert nb.cycles != blocking.cycles
    m = nb.memory["mshr"]
    assert m["entries"] == 4 and m["merges"] > 0
    assert nb.memory["writeback"]["penalty"] == 4
    # SimStats conveniences mirror the memory dict
    assert nb.mshr_merges == m["merges"]
    assert nb.mshr_full_stall_cycles == m["full_stall_cycles"]
    assert blocking.mshr_merges == 0
    assert nb.summary()["mshr_merges"] == float(m["merges"])


# ----------------------------------------------------------- reporting
def test_memory_sensitivity_report(session):
    from repro.harness.experiment import ExperimentRunner
    from repro.harness.memreport import (
        memory_sensitivity,
        render_memory_levels,
        render_memory_report,
    )

    runner = ExperimentRunner(session=session)
    rows = memory_sensitivity(runner, "SMT", "llll", 2,
                              presets=["paper", "l2"])
    assert [r.preset for r in rows] == ["paper", "l2"]
    text = render_memory_report(rows, "SMT", "llll", 2)
    assert "paper" in text and "l2" in text and "IPC" in text
    levels = render_memory_levels(rows[1].stats)
    assert "l2" in levels and "dram" in levels


def test_memory_report_renders_mshr_and_writeback(session):
    from repro.harness.memreport import render_memory_levels

    s = session.run("SMT", "llll", 2, memory="l2+mshr")
    text = render_memory_levels(s)
    assert "mshr[8]" in text
    assert "writeback:" in text


def test_fig_mem(session):
    from repro.harness.experiment import ExperimentRunner
    from repro.harness.figures import fig_mem, render_fig_mem

    runner = ExperimentRunner(session=session)
    rows = fig_mem(runner, presets=["paper", "mshr"], n_threads=(2,))
    assert len(rows) == 8  # all eight policies
    assert all(set(r["ipc"]) == {"paper", "mshr"} for r in rows)
    assert all(r["ipc"]["paper"] > 0 for r in rows)
    text = render_fig_mem(rows)
    assert "CCSI AS" in text and "OOSI NS" in text
    assert "mshr" in text and "paper" in text and "2-Thread" in text
