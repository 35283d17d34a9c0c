"""Shape-specialised run-loop code generation.

This module generates the *source* of a monomorphic run loop for one
:class:`LoopShape` — only the facts that change the loop's form
(policy levels, cluster and thread counts, priority kind,
multitasking, memory class, taken-branch penalty) — and ``exec()``s
it.  What the shape fixes is inlined: the per-cluster merges and data
probes are unrolled with literal cluster bits, the priority rotation
is a tuple of *thread objects*, and structurally-dead branches are
deleted (no scheduler without multitasking, no hierarchy walker on
flat memory, no ICC-atomicity branch under AS, no buffered-store
machinery without split).  L1 tag hits are probed inline, with local
hit counters flushed at exit; the memory model is entered only on a
miss or a hit to a line an MSHR file or the prefetcher watches.  Under
CCSI and OOSI a first offer that fits whole issues through the
no-split fragments.  The pending-instruction state machine is a plain
list (``[i, ops_remaining, was_split, buffered_store_mask, extra]``;
a bare static index under no-split).

Scenario *numbers* — capacity, guard mask, set masks, line shifts,
penalties, timeslice, target, cycle limit — are locals bound in the
loop's setup block from the state ``_run_reference`` reads, so every
cell of a shape shares one compiled loop at the same bytecode cost.

Each fresh generation is verified by :mod:`repro.analysis.loopcheck`
before ``exec()``, then memoised by shape in this process (pool
workers build their own).  A generation failure or rejection is
memoised as ``None`` and :meth:`Processor.run` falls back to
``_run_reference``, logging the rule names and cell fingerprint
(``REPRO_SPECIALIZE_STRICT=1`` re-raises instead).  Bit-identity with
``_run_reference`` over the policy × machine × memory × thread matrix
is enforced by ``tests/test_specialize.py`` and
``tests/test_fast_forward.py``: the fragments here replicate the
reference stages (``_fetch``, ``_merge_stage``, ``_dcache_probe``,
``_commit_thread``, ``_retire``) plus :meth:`Processor._fast_forward`.
"""

from __future__ import annotations

import functools
import logging
import os
import textwrap
from dataclasses import dataclass

from ..arch.config import MachineConfig
from ..arch.scenarios import machine_fingerprint
from ..core.policies import Policy
from ..core.priority import make_priority

_log = logging.getLogger("repro.pipeline.specialize")

#: name of the generated function inside its module namespace
LOOP_NAME = "__specialized_loop"

#: re-raise generation/verification/compilation failures instead of
#: falling back
STRICT = bool(os.environ.get("REPRO_SPECIALIZE_STRICT"))


@dataclass(frozen=True)
class LoopShape:
    """Everything that changes the generated source's form, and
    nothing else: the generator's whole input and the memo key."""

    merge: str  # "op" | "cluster"
    split: str  # "none" | "cluster" | "op"
    comm_split: bool
    n_clusters: int
    n_threads: int
    priority: str
    multi: bool
    memory: str  # "perfect" | "flat" | "blocking" | "mshr"
    prefetch: bool
    taken_penalty: bool


_loops: dict[LoopShape, object] = {}
_stats = {"hits": 0, "misses": 0, "failures": 0, "rejected": 0}


def cache_info() -> dict:
    """Memo counters (for tests and diagnostics)."""
    return dict(_stats, compiled=len(_loops))


def clear_cache() -> None:
    _loops.clear()
    _stats.update(hits=0, misses=0, failures=0, rejected=0)


def loop_shape(
    policy: Policy,
    cfg: MachineConfig,
    params,
    n_threads: int,
    n_benches: int,
) -> LoopShape:
    """The shape of one resolved cell's run loop."""
    mem = cfg.memory
    if params.perfect_memory:
        memory = "perfect"
    elif mem.is_flat:
        memory = "flat"
    else:
        memory = "mshr" if mem.mshr > 0 else "blocking"
    return LoopShape(
        merge=policy.merge,
        split=policy.split,
        comm_split=policy.comm_split,
        n_clusters=cfg.n_clusters,
        n_threads=n_threads,
        priority=params.priority,
        multi=n_benches > 1 and params.timeslice > 0,
        memory=memory,
        prefetch=memory != "perfect" and mem.prefetch != "none",
        taken_penalty=cfg.taken_branch_penalty != 0,
    )


def get_specialized_loop(
    policy: Policy,
    cfg: MachineConfig,
    params,
    n_threads: int,
    n_benches: int,
):
    """Compiled monomorphic loop for one cell, or ``None`` if
    generation failed or static verification rejected it (the caller
    then uses ``_run_reference``); both outcomes are memoised by the
    cell's :func:`loop_shape`.  A fresh generation passes
    ``loopcheck.check_shape`` and ``loopcheck.check_source`` *before*
    ``exec()``: under :data:`STRICT` a finding raises
    :class:`~repro.analysis.loopcheck.LoopVerificationError`, otherwise
    it is memoised and logged (rule names + the cell's machine
    fingerprint) through the ``repro`` logging tree, like generation
    exceptions.
    """
    shape = loop_shape(policy, cfg, params, n_threads, n_benches)
    if shape in _loops:
        _stats["hits"] += 1
        return _loops[shape]
    _stats["misses"] += 1
    fingerprint = machine_fingerprint(cfg)[:12]
    cell = (
        f"{policy.merge}-merge/{policy.split}-split"
        f" nt={n_threads} machine={fingerprint}"
    )
    try:
        src = generate_loop_source(shape)
        # imported late: analysis.loopcheck imports this module
        from ..analysis import loopcheck

        label = f"<specialized {cell}>"
        findings = loopcheck.check_shape(
            shape, policy, cfg, params, n_threads, n_benches, label
        ) + loopcheck.check_source(shape, src, label=label)
        if findings:
            raise loopcheck.LoopVerificationError(findings)
        label = (
            f"<specialized {policy.merge}-merge/{policy.split}-split"
            f" nt={n_threads}>"
        )
        ns: dict = {}
        exec(compile(src, label, "exec"), ns)
        fn = ns[LOOP_NAME]
    except Exception as e:
        if STRICT:
            raise
        rules = sorted(
            {f.rule for f in getattr(e, "findings", ())}
        )
        if rules:
            _stats["rejected"] += 1
            _log.warning(
                "specialised loop rejected before exec for %s "
                "(rules: %s); falling back to _run_reference",
                cell, ", ".join(rules),
            )
        else:
            _stats["failures"] += 1
            _log.warning(
                "specialised-loop generation failed for %s "
                "(%s: %s); falling back to _run_reference",
                cell, type(e).__name__, e,
            )
        fn = None
    _loops[shape] = fn
    return fn


# ---------------------------------------------------------------- codegen
# Dedenting dominates generation, and most fragments repeat across
# shapes (97 % hits over the lint matrix's 720 shapes).
@functools.lru_cache(maxsize=128)
def _block(text: str, indent: int) -> str:
    """Dedent a template fragment and re-indent it to ``indent``."""
    body = textwrap.dedent(text).strip("\n")
    pad = " " * indent
    return "\n".join(
        pad + ln if ln.strip() else "" for ln in body.splitlines()
    )


@functools.lru_cache(maxsize=128)
def _dd(text: str) -> str:
    """Dedent a template fragment to column zero."""
    return textwrap.dedent(text).strip("\n")


def generate_loop_source(shape: LoopShape) -> str:
    """Emit the source of the monomorphic run loop of one shape."""
    split = shape.split
    if split not in ("none", "cluster", "op"):
        raise ValueError(f"unknown split level {split!r}")
    if shape.merge not in ("op", "cluster"):
        raise ValueError(f"unknown merge level {shape.merge!r}")
    if shape.memory not in ("perfect", "flat", "blocking", "mshr"):
        raise ValueError(f"unknown memory class {shape.memory!r}")
    op_merge = shape.merge == "op"
    comm_split = shape.comm_split
    n_clusters = shape.n_clusters
    perfect = shape.memory == "perfect"
    flat = perfect or shape.memory == "flat"
    nonblocking = shape.memory == "mshr"
    multi = shape.multi
    orders = make_priority(shape.priority, shape.n_threads).orders

    # ---- small fragments ------------------------------------------------
    fetch_at_expr = (
        "cycle + (taken_delay if taken else 1)"
        if shape.taken_penalty
        else "cycle + 1"
    )
    # Retire bookkeeping, assuming ``bstats`` is already in a local
    # (the issue path loads it once for the operations counter and the
    # retire shares it).  Callers that retire without issuing prepend
    # the load; callers with live pending state prepend the clear.
    retire_tail = _dd(f"""
        pos = bench.pos
        taken = th.taken[pos]
        th.fetch_at = {fetch_at_expr}
        bench.pos = pos = pos + 1
        bstats.instructions += 1
        instructions += 1
        if bstats.instructions >= target:
            target_hit = True
        if pos >= bench.bundle.length:
            bench.pos = 0
            bstats.respawns += 1
            th.last_iline = -1
        if taken:
            th.last_iline = -1
    """)
    retire_full = "bstats = bench.stats\n" + retire_tail
    commit_retire = "th.pend = None\n" + retire_tail

    # ---- L1 probes ------------------------------------------------------
    # Every real (non-perfect) L1 tag probe is inlined: set index,
    # ``dict.pop`` and MRU reinsert, exactly :meth:`Cache.access`'s hit
    # path, with the hit counted in a local flushed into ``l1i.hits`` /
    # ``l1d.hits`` at exit.  A miss leaves the set untouched, so the
    # memory model is entered only then (it re-probes and fills), or on
    # a hit to a *watched* line — one in an MSHR file or tracked as
    # prefetched — whose hit-side bookkeeping ``MemorySystem`` keeps in
    # ``i_hit_watched``/``d_hit_watched``.  An unwatched hit has no
    # other side effect (``docs/memory.md``).
    inline = not perfect
    prefetching = shape.prefetch
    d_watch = []
    if prefetching:
        d_watch.append("dline in d_prefetched")
    if nonblocking:
        d_watch.append("dline in d_inflight")
    if perfect:
        ifetch = _dd("""
            if not l1i_access(pc):
                icache_misses += 1
                th.fetch_at = cycle + i_miss_penalty
                continue
        """)
    else:
        if flat:
            imiss = """
                l1i_access(pc)
                icache_misses += 1
                th.fetch_at = cycle + i_miss_penalty
                continue
            """
        else:
            imiss = """
                icache_misses += 1
                th.fetch_at = cycle + iaccess(pc, cycle)
                continue
            """
        ifetch = _dd(f"""
            ways = l1i_sets[line & i_set_mask]
            dirty = ways.pop(line, None)
            if dirty is None:
{_block(imiss, 16)}
            ways[line] = dirty
            l1i_hits += 1
        """)
        if nonblocking:
            ifetch += "\n" + _dd("""
                if line in i_inflight:
                    lat = i_hit_watched(line, cycle)
                    if lat is not None:
                        icache_misses += 1
                        th.fetch_at = cycle + lat
                        continue
            """)

    # The data probe is unrolled over clusters: each cluster gets a
    # literal mask test, so the generic bit-scan loop (shift + counter
    # per cluster) disappears.  ``Cache.access`` only ever uses
    # ``is_write`` for truthiness, so the flat path passes the raw mask
    # bit and skips the ``bool()`` call, and the inline hit stores it
    # as the dirty flag.
    # MSHRs: misses all issue at ``cycle`` and overlap, and the thread
    # stalls for the slowest; blocking caches serialise — each later
    # miss starts after the accumulated penalty
    d_cycle = "cycle" if nonblocking else "cycle + penalty"
    d_charge = (
        "if lat > penalty:\n    penalty = lat"
        if nonblocking
        else "penalty += lat"
    )
    probe_blocks = []
    for c in range(n_clusters):
        bit = 1 << c
        if perfect:
            miss = _dd(f"""
            if not l1d_access(addr, store_mask & {bit}):
                dcache_misses += 1
                penalty += d_miss_penalty
            """)
        else:
            if flat:
                dmiss = f"""
                l1d_access(addr, store_mask & {bit})
                dcache_misses += 1
                penalty += d_miss_penalty
                """
            else:
                dmiss = f"""
                lat = daccess(addr, bool(store_mask & {bit}), {d_cycle})
                dcache_misses += 1
{_block(d_charge, 16)}
                """
            dhit = f"ways[dline] = dirty or store_mask & {bit}\nl1d_hits += 1"
            if d_watch:
                dhit += "\n" + _dd(f"""
                if {" or ".join(d_watch)}:
                    lat = d_hit_watched(dline, {d_cycle})
                    if lat is not None:
                        dcache_misses += 1
{_block(d_charge, 24)}
                """)
            miss = _dd(f"""
            dline = addr >> d_line_shift
            ways = l1d_sets[dline & d_set_mask]
            dirty = ways.pop(dline, None)
            if dirty is None:
{_block(dmiss, 16)}
            else:
{_block(dhit, 16)}
            """)
        probe_blocks.append(
            _dd(f"""
            if mem & {bit}:
                addr = row[{c}]
                if addr >= 0:
                    dcache_accesses += 1
{_block(miss, 20)}
            """)
        )
    dprobe = "\n".join(
        [
            "row = th.addr_rows[bench.pos]",
            "store_mask = table.store_cmask[i]",
            "penalty = 0",
            *probe_blocks,
            _dd("""
            if penalty:
                su = cycle + 1 + penalty
                if su > th.stall_until:
                    th.stall_until = su
            """),
        ]
    )

    fetch_guard = (
        "if switching or cycle < th.fetch_at:"
        if multi
        else "if cycle < th.fetch_at:"
    )

    # ---- whole-instruction fragments -----------------------------------
    # Shared by the no-split variant and the split variants' fast path.
    # ``whole_fit`` is (probe, conflict test, fit test, take) of merging
    # a whole instruction: one SWAR subtract under op-level merging, one
    # cluster-mask test under cluster-level merging.
    if op_merge:
        whole_fit = (
            "left = (e_remaining | guards) - table.packed[i]",
            "left & guards != guards",
            "left & guards == guards",
            "e_remaining = left ^ guards",
        )
    else:
        whole_fit = (
            "cm = table.cmask[i]",
            "cm & e_used",
            "not cm & e_used",
            "e_used |= cm",
        )

    def merge_whole(fail: str) -> str:
        """Whole-instruction merge; ``fail`` runs on a conflict."""
        probe, conflict, _fits, take = whole_fit
        return "\n".join(
            [probe, f"if {conflict}:", _block(fail, 4), take]
        )

    def issue_retire(clear_pend: bool, mark_mem: bool = False) -> str:
        """Issue all ``n`` ops of a merged instruction and retire it;
        ``mark_mem`` also claims its memory ports in ``e_mem_used``
        (split policies: a later thread's last-part store commit
        collides with them)."""
        clear = "th.pend = None\n" if clear_pend else ""
        mark = "e_mem_used |= mem\n" if mark_mem else ""
        return _dd(f"""
        ops_this_cycle += n
        threads_contributing += 1
        bstats = bench.stats
        bstats.operations += n
        mem = table.mem_cmask[i]
        if mem:
{_block(mark + dprobe, 12)}
        """) + "\n" + clear + retire_tail

    # ---- per-thread issue pass (three structural variants) ------------
    if split == "none":
        park_pend = "th.pend = i\ncontinue"

        # No-split: an instruction merges whole or not at all, so it
        # never buffers stores, never splits, and retires the cycle it
        # issues; a bare static index is the whole pending state.  The
        # fetch and retry paths are separate copies so the common case
        # (fetch, issue, retire in one cycle) never touches ``th.pend``
        # at all — the store only happens on a merge conflict, and the
        # retry path knows ``nops >= 1`` (empty instructions retire at
        # fetch and conflicts only arise inside the ``if n:`` arm).
        thread_body = f"""
        bench = th.bench
        if bench is None or cycle < th.stall_until:
            continue
        table = th.table
        i = th.pend
        if i is None:
            {fetch_guard}
                continue
            i = th.idx[bench.pos]
            pc = table.pc[i]
            line = pc >> iline_shift
            if line != th.last_iline:
                th.last_iline = line
                icache_accesses += 1
{_block(ifetch, 16)}
            n = table.nops[i]
            if n:
{_block(merge_whole(park_pend), 16)}
{_block(issue_retire(False), 16)}
            else:
{_block(retire_full, 16)}
        else:
            n = table.nops[i]
{_block(merge_whole("continue"), 12)}
{_block(issue_retire(True), 12)}
        """
    else:
        # split policies share one pending-list layout:
        #   [static_index, ops_remaining, was_split, buffered_stores,
        #    extra]   (extra: pending cluster mask | pending-ops list)
        if split == "cluster":
            make_pend = "pend = th.pend = [i, n, False, 0, table.cmask[i]]"
            # The per-cluster merge is unrolled in ascending cluster
            # order, one literal mask test per cluster, so no bit-scan
            # loop (shift + counter per cluster) runs.
            if op_merge:
                bundle_merge = "\n".join(
                    _dd(f"""
                    if pm & {1 << c}:
                        left = (e_remaining | guards) - b_packed[{c}]
                        if left & guards == guards:
                            e_remaining = left ^ guards
                            avail |= {1 << c}
                            n += b_nops[{c}]
                    """)
                    for c in range(n_clusters)
                )
                merge_part = f"""
                pm = pend[4]
                b_packed = table.bundle_packed[i]
                b_nops = table.bundle_nops[i]
                avail = 0
                n = 0
{_block(bundle_merge, 16)}
                if not avail:
                    continue
                mem = table.mem_cmask[i] & avail
                e_mem_used |= mem
                rem = pend[1] - n
                pend[1] = rem
                pm &= ~avail
                pend[4] = pm
                if pm:
                    pend[2] = True
                """
            else:
                bundle_ops = "\n".join(
                    f"if avail & {1 << c}:\n    n += b_nops[{c}]"
                    for c in range(n_clusters)
                )
                merge_part = f"""
                avail = pend[4] & ~e_used
                if not avail:
                    continue
                b_nops = table.bundle_nops[i]
                n = 0
{_block(bundle_ops, 16)}
                e_used |= avail
                mem = table.mem_cmask[i] & avail
                e_mem_used |= mem
                rem = pend[1] - n
                pend[1] = rem
                pm = pend[4] & ~avail
                pend[4] = pm
                if pm:
                    pend[2] = True
                """
        else:  # op-level split (always op-level merge)
            make_pend = (
                "pend = th.pend = [i, n, False, 0, list(table.ops_desc[i])]"
            )
            merge_part = """
            rem0 = pend[1]
            still = []
            n = 0
            mem = 0
            for desc in pend[4]:
                c, fu, is_mem = desc
                left = (e_remaining | guards) - op_usage[c][fu]
                if left & guards == guards:
                    e_remaining = left ^ guards
                    if is_mem:
                        mem |= 1 << c
                    n += 1
                else:
                    still.append(desc)
            pend[4] = still
            if not n:
                continue
            e_mem_used |= mem
            rem = rem0 - n
            pend[1] = rem
            if rem0 > 1:
                pend[2] = True
            """

        if comm_split:
            merge = merge_part
        else:
            # NS: instructions with inter-cluster communication issue
            # atomically.  An atomic issue always empties the pending
            # state, so the instruction retires this cycle and the
            # per-part bookkeeping writes are dead.
            if op_merge:
                atomic_check = """
                left = (e_remaining | guards) - table.packed[i]
                if left & guards != guards:
                    continue
                e_remaining = left ^ guards
                """
            else:
                atomic_check = """
                if pend[4] & e_used:
                    continue
                e_used |= pend[4]
                """
            merge = f"""
            if table.icc[i]:
{_block(atomic_check, 16)}
                n = pend[1]
                mem = table.mem_cmask[i]
                e_mem_used |= mem
                rem = 0
            else:
{_block(merge_part, 16)}
            """

        # Whole-instruction fast path of a first offer (CCSI, OOSI): an
        # instruction that fits whole issues and retires exactly as under
        # no-split, from the no-split fragments, without building
        # ``th.pend``.  A split policy's merge still owes two things: the
        # ports it used go into ``e_mem_used``, and OOSI counts a
        # non-atomic multi-op instruction as split even when every op
        # issues this cycle (``PendingInstruction.note_op_issued``).
        # COSI has none: its per-bundle merge reads ``bundle_packed``,
        # which renaming does not lane-shift, so a whole-``packed`` test
        # would not agree with it (ROADMAP).
        fast_path = ""
        if split == "op" or not op_merge:
            probe, _conflict, fits, take = whole_fit
            count_split = ""
            if split == "op":
                atomic = "" if comm_split else " and not table.icc[i]"
                count_split = (
                    f"if n > 1{atomic}:\n    split_instructions += 1\n"
                )
            fast_path = "\n".join([
                probe,
                f"if {fits}:",
                _block(
                    take + "\n" + count_split
                    + issue_retire(False, mark_mem=True) + "\ncontinue",
                    4,
                ),
            ])

        thread_body = f"""
        bench = th.bench
        if bench is None or cycle < th.stall_until:
            continue
        table = th.table
        pend = th.pend
        if pend is None:
            {fetch_guard}
                continue
            i = th.idx[bench.pos]
            pc = table.pc[i]
            line = pc >> iline_shift
            if line != th.last_iline:
                th.last_iline = line
                icache_accesses += 1
{_block(ifetch, 16)}
            n = table.nops[i]
            if not n:
{_block(retire_full, 16)}
                continue
{_block(fast_path, 12)}
            {make_pend}
        else:
            i = pend[0]
{_block(merge, 8)}
        ops_this_cycle += n
        threads_contributing += 1
        bstats = bench.stats
        bstats.operations += n
        if mem:
{_block(dprobe, 12)}
        if rem:
            if mem:
                sm = store_mask & mem
                if sm:
                    pend[3] |= sm
        else:
            bsm = pend[3]
            if bsm:
                stall_extra += (bsm & e_mem_used).bit_count()
                e_mem_used |= bsm
            if pend[2]:
                split_instructions += 1
{_block(commit_retire, 12)}
        """

    # ---- per-cycle framing --------------------------------------------
    resets = []
    if op_merge:
        resets.append("e_remaining = capacity")
    if split == "none":
        if not op_merge:
            resets.append("e_used = 0")
    else:
        if not op_merge:
            resets.append("e_used = 0")
        resets.append("e_mem_used = 0")
        resets.append("stall_extra = 0")
    cycle_resets = "\n".join(" " * 8 + r for r in resets)

    setup = [
        "stats = proc.stats",
        "threads = proc.threads",
        "mem_sys = proc.mem",
        "packet_threads = stats.packet_threads",
        "pt_get = packet_threads.get",
        "fast_forward = proc._fast_forward",
        # scenario numbers: one local each, read from the state
        # ``_run_reference`` reads, so every cell of this shape shares
        # the loop
        "target = proc._target",
        "iline_shift = proc.iline_shift",
        "limit = max_cycles if max_cycles is not None else "
        "proc.params.max_cycles",
    ]
    if op_merge:
        setup += [
            "capacity = proc.engine.capacity",
            "guards = proc.engine.guards",
        ]
    if shape.taken_penalty:
        setup.append("taken_delay = 1 + proc.cfg.taken_branch_penalty")
    if multi:
        setup.append("timeslice = proc.params.timeslice")
    if flat:
        setup += [
            "l1i_access = mem_sys.l1i.access",
            "l1d_access = mem_sys.l1d.access",
            "i_miss_penalty = proc.cfg.icache.miss_penalty",
            "d_miss_penalty = proc.cfg.dcache.miss_penalty",
        ]
    else:
        setup += ["iaccess = mem_sys.iaccess", "daccess = mem_sys.daccess"]
    if inline:
        setup += [
            "l1i = mem_sys.l1i",
            "l1d = mem_sys.l1d",
            "l1i_sets = l1i.sets",
            "l1d_sets = l1d.sets",
            "i_set_mask = l1i.set_mask",
            "d_set_mask = l1d.set_mask",
            "d_line_shift = l1d.line_shift",
        ]
    if nonblocking:
        setup += [
            "i_inflight = mem_sys._i_inflight",
            "i_hit_watched = mem_sys.i_hit_watched",
        ]
    if d_watch:
        setup.append("d_hit_watched = mem_sys.d_hit_watched")
        if prefetching:
            setup.append("d_prefetched = mem_sys._prefetched")
        if nonblocking:
            setup.append("d_inflight = mem_sys._d_inflight")
    if split == "op":
        setup.append("op_usage = proc.engine._op_usage")
    if len(orders) == 1:
        objs = ", ".join(f"threads[{t}]" for t in orders[0])
        setup.append(f"thread_order = ({objs},)")
        order_expr = "thread_order"
    else:
        tabs = ",\n        ".join(
            "(" + ", ".join(f"threads[{t}]" for t in o) + ",)"
            for o in orders
        )
        setup.append(f"order_tabs = (\n        {tabs},\n    )")
        n = len(orders)
        sel = f"cycle & {n - 1}" if n & (n - 1) == 0 else f"cycle % {n}"
        order_expr = f"order_tabs[{sel}]"
    setup_src = "\n".join(" " * 4 + s for s in setup)

    if multi:
        scheduler = """
        if cycle >= next_switch:
            if not switching:
                switching = True
            for th in threads:
                if th.pend is not None:
                    break
            else:
                proc._context_switch(cycle)
                next_switch = cycle + timeslice
                switching = False
        """
        sched_src = _block(scheduler, 8)
        switch_init = (
            "    switching = False\n    next_switch = timeslice\n"
        )
        ff_call = (
            "cycle, switching, next_switch = fast_forward(\n"
            "                cycle, end_cycle, switching, next_switch, "
            "True, timeslice\n"
            "            )"
        )
    else:
        sched_src = ""
        switch_init = ""
        ff_call = (
            "cycle = fast_forward(\n"
            "                cycle, end_cycle, False, 0, False, 0\n"
            "            )[0]"
        )

    flush = [
        "stats.operations += operations",
        "stats.instructions += instructions",
        "stats.vertical_waste += vertical_waste",
        "stats.icache_accesses += icache_accesses",
        "stats.icache_misses += icache_misses",
        "stats.dcache_accesses += dcache_accesses",
        "stats.dcache_misses += dcache_misses",
    ]
    if split != "none":
        flush += [
            "stats.stall_cycles += stall_cycles",
            "stats.split_instructions += split_instructions",
        ]
    if inline:
        flush += ["l1i.hits += l1i_hits", "l1d.hits += l1d_hits"]
    flush += [
        "proc._target_hit = target_hit",
        "stats.cycles = cycle",
        "stats.memory = mem_sys.stats_dict()",
        "return stats",
    ]
    flush_src = "\n".join(" " * 4 + f for f in flush)

    split_locals = (
        "    stall_cycles = 0\n    split_instructions = 0\n"
        if split != "none"
        else ""
    )
    stall_account = (
        ""
        if split == "none"
        else _block(
            """
        if stall_extra:
            cycle += stall_extra
            stall_cycles += stall_extra
            vertical_waste += stall_extra
        """,
            8,
        )
    )

    hit_locals = (
        "    l1i_hits = 0\n    l1d_hits = 0\n" if inline else ""
    )

    header = (
        f"# generated by repro.pipeline.specialize for "
        f"{shape.merge}-merge/{split}-split"
        f"{'' if comm_split else ' (NS atomic ICC)'},"
        f" nt={shape.n_threads}, "
        f"{'flat' if flat else ('mshr' if nonblocking else 'hier')} memory"
        f"{', multitasking' if multi else ''}\n"
    )

    return f"""{header}
def {LOOP_NAME}(proc, max_cycles=None, stop_on_target=True):
{setup_src}
    target_hit = proc._target_hit
    operations = 0
    instructions = 0
    vertical_waste = 0
{split_locals}    icache_accesses = 0
    icache_misses = 0
    dcache_accesses = 0
    dcache_misses = 0
{hit_locals}{switch_init}    cycle = stats.cycles
    end_cycle = cycle + limit
    while cycle < end_cycle:
        ops_this_cycle = 0
        threads_contributing = 0
{cycle_resets}
        for th in {order_expr}:
{_block(thread_body, 12)}
        operations += ops_this_cycle
        if ops_this_cycle == 0:
            vertical_waste += 1
        else:
            packet_threads[threads_contributing] = (
                pt_get(threads_contributing, 0) + 1
            )
        cycle += 1
{stall_account}
{sched_src}
        if stop_on_target and target_hit:
            break
        if ops_this_cycle == 0 and cycle < end_cycle:
            {ff_call}
{flush_src}
"""
