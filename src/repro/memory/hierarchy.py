"""Composable memory hierarchy (`repro.memory.hierarchy`).

:class:`MemorySystem` generalises the single-level §VI-A model into a
configurable stack — private L1I/L1D, an optional shared unified L2, an
optional pluggable data prefetcher, and an optional banked-DRAM backend
— declared by :class:`~repro.arch.config.MemoryConfig` (see
``MEMORY_PRESETS`` and ``docs/memory.md``).

The pipeline charges memory time through two entry points:
``iaccess``/``daccess`` return ``None`` on an L1 hit (hit time is
pipelined away, exactly as before) and the *extra* stall cycles on an
L1 miss.  With the flat ``paper`` preset an L1 miss costs precisely
that L1's ``miss_penalty``, reproducing the old single-level simulator
bit for bit; with a hierarchy configured the charge is::

    L1 miss, L2 hit   ->  l2_hit_latency
    L1 miss, L2 miss  ->  l2_hit_latency + DRAM (or l2.miss_penalty)
    L1 miss, no L2    ->  DRAM (or the L1's miss_penalty)

where the DRAM charge is ``latency`` plus any wait for a busy bank.

With ``MemoryConfig.mshr = N`` the L1s are non-blocking: each keeps an
``N``-entry MSHR file ({line: fill-completion cycle}), misses of one
instruction overlap (the pipeline stalls for the slowest, not the
sum), an access to a line whose fill is in flight merges and pays only
the residual, and a miss with every MSHR occupied waits for the
earliest fill to retire.  With ``writeback_penalty`` set, dirty demand
evictions cost time: the L1D victim pays a drain penalty and lands
dirty in L2 (or posts to DRAM, occupying its bank); dirty L2 victims
post to DRAM as pure bank occupancy.

Prefetchers observe the L1D demand-miss stream and install predicted
lines into L1D (and L2, keeping the hierarchy inclusive) without
touching the demand counters or refreshing replacement state of lines
already resident; usefulness is counted when a demand hit lands on a
prefetched line (``useful``), or when a prefetched line evicted from
L1D still turns the demand miss into an L2 hit (``useful_l2``).

Without MSHRs a prefetch is *timeless*: the predicted line is simply
present.  With ``mshr > 0`` prefetch fills route through the MSHR file
and are priced: a predicted line allocates an MSHR and lands only
after its real fill latency (its DRAM trip occupies the bank, so
prefetch bandwidth competes with demand traffic), a demand access
arriving before the fill completes pays the residual (counted
``late``), and a prediction arriving with every MSHR occupied is
dropped (``dropped``) — demand misses keep priority over predictions.
Everything is deterministic: the only inputs are the address stream
and the cycle numbers the pipeline passes in.
"""

from __future__ import annotations

from ..arch.config import DramConfig, MachineConfig, MemoryConfig
from .cache import Cache, make_cache

#: Cap on the tracked-prefetch set; cleared (deterministically) when
#: exceeded so a pathological miss stream cannot grow it without bound.
_PREFETCH_TRACK_LIMIT = 1 << 16


class NextLinePrefetcher:
    """Sequential prefetcher: on a demand miss to line ``L``, predict
    ``L+1 .. L+degree``."""

    __slots__ = ("degree",)

    def __init__(self, degree: int = 1):
        self.degree = degree

    def predict(self, line: int) -> tuple[int, ...]:
        return tuple(line + k for k in range(1, self.degree + 1))


class StridePrefetcher:
    """Stream prefetcher: when two consecutive demand misses repeat the
    same non-zero line stride, predict ``degree`` more strides ahead."""

    __slots__ = ("degree", "last_line", "last_stride")

    def __init__(self, degree: int = 1):
        self.degree = degree
        self.last_line: int | None = None
        self.last_stride = 0

    def predict(self, line: int) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        if self.last_line is not None:
            stride = line - self.last_line
            if stride and stride == self.last_stride:
                out = tuple(
                    line + stride * k for k in range(1, self.degree + 1)
                )
            self.last_stride = stride
        self.last_line = line
        return out


def make_prefetcher(kind: str, degree: int):
    """Factory for the prefetcher kinds named in MemoryConfig."""
    if kind == "none":
        return None
    if kind == "nextline":
        return NextLinePrefetcher(degree)
    if kind == "stride":
        return StridePrefetcher(degree)
    raise ValueError(f"unknown prefetcher kind {kind!r}")


class Dram:
    """Banked DRAM: fixed critical-word latency plus a deterministic
    wait when the target bank is still busy with an earlier request."""

    __slots__ = (
        "cfg",
        "bank_shift",
        "bank_mask",
        "bank_ready",
        "accesses",
        "writes",
        "bank_conflicts",
        "wait_cycles",
    )

    def __init__(self, cfg: DramConfig):
        self.cfg = cfg
        self.bank_shift = cfg.interleave_bytes.bit_length() - 1
        self.bank_mask = cfg.n_banks - 1
        self.bank_ready = [0] * cfg.n_banks
        self.accesses = 0
        self.writes = 0
        self.bank_conflicts = 0
        self.wait_cycles = 0

    def access(self, addr: int, cycle: int) -> int:
        """Charge one request starting at ``cycle``; returns its total
        latency (wait-for-bank + critical-word)."""
        self.accesses += 1
        cfg = self.cfg
        if not cfg.bank_busy:
            return cfg.latency
        bank = (addr >> self.bank_shift) & self.bank_mask
        start = self.bank_ready[bank]
        if start > cycle:
            self.bank_conflicts += 1
            self.wait_cycles += start - cycle
        else:
            start = cycle
        self.bank_ready[bank] = start + cfg.bank_busy
        return (start - cycle) + cfg.latency

    def write(self, addr: int, cycle: int) -> None:
        """One posted writeback: occupies the target bank (queueing
        behind whatever holds it) but returns no latency — reads are
        charged, writes only generate the traffic later reads feel."""
        self.writes += 1
        cfg = self.cfg
        if not cfg.bank_busy:
            return
        bank = (addr >> self.bank_shift) & self.bank_mask
        start = self.bank_ready[bank]
        if start < cycle:
            start = cycle
        self.bank_ready[bank] = start + cfg.bank_busy


class MemorySystem:
    """The composable memory stack the pipeline charges time through."""

    __slots__ = (
        "mcfg",
        "l1i",
        "l1d",
        "l2",
        "dram",
        "prefetcher",
        "_i_miss_penalty",
        "_d_miss_penalty",
        "_i_line_shift",
        "_d_line_shift",
        "prefetch_issued",
        "prefetch_useful",
        "prefetch_useful_l2",
        "prefetch_late",
        "prefetch_dropped",
        "_priced_prefetch",
        "_prefetched",
        "_mshr",
        "_i_inflight",
        "_d_inflight",
        "mshr_merges",
        "mshr_full_stalls",
        "mshr_full_stall_cycles",
        "_wb_penalty",
        "wb_l1d",
        "wb_l2",
        "wb_stall_cycles",
        "_l2_hit",
    )

    def __init__(self, cfg: MachineConfig, perfect: bool = False):
        m = cfg.memory
        self.mcfg = m
        self.l1i = make_cache(cfg.icache, perfect)
        self.l1d = make_cache(cfg.dcache, perfect)
        # A perfect-memory L1 never misses, so the lower levels are
        # unreachable; skip building them.
        self.l2 = Cache(m.l2) if (m.l2 is not None and not perfect) else None
        self.dram = (
            Dram(m.dram) if (m.dram is not None and not perfect) else None
        )
        self.prefetcher = (
            None if perfect else make_prefetcher(m.prefetch, m.prefetch_degree)
        )
        self._i_miss_penalty = cfg.icache.miss_penalty
        self._d_miss_penalty = cfg.dcache.miss_penalty
        self._i_line_shift = cfg.icache.line_bytes.bit_length() - 1
        self._d_line_shift = cfg.dcache.line_bytes.bit_length() - 1
        self.prefetch_issued = 0
        self.prefetch_useful = 0
        self.prefetch_useful_l2 = 0
        self.prefetch_late = 0
        self.prefetch_dropped = 0
        self._prefetched: set[int] = set()
        # MSHR files (0 entries = blocking caches, the paper model):
        # {line: fill-completion cycle} per L1, pruned lazily
        self._mshr = 0 if perfect else m.mshr
        #: with both MSHRs and a prefetcher, prefetch fills allocate
        #: MSHRs and land after their real latency instead of timelessly
        self._priced_prefetch = bool(self._mshr and self.prefetcher)
        self._i_inflight: dict[int, int] = {}
        self._d_inflight: dict[int, int] = {}
        self.mshr_merges = 0
        self.mshr_full_stalls = 0
        self.mshr_full_stall_cycles = 0
        self._wb_penalty = 0 if perfect else m.writeback_penalty
        self.wb_l1d = 0
        self.wb_l2 = 0
        self.wb_stall_cycles = 0
        #: whether the most recent ``_below_l1`` call hit in L2
        self._l2_hit = False

    # ------------------------------------------------------------ access
    def _below_l1(self, addr: int, flat_penalty: int, cycle: int) -> int:
        """Latency of servicing an L1 miss from the levels below."""
        lat = 0
        below = flat_penalty
        l2 = self.l2
        l2_victim = None
        self._l2_hit = False
        if l2 is not None:
            lat = self.mcfg.l2_hit_latency
            if l2.access(addr):
                self._l2_hit = True
                return lat
            below = l2.cfg.miss_penalty
            if self._wb_penalty and l2.victim_line is not None:
                l2_victim = l2.victim_line
        dram = self.dram
        if dram is not None:
            # demand read first (it has priority), then the dirty L2
            # victim's posted writeback queues on its bank
            total = lat + dram.access(addr, cycle + lat)
            if l2_victim is not None:
                self.wb_l2 += 1
                dram.write(l2_victim << l2.line_shift, cycle + lat)
            return total
        if l2_victim is not None:
            self.wb_l2 += 1
        return lat + below

    def _mshr_wait(self, inflight: dict[int, int], cycle: int) -> int:
        """Allocate one MSHR at ``cycle``: retire completed fills; if
        every entry is still in flight, the new miss waits for the
        earliest fill to retire (counted as an MSHR-full stall)."""
        if not inflight:
            return 0
        expired = [ln for ln, r in inflight.items() if r <= cycle]
        for ln in expired:
            del inflight[ln]
        if len(inflight) < self._mshr:
            return 0
        first = min(inflight, key=inflight.__getitem__)
        wait = inflight.pop(first) - cycle
        self.mshr_full_stalls += 1
        self.mshr_full_stall_cycles += wait
        return wait

    def _writeback(
        self, victim_addr: int, cycle: int, stall: bool = True
    ) -> int:
        """Charge one dirty L1D eviction: the victim drains through
        the victim buffer (``writeback_penalty`` direct stall) and
        occupies the level below — installed dirty into L2, else
        holding its DRAM bank busy.  ``stall=False`` posts the traffic
        without the drain stall (a priced *prefetch* displaced the
        victim: there is no requesting thread to stall, but the
        bandwidth below is still consumed)."""
        self.wb_l1d += 1
        penalty = self._wb_penalty if stall else 0
        self.wb_stall_cycles += penalty
        l2 = self.l2
        if l2 is not None:
            l2.fill(victim_addr, dirty=True)
            if l2.victim_line is not None:
                # cascading dirty L2 eviction: bank occupancy only
                self.wb_l2 += 1
                if self.dram is not None:
                    self.dram.write(
                        l2.victim_line << l2.line_shift, cycle
                    )
        elif self.dram is not None:
            self.dram.write(victim_addr, cycle)
        return penalty

    # A tag hit on a line that is neither in an MSHR file nor tracked as
    # prefetched has no side effect beyond the L1's LRU order and its
    # ``hits`` counter.  Only *watched* lines (``_i_inflight``,
    # ``_d_inflight``, ``_prefetched``) carry hit-side bookkeeping, which
    # lives in the two ``*_hit_watched`` methods below: ``iaccess`` /
    # ``daccess`` call them after their own tag hit, and the specialised
    # run loop (which probes L1 tags inline) calls them after its hit.
    def i_hit_watched(self, line: int, cycle: int) -> int | None:
        """Hit-side bookkeeping of an L1I tag hit on a line in
        ``_i_inflight``: ``None``, or the residual stall cycles when the
        line's fill is still in flight."""
        inflight = self._i_inflight
        ready = inflight[line]
        if ready > cycle:
            # secondary miss: the line's fill is still in flight, so
            # the tag "hit" really waits on the MSHR — recount it as a
            # miss and charge only the residual latency
            l1i = self.l1i
            l1i.hits -= 1
            l1i.misses += 1
            self.mshr_merges += 1
            return ready - cycle
        del inflight[line]
        return None

    def d_hit_watched(self, line: int, cycle: int) -> int | None:
        """Hit-side bookkeeping of an L1D tag hit on a line in
        ``_prefetched`` or ``_d_inflight``: ``None``, or the residual
        stall cycles when the line's fill is still in flight."""
        pre = self._prefetched
        inflight = self._d_inflight
        if line in pre:
            # a prefetch installed this line: credit it.  A timeless
            # prefetch (no MSHRs) delivered the data outright; a priced
            # one may still be in flight — the demand that catches it
            # pays the residual (a *late* prefetch) and retires the MSHR.
            pre.discard(line)
            self.prefetch_useful += 1
            ready = inflight.pop(line, None)
            if ready is None or ready <= cycle:
                return None
            self.prefetch_late += 1
        else:
            ready = inflight[line]
            if ready <= cycle:
                del inflight[line]
                return None
            # secondary miss: merge into the in-flight MSHR
            self.mshr_merges += 1
        # the access stalls on the fill, so recount the tag hit as a
        # miss: the L1 counters must agree with the pipeline's
        # dcache_misses
        l1d = self.l1d
        l1d.hits -= 1
        l1d.misses += 1
        return ready - cycle

    def iaccess(self, addr: int, cycle: int) -> int | None:
        """Instruction fetch: ``None`` on an L1I hit, else the extra
        stall cycles the fetch must wait."""
        mshr = self._mshr
        if self.l1i.access(addr):
            if mshr:
                line = addr >> self._i_line_shift
                if line in self._i_inflight:
                    return self.i_hit_watched(line, cycle)
            return None
        lat = 0
        if mshr:
            line = addr >> self._i_line_shift
            inflight = self._i_inflight
            ready = inflight.get(line)
            if ready is not None and ready > cycle:
                # evicted while its fill was still in flight: merge
                self.mshr_merges += 1
                return ready - cycle
            lat = self._mshr_wait(inflight, cycle)
        lat += self._below_l1(addr, self._i_miss_penalty, cycle + lat)
        if mshr:
            inflight[line] = cycle + lat
        return lat

    def daccess(self, addr: int, is_write: bool, cycle: int) -> int | None:
        """Data access: ``None`` on an L1D hit, else the extra stall
        cycles the thread must wait."""
        l1d = self.l1d
        mshr = self._mshr
        if l1d.access(addr, is_write):
            pre = self._prefetched
            if mshr or pre:
                line = addr >> self._d_line_shift
                if line in pre or line in self._d_inflight:
                    return self.d_hit_watched(line, cycle)
            return None
        # primary L1D miss; the access above may have evicted a dirty
        # victim, which owes its writeback whether or not the miss
        # itself merges below
        line = addr >> self._d_line_shift
        wb_victim = l1d.victim_line
        lat = 0
        if mshr:
            inflight = self._d_inflight
            ready = inflight.get(line)
            if ready is not None and ready > cycle:
                # the line was evicted while its fill was still in
                # flight (tag miss, MSHR hit): merge, no new request —
                # but the dirty victim this re-install displaced still
                # drains through the writeback path
                self.mshr_merges += 1
                lat = ready - cycle
                if wb_victim is not None and self._wb_penalty:
                    lat += self._writeback(
                        wb_victim << self._d_line_shift, cycle
                    )
                return lat
            lat = self._mshr_wait(inflight, cycle)
        lat += self._below_l1(addr, self._d_miss_penalty, cycle + lat)
        if wb_victim is not None and self._wb_penalty:
            lat += self._writeback(wb_victim << self._d_line_shift, cycle)
        if mshr:
            inflight[line] = cycle + lat
        pf = self.prefetcher
        if pf is not None:
            pre = self._prefetched
            if line in pre:
                # evicted from L1D before use — but if the demand miss
                # hit in L2, the prefetch still saved the DRAM trip:
                # that L2 hit is the prefetch paying off
                pre.discard(line)
                if self._l2_hit:
                    self.prefetch_useful_l2 += 1
            self._issue_prefetches(pf, line, cycle)
        return lat

    def _prefetch_latency(self, addr: int, cycle: int) -> int:
        """Fill latency of one predicted line through the levels below
        the L1s.  The DRAM trip of an L2-missing (or L2-less) prefetch
        goes through :meth:`Dram.access` — it occupies the bank and
        counts in the DRAM counters, which is exactly how prefetch
        bandwidth gets priced against demand traffic.  Probes L2 with
        ``contains`` (no demand counters, no LRU refresh) and installs
        an L2-missing line into L2, keeping the hierarchy inclusive."""
        l2 = self.l2
        lat = 0
        if l2 is not None:
            lat = self.mcfg.l2_hit_latency
            if l2.contains(addr):
                return lat
        dram = self.dram
        if dram is not None:
            lat += dram.access(addr, cycle + lat)
        elif l2 is not None:
            lat += l2.cfg.miss_penalty
        else:
            lat += self._d_miss_penalty
        if l2 is not None:
            l2.fill(addr)
        return lat

    def _issue_prefetches(self, pf, line: int, cycle: int) -> None:
        l1d = self.l1d
        l2 = self.l2
        shift = self._d_line_shift
        pre = self._prefetched
        priced = self._priced_prefetch
        inflight = self._d_inflight
        for pline in pf.predict(line):
            if pline < 0:
                continue
            paddr = pline << shift
            if l1d.contains(paddr):
                continue
            if priced:
                # route the fill through the MSHR file: skip lines
                # already being fetched, drop the prediction when the
                # file is full (demand misses keep priority — they wait,
                # predictions don't deserve to make them), and land the
                # line only after its real latency
                ready = inflight.get(pline)
                if ready is not None and ready > cycle:
                    continue
                for ln in [
                    ln for ln, r in inflight.items() if r <= cycle
                ]:
                    del inflight[ln]
                if len(inflight) >= self._mshr:
                    self.prefetch_dropped += 1
                    continue
                inflight[pline] = cycle + self._prefetch_latency(
                    paddr, cycle
                )
                l1d.fill(paddr)
                if self._wb_penalty and l1d.victim_line is not None:
                    # the prefetch displaced a dirty line: its traffic
                    # is posted below (no stall — nothing requested
                    # this fill), so priced prefetches pay for the
                    # evictions they cause, not just their own trips
                    self._writeback(
                        l1d.victim_line << shift, cycle, stall=False
                    )
            else:
                l1d.fill(paddr)
                if l2 is not None:
                    # Cache.fill is a no-op on resident lines, so this
                    # cannot refresh L2 replacement state for a line
                    # the prefetch did not install
                    l2.fill(paddr)
            self.prefetch_issued += 1
            pre.add(pline)
            if len(pre) > _PREFETCH_TRACK_LIMIT:
                pre.clear()

    # ------------------------------------------------------- statistics
    def stats_dict(self) -> dict:
        """JSON-ready per-level counters (lands in ``SimStats.memory``)."""

        def level(c) -> dict:
            return {
                "accesses": c.accesses,
                "hits": c.hits,
                "misses": c.misses,
                "writebacks": c.writebacks,
            }

        out: dict = {
            "preset": self.mcfg.name,
            "levels": {"l1i": level(self.l1i), "l1d": level(self.l1d)},
        }
        if self.l2 is not None:
            out["levels"]["l2"] = level(self.l2)
        if self.dram is not None:
            out["dram"] = {
                "accesses": self.dram.accesses,
                "writes": self.dram.writes,
                "bank_conflicts": self.dram.bank_conflicts,
                "wait_cycles": self.dram.wait_cycles,
            }
        if self.prefetcher is not None:
            out["prefetch"] = {
                "kind": self.mcfg.prefetch,
                "issued": self.prefetch_issued,
                "useful": self.prefetch_useful,
                "useful_l2": self.prefetch_useful_l2,
                "late": self.prefetch_late,
                "dropped": self.prefetch_dropped,
            }
        if self._mshr:
            out["mshr"] = {
                "entries": self._mshr,
                "merges": self.mshr_merges,
                "full_stalls": self.mshr_full_stalls,
                "full_stall_cycles": self.mshr_full_stall_cycles,
            }
        if self._wb_penalty:
            out["writeback"] = {
                "penalty": self._wb_penalty,
                "l1d": self.wb_l1d,
                "l2": self.wb_l2,
                "stall_cycles": self.wb_stall_cycles,
            }
        return out
