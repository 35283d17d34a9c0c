"""Set-associative cache model.

The paper's configuration (§VI-A): single-level 64 KB, 4-way
set-associative ICache and DCache, 20-cycle miss penalty (400 MHz core,
50 ns DRAM critical-word latency), no L2.

The model is a *timing* cache: it tracks tags and LRU state, not data
(the functional VM owns the data).  ``access`` returns hit/miss; misses
fill the line.  Stores allocate (write-allocate, write-back — ST200
D-caches are write-back); dirty state is tracked for statistics but the
single-level model charges no extra write-back penalty, matching the
paper's flat 20-cycle figure.

Each set is an insertion-ordered dict ``{line: dirty}`` with the MRU
entry last: a hit is one dict pop + reinsert (O(1)) instead of the
O(assoc) ``list.index`` scan of the earlier list-based implementation
(``benchmarks/bench_memory.py`` tracks the delta), and the dict value
doubles as the dirty bit.

Multithreaded sharing: the SMT pipeline shares one ICache and one DCache
among all hardware threads, so the model is thread-oblivious (the
address stream interleaving *is* the sharing).
"""

from __future__ import annotations

from ..arch.config import CacheConfig


class Cache:
    """LRU set-associative cache keyed by line address."""

    __slots__ = (
        "cfg",
        "line_shift",
        "n_sets",
        "set_mask",
        "assoc",
        "sets",
        "hits",
        "misses",
        "writebacks",
        "victim_line",
    )

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.line_shift = cfg.line_bytes.bit_length() - 1
        self.n_sets = cfg.n_sets
        self.set_mask = self.n_sets - 1
        if self.n_sets & self.set_mask:
            raise ValueError("set count must be a power of two")
        self.assoc = cfg.assoc
        # each set: insertion-ordered {line: dirty}, MRU last.  The
        # dirty flag is read only for truthiness: callers may store any
        # int (the specialised run loop stores the raw store-mask bit)
        self.sets: list[dict[int, int]] = [{} for _ in range(self.n_sets)]
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        #: dirty victim evicted by the most recent miss/``fill`` (line
        #: number, or ``None``); valid only immediately after that call
        #: — hits never evict and leave it untouched
        self.victim_line: int | None = None

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def flush(self) -> None:
        """Invalidate all lines (keeps statistics)."""
        for s in self.sets:
            s.clear()

    def line_of(self, addr: int) -> int:
        return addr >> self.line_shift

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Probe the cache; returns True on hit.  Misses fill."""
        line = addr >> self.line_shift
        ways = self.sets[line & self.set_mask]
        dirty = ways.pop(line, None)
        if dirty is not None:
            ways[line] = dirty or is_write  # reinsert as MRU
            self.hits += 1
            return True
        # miss: fill, evict LRU (the oldest insertion)
        self.misses += 1
        ways[line] = is_write
        self.victim_line = None
        if len(ways) > self.assoc:
            victim = next(iter(ways))
            if ways.pop(victim):
                self.writebacks += 1
                self.victim_line = victim
        return False

    def contains(self, addr: int) -> bool:
        """Non-perturbing residency probe (no LRU update, no stats)."""
        line = addr >> self.line_shift
        return line in self.sets[line & self.set_mask]

    def fill(self, addr: int, dirty: bool = False) -> None:
        """Install an *absent* line as MRU without touching the demand
        hit/miss counters (prefetch and writeback fills); evictions
        still count writebacks.  A resident line is left completely
        untouched — replacement state must not be refreshed by a fill
        that installed nothing (``dirty=True`` still marks it, so a
        writeback landing on a resident L2 line re-dirties it)."""
        line = addr >> self.line_shift
        ways = self.sets[line & self.set_mask]
        self.victim_line = None
        if line in ways:
            if dirty:
                ways[line] = True
            return
        if len(ways) >= self.assoc:
            victim = next(iter(ways))
            if ways.pop(victim):
                self.writebacks += 1
                self.victim_line = victim
        ways[line] = dirty

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        a = self.accesses
        return self.misses / a if a else 0.0


class PerfectCache:
    """Always hits — the paper's IPCp (perfect memory) configuration."""

    __slots__ = (
        "hits", "misses", "writebacks", "cfg", "line_shift", "victim_line"
    )

    def __init__(self, cfg: CacheConfig):
        self.cfg = cfg
        self.line_shift = cfg.line_bytes.bit_length() - 1
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.victim_line: int | None = None

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    def flush(self) -> None:  # pragma: no cover - trivial
        pass

    def line_of(self, addr: int) -> int:
        return addr >> self.line_shift

    def access(self, addr: int, is_write: bool = False) -> bool:
        self.hits += 1
        return True

    def contains(self, addr: int) -> bool:
        return True

    def fill(self, addr: int, dirty: bool = False) -> None:
        # pragma: no cover - trivial
        pass

    @property
    def accesses(self) -> int:
        return self.hits

    @property
    def miss_rate(self) -> float:
        return 0.0


def make_cache(cfg: CacheConfig, perfect: bool = False):
    """Factory used by the pipeline: real or perfect cache."""
    return PerfectCache(cfg) if perfect else Cache(cfg)
