"""Content-hashed, disk-backed, crash-safe simulation result store.

A cache entry is one simulated matrix cell.  The key is a SHA-256 over
the *content* that determines the result bit-for-bit:

* the machine scenario's canonical content fingerprint
  (:func:`~repro.arch.scenarios.machine_fingerprint` — every field of
  :class:`~repro.arch.config.MachineConfig`, recursively, minus
  cosmetic names, so two identically-shaped machines share entries
  regardless of what preset name they travel under);
* the :class:`~repro.pipeline.processor.SimParams` (seed included —
  the context-switch schedule is part of the result);
* the policy name;
* the workload's member names **and** per-member compiled-program
  fingerprints (:meth:`~repro.isa.program.Program.fingerprint` — a
  kernel edit, scale change or compiler change reflows the program and
  therefore the key);
* :data:`~repro.pipeline.trace.TRACE_VERSION` and the functional VM's
  instruction cap: the dynamic trace every cell replays is a
  deterministic function of the program, the VM semantics and the
  static-table derivation, so the key names the trace by its *inputs*
  and a warm rerun never has to run the VM to form it
  (``tests/test_trace_pins.py`` fails when a pinned trace moves
  without a ``TRACE_VERSION`` bump);
* the hardware thread count.

Layout: ``<root>/<key[:2]>/<key[2:]>.json``, one JSON document per
entry with a schema ``version`` gate and a payload ``checksum``
(SHA-256 over the canonical stats JSON) verified on every read.
Writes go through a temp file + ``os.replace`` under an advisory
lockfile (``<root>/.lock``) so concurrent ``--jobs`` writers — or
writers on different machines sharing the store — never expose a torn
entry; last writer wins, and both writers wrote identical bytes anyway
(same key ⇒ same simulation).

Corruption handling (``docs/robustness.md``): an entry that fails the
version gate reads as a *stale* miss (old schema, re-simulated and
overwritten); an entry that fails to parse, fails its checksum, or
fails stats reconstruction is **quarantined** — moved aside into
``<root>/quarantine/`` and counted, never silently deleted — so a bad
disk or torn write stays diagnosable while the sweep re-simulates and
heals the store.  ``repro cache verify|repair|gc`` expose
:meth:`ResultCache.verify` / :meth:`repair` / :meth:`gc` from the CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import re
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

from ..arch.config import MachineConfig
from ..arch.scenarios import machine_fingerprint
from ..pipeline.processor import SimParams
from ..pipeline.stats import SimStats
from ..pipeline.trace import TRACE_MAX_INSTRUCTIONS, TRACE_VERSION
from . import faults

try:  # advisory cross-process locking; absent on some platforms
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

log = logging.getLogger(__name__)

#: Bump when the SimStats schema or simulator semantics change in a way
#: that makes old entries unusable.
#: v2: SimStats grew per-level ``memory`` counters; MachineConfig grew
#: the ``memory`` hierarchy block (both hashed into every key).
#: v3: MemoryConfig grew ``mshr``/``writeback_penalty`` (hashed into
#: every key), prefetch fills no longer refresh L2 replacement state,
#: and ``SimStats.memory`` grew mshr/writeback/useful_l2 counters —
#: pre-MSHR entries for prefetch presets would be wrong, so every v2
#: entry is invalidated here rather than by silently changed results.
#: v4: the machine is keyed by its scenario content fingerprint
#: (machine presets are a sweep axis; cosmetic preset names no longer
#: reach the key), and prefetch fills route through the MSHR file when
#: one exists — ``SimStats.memory["prefetch"]`` grew late/dropped.
#: v5: entries carry a payload ``checksum`` verified on read (the
#: crash-safe store); the simulated results themselves are unchanged.
#: v6: keys hash compiled-program fingerprints + ``TRACE_VERSION`` +
#: the trace instruction cap instead of recorded-trace fingerprints
#: (a warm rerun no longer runs the functional VM); entry contents are
#: unchanged, but every v5 key is unreachable, so v5 entries read as
#: stale and ``repro cache repair`` removes them.
CACHE_VERSION = 6

#: Shard directories are the first two hex digits of the key.
_SHARD_RE = re.compile(r"^[0-9a-f]{2}$")

#: Subdirectory corrupt entries are moved into (never globbed as a
#: shard: "qu" would match the hex pattern, "quarantine" does not).
QUARANTINE_DIR = "quarantine"


def cache_key(
    cfg: MachineConfig,
    params: SimParams,
    policy_name: str,
    members: tuple[str, ...],
    programs: tuple[str, ...],
    n_threads: int,
) -> str:
    """Deterministic content hash of one matrix cell.

    The machine enters as its scenario fingerprint; the effective
    timeslice (a machine scenario may scale it) travels in ``params``;
    ``programs`` are the members' compiled-program fingerprints, which
    with ``TRACE_VERSION`` and the VM instruction cap determine their
    traces.
    """
    payload = {
        "version": CACHE_VERSION,
        "machine": machine_fingerprint(cfg),
        "params": dataclasses.asdict(params),
        "policy": policy_name,
        "members": list(members),
        "programs": list(programs),
        "trace_version": TRACE_VERSION,
        "trace_cap": TRACE_MAX_INSTRUCTIONS,
        "n_threads": n_threads,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def payload_checksum(stats_dict: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of one entry's stats payload."""
    blob = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class ResultCache:
    """Disk-backed :class:`SimStats` store keyed by :func:`cache_key`."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise NotADirectoryError(
                f"result cache path {self.root} exists and is not a "
                "directory"
            ) from None
        self.hits = 0
        self.misses = 0
        #: entries actually persisted (a failed best-effort write does
        #: not count)
        self.stores = 0
        #: best-effort writes that failed (ENOSPC, shadowed shard, ...)
        self.put_errors = 0
        #: corrupt entries moved aside by this process (see
        #: :meth:`quarantine_count` for what is on disk in total)
        self.quarantined = 0

    # ------------------------------------------------------------ paths
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key[2:]}.json"

    def _shard_dirs(self) -> list[Path]:
        try:
            return sorted(
                p for p in self.root.iterdir()
                if p.is_dir() and _SHARD_RE.match(p.name)
            )
        except OSError:
            return []

    def _entries(self) -> Iterator[Path]:
        for shard in self._shard_dirs():
            yield from sorted(shard.glob("*.json"))

    def _tmp_files(self) -> list[Path]:
        """Leftover ``*.tmp`` files from interrupted writers."""
        out: list[Path] = []
        for shard in self._shard_dirs():
            out.extend(sorted(shard.glob("*.tmp")))
        return out

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Advisory cross-process lock on the whole store.

        Serialises writers/maintenance across processes (and across
        machines on shared filesystems honouring POSIX locks).  The
        entry write itself is already atomic (`os.replace`); the lock
        protects multi-file maintenance — repair/gc/clear walking
        shards while writers add entries — and is advisory by design:
        readers never block.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        lock_path = self.root / ".lock"
        try:
            fd = os.open(lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            yield  # a store that cannot lock still works, unserialised
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    # -------------------------------------------------------- get / put
    def get(self, key: str) -> SimStats | None:
        """Load one entry; ``None`` (and a miss) when absent or stale.

        A *corrupt* entry — unparsable JSON, payload checksum mismatch,
        or a stats payload that fails reconstruction — is quarantined
        (moved into ``<root>/quarantine/``, counted) and reads as a
        miss: the sweep re-simulates the cell and heals the store,
        while the bad bytes stay on disk for diagnosis.
        """
        path = self._path(key)
        try:
            with open(path) as f:
                doc = json.load(f)
        except FileNotFoundError:
            self.misses += 1
            return None
        except json.JSONDecodeError:
            # torn or garbled bytes: crash-mid-write, bad disk
            self._quarantine(path, "unparsable JSON")
            self.misses += 1
            return None
        except OSError:
            # unreadable, or the shard path is shadowed by a stray
            # file: degrade to a miss (nothing to quarantine)
            self.misses += 1
            return None
        try:
            if doc.get("version") != CACHE_VERSION:
                # old schema, not corruption: miss and overwrite
                self.misses += 1
                return None
            stats_dict = doc["stats"]
            if doc.get("checksum") != payload_checksum(stats_dict):
                raise ValueError("checksum mismatch")
            stats = SimStats.from_dict(stats_dict)
        except (KeyError, TypeError, ValueError, AttributeError) as e:
            # structurally damaged despite a current version stamp
            self._quarantine(path, str(e))
            self.misses += 1
            return None
        self.hits += 1
        return stats

    def put(
        self, key: str, stats: SimStats, meta: dict[str, Any] | None = None
    ) -> None:
        """Best-effort write: a cache that cannot persist an entry (full
        disk, shard path shadowed by a stray file) degrades to slower
        reruns, it does not fail the sweep that computed the result."""
        stats_dict = stats.to_dict()
        doc = {
            "version": CACHE_VERSION,
            "meta": meta or {},
            "checksum": payload_checksum(stats_dict),
            "stats": stats_dict,
        }
        path = self._path(key)
        tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
        try:
            faults.maybe_fail_store_write()
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as f:
                json.dump(doc, f)
            with self._locked():
                os.replace(tmp, path)
            self.stores += 1
        except OSError as e:
            self.put_errors += 1
            log.warning("cache: failed to persist %s…: %s", key[:12], e)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        # fault injection: simulate the machine dying inside the write
        # (torn bytes) *after* the happy path completed
        faults.maybe_tear_entry(path)

    # ------------------------------------------------------- quarantine
    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt entry aside (shard prefix folded back into
        the filename so the original key stays reconstructable)."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / f"{path.parent.name}{path.name}")
            self.quarantined += 1
            log.warning(
                "cache: quarantined corrupt entry %s/%s (%s)",
                path.parent.name, path.name, reason,
            )
        except OSError:
            # cannot move it (read-only store?): leave it; reads keep
            # missing on it, verify/repair keep reporting it
            log.warning(
                "cache: corrupt entry %s/%s (%s) could not be "
                "quarantined", path.parent.name, path.name, reason,
            )

    def quarantine_count(self) -> int:
        """Corrupt entries currently held in ``<root>/quarantine/``."""
        return sum(
            1 for _ in (self.root / QUARANTINE_DIR).glob("*.json")
        ) if (self.root / QUARANTINE_DIR).is_dir() else 0

    # ------------------------------------------------------ maintenance
    def __len__(self) -> int:
        """Live entries (quarantined entries are counted separately by
        :meth:`quarantine_count`, never here)."""
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every live entry, sweep leftover ``*.tmp`` files from
        interrupted writers, and prune emptied shard directories;
        returns the number of entries removed.  Quarantined entries are
        kept (they are evidence; ``gc()`` drops them)."""
        n = 0
        with self._locked():
            for p in self._entries():
                p.unlink()
                n += 1
            for p in self._tmp_files():
                p.unlink(missing_ok=True)
            self._prune_empty_shards()
        return n

    def _prune_empty_shards(self) -> int:
        n = 0
        for shard in self._shard_dirs():
            try:
                shard.rmdir()  # fails (caught) unless empty
                n += 1
            except OSError:
                pass
        return n

    def _scan(self, *, quarantine: bool) -> dict[str, Any]:
        """Walk every entry; classify (and optionally quarantine) it."""
        report: dict[str, Any] = {
            "entries": 0, "ok": 0, "corrupt": 0, "stale": 0,
            "shadowed": 0, "tmp_files": len(self._tmp_files()),
            "quarantine": self.quarantine_count(),
            "corrupt_entries": [],
        }
        try:
            report["shadowed"] = sum(
                1 for p in self.root.iterdir()
                if p.is_file() and _SHARD_RE.match(p.name)
            )
        except OSError:
            pass
        for path in list(self._entries()):
            report["entries"] += 1
            reason: str | None = None
            try:
                with open(path) as f:
                    doc = json.load(f)
                if doc.get("version") != CACHE_VERSION:
                    report["stale"] += 1
                    continue
                stats_dict = doc["stats"]
                if doc.get("checksum") != payload_checksum(stats_dict):
                    raise ValueError("checksum mismatch")
                SimStats.from_dict(stats_dict)
            except json.JSONDecodeError:
                reason = "unparsable JSON"
            except OSError:
                continue  # unreadable right now; not provably corrupt
            except (KeyError, TypeError, ValueError, AttributeError) as e:
                reason = str(e) or type(e).__name__
            if reason is None:
                report["ok"] += 1
            else:
                report["corrupt"] += 1
                report["corrupt_entries"].append(
                    f"{path.parent.name}{path.stem}"
                )
                if quarantine:
                    self._quarantine(path, reason)
        return report

    def verify(self) -> dict[str, Any]:
        """Read-only integrity scan of every entry: counts of ok /
        corrupt (checksum, parse, payload) / stale-version entries,
        leftover tmp files, shadowed shard paths, and the current
        quarantine population.  Touches nothing."""
        return self._scan(quarantine=False)

    def repair(self) -> dict[str, Any]:
        """Make the store clean: quarantine corrupt entries, delete
        stale-version entries, sweep leftover tmp files, prune emptied
        shard directories.  Returns the scan report plus what was
        removed."""
        with self._locked():
            report = self._scan(quarantine=True)
            removed_stale = 0
            for path in list(self._entries()):
                try:
                    with open(path) as f:
                        doc = json.load(f)
                except (OSError, json.JSONDecodeError):
                    continue  # fresh corruption since the scan: next run
                if doc.get("version") != CACHE_VERSION:
                    path.unlink(missing_ok=True)
                    removed_stale += 1
            swept = 0
            for p in self._tmp_files():
                p.unlink(missing_ok=True)
                swept += 1
            report.update(
                removed_stale=removed_stale,
                swept_tmp=swept,
                pruned_dirs=self._prune_empty_shards(),
                quarantine=self.quarantine_count(),
            )
        return report

    def gc(self) -> dict[str, Any]:
        """:meth:`repair`, then drop the quarantine (the point of the
        quarantine is diagnosis; gc is the explicit "I am done looking"
        step) and report reclaimed entries."""
        report = self.repair()
        dropped = 0
        qdir = self.root / QUARANTINE_DIR
        if qdir.is_dir():
            for p in qdir.glob("*.json"):
                p.unlink(missing_ok=True)
                dropped += 1
            try:
                qdir.rmdir()
            except OSError:
                pass
        report.update(dropped_quarantine=dropped, quarantine=0)
        return report
