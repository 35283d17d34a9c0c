"""Benchmark registry, program cache and trace cache (the paper's
Fig. 13a suite).

``SUITE`` maps benchmark name -> (:class:`KernelMeta`, build function).
:func:`get_program` compiles a kernel once per (process, scale, machine
shape) and memoises the :class:`~repro.isa.program.Program` — its
fingerprint is what the engine's result store keys cells on.
:func:`get_trace` builds on it: it functionally executes the program
once per key and memoises the resulting
:class:`~repro.pipeline.trace.TraceBundle`, so the 150-run experiment
matrix reuses twelve functional runs, and a warm rerun that only needs
keys runs none.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import replace

from ..arch.config import MachineConfig, MemoryConfig, PAPER_MACHINE
from ..compiler.builder import KernelBuilder
from ..compiler.pipeline import compile_kernel
from ..isa.program import Program
from ..pipeline.trace import TRACE_MAX_INSTRUCTIONS, TraceBundle, record_trace
from . import (
    blowfish,
    bzip2,
    colorspace,
    g721,
    gsmencode,
    idct,
    imgpipe,
    jpeg,
    mcf,
    x264,
)
from .common import KernelMeta

SUITE: dict[str, tuple[KernelMeta, Callable[[float], KernelBuilder]]] = {
    "mcf": (mcf.META, mcf.build),
    "bzip2": (bzip2.META, bzip2.build),
    "blowfish": (blowfish.META, blowfish.build),
    "gsmencode": (gsmencode.META, gsmencode.build),
    "g721encode": (g721.META_ENCODE, g721.build_encode),
    "g721decode": (g721.META_DECODE, g721.build_decode),
    "cjpeg": (jpeg.META_CJPEG, jpeg.build_cjpeg),
    "djpeg": (jpeg.META_DJPEG, jpeg.build_djpeg),
    "imgpipe": (imgpipe.META, imgpipe.build),
    "x264": (x264.META, x264.build),
    "idct": (idct.META, idct.build),
    "colorspace": (colorspace.META, colorspace.build),
}

#: Fig. 13a order
BENCH_ORDER = list(SUITE)

BY_CLASS: dict[str, list[str]] = {"l": [], "m": [], "h": []}
for _name, (_meta, _) in SUITE.items():
    BY_CLASS[_meta.ilp_class].append(_name)

_MemoKey = tuple[str, float, MachineConfig]

_program_cache: dict[_MemoKey, Program] = {}
_trace_cache: dict[tuple[_MemoKey, int], TraceBundle] = {}

#: canonical memory block for program/trace memo keys: compilation and
#: the functional VM never see the memory hierarchy, so configs
#: differing only there must share one compile + trace
_FLAT_MEMORY = MemoryConfig()

#: seconds this process spent in :func:`get_trace` misses (compile when
#: not yet compiled, plus the functional VM run); the engine reads the
#: delta around a cell to time its trace front-end (``trace_s``)
_trace_build_s = 0.0


def get_meta(name: str) -> KernelMeta:
    return SUITE[name][0]


def build_program(name: str, scale: float = 1.0, cfg: MachineConfig = PAPER_MACHINE):
    """Compile one benchmark; returns its CompileResult."""
    meta, build = SUITE[name]
    return compile_kernel(build(scale), cfg)


def _memo_key(name: str, scale: float, cfg: MachineConfig) -> _MemoKey:
    """Memo key by config *value* (``MachineConfig`` is frozen and
    hashable) with the memory hierarchy normalised out, so configs
    that agree on the machine shape share an entry even across
    pickling boundaries — pool workers receive a fresh config object
    per cell but still compile each (benchmark, machine shape) once per
    process, whatever memory presets ride on it."""
    key_cfg = (
        cfg if cfg.memory == _FLAT_MEMORY
        else replace(cfg, memory=_FLAT_MEMORY)
    )
    return (name, scale, key_cfg)


def get_program(
    name: str, scale: float = 1.0, cfg: MachineConfig = PAPER_MACHINE
) -> Program:
    """Compile + memoise one benchmark's program (see :func:`_memo_key`
    for what shares an entry)."""
    key = _memo_key(name, scale, cfg)
    program = _program_cache.get(key)
    if program is None:
        program = build_program(name, scale, cfg).program
        _program_cache[key] = program
    return program


def get_trace(
    name: str,
    scale: float = 1.0,
    cfg: MachineConfig = PAPER_MACHINE,
    max_instructions: int = TRACE_MAX_INSTRUCTIONS,
) -> TraceBundle:
    """Functionally execute + memoise one benchmark trace, on the
    program :func:`get_program` memoises under the same key."""
    global _trace_build_s
    key = (_memo_key(name, scale, cfg), max_instructions)
    bundle = _trace_cache.get(key)
    if bundle is None:
        t0 = time.perf_counter()
        bundle = record_trace(
            get_program(name, scale, cfg), cfg, max_instructions
        )
        _trace_cache[key] = bundle
        _trace_build_s += time.perf_counter() - t0
    return bundle


def trace_build_seconds() -> float:
    """Cumulative seconds this process spent building traces in
    :func:`get_trace` misses."""
    return _trace_build_s


def clear_trace_cache() -> None:
    """Forget every memoised program and trace."""
    _program_cache.clear()
    _trace_cache.clear()
