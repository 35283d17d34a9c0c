"""Benchmark kernels standing in for the paper's Fig. 13a suite."""

from .common import KernelMeta, prng_words
from .suite import (
    BENCH_ORDER,
    BY_CLASS,
    SUITE,
    build_program,
    clear_trace_cache,
    get_meta,
    get_program,
    get_trace,
)

__all__ = [
    "KernelMeta",
    "prng_words",
    "BENCH_ORDER",
    "BY_CLASS",
    "SUITE",
    "build_program",
    "clear_trace_cache",
    "get_meta",
    "get_program",
    "get_trace",
]
