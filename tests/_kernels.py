"""Shared test kernel builders (imported explicitly, never via
``conftest`` — ``from conftest import ...`` resolves to whichever
conftest.py pytest loaded first and collided with ``benchmarks/``)."""

from __future__ import annotations

import functools

from repro.compiler.builder import KernelBuilder


def make_axpy(name: str = "axpy", n: int = 32) -> KernelBuilder:
    """y[i] = 3*x[i] + y[i] — the canonical tiny kernel."""
    b = KernelBuilder(name)
    x = b.data_words(range(n), "x")
    y = b.data_words([1] * n, "y")
    a = b.const(3)
    with b.counted_loop(n) as i:
        off = b.shl(i, 2)
        xv = b.ldw_ix(x, off, region="x")
        yv = b.ldw_ix(y, off, region="y")
        b.stw_ix(b.add(b.mpy(xv, a), yv), y, off, region="y")
    return b


def make_wide(name: str = "wide", n: int = 16, unroll: int = 4) -> KernelBuilder:
    """Multi-accumulator reduction that spreads across clusters."""
    b = KernelBuilder(name)
    xs = [b.data_words(range(16), f"x{k}") for k in range(unroll)]
    accs = [b.const(0) for _ in range(unroll)]
    with b.counted_loop(n) as i:
        m = b.and_(i, 15)
        off = b.shl(m, 2)
        for k in range(unroll):
            v = b.ldw_ix(xs[k], off, region=f"x{k}")
            b.inc(accs[k], b.mpy(v, 7))
    out = b.alloc_words(1, "out")
    t = accs[0]
    for k in range(1, unroll):
        t = b.add(t, accs[k])
    b.stw(t, b.addr(out), region="out")
    return b


@functools.lru_cache(maxsize=None)
def rotated_suite_tables() -> tuple:
    """``(label, cfg, table)`` for every suite kernel × distinct
    ``MACHINE_PRESETS`` machine × cluster-renaming rotation, compiled
    at quick scale (static tables do not depend on the trace)."""
    from repro.arch.scenarios import MACHINE_PRESETS
    from repro.kernels.suite import SUITE, get_program
    from repro.pipeline.trace import _rot_static, build_static_table

    shapes: dict = {}
    for name, spec in sorted(MACHINE_PRESETS.items()):
        shapes.setdefault(spec.machine, name)
    out = []
    for cfg, machine in shapes.items():
        for kernel in SUITE:
            static = build_static_table(get_program(kernel, 0.3, cfg), cfg)
            for r in range(cfg.n_clusters):
                out.append(
                    (f"{kernel}/{machine}/r{r}", cfg, _rot_static(static, r))
                )
    return tuple(out)
