"""Shared benchmark fixtures.

The figure benches regenerate the paper's tables at a reduced scale
(full-scale regeneration is `examples/paper_claims.py` /
`EXPERIMENTS.md`); each bench also records the figure's headline numbers
in ``benchmark.extra_info`` so `--benchmark-only` output doubles as a
results table.

All simulations flow through one shared
:class:`repro.engine.SimulationSession` (the ``session`` fixture),
which every figure generator takes.
"""

from __future__ import annotations

import pytest

from repro.engine import ExperimentScale, SimulationSession

BENCH_SCALE = ExperimentScale(
    kernel_scale=0.15,
    target_instructions=3_000,
    timeslice=1_500,
)


@pytest.fixture(scope="session")
def session() -> SimulationSession:
    return SimulationSession(BENCH_SCALE)
