"""Pin the simulator's semantics to the golden cell digests.

``perfbench/expected.json`` holds the ``SimStats`` digest of every cell
of the quick paper sweep (``quick-paper``) and of the pooled scenario
sweep (``scenario``) at the benchmark seed.  Every fast tier is gated
against ``_run_reference`` elsewhere; this module gates
``_run_reference`` itself, and the default dispatch with it, against
those recorded digests — so a semantic change that both tiers mirror
still fails here.

The file is read, never written.  It is regenerated only by
``python3 perfbench/run.py --update-expected``, with the reason recorded
in ``CHANGES.md``.

The samples are odd strides over the sorted labels, so they cover
every policy and both thread counts (an even stride over
``policy/workload/nt`` labels would fix the thread count).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.engine import QUICK_SCALE, SimulationSession

EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

#: (matrix, stride) of each sample: 21 quick-paper cells, 10 scenario cells
SAMPLES = (("quick-paper", 7), ("scenario", 23))


def _golden() -> dict:
    return json.loads(EXPECTED.read_text())


def stats_digest(stats) -> str:
    """The canonical cell digest ``expected.json`` records."""
    text = json.dumps(stats.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sample(matrix: str, stride: int) -> list[tuple[str, str]]:
    cells = _golden()["matrices"][matrix]
    return [(label, cells[label]) for label in sorted(cells)[::stride]]


def cell_spec(label: str) -> tuple:
    """``policy/workload/nT[/memory/machine]`` -> ``session.run`` args."""
    policy, workload, nt, *rest = label.split("/")
    return (policy, workload, int(nt), *rest)


@pytest.fixture(scope="module")
def sessions():
    scale = replace(QUICK_SCALE, seed=_golden()["seed"])
    return {
        "specialized": SimulationSession(scale),
        "reference": SimulationSession(scale, reference=True),
    }


def test_samples_cover_policies_and_thread_counts():
    labels = [label for label, _ in sample("quick-paper", 7)]
    assert len(labels) == 21
    assert {label.split("/")[0] for label in labels} == {
        label.split("/")[0] for label in _golden()["matrices"]["quick-paper"]
    }
    assert {label.split("/")[2] for label in labels} == {"2", "4"}
    scenario = [label for label, _ in sample("scenario", 23)]
    assert {label.split("/")[2] for label in scenario} == {"2", "4"}


@pytest.mark.parametrize("tier", ["specialized", "reference"])
@pytest.mark.parametrize("matrix,stride", SAMPLES)
def test_golden_digests(sessions, tier, matrix, stride):
    session = sessions[tier]
    wrong = [
        label
        for label, want in sample(matrix, stride)
        if stats_digest(session.run(*cell_spec(label))) != want
    ]
    assert not wrong, f"{tier} tier moved pinned {matrix} cells: {wrong}"
