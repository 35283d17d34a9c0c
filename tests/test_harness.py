"""Experiment harness: workloads, session memoisation, figure structure."""

import pytest

from repro.engine import ExperimentScale, SimulationSession
from repro.harness.figures import FIG16_POLICIES, fig14, fig15, fig16
from repro.harness.workloads import (
    WORKLOAD_ORDER,
    WORKLOADS,
    validate_workloads,
)
from repro.kernels import SUITE

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_500, timeslice=800
)


@pytest.fixture(scope="module")
def session():
    return SimulationSession(TINY)


def test_nine_workloads_in_paper_order():
    assert WORKLOAD_ORDER == [
        "llll", "lmmh", "mmmm", "llmm", "llmh", "llhh", "lmhh", "mmhh",
        "hhhh",
    ]


def test_workload_members_exist():
    for members in WORKLOADS.values():
        for m in members:
            assert m in SUITE


def test_workload_names_match_classes():
    validate_workloads()  # raises on mismatch


def test_validate_workloads_rejects_unknown_benchmark(monkeypatch):
    from repro.harness import workloads

    monkeypatch.setitem(
        workloads.WORKLOADS, "llll", ("mcf", "bzip2", "blowfish", "nope")
    )
    with pytest.raises(ValueError, match="unknown benchmark 'nope'"):
        validate_workloads()


def test_validate_workloads_rejects_class_mismatch(monkeypatch):
    from repro.harness import workloads

    # idct is a high-ILP kernel: it cannot sit in an all-low mix
    monkeypatch.setitem(
        workloads.WORKLOADS, "llll", ("mcf", "bzip2", "blowfish", "idct")
    )
    with pytest.raises(ValueError, match="do not match its name"):
        validate_workloads()


def test_paper_fig13b_rows():
    assert WORKLOADS["llll"] == ("mcf", "bzip2", "blowfish", "gsmencode")
    assert WORKLOADS["hhhh"] == ("x264", "idct", "imgpipe", "colorspace")
    assert WORKLOADS["mmhh"] == ("djpeg", "g721decode", "idct", "colorspace")


def test_runner_memoises(session):
    a = session.run("SMT", "llll", 2)
    b = session.run("SMT", "llll", 2)
    assert a is b


def test_runner_accepts_policy_objects(session):
    from repro.core.policies import SMT

    assert session.run(SMT, "llll", 2) is session.run("SMT", "llll", 2)


def test_speedup_definition(session):
    s = session.speedup("SMT", "SMT", "llll", 2)
    assert s == pytest.approx(0.0)


def test_average_ipc_positive(session):
    assert session.average_ipc("SMT", 2) > 0


def test_fig14_structure(session):
    rows = fig14(session)
    assert len(rows) == 2 * (len(WORKLOAD_ORDER) + 1)
    for r in rows:
        assert set(r) == {"threads", "workload", "NS", "AS"}
    avg_rows = [r for r in rows if r["workload"] == "avg"]
    assert len(avg_rows) == 2


def test_fig15_structure(session):
    rows = fig15(session)
    assert len(rows) == 2 * (len(WORKLOAD_ORDER) + 1)
    for r in rows:
        assert {"COSI NS", "COSI AS", "OOSI NS", "OOSI AS"} <= set(r)


def test_fig16_structure(session):
    rows = fig16(session)
    assert len(rows) == 2 * len(FIG16_POLICIES)
    for r in rows:
        assert r["ipc"] > 0


def test_smt_beats_csmt_on_average(session):
    """Operation-level merging dominates cluster-level merging (paper
    Fig. 16: SMT > CSMT at both thread counts)."""
    for nt in (2, 4):
        assert session.average_ipc("SMT", nt) > session.average_ipc(
            "CSMT", nt
        ) * 0.99


def test_four_threads_beat_two(session):
    for pol in ("CSMT", "SMT"):
        assert session.average_ipc(pol, 4) > session.average_ipc(pol, 2) * 0.95


def _grid_rows(columns):
    """A fixed synthetic average-IPC grid: rows out of thread order, so
    the renderer's per-thread blocks are exercised."""
    return [
        {
            "threads": nt,
            "policy": pol,
            "ipc": {columns[0]: base + d, columns[1]: base * 1.5 - d},
        }
        for nt, base in ((4, 3.125), (2, 2.0))
        for pol, d in (("CSMT", 0.0), ("OOSI AS", 0.456))
    ]


def test_render_fig_mem_golden():
    from repro.harness.figures import render_fig_mem

    assert render_fig_mem(_grid_rows(["paper", "l2+pf+mshr"])) == (
        "Fig. mem: average IPC per policy x memory preset\n"
        "--- 2-Thread ---\n"
        "  policy          paper  l2+pf+mshr\n"
        "  CSMT             2.00        3.00\n"
        "  OOSI AS          2.46        2.54\n"
        "--- 4-Thread ---\n"
        "  policy          paper  l2+pf+mshr\n"
        "  CSMT             3.12        4.69\n"
        "  OOSI AS          3.58        4.23"
    )
    assert render_fig_mem([]) == (
        "Fig. mem: average IPC per policy x memory preset"
    )


def test_render_fig_machine_golden():
    from repro.harness.figures import render_fig_machine

    assert render_fig_machine(_grid_rows(["paper", "fast-switch"])) == (
        "Fig. machine: average IPC per policy x machine scenario\n"
        "--- 2-Thread ---\n"
        "  policy          paper fast-switch\n"
        "  CSMT             2.00        3.00\n"
        "  OOSI AS          2.46        2.54\n"
        "--- 4-Thread ---\n"
        "  policy          paper fast-switch\n"
        "  CSMT             3.12        4.69\n"
        "  OOSI AS          3.58        4.23"
    )
    assert render_fig_machine([]) == (
        "Fig. machine: average IPC per policy x machine scenario"
    )
