"""Input-keyed result store: cells are keyed on compiled-program
fingerprints + ``TRACE_VERSION``, so forming a key never runs the
functional VM (``docs/engine.md``)."""

from __future__ import annotations

import os
import pickle

import pytest

from repro.arch.config import PAPER_MACHINE
from repro.engine import ExperimentScale, ResultCache, SimulationSession
from repro.engine import cache as cache_mod
from repro.engine import session as session_mod
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.kernels import suite
from repro.kernels.suite import clear_trace_cache, get_program
from repro.pipeline.processor import SimParams

TINY = ExperimentScale(
    kernel_scale=0.06, target_instructions=1_500, timeslice=800
)
POLICIES = ["SMT", "CSMT"]
WORKLOADS = ["llll", "hhhh"]
THREADS = (2,)
#: distinct benchmarks of the matrix above (llll + hhhh members)
N_BENCHES = 8


def tiny_sweep(session, **kw):
    return session.sweep(
        policies=POLICIES, workloads=WORKLOADS, n_threads=THREADS, **kw
    )


def stored(root) -> dict[str, dict]:
    """Every live store entry: ``{key: stats dict}``."""
    cache = ResultCache(root)
    out = {}
    for path in cache._entries():
        key = path.parent.name + path.stem
        out[key] = cache.get(key).to_dict()
    return out


@pytest.fixture
def vm_calls(monkeypatch, tmp_path):
    """Count functional-VM trace recordings, per process: every call
    appends the caller's PID to a file, so calls made in forked pool
    workers are counted too."""
    log = tmp_path / "vm-calls"
    log.touch()
    real = suite.record_trace

    def counting(*args, **kwargs):
        with open(log, "a") as f:
            f.write(f"{os.getpid()}\n")
        return real(*args, **kwargs)

    monkeypatch.setattr(suite, "record_trace", counting)
    clear_trace_cache()
    yield lambda: [int(x) for x in log.read_text().split()]
    clear_trace_cache()


@pytest.fixture
def compile_calls(monkeypatch):
    calls = []
    real = suite.compile_kernel

    def counting(kernel, cfg=PAPER_MACHINE):
        calls.append((kernel.fn.name, cfg.n_clusters))
        return real(kernel, cfg)

    monkeypatch.setattr(suite, "compile_kernel", counting)
    return calls


@pytest.fixture
def key_calls(monkeypatch):
    calls = []
    real = session_mod.cache_key

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(session_mod, "cache_key", counting)
    return calls


# ---------------------------------------------------- program fingerprint
def _mutated(program: Program, edit) -> Program:
    clone = pickle.loads(pickle.dumps(program))
    clone._fingerprint = None
    edit(clone)
    return Program(
        clone.instructions, clone.n_clusters, clone.data, clone.name
    )


def test_program_fingerprint_tracks_content(axpy_program):
    base = axpy_program.fingerprint()
    assert len(base) == 64 and base == axpy_program.fingerprint()

    def first(clone, pred):
        return next(op for ins in clone for op in ins.ops if pred(op))

    def bump_imm(clone):
        first(clone, lambda op: op.opcode is not Opcode.HALT).imm += 1

    def retarget(clone):
        op = first(clone, lambda op: op.target is not None)
        op.target = (op.target + 1) % len(clone)

    def poke_data(clone):
        addr = min(clone.data.words)
        clone.data.words[addr] ^= 1

    for edit in (bump_imm, retarget, poke_data):
        assert _mutated(axpy_program, edit).fingerprint() != base, edit

    wider = Program(
        axpy_program.instructions, axpy_program.n_clusters + 1,
        axpy_program.data, axpy_program.name,
    )
    assert wider.fingerprint() != base


def test_program_fingerprint_stable_across_pickle(axpy_program):
    fresh = pickle.loads(pickle.dumps(axpy_program))
    fresh._fingerprint = None  # recompute, do not carry the memo over
    assert fresh.fingerprint() == axpy_program.fingerprint()


def test_suite_programs_memoised_per_shape():
    a = get_program("mcf", 0.05)
    assert get_program("mcf", 0.05) is a
    assert get_program("mcf", 0.06) is not a
    assert get_program("mcf", 0.06).fingerprint() != a.fingerprint()


# ------------------------------------------------------------- cache key
def test_cache_key_tracks_programs_and_trace_version(monkeypatch):
    params = SimParams()
    base = cache_mod.cache_key(
        PAPER_MACHINE, params, "SMT", ("a",), ("p1",), 2
    )
    assert cache_mod.cache_key(
        PAPER_MACHINE, params, "SMT", ("a",), ("p2",), 2
    ) != base
    monkeypatch.setattr(
        cache_mod, "TRACE_VERSION", cache_mod.TRACE_VERSION + 1
    )
    assert cache_mod.cache_key(
        PAPER_MACHINE, params, "SMT", ("a",), ("p1",), 2
    ) != base


# ------------------------------------------------------------ warm sweeps
def test_warm_sweep_never_runs_the_vm(
    tmp_path, vm_calls, compile_calls, key_calls
):
    cold = SimulationSession(TINY, cache_dir=tmp_path / "c")
    expected = tiny_sweep(cold)
    cells = len(expected)
    assert len(vm_calls()) == N_BENCHES
    assert len(key_calls) == cells  # lookup, adopt and journal share one

    clear_trace_cache()
    vm_before = len(vm_calls())
    compile_calls.clear()
    key_calls.clear()
    warm = SimulationSession(TINY, cache_dir=tmp_path / "c")
    results = tiny_sweep(warm)
    assert warm.simulations == 0
    assert len(vm_calls()) == vm_before  # no VM run at all
    assert len(compile_calls) == N_BENCHES
    assert len(set(compile_calls)) == N_BENCHES  # each bench once
    assert len(key_calls) == cells
    assert {k: s.to_dict() for k, s in results.items()} == {
        k: s.to_dict() for k, s in expected.items()
    }
    records = warm.telemetry.records
    assert [r["source"] for r in records] == ["disk"] * cells
    assert sum(r["trace_s"] for r in records) == 0


def test_pooled_sweep_builds_traces_in_the_parent_only(tmp_path, vm_calls):
    session = SimulationSession(TINY, cache_dir=tmp_path / "c", jobs=2)
    try:
        tiny_sweep(session)
    finally:
        session.close()
    pids = vm_calls()
    assert len(pids) == N_BENCHES  # once per (bench, shape)
    assert set(pids) == {os.getpid()}  # never in a worker
    workers = {r["worker"] for r in session.telemetry.records}
    assert os.getpid() not in workers  # the cells did run in the pool
    # the parent's builds are charged to the cells that needed them
    assert sum(r["trace_s"] for r in session.telemetry.records) > 0


def test_serial_pooled_resumed_write_identical_store(tmp_path):
    serial = SimulationSession(TINY, cache_dir=tmp_path / "serial")
    tiny_sweep(serial)
    pooled = SimulationSession(TINY, cache_dir=tmp_path / "pooled", jobs=2)
    try:
        tiny_sweep(pooled)
    finally:
        pooled.close()
    partial = SimulationSession(TINY, cache_dir=tmp_path / "resumed")
    partial.sweep(policies=["SMT"], workloads=["llll"], n_threads=THREADS)
    resumed = SimulationSession(TINY, cache_dir=tmp_path / "resumed")
    tiny_sweep(resumed, resume=True)
    assert resumed.simulations == len(POLICIES) * len(WORKLOADS) - 1

    want = stored(tmp_path / "serial")
    assert len(want) == len(POLICIES) * len(WORKLOADS)
    assert stored(tmp_path / "pooled") == want
    assert stored(tmp_path / "resumed") == want


def test_run_single_warm_does_no_vm_run(tmp_path, vm_calls):
    cold = SimulationSession(TINY, cache_dir=tmp_path / "c")
    expected = cold.run_single("mcf").to_dict()
    assert len(vm_calls()) == 1

    clear_trace_cache()
    warm = SimulationSession(TINY, cache_dir=tmp_path / "c")
    assert warm.run_single("mcf").to_dict() == expected
    assert warm.simulations == 0
    assert len(vm_calls()) == 1
