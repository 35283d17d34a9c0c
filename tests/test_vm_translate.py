"""Differential tests: the block-translated ``VM.run`` against stepping.

``VM.step`` is the per-instruction semantic oracle; ``VM.run`` executes
the program's block translation (``repro.vm.translate``).  Every test
here runs one program both ways and requires the same trace, the same
final architectural state and counters, and the same ``VMError``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.scenarios import get_scenario
from repro.compiler.pipeline import compile_kernel
from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation, VLIWInstruction
from repro.isa.program import DataSegment, Program
from repro.kernels.suite import BENCH_ORDER, get_program
from repro.vm.machine import ALU_EXPR, MASK32, VM, TraceRecorder, VMError

from test_compiler_fuzz import fuzz_kernel, program_spec

CAP = 10_000_000


def stepped_run(vm: VM, max_instructions: int = CAP,
                recorder: TraceRecorder | None = None) -> int:
    """``VM.run`` as a loop of the oracle ``VM.step``."""
    while vm.step(recorder):
        if vm.instr_count >= max_instructions:
            raise VMError(
                f"{vm.program.name}: exceeded {max_instructions} "
                "instructions (infinite loop?)"
            )
    return vm.instr_count


def outcome(program: Program, runner, max_instructions: int = CAP,
            record: bool = True, pre_steps: int = 0):
    """(error message or None, final state, trace) of one run."""
    vm = VM(program)
    rec = TraceRecorder(program.n_clusters) if record else None
    error = None
    try:
        for _ in range(pre_steps):
            vm.step(rec)
        runner(vm, max_instructions, rec)
    except VMError as exc:
        error = str(exc)
    state = (vm.regs, vm.bregs, bytes(vm.mem), vm.pc, vm.instr_count,
             vm.op_count, vm.halted)
    trace = (rec.indices, rec.taken, rec.addrs) if rec is not None else None
    return error, state, trace


def translated_run(vm: VM, max_instructions: int,
                   recorder: TraceRecorder | None) -> int:
    return vm.run(max_instructions=max_instructions, recorder=recorder)


def assert_same(program: Program, **kw) -> tuple:
    want = outcome(program, stepped_run, **kw)
    got = outcome(program, translated_run, **kw)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    return got


# -- the suite kernels ------------------------------------------------------
@pytest.mark.parametrize("machine", ["paper", "narrow", "wide"])
def test_suite_kernels_match_stepping(machine):
    cfg = get_scenario(machine).machine
    for bench in BENCH_ORDER:
        error, state, trace = assert_same(get_program(bench, 0.05, cfg))
        assert error is None and state[-1], bench  # ran to HALT
        assert len(trace[0]) == state[4]


def test_run_without_recorder_matches():
    program = get_program("x264", 0.05, get_scenario("paper").machine)
    assert_same(program, record=False)


# -- random programs ----------------------------------------------------------
@given(program_spec())
@settings(max_examples=40, deadline=None)
def test_compiled_fuzz_programs_match_stepping(spec):
    builder = fuzz_kernel(spec)[0]
    assert_same(compile_kernel(builder).program, max_instructions=100_000)


#: a register no random op writes: cluster c's memory base
BASE = 7
#: the loop counter (cluster 0)
COUNTER = 8
MEMORY = 256


@st.composite
def random_vliw_program(draw):
    """Random VLIW code over every opcode of the table, memory accesses
    of every width (some past the segment end), SEND/RECV pairs,
    duplicate writes in one
    instruction, writes to r0, and a counted loop."""
    n_cl = 4
    imm = st.one_of(st.integers(-40, 40), st.integers(0, MASK32),
                    st.integers(-(1 << 31), -1))
    init = [Operation(Opcode.MOV, cluster=c, dst=r, imm=draw(imm),
                      use_imm=True)
            for c in range(n_cl) for r in range(1, BASE)]
    init += [Operation(Opcode.MOV, cluster=c, dst=BASE, imm=16 * c,
                       use_imm=True) for c in range(n_cl)]
    instrs = [VLIWInstruction(init[i:i + 8]) for i in range(0, len(init), 8)]
    instrs.append(VLIWInstruction([Operation(
        Opcode.MOV, cluster=0, dst=COUNTER, imm=draw(st.integers(1, 4)),
        use_imm=True)]))
    loop_start = len(instrs)
    for _ in range(draw(st.integers(1, 8))):
        ops = []
        mem_clusters = set()
        for _ in range(draw(st.integers(1, 6))):
            c = draw(st.integers(0, n_cl - 1))
            kind = draw(st.sampled_from(["alu", "alu", "mem", "xfer", "cmpbr"]))
            dst = draw(st.integers(0, BASE - 1))
            if kind == "alu":
                opc = draw(st.sampled_from(sorted(ALU_EXPR)))
                use_imm = draw(st.booleans())
                srcs = tuple(draw(st.lists(st.integers(0, COUNTER),
                                           min_size=1, max_size=2)))
                ops.append(Operation(opc, cluster=c, dst=dst, srcs=srcs,
                                     imm=draw(imm), use_imm=use_imm))
            elif kind == "mem" and c not in mem_clusters:
                mem_clusters.add(c)
                opc = draw(st.sampled_from([
                    Opcode.LDW, Opcode.LDH, Opcode.LDHU, Opcode.LDB,
                    Opcode.LDBU, Opcode.STW, Opcode.STH, Opcode.STB]))
                # some accesses run past the segment end and fault
                off = draw(st.integers(0, MEMORY - 16 * c - 1))
                if opc in (Opcode.STW, Opcode.STH, Opcode.STB):
                    src = draw(st.integers(0, COUNTER))
                    ops.append(Operation(opc, cluster=c, srcs=(src, BASE),
                                         imm=off))
                else:
                    ops.append(Operation(opc, cluster=c, dst=dst,
                                         srcs=(BASE,), imm=off))
            elif kind == "xfer":
                to = (c + draw(st.integers(1, n_cl - 1))) % n_cl
                xid = len(ops)
                ops.append(Operation(Opcode.SEND, cluster=c,
                                     srcs=(draw(st.integers(0, COUNTER)),),
                                     xfer_id=xid))
                ops.append(Operation(Opcode.RECV, cluster=to, dst=dst,
                                     xfer_id=xid))
            elif kind == "cmpbr":
                ops.append(Operation(
                    Opcode.CMPBR, cluster=c, dst=draw(st.integers(1, 3)),
                    srcs=(draw(st.integers(0, COUNTER)),
                          draw(st.integers(0, COUNTER))),
                    imm=draw(imm), use_imm=draw(st.booleans()),
                    cmp_kind=int(draw(st.sampled_from([
                        Opcode.CMPEQ, Opcode.CMPLT, Opcode.CMPGEU])))))
        if ops:
            instrs.append(VLIWInstruction(ops))
    if draw(st.booleans()):  # skip one instruction with a GOTO
        instrs.append(VLIWInstruction([Operation(
            Opcode.GOTO, cluster=0, target=len(instrs) + 2)]))
        instrs.append(VLIWInstruction([Operation(
            Opcode.MOV, cluster=0, dst=1, imm=99, use_imm=True)]))
    instrs.append(VLIWInstruction([Operation(
        Opcode.SUB, cluster=0, dst=COUNTER, srcs=(COUNTER,), imm=1,
        use_imm=True)]))
    branch_on_true = draw(st.booleans())
    instrs.append(VLIWInstruction([Operation(
        Opcode.CMPBR, cluster=0, dst=0, srcs=(COUNTER,), imm=0,
        use_imm=True,
        cmp_kind=int(Opcode.CMPNE if branch_on_true else Opcode.CMPEQ))]))
    instrs.append(VLIWInstruction([Operation(
        Opcode.BR if branch_on_true else Opcode.BRF, cluster=0, imm=0,
        target=loop_start)]))
    instrs.append(VLIWInstruction([Operation(Opcode.HALT, cluster=0)]))
    return Program(instrs, n_cl, DataSegment(size=MEMORY), "rand")


@given(random_vliw_program())
@settings(max_examples=150, deadline=None)
def test_random_vliw_programs_match_stepping(program):
    error, state, _ = assert_same(program)
    assert state[-1] or "out of range" in error
    assert_same(program, record=False)


@given(random_vliw_program(), st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_cap_and_entry_anywhere_match_stepping(program, cap):
    """The cap falls at arbitrary points, also inside blocks, and runs
    may start on any instruction (after some oracle steps)."""
    assert_same(program, max_instructions=cap)
    assert_same(program, pre_steps=cap % 7)


# -- edge cases ---------------------------------------------------------------
def movi(c, r, v):
    return Operation(Opcode.MOV, cluster=c, dst=r, imm=v, use_imm=True)


def prog(instrs, size=64):
    return Program(instrs, 4, DataSegment(size=size), "edge")


def halt():
    return VLIWInstruction([Operation(Opcode.HALT, cluster=0)])


@pytest.mark.parametrize("store", [False, True])
def test_out_of_range_access_same_error_and_state(store):
    access = (
        Operation(Opcode.STW, cluster=1, srcs=(2, 1), imm=0) if store
        else Operation(Opcode.LDW, cluster=1, dst=2, srcs=(1,), imm=0)
    )
    program = prog([
        VLIWInstruction([movi(1, 1, 8), movi(1, 2, 5), movi(0, 3, 1)]),
        VLIWInstruction([Operation(Opcode.STW, cluster=1, srcs=(2, 1)),
                         Operation(Opcode.LDW, cluster=1, dst=4, srcs=(1,))]),
        # the fault: the other ops of the instruction commit or not
        # exactly as stepping's two phases decide
        VLIWInstruction([movi(1, 1, 62), movi(0, 3, 2)]),
        VLIWInstruction([access, movi(0, 5, 7)]),
        halt(),
    ])
    error, state, trace = assert_same(program)
    kind = "store" if store else "load"
    assert error == f"edge: {kind} out of range 0x3e at pc instr 3"
    assert state[3] == 3 and state[4] == 3
    assert len(trace[0]) == 3


def test_store_fault_in_halting_instruction():
    program = prog([
        VLIWInstruction([movi(0, 1, 100)]),
        VLIWInstruction([Operation(Opcode.STB, cluster=0, srcs=(1, 1)),
                         Operation(Opcode.HALT, cluster=0)]),
    ])
    error, state, _ = assert_same(program)
    assert error is not None and state[-1]  # HALT ran before the store


@pytest.mark.parametrize("cap", range(1, 12))
def test_runaway_cap_raises_at_same_count(cap):
    program = prog([
        VLIWInstruction([movi(0, 1, 1)]),
        VLIWInstruction([Operation(Opcode.ADD, cluster=0, dst=2,
                                   srcs=(2, 1))]),
        VLIWInstruction([Operation(Opcode.GOTO, cluster=0, target=1)]),
        halt(),
    ])
    error, state, _ = assert_same(program, max_instructions=cap)
    assert "exceeded" in error and state[4] == max(cap, 1)


@pytest.mark.parametrize("cap", [3, 4, 5])
def test_halt_block_straddling_the_cap(cap):
    """A 4-instruction block ending in HALT: the cap raises only if it
    is reached before the HALT instruction completes."""
    program = prog([
        VLIWInstruction([movi(0, 1, 1)]),
        VLIWInstruction([movi(0, 2, 2)]),
        VLIWInstruction([movi(0, 3, 3)]),
        halt(),
    ])
    error, state, _ = assert_same(program, max_instructions=cap)
    assert (error is None) == (cap >= 4)
    assert state[-1] == (cap >= 4)


def test_fall_off_program_end():
    program = prog([
        VLIWInstruction([movi(0, 1, 1)]),
        VLIWInstruction([movi(0, 2, 2)]),
    ])
    error, state, trace = assert_same(program)
    assert error == "edge: fell off program end"
    assert state[3] == 2 and state[4] == 2 and len(trace[0]) == 2


def test_writes_to_r0_are_dropped():
    program = prog([
        VLIWInstruction([movi(0, 0, 5), movi(1, 1, 9)]),
        VLIWInstruction([
            Operation(Opcode.LDW, cluster=1, dst=0, srcs=(1,)),
            Operation(Opcode.SEND, cluster=1, srcs=(1,), xfer_id=0),
            Operation(Opcode.RECV, cluster=2, dst=0, xfer_id=0),
        ]),
        halt(),
    ])
    _, state, _ = assert_same(program)
    assert all(regs[0] == 0 for regs in state[0])


def test_same_instruction_swap_via_send_recv():
    """Paper Fig. 3 across clusters: each RECV sees the other cluster's
    pre-instruction value."""
    program = prog([
        VLIWInstruction([movi(0, 3, 111), movi(1, 5, 222)]),
        VLIWInstruction([
            Operation(Opcode.SEND, cluster=0, srcs=(3,), xfer_id=0),
            Operation(Opcode.RECV, cluster=1, dst=5, xfer_id=0),
            Operation(Opcode.SEND, cluster=1, srcs=(5,), xfer_id=1),
            Operation(Opcode.RECV, cluster=0, dst=3, xfer_id=1),
        ]),
        halt(),
    ])
    _, state, _ = assert_same(program)
    assert (state[0][0][3], state[0][1][5]) == (222, 111)


def test_untranslatable_instruction_steps():
    """An instruction stepping rejects (a CMPBR whose kind is not a
    compare) runs on the oracle and raises the same error."""
    program = prog([
        VLIWInstruction([movi(0, 1, 1)]),
        VLIWInstruction([Operation(Opcode.CMPBR, cluster=0, dst=0,
                                   srcs=(1, 1), cmp_kind=int(Opcode.ADD))]),
        halt(),
    ])
    error, state, _ = assert_same(program)
    assert error.startswith("unknown ALU opcode")
    assert state[4] == 1
