"""Functional VM semantics (repro.vm.machine)."""

import pytest

from repro.arch.config import PAPER_MACHINE
from repro.isa.opcodes import Opcode
from repro.isa.operation import Operation, VLIWInstruction
from repro.isa.program import DataSegment, Program
from repro.vm.machine import MASK32, VM, TraceRecorder, VMError, _s32


def prog(instrs, data=None) -> Program:
    return Program(instrs, PAPER_MACHINE.n_clusters, data, "t")


def halt() -> VLIWInstruction:
    return VLIWInstruction([Operation(Opcode.HALT, cluster=0)])


def movi(c, r, v):
    return Operation(Opcode.MOV, cluster=c, dst=r, imm=v, use_imm=True)


def test_s32():
    assert _s32(0xFFFFFFFF) == -1
    assert _s32(0x7FFFFFFF) == 0x7FFFFFFF
    assert _s32(0x80000000) == -(1 << 31)


def test_mov_and_add():
    p = prog([
        VLIWInstruction([movi(0, 1, 5), movi(0, 2, 7)]),
        VLIWInstruction([Operation(Opcode.ADD, cluster=0, dst=3, srcs=(1, 2))]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 12


def test_r0_hardwired_zero():
    p = prog([
        VLIWInstruction([movi(0, 0, 99)]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][0] == 0


@pytest.mark.parametrize(
    "opc,a,b,expected",
    [
        (Opcode.ADD, 7, 3, 10),
        (Opcode.SUB, 3, 7, (3 - 7) & MASK32),
        (Opcode.AND, 0b1100, 0b1010, 0b1000),
        (Opcode.OR, 0b1100, 0b1010, 0b1110),
        (Opcode.XOR, 0b1100, 0b1010, 0b0110),
        (Opcode.SHL, 1, 31, 0x80000000),
        (Opcode.SHR, 0x80000000, 31, 1),
        (Opcode.SRA, 0x80000000, 31, MASK32),
        (Opcode.MIN, 5, (-3) & MASK32, (-3) & MASK32),
        (Opcode.MAX, 5, (-3) & MASK32, 5),
        (Opcode.ABS, (-17) & MASK32, 0, 17),
        (Opcode.NOT, 0, 0, MASK32),
        (Opcode.SXTB, 0x80, 0, 0xFFFFFF80),
        (Opcode.SXTH, 0x8000, 0, 0xFFFF8000),
        (Opcode.ZXTB, 0x1FF, 0, 0xFF),
        (Opcode.ZXTH, 0x1FFFF, 0, 0xFFFF),
        (Opcode.MPY, 7, (-3) & MASK32, (-21) & MASK32),
        (Opcode.MPYSHR15, 1 << 15, 1 << 15, 1 << 15),
        (Opcode.CMPEQ, 4, 4, 1),
        (Opcode.CMPNE, 4, 4, 0),
        (Opcode.CMPLT, (-1) & MASK32, 0, 1),
        (Opcode.CMPLTU, (-1) & MASK32, 0, 0),
        (Opcode.CMPGE, 3, 3, 1),
        (Opcode.CMPGT, 3, 3, 0),
        (Opcode.CMPLE, 2, 3, 1),
        (Opcode.CMPGEU, (-1) & MASK32, 1, 1),
    ],
)
def test_alu_semantics(opc, a, b, expected):
    op = Operation(opc, cluster=0, dst=3, srcs=(1, 2))
    assert VM.alu(op, a, b) == expected


def test_mpyh():
    op = Operation(Opcode.MPYH, cluster=0, dst=3, srcs=(1, 2))
    assert VM.alu(op, 1 << 16, 1 << 16) == 1  # 2^32 >> 32


def test_single_cycle_swap_reads_old_values():
    """Paper Fig. 3: a one-instruction register swap is legal VLIW."""
    p = prog([
        VLIWInstruction([movi(0, 3, 111), movi(0, 5, 222)]),
        VLIWInstruction([
            Operation(Opcode.MOV, cluster=0, dst=3, srcs=(5,)),
            Operation(Opcode.MOV, cluster=0, dst=5, srcs=(3,)),
        ]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 222
    assert vm.regs[0][5] == 111


def test_store_then_load():
    data = DataSegment()
    p = prog([
        VLIWInstruction([movi(0, 1, 0x100), movi(0, 2, 0xDEAD)]),
        VLIWInstruction([Operation(Opcode.STW, cluster=0, srcs=(2, 1), imm=4)]),
        VLIWInstruction([Operation(Opcode.LDW, cluster=0, dst=3, srcs=(1,), imm=4)]),
        halt(),
    ], data)
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 0xDEAD


def test_byte_and_half_memory_ops():
    p = prog([
        VLIWInstruction([movi(0, 1, 0x200), movi(0, 2, 0x1FF)]),
        VLIWInstruction([Operation(Opcode.STH, cluster=0, srcs=(2, 1))]),
        VLIWInstruction([Operation(Opcode.LDH, cluster=0, dst=3, srcs=(1,))]),
        VLIWInstruction([Operation(Opcode.LDHU, cluster=0, dst=4, srcs=(1,))]),
        VLIWInstruction([Operation(Opcode.LDB, cluster=0, dst=5, srcs=(1,))]),
        VLIWInstruction([Operation(Opcode.LDBU, cluster=0, dst=6, srcs=(1,))]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][3] == 0x1FF
    assert vm.regs[0][4] == 0x1FF
    assert vm.regs[0][5] == MASK32 - 0xFF + 0xFF  # sign-extended 0xFF
    assert vm.regs[0][6] == 0xFF


def test_data_segment_initialisation():
    data = DataSegment()
    data.set_word(64, 0xCAFEBABE)
    p = prog([
        VLIWInstruction([movi(0, 1, 64)]),
        VLIWInstruction([Operation(Opcode.LDW, cluster=0, dst=2, srcs=(1,))]),
        halt(),
    ], data)
    vm = VM(p)
    vm.run()
    assert vm.regs[0][2] == 0xCAFEBABE


def test_data_segment_set_bytes():
    data = DataSegment()
    data.set_bytes(65, b"\x11\x22")
    vmems = data.words
    assert vmems[64] == 0x00221100


def test_data_segment_rejects_unaligned():
    with pytest.raises(ValueError):
        DataSegment().set_word(3, 1)


def test_cmpbr_and_branch_taken():
    p = prog([
        VLIWInstruction([movi(0, 1, 5)]),
        VLIWInstruction([
            Operation(Opcode.CMPBR, cluster=0, dst=0, srcs=(1,), imm=5,
                      use_imm=True, cmp_kind=int(Opcode.CMPEQ))
        ]),
        VLIWInstruction([]),
        VLIWInstruction([Operation(Opcode.BR, cluster=0, imm=0, target=5)]),
        VLIWInstruction([movi(0, 2, 1)]),  # skipped when taken
        VLIWInstruction([movi(0, 3, 7)]),  # branch target
        halt(),
    ])
    vm = VM(p)
    rec = TraceRecorder(4)
    vm.run(recorder=rec)
    assert vm.regs[0][2] == 0
    assert vm.regs[0][3] == 7
    assert sum(rec.taken) == 1


def test_brf_falls_through_when_true():
    p = prog([
        VLIWInstruction([movi(0, 1, 5)]),
        VLIWInstruction([
            Operation(Opcode.CMPBR, cluster=0, dst=0, srcs=(1,), imm=5,
                      use_imm=True, cmp_kind=int(Opcode.CMPEQ))
        ]),
        VLIWInstruction([]),
        VLIWInstruction([Operation(Opcode.BRF, cluster=0, imm=0, target=5)]),
        VLIWInstruction([movi(0, 2, 1)]),  # executed (cond true, BRF not taken)
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[0][2] == 1


def test_send_recv_transfers_across_clusters():
    p = prog([
        VLIWInstruction([movi(1, 5, 42)]),
        VLIWInstruction([
            Operation(Opcode.SEND, cluster=1, srcs=(5,), xfer_id=0),
            Operation(Opcode.RECV, cluster=2, dst=7, xfer_id=0),
        ]),
        halt(),
    ])
    vm = VM(p)
    vm.run()
    assert vm.regs[2][7] == 42


def test_out_of_range_load_raises():
    p = prog([
        VLIWInstruction([movi(0, 1, 0x7FFFFFFF)]),
        VLIWInstruction([Operation(Opcode.LDW, cluster=0, dst=2, srcs=(1,))]),
        halt(),
    ])
    vm = VM(p)
    with pytest.raises(VMError):
        vm.run()


SEGMENT = 64
#: the last word of the segment holds bytes 83 82 81 80
LAST_WORD = 0x80818283


@pytest.mark.parametrize(
    "opc,width,expected",
    [
        (Opcode.LDW, 4, LAST_WORD),
        (Opcode.LDH, 2, 0xFFFF8081),
        (Opcode.LDHU, 2, 0x8081),
        (Opcode.LDB, 1, 0xFFFFFF80),
        (Opcode.LDBU, 1, 0x80),
    ],
)
def test_load_at_segment_end(opc, width, expected):
    """An access checks its own width: the last 1-3 bytes of the data
    segment are loadable by the narrow loads, in both VM paths."""
    data = DataSegment(size=SEGMENT)
    data.set_word(SEGMENT - 4, LAST_WORD)
    for addr, ok in ((SEGMENT - width, True), (SEGMENT - width + 1, False)):
        p = prog([
            VLIWInstruction([movi(0, 1, addr)]),
            VLIWInstruction([Operation(opc, cluster=0, dst=2, srcs=(1,))]),
            halt(),
        ], data)
        for run in (VM.run, _step_all):
            vm = VM(p)
            if ok:
                run(vm)
                assert vm.regs[0][2] == expected
            else:
                with pytest.raises(VMError, match="load out of range"):
                    run(vm)


@pytest.mark.parametrize(
    "opc,width", [(Opcode.STW, 4), (Opcode.STH, 2), (Opcode.STB, 1)]
)
def test_store_at_segment_end(opc, width):
    value = 0x123456AB
    for addr, ok in ((SEGMENT - width, True), (SEGMENT - width + 1, False)):
        p = prog([
            VLIWInstruction([movi(0, 1, addr), movi(0, 2, value)]),
            VLIWInstruction([Operation(opc, cluster=0, srcs=(2, 1))]),
            halt(),
        ], DataSegment(size=SEGMENT))
        for run in (VM.run, _step_all):
            vm = VM(p)
            if ok:
                run(vm)
                assert vm.mem[addr:] == value.to_bytes(4, "little")[:width]
            else:
                with pytest.raises(VMError, match="store out of range"):
                    run(vm)


def _step_all(vm):
    while vm.step():
        pass


def test_runaway_guard():
    p = prog([
        VLIWInstruction([Operation(Opcode.GOTO, cluster=0, target=0)]),
        halt(),
    ])
    vm = VM(p)
    with pytest.raises(VMError):
        vm.run(max_instructions=100)


def test_reset_restores_initial_state(axpy_program):
    vm = VM(axpy_program)
    vm.run()
    ops1, n1 = vm.op_count, vm.instr_count
    mem1 = bytes(vm.mem)
    vm.reset()
    vm.run()
    assert (vm.op_count, vm.instr_count) == (ops1, n1)
    assert bytes(vm.mem) == mem1


def test_trace_recorder_shapes(axpy_program):
    vm = VM(axpy_program)
    rec = TraceRecorder(4)
    n = vm.run(recorder=rec)
    assert len(rec.indices) == len(rec.taken) == len(rec.addrs) == n
    assert {len(row) for row in rec.addrs} == {4}
    assert all(isinstance(row, tuple) for row in rec.addrs)
    assert max(rec.indices) < len(axpy_program)
