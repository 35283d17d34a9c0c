"""Functional interpreter for compiled VLIW programs.

Executes one VLIW instruction atomically per step with *read-old-state*
semantics: every operation of an instruction reads the register/memory
state from before the instruction (the paper's Fig. 3 single-cycle swap
is legal and works here).  This is the reference semantics that the
split-issue buffer protocol (:mod:`repro.core.buffers`) must preserve.

The VM is the *functional* half of the trace-driven simulator: it runs
each kernel once and records a dynamic trace (static instruction index,
branch-taken flag, per-cluster data addresses) that the timing model
replays under any multithreading/split-issue policy.

Two paths execute a program, both driven by the opcode tables below:

* :meth:`VM.step` interprets one instruction — the per-instruction
  semantic oracle that :class:`~repro.core.buffers.SplitVM` and the
  atomic-semantics tests build on;
* :meth:`VM.run` executes a per-program translation
  (:mod:`repro.vm.translate`): each basic block becomes one straight-line
  Python function with every operation inlined.
"""

from __future__ import annotations

import builtins
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, cast

from ..isa.opcodes import COMPARES, LOADS, STORES, Opcode
from ..isa.operation import Operation
from ..isa.program import Program

if TYPE_CHECKING:
    from .translate import Translation

MASK32 = 0xFFFFFFFF


def _s32(x: int) -> int:
    """Interpret a 32-bit pattern as signed."""
    x &= MASK32
    return x - 0x100000000 if x & 0x80000000 else x


class VMError(RuntimeError):
    pass


# -- opcode semantics: one table for the interpreter and the translator ---
#
# Each entry is a Python expression template.  ALU/compare templates use
# ``{a}``/``{b}`` for the operands and ``{sa}``/``{sb}`` for their signed
# 32-bit views, each at most once, so an operand may be any expression;
# every result is already a 32-bit pattern.  Memory templates use
# ``{m}`` (the memory bytearray), ``{x}`` (the address, a plain name) and
# ``{v}`` (the stored value).

ALU_EXPR: dict[Opcode, str] = {
    Opcode.ADD: "({a} + {b}) & 0xFFFFFFFF",
    Opcode.SUB: "({a} - {b}) & 0xFFFFFFFF",
    Opcode.AND: "{a} & ({b} & 0xFFFFFFFF)",
    Opcode.OR: "({a} | {b}) & 0xFFFFFFFF",
    Opcode.XOR: "({a} ^ {b}) & 0xFFFFFFFF",
    Opcode.SHL: "({a} << ({b} & 31)) & 0xFFFFFFFF",
    Opcode.SHR: "({a} & 0xFFFFFFFF) >> ({b} & 31)",
    Opcode.SRA: "({sa} >> ({b} & 31)) & 0xFFFFFFFF",
    Opcode.MOV: "{a} & 0xFFFFFFFF",
    Opcode.MIN: "min({sa}, {sb}) & 0xFFFFFFFF",
    Opcode.MAX: "max({sa}, {sb}) & 0xFFFFFFFF",
    Opcode.ABS: "abs({sa}) & 0xFFFFFFFF",
    Opcode.NOT: "~{a} & 0xFFFFFFFF",
    Opcode.SXTB: "((({a} & 0xFF) ^ 0x80) - 0x80) & 0xFFFFFFFF",
    Opcode.SXTH: "((({a} & 0xFFFF) ^ 0x8000) - 0x8000) & 0xFFFFFFFF",
    Opcode.ZXTB: "{a} & 0xFF",
    Opcode.ZXTH: "{a} & 0xFFFF",
    Opcode.MPY: "({sa} * {sb}) & 0xFFFFFFFF",
    Opcode.MPYH: "(({sa} * {sb}) >> 32) & 0xFFFFFFFF",
    Opcode.MPYSHR15: "(({sa} * {sb}) >> 15) & 0xFFFFFFFF",
    Opcode.CMPEQ: "1 if ({a} & 0xFFFFFFFF) == ({b} & 0xFFFFFFFF) else 0",
    Opcode.CMPNE: "1 if ({a} & 0xFFFFFFFF) != ({b} & 0xFFFFFFFF) else 0",
    Opcode.CMPLT: "1 if {sa} < {sb} else 0",
    Opcode.CMPLE: "1 if {sa} <= {sb} else 0",
    Opcode.CMPGT: "1 if {sa} > {sb} else 0",
    Opcode.CMPGE: "1 if {sa} >= {sb} else 0",
    Opcode.CMPLTU: "1 if ({a} & 0xFFFFFFFF) < ({b} & 0xFFFFFFFF) else 0",
    Opcode.CMPGEU: "1 if ({a} & 0xFFFFFFFF) >= ({b} & 0xFFFFFFFF) else 0",
}

LOAD_EXPR: dict[Opcode, str] = {
    Opcode.LDW: "int.from_bytes({m}[{x}:{x} + 4], 'little')",
    Opcode.LDH: (
        "int.from_bytes({m}[{x}:{x} + 2], 'little', signed=True)"
        " & 0xFFFFFFFF"
    ),
    Opcode.LDHU: "int.from_bytes({m}[{x}:{x} + 2], 'little')",
    Opcode.LDB: "(({m}[{x}] ^ 0x80) - 0x80) & 0xFFFFFFFF",
    Opcode.LDBU: "{m}[{x}]",
}

STORE_STMT: dict[Opcode, str] = {
    Opcode.STW: "{m}[{x}:{x} + 4] = ({v} & 0xFFFFFFFF).to_bytes(4, 'little')",
    Opcode.STH: "{m}[{x}:{x} + 2] = ({v} & 0xFFFF).to_bytes(2, 'little')",
    Opcode.STB: "{m}[{x}] = {v} & 0xFF",
}

#: bytes touched by each memory access; the bounds check of every path
MEM_WIDTH: dict[Opcode, int] = {
    Opcode.LDW: 4, Opcode.LDH: 2, Opcode.LDHU: 2, Opcode.LDB: 1,
    Opcode.LDBU: 1, Opcode.STW: 4, Opcode.STH: 2, Opcode.STB: 1,
}


def _signed(operand: str) -> str:
    """Expression for the signed value of a 32-bit ``operand`` (any
    int, evaluated once)."""
    return f"(((({operand}) & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000)"


def alu_expr(opcode: Opcode, a: str, b: str) -> str:
    """The :data:`ALU_EXPR` expression of ``opcode`` over operand
    expressions ``a`` and ``b``."""
    return ALU_EXPR[opcode].format(
        a=a, b=b, sa=_signed(a), sb=_signed(b)
    )


def _function(params: str, body: str) -> Callable[..., Any]:
    """Compile a table entry into a function for the interpreter."""
    ns: dict[str, object] = {"__builtins__": builtins}
    exec(f"def f({params}):\n    {body}\n", ns)
    return cast("Callable[..., Any]", ns["f"])


_ALU_FN: dict[Opcode, Callable[[int, int], int]] = {
    oc: _function("a, b", "return " + alu_expr(oc, "a", "b"))
    for oc in ALU_EXPR
}
_LOAD_FN: dict[Opcode, Callable[[bytearray, int], int]] = {
    oc: _function("m, x", "return " + expr.format(m="m", x="x"))
    for oc, expr in LOAD_EXPR.items()
}
_STORE_FN: dict[Opcode, Callable[[bytearray, int, int], None]] = {
    oc: _function("m, x, v", stmt.format(m="m", x="x", v="v"))
    for oc, stmt in STORE_STMT.items()
}


@dataclass
class TraceRecorder:
    """Accumulates the dynamic trace of one run."""

    n_clusters: int
    indices: list[int] = field(default_factory=list)
    taken: list[bool] = field(default_factory=list)
    #: one per-cluster address row per instruction; -1 = no access. One
    #: memory port per cluster means at most one address per (instr,
    #: cluster).
    addrs: list[tuple[int, ...]] = field(default_factory=list)

    def record(self, idx: int, taken: bool, addr_row: tuple[int, ...]) -> None:
        self.indices.append(idx)
        self.taken.append(taken)
        self.addrs.append(addr_row)


class VM:
    """Interpreter state: per-cluster register files, branch regs, memory."""

    def __init__(
        self, program: Program, n_regs: int = 64, n_bregs: int = 8
    ) -> None:
        self.program = program
        self.n_regs = n_regs
        self.n_bregs = n_bregs
        self._translations: dict[bool, Translation] = {}
        self.reset()

    def reset(self) -> None:
        p = self.program
        self.regs = [[0] * self.n_regs for _ in range(p.n_clusters)]
        self.bregs = [0] * self.n_bregs
        self.mem = bytearray(p.data.size)
        for addr, word in p.data.words.items():
            self.mem[addr : addr + 4] = word.to_bytes(4, "little")
        self.pc = 0
        self.halted = False
        self.instr_count = 0
        self.op_count = 0

    # -- memory helpers (little-endian) -------------------------------------
    def range_error(self, kind: str, addr: int) -> VMError:
        """The error of a ``kind`` ("load"/"store") access out of range."""
        return VMError(
            f"{self.program.name}: {kind} out of range {addr:#x} "
            f"at pc instr {self.pc}"
        )

    def _check_access(self, kind: str, opcode: Opcode, addr: int) -> None:
        if addr < 0 or addr + MEM_WIDTH[opcode] > len(self.mem):
            raise self.range_error(kind, addr)

    def load(self, op: Operation, addr: int) -> int:
        oc = op.opcode
        if oc not in LOADS:
            raise VMError(f"bad load opcode {oc}")
        self._check_access("load", oc, addr)
        return _LOAD_FN[oc](self.mem, addr)

    def store(self, op: Operation, addr: int, value: int) -> None:
        oc = op.opcode
        if oc not in STORES:
            raise VMError(f"bad store opcode {oc}")
        self._check_access("store", oc, addr)
        _STORE_FN[oc](self.mem, addr, value)

    # -- ALU ----------------------------------------------------------------
    @staticmethod
    def alu(op: Operation, a: int, b: int) -> int:
        fn = _ALU_FN.get(op.opcode)
        if fn is None:
            raise VMError(f"unknown ALU opcode {op.opcode}")
        return fn(a, b)

    @staticmethod
    def compare(oc: Opcode, a: int, b: int) -> int:
        if oc not in COMPARES:
            raise VMError(f"unknown ALU opcode {oc}")
        return _ALU_FN[oc](a, b)

    # -- one VLIW instruction, atomically ------------------------------------
    def step(self, recorder: TraceRecorder | None = None) -> bool:
        """Execute the instruction at ``self.pc``; returns False if halted."""
        if self.halted:
            return False
        program = self.program
        ins = program[self.pc]
        regs = self.regs
        # phase 1: read everything, compute writes
        reg_writes: list[tuple[int, int, int]] = []  # (cluster, reg, value)
        breg_writes: list[tuple[int, int]] = []
        mem_writes: list[tuple[Operation, int, int]] = []
        xfer_vals: dict[int, int] = {}
        addr_row = [-1] * program.n_clusters
        taken = False
        next_pc = self.pc + 1

        for op in ins.ops:
            if op.opcode is Opcode.SEND:
                xfer_vals[op.xfer_id] = regs[op.cluster][op.srcs[0]]
        for op in ins.ops:
            oc = op.opcode
            c = op.cluster
            # every op that writes a register names one
            dst: int = op.dst  # type: ignore[assignment]
            if oc is Opcode.SEND or oc is Opcode.NOP:
                continue
            if oc is Opcode.RECV:
                reg_writes.append((c, dst, xfer_vals[op.xfer_id]))
                continue
            if op.is_mem:
                base = regs[c][op.srcs[-1]]
                addr = (base + op.imm) & MASK32
                addr_row[c] = addr
                if oc in STORES:
                    mem_writes.append((op, addr, regs[c][op.srcs[0]]))
                else:
                    reg_writes.append((c, dst, self.load(op, addr)))
                continue
            if oc is Opcode.CMPBR:
                a = regs[c][op.srcs[0]]
                b = op.imm if op.use_imm else regs[c][op.srcs[1]]
                breg_writes.append(
                    (dst, self.compare(Opcode(op.cmp_kind), a, b))
                )
                continue
            if oc is Opcode.BR:
                if self.bregs[op.imm]:
                    taken = True
                    next_pc = cast(int, op.target)
                continue
            if oc is Opcode.BRF:
                if not self.bregs[op.imm]:
                    taken = True
                    next_pc = cast(int, op.target)
                continue
            if oc is Opcode.GOTO:
                taken = True
                next_pc = cast(int, op.target)
                continue
            if oc is Opcode.HALT:
                self.halted = True
                continue
            # plain ALU/MUL; a MOV-immediate has no register sources
            a = regs[c][op.srcs[0]] if op.srcs else op.imm
            b = (
                op.imm
                if op.use_imm
                else (regs[c][op.srcs[1]] if len(op.srcs) > 1 else 0)
            )
            reg_writes.append((c, dst, self.alu(op, a, b)))

        # phase 2: commit
        for c, r, v in reg_writes:
            if r != 0:  # r0 hardwired to zero
                regs[c][r] = v & MASK32
        for breg, v in breg_writes:
            self.bregs[breg] = v
        for op, addr, v in mem_writes:
            self.store(op, addr, v)

        if recorder is not None:
            recorder.record(ins.index, taken, tuple(addr_row))
        self.instr_count += 1
        self.op_count += len(ins.ops)
        self.pc = next_pc
        if self.pc >= len(program) and not self.halted:
            raise VMError(f"{program.name}: fell off program end")
        return not self.halted

    # -- whole runs, on the block translation ---------------------------------
    def run(
        self,
        max_instructions: int = 10_000_000,
        recorder: TraceRecorder | None = None,
    ) -> int:
        """Run to HALT; returns executed instruction count.

        Executes the program's block translation
        (:meth:`repro.vm.translate.Translation.run`), with exactly the
        state, trace and errors of calling :meth:`step` in a loop."""
        record = recorder is not None
        tr = self._translations.get(record)
        if tr is None:
            # imported here: the translator is built from this module
            from .translate import Translation

            tr = self._translations[record] = Translation(
                self.program, self.n_regs, self.n_bregs, record
            )
        return tr.run(self, max_instructions, recorder)
