"""Block translation of a compiled program: the engine of :meth:`VM.run`.

The functional VM runs every kernel once per machine shape to record
the trace the timing model replays.  Interpreting it instruction by
instruction (:meth:`VM.step`) re-decodes every operation on every
execution.  Instead, as in Shade (Cmelik & Keppel, SIGMETRICS 1994), a
:class:`Translation` splits the program into basic blocks once — at
branch targets and after control operations — and emits each block as
one straight-line Python function.  Register-file indices, immediates,
the opcode expressions of :data:`~repro.vm.machine.ALU_EXPR` /
:data:`~repro.vm.machine.LOAD_EXPR` / :data:`~repro.vm.machine.STORE_STMT`
and the trace-recording calls all become literals; the function
returns the next pc.

Each instruction keeps the oracle's read-old-state semantics: every
result is computed into a local before any of them commits, and
commits run in :meth:`VM.step`'s order (registers, with r0 hardwired,
then branch registers, then stores).  The translation mutates the
VM's own register files, memory and counters, so callers see exactly
the state stepping leaves, down to the point an out-of-range access
raises.  Everything the translator does not model — an instruction
that stepping would reject, an entry pc inside a block, and every
block the instruction cap could fall inside — runs on
:meth:`VM.step`.
"""

from __future__ import annotations

import builtins
from collections.abc import Callable
from dataclasses import dataclass
from typing import cast

from ..isa.opcodes import BRANCHES, COMPARES, LOADS, STORES, Opcode
from ..isa.operation import Operation, VLIWInstruction
from ..isa.program import Program
from .machine import (
    ALU_EXPR,
    LOAD_EXPR,
    MEM_WIDTH,
    STORE_STMT,
    VM,
    TraceRecorder,
    VMError,
    alu_expr,
)

#: one translated block as the run loop unpacks it: (function, instructions,
#: operations, ends in HALT)
Entry = tuple[Callable[[], int], int, int, bool]

AddrRow = tuple[int, ...]


class Fault(Exception):
    """Raised by translated code on an out-of-range access.

    :meth:`Translation.run` turns it into stepping's :class:`VMError`
    after settling the VM on the faulting instruction."""

    def __init__(
        self, k: int, kind: str, addr: int, halted: bool,
        frame: dict[str, object] | None,
    ) -> None:
        super().__init__(kind, addr)
        self.k = k  # instructions of the block that completed
        self.kind = kind
        self.addr = addr
        self.halted = halted  # a HALT ran before the fault
        #: the block's locals when recording: the computed address row
        #: of its k-th instruction is ``r{k}``
        self.frame = frame


class _Unsupported(Exception):
    """An instruction the translator leaves to :meth:`VM.step`."""


@dataclass(frozen=True)
class _Block:
    start: int
    n: int
    halts: bool
    #: operations of the block's first k instructions (k = 0..n)
    prefix_ops: tuple[int, ...]
    #: per instruction, its constant address row, or None where the
    #: row is computed (the instruction accesses memory)
    rows: tuple[AddrRow | None, ...]


def _imm(value: int) -> str:
    return f"({value})" if value < 0 else str(value)


class Translation:
    """One program translated into block functions.

    ``record`` selects the variant that records the trace; the other
    leaves the recording out entirely."""

    def __init__(
        self, program: Program, n_regs: int, n_bregs: int, record: bool
    ) -> None:
        self.program = program
        self.n_regs = n_regs
        self.n_bregs = n_bregs
        self.record = record
        self._blocks: dict[int, _Block] = {}
        n_cl = program.n_clusters
        self._no_row: AddrRow = (-1,) * n_cl
        src = ["def bind(R, B, M, IX, TX, AX):"]
        src += [f"    R{c} = R[{c}]" for c in range(n_cl)]
        src += [
            f"    L{w} = len(M) - {w}" for w in sorted(set(MEM_WIDTH.values()))
        ]
        for start, end in self._block_bounds():
            try:
                body = self._block(start, end)
            except _Unsupported:
                continue
            src.append(f"    def b{start}():")
            src += ["        " + line for line in body]
        # taken flags of an n-instruction block: N<n> none, Y<n> the last
        for n in sorted({b.n for b in self._blocks.values()}):
            src.append(f"    N{n} = (False,) * {n}")
            src.append(f"    Y{n} = (False,) * {n - 1} + (True,)")
        names = ", ".join(f"b{start}" for start in self._blocks)
        src.append(f"    return ({names}{',' if self._blocks else ''})")
        ns: dict[str, object] = {"__builtins__": builtins, "Fault": Fault}
        exec(compile("\n".join(src) + "\n", f"<vm {program.name}>", "exec"), ns)
        self._bind = cast(
            "Callable[..., tuple[Callable[[], int], ...]]", ns["bind"]
        )

    # -- translation ----------------------------------------------------------
    def _block_bounds(self) -> list[tuple[int, int]]:
        """[start, end) of every basic block, in layout order."""
        n = len(self.program)
        leaders = {0}
        for i, ins in enumerate(self.program.instructions):
            for op in ins.ops:
                if op.opcode in BRANCHES:
                    leaders.add(i + 1)
                    if op.target is not None:
                        leaders.add(op.target)
        starts = sorted(i for i in leaders if 0 <= i < n)
        return list(zip(starts, starts[1:] + [n]))

    def _reg(self, op: Operation, r: int | None) -> str:
        if r is None or not 0 <= r < self.n_regs:
            raise _Unsupported
        return f"R{op.cluster}[{r}]"

    def _src(self, op: Operation, i: int) -> str:
        if not 0 <= i < len(op.srcs):
            raise _Unsupported
        return self._reg(op, op.srcs[i])

    def _breg(self, b: int | None) -> int:
        if b is None or not 0 <= b < self.n_bregs:
            raise _Unsupported
        return b

    def _block(self, start: int, end: int) -> list[str]:
        """Source lines of the function of block [start, end)."""
        body: list[str] = []
        rows: list[AddrRow | None] = []
        row_exprs: list[str] = []
        prefix_ops = [0]
        last: Operation | None = None
        for k, i in enumerate(range(start, end)):
            ins = self.program[i]
            lines, row, last = self._instruction(ins, k)
            body += lines
            if row is None:
                rows.append(self._no_row)
                row_exprs.append(repr(self._no_row))
            else:
                rows.append(None)
                row_exprs.append(f"r{k}")
                if self.record:
                    body.append(f"r{k} = {row}")
            prefix_ops.append(prefix_ops[-1] + len(ins.ops))

        n = end - start
        halts = last is not None and last.opcode is Opcode.HALT
        if last is None or halts:
            ret, taken_src = str(end), f"N{n}"
        elif last.opcode is Opcode.GOTO:
            ret, taken_src = str(last.target), f"Y{n}"
        else:
            cond = "c" if last.opcode is Opcode.BR else "not c"
            ret = f"{last.target} if {cond} else {end}"
            taken_src = f"Y{n} if {cond} else N{n}"
        if self.record:
            body.append(f"IX({tuple(range(start, end))!r})")
            body.append(f"TX({taken_src})")
            body.append(f"AX(({', '.join(row_exprs)},))")
        body.append(f"return {ret}")
        self._blocks[start] = _Block(
            start, n, halts, tuple(prefix_ops), tuple(rows)
        )
        return body

    def _instruction(
        self, ins: VLIWInstruction, k: int
    ) -> tuple[list[str], str | None, Operation | None]:
        """Lines of the ``k``-th instruction of a block, its address-row
        expression (None without memory operations) and its control
        operation."""
        compute: list[str] = []
        regs: list[str] = []
        bregs: list[str] = []
        stores: list[str] = []
        sends: dict[int, str] = {}
        for op in ins.ops:
            if op.opcode is Opcode.SEND:
                sends[op.xfer_id] = self._src(op, 0)
        addr: dict[int, str] = {}
        has_halt = any(op.opcode is Opcode.HALT for op in ins.ops)
        halted = False  # a HALT earlier in this instruction's op order
        control: Operation | None = None
        for j, op in enumerate(ins.ops):
            oc = op.opcode
            t = f"t{j}"
            if oc is Opcode.SEND or oc is Opcode.NOP:
                continue
            if oc is Opcode.RECV:
                if op.xfer_id not in sends:
                    raise _Unsupported
                dst = self._reg(op, op.dst)
                compute.append(f"{t} = {sends[op.xfer_id]}")
                if op.dst != 0:
                    regs.append(f"{dst} = {t} & 0xFFFFFFFF")
            elif oc in LOADS or oc in STORES:
                a = f"a{j}"
                base = self._src(op, len(op.srcs) - 1)
                offset = f" + {_imm(op.imm)}" if op.imm else ""
                compute.append(f"{a} = ({base}{offset}) & 0xFFFFFFFF")
                addr[op.cluster] = a
                kind = "load" if oc in LOADS else "store"
                fault_halted = halted if oc in LOADS else has_halt
                check = (
                    f"if {a} > L{MEM_WIDTH[oc]}: raise Fault({k}, "
                    f"{kind!r}, {a}, {fault_halted}, "
                    f"{'locals()' if self.record else 'None'})"
                )
                if oc in LOADS:
                    dst = self._reg(op, op.dst)
                    compute.append(check)
                    if op.dst != 0:
                        compute.append(
                            f"{t} = " + LOAD_EXPR[oc].format(m="M", x=a)
                        )
                        regs.append(f"{dst} = {t}")
                else:
                    v = f"v{j}"
                    compute.append(f"{v} = {self._src(op, 0)}")
                    stores.append(check)
                    stores.append(STORE_STMT[oc].format(m="M", x=a, v=v))
            elif oc is Opcode.CMPBR:
                if op.cmp_kind not in COMPARES:
                    raise _Unsupported
                b = _imm(op.imm) if op.use_imm else self._src(op, 1)
                expr = alu_expr(Opcode(op.cmp_kind), self._src(op, 0), b)
                compute.append(f"{t} = {expr}")
                bregs.append(f"B[{self._breg(op.dst)}] = {t}")
            elif oc is Opcode.BR or oc is Opcode.BRF or oc is Opcode.GOTO:
                if op.target is None:
                    raise _Unsupported
                if oc is not Opcode.GOTO:
                    compute.append(f"c = B[{self._breg(op.imm)}]")
                control = op
            elif oc is Opcode.HALT:
                halted = True
                control = op
            elif oc in ALU_EXPR:
                dst = self._reg(op, op.dst)
                a_src = self._src(op, 0) if op.srcs else _imm(op.imm)
                if op.use_imm:
                    b_src = _imm(op.imm)
                else:
                    b_src = self._src(op, 1) if len(op.srcs) > 1 else "0"
                if op.dst != 0:
                    compute.append(f"{t} = {alu_expr(oc, a_src, b_src)}")
                    regs.append(f"{dst} = {t}")
            else:
                raise _Unsupported
        row: str | None = None
        if addr:
            row = "(" + ", ".join(
                addr.get(c, "-1") for c in range(self.program.n_clusters)
            ) + ",)"
        return compute + regs + bregs + stores, row, control

    # -- execution ------------------------------------------------------------
    def _table(self, vm: VM, recorder: TraceRecorder | None) -> list[Entry | None]:
        """Per pc, the block function bound to ``vm``'s state (None
        where no translated block starts)."""
        sinks = (
            (recorder.indices.extend, recorder.taken.extend,
             recorder.addrs.extend)
            if recorder is not None else (None, None, None)
        )
        fns = self._bind(vm.regs, vm.bregs, vm.mem, *sinks)
        table: list[Entry | None] = [None] * len(self.program)
        for fn, b in zip(fns, self._blocks.values()):
            table[b.start] = (fn, b.n, b.prefix_ops[-1], b.halts)
        return table

    def run(
        self, vm: VM, max_instructions: int, recorder: TraceRecorder | None
    ) -> int:
        """:meth:`VM.run` on this translation (built with ``record``
        set exactly when ``recorder`` is given)."""
        if vm.halted:
            return vm.instr_count
        table = self._table(vm, recorder)
        end = len(self.program)
        pc, count, ops = vm.pc, vm.instr_count, vm.op_count
        while True:
            entry = table[pc]
            if entry is not None:
                fn, n, nops, halts = entry
                if count + n < max_instructions:
                    try:
                        pc = fn()
                    except Fault as fault:
                        raise self._settle(
                            vm, recorder, fault, pc, count, ops
                        ) from None
                    count += n
                    ops += nops
                    if halts or pc >= end:
                        vm.pc, vm.instr_count, vm.op_count = pc, count, ops
                        if halts:
                            vm.halted = True
                            return count
                        raise VMError(
                            f"{self.program.name}: fell off program end"
                        )
                    continue
            # no block starts here, or the cap may fall inside it
            vm.pc, vm.instr_count, vm.op_count = pc, count, ops
            if not vm.step(recorder):
                return vm.instr_count
            if vm.instr_count >= max_instructions:
                raise VMError(
                    f"{self.program.name}: exceeded {max_instructions} "
                    "instructions (infinite loop?)"
                )
            pc, count, ops = vm.pc, vm.instr_count, vm.op_count

    def _settle(
        self, vm: VM, recorder: TraceRecorder | None, fault: Fault,
        start: int, count: int, ops: int,
    ) -> VMError:
        """Leave ``vm`` (and the trace) where stepping stops on the
        fault, and return stepping's error."""
        block = self._blocks[start]
        k = fault.k
        vm.pc = start + k
        vm.instr_count = count + k
        vm.op_count = ops + block.prefix_ops[k]
        if fault.halted:
            vm.halted = True
        if recorder is not None and fault.frame is not None:
            frame = fault.frame
            recorder.indices.extend(range(start, start + k))
            recorder.taken.extend([False] * k)
            recorder.addrs.extend(
                cast(AddrRow, frame[f"r{j}"]) if row is None else row
                for j, row in enumerate(block.rows[:k])
            )
        return vm.range_error(fault.kind, fault.addr)
