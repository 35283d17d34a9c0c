"""Executable VLIW program container.

A :class:`Program` is the final artifact of the compiler: a linear list
of :class:`~repro.isa.operation.VLIWInstruction` with resolved branch
targets, a data-segment initializer, and metadata used by the trace
builder.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass, field, fields
from itertools import chain

from .operation import Operation, VLIWInstruction
from .opcodes import Opcode

#: Operation fields in declaration order: every one of them enters
#: :meth:`Program.fingerprint`, so a field added to ``Operation``
#: reaches the fingerprint without touching this module.
_OP_FIELDS = tuple(f.name for f in fields(Operation))


@dataclass
class DataSegment:
    """Initial memory image of a program.

    ``words`` maps a word-aligned byte address to its initial 32-bit
    value.  The VM materialises this into a flat memory on reset so that
    respawned runs are deterministic.
    """

    words: dict[int, int] = field(default_factory=dict)
    size: int = 1 << 20  # 1 MiB default address space

    def set_word(self, addr: int, value: int) -> None:
        if addr % 4:
            raise ValueError(f"unaligned data word at {addr:#x}")
        if not 0 <= addr < self.size:
            raise ValueError(f"data address {addr:#x} out of segment")
        self.words[addr] = value & 0xFFFFFFFF

    def set_bytes(self, addr: int, data: bytes) -> None:
        """Store raw bytes (little-endian packing into words)."""
        for i, b in enumerate(data):
            a = addr + i
            w = a & ~3
            cur = self.words.get(w, 0)
            shift = (a & 3) * 8
            cur = (cur & ~(0xFF << shift)) | (b & 0xFF) << shift
            self.words[w] = cur


class Program:
    """A compiled VLIW program.

    Parameters
    ----------
    instructions:
        Scheduled instructions in layout order.  Branch targets inside
        operations are *instruction indices* into this list.
    n_clusters:
        Cluster count of the target machine.
    data:
        Initial data segment.
    name:
        Human-readable identifier (benchmark name).
    """

    def __init__(
        self,
        instructions: list[VLIWInstruction],
        n_clusters: int,
        data: DataSegment | None = None,
        name: str = "<anon>",
    ):
        self.instructions = instructions
        self.n_clusters = n_clusters
        self.data = data or DataSegment()
        self.name = name
        self._fingerprint: str | None = None
        self._assign_pcs()
        self._validate()

    def _assign_pcs(self) -> None:
        pc = 0
        for i, ins in enumerate(self.instructions):
            ins.pc = pc
            ins.index = i
            pc += ins.size_bytes
        self.code_bytes = pc

    def _validate(self) -> None:
        n = len(self.instructions)
        for ins in self.instructions:
            seen_branch = False
            sends: dict[int, Operation] = {}
            recvs: dict[int, Operation] = {}
            for op in ins.ops:
                if op.cluster >= self.n_clusters or op.cluster < 0:
                    raise ValueError(
                        f"{self.name}: op {op} uses cluster {op.cluster} "
                        f"on a {self.n_clusters}-cluster machine"
                    )
                if op.is_branch:
                    if seen_branch:
                        raise ValueError(
                            f"{self.name}: two branches in one instruction"
                        )
                    seen_branch = True
                    if op.cluster != 0:
                        raise ValueError(
                            f"{self.name}: branch outside cluster 0"
                        )
                    if op.opcode != Opcode.HALT and not (
                        op.target is not None and 0 <= op.target < n
                    ):
                        raise ValueError(
                            f"{self.name}: unresolved branch target {op}"
                        )
                if op.opcode is Opcode.SEND:
                    sends[op.xfer_id] = op
                elif op.opcode is Opcode.RECV:
                    recvs[op.xfer_id] = op
            # VEX semantics: send and recv are scheduled pairwise in the
            # same instruction (paper §V-E).
            if set(sends) != set(recvs):
                raise ValueError(
                    f"{self.name}: unpaired send/recv in instruction "
                    f"{ins.index}"
                )
            for xid, s in sends.items():
                if s.cluster == recvs[xid].cluster:
                    raise ValueError(
                        f"{self.name}: send/recv pair {xid} within one "
                        "cluster"
                    )

    def fingerprint(self) -> str:
        """SHA-256 over the program's canonical content: the cluster
        count, every operation's fields in layout order (resolved
        branch targets included, instruction boundaries marked), the
        data segment's size and sorted words, and the name.

        The functional VM is a deterministic function of this content,
        so the engine's result store keys cells on it instead of on the
        recorded trace (``docs/engine.md``).  Memoised: a program is
        not mutated after construction."""
        if self._fingerprint is None:
            h = hashlib.sha256()
            # the header fixes every length, so the stream parses one way
            h.update(repr((
                self.name, self.n_clusters, len(self.instructions),
                self.data.size, len(self.data.words),
            )).encode())
            for ins in self.instructions:
                h.update(repr(tuple(
                    tuple(
                        v.name if isinstance(v, Opcode) else v
                        for v in (getattr(op, f) for f in _OP_FIELDS)
                    )
                    for op in ins.ops
                )).encode())
            words = array(
                "q", chain.from_iterable(sorted(self.data.words.items()))
            )
            if sys.byteorder != "little":  # one canonical byte order
                words.byteswap()
            h.update(words.tobytes())
            self._fingerprint = h.hexdigest()
        return self._fingerprint

    def __len__(self) -> int:
        return len(self.instructions)

    def __getitem__(self, i: int) -> VLIWInstruction:
        return self.instructions[i]

    def __iter__(self):
        return iter(self.instructions)

    # -- statistics ---------------------------------------------------------
    def static_stats(self) -> dict[str, float]:
        """Static schedule statistics (ops/instruction, ICC rate...)."""
        n_ops = sum(len(ins) for ins in self.instructions)
        n_icc = sum(1 for ins in self.instructions if ins.has_icc())
        n_mem = sum(
            1 for ins in self.instructions for op in ins.ops if op.is_mem
        )
        return {
            "instructions": float(len(self.instructions)),
            "operations": float(n_ops),
            "ops_per_instr": n_ops / max(1, len(self.instructions)),
            "icc_instr_frac": n_icc / max(1, len(self.instructions)),
            "mem_ops": float(n_mem),
        }
