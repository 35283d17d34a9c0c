"""Differential fuzzing of the whole compiler.

Random straight-line-with-loops IR programs are executed two ways:

1. a *reference interpreter* that walks the IR sequentially (no
   scheduling, no clusters, no register allocation);
2. the full pipeline — BUG cluster assignment, ICC insertion, register
   allocation, latency-aware list scheduling — then the VLIW VM.

Any disagreement is a compiler bug (lost WAR/WAW edge, bad ICC value,
misallocated register, broken latency padding...).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler.builder import KernelBuilder, Value
from repro.compiler.pipeline import compile_kernel
from repro.vm import VM
from repro.vm.machine import MASK32, _s32


class Reference:
    """Sequential oracle mirroring the builder calls."""

    def __init__(self):
        self.vals: dict[int, int] = {}

    def set(self, v: Value, x: int):
        self.vals[v.vreg] = x & MASK32

    def get(self, v: Value) -> int:
        return self.vals[v.vreg]


BINOPS = [
    ("add", lambda a, b: a + b),
    ("sub", lambda a, b: a - b),
    ("and_", lambda a, b: a & b),
    ("or_", lambda a, b: a | b),
    ("xor", lambda a, b: a ^ b),
    ("mpy", lambda a, b: _s32(a) * _s32(b)),
    ("min_", lambda a, b: min(_s32(a), _s32(b))),
    ("max_", lambda a, b: max(_s32(a), _s32(b))),
    ("shl", lambda a, b: a << (b & 31)),
    ("shr", lambda a, b: (a & MASK32) >> (b & 31)),
]


@st.composite
def program_spec(draw):
    """A list of (op_name, lhs_index, rhs_index_or_imm, use_imm)."""
    n_init = draw(st.integers(2, 5))
    inits = [draw(st.integers(0, 0xFFFF)) for _ in range(n_init)]
    n_ops = draw(st.integers(3, 25))
    ops = []
    for k in range(n_ops):
        name = draw(st.sampled_from([b[0] for b in BINOPS]))
        lhs = draw(st.integers(0, n_init + k - 1))
        use_imm = draw(st.booleans())
        rhs = (
            draw(st.integers(0, 31))
            if use_imm
            else draw(st.integers(0, n_init + k - 1))
        )
        ops.append((name, lhs, rhs, use_imm))
    n_loop = draw(st.integers(1, 6))
    return inits, ops, n_loop


def fuzz_kernel(spec) -> tuple[KernelBuilder, list[int], int, list[str]]:
    """The kernel of a :func:`program_spec` draw: its builder, the
    sequential reference's expected output words, the output array's
    address, and a label per word."""
    inits, op_list, n_loop = spec
    fn_map = dict(BINOPS)

    b = KernelBuilder("fuzz")
    ref = Reference()
    values: list[Value] = []
    for x in inits:
        v = b.const(x)
        ref.set(v, x)
        values.append(v)

    # straight-line body (executed once; data flow is what we fuzz)
    for name, lhs, rhs, use_imm in op_list:
        a = values[lhs]
        bb = rhs if use_imm else values[rhs]
        v = getattr(b, name)(a, bb)
        a_val = ref.get(a)
        b_val = rhs if use_imm else ref.get(values[rhs])
        ref.set(v, fn_map[name](a_val, b_val))
        values.append(v)

    # a loop accumulating the last value (exercises loop-carried regs,
    # latency padding across the back edge, branch scheduling)
    acc = b.const(0)
    acc_ref = 0
    last = values[-1]
    with b.counted_loop(n_loop) as i:
        b.inc(acc, b.add(last, i))
    for i in range(n_loop):
        acc_ref = (acc_ref + ((ref.get(last) + i) & MASK32)) & MASK32

    out = b.alloc_words(len(values) + 1, "out")
    outv = b.addr(out)
    for k, v in enumerate(values):
        b.stw(v, outv, 4 * k, region="out")
    b.stw(acc, outv, 4 * len(values), region="out")

    labels = [
        f"value {k} ({op_list[max(0, k - len(inits))]})"
        for k in range(len(values))
    ] + ["accumulator"]
    return b, [ref.get(v) for v in values] + [acc_ref], out, labels


@given(program_spec())
@settings(max_examples=50, deadline=None)
def test_compiled_equals_reference(spec):
    b, expected, out, labels = fuzz_kernel(spec)
    program = compile_kernel(b).program
    vm = VM(program)
    vm.run(max_instructions=100_000)

    for k, want in enumerate(expected):
        got = int.from_bytes(vm.mem[out + 4 * k: out + 4 * k + 4],
                             "little")
        assert got == want, f"{labels[k]} mismatch"
