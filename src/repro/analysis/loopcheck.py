"""Static verification of generated specialised run loops.

:func:`repro.pipeline.specialize.generate_loop_source` emits the
*source* of a monomorphic run loop per
:class:`~repro.pipeline.specialize.LoopShape` — the few facts that
change the loop's form — and ``exec()``s it; every cell of one shape
shares that loop, with its scenario numbers bound to locals at loop
entry.  This pass proves, **before** the source ever executes:

* **the right shape** (:func:`check_shape`) — the cell's shape is
  re-derived from its resolved spec by :func:`derive_shape`, apart
  from ``specialize.loop_shape``, and must match: a misclassified cell
  would silently run another shape's loop.
* **closed free-name set** — the generated function may reach data
  only through its own parameters (``proc`` and the two run knobs) and
  an approved builtin set (:data:`APPROVED_BUILTINS`); any other free
  name (a module global, a stray builtin, an injected identifier)
  is a finding.  Together with a module body that contains nothing but
  the one ``def``, this pins the loop to proc-reachable state plus
  shape literals.
* **provable exit edges** — every ``while`` with a constant-true test
  must contain a ``break``/``return``/``raise`` at its own nesting
  level (the generator never emits one today, so any ``while True``
  is itself suspect).
* **the literal alphabet** — every int literal is a number of the
  shape in the role it plays (thread indices of the priority rotation,
  in rotation order, and its selector; cluster indices and bits;
  pending-list slots) or 0/1.  A scenario number that leaks back in as
  a literal would be wrong for every other cell of the shape.
* **cluster pairing** — sibling unrolled ``if <mask> & <bit>:`` arms
  test each cluster once, in order, and every cluster subscript,
  ``|=`` and mask test inside an arm names the arm's own cluster.
* **number bindings** — each scenario-number local is bound once, from
  the state ``_run_reference`` reads (:data:`NUMBER_BINDINGS`).

:func:`check_source` verifies one shape's source; :func:`check_matrix`
checks the shape of every cell of the full ``MACHINE_PRESETS`` ×
``MEMORY_PRESETS`` × policy × nt × multitasking matrix and verifies
each distinct shape's source once.
``specialize.get_specialized_loop`` runs :func:`check_shape` and
:func:`check_source` before ``exec()`` on every fresh generation; under
``REPRO_SPECIALIZE_STRICT=1`` a finding raises
:class:`LoopVerificationError`, otherwise the cell is memoised as
rejected and falls back to ``_run_reference``.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter, defaultdict
from typing import Collection, Iterator, Sequence, TypeVar, cast

from .base import Finding
from ..arch.config import MEMORY_PRESETS, MachineConfig
from ..arch.scenarios import MACHINE_PRESETS, get_scenario
from ..core.policies import ALL_POLICIES, Policy
from ..core.priority import make_priority
from ..pipeline import specialize
from ..pipeline.processor import SimParams
from ..pipeline.specialize import LoopShape

#: builtins the generated loop may call (everything else it needs is
#: bound from ``proc`` attributes in its own setup block)
APPROVED_BUILTINS = frozenset({"bool", "list"})

#: the generated function's exact parameter list
EXPECTED_PARAMS = ("proc", "max_cycles", "stop_on_target")

ORIGIN = "loopcheck"


class LoopVerificationError(Exception):
    """A generated run loop failed static verification."""

    def __init__(self, findings: Sequence[Finding]):
        self.findings = list(findings)
        rules = sorted({f.rule for f in self.findings})
        super().__init__(
            f"generated loop failed verification ({', '.join(rules)}): "
            + "; ".join(f.message for f in self.findings[:3])
        )


def _find(
    rule: str, message: str, label: str, line: int = 0
) -> Finding:
    return Finding(rule, message, label, line, origin=ORIGIN)


# ------------------------------------------------------------ node index
_Index = dict[type[ast.AST], list[ast.AST]]

_N = TypeVar("_N", bound=ast.AST)


def _index(fn: ast.FunctionDef) -> _Index:
    """Every node of ``fn`` (itself included), grouped by node type.

    Each check below reads only the node types it inspects from this
    one index: the walk, not the checks, dominates verification time,
    and the generated loops run to several hundred lines."""
    index: _Index = defaultdict(list)
    todo: list[ast.AST] = [fn]
    pop, push, extend = todo.pop, todo.append, todo.extend
    node_type = ast.AST
    while todo:
        node = pop()
        index[type(node)].append(node)
        for field in node._fields:
            value = getattr(node, field, None)
            if type(value) is list:
                extend(v for v in value if isinstance(v, node_type))
            elif isinstance(value, node_type):
                push(value)
    return index


def _of(index: _Index, kind: type[_N]) -> list[_N]:
    """The indexed nodes of one type."""
    return cast("list[_N]", index.get(kind, []))


# ------------------------------------------------------------ free names
def _bound_names(fn: ast.FunctionDef, index: _Index) -> set[str]:
    """Every name the function binds: parameters plus all Store/Del
    contexts (assignments, loop targets, walrus, comprehensions,
    ``with``/``except`` aliases, nested defs/imports).

    ``AugAssign`` targets do NOT count: ``x += 1`` requires a prior
    binding (else ``UnboundLocalError``), so a name whose only
    "binding" is augmented is free for our purposes."""
    bound = {a.arg for a in fn.args.args}
    bound.update(a.arg for a in fn.args.posonlyargs)
    bound.update(a.arg for a in fn.args.kwonlyargs)
    if fn.args.vararg:
        bound.add(fn.args.vararg.arg)
    if fn.args.kwarg:
        bound.add(fn.args.kwarg.arg)
    stores: Counter[str] = Counter(
        n.id
        for n in _of(index, ast.Name)
        if isinstance(n.ctx, (ast.Store, ast.Del))
    )
    augs: Counter[str] = Counter(
        n.target.id
        for n in _of(index, ast.AugAssign)
        if isinstance(n.target, ast.Name)
    )
    defs: list[ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef] = [
        *_of(index, ast.FunctionDef),
        *_of(index, ast.AsyncFunctionDef),
        *_of(index, ast.ClassDef),
    ]
    bound.update(d.name for d in defs if d is not fn)
    bound.update(
        (a.asname or a.name).split(".")[0] for a in _of(index, ast.alias)
    )
    for handler in _of(index, ast.ExceptHandler):
        if handler.name:
            bound.add(handler.name)
    # a store that is only ever an AugAssign target never binds
    bound.update(n for n, c in stores.items() if c > augs.get(n, 0))
    return bound


def _free_loads(fn: ast.FunctionDef, index: _Index) -> dict[str, int]:
    """Free (unbound) name reads of the function: ``name -> first
    line``.  An ``AugAssign`` target counts as a read — ``x += 1``
    loads ``x`` even though the AST gives the target Store context."""
    bound = _bound_names(fn, index)
    reads = [
        (n.id, n.lineno)
        for n in _of(index, ast.Name)
        if isinstance(n.ctx, ast.Load)
    ]
    reads += [
        (a.target.id, a.target.lineno)
        for a in _of(index, ast.AugAssign)
        if isinstance(a.target, ast.Name)
    ]
    free: dict[str, int] = {}
    for name, line in reads:
        if name not in bound and line < free.get(name, line + 1):
            free[name] = line
    return free


# ----------------------------------------------------------------- shapes
def derive_shape(
    policy: Policy,
    cfg: MachineConfig,
    params: SimParams,
    n_threads: int,
    n_benches: int,
) -> LoopShape:
    """Re-derive one cell's loop shape from its resolved spec, apart
    from :func:`specialize.loop_shape`: the memory class is read off
    the raw ``MemoryConfig`` fields, not ``is_flat``."""
    mem = cfg.memory
    perfect = bool(params.perfect_memory)
    below_l1 = mem.l2 is not None or mem.dram is not None
    blocking = below_l1 or mem.prefetch != "none" or mem.writeback_penalty
    memory = (
        "perfect" if perfect
        else "mshr" if mem.mshr
        else "blocking" if blocking
        else "flat"
    )
    return LoopShape(
        merge=policy.merge,
        split=policy.split,
        comm_split=policy.comm_split,
        n_clusters=cfg.n_clusters,
        n_threads=n_threads,
        priority=params.priority,
        multi=n_benches > 1 and params.timeslice > 0,
        memory=memory,
        prefetch=not perfect and mem.prefetch != "none",
        taken_penalty=bool(cfg.taken_branch_penalty),
    )


def check_shape(
    shape: LoopShape,
    policy: Policy,
    cfg: MachineConfig,
    params: SimParams,
    n_threads: int,
    n_benches: int,
    label: str = "<generated>",
) -> list[Finding]:
    """A cell's loop shape must equal the one :func:`derive_shape`
    re-derives from its spec: the loop is generated from the shape
    alone, so a misclassified cell would run another shape's loop."""
    want = derive_shape(policy, cfg, params, n_threads, n_benches)
    diff = [
        f"{f.name}={getattr(shape, f.name)!r} "
        f"(spec: {getattr(want, f.name)!r})"
        for f in dataclasses.fields(want)
        if getattr(shape, f.name) != getattr(want, f.name)
    ]
    if not diff:
        return []
    return [
        _find(
            "loopcheck-shape",
            "loop shape disagrees with the one re-derived from the "
            "cell's spec: " + ", ".join(diff),
            label,
        )
    ]


# --------------------------------------------------------------- literals
#: names whose unrolled ``if <name> & <bit>:`` arms test one cluster each
CLUSTER_MASKS = frozenset({"mem", "store_mask", "avail", "pm"})

#: sequences indexed by a constant cluster number inside those arms
CLUSTER_ROWS = frozenset({"row", "b_nops", "b_packed"})

#: slots of the flattened pending-instruction list
PEND_SLOTS = range(5)

#: every scenario-number local and the expression that must bind it:
#: the state ``_run_reference`` reads for the same number
NUMBER_BINDINGS = {
    "mem_sys": "proc.mem",
    "l1i": "mem_sys.l1i",
    "l1d": "mem_sys.l1d",
    "target": "proc._target",
    "iline_shift": "proc.iline_shift",
    "limit": "max_cycles if max_cycles is not None "
    "else proc.params.max_cycles",
    "capacity": "proc.engine.capacity",
    "guards": "proc.engine.guards",
    "taken_delay": "1 + proc.cfg.taken_branch_penalty",
    "timeslice": "proc.params.timeslice",
    "i_miss_penalty": "proc.cfg.icache.miss_penalty",
    "d_miss_penalty": "proc.cfg.dcache.miss_penalty",
    "i_set_mask": "l1i.set_mask",
    "d_set_mask": "l1d.set_mask",
    "d_line_shift": "l1d.line_shift",
}


def _int_const(node: ast.AST) -> int | None:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return int(node.value)
    return None


def _name(node: ast.AST) -> str | None:
    return node.id if isinstance(node, ast.Name) else None


def _at(node: ast.expr) -> tuple[int, int]:
    """Source position of a node: the key of a literal's role."""
    return node.lineno, node.col_offset


def _arm_test(test: ast.expr) -> tuple[str, int] | None:
    """``(mask, bit)`` of an unrolled arm's ``<mask> & <bit>`` test."""
    if not (isinstance(test, ast.BinOp) and isinstance(test.op, ast.BitAnd)):
        return None
    mask, bit = _name(test.left), _int_const(test.right)
    if mask is None or mask not in CLUSTER_MASKS or bit is None:
        return None
    return mask, bit


def _arms(index: _Index) -> Iterator[tuple[str, list[int], list[ast.If]]]:
    """``(mask, bits, arms)`` per group of sibling unrolled
    ``if <mask> & <bit>:`` arms (one statement list, one mask name)."""
    blocks: list[ast.FunctionDef | ast.For | ast.While | ast.If] = [
        *_of(index, ast.FunctionDef),
        *_of(index, ast.For),
        *_of(index, ast.While),
        *_of(index, ast.If),
    ]
    for block in blocks:
        for stmts in (block.body, getattr(block, "orelse", [])):
            groups: dict[str, tuple[list[int], list[ast.If]]] = {}
            for stmt in stmts:
                if not isinstance(stmt, ast.If):
                    continue
                arm = _arm_test(stmt.test)
                if arm is not None:
                    bits, arms = groups.setdefault(arm[0], ([], []))
                    bits.append(arm[1])
                    arms.append(stmt)
            for mask, (bits, arms) in groups.items():
                yield mask, bits, arms


def _check_alphabet(
    index: _Index, shape: LoopShape, label: str
) -> list[Finding]:
    """The literal alphabet and the cluster pairing.

    Every int literal is a number of the loop's shape in the role it
    plays — a thread index of the priority rotation (in rotation
    order), its selector, a cluster index or bit, a pending-list slot
    — or else 0 or 1.  Scenario numbers are bound locals, so any other
    literal leaked into a loop that every cell of the shape shares.

    Sibling unrolled ``if <mask> & <bit>:`` arms test every cluster
    once, in ascending order, and every cluster subscript, ``|=`` and
    mask test inside an arm names the arm's own cluster.  The generator
    emits one statement per line, so an arm's body is a line span."""
    clusters = range(shape.n_clusters)
    bits = frozenset(1 << c for c in clusters)
    orders = make_priority(shape.priority, shape.n_threads).orders
    n = len(orders)
    #: literal position -> (role, the shape's numbers for that role)
    roles: dict[tuple[int, int], tuple[str, Collection[int]]] = {}
    threads: list[tuple[int, int, int]] = []
    #: (line, is an index, cluster index or bit, what) of every
    #: cluster literal
    sites: list[tuple[int, bool, int, str]] = []
    for sub in _of(index, ast.Subscript):
        k = _int_const(sub.slice)
        name = _name(sub.value)
        if k is None:
            continue
        if name == "threads":
            roles[_at(sub.slice)] = ("thread index", range(shape.n_threads))
            threads.append((sub.lineno, sub.col_offset, k))
        elif name in CLUSTER_ROWS:
            roles[_at(sub.slice)] = ("cluster index", clusters)
            sites.append((sub.lineno, True, k, f"{name}[{k}]"))
        elif name == "pend":
            roles[_at(sub.slice)] = ("pending-list slot", PEND_SLOTS)
    for op in _of(index, ast.BinOp):
        k = _int_const(op.right)
        name = _name(op.left)
        if k is None:
            continue
        if name == "cycle" and isinstance(op.op, ast.Mod):
            roles[_at(op.right)] = ("priority selector", (n,))
        elif name == "cycle" and isinstance(op.op, ast.BitAnd):
            sel = (n - 1,) if n & (n - 1) == 0 else ()
            roles[_at(op.right)] = ("priority selector", sel)
        elif name in CLUSTER_MASKS and isinstance(op.op, ast.BitAnd):
            roles[_at(op.right)] = ("cluster bit", bits)
            sites.append((op.lineno, False, k, f"{name} & {k}"))
    for aug in _of(index, ast.AugAssign):
        k = _int_const(aug.value)
        name = _name(aug.target)
        if k is not None and name in CLUSTER_MASKS and isinstance(
            aug.op, ast.BitOr
        ):
            roles[_at(aug.value)] = ("cluster bit", bits)
            sites.append((aug.lineno, False, k, f"{name} |= {k}"))

    findings = []
    for const in _of(index, ast.Constant):
        value = _int_const(const)
        if value is None:
            continue
        role, allowed = roles.get(_at(const), ("plain", (0, 1)))
        if value not in allowed:
            findings.append(
                _find(
                    "loopcheck-literal",
                    f"{role} int literal {value} is outside the loop's "
                    f"shape (allowed here: {sorted(allowed)}); a "
                    "scenario number must be a bound local",
                    label,
                    const.lineno,
                )
            )
    got = tuple(k for _, _, k in sorted(threads))
    want = tuple(t for order in orders for t in order)
    if got != want:
        findings.append(
            _find(
                "loopcheck-literal",
                f"priority rotation indexes threads {got!r}, not "
                f"make_priority(...).orders flattened {want!r}",
                label,
            )
        )

    arm_of_line: dict[int, int] = {}
    want_bits = [1 << c for c in clusters]
    for mask, arm_bits, arms in _arms(index):
        if arm_bits != want_bits:
            findings.append(
                _find(
                    "loopcheck-literal",
                    f"unrolled `{mask} & <bit>` arms test {arm_bits}, "
                    f"not each cluster bit once in order {want_bits}",
                    label,
                    arms[0].lineno,
                )
            )
        for bit, arm in zip(arm_bits, arms):
            last = arm.body[-1]
            end = last.end_lineno or last.lineno
            for line in range(arm.body[0].lineno, end + 1):
                arm_of_line[line] = bit
    for line, is_index, value, what in sites:
        arm_bit = arm_of_line.get(line)
        if arm_bit is None:
            continue
        if value != (arm_bit.bit_length() - 1 if is_index else arm_bit):
            findings.append(
                _find(
                    "loopcheck-literal",
                    f"{what} inside the unrolled arm of cluster bit "
                    f"{arm_bit} names another cluster",
                    label,
                    line,
                )
            )
    return findings


def _check_bindings(index: _Index, label: str) -> list[Finding]:
    """Each scenario-number local is bound once, from the state
    ``_run_reference`` reads (:data:`NUMBER_BINDINGS`)."""
    #: (target, bound expression, line) of every assignment
    binds: list[tuple[ast.expr, ast.AST, int]] = []
    for assign in _of(index, ast.Assign):
        for target in assign.targets:
            if isinstance(target, (ast.Tuple, ast.List)):
                binds += [(e, assign, assign.lineno) for e in target.elts]
            else:
                binds.append((target, assign.value, assign.lineno))
    binds += [(a.target, a, a.lineno) for a in _of(index, ast.AugAssign)]
    findings = []
    bound: set[str] = set()
    for target, value, line in binds:
        name = _name(target)
        if name is None or name not in NUMBER_BINDINGS:
            continue
        got = ast.unparse(value)
        if got != NUMBER_BINDINGS[name] or name in bound:
            findings.append(
                _find(
                    "loopcheck-binding",
                    f"{name} is bound by {got!r}; a scenario number is "
                    f"bound once, from {NUMBER_BINDINGS[name]!r}",
                    label,
                    line,
                )
            )
        bound.add(name)
    return findings


# ---------------------------------------------------------- loop bounds
def _has_own_level_exit(loop: ast.While) -> bool:
    """Is there a break/return/raise belonging to *this* loop?"""
    todo: list[ast.stmt] = list(loop.body)
    while todo:
        stmt = todo.pop()
        if isinstance(stmt, (ast.Break, ast.Return, ast.Raise)):
            return True
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            continue  # a break in there exits the inner loop only
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                todo.append(child)
    return False


def _check_loops(index: _Index, label: str) -> list[Finding]:
    findings = []
    for node in _of(index, ast.While):
        test = node.test
        if isinstance(test, ast.Constant) and test.value:
            if not _has_own_level_exit(node):
                findings.append(
                    _find(
                        "loopcheck-unbounded",
                        "while with a constant-true test and no "
                        "break/return/raise at its own level "
                        "can never terminate",
                        label,
                        node.lineno,
                    )
                )
    return findings


# ------------------------------------------------------------ entry points
def check_source(
    shape: LoopShape,
    source: str,
    label: str = "<generated>",
) -> list[Finding]:
    """Statically verify one generated loop source against the shape
    it was generated from.  Returns findings (empty = verified)."""
    try:
        tree = ast.parse(source, filename=label)
    except SyntaxError as e:
        return [
            _find(
                "loopcheck-structure",
                f"generated source does not parse: {e.msg}",
                label,
                e.lineno or 0,
            )
        ]
    fns = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    extra = [n for n in tree.body if not isinstance(n, ast.FunctionDef)]
    findings: list[Finding] = []
    if extra:
        findings.append(
            _find(
                "loopcheck-structure",
                "generated module contains statements other than the "
                "loop definition (module-level code would run at "
                "exec() time)",
                label,
                extra[0].lineno,
            )
        )
    if len(fns) != 1 or fns[0].name != specialize.LOOP_NAME:
        findings.append(
            _find(
                "loopcheck-structure",
                f"expected exactly one def {specialize.LOOP_NAME!r}, "
                f"found {[f.name for f in fns]!r}",
                label,
            )
        )
        return findings
    fn = fns[0]
    got_params = tuple(a.arg for a in fn.args.args)
    if got_params != EXPECTED_PARAMS:
        findings.append(
            _find(
                "loopcheck-structure",
                f"loop parameters {got_params!r} != {EXPECTED_PARAMS!r}",
                label,
                fn.lineno,
            )
        )

    index = _index(fn)
    for name, line in sorted(_free_loads(fn, index).items()):
        if name not in APPROVED_BUILTINS:
            findings.append(
                _find(
                    "loopcheck-free-name",
                    f"free name {name!r}: the generated loop may only "
                    "reach proc-reachable state, shape literals and "
                    f"the approved builtins {sorted(APPROVED_BUILTINS)}",
                    label,
                    line,
                )
            )

    findings.extend(_check_loops(index, label))
    findings.extend(_check_alphabet(index, shape, label))
    findings.extend(_check_bindings(index, label))
    return findings


def _cell_params(scale: object, spec_timeslice: int) -> SimParams:
    return SimParams(
        target_instructions=getattr(scale, "target_instructions"),
        timeslice=spec_timeslice,
        max_cycles=getattr(scale, "max_cycles"),
        seed=getattr(scale, "seed"),
    )


def iter_matrix(
    threads: Sequence[int] = (1, 2, 4),
    benches: Sequence[int] = (1, 4),
    scale: object | None = None,
) -> Iterator[tuple[Policy, MachineConfig, SimParams, int, int, str]]:
    """Every (policy, cfg, params, nt, nb, label) cell of the full
    machine × memory × policy × nt × multitasking matrix, using the
    default experiment scale unless given one."""
    if scale is None:
        from ..engine.session import DEFAULT_SCALE

        scale = DEFAULT_SCALE
    base_ts = int(getattr(scale, "timeslice"))
    for mach in sorted(MACHINE_PRESETS):
        for mem in sorted(MEMORY_PRESETS):
            spec = get_scenario(f"{mach}+{mem}")
            cfg = spec.machine
            params = _cell_params(scale, spec.timeslice(base_ts))
            for policy in ALL_POLICIES:
                for nt in threads:
                    for nb in benches:
                        label = (
                            f"<{policy.name}/{mach}+{mem}"
                            f"/nt{nt}/nb{nb}>"
                        )
                        yield policy, cfg, params, nt, nb, label


@dataclasses.dataclass
class MatrixReport:
    """Result of a full-matrix loopcheck sweep."""

    findings: list[Finding]
    cells: int
    unique_loops: int

    @property
    def clean(self) -> bool:
        return not self.findings


def check_matrix(
    threads: Sequence[int] = (1, 2, 4),
    benches: Sequence[int] = (1, 4),
    scale: object | None = None,
) -> MatrixReport:
    """Check every cell of the preset matrix: its shape against the one
    re-derived from its spec, then each distinct shape's generated loop
    once.  The generator's only input is the shape, so cells of one
    shape share one source."""
    findings: list[Finding] = []
    seen: set[LoopShape] = set()
    cells = 0
    for policy, cfg, params, nt, nb, label in iter_matrix(
        threads, benches, scale
    ):
        cells += 1
        shape = specialize.loop_shape(policy, cfg, params, nt, nb)
        findings.extend(
            check_shape(shape, policy, cfg, params, nt, nb, label)
        )
        if shape in seen:
            continue
        seen.add(shape)
        source = specialize.generate_loop_source(shape)
        findings.extend(check_source(shape, source, label))
    return MatrixReport(findings, cells, len(seen))
