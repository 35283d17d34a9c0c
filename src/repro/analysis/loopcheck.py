"""Static verification of generated specialised run loops.

:func:`repro.pipeline.specialize.generate_loop_source` emits the
*source* of a monomorphic run loop per resolved (policy, machine,
memory, nt) cell and ``exec()``s it.  This pass proves three
properties of that source **before** it ever executes:

* **closed free-name set** — the generated function may reach data
  only through its own parameters (``proc`` and the two run knobs) and
  an approved builtin set (:data:`APPROVED_BUILTINS`); any other free
  name (a module global, a stray builtin, an injected identifier)
  is a finding.  Together with a module body that contains nothing but
  the one ``def``, this pins the loop to proc-reachable state plus
  inlined literals.
* **provable exit edges** — every ``while`` with a constant-true test
  must contain a ``break``/``return``/``raise`` at its own nesting
  level (the generator never emits one today, so any ``while True``
  is itself suspect).
* **literal/spec consistency** — every constant the generator inlines
  (packed issue capacity, SWAR guard mask, cluster bit masks,
  icache-line shift, the inline L1 probes' set masks and dcache-line
  shift, miss/branch penalties, timeslice, instruction target, cycle
  limit, priority rotations) is re-derived here
  *independently from the resolved spec* — ``capacity_packed`` /
  ``guards_mask`` / ``make_priority`` / the ``MachineConfig`` fields —
  and matched against the AST.  A generator bug that bakes in a stale
  or mismatched constant is rejected, not executed.

:func:`check_source` verifies one cell's source;
:func:`check_matrix` sweeps the full ``MACHINE_PRESETS`` ×
``MEMORY_PRESETS`` × policy × nt × multitasking matrix, deduped by
:func:`~repro.pipeline.specialize.loop_key` (sound because the key
contains everything the source inlines — its documented contract).
``specialize.get_specialized_loop`` runs :func:`check_source` before
``exec()`` on every fresh generation; under
``REPRO_SPECIALIZE_STRICT=1`` a finding raises
:class:`LoopVerificationError`, otherwise the cell is memoised as
rejected and falls back to ``_run_reference``.
"""

from __future__ import annotations

import ast
import dataclasses
from collections import Counter
from typing import Iterator, Sequence

from .base import Finding
from ..arch.config import MEMORY_PRESETS, MachineConfig
from ..arch.resources import capacity_packed, guards_mask
from ..arch.scenarios import MACHINE_PRESETS, get_scenario
from ..core.policies import ALL_POLICIES, Policy
from ..core.priority import make_priority
from ..pipeline import specialize
from ..pipeline.processor import SimParams

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


# ------------------------------------------------------------ free names
# Every check below reads the function's nodes from one ``ast.walk``
# list: the walk, not the checks, dominates verification time, and the
# generated loops run to several hundred lines.
def _bound_names(fn: ast.FunctionDef, nodes: list[ast.AST]) -> set[str]:
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
    stores: Counter[str] = Counter()
    augs: Counter[str] = Counter()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            stores[node.id] += 1
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            augs[node.target.id] += 1
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if node is not fn:
                bound.add(node.name)
        elif isinstance(node, ast.alias):
            bound.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
    # a store that is only ever an AugAssign target never binds
    bound.update(n for n, c in stores.items() if c > augs.get(n, 0))
    return bound


def _free_loads(
    fn: ast.FunctionDef, nodes: list[ast.AST]
) -> dict[str, int]:
    """Free (unbound) name reads of the function: ``name -> line``.
    An ``AugAssign`` target counts as a read — ``x += 1`` loads ``x``
    even though the AST gives the target Store context."""
    bound = _bound_names(fn, nodes)
    free: dict[str, int] = {}
    for node in nodes:
        if (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in bound
        ):
            free.setdefault(node.id, node.lineno)
        elif (
            isinstance(node, ast.AugAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id not in bound
        ):
            free.setdefault(node.target.id, node.target.lineno)
    return free


# -------------------------------------------------------- literal checks
@dataclasses.dataclass
class _Expected:
    """Spec-derived constants one cell's loop must have inlined."""

    op_merge: bool
    split: str
    multi: bool
    flat: bool
    perfect: bool
    guards: int
    capacity: int
    iline_shift: int
    dline_shift: int
    iset_mask: int
    dset_mask: int
    taken_penalty: int
    icache_miss_penalty: int
    dcache_miss_penalty: int
    timeslice: int
    target: int
    max_cycles: int
    cluster_bits: frozenset[int]
    orders: tuple[tuple[int, ...], ...]


def _expected(
    policy: Policy,
    cfg: MachineConfig,
    params: SimParams,
    n_threads: int,
    n_benches: int,
) -> _Expected:
    """Re-derive every inlinable constant from the resolved spec (the
    machine/memory config, the policy shape, the run params) — never
    from the generator's own intermediates."""
    perfect = bool(params.perfect_memory)
    return _Expected(
        op_merge=policy.merge == "op",
        split=policy.split,
        multi=n_benches > 1 and params.timeslice > 0,
        flat=perfect or cfg.memory.is_flat,
        perfect=perfect,
        guards=guards_mask(cfg.n_clusters),
        capacity=capacity_packed(cfg),
        iline_shift=cfg.icache.line_bytes.bit_length() - 1,
        dline_shift=cfg.dcache.line_bytes.bit_length() - 1,
        iset_mask=cfg.icache.size_bytes
        // (cfg.icache.assoc * cfg.icache.line_bytes) - 1,
        dset_mask=cfg.dcache.size_bytes
        // (cfg.dcache.assoc * cfg.dcache.line_bytes) - 1,
        taken_penalty=cfg.taken_branch_penalty,
        icache_miss_penalty=cfg.icache.miss_penalty,
        dcache_miss_penalty=cfg.dcache.miss_penalty,
        timeslice=params.timeslice,
        target=params.target_instructions,
        max_cycles=params.max_cycles,
        cluster_bits=frozenset(1 << c for c in range(cfg.n_clusters)),
        orders=make_priority(params.priority, n_threads).orders,
    )


def _int_const(node: ast.expr) -> int | None:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return int(node.value)
    return None


class _LiteralCollector:
    """Harvest every spec-bearing literal site from the loop body."""

    def __init__(self) -> None:
        #: (kind, value, line) observations
        self.seen: list[tuple[str, int, int]] = []
        #: full priority tuples: Assign to thread_order / order_tabs
        self.order_tuples: list[tuple[tuple[int, ...], ...]] = []
        self._visit = {
            ast.Assign: self.visit_Assign,
            ast.AugAssign: self.visit_AugAssign,
            ast.BinOp: self.visit_BinOp,
            ast.Compare: self.visit_Compare,
            ast.Call: self.visit_Call,
        }

    def collect(self, nodes: list[ast.AST]) -> None:
        visit = self._visit
        for node in nodes:
            method = visit.get(type(node))
            if method is not None:
                method(node)

    def _note(self, kind: str, value: int | None, line: int) -> None:
        if value is not None:
            self.seen.append((kind, value, line))

    @staticmethod
    def _threads_index(node: ast.expr) -> int | None:
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "threads"
        ):
            return _int_const(node.slice)
        return None

    def _order_tuple(self, node: ast.expr) -> tuple[int, ...] | None:
        if not isinstance(node, ast.Tuple):
            return None
        idx = [self._threads_index(e) for e in node.elts]
        if any(i is None for i in idx):
            return None
        return tuple(i for i in idx if i is not None)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) == 1:
            t = node.targets[0]
            name = t.id if isinstance(t, ast.Name) else None
            if name == "limit" and isinstance(node.value, ast.IfExp):
                self._note(
                    "max_cycles",
                    _int_const(node.value.orelse),
                    node.lineno,
                )
            elif name == "e_remaining":
                self._note(
                    "capacity", _int_const(node.value), node.lineno
                )
            elif name == "next_switch":
                v = node.value
                if isinstance(v, ast.BinOp) and isinstance(v.op, ast.Add):
                    self._note(
                        "timeslice", _int_const(v.right), node.lineno
                    )
                else:
                    self._note("timeslice", _int_const(v), node.lineno)
            elif name == "thread_order":
                one = self._order_tuple(node.value)
                if one is not None:
                    self.order_tuples.append((one,))
            elif name == "order_tabs" and isinstance(
                node.value, ast.Tuple
            ):
                tabs = [
                    self._order_tuple(e) for e in node.value.elts
                ]
                if all(t is not None for t in tabs):
                    self.order_tuples.append(
                        tuple(t for t in tabs if t is not None)
                    )
            elif (
                isinstance(t, ast.Attribute)
                and t.attr == "fetch_at"
                and isinstance(node.value, ast.BinOp)
                and isinstance(node.value.op, ast.Add)
            ):
                arm = node.value.right
                if isinstance(arm, ast.IfExp):
                    self._note(
                        "fetch_taken", _int_const(arm.body), node.lineno
                    )
                    self._note(
                        "fetch_seq", _int_const(arm.orelse), node.lineno
                    )
                else:
                    self._note(
                        "fetch_const", _int_const(arm), node.lineno
                    )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            isinstance(node.target, ast.Name)
            and node.target.id == "penalty"
            and isinstance(node.op, ast.Add)
        ):
            self._note(
                "dcache_penalty", _int_const(node.value), node.lineno
            )

    def visit_BinOp(self, node: ast.BinOp) -> None:
        left_name = (
            node.left.id if isinstance(node.left, ast.Name) else None
        )
        if isinstance(node.op, ast.RShift) and left_name == "pc":
            self._note("iline_shift", _int_const(node.right), node.lineno)
        elif isinstance(node.op, ast.RShift) and left_name == "addr":
            self._note("dline_shift", _int_const(node.right), node.lineno)
        elif isinstance(node.op, ast.BitAnd) and left_name == "line":
            self._note("iset_mask", _int_const(node.right), node.lineno)
        elif isinstance(node.op, ast.BitAnd) and left_name == "dline":
            self._note("dset_mask", _int_const(node.right), node.lineno)
        elif isinstance(node.op, ast.BitOr) and left_name == "e_remaining":
            self._note("guards", _int_const(node.right), node.lineno)
        elif isinstance(node.op, ast.BitXor) and left_name == "left":
            self._note("guards", _int_const(node.right), node.lineno)
        elif isinstance(node.op, ast.BitAnd) and left_name in (
            "mem",
            "store_mask",
        ):
            self._note("cluster_bit", _int_const(node.right), node.lineno)
        elif isinstance(node.op, (ast.BitAnd, ast.Mod)) and (
            left_name == "cycle"
        ):
            kind = (
                "order_sel_mask"
                if isinstance(node.op, ast.BitAnd)
                else "order_sel_mod"
            )
            self._note(kind, _int_const(node.right), node.lineno)

    def visit_Compare(self, node: ast.Compare) -> None:
        # bstats.instructions >= <target>
        if (
            isinstance(node.left, ast.Attribute)
            and node.left.attr == "instructions"
            and len(node.ops) == 1
            and isinstance(node.ops[0], ast.GtE)
        ):
            self._note(
                "target", _int_const(node.comparators[0]), node.lineno
            )
        # left & <guards> ==/!= <guards>
        if (
            isinstance(node.left, ast.BinOp)
            and isinstance(node.left.op, ast.BitAnd)
            and isinstance(node.left.left, ast.Name)
            and node.left.left.id == "left"
        ):
            self._note(
                "guards", _int_const(node.left.right), node.lineno
            )
            if len(node.comparators) == 1:
                self._note(
                    "guards",
                    _int_const(node.comparators[0]),
                    node.lineno,
                )

    def visit_Call(self, node: ast.Call) -> None:
        # fast_forward(cycle, end_cycle, sw, ns, <multi>, <timeslice>)
        if (
            isinstance(node.func, ast.Name)
            and node.func.id == "fast_forward"
            and len(node.args) == 6
        ):
            multi_arg = node.args[4]
            if isinstance(multi_arg, ast.Constant):
                self._note(
                    "ff_multi", int(bool(multi_arg.value)), node.lineno
                )
            self._note("ff_timeslice", _int_const(node.args[5]), node.lineno)
        # icache-miss path: th.fetch_at = cycle + <penalty> is caught by
        # visit_Assign ("fetch_const"); nothing extra here.


def _check_literals(
    nodes: list[ast.AST], exp: _Expected, label: str
) -> list[Finding]:
    col = _LiteralCollector()
    col.collect(nodes)
    findings: list[Finding] = []

    def mismatch(kind: str, want: object, got: object, line: int) -> None:
        findings.append(
            _find(
                "loopcheck-literal",
                f"inlined {kind} literal {got!r} does not match the "
                f"spec-derived value {want!r}",
                label,
                line,
            )
        )

    exact = {
        "max_cycles": exp.max_cycles,
        "target": exp.target,
        "iline_shift": exp.iline_shift,
        "dline_shift": exp.dline_shift,
        "iset_mask": exp.iset_mask,
        "dset_mask": exp.dset_mask,
        "guards": exp.guards,
        "capacity": exp.capacity,
        "timeslice": exp.timeslice,
        "fetch_taken": 1 + exp.taken_penalty,
        "fetch_seq": 1,
        "dcache_penalty": exp.dcache_miss_penalty,
        "ff_multi": int(exp.multi),
        "ff_timeslice": exp.timeslice if exp.multi else 0,
        "order_sel_mask": len(exp.orders) - 1,
        "order_sel_mod": len(exp.orders),
    }
    counts: dict[str, int] = {}
    cluster_bits: set[int] = set()
    for kind, value, line in col.seen:
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "cluster_bit":
            cluster_bits.add(value)
        elif kind == "fetch_const":
            # retire (penalty 0 machines) inlines cycle + 1; the flat
            # icache-miss path inlines cycle + miss_penalty
            allowed = {exp.icache_miss_penalty} if exp.flat else set()
            if not exp.taken_penalty:
                allowed.add(1)
            if value not in allowed:
                mismatch(
                    "fetch_at offset (1 or icache miss_penalty)",
                    sorted(allowed),
                    value,
                    line,
                )
        elif kind in exact and value != exact[kind]:
            mismatch(kind, exact[kind], value, line)

    # presence: a cell whose shape requires a constant must inline it
    required = ["max_cycles", "target", "iline_shift"]
    if exp.op_merge:
        required += ["guards", "capacity"]
    if exp.multi:
        required.append("timeslice")
    if not exp.perfect:
        # the inline L1 tag probes
        required += ["iset_mask", "dline_shift", "dset_mask"]
    for kind in required:
        if not counts.get(kind):
            findings.append(
                _find(
                    "loopcheck-literal",
                    f"expected an inlined {kind} literal "
                    f"({exact[kind]!r}) but found none",
                    label,
                )
            )
    if cluster_bits and cluster_bits != set(exp.cluster_bits):
        findings.append(
            _find(
                "loopcheck-literal",
                "unrolled cluster mask bits "
                f"{sorted(cluster_bits)} do not cover exactly "
                f"{sorted(exp.cluster_bits)} (n_clusters mismatch)",
                label,
            )
        )
    if not cluster_bits:
        findings.append(
            _find(
                "loopcheck-literal",
                "expected an unrolled per-cluster data probe "
                "(`mem & <bit>` tests) but found none",
                label,
            )
        )

    # priority rotation: the setup block must bake the exact orders
    if not col.order_tuples:
        findings.append(
            _find(
                "loopcheck-literal",
                "no precomputed thread_order/order_tabs tuple found",
                label,
            )
        )
    elif col.order_tuples[0] != exp.orders:
        findings.append(
            _find(
                "loopcheck-literal",
                f"priority rotation {col.order_tuples[0]!r} does not "
                f"match make_priority(...).orders {exp.orders!r}",
                label,
            )
        )
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


def _check_loops(nodes: list[ast.AST], label: str) -> list[Finding]:
    findings = []
    for node in nodes:
        if isinstance(node, ast.While):
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
    policy: Policy,
    cfg: MachineConfig,
    params: SimParams,
    n_threads: int,
    n_benches: int,
    source: str,
    label: str = "<generated>",
) -> list[Finding]:
    """Statically verify one generated loop source against its cell's
    resolved spec.  Returns findings (empty = verified)."""
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

    nodes = list(ast.walk(fn))
    for name, line in sorted(_free_loads(fn, nodes).items()):
        if name not in APPROVED_BUILTINS:
            findings.append(
                _find(
                    "loopcheck-free-name",
                    f"free name {name!r}: the generated loop may only "
                    "reach proc-reachable state, inlined literals and "
                    f"the approved builtins {sorted(APPROVED_BUILTINS)}",
                    label,
                    line,
                )
            )

    findings.extend(_check_loops(nodes, label))
    exp = _expected(policy, cfg, params, n_threads, n_benches)
    findings.extend(_check_literals(nodes, exp, label))
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
    """Generate and verify every distinct loop of the preset matrix.

    Cells are deduped by :func:`specialize.loop_key` — sound because
    the key's documented contract is "everything the generated source
    inlines", so key-equal cells share one source."""
    findings: list[Finding] = []
    seen: set[tuple[object, ...]] = set()
    cells = 0
    for policy, cfg, params, nt, nb, label in iter_matrix(
        threads, benches, scale
    ):
        cells += 1
        key = specialize.loop_key(policy, cfg, params, nt, nb)
        if key in seen:
            continue
        seen.add(key)
        source = specialize.generate_loop_source(
            policy, cfg, params, nt, nb
        )
        findings.extend(
            check_source(policy, cfg, params, nt, nb, source, label)
        )
    return MatrixReport(findings, cells, len(seen))
