"""Symbolic execution of Buffy programs into SMT terms.

This is the compiler back half: a checked program is *executed* over
symbolic state, one time step at a time, producing

* a dataflow DAG of terms describing all reachable behaviours,
* assumptions (from ``assume`` and model side conditions),
* proof obligations (from ``assert``),
* fresh variables only for nondeterminism: input traffic and ``havoc``.

Control flow is handled with *path guards* instead of path splitting:
an assignment under guard ``g`` becomes ``x := ite(g, new, x)``, so
both branches of a conditional execute against the same mutable state
and no join pass is needed.  Loops are unrolled (bounds are
compile-time constants — §7) and procedure calls are inlined (§4).

The executor is parameterized by the symbolic buffer model
(:mod:`repro.buffers.symbolic`), which is how the paper's "buffer
models with varying precision" plug in without changing programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from ..buffers.symbolic import (
    SymbolicBufferModel,
    SymbolicCounterBuffer,
    SymbolicList,
    SymbolicListBuffer,
    SymbolicPacket,
    gite,
)
from ..lang.ast import (
    BINOP_ADD,
    BINOP_AND,
    BINOP_EQ,
    BINOP_GE,
    BINOP_GT,
    BINOP_IMPLIES,
    BINOP_LE,
    BINOP_LT,
    BINOP_MUL,
    BINOP_NE,
    BINOP_OR,
    BINOP_SUB,
    UNOP_NOT,
    Assert,
    Assign,
    Assume,
    Backlog,
    BinOp,
    BoolLit,
    BuffyError,
    Call,
    Cmd,
    Decl,
    Expr,
    FilterExpr,
    For,
    Havoc,
    If,
    Index,
    IntLit,
    ListEmpty,
    ListHas,
    ListLen,
    Move,
    PopFront,
    Procedure,
    PushBack,
    Seq,
    Skip,
    UnOp,
    Var,
    VarKind,
)
from ..lang.checker import CheckedProgram
from ..obs import TRACER
from ..lang.types import (
    ArrayType,
    BoolType,
    BufferType,
    IntType,
    ListType,
    Type,
)
from ..smt.terms import (
    FALSE,
    TRUE,
    ZERO,
    Term,
    mk_and,
    mk_bool,
    mk_bool_var,
    mk_eq,
    mk_implies,
    mk_int,
    mk_int_var,
    mk_ite,
    mk_le,
    mk_lt,
    mk_not,
    mk_or,
)


class EncodeError(BuffyError):
    """Raised when a program cannot be encoded symbolically."""


@dataclass
class EncodeConfig:
    """Finite-model parameters for symbolic execution.

    The paper's boundedness restrictions (§7) surface here: every
    buffer, list and arrival burst needs a static size so the encoding
    stays in the decidable bounded-integer fragment.
    """

    buffer_model: str = "list"          # "list" (FPerf-style) | "counter" (CCAC-style)
    buffer_capacity: int = 8            # packet slots per buffer
    list_capacity: Optional[int] = None # pointer-list slots; default max(#inputs, 2)
    arrivals_per_step: int = 2          # max packets per input buffer per step
    n_flows: Optional[int] = None       # flow classes; default #input buffers
    fix_arrival_flow: bool = True       # arrivals to ibs[i] carry flow == i
    packet_size: Optional[int] = 1      # fixed size; None → symbolic in [1, max_size]
    max_size: int = 4
    havoc_default: tuple[int, int] = (0, 16)
    canonical_arrivals: bool = True     # symmetry-break arrival slot presence
    check_list_overflow: bool = False   # assert pointer lists never overflow


@dataclass
class Obligation:
    """One ``assert`` occurrence: ``formula`` must be valid."""

    step: int
    label: Optional[str]
    pos: Optional[tuple]
    formula: Term

    def describe(self) -> str:
        where = f" at {self.pos[0]}:{self.pos[1]}" if self.pos else ""
        return f"step {self.step}: {self.label or 'assert'}{where}"


@dataclass
class ArrivalVar:
    """Decoder record for one symbolic arrival slot."""

    step: int
    buffer: str               # e.g. "ibs[0]" or "pin"
    slot: int
    present: Term
    flow: Term
    size: Term


@dataclass
class HavocVar:
    """Decoder record for one ``havoc`` occurrence."""

    step: int
    name: str
    occurrence: int
    var: Term


@dataclass
class StepSnapshot:
    """End-of-step observables: monitors, stats and backlogs as terms."""

    step: int
    monitors: dict[str, object] = field(default_factory=dict)
    deq_p: dict[str, Term] = field(default_factory=dict)
    enq_p: dict[str, Term] = field(default_factory=dict)
    drop_p: dict[str, Term] = field(default_factory=dict)
    backlog_p: dict[str, Term] = field(default_factory=dict)


Value = Union[Term, SymbolicList, SymbolicBufferModel, list]


class SymbolicMachine:
    """Symbolic state of one Buffy program, advanced step by step."""

    def __init__(
        self,
        checked: CheckedProgram,
        config: Optional[EncodeConfig] = None,
        prefix: Optional[str] = None,
        budget=None,
    ):
        self.checked = checked
        self.program = checked.program
        self.config = config or EncodeConfig()
        self.prefix = prefix if prefix is not None else checked.name
        # Optional repro.runtime.Budget (duck-typed to avoid an import
        # cycle): polled at step granularity so deep unrollings honor
        # wall-clock deadlines and cancellation.
        self.budget = budget
        self.step = 0
        self.assumptions: list[Term] = []
        self.obligations: list[Obligation] = []
        self.arrival_vars: list[ArrivalVar] = []
        self.havoc_vars: list[HavocVar] = []
        self.bounds: dict[str, tuple[int, int]] = {}
        self.snapshots: list[StepSnapshot] = []
        self._procs: dict[str, Procedure] = {
            p.name: p for p in self.program.procedures
        }
        self._havoc_counts: dict[tuple[int, str], int] = {}
        self._n_inputs = sum(p.count for p in self.program.input_params())
        if self.config.n_flows is None:
            self.config.n_flows = max(1, self._n_inputs)
        if self.config.list_capacity is None:
            self.config.list_capacity = max(2, self._n_inputs)
        self.buffers: dict[str, Value] = {}
        self.globals_: dict[str, Value] = {}
        self._init_state()

    # ----- construction -------------------------------------------------------

    def _make_buffer(self, label: str) -> SymbolicBufferModel:
        cfg = self.config
        if cfg.buffer_model == "list":
            return SymbolicListBuffer(cfg.buffer_capacity, name=label)
        if cfg.buffer_model == "counter":
            return SymbolicCounterBuffer(
                cfg.n_flows, capacity=cfg.buffer_capacity, name=label
            )
        raise EncodeError(f"unknown buffer model {cfg.buffer_model!r}")

    def _default_value(self, typ: Type, label: str) -> Value:
        if isinstance(typ, IntType):
            return ZERO
        if isinstance(typ, BoolType):
            return FALSE
        if isinstance(typ, ListType):
            capacity = typ.capacity or self.config.list_capacity
            return SymbolicList(capacity, name=label)
        if isinstance(typ, BufferType):
            return self._make_buffer(label)
        if isinstance(typ, ArrayType):
            return [
                self._default_value(typ.elem, f"{label}[{i}]")
                for i in range(typ.size)
            ]
        raise EncodeError(f"cannot build symbolic state for {typ}")

    def _init_state(self) -> None:
        for param in self.program.params:
            self.buffers[param.name] = self._default_value(
                param.type, f"{self.prefix}.{param.name}"
            )
        for decl in self.program.decls:
            if decl.kind is VarKind.CONST:
                continue
            if decl.init is not None and isinstance(decl.init, IntLit):
                self.globals_[decl.name] = mk_int(decl.init.value)
            elif decl.init is not None and isinstance(decl.init, BoolLit):
                self.globals_[decl.name] = mk_bool(decl.init.value)
            else:
                self.globals_[decl.name] = self._default_value(
                    decl.type, f"{self.prefix}.{decl.name}"
                )

    # ----- per-step driver ---------------------------------------------------------

    def input_buffer_labels(self) -> list[str]:
        labels: list[str] = []
        for param in self.program.input_params():
            if isinstance(param.type, ArrayType):
                labels.extend(f"{param.name}[{i}]" for i in range(param.type.size))
            else:
                labels.append(param.name)
        return labels

    def _buffer_by_label(self, label: str) -> SymbolicBufferModel:
        if label.endswith("]") and "[" in label:
            name, _, rest = label.partition("[")
            return self.buffers[name][int(rest[:-1])]
        value = self.buffers[label]
        if isinstance(value, list):
            raise EncodeError(f"{label!r} is a buffer array")
        return value

    def make_step_arrivals(
        self, labels: Optional[Sequence[str]] = None
    ) -> dict[str, list[SymbolicPacket]]:
        """Fresh traffic variables for this step, for every input buffer.

        ``labels`` restricts generation to a subset of inputs (used by
        composition: connected inputs receive upstream packets instead
        of fresh traffic).
        """
        cfg = self.config
        out: dict[str, list[SymbolicPacket]] = {}
        for label in (labels if labels is not None
                      else self.input_buffer_labels()):
            slots: list[SymbolicPacket] = []
            fixed_flow = _fixed_flow_of(label) if cfg.fix_arrival_flow else None
            for j in range(cfg.arrivals_per_step):
                base = f"{self.prefix}.{label}.t{self.step}.a{j}"
                present = mk_bool_var(f"{base}.present")
                if fixed_flow is not None:
                    flow: Term = mk_int(fixed_flow)
                else:
                    flow = mk_int_var(f"{base}.flow")
                    self.bounds[flow.name] = (0, cfg.n_flows - 1)
                if cfg.packet_size is not None:
                    size: Term = mk_int(cfg.packet_size)
                else:
                    size = mk_int_var(f"{base}.size")
                    self.bounds[size.name] = (1, cfg.max_size)
                slots.append(SymbolicPacket(flow=flow, size=size, present=present))
                self.arrival_vars.append(
                    ArrivalVar(self.step, label, j, present, flow, size)
                )
            if cfg.canonical_arrivals:
                for j in range(1, len(slots)):
                    self.assumptions.append(
                        mk_implies(slots[j].present, slots[j - 1].present)
                    )
            out[label] = slots
        return out

    def flush_arrivals(self, arrivals: dict[str, list[SymbolicPacket]]) -> None:
        for label, packets in arrivals.items():
            buf = self._buffer_by_label(label)
            for packet in packets:
                buf.enqueue(packet)

    def exec_step(
        self, arrivals: Optional[dict[str, list[SymbolicPacket]]] = None
    ) -> StepSnapshot:
        """Flush arrivals, run the body once, snapshot observables."""
        if self.budget is not None:
            self.budget.start()
            self.budget.checkpoint(
                f"symbolic execution (step {self.step})"
            )
        with TRACER.span("symexec", step=self.step):
            if arrivals is None:
                arrivals = self.make_step_arrivals()
            self.flush_arrivals(arrivals)
            executor = _Executor(self, {})
            executor.exec_cmd(self.program.body, TRUE)
            snapshot = self._snapshot()
        self.snapshots.append(snapshot)
        self.step += 1
        return snapshot

    def _snapshot(self) -> StepSnapshot:
        snap = StepSnapshot(step=self.step)
        for name in self.checked.monitors:
            snap.monitors[name] = _copy_value(self.globals_[name])
        for label in self._all_buffer_labels():
            buf = self._buffer_by_label(label)
            snap.deq_p[label] = buf.stats.deq_p
            snap.enq_p[label] = buf.stats.enq_p
            snap.drop_p[label] = buf.stats.drop_p
            snap.backlog_p[label] = buf.backlog_p()
        return snap

    def _all_buffer_labels(self) -> list[str]:
        labels: list[str] = []
        for param in self.program.params:
            if isinstance(param.type, ArrayType):
                labels.extend(f"{param.name}[{i}]" for i in range(param.type.size))
            else:
                labels.append(param.name)
        return labels

    def drain_outputs(self, guard: Term = TRUE) -> dict[str, list[SymbolicPacket]]:
        """Flush output buffers (composition: end-of-step hand-off)."""
        out: dict[str, list[SymbolicPacket]] = {}
        for param in self.program.output_params():
            if isinstance(param.type, ArrayType):
                for i in range(param.type.size):
                    label = f"{param.name}[{i}]"
                    out[label] = self._buffer_by_label(label).drain_all(guard)
            else:
                out[param.name] = self._buffer_by_label(param.name).drain_all(guard)
        return out

    # ----- state havocking (structured havocs, §6.1) -----------------------------------

    def havoc_state(
        self,
        value_range: tuple[int, int] = (-1, 63),
        stat_bound: int = 1 << 10,
        tag: str = "pre",
    ) -> None:
        """Replace all persistent state with fresh bounded variables.

        This is the "structured havoc" transformation the paper applied
        for the Dafny back end (§6.1): aggregates keep their static
        shape but their contents become symbolic.  Used by the modular
        (contract-based) Dafny mode and by k-induction.
        """
        cfg = self.config
        base = f"{self.prefix}.{tag}{self.step}"
        for label in self._all_buffer_labels():
            buf = self._buffer_by_label(label)
            prefix = f"{base}.{label}"
            if isinstance(buf, SymbolicListBuffer):
                buf.havoc(
                    prefix,
                    flow_range=(-1, cfg.n_flows - 1),
                    size_range=(0, cfg.max_size),
                    stat_bound=stat_bound,
                    bounds=self.bounds,
                )
            else:
                buf.havoc(prefix, stat_bound=stat_bound, bounds=self.bounds)
                if buf.capacity is not None:
                    self.assumptions.append(
                        mk_le(buf.total(), mk_int(buf.capacity))
                    )
        for name, value in list(self.globals_.items()):
            self.globals_[name] = self._havoc_value(
                value, f"{base}.{name}", value_range
            )

    def _havoc_value(self, value: Value, prefix: str,
                     value_range: tuple[int, int],
                     stat_bound: int = 1 << 10) -> Value:
        if isinstance(value, SymbolicList):
            value.havoc(prefix, value_range, self.bounds)
            return value
        if isinstance(value, SymbolicListBuffer):
            value.havoc(
                prefix,
                flow_range=(-1, self.config.n_flows - 1),
                size_range=(0, self.config.max_size),
                stat_bound=stat_bound,
                bounds=self.bounds,
            )
            return value
        if isinstance(value, SymbolicCounterBuffer):
            value.havoc(prefix, stat_bound=stat_bound, bounds=self.bounds)
            return value
        if isinstance(value, list):
            return [
                self._havoc_value(v, f"{prefix}[{i}]", value_range)
                for i, v in enumerate(value)
            ]
        if isinstance(value, Term):
            if value.sort.value == "Bool":
                return mk_bool_var(f"{prefix}.b")
            var = mk_int_var(f"{prefix}.i")
            self.bounds[var.name] = value_range
            return var
        return value

    # ----- havoc plumbing -------------------------------------------------------------

    def fresh_havoc(self, name: str, is_bool: bool,
                    lo: Optional[int], hi: Optional[int]) -> Term:
        occurrence = self._havoc_counts.get((self.step, name), 0)
        self._havoc_counts[(self.step, name)] = occurrence + 1
        base = f"{self.prefix}.havoc.{name}.t{self.step}.o{occurrence}"
        if is_bool:
            var = mk_bool_var(base)
        else:
            var = mk_int_var(base)
            actual_lo = self.config.havoc_default[0] if lo is None else lo
            actual_hi = self.config.havoc_default[1] if hi is None else hi
            self.bounds[var.name] = (actual_lo, max(actual_lo, actual_hi - 1))
        self.havoc_vars.append(HavocVar(self.step, name, occurrence, var))
        return var


def _fixed_flow_of(label: str) -> int:
    """Arrival flow id for a buffer label: the array index, or 0."""
    if label.endswith("]") and "[" in label:
        return int(label.partition("[")[2][:-1])
    return 0


def _copy_value(value: Value) -> Value:
    if isinstance(value, list):
        return [_copy_value(v) for v in value]
    if isinstance(value, SymbolicList):
        clone = SymbolicList(value.capacity, name=value.name)
        clone.elems = list(value.elems)
        clone.length = value.length
        clone.overflowed = value.overflowed
        clone.hi = value.hi
        return clone
    return value  # terms are immutable; buffers are snapshotted via stats


class _Executor:
    """Executes commands against a machine's symbolic state."""

    def __init__(self, machine: SymbolicMachine, env: dict[str, Value]):
        self.machine = machine
        self.env = env

    # ----- name resolution ----------------------------------------------------

    def _lookup(self, name: str):
        if name in self.env:
            return self.env, name
        machine = self.machine
        if name in machine.globals_:
            return machine.globals_, name
        if name in machine.buffers:
            return machine.buffers, name
        consts = machine.checked.consts
        if name in consts:
            return None, consts[name]
        raise EncodeError(f"undefined variable {name!r}")

    def _read(self, name: str) -> Value:
        table, key = self._lookup(name)
        if table is None:
            return mk_int(key)  # constant
        return table[key]

    # ----- expression evaluation --------------------------------------------------

    def eval(self, expr: Expr) -> Value:
        if isinstance(expr, IntLit):
            return mk_int(expr.value)
        if isinstance(expr, BoolLit):
            return mk_bool(expr.value)
        if isinstance(expr, Var):
            return self._read(expr.name)
        if isinstance(expr, Index):
            return self._eval_index(expr)
        if isinstance(expr, BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, UnOp):
            operand = self.eval(expr.operand)
            if expr.kind is UNOP_NOT:
                return mk_not(operand)
            return -operand
        if isinstance(expr, Backlog):
            return self._eval_backlog(expr)
        if isinstance(expr, ListHas):
            target = self._eval_list(expr.target)
            return target.has(self.eval(expr.item))
        if isinstance(expr, ListEmpty):
            return self._eval_list(expr.target).empty()
        if isinstance(expr, ListLen):
            return self._eval_list(expr.target).len_term()
        if isinstance(expr, FilterExpr):
            raise EncodeError(
                "filtered buffers may only appear under backlog", expr.pos
            )
        raise EncodeError(f"cannot encode {type(expr).__name__}", expr.pos)

    def _eval_index(self, expr: Index) -> Value:
        container = self.eval(expr.base)
        if not isinstance(container, list):
            raise EncodeError("indexing into a non-array", expr.pos)
        index = self.eval(expr.index)
        if index.is_const:
            i = index.value
            if not 0 <= i < len(container):
                raise EncodeError(
                    f"array index {i} out of range [0, {len(container)})",
                    expr.pos,
                )
            return container[i]
        # Symbolic index over scalars: an ite chain.  (Symbolic indexing
        # into buffer arrays is resolved at the operation level instead.)
        if container and isinstance(container[0], Term):
            result = container[0]
            for i in range(1, len(container)):
                result = mk_ite(mk_eq(index, mk_int(i)), container[i], result)
            return result
        raise EncodeError(
            "symbolic index into an aggregate array; only backlog/move"
            " support this",
            expr.pos,
        )

    def _eval_binop(self, expr: BinOp) -> Term:
        kind = expr.kind
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if kind is BINOP_ADD:
            return left + right
        if kind is BINOP_SUB:
            return left - right
        if kind is BINOP_MUL:
            return left * right
        if kind is BINOP_LT:
            return mk_lt(left, right)
        if kind is BINOP_LE:
            return mk_le(left, right)
        if kind is BINOP_GT:
            return mk_lt(right, left)
        if kind is BINOP_GE:
            return mk_le(right, left)
        if kind is BINOP_EQ:
            return mk_eq(left, right)
        if kind is BINOP_NE:
            return mk_not(mk_eq(left, right))
        if kind is BINOP_AND:
            return mk_and(left, right)
        if kind is BINOP_OR:
            return mk_or(left, right)
        if kind is BINOP_IMPLIES:
            return mk_implies(left, right)
        raise EncodeError(f"unsupported operator {kind}", expr.pos)

    def _eval_list(self, expr: Expr) -> SymbolicList:
        value = self.eval(expr)
        if not isinstance(value, SymbolicList):
            raise EncodeError("expected a list", expr.pos)
        return value

    # ----- buffer reference resolution -----------------------------------------------

    def _buffer_cases(self, expr: Expr) -> list[tuple[SymbolicBufferModel, Term]]:
        """Resolve a buffer expression to [(model, guard)] cases.

        A constant reference yields one case with guard TRUE; a
        symbolically indexed array (``ibs[head]``) yields one case per
        element, guarded by ``head == i``.
        """
        if isinstance(expr, Var):
            value = self._read(expr.name)
            if isinstance(value, SymbolicBufferModel):
                return [(value, TRUE)]
            raise EncodeError(f"{expr.name!r} is not a buffer", expr.pos)
        if isinstance(expr, Index):
            container = self.eval(expr.base)
            if not (isinstance(container, list) and container
                    and isinstance(container[0], SymbolicBufferModel)):
                raise EncodeError("expected a buffer array", expr.pos)
            index = self.eval(expr.index)
            if index.is_const:
                i = index.value
                if not 0 <= i < len(container):
                    raise EncodeError(
                        f"buffer index {i} out of range", expr.pos
                    )
                return [(container[i], TRUE)]
            return [
                (container[i], mk_eq(index, mk_int(i)))
                for i in range(len(container))
            ]
        raise EncodeError("expected a buffer reference", expr.pos)

    def _eval_backlog(self, expr: Backlog) -> Term:
        target = expr.buffer
        fieldname: Optional[str] = None
        value: Optional[Term] = None
        if isinstance(target, FilterExpr):
            fieldname = target.fieldname
            value = self.eval(target.value)
            target = target.buffer
        cases = self._buffer_cases(target)
        result = ZERO
        for model, guard in cases:
            backlog = (
                model.backlog_b(fieldname, value)
                if expr.in_bytes
                else model.backlog_p(fieldname, value)
            )
            result = backlog if guard is TRUE else mk_ite(guard, backlog, result)
        return result

    # ----- command execution ------------------------------------------------------------

    def exec_cmd(self, cmd: Cmd, guard: Term) -> None:
        if guard is FALSE:
            return
        if isinstance(cmd, Skip):
            return
        if isinstance(cmd, Seq):
            for c in cmd.commands:
                self.exec_cmd(c, guard)
            return
        if isinstance(cmd, Decl):
            label = f"{self.machine.prefix}.{cmd.name}.t{self.machine.step}"
            if cmd.init is not None:
                self.env[cmd.name] = self.eval(cmd.init)
            else:
                self.env[cmd.name] = self.machine._default_value(cmd.type, label)
            return
        if isinstance(cmd, Assign):
            self._write(cmd.target, self.eval(cmd.value), guard)
            return
        if isinstance(cmd, If):
            cond = self.eval(cmd.cond)
            self.exec_cmd(cmd.then, mk_and(guard, cond))
            self.exec_cmd(cmd.els, mk_and(guard, mk_not(cond)))
            return
        if isinstance(cmd, For):
            lo = self._const(cmd.lo)
            hi = self._const(cmd.hi)
            saved = self.env.get(cmd.var, _MISSING)
            for i in range(lo, hi):
                self.env[cmd.var] = mk_int(i)
                self.exec_cmd(cmd.body, guard)
            if saved is _MISSING:
                self.env.pop(cmd.var, None)
            else:
                self.env[cmd.var] = saved
            return
        if isinstance(cmd, Move):
            self._exec_move(cmd, guard)
            return
        if isinstance(cmd, PushBack):
            target = self._eval_list(cmd.target)
            target.push_back(self.eval(cmd.value), guard)
            if self.machine.config.check_list_overflow:
                self.machine.obligations.append(
                    Obligation(
                        self.machine.step,
                        f"{target.name} overflow",
                        cmd.pos,
                        mk_not(target.overflowed),
                    )
                )
            return
        if isinstance(cmd, PopFront):
            target = self._eval_list(cmd.target)
            value = target.pop_front(guard)
            self._write(cmd.var, value, guard)
            return
        if isinstance(cmd, Assert):
            cond = self.eval(cmd.cond)
            self.machine.obligations.append(
                Obligation(
                    self.machine.step, cmd.label, cmd.pos,
                    mk_implies(guard, cond),
                )
            )
            return
        if isinstance(cmd, Assume):
            cond = self.eval(cmd.cond)
            self.machine.assumptions.append(mk_implies(guard, cond))
            return
        if isinstance(cmd, Havoc):
            self._exec_havoc(cmd, guard)
            return
        if isinstance(cmd, Call):
            self._exec_call(cmd, guard)
            return
        raise EncodeError(f"unsupported command {type(cmd).__name__}", cmd.pos)

    def _const(self, expr: Expr) -> int:
        value = self.eval(expr)
        if isinstance(value, Term) and value.is_const:
            return value.value
        raise EncodeError("loop bounds must be compile-time constants", expr.pos)

    def _write(self, target: Expr, value: Term, guard: Term) -> None:
        if isinstance(target, Var):
            table, key = self._lookup(target.name)
            if table is None:
                raise EncodeError(f"cannot assign to constant {target.name!r}",
                                  target.pos)
            old = table[key]
            table[key] = value if guard is TRUE else gite(guard, value, old)
            return
        if isinstance(target, Index):
            container = self.eval(target.base)
            if not isinstance(container, list):
                raise EncodeError("indexed assignment into a non-array",
                                  target.pos)
            index = self.eval(target.index)
            if index.is_const:
                i = index.value
                if not 0 <= i < len(container):
                    raise EncodeError(f"array index {i} out of range", target.pos)
                old = container[i]
                container[i] = value if guard is TRUE else gite(guard, value, old)
                return
            for i in range(len(container)):
                at = mk_and(guard, mk_eq(index, mk_int(i)))
                container[i] = gite(at, value, container[i])
            return
        raise EncodeError("invalid assignment target", target.pos)

    def _exec_move(self, cmd: Move, guard: Term) -> None:
        amount = self.eval(cmd.amount)
        src_cases = self._buffer_cases(cmd.src)
        dst_cases = self._buffer_cases(cmd.dst)
        for src, src_guard in src_cases:
            move_guard = mk_and(guard, src_guard)
            if cmd.in_bytes:
                packets = src.dequeue_bytes(amount, move_guard)
            else:
                packets = src.dequeue_packets(amount, move_guard)
            for dst, dst_guard in dst_cases:
                for packet in packets:
                    guarded = SymbolicPacket(
                        flow=packet.flow,
                        size=packet.size,
                        present=mk_and(packet.present, dst_guard),
                        bulk=packet.bulk,
                    )
                    self._deliver(dst, guarded, dst_guard)

    def _deliver(self, dst: SymbolicBufferModel, packet: SymbolicPacket,
                 guard: Term) -> None:
        deliver_packet(dst, packet, guard)

    def _exec_havoc(self, cmd: Havoc, guard: Term) -> None:
        lo = None if cmd.lo is None else self._const(cmd.lo)
        hi = None if cmd.hi is None else self._const(cmd.hi)
        name = _target_name(cmd.target)
        current = self._peek(cmd.target)
        is_bool = isinstance(current, Term) and current.sort.value == "Bool"
        var = self.machine.fresh_havoc(name, is_bool, lo, hi)
        self._write(cmd.target, var, guard)

    def _peek(self, target: Expr) -> Value:
        try:
            return self.eval(target)
        except EncodeError:
            return ZERO

    def _exec_call(self, cmd: Call, guard: Term) -> None:
        proc = self.machine._procs.get(cmd.name)
        if proc is None:
            raise EncodeError(f"unknown procedure {cmd.name!r}", cmd.pos)
        callee_env: dict[str, Value] = {}
        for param, arg in zip(proc.params, cmd.args):
            callee_env[param.name] = self.eval(arg)
        callee = _Executor(self.machine, callee_env)
        callee.exec_cmd(proc.body, guard)


def deliver_packet(dst: SymbolicBufferModel, packet: SymbolicPacket,
                   guard: Term = TRUE) -> None:
    """Enqueue a symbolic packet, handling counter-model bulk transfers."""
    if packet.bulk is not None:
        if not isinstance(dst, SymbolicCounterBuffer):
            raise EncodeError(
                "bulk (counter-model) transfers require a counter-model"
                " destination; do not mix buffer models in one move"
            )
        if not packet.flow.is_const:
            raise EncodeError("bulk transfers need a constant flow class")
        count = gite(guard, packet.bulk, ZERO)
        dst.enqueue_bulk(packet.flow.value, count)
        return
    if guard is not TRUE:
        packet = SymbolicPacket(
            flow=packet.flow,
            size=packet.size,
            present=mk_and(packet.present, guard),
        )
    dst.enqueue(packet)


class _Missing:
    pass


_MISSING = _Missing()


def _target_name(target: Expr) -> str:
    if isinstance(target, Var):
        return target.name
    if isinstance(target, Index):
        return _target_name(target.base)
    return "<havoc>"
