"""Execution: delegates, hook tables, and the code-block compiler.

A Delegate pairs a signature with either a host behavior (a Python callable
supplied by the game) or a generated code block. Hooks are named delegate
slots with a default binding that is never absent, so dispatching through an
unbound hook runs the baseline behavior instead of failing.

A call is checked once and then run any number of times: ``prepare`` checks
the arity and argument types and picks the host or compiled path, and
``invoke`` is ``prepare`` followed by one run. A generated block is compiled
once per delegate, when it is first prepared, into nested Python closures
(Feeley and Lapalme, "Using closures for code generation", 1987): locals
become fixed frame slots, and each call site carries its method's host
implementation and bound checks. Every host-method call first checks each
bounded parameter against its ``(min, max)`` from ``MethodDescriptor.bounds``
(a literal argument inside its bounds is settled at compile time), so
out-of-range arguments surface as ConstraintViolation whether they came from
literals or computed values.
Execution has no transactional rollback: an erroring invocation leaves the
world in whatever partial state it reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import inf
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence

from .lang import (
    Assign,
    BoolLit,
    Call,
    CodeBlock,
    EnumLit,
    Expression,
    ExprStmt,
    FieldRef,
    IfElse,
    IntLit,
    LocalRef,
    LocalTarget,
    Return,
    Signature,
    Statement,
    VarDecl,
    typecheck,
)
from .registry import BOOL, INT, VOID, Bounds, Registry, TypeId, enum_type

INT64_MASK = 2**64
INT64_HALF = 2**63


def wrap64(value: int) -> int:
    """Wrap to 64-bit two's-complement, the arithmetic of host builtins."""
    return (value + INT64_HALF) % INT64_MASK - INT64_HALF


# --------------------------------------------------------------------------
# Values


@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class IntV(Value):
    value: int


@dataclass(frozen=True)
class BoolV(Value):
    value: bool


@dataclass(frozen=True)
class EnumV(Value):
    enum: str
    variant: str


@dataclass(frozen=True)
class UnitV(Value):
    pass


UNIT = UnitV()


def value_type(v: Value) -> TypeId:
    if isinstance(v, IntV):
        return INT
    if isinstance(v, BoolV):
        return BOOL
    if isinstance(v, EnumV):
        return enum_type(v.enum)
    return VOID


# --------------------------------------------------------------------------
# Errors


class ExecutionError(Exception):
    """Base class for failures raised while running a delegate."""

    method: str = "-"

    @property
    def kind(self) -> str:
        return type(self).__name__

    def detail(self) -> str:
        return str(self)

    def report_line(self) -> str:
        return f"ERROR kind={self.kind} method={self.method} detail={self.detail()}"


class ConstraintViolation(ExecutionError):
    def __init__(self, method: str, param: str, value: int, bound: int, bound_kind: str):
        super().__init__(
            f"{method}: argument {param}={value} violates {bound_kind} bound {bound}"
        )
        self.method = method
        self.param = param
        self.value = value
        self.bound = bound
        self.bound_kind = bound_kind

    def detail(self) -> str:
        return f"{self.param}={self.value} violates {self.bound_kind}={self.bound}"


class HostError(ExecutionError):
    def __init__(self, detail: str, method: str = "-"):
        super().__init__(detail)
        self.method = method


class BudgetExceeded(ExecutionError):
    def __init__(self, limit: int):
        super().__init__(f"host call budget of {limit} exhausted")
        self.limit = limit


class ArityMismatch(ExecutionError):
    pass


class InterpreterError(ExecutionError):
    """A dynamic check failed; unreachable for typechecked blocks."""


class HookError(Exception):
    pass


class UnknownHook(HookError):
    pass


class SignatureMismatch(HookError):
    pass


# --------------------------------------------------------------------------
# Budget


@dataclass
class ExecBudget:
    """Guard rail on host-method invocations within one execution context."""

    max_host_calls: int = 10_000
    remaining: int = field(init=False)

    def __post_init__(self) -> None:
        self.remaining = self.max_host_calls

    def spend(self) -> None:
        if self.remaining <= 0:
            raise BudgetExceeded(self.max_host_calls)
        self.remaining -= 1


# --------------------------------------------------------------------------
# Delegates

# A host behavior receives (world, argument values) and returns a Value.
HostFn = Callable[[Any, Sequence[Value]], Value]


@dataclass(frozen=True)
class Delegate:
    sig: Signature


@dataclass(frozen=True)
class HostDelegate(Delegate):
    fn: HostFn = field(compare=False)  # type: ignore[assignment]


@dataclass(frozen=True)
class GeneratedDelegate(Delegate):
    block: CodeBlock = CodeBlock()
    registry: Optional[Registry] = field(default=None, compare=False)

    @cached_property
    def program(self) -> "Runner":
        """The block compiled to closures, built on first use."""
        return _compile(self.sig, self.block, self.registry)


def compile_block(sig: Signature, block: CodeBlock, registry: Registry) -> GeneratedDelegate:
    """Typecheck ``block`` against ``sig`` and wrap it as a delegate."""
    typecheck(block, sig, registry)
    return GeneratedDelegate(sig, block, registry)


# --------------------------------------------------------------------------
# Hook table


@dataclass
class _HookSlot:
    sig: Signature
    default: Delegate
    current: Delegate


class HookTable:
    """Named delegate slots; each keeps a default that reset() restores."""

    def __init__(self) -> None:
        self._slots: Dict[str, _HookSlot] = {}

    def declare(self, name: str, default: Delegate) -> None:
        if name in self._slots:
            raise HookError(f"hook '{name}' already declared")
        self._slots[name] = _HookSlot(default.sig, default, default)

    def _slot(self, name: str) -> _HookSlot:
        slot = self._slots.get(name)
        if slot is None:
            raise UnknownHook(f"unknown hook '{name}'")
        return slot

    def sig(self, name: str) -> Signature:
        return self._slot(name).sig

    def delegate(self, name: str) -> Delegate:
        return self._slot(name).current

    def bind(self, name: str, delegate: Delegate) -> None:
        slot = self._slot(name)
        if delegate.sig != slot.sig:
            raise SignatureMismatch(
                f"hook '{name}' expects {slot.sig.format()}, got {delegate.sig.format()}"
            )
        slot.current = delegate

    def reset(self, name: str) -> None:
        slot = self._slot(name)
        slot.current = slot.default

    def names(self) -> List[str]:
        return list(self._slots)

    def clone(self) -> "HookTable":
        table = HookTable()
        for name, slot in self._slots.items():
            table._slots[name] = _HookSlot(slot.sig, slot.default, slot.current)
        return table


# --------------------------------------------------------------------------
# Invocation


# A prepared delegate: (argument values, world, budget) -> the produced value.
Runner = Callable[[Sequence[Value], Any, ExecBudget], Value]


def prepare(delegate: Delegate, arg_types: Sequence[TypeId]) -> Runner:
    """Check a call of ``delegate`` with arguments of ``arg_types`` once and
    return the runner that executes it.

    The arity and argument types are checked here, and the host or compiled
    path is chosen here, so a caller that makes the same call many times
    (the solver taps one hook thousands of times) pays for them once. A host
    runner spends one unit of budget, then calls the behavior. A generated
    runner is the compiled block (``GeneratedDelegate.program``). When a
    check fails, the runner raises a new exception of the same type and
    message on every run.
    """
    sig = delegate.sig
    if len(arg_types) != len(sig.params):
        return _raising(
            ArityMismatch, f"{sig.name}: expected {len(sig.params)} argument(s), got {len(arg_types)}"
        )
    for found, (pname, ptype) in zip(arg_types, sig.params):
        if found is not ptype and found != ptype:
            return _raising(
                ArityMismatch,
                f"{sig.name}: argument '{pname}' expected {ptype.display()}, got {found.display()}",
            )
    if isinstance(delegate, HostDelegate):
        fn = delegate.fn

        def run_host(args: Sequence[Value], world: Any, budget: ExecBudget) -> Value:
            budget.spend()
            return fn(world, list(args))

        return run_host
    if not isinstance(delegate, GeneratedDelegate):
        return _raising(InterpreterError, f"cannot invoke delegate {delegate!r}")
    return delegate.program


def _raising(kind: Callable[[str], ExecutionError], message: str) -> Runner:
    """A runner that raises ``kind(message)``, a fresh instance per run: one
    instance raised again would keep growing its traceback."""

    def fail(args: Sequence[Value], world: Any, budget: ExecBudget) -> Value:
        raise kind(message)

    return fail


def invoke(
    delegate: Delegate,
    args: Sequence[Value],
    world: Any,
    budget: Optional[ExecBudget] = None,
) -> Value:
    """Run a delegate against ``world``; returns the produced value.

    This is ``prepare`` for the types of ``args``, then one run. Host
    delegates dispatch straight to their behavior. Generated delegates run
    their compiled block; each host-method call checks the target's
    parameter bounds and spends one unit of budget first.
    """
    run = prepare(delegate, [value_type(v) for v in args])
    return run(args, world, budget if budget is not None else ExecBudget())


# --------------------------------------------------------------------------
# Compilation
#
# A compiled block works on one flat list per invocation, the frame:
# frame[_WORLD] is the world, frame[_BUDGET] the budget, and from
# _FIRST_LOCAL on every parameter, local and literal has a fixed slot.
# Literal slots are filled once at compile time and never written, so a
# literal and a local are read the same way. An expression compiles to a
# function from the frame to a Value. A statement compiles to a function
# from the frame that returns the block's result when it ran a ``return``,
# and None otherwise.

_WORLD, _BUDGET, _FIRST_LOCAL = 0, 1, 2

Frame = List[Any]
Compiled = Callable[[Frame], Any]


def _compile(sig: Signature, block: CodeBlock, registry: Optional[Registry]) -> Runner:
    """Compile ``block`` once into nested closures; the runner returns UNIT
    when the block ends without a ``return`` value.

    The semantics are those of a tree-walking interpreter with a stack of
    dict frames, one per enclosing block (``tests/_reference_interp.py``
    keeps one as the test oracle). Names resolve to slots at compile time
    through a static copy of that stack, from name to slot. This is exact
    because the language has no loops and no jumps other than a ``return``
    that ends the invocation. When a statement runs, each statement before
    it in its block has run exactly once, so the dynamic frames hold exactly
    the parameters (outermost) and the names declared by the earlier
    VarDecls of each enclosing block. An innermost-first lookup in the
    static frames therefore finds the binding the dynamic lookup would.
    What does not resolve (an unknown local, method or field, a read-only
    field, a wrong arity) compiles to code that raises the interpreter's
    InterpreterError when, and only if, it is reached, so blocks that never
    passed the type checker fail exactly as they would when interpreted.
    """
    if registry is None:
        return _raising(InterpreterError, "generated delegate carries no registry")
    compiler = _Compiler(registry, _FIRST_LOCAL + len(sig.params))
    params = {pname: _FIRST_LOCAL + i for i, (pname, _) in enumerate(sig.params)}
    body = compiler.block(block, [params])
    rest = compiler.rest

    def program(args: Sequence[Value], world: Any, budget: ExecBudget) -> Value:
        result = body([world, budget, *args, *rest])
        return result if result is not None else UNIT

    return program


def _lookup(frames: List[Dict[str, int]], name: str) -> Optional[int]:
    for frame in reversed(frames):
        if name in frame:
            return frame[name]
    return None


def _fault(message: str, first: Optional[Compiled] = None) -> Compiled:
    """Code that raises InterpreterError(message), after evaluating ``first``."""

    def fault(frame: Frame) -> Any:
        if first is not None:
            first(frame)
        raise InterpreterError(message)

    return fault


def _settled(arg: Expression, bounds: Bounds) -> bool:
    """Whether the bound check on ``arg`` provably passes: an int literal
    within ``bounds``."""
    if not isinstance(arg, IntLit) or type(arg.value) is not int:
        return False
    lo, hi = bounds
    return (lo is None or lo <= arg.value) and (hi is None or arg.value <= hi)


class _Compiler:
    def __init__(self, registry: Registry, first: int):
        self.registry = registry
        self.first = first  # the first slot after the parameters
        # Initial contents of the slots from ``first`` on: None for a local,
        # the value for a literal.
        self.rest: List[Optional[Value]] = []

    def new_slot(self, value: Optional[Value] = None) -> int:
        self.rest.append(value)
        return self.first + len(self.rest) - 1

    def block(self, block: CodeBlock, frames: List[Dict[str, int]]) -> Compiled:
        stmts = [self.stmt(st, frames) for st in block.statements]
        if len(stmts) == 1:
            return stmts[0]

        def run_block(frame: Frame) -> Optional[Value]:
            for stmt in stmts:
                result = stmt(frame)
                if result is not None:
                    return result
            return None

        return run_block

    def branch(self, block: Optional[CodeBlock], frames: List[Dict[str, int]]) -> Optional[Compiled]:
        if block is None:
            return None
        frames.append({})
        compiled = self.block(block, frames)
        frames.pop()
        return compiled

    def stmt(self, st: Statement, frames: List[Dict[str, int]]) -> Compiled:
        if isinstance(st, VarDecl):
            init = self.expr(st.init, frames)  # the name is not visible yet
            if st.name not in frames[-1]:
                frames[-1][st.name] = self.new_slot()
            slot = frames[-1][st.name]

            def var_decl(frame: Frame) -> None:
                frame[slot] = init(frame)

            return var_decl
        if isinstance(st, Assign):
            return self.assign(st, frames)
        if isinstance(st, ExprStmt):
            call = self.expr(st.call, frames)

            def expr_stmt(frame: Frame) -> None:
                call(frame)

            return expr_stmt
        if isinstance(st, IfElse):
            cond = self.expr(st.cond, frames)
            then_block = self.branch(st.then_block, frames)
            else_block = self.branch(st.else_block, frames)

            def if_else(frame: Frame) -> Optional[Value]:
                flag = cond(frame)
                if not isinstance(flag, BoolV):
                    raise InterpreterError("if condition did not evaluate to a bool")
                branch = then_block if flag.value else else_block
                return None if branch is None else branch(frame)

            return if_else
        if isinstance(st, Return):
            if st.value is None:
                return itemgetter(self.new_slot(UNIT))
            return self.expr(st.value, frames)
        return _fault(f"cannot execute statement {st!r}")

    def assign(self, st: Assign, frames: List[Dict[str, int]]) -> Compiled:
        value = self.expr(st.value, frames)
        name = st.target.name
        if isinstance(st.target, LocalTarget):
            slot = _lookup(frames, name)
            if slot is None:
                return _fault(f"unknown local '{name}'", first=value)

            def assign_local(frame: Frame) -> None:
                frame[slot] = value(frame)

            return assign_local
        fd = self.registry.field_named(name)
        if fd is None:
            return _fault(f"unknown field '{name}'", first=value)
        if not fd.writable:
            return _fault(f"field '{name}' is read-only", first=value)

        def assign_field(frame: Frame) -> None:
            result = value(frame)
            frame[_WORLD].write_field(name, result)

        return assign_field

    def leaf(self, expr: Expression, frames: List[Dict[str, int]]) -> Optional[int]:
        """The slot a literal or a visible local is read from, else None."""
        if isinstance(expr, IntLit):
            return self.new_slot(IntV(expr.value))
        if isinstance(expr, BoolLit):
            return self.new_slot(BoolV(expr.value))
        if isinstance(expr, EnumLit):
            return self.new_slot(EnumV(expr.enum, expr.variant))
        if isinstance(expr, LocalRef):
            return _lookup(frames, expr.name)
        return None

    def expr(self, expr: Expression, frames: List[Dict[str, int]]) -> Compiled:
        slot = self.leaf(expr, frames)
        if slot is not None:
            return itemgetter(slot)
        if isinstance(expr, LocalRef):
            return _fault(f"unknown local '{expr.name}'")
        if isinstance(expr, FieldRef):
            name = expr.name
            if self.registry.field_named(name) is None:
                return _fault(f"unknown field '{name}'")

            def read_field(frame: Frame) -> Value:
                return frame[_WORLD].read_field(name)

            return read_field
        if isinstance(expr, Call):
            return self.call(expr, frames)
        return _fault(f"cannot evaluate expression {expr!r}")

    def call(self, call: Call, frames: List[Dict[str, int]]) -> Compiled:
        """A host-method call: evaluate the arguments left to right, check
        the bounded parameters in signature order, spend one unit of budget,
        run the host implementation."""
        name = call.method
        md = self.registry.method_named(name)
        if md is None:
            return _fault(f"unknown method '{name}'")
        if len(call.args) != md.arity:
            return _fault(f"method '{name}' takes {md.arity} argument(s), got {len(call.args)}")
        slots = [self.leaf(arg, frames) for arg in call.args]
        if len(slots) >= 2 and None not in slots:
            # All arguments are slot reads: one C-level getter fetches them.
            eval_args: Callable[[Frame], Sequence[Value]] = itemgetter(*slots)
        else:
            arg_fns = [
                itemgetter(slot) if slot is not None else self.expr(arg, frames)
                for slot, arg in zip(slots, call.args)
            ]

            def eval_args(frame: Frame) -> Sequence[Value]:
                return [fn(frame) for fn in arg_fns]

        index = {pname: i for i, (pname, _) in enumerate(md.params)}
        # (argument index, parameter, min, max) per bounded parameter that a
        # literal argument does not settle here, in signature order. An open
        # side is an infinite float, which compares exactly with any int.
        checks = [
            (index[p], p, -inf if lo is None else lo, inf if hi is None else hi)
            for p, (lo, hi) in md.bounds.items()
            if not _settled(call.args[index[p]], (lo, hi))
        ]
        host = md.host_impl

        def call_method(frame: Frame) -> Value:
            args = eval_args(frame)
            for i, param, lo, hi in checks:
                arg = args[i]
                if not isinstance(arg, IntV):
                    raise InterpreterError(f"constraint on non-int argument '{param}' of '{name}'")
                value = arg.value
                if not lo <= value <= hi:
                    if value < lo:
                        raise ConstraintViolation(name, param, value, lo, "min")
                    raise ConstraintViolation(name, param, value, hi, "max")
            frame[_BUDGET].spend()
            if host is None:
                raise HostError(f"method '{name}' has no host implementation", name)
            return host(frame[_WORLD], args)

        return call_method
