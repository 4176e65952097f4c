"""Execution: delegates, hook tables, and the code-block compiler, which is
also the language's type checker.

A Delegate pairs a signature with either a host behavior (a Python callable
supplied by the game) or a generated code block. Hooks are named delegate
slots with a default binding that is never absent, so dispatching through an
unbound hook runs the baseline behavior instead of failing.

A call is checked once and then run any number of times: ``prepare`` checks
the arity and argument types and picks the host or compiled path, and
``invoke`` is ``prepare`` followed by one run. A block runs only once it
type-checks: constructing a GeneratedDelegate (which is ``lang.typecheck``)
compiles its block into nested Python closures (Feeley and Lapalme, "Using
closures for code generation", 1987), by one walk that also infers each
node's type and raises the first TypeCheckError. Locals become fixed frame
slots, and each call site carries its method's host implementation and bound
checks. Every host-method call first checks each bounded parameter against
its ``(min, max)`` from ``MethodDescriptor.bounds`` (a literal argument
inside its bounds is settled at compile time), so out-of-range arguments
surface as ConstraintViolation whether they came from literals or computed
values. The compiler records which parameters a block may read
(``Delegate.params_read``, all for a host behavior): two calls whose
arguments agree on them do the same thing to one world. Every hook, one
marker pass; a host behavior is a reader: what a delegate reads of the world
is seen by running it under a ``Probe``. Execution has no transactional
rollback: an erroring invocation leaves the world in whatever partial state
it reached.

Every run builds its budget, so ``ExecBudget`` (and its subclass ``Probe``)
is a plain class with slots. Values are frozen, so the common ones are
shared: both bools (``TRUE``, ``FALSE``) and the ints from -128 to 255
(``int_value``), which literal slots and the game's builtins and fields
take instead of building their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, List, NoReturn, Optional, Sequence, Set, Tuple, Union

from .lang import (
    INT64_MIN,
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
    TypeCheckError,
    VarDecl,
    lookup,
)
from .registry import BOOL, INT, VOID, Bounds, Registry, TypeId, enum_type


def wrap64(value: int) -> int:
    """Wrap to 64-bit two's-complement, the arithmetic of host builtins."""
    return (value - INT64_MIN) % 2**64 + INT64_MIN


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

# Shared instances, as values are frozen: both bools, and the ints from -128
# to 255, which cover a board's coordinates, sizes and tile counts.
FALSE, TRUE = BoolV(False), BoolV(True)
_INTS = {v: IntV(v) for v in range(-128, 256)}


def int_value(value: int) -> IntV:
    """``IntV(wrap64(value))``, the shared instance for a small ``value``."""
    shared = _INTS.get(value)
    return IntV(wrap64(value)) if shared is None else shared


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
    """An argument outside its parameter's bound. The message is formatted
    only when it is read: most of these are caught and counted unread."""

    def __init__(self, method: str, param: str, value: int, bound: int, bound_kind: str):
        super().__init__(method, param, value, bound, bound_kind)
        self.method = method
        self.param = param
        self.value = value
        self.bound = bound
        self.bound_kind = bound_kind

    def __str__(self) -> str:
        return (f"{self.method}: argument {self.param}={self.value} "
                f"violates {self.bound_kind} bound {self.bound}")

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
    """A delegate that is neither a host behavior nor a checked block was
    invoked (``prepare``). A checked block never raises it."""


class WorldRead(Exception):
    """A call of the named method, declared ``reads_world``, under a
    ``Probe``. Not an ExecutionError: the run was stopped, it did not fail."""


class HookError(Exception):
    pass


class UnknownHook(HookError):
    pass


class SignatureMismatch(HookError):
    pass


# --------------------------------------------------------------------------
# Budget


class ExecBudget:
    """Guard rail on host-method invocations within one execution context."""

    __slots__ = ("max_host_calls", "remaining")

    def __init__(self, max_host_calls: int = 10_000) -> None:
        self.max_host_calls = max_host_calls
        self.remaining = max_host_calls

    def spend(self) -> None:
        if self.remaining <= 0:
            raise BudgetExceeded(self.max_host_calls)
        self.remaining -= 1


class Probe(ExecBudget):
    """A budget under which a compiled call of a method declared
    ``reads_world`` raises WorldRead after its bound checks, and a host
    runner on entry, before either spends budget or calls the host: every
    hook, one marker pass; a host behavior is a reader (``game.tap_moves``)."""

    __slots__ = ()


# --------------------------------------------------------------------------
# Delegates

# A host behavior receives (world, argument values) and returns a Value.
HostFn = Callable[[Any, Sequence[Value]], Value]


@dataclass(frozen=True)
class Delegate:
    sig: Signature
    params_read: FrozenSet[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params_read", frozenset(range(len(self.sig.params))))


@dataclass(frozen=True)
class HostDelegate(Delegate):
    fn: HostFn = field(compare=False)  # type: ignore[assignment]


@dataclass(frozen=True)
class GeneratedDelegate(Delegate):
    """A code block checked against ``sig`` and ``registry``.

    Construction checks and compiles the block in one walk: it raises the
    block's first TypeCheckError, or sets ``program``, the block compiled to
    closures. Whether it reads the world is not recorded: a run under a
    ``Probe`` stops at its first call of a method declared ``reads_world``.

    ``params_read`` holds the index in ``sig.params`` of each parameter that
    some name reference reads, dead branches included, and also when the
    block assigned the parameter before the read. Arguments at other indices
    are never looked at, so two runs whose arguments agree at these indices
    leave one world the same way, or raise the same error.
    """

    block: CodeBlock
    registry: Registry = field(compare=False)
    program: Runner = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        program, params_read = _compile(self.sig, self.block, self.registry)
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "params_read", params_read)


# --------------------------------------------------------------------------
# Hook table


@dataclass
class _HookSlot:
    default: Delegate
    current: Delegate


class HookTable:
    """Named delegate slots; each keeps a default that reset() restores."""

    def __init__(self) -> None:
        self._slots: Dict[str, _HookSlot] = {}

    def declare(self, name: str, default: Delegate) -> None:
        if name in self._slots:
            raise HookError(f"hook '{name}' already declared")
        self._slots[name] = _HookSlot(default, default)

    def _slot(self, name: str) -> _HookSlot:
        slot = self._slots.get(name)
        if slot is None:
            raise UnknownHook(f"unknown hook '{name}'")
        return slot

    def sig(self, name: str) -> Signature:
        return self._slot(name).default.sig

    def delegate(self, name: str) -> Delegate:
        return self._slot(name).current

    def bind(self, name: str, delegate: Delegate) -> None:
        slot = self._slot(name)
        if delegate.sig != slot.default.sig:
            raise SignatureMismatch(
                f"hook '{name}' expects {slot.default.sig.format()}, got {delegate.sig.format()}"
            )
        slot.current = delegate

    def reset(self, name: str) -> None:
        slot = self._slot(name)
        slot.current = slot.default

    def names(self) -> List[str]:
        return list(self._slots)


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
    runner spends one unit of budget, then calls the behavior, a reader: it
    raises WorldRead first under a ``Probe``. A generated runner is the
    compiled block (``GeneratedDelegate.program``). When a check fails, the
    runner raises a new exception of the same type and message on every run.
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
            if type(budget) is Probe:
                raise WorldRead(sig.name)
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
# Literal slots are filled once at compile time, with a shared value where
# there is one, and never written, so a literal and a local are read the
# same way. An expression compiles to a function from the frame to a Value,
# a statement to a function from the frame that runs it for its effect (a
# call statement is its call, whose value is dropped).

_WORLD, _BUDGET, _FIRST_LOCAL = 0, 1, 2

Frame = List[Any]
Compiled = Callable[[Frame], Any]


def _compile(sig: Signature, block: CodeBlock, registry: Registry) -> Tuple[Runner, FrozenSet[int]]:
    """Check and compile ``block`` in one walk into nested closures: the
    runner and the parameters the block may read
    (``GeneratedDelegate.params_read``).

    The walk infers each node's type as it builds the node's code, and
    raises the first failed check in this order: statements in order, a
    statement's own checks before its expressions', an ``Assign``'s target
    before its value, a call's method before its arguments (left to right)
    and those before the call's own type.

    The semantics are those of a tree-walking interpreter with a stack of
    dict frames, one per enclosing block (``tests/_reference_interp.py``
    keeps one as the test oracle). Names resolve to slots and types at
    compile time through a static copy of that stack. This is exact
    because the language has no loops and no jumps, and a checked block's
    only ``return`` is its last top-level statement. When a statement runs,
    each statement before it in its block has run exactly once, so the
    dynamic frames hold exactly the parameters (outermost) and the names
    declared by the earlier VarDecls of each enclosing block. The scope rule
    (``lang.lookup``) applied to the static frames therefore finds the
    binding the dynamic lookup would. The runner runs the body, then
    evaluates the final ``return``'s value, or UNIT.
    """
    compiler = _Compiler(registry, sig)
    params = {pname: (_FIRST_LOCAL + i, ptype) for i, (pname, ptype) in enumerate(sig.params)}
    frames: Frames = [params]
    statements = block.statements
    n = len(statements)
    final = statements[-1] if n and isinstance(statements[-1], Return) else None
    body = compiler.block(statements if final is None else statements[:-1], frames, top=True)
    compiler.index = max(n - 1, 0)
    result = compiler.final_return(final, frames)
    rest = compiler.rest

    def program(args: Sequence[Value], world: Any, budget: ExecBudget) -> Value:
        frame = [world, budget, *args, *rest]
        body(frame)
        return result(frame)

    return program, frozenset(compiler.params_read)


def _skip(frame: Frame) -> None:
    """The code of an empty block."""


def _settled(arg: Expression, bounds: Bounds) -> bool:
    """Whether the bound check on ``arg`` provably passes: an int literal
    within ``bounds``."""
    if not isinstance(arg, IntLit) or type(arg.value) is not int:
        return False
    lo, hi = bounds
    return (lo is None or lo <= arg.value) and (hi is None or arg.value <= hi)


# A name's frame slot and declared type.
Binding = Tuple[int, TypeId]
Frames = List[Dict[str, Binding]]
# A literal's or a visible local's slot, or the code that computes a value.
Operand = Union[int, Compiled]


class _Compiler:
    def __init__(self, registry: Registry, sig: Signature):
        self.registry = registry
        self.returns = sig.return_type
        self.first = _FIRST_LOCAL + len(sig.params)  # the first slot after the parameters
        # Initial contents of the slots from ``first`` on: None for a local,
        # the value for a literal.
        self.rest: List[Optional[Value]] = []
        # The index of every parameter a name reference reads, reachable or not.
        self.params_read: Set[int] = set()
        self.index = 0  # the top-level statement being compiled

    def reject(
        self, message: str, path: str = "", expected: Optional[TypeId] = None, found: Optional[TypeId] = None
    ) -> NoReturn:
        """Fail a check: raise its TypeCheckError."""
        raise TypeCheckError(message, self.index, path, expected, found)

    def new_slot(self, value: Optional[Value] = None) -> int:
        self.rest.append(value)
        return self.first + len(self.rest) - 1

    def block(self, statements: Sequence[Statement], frames: Frames, top: bool = False) -> Compiled:
        """A block's code; ``top`` marks the block's statements as top-level."""
        stmts = []
        for i, st in enumerate(statements):
            if top:
                self.index = i
            stmts.append(self.stmt(st, frames))
        if not stmts:
            return _skip
        if len(stmts) == 1:
            return stmts[0]

        def run_block(frame: Frame) -> None:
            for stmt in stmts:
                stmt(frame)

        return run_block

    def branch(self, block: Optional[CodeBlock], frames: Frames) -> Compiled:
        if block is None:
            return _skip
        frames.append({})
        compiled = self.block(block.statements, frames)
        frames.pop()
        return compiled

    def stmt(self, st: Statement, frames: Frames) -> Compiled:
        if isinstance(st, VarDecl):
            if not self.registry.resolves(st.type):
                self.reject(f"unknown type '{st.type.display()}'")
            if lookup(frames, st.name) is not None:
                self.reject(f"redeclaration of visible local '{st.name}'")
            # the name is not visible yet
            init = self.expr(st.init, frames, st.type, f"initializer of {st.name}")
            slot = self.new_slot()
            frames[-1][st.name] = (slot, st.type)

            def var_decl(frame: Frame) -> None:
                frame[slot] = init(frame)

            return var_decl
        if isinstance(st, Assign):
            return self.assign(st, frames)
        if isinstance(st, ExprStmt):
            if not isinstance(st.call, Call):
                self.reject("statement expression must be a call")
            return self.expr(st.call, frames, None, "statement call")
        if isinstance(st, IfElse):
            cond = self.expr(st.cond, frames, BOOL, "if condition")
            then_block = self.branch(st.then_block, frames)
            else_block = self.branch(st.else_block, frames)

            def if_else(frame: Frame) -> None:
                (then_block if cond(frame).value else else_block)(frame)

            return if_else
        if isinstance(st, Return):
            self.reject("return is only allowed as the final top-level statement")
        self.reject(f"unknown statement kind {type(st).__name__}")

    def final_return(self, st: Optional[Return], frames: Frames) -> Compiled:
        """The code of the block's result: the value of its final ``return``
        (``st``, None when the block ends without one), or UNIT."""
        returns = self.returns
        if st is not None and st.value is not None:
            if returns == VOID:
                self.reject("void body cannot return a value", expected=VOID)
            return self.expr(st.value, frames, returns, "return value")
        if returns != VOID:
            if st is None:
                self.reject(f"missing final return of type {returns.display()}", expected=returns)
            self.reject(f"return needs a value of type {returns.display()}", expected=returns)
        return itemgetter(self.new_slot(UNIT))

    def assign(self, st: Assign, frames: Frames) -> Compiled:
        """An assignment; its target is checked before its value, and its
        code runs the value first."""
        name = st.target.name
        path = f"value assigned to {name}"
        if isinstance(st.target, LocalTarget):
            binding = lookup(frames, name)
            if binding is None:
                self.reject(f"unknown local '{name}'")
            slot, wanted = binding
            value = self.expr(st.value, frames, wanted, path)

            def assign_local(frame: Frame) -> None:
                frame[slot] = value(frame)

            return assign_local
        fd = self.registry.field_named(name)
        if fd is None:
            self.reject(f"unknown field '{name}'")
        if not fd.usable:
            self.reject(f"field '{name}' is not usable")
        if not fd.writable:
            self.reject(f"field '{name}' is read-only")
        value = self.expr(st.value, frames, fd.type, path)

        def assign_field(frame: Frame) -> None:
            result = value(frame)
            frame[_WORLD].write_field(name, result)

        return assign_field

    def expr(self, expr: Expression, frames: Frames, wanted: Optional[TypeId], path: str) -> Compiled:
        operand = self.operand(expr, frames, wanted, path)
        return itemgetter(operand) if isinstance(operand, int) else operand

    def operand(self, expr: Expression, frames: Frames, wanted: Optional[TypeId], path: str) -> Operand:
        """The one type-agreement check: compile ``expr`` and fail unless it
        has type ``wanted``. None wants any type, void included: a statement
        call."""
        operand, found = self.infer(expr, frames, wanted, path)
        if found is not wanted and wanted is not None and found != wanted:
            self.reject(f"expected {wanted.display()}, found {found.display()}", path, wanted, found)
        return operand

    def infer(
        self, expr: Expression, frames: Frames, wanted: Optional[TypeId], path: str
    ) -> Tuple[Operand, TypeId]:
        """``expr``'s slot or code, and its type, which an enum literal takes
        from ``wanted`` when they agree. The kinds are tested in the order of
        their frequency in generated blocks."""
        if isinstance(expr, Call):
            return self.call(expr, frames, wanted is None, path)
        if isinstance(expr, LocalRef):
            binding = lookup(frames, expr.name)
            if binding is None:
                self.reject(f"unknown local '{expr.name}'", path)
            if binding[0] < self.first:  # the parameters have the slots before ``first``
                self.params_read.add(binding[0] - _FIRST_LOCAL)
            return binding
        if isinstance(expr, FieldRef):
            name = expr.name
            fd = self.registry.field_named(name)
            if fd is None:
                self.reject(f"unknown field '{name}'", path)
            if not fd.usable:
                self.reject(f"field '{name}' is not usable", path)

            def read_field(frame: Frame) -> Value:
                return frame[_WORLD].read_field(name)

            return read_field, fd.type
        if isinstance(expr, EnumLit):
            e = self.registry.enum(expr.enum)
            if e is None:
                self.reject(f"unknown enum '{expr.enum}'", path)
            if expr.variant not in e.variants:
                self.reject(f"enum '{expr.enum}' has no variant '{expr.variant}'", path)
            found = wanted if wanted is not None and wanted.enum_name == expr.enum else enum_type(expr.enum)
            return self.new_slot(EnumV(expr.enum, expr.variant)), found
        if isinstance(expr, IntLit):  # a shared value when there is one
            value = expr.value
            shared = _INTS.get(value) if type(value) is int else None
            return self.new_slot(IntV(value) if shared is None else shared), INT
        if isinstance(expr, BoolLit):
            value = expr.value
            return self.new_slot((FALSE, TRUE)[value] if type(value) is bool else BoolV(value)), BOOL
        self.reject(f"unknown expression kind {type(expr).__name__}", path)

    def call(self, call: Call, frames: Frames, allow_void: bool, path: str) -> Tuple[Compiled, TypeId]:
        """A host-method call: evaluate the arguments left to right, check
        the bounded parameters in signature order, stop with WorldRead under
        a Probe if the method reads the world, spend one unit of budget, run
        the host implementation."""
        name = call.method
        md = self.registry.method_named(name)
        if md is None:
            self.reject(f"unknown method '{name}'", path)
        if not md.usable:
            self.reject(f"method '{name}' is not usable", path)
        if len(call.args) != md.arity:
            self.reject(f"method '{name}' takes {md.arity} argument(s), got {len(call.args)}", path)
        operands = [
            self.operand(arg, frames, ptype, f"arg {k} of {name}")
            for k, (arg, (_, ptype)) in enumerate(zip(call.args, md.params))
        ]
        if not allow_void and md.return_type == VOID:
            self.reject(f"void call '{name}' used as a value", path)
        if len(operands) >= 2 and all(isinstance(o, int) for o in operands):
            # All arguments are slot reads: one C-level getter fetches them.
            eval_args: Callable[[Frame], Sequence[Value]] = itemgetter(*operands)
        elif len(operands) == 2:  # the commonest arity: no list to build
            first, second = (itemgetter(o) if isinstance(o, int) else o for o in operands)

            def eval_args(frame: Frame) -> Sequence[Value]:
                return first(frame), second(frame)
        else:
            arg_fns = [itemgetter(o) if isinstance(o, int) else o for o in operands]

            def eval_args(frame: Frame) -> Sequence[Value]:
                return [fn(frame) for fn in arg_fns]

        # (argument index, parameter, min, max) per bounded parameter that a
        # literal argument does not settle here, in signature order. An open
        # side is an infinite float, which compares exactly with any int.
        checks = []
        if md.bounds:
            index = {pname: i for i, (pname, _) in enumerate(md.params)}
            checks = [
                (index[p], p, -inf if lo is None else lo, inf if hi is None else hi)
                for p, (lo, hi) in md.bounds.items()
                if not _settled(call.args[index[p]], (lo, hi))
            ]
        host = md.host_impl
        reads = md.reads_world

        def call_method(frame: Frame) -> Value:
            args = eval_args(frame)
            for i, param, lo, hi in checks:
                value = args[i].value
                if not lo <= value <= hi:
                    if value < lo:
                        raise ConstraintViolation(name, param, value, lo, "min")
                    raise ConstraintViolation(name, param, value, hi, "max")
            if reads and type(frame[_BUDGET]) is Probe:
                raise WorldRead(name)
            frame[_BUDGET].spend()
            if host is None:
                raise HostError(f"method '{name}' has no host implementation", name)
            return host(frame[_WORLD], args)

        return call_method, md.return_type
