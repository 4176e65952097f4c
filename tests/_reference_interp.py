"""Reference AST interpreter, kept as a test oracle for the compiled executor.

This is the tree-walking interpreter ``mechgen.runtime`` used before blocks
were compiled to closures, unchanged: ``_Interp`` walks the AST with a stack
of dict frames, and ``reference_invoke`` is the old ``invoke``. The
differential tests run both executors on the same inputs and compare results,
board cells, exceptions and the remaining budget.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from mechgen.lang import (
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
    Statement,
    VarDecl,
)
from mechgen.registry import Registry
from mechgen.runtime import (
    UNIT,
    ArityMismatch,
    BoolV,
    ConstraintViolation,
    Delegate,
    EnumV,
    ExecBudget,
    GeneratedDelegate,
    HostDelegate,
    HostError,
    IntV,
    InterpreterError,
    Value,
    value_type,
)


def reference_invoke(
    delegate: Delegate,
    args: Sequence[Value],
    world: Any,
    budget: Optional[ExecBudget] = None,
) -> Value:
    """Run a delegate against ``world``; returns the produced value.

    Host delegates dispatch straight to their behavior. Generated delegates
    interpret the block statement by statement; each host-method call checks
    the target's parameter bounds, in signature order, and spends one unit
    of budget first.
    """
    budget = budget if budget is not None else ExecBudget()
    sig = delegate.sig
    if len(args) != len(sig.params):
        raise ArityMismatch(
            f"{sig.name}: expected {len(sig.params)} argument(s), got {len(args)}"
        )
    for value, (pname, ptype) in zip(args, sig.params):
        if value_type(value) != ptype:
            raise ArityMismatch(
                f"{sig.name}: argument '{pname}' expected {ptype.display()}, "
                f"got {value_type(value).display()}"
            )
    if isinstance(delegate, HostDelegate):
        budget.spend()
        return delegate.fn(world, list(args))
    if not isinstance(delegate, GeneratedDelegate):
        raise InterpreterError(f"cannot invoke delegate {delegate!r}")
    if delegate.registry is None:
        raise InterpreterError("generated delegate carries no registry")
    interp = _Interp(delegate.registry, world, budget)
    frames: List[Dict[str, Value]] = [
        {pname: value for value, (pname, _) in zip(args, sig.params)}
    ]
    result = interp.run_block(delegate.block, frames)
    return result if result is not None else UNIT


class _Interp:
    def __init__(self, registry: Registry, world: Any, budget: ExecBudget):
        self.registry = registry
        self.world = world
        self.budget = budget

    def run_block(self, block: CodeBlock, frames: List[Dict[str, Value]]) -> Optional[Value]:
        for st in block.statements:
            result = self.run_stmt(st, frames)
            if result is not None:
                return result
        return None

    def run_stmt(self, st: Statement, frames: List[Dict[str, Value]]) -> Optional[Value]:
        if isinstance(st, VarDecl):
            frames[-1][st.name] = self.eval(st.init, frames)
            return None
        if isinstance(st, Assign):
            value = self.eval(st.value, frames)
            if isinstance(st.target, LocalTarget):
                for frame in reversed(frames):
                    if st.target.name in frame:
                        frame[st.target.name] = value
                        return None
                raise InterpreterError(f"unknown local '{st.target.name}'")
            fd = self.registry.field_named(st.target.name)
            if fd is None:
                raise InterpreterError(f"unknown field '{st.target.name}'")
            if not fd.writable:
                raise InterpreterError(f"field '{st.target.name}' is read-only")
            self.world.write_field(st.target.name, value)
            return None
        if isinstance(st, ExprStmt):
            self.eval(st.call, frames)
            return None
        if isinstance(st, IfElse):
            cond = self.eval(st.cond, frames)
            if not isinstance(cond, BoolV):
                raise InterpreterError("if condition did not evaluate to a bool")
            branch = st.then_block if cond.value else st.else_block
            if branch is None:
                return None
            frames.append({})
            try:
                return self.run_block(branch, frames)
            finally:
                frames.pop()
        if isinstance(st, Return):
            if st.value is None:
                return UNIT
            return self.eval(st.value, frames)
        raise InterpreterError(f"cannot execute statement {st!r}")

    def eval(self, expr: Expression, frames: List[Dict[str, Value]]) -> Value:
        if isinstance(expr, IntLit):
            return IntV(expr.value)
        if isinstance(expr, BoolLit):
            return BoolV(expr.value)
        if isinstance(expr, EnumLit):
            return EnumV(expr.enum, expr.variant)
        if isinstance(expr, LocalRef):
            for frame in reversed(frames):
                if expr.name in frame:
                    return frame[expr.name]
            raise InterpreterError(f"unknown local '{expr.name}'")
        if isinstance(expr, FieldRef):
            if self.registry.field_named(expr.name) is None:
                raise InterpreterError(f"unknown field '{expr.name}'")
            return self.world.read_field(expr.name)
        if isinstance(expr, Call):
            return self.call(expr, frames)
        raise InterpreterError(f"cannot evaluate expression {expr!r}")

    def call(self, call: Call, frames: List[Dict[str, Value]]) -> Value:
        md = self.registry.method_named(call.method)
        if md is None:
            raise InterpreterError(f"unknown method '{call.method}'")
        if len(call.args) != md.arity:
            raise InterpreterError(
                f"method '{call.method}' takes {md.arity} argument(s), got {len(call.args)}"
            )
        args = [self.eval(a, frames) for a in call.args]
        for arg, (pname, _) in zip(args, md.params):
            if pname not in md.bounds:
                continue
            if not isinstance(arg, IntV):
                raise InterpreterError(
                    f"constraint on non-int argument '{pname}' of '{call.method}'"
                )
            lo, hi = md.bounds[pname]
            if lo is not None and arg.value < lo:
                raise ConstraintViolation(call.method, pname, arg.value, lo, "min")
            if hi is not None and arg.value > hi:
                raise ConstraintViolation(call.method, pname, arg.value, hi, "max")
        self.budget.spend()
        if md.host_impl is None:
            raise HostError(f"method '{call.method}' has no host implementation", call.method)
        return md.host_impl(self.world, args)
