"""Reference type checker, kept as a test oracle for the compiler's checks.

This is the type checker ``mechgen.lang`` had before type inference moved
into ``mechgen.runtime``'s compiler, unchanged: ``typecheck`` walks the
block with a stack of name->type frames and raises the first
``TypeCheckError`` it meets, and ``_check_stmt``, ``_expect``, ``_infer``
and ``_infer_call`` are its statement, agreement, expression and call
steps. The differential tests run ``typecheck`` and
``mechgen.lang.typecheck`` on the same inputs and compare the outcome: no
error, or the error's message, statement index, path and types.
"""

from __future__ import annotations

from typing import Dict, List

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
    Signature,
    Statement,
    TypeCheckError,
    VarDecl,
    lookup,
)
from mechgen.registry import BOOL, INT, VOID, Registry, TypeId, enum_type


def typecheck(block: CodeBlock, sig: Signature, registry: Registry) -> None:
    """Raise TypeCheckError unless ``block`` is a valid body for ``sig``.

    Checks: every expression's type matches its context, every local is a
    parameter or declared earlier in a visible frame (no redeclaration of a
    visible name), field/method references are usable and type-correct,
    assignment targets are writable, branch-local declarations do not escape,
    and a final ``return`` of the right type closes non-void bodies.
    """
    frames: List[Dict[str, TypeId]] = [dict(sig.params)]
    n = len(block.statements)
    for i, st in enumerate(block.statements):
        _check_stmt(st, i, frames, registry, sig, top=True, last=(i == n - 1))
    if sig.return_type != VOID:
        if n == 0 or not isinstance(block.statements[-1], Return):
            raise TypeCheckError(
                f"missing final return of type {sig.return_type.display()}",
                stmt_index=max(n - 1, 0),
                expected=sig.return_type,
            )


def _check_stmt(
    st: Statement,
    i: int,
    frames: List[Dict[str, TypeId]],
    registry: Registry,
    sig: Signature,
    top: bool,
    last: bool,
) -> None:
    if isinstance(st, Return):
        if not (top and last):
            raise TypeCheckError("return is only allowed as the final top-level statement", i)
        if sig.return_type == VOID:
            if st.value is not None:
                raise TypeCheckError("void body cannot return a value", i, expected=VOID)
        else:
            if st.value is None:
                raise TypeCheckError(
                    f"return needs a value of type {sig.return_type.display()}",
                    i,
                    expected=sig.return_type,
                )
            _expect(st.value, sig.return_type, i, frames, registry, "return value")
    elif isinstance(st, VarDecl):
        if not registry.resolves(st.type):
            raise TypeCheckError(f"unknown type '{st.type.display()}'", i)
        if lookup(frames, st.name) is not None:
            raise TypeCheckError(f"redeclaration of visible local '{st.name}'", i)
        _expect(st.init, st.type, i, frames, registry, f"initializer of {st.name}")
        frames[-1][st.name] = st.type
    elif isinstance(st, Assign):
        if isinstance(st.target, LocalTarget):
            target_type = lookup(frames, st.target.name)
            if target_type is None:
                raise TypeCheckError(f"unknown local '{st.target.name}'", i)
        else:
            fd = registry.field_named(st.target.name)
            if fd is None:
                raise TypeCheckError(f"unknown field '{st.target.name}'", i)
            if not fd.usable:
                raise TypeCheckError(f"field '{st.target.name}' is not usable", i)
            if not fd.writable:
                raise TypeCheckError(f"field '{st.target.name}' is read-only", i)
            target_type = fd.type
        _expect(st.value, target_type, i, frames, registry, f"value assigned to {st.target.name}")
    elif isinstance(st, ExprStmt):
        if not isinstance(st.call, Call):
            raise TypeCheckError("statement expression must be a call", i)
        _infer_call(st.call, i, frames, registry, "statement call", allow_void=True)
    elif isinstance(st, IfElse):
        _expect(st.cond, BOOL, i, frames, registry, "if condition")
        for branch in (st.then_block, st.else_block):
            if branch is None:
                continue
            frames.append({})
            for bst in branch.statements:
                _check_stmt(bst, i, frames, registry, sig, top=False, last=False)
            frames.pop()
    else:
        raise TypeCheckError(f"unknown statement kind {type(st).__name__}", i)


def _expect(
    expr: Expression,
    wanted: TypeId,
    i: int,
    frames: List[Dict[str, TypeId]],
    registry: Registry,
    path: str,
) -> None:
    """The one type-agreement check: infer ``expr`` and raise unless it has
    type ``wanted``."""
    found = _infer(expr, i, frames, registry, path)
    if found != wanted:
        raise TypeCheckError(
            f"expected {wanted.display()}, found {found.display()}",
            i,
            path=path,
            expected=wanted,
            found=found,
        )


def _infer(
    expr: Expression,
    i: int,
    frames: List[Dict[str, TypeId]],
    registry: Registry,
    path: str,
) -> TypeId:
    if isinstance(expr, IntLit):
        return INT
    if isinstance(expr, BoolLit):
        return BOOL
    if isinstance(expr, EnumLit):
        e = registry.enum(expr.enum)
        if e is None:
            raise TypeCheckError(f"unknown enum '{expr.enum}'", i, path)
        if expr.variant not in e.variants:
            raise TypeCheckError(
                f"enum '{expr.enum}' has no variant '{expr.variant}'", i, path
            )
        return enum_type(expr.enum)
    if isinstance(expr, LocalRef):
        t = lookup(frames, expr.name)
        if t is None:
            raise TypeCheckError(f"unknown local '{expr.name}'", i, path)
        return t
    if isinstance(expr, FieldRef):
        fd = registry.field_named(expr.name)
        if fd is None:
            raise TypeCheckError(f"unknown field '{expr.name}'", i, path)
        if not fd.usable:
            raise TypeCheckError(f"field '{expr.name}' is not usable", i, path)
        return fd.type
    if isinstance(expr, Call):
        return _infer_call(expr, i, frames, registry, path, allow_void=False)
    raise TypeCheckError(f"unknown expression kind {type(expr).__name__}", i, path)


def _infer_call(
    call: Call,
    i: int,
    frames: List[Dict[str, TypeId]],
    registry: Registry,
    path: str,
    allow_void: bool,
) -> TypeId:
    md = registry.method_named(call.method)
    if md is None:
        raise TypeCheckError(f"unknown method '{call.method}'", i, path)
    if not md.usable:
        raise TypeCheckError(f"method '{call.method}' is not usable", i, path)
    if len(call.args) != md.arity:
        raise TypeCheckError(
            f"method '{call.method}' takes {md.arity} argument(s), got {len(call.args)}",
            i,
            path,
        )
    for k, (arg, (_, ptype)) in enumerate(zip(call.args, md.params)):
        _expect(arg, ptype, i, frames, registry, f"arg {k} of {call.method}")
    if md.return_type == VOID and not allow_void:
        raise TypeCheckError(f"void call '{call.method}' used as a value", i, path)
    return md.return_type
