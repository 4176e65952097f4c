"""Structural scanners over code blocks, used by invariant tests.

Depth annotation mirrors the generator's contract: the root of every
statement-level expression (VarDecl init, Assign value, IfElse cond, Return
value, and the ExprStmt call itself) sits at depth 0, and the arguments of a
call at depth k sit at depth k + 1.
"""

from typing import Iterator, List, Set, Tuple

from mechgen.lang import (
    Assign,
    Call,
    CodeBlock,
    Expression,
    ExprStmt,
    FieldRef,
    FieldTarget,
    IfElse,
    IntLit,
    LocalRef,
    Return,
    Statement,
    VarDecl,
)
from mechgen.registry import Registry


def iter_expressions(block: CodeBlock) -> Iterator[Tuple[Expression, int, bool]]:
    """Yield (expression, depth, is_argument_position) over the whole block."""
    for st in block.statements:
        for root in _stmt_roots(st):
            yield from _walk(root, 0, False)
        if isinstance(st, IfElse):
            for branch in (st.then_block, st.else_block):
                if branch is not None:
                    yield from iter_expressions(branch)


def _stmt_roots(st: Statement) -> List[Expression]:
    if isinstance(st, VarDecl):
        return [st.init]
    if isinstance(st, Assign):
        return [st.value]
    if isinstance(st, ExprStmt):
        return [st.call]
    if isinstance(st, IfElse):
        return [st.cond]
    if isinstance(st, Return):
        return [st.value] if st.value is not None else []
    return []


def _walk(expr: Expression, depth: int, in_arg: bool) -> Iterator[Tuple[Expression, int, bool]]:
    yield expr, depth, in_arg
    if isinstance(expr, Call):
        for arg in expr.args:
            yield from _walk(arg, depth + 1, True)


def max_call_arity_depth(block: CodeBlock) -> int:
    """Deepest depth at which a call with arity >= 1 occurs (-1 if none)."""
    deepest = -1
    for expr, depth, _ in iter_expressions(block):
        if isinstance(expr, Call) and len(expr.args) >= 1:
            deepest = max(deepest, depth)
    return deepest


def has_parameterised_call_in_arg_position(block: CodeBlock) -> bool:
    for expr, _, in_arg in iter_expressions(block):
        if in_arg and isinstance(expr, Call) and len(expr.args) >= 1:
            return True
    return False


def referenced_fields(block: CodeBlock) -> Set[str]:
    return {e.name for e, _, _ in iter_expressions(block) if isinstance(e, FieldRef)} | {
        st.target.name
        for st in iter_statements(block)
        if isinstance(st, Assign) and isinstance(st.target, FieldTarget)
    }


def referenced_methods(block: CodeBlock) -> Set[str]:
    return {e.method for e, _, _ in iter_expressions(block) if isinstance(e, Call)}


def iter_statements(block: CodeBlock) -> Iterator[Statement]:
    for st in block.statements:
        yield st
        if isinstance(st, IfElse):
            for branch in (st.then_block, st.else_block):
                if branch is not None:
                    yield from iter_statements(branch)


def max_if_nesting(block: CodeBlock, level: int = 0) -> int:
    deepest = level
    for st in block.statements:
        if isinstance(st, IfElse):
            for branch in (st.then_block, st.else_block):
                if branch is not None:
                    deepest = max(deepest, max_if_nesting(branch, level + 1))
    return deepest


def scope_violations(block: CodeBlock, params: Set[str]) -> List[str]:
    """Local references not bound by a parameter or an earlier declaration."""
    problems: List[str] = []

    def visit_block(b: CodeBlock, frames: List[Set[str]]) -> None:
        frames.append(set())
        for st in b.statements:
            for root in _stmt_roots(st):
                check_expr(root, frames)
            if isinstance(st, VarDecl):
                frames[-1].add(st.name)
            if isinstance(st, Assign) and not isinstance(st.target, FieldTarget):
                if not any(st.target.name in f for f in frames):
                    problems.append(f"assign target '{st.target.name}' not in scope")
            if isinstance(st, IfElse):
                for branch in (st.then_block, st.else_block):
                    if branch is not None:
                        visit_block(branch, frames)
        frames.pop()

    def check_expr(expr: Expression, frames: List[Set[str]]) -> None:
        if isinstance(expr, LocalRef):
            if not any(expr.name in f for f in frames):
                problems.append(f"local '{expr.name}' referenced before declaration")
        if isinstance(expr, Call):
            for arg in expr.args:
                check_expr(arg, frames)

    visit_block(block, [set(params)])
    return problems


def constraint_violating_literals(block: CodeBlock, registry: Registry) -> List[Tuple[str, str, int]]:
    """(method, param, value) for int literal args outside a declared bound."""
    out: List[Tuple[str, str, int]] = []
    for expr, _, _ in iter_expressions(block):
        if not isinstance(expr, Call):
            continue
        md = registry.method_named(expr.method)
        if md is None:
            continue
        for arg, (pname, _) in zip(expr.args, md.params):
            if not isinstance(arg, IntLit):
                continue
            lo, hi = md.bounds.get(pname, (None, None))
            if (lo is not None and arg.value < lo) or (hi is not None and arg.value > hi):
                out.append((expr.method, pname, arg.value))
    return out
