"""Reference block generator, kept as a test oracle for ``mechgen.synthesis``.

This is the generator as it was before it drew from per-registry option
tables, unchanged: for every statement ``_Gen.options`` asks
``Registry.candidates_for`` for the producers of each type a kind could use
(all three value types for a VarDecl), then ``_Gen.draw`` sums the weights and
walks them to pick one. ``Scope`` is the old name->type frame stack without
per-type local lists. The differential tests run ``reference_generate_block``
and ``mechgen.synthesis.generate_block`` on the same inputs and compare the
pretty-printed blocks, or the ``GenerationError`` type and message.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

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
    BoolLit,
    EnumLit,
    LocalRef,
    LocalTarget,
    LValue,
    Return,
    Signature,
    Statement,
    VarDecl,
    lookup,
)
from mechgen.registry import (
    BOOL,
    Bounds,
    INT,
    VOID,
    FieldDescriptor,
    LiteralOption,
    LocalProducer,
    MethodDescriptor,
    Producer,
    Registry,
    TypeId,
    TypeKind,
)
from mechgen.synthesis import (
    MAX_NESTING,
    Exhausted,
    GenerationConfig,
    InfeasibleStatement,
    NoProducer,
    StatementKind,
)


class Scope:
    """Stack of name->type frames; frame 0 holds the signature parameters."""

    def __init__(self, params: Sequence[Tuple[str, TypeId]] = ()):
        self.frames: List[Dict[str, TypeId]] = [dict(params)]

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        self.frames.pop()

    def declare(self, name: str, t: TypeId) -> None:
        assert self.lookup(name) is None, f"scope already binds '{name}'"
        self.frames[-1][name] = t

    def lookup(self, name: str) -> Optional[TypeId]:
        return lookup(self.frames, name)

    def flatten(self) -> List[Tuple[str, TypeId]]:
        """All visible locals, outermost frame first (innermost last)."""
        out: List[Tuple[str, TypeId]] = []
        for frame in self.frames:
            out.extend(frame.items())
        return out


# A producer with the weight it is drawn with.
Options = List[Tuple[Producer, float]]


@dataclass
class _Gen:
    registry: Registry
    config: GenerationConfig
    rng: random.Random
    next_local: int = 0

    def fresh_name(self) -> str:
        name = f"v{self.next_local}"
        self.next_local += 1
        return name

    def literal_range(self, interval: Optional[Bounds]) -> Tuple[int, int]:
        lo, hi = self.config.int_literal_range
        if interval is not None:
            cmin, cmax = interval
            if cmin is not None:
                lo = max(lo, cmin)
            if cmax is not None:
                hi = min(hi, cmax)
        return lo, hi

    def options(
        self, wanted: TypeId, scope: Scope, depth: int = 0, interval: Optional[Bounds] = None
    ) -> Options:
        """The weighted producers an expression of ``wanted`` is drawn from.

        A non-literal weighs 1. The literal option weighs ``literal_weight``
        and is live only when that is positive and, for int, when the literal
        range narrowed by ``interval`` is not empty.
        """
        grounded = depth >= self.config.max_recursion_depth
        out: Options = []
        for cand in self.registry.candidates_for(wanted, scope.flatten(), grounded_only=grounded):
            if not isinstance(cand, LiteralOption):
                out.append((cand, 1.0))
                continue
            lo, hi = self.literal_range(interval)
            if self.config.literal_weight > 0 and (wanted != INT or lo <= hi):
                out.append((cand, self.config.literal_weight))
        return out

    def expression(
        self, wanted: TypeId, scope: Scope, depth: int = 0, interval: Optional[Bounds] = None
    ) -> Expression:
        options = self.options(wanted, scope, depth, interval)
        return self.draw(wanted, options, scope, depth, interval)

    def draw(
        self,
        wanted: TypeId,
        options: Options,
        scope: Scope,
        depth: int = 0,
        interval: Optional[Bounds] = None,
    ) -> Expression:
        """Draw an expression of ``wanted`` from its ``options``."""
        if not options:
            raise NoProducer(wanted)
        roll = self.rng.random() * sum(w for _, w in options)
        chosen = options[-1][0]
        for cand, weight in options:
            roll -= weight
            if roll < 0:
                chosen = cand
                break
        if isinstance(chosen, LiteralOption):
            return self.literal(wanted, interval)
        if isinstance(chosen, FieldDescriptor):
            return FieldRef(chosen.name)
        if isinstance(chosen, LocalProducer):
            return LocalRef(chosen.name)
        assert isinstance(chosen, MethodDescriptor)
        return self.call(chosen, scope, depth)

    def literal(self, wanted: TypeId, interval: Optional[Bounds]) -> Expression:
        if wanted == INT:
            return IntLit(self.rng.randint(*self.literal_range(interval)))
        if wanted == BOOL:
            return BoolLit(self.rng.random() < 0.5)
        assert wanted.kind is TypeKind.ENUM
        enum_def = self.registry.enum(wanted.enum_name or "")
        if enum_def is None:
            raise NoProducer(wanted)
        return EnumLit(enum_def.name, enum_def.variants[self.rng.randrange(len(enum_def.variants))])

    def call(self, method: MethodDescriptor, scope: Scope, depth: int) -> Call:
        args = tuple(
            self.expression(ptype, scope, depth + 1, method.literal_interval(pname))
            for pname, ptype in method.params
        )
        return Call(method.name, args)


# --------------------------------------------------------------------------
# Statement and block generation
#
# Each enabled statement kind lists its choices once per statement: the
# declarable types with their initializer options, the assignment targets,
# the methods callable for effect, or the if-condition options. The kind is
# drawn among those with a choice, then the choice among that kind's list.


def _vardecl_choices(scope: Scope, gen: _Gen, nesting: int) -> List[Tuple[TypeId, Options]]:
    choices = [(t, gen.options(t, scope)) for t in gen.registry.value_types()]
    return [(t, options) for t, options in choices if options]


def _assign_choices(scope: Scope, gen: _Gen, nesting: int) -> List[Tuple[LValue, TypeId]]:
    # A usable field or a visible local is itself a producer of its type, so
    # every target has a value to draw.
    out: List[Tuple[LValue, TypeId]] = [
        (FieldTarget(f.name), f.type)
        for f in gen.registry.fields.values()
        if f.usable and f.writable
    ]
    out.extend((LocalTarget(name), t) for name, t in scope.flatten())
    return out


def _call_choices(scope: Scope, gen: _Gen, nesting: int) -> List[MethodDescriptor]:
    # The statement call node sits at depth 0, so with max_recursion_depth 0
    # only grounded (zero-arg) methods may be invoked for effect.
    grounded = gen.config.max_recursion_depth == 0
    methods = gen.registry.methods.values()
    return [m for m in methods if m.usable and not (grounded and m.arity >= 1)]


def _condition_choices(scope: Scope, gen: _Gen, nesting: int) -> Options:
    return gen.options(BOOL, scope) if nesting < MAX_NESTING else []


_CHOICES = {
    StatementKind.VAR_DECL: _vardecl_choices,
    StatementKind.ASSIGN: _assign_choices,
    StatementKind.EXPR_STMT: _call_choices,
    StatementKind.IF_ELSE: _condition_choices,
}


def _generate_statement(scope: Scope, gen: _Gen, nesting: int) -> Statement:
    table = []
    for kind in StatementKind:
        if kind in gen.config.statement_kinds_enabled:
            choices = _CHOICES[kind](scope, gen, nesting)
            if choices:
                table.append((kind, choices))
    if not table:
        raise InfeasibleStatement("no feasible statement kind")
    kind, choices = table[gen.rng.randrange(len(table))]
    if kind is StatementKind.IF_ELSE:
        cond = gen.draw(BOOL, choices, scope)
        then_block = _generate_nested_block(scope, gen, nesting + 1)
        else_block = None
        if gen.rng.random() < gen.config.else_probability:
            else_block = _generate_nested_block(scope, gen, nesting + 1)
        return IfElse(cond, then_block, else_block)
    choice = choices[gen.rng.randrange(len(choices))]
    if kind is StatementKind.VAR_DECL:
        decl_type, options = choice
        init = gen.draw(decl_type, options, scope)
        name = gen.fresh_name()
        scope.declare(name, decl_type)
        return VarDecl(decl_type, name, init)
    if kind is StatementKind.ASSIGN:
        target, target_type = choice
        return Assign(target, gen.expression(target_type, scope))
    assert kind is StatementKind.EXPR_STMT
    return ExprStmt(gen.call(choice, scope, depth=0))


def _generate_nested_block(scope: Scope, gen: _Gen, nesting: int) -> CodeBlock:
    lines = gen.rng.randint(1, gen.config.max_lines)
    scope.push()
    try:
        stmts = tuple(_generate_statement(scope, gen, nesting) for _ in range(lines))
    finally:
        scope.pop()
    return CodeBlock(stmts)



def reference_generate_block(sig: Signature, registry: Registry, config: GenerationConfig) -> CodeBlock:
    """Generate a well-typed body for ``sig`` over the registry.

    The number of top-level statements is drawn uniformly from
    [min_lines, max_lines]; a final return is appended for non-void
    signatures. Each top-level line gets up to ``max_retries_per_line``
    attempts before generation fails with ``Exhausted``.
    """
    gen = _Gen(registry, config, random.Random(config.seed))
    scope = Scope(sig.params)
    n_lines = gen.rng.randint(config.min_lines, config.max_lines)
    stmts: List[Statement] = []
    for index in range(n_lines):
        stmts.append(
            _with_retries(index, gen, lambda: _generate_statement(scope, gen, nesting=0))
        )
    if sig.return_type != VOID:
        value = _with_retries(
            n_lines,
            gen,
            lambda: gen.expression(sig.return_type, scope),
            detail="return value",
        )
        stmts.append(Return(value))
    return CodeBlock(tuple(stmts))


def _with_retries(line_index: int, gen: _Gen, attempt, detail: str = ""):
    failures: List[TypeId] = []
    for _ in range(gen.config.max_retries_per_line):
        try:
            return attempt()
        except NoProducer as exc:
            failures.append(exc.wanted)
        except InfeasibleStatement:
            # Scope only grows within a line, so this cannot be retried away.
            raise Exhausted(line_index, failures, "no feasible statement kind") from None
    raise Exhausted(line_index, failures, detail)


