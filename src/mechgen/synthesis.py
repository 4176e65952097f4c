"""Seeded, type-directed random generation of code blocks.

Blocks are generated in execution order: each statement is built
first-to-last so that variable declarations extend the scope seen by later
lines. Whenever an expression of some type is needed, the candidate set comes
from ``Registry.candidates_for``; every non-literal candidate carries weight 1
and the single literal option carries ``literal_weight``, so the literal is
picked with probability ``literal_weight / (n + literal_weight)`` against n
non-literal candidates, and the concrete literal value is then drawn uniformly
from its (possibly constraint-narrowed) space.

Depth contract: every statement-level expression (a VarDecl initializer, an
Assign value, an IfElse condition, a Return value, and the ExprStmt call node
itself) is generated at depth 0, and the arguments of a call generated at
depth k are generated at depth k + 1. Once depth reaches
``max_recursion_depth`` only grounded candidates remain: no methods with
parameters.

Generation is a pure function of (signature, registry, config): the same seed
reproduces the same block byte-for-byte.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .lang import (
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
)
from .registry import (
    BOOL,
    Bounds,
    INT,
    VOID,
    FieldProducer,
    LiteralOption,
    LocalProducer,
    MethodDescriptor,
    MethodProducer,
    Producer,
    Registry,
    TypeId,
    TypeKind,
)

# Hard cap on if/else nesting, preventing degenerate towers.
MAX_NESTING = 3


class StatementKind(Enum):
    VAR_DECL = "VarDecl"
    ASSIGN = "Assign"
    EXPR_STMT = "ExprStmt"
    IF_ELSE = "IfElse"


ALL_STATEMENT_KINDS: FrozenSet[StatementKind] = frozenset(StatementKind)


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class GenerationConfig:
    seed: int = 0
    min_lines: int = 1
    max_lines: int = 3
    max_recursion_depth: int = 2
    literal_weight: float = 1.0
    int_literal_range: Tuple[int, int] = (-100, 100)
    else_probability: float = 0.25
    max_retries_per_line: int = 20
    statement_kinds_enabled: FrozenSet[StatementKind] = ALL_STATEMENT_KINDS

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "statement_kinds_enabled", frozenset(self.statement_kinds_enabled)
        )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if not 1 <= self.min_lines <= self.max_lines:
            raise ConfigError("line bounds must satisfy 1 <= min_lines <= max_lines")
        if self.max_recursion_depth < 0:
            raise ConfigError("max_recursion_depth must be >= 0")
        if not (math.isfinite(self.literal_weight) and self.literal_weight >= 0):
            raise ConfigError("literal_weight must be finite and >= 0")
        lo, hi = self.int_literal_range
        if lo > hi:
            raise ConfigError("int_literal_range must satisfy lo <= hi")
        if not 0.0 <= self.else_probability <= 1.0:
            raise ConfigError("else_probability must lie in [0, 1]")
        if self.max_retries_per_line < 1:
            raise ConfigError("max_retries_per_line must be >= 1")
        if not self.statement_kinds_enabled:
            raise ConfigError("at least one statement kind must be enabled")


_CONFIG_KEYS = {
    "seed",
    "min_lines",
    "max_lines",
    "max_recursion_depth",
    "literal_weight",
    "int_literal_min",
    "int_literal_max",
    "else_probability",
    "max_retries_per_line",
    "statement_kinds",
}

_INT_KEYS = {
    "seed",
    "min_lines",
    "max_lines",
    "max_recursion_depth",
    "int_literal_min",
    "int_literal_max",
    "max_retries_per_line",
}


def load_config(text: str) -> GenerationConfig:
    """Parse a ``key = value`` config file; unknown keys are an error."""
    values: Dict[str, object] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            if key in _INT_KEYS:
                values[key] = int(value)
            elif key in ("literal_weight", "else_probability"):
                values[key] = float(value)
            else:  # statement_kinds
                kinds = []
                for token in value.split(","):
                    token = token.strip()
                    try:
                        kinds.append(StatementKind(token))
                    except ValueError:
                        raise ConfigError(
                            f"line {lineno}: unknown statement kind '{token}'"
                        ) from None
                values[key] = frozenset(kinds)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for '{key}'") from None
    kwargs: Dict[str, object] = {}
    lo = values.pop("int_literal_min", None)
    hi = values.pop("int_literal_max", None)
    if (lo is None) != (hi is None):
        raise ConfigError("int_literal_min and int_literal_max must be set together")
    if lo is not None:
        kwargs["int_literal_range"] = (lo, hi)
    for key, value in values.items():
        target = "statement_kinds_enabled" if key == "statement_kinds" else key
        kwargs[target] = value
    return GenerationConfig(**kwargs)  # type: ignore[arg-type]


def load_config_file(path: str) -> GenerationConfig:
    return load_config(Path(path).read_text(encoding="utf-8"))


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
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None

    def flatten(self) -> List[Tuple[str, TypeId]]:
        """All visible locals, outermost frame first (innermost last)."""
        out: List[Tuple[str, TypeId]] = []
        for frame in self.frames:
            out.extend(frame.items())
        return out


class GenerationError(Exception):
    pass


class NoProducer(GenerationError):
    """No candidate can produce a value of the wanted type here."""

    def __init__(self, wanted: TypeId):
        super().__init__(f"no producer for type {wanted.display()}")
        self.wanted = wanted


class InfeasibleStatement(GenerationError):
    """Every enabled statement kind is infeasible in the current scope."""


class Exhausted(GenerationError):
    """A line could not be filled within the retry budget."""

    def __init__(self, line_index: int, failed: Sequence[TypeId], detail: str = ""):
        wanted = ", ".join(sorted({t.display() for t in failed})) or "none"
        message = f"line {line_index}: no feasible statement (failed type requests: {wanted})"
        if detail:
            message += f"; {detail}"
        super().__init__(message)
        self.line_index = line_index
        self.failed = tuple(failed)


def generate_expression(
    wanted: TypeId,
    scope: Scope,
    registry: Registry,
    config: GenerationConfig,
    rng: random.Random,
    depth: int = 0,
    interval: Optional[Bounds] = None,
) -> Expression:
    """Draw one expression of type ``wanted`` from the design space.

    ``interval`` carries the min/max constraint of the argument position being
    filled, if any; it narrows the literal value range only at this node.
    """
    return _Gen(registry, config, rng).expression(wanted, scope, depth, interval)


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
        if isinstance(chosen, FieldProducer):
            return FieldRef(chosen.field.name)
        if isinstance(chosen, LocalProducer):
            return LocalRef(chosen.name)
        assert isinstance(chosen, MethodProducer)
        return self.call(chosen.method, scope, depth)

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


def generate_statement(
    scope: Scope,
    registry: Registry,
    config: GenerationConfig,
    rng: random.Random,
    nesting: int = 0,
    fresh_name_start: int = 0,
) -> Statement:
    """Draw one statement of a uniformly-chosen feasible kind.

    Mutates ``scope`` when the statement declares a variable. Fresh locals
    are named v<fresh_name_start>, v<fresh_name_start+1>, ...
    """
    gen = _Gen(registry, config, rng, next_local=fresh_name_start)
    return _generate_statement(scope, gen, nesting)


def generate_block(sig: Signature, registry: Registry, config: GenerationConfig) -> CodeBlock:
    """Generate a well-typed body for ``sig`` over the sealed registry.

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


def config_with_seed(config: GenerationConfig, seed: int) -> GenerationConfig:
    return replace(config, seed=seed)
