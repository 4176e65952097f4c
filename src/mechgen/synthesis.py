"""Seeded, type-directed random generation of code blocks.

Blocks are generated in execution order: each statement is built
first-to-last so that variable declarations extend the scope seen by later
lines. An expression of some type is drawn from its producers: the usable
fields, the visible locals of the type (``Scope.by_type``), the usable methods,
then one literal option. All but the locals come from a table that the
generator builds once per type and grounding. A non-literal weighs 1 and the
literal ``literal_weight``, so the literal is picked with probability
``literal_weight / (n + literal_weight)`` against n non-literals; its value
is then drawn uniformly from its (possibly constraint-narrowed) space. Only
the drawn statement's expressions are built.

Depth contract: every statement-level expression (a VarDecl initializer, an
Assign value, an IfElse condition, a Return value, and the ExprStmt call node
itself) is generated at depth 0, and the arguments of a call generated at
depth k are generated at depth k + 1. Once depth reaches
``max_recursion_depth`` only grounded candidates remain: no methods with
parameters.

Generation is a pure function of (signature, registry, config): the same seed
reproduces the same block byte-for-byte.

A run builds one generator, ``block_generator(sig, registry, config)``, and
calls it once per seed. Built once per run: the config's numbers, the
registry's value types and which of them have a producer in every scope,
assignment targets and methods callable for effect, the producers of each
value type at each grounding, the enabled statement kinds, each
method's parameter types and bounds, and one ``random.Random``.
Nothing outlives the generator. Built per seed: the generator reseeds that
``Random`` (the state ``Random(seed)`` starts in), restarts the local names
at v0 and starts a ``Scope`` from the signature's parameters.
``generate_block`` is that generator called for ``config.seed``.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from .lang import (
    INT64_MAX,
    INT64_MIN,
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
    Return,
    Signature,
    Statement,
    VarDecl,
    decimal_int,
    lookup,
)
from .registry import (
    BOOL,
    Bounds,
    INT,
    VOID,
    FieldDescriptor,
    LiteralOption,
    MethodDescriptor,
    Registry,
    TypeId,
    TypeKind,
)

SEED_LIMIT = 2**64  # seeds are 64-bit unsigned integers

# Hard cap on if/else nesting, preventing degenerate towers.
MAX_NESTING = 3

# Largest accepted ``max_lines``. Every nested block draws up to
# ``max_lines`` lines at each of MAX_NESTING levels, so a block's size grows
# much faster than ``max_lines`` itself. Measured with the 3x3 game registry on
# 2 cores (Python 3.11.7, best of 3): with default.cfg, the largest block of
# 1,000 seeds has 1,641 lines (0.024 s) at 16, 2,782 lines (0.045 s) at 20
# and, over 200 seeds, 12,386 lines (0.16 s) at 32; with every if taking an
# else and only if/call statements, the largest of 100 seeds has 18,777 lines
# (0.26 s) at 16 and 39,488 lines (0.96 s) at 20.
MAX_LINES = 16


class StatementKind(Enum):
    VAR_DECL = "VarDecl"
    ASSIGN = "Assign"
    EXPR_STMT = "ExprStmt"
    IF_ELSE = "IfElse"


ALL_STATEMENT_KINDS: FrozenSet[StatementKind] = frozenset(StatementKind)
# The kinds as plain names for the statement loop: in CPython 3.11 reading an
# Enum member through its class costs about 100 ns.
_VAR_DECL, _ASSIGN, _EXPR_STMT, _IF_ELSE = (
    StatementKind.VAR_DECL, StatementKind.ASSIGN, StatementKind.EXPR_STMT, StatementKind.IF_ELSE)


class ConfigError(Exception):
    pass


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_seed(seed: int) -> None:
    if not _is_int(seed):
        raise ConfigError("seed must be an integer")
    if not 0 <= seed < SEED_LIMIT:
        raise ConfigError("seed must fit in 64 unsigned bits")


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
        kinds = self.statement_kinds_enabled
        if not (isinstance(kinds, (set, frozenset, list, tuple))
                and all(isinstance(kind, StatementKind) for kind in kinds)):
            raise ConfigError("statement_kinds_enabled must hold StatementKind members")
        object.__setattr__(self, "statement_kinds_enabled", frozenset(kinds))
        for name in ("min_lines", "max_lines", "max_recursion_depth", "max_retries_per_line"):
            if not _is_int(getattr(self, name)):
                raise ConfigError(f"{name} must be an integer")
        for name in _NUMBER_KEYS:
            if not (_is_int(getattr(self, name)) or isinstance(getattr(self, name), float)):
                raise ConfigError(f"{name} must be an int or a float")
        pair = self.int_literal_range
        if not (isinstance(pair, tuple) and len(pair) == 2 and all(map(_is_int, pair))):
            raise ConfigError("int_literal_range must be a pair of integers")
        _check_seed(self.seed)
        if not 1 <= self.min_lines <= self.max_lines:
            raise ConfigError("line bounds must satisfy 1 <= min_lines <= max_lines")
        if self.max_lines > MAX_LINES:
            raise ConfigError(f"max_lines must be <= {MAX_LINES}")
        if self.max_recursion_depth < 0:
            raise ConfigError("max_recursion_depth must be >= 0")
        if not 0 <= self.literal_weight <= sys.float_info.max:  # an int past it has no float
            raise ConfigError("literal_weight must be finite and >= 0")
        lo, hi = pair
        if lo > hi:
            raise ConfigError("int_literal_range must satisfy lo <= hi")
        if lo < INT64_MIN or hi > INT64_MAX:
            raise ConfigError(f"int_literal_range must lie within [{INT64_MIN}, {INT64_MAX}]")
        if not 0.0 <= self.else_probability <= 1.0:
            raise ConfigError("else_probability must lie in [0, 1]")
        if self.max_retries_per_line < 1:
            raise ConfigError("max_retries_per_line must be >= 1")
        if not self.statement_kinds_enabled:
            raise ConfigError("at least one statement kind must be enabled")


_INT_KEYS = {
    "seed",
    "min_lines",
    "max_lines",
    "max_recursion_depth",
    "int_literal_min",
    "int_literal_max",
    "max_retries_per_line",
}
_NUMBER_KEYS = ("literal_weight", "else_probability")  # in the order they are checked
_CONFIG_KEYS = _INT_KEYS.union(_NUMBER_KEYS, {"statement_kinds"})


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
                values[key] = decimal_int(value)
            elif key in _NUMBER_KEYS:
                if not value.isascii() or "_" in value:
                    raise ValueError(value)  # float() reads "1_0" as 10.0
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
    """Stack of name->type frames; frame 0 holds the signature parameters.
    ``by_type`` maps a type to its visible locals' names in ``flatten()``
    order, so the innermost frame's names end each list."""

    def __init__(self, params: Sequence[Tuple[str, TypeId]] = ()):
        self.frames: List[Dict[str, TypeId]] = [dict(params)]
        self.by_type: Dict[TypeId, List[str]] = {}
        for name, t in self.frames[0].items():
            self.by_type.setdefault(t, []).append(name)

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        for t in self.frames.pop().values():
            self.by_type[t].pop()

    def declare(self, name: str, t: TypeId) -> None:
        assert self.lookup(name) is None, f"scope already binds '{name}'"
        self.frames[-1][name] = t
        self.by_type.setdefault(t, []).append(name)

    def lookup(self, name: str) -> Optional[TypeId]:
        return lookup(self.frames, name)

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
    """Draw one expression of type ``wanted`` from the design space: only
    a local produces a type that is no value type here (void included).

    ``interval`` carries the min/max constraint of the argument position being
    filled, if any; it narrows the literal value range only at this node.
    """
    return _Gen(registry, config, rng).expression(wanted, scope, depth, interval)


# A method as the generator calls it: its name and, per parameter in
# signature order, the parameter's type and bounds (None: it has none).
_Method = Tuple[str, Tuple[Tuple[TypeId, Optional[Bounds]], ...]]

# The static producers of one type at one grounding: the usable fields'
# names and methods in registry order, and whether the literal is live.
_Table = Tuple[Tuple[str, ...], Tuple[_Method, ...], bool]
# The table of a type that is no value type here (a signature may name one).
_NO_PRODUCERS: _Table = ((), (), False)


def _method(m: MethodDescriptor) -> _Method:
    return m.name, tuple((ptype, m.bounds.get(pname)) for pname, ptype in m.params)


@dataclass
class _Gen:
    """A generator for one (registry, config): everything that does not
    depend on the seed, resolved when it is built. ``producers`` holds, per
    grounding, one table per value type; any other type has none. Whether a
    statement-level expression of a value type has a producer in every scope
    (a field, a method or a live literal at depth 0; with no interval, an int
    literal's range is the config's) is resolved at once. The config's numbers
    are read once, here. ``rng`` and ``next_local`` are the draw state;
    ``block_generator`` reseeds and resets them per block."""

    registry: Registry
    config: GenerationConfig
    rng: random.Random
    next_local: int = 0

    def __post_init__(self) -> None:
        registry, config = self.registry, self.config
        self.max_depth = config.max_recursion_depth
        self.literal_weight = config.literal_weight
        self.int_range = config.int_literal_range
        self.else_probability = config.else_probability
        fields = registry.fields.values()
        self.targets = tuple((FieldTarget(f.name), f.type) for f in fields if f.usable and f.writable)
        # The statement call node sits at depth 0, so with max_recursion_depth
        # 0 only grounded (zero-arg) methods may be invoked for effect.
        grounded = self.max_depth == 0
        self.calls = tuple(_method(m) for m in registry.methods.values()
                           if m.usable and not (grounded and m.params))
        # Each value type's table, indexed by grounding: False below
        # max_recursion_depth, True at it.
        value_types = registry.value_types()
        self.producers: Tuple[Dict[TypeId, _Table], ...] = tuple(
            {t: self.table(t, at_max) for t in value_types} for at_max in (False, True))
        enabled = config.statement_kinds_enabled
        self.var_decl = StatementKind.VAR_DECL in enabled
        self.assign = StatementKind.ASSIGN in enabled
        self.expr_stmt = StatementKind.EXPR_STMT in enabled
        self.if_else = StatementKind.IF_ELSE in enabled
        # Each value type, and whether it has a static producer at depth 0.
        at_zero = self.producers[grounded]
        self.decl_types = tuple((t, any(at_zero[t])) for t in value_types)
        self.static_bool = any(at_zero[BOOL])

    def fresh_name(self) -> str:
        name = f"v{self.next_local}"
        self.next_local += 1
        return name

    def literal_range(self, interval: Optional[Bounds]) -> Tuple[int, int]:
        lo, hi = self.int_range
        cmin, cmax = interval or (None, None)
        return (lo if cmin is None else max(lo, cmin)), (hi if cmax is None else min(hi, cmax))

    def table(self, wanted: TypeId, grounded: bool) -> _Table:
        cands = self.registry.candidates_for(wanted, grounded_only=grounded)
        return (
            tuple(c.name for c in cands if isinstance(c, FieldDescriptor)),
            tuple(_method(c) for c in cands if isinstance(c, MethodDescriptor)),
            self.literal_weight > 0 and any(isinstance(c, LiteralOption) for c in cands),
        )

    def expression(
        self, wanted: TypeId, scope: Scope, depth: int = 0, interval: Optional[Bounds] = None
    ) -> Expression:
        """Draw one producer of ``wanted`` and build its expression.

        Once ``depth`` reaches ``max_recursion_depth`` only zero-arg methods
        remain. An int literal is live only if ``interval`` leaves its range
        nonempty. The roll's floor indexes the non-literals and a roll past
        them is the literal: the same pick as subtracting each weight in turn,
        since 1.0 off a float >= 1 is exact and ``random() * n`` stays below n.
        """
        fields, methods, literal = self.producers[depth >= self.max_depth].get(wanted, _NO_PRODUCERS)
        local_names = scope.by_type.get(wanted, ())
        if literal and interval is not None and wanted == INT:  # else the config's range
            lo, hi = self.literal_range(interval)
            literal = lo <= hi
        n_fields = len(fields)
        n_named = n_fields + len(local_names)
        n = n_named + len(methods)
        if literal:
            total = n + self.literal_weight
        elif n:
            total = n
        else:
            raise NoProducer(wanted)
        pick = int(self.rng.random() * total)
        if pick >= n:
            return self.literal(wanted, interval)
        if pick < n_fields:
            return FieldRef(fields[pick])
        if pick < n_named:
            return LocalRef(local_names[pick - n_fields])
        return self.call(methods[pick - n_named], scope, depth)

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

    def call(self, method: _Method, scope: Scope, depth: int) -> Call:
        name, params = method
        depth += 1
        return Call(name, tuple(self.expression(ptype, scope, depth, interval)
                                for ptype, interval in params))


# --------------------------------------------------------------------------
# Statement and block generation
#
# A statement's kind is drawn uniformly among the enabled kinds with a
# choice, then the choice among that kind's: the declarable types (those with
# a producer), the assignment targets, the methods callable for effect, or
# the if (when a bool condition has a producer). No options are built for
# this; only the drawn choice's expressions are generated.


def _generate_statement(scope: Scope, gen: _Gen, nesting: int) -> Statement:
    feasible: List[StatementKind] = []
    decl_types: List[TypeId] = []
    # A type has a producer here if it has a static one or a visible local.
    locals_of = scope.by_type
    if gen.var_decl:
        decl_types = [t for t, static in gen.decl_types if static or locals_of.get(t)]
        if decl_types:
            feasible.append(_VAR_DECL)
    # A usable field or a visible local is itself a producer of its type, so
    # every target has a value to draw.
    n_targets = len(gen.targets) + sum(map(len, scope.frames))
    if gen.assign and n_targets:
        feasible.append(_ASSIGN)
    if gen.expr_stmt and gen.calls:
        feasible.append(_EXPR_STMT)
    if gen.if_else and nesting < MAX_NESTING and (gen.static_bool or locals_of.get(BOOL)):
        feasible.append(_IF_ELSE)
    if not feasible:
        raise InfeasibleStatement("no feasible statement kind")
    kind = feasible[gen.rng.randrange(len(feasible))]
    if kind is _IF_ELSE:
        cond = gen.expression(BOOL, scope)
        then_block = _generate_nested_block(scope, gen, nesting + 1)
        else_block = None
        if gen.rng.random() < gen.else_probability:
            else_block = _generate_nested_block(scope, gen, nesting + 1)
        return IfElse(cond, then_block, else_block)
    if kind is _VAR_DECL:
        decl_type = decl_types[gen.rng.randrange(len(decl_types))]
        init = gen.expression(decl_type, scope)
        name = gen.fresh_name()
        scope.declare(name, decl_type)
        return VarDecl(decl_type, name, init)
    if kind is _ASSIGN:
        k = gen.rng.randrange(n_targets)  # the fields, then the locals in ``flatten()`` order
        if k < len(gen.targets):
            target, target_type = gen.targets[k]
        else:
            name, target_type = scope.flatten()[k - len(gen.targets)]
            target = LocalTarget(name)
        return Assign(target, gen.expression(target_type, scope))
    assert kind is _EXPR_STMT
    method = gen.calls[gen.rng.randrange(len(gen.calls))]
    return ExprStmt(gen.call(method, scope, depth=0))


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


def block_generator(
    sig: Signature, registry: Registry, config: GenerationConfig
) -> Callable[[int], CodeBlock]:
    """The generator of one run: ``generate(seed)`` is the block that
    ``generate_block`` gives for ``config`` with that seed. What does not
    depend on the seed is resolved here, once, and kept by this generator
    alone: each value type's producers are asked of
    ``Registry.candidates_for`` once per grounding, here, and dropped with
    the generator. ``generate`` checks the seed and only reseeds, restarts the
    local names and starts a fresh scope.

    The number of top-level statements is drawn uniformly from
    [min_lines, max_lines]; a final return is appended for non-void
    signatures. Each top-level line gets up to ``max_retries_per_line``
    attempts before generation fails with ``Exhausted``.
    """
    gen = _Gen(registry, config, random.Random())

    def generate(seed: int) -> CodeBlock:
        _check_seed(seed)
        gen.rng.seed(seed)
        gen.next_local = 0
        scope = Scope(sig.params)
        n_lines = gen.rng.randint(config.min_lines, config.max_lines)
        stmts: List[Statement] = [
            _with_retries(index, gen, lambda: _generate_statement(scope, gen, nesting=0))
            for index in range(n_lines)
        ]
        if sig.return_type != VOID:
            value = _with_retries(n_lines, gen, lambda: gen.expression(sig.return_type, scope),
                                  detail="return value")
            stmts.append(Return(value))
        return CodeBlock(tuple(stmts))

    return generate


def generate_block(sig: Signature, registry: Registry, config: GenerationConfig) -> CodeBlock:
    """Generate a well-typed body for ``sig`` over the registry: the block
    of ``block_generator`` for ``config.seed``."""
    return block_generator(sig, registry, config)(config.seed)


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


def run_seeds(config: GenerationConfig, count: int) -> range:
    """The seeds config.seed, config.seed + 1, ... of a ``count``-candidate run,
    checked up front so that a run past the last 64-bit seed does no work."""
    last = config.seed + count - 1
    if last >= SEED_LIMIT:
        raise ConfigError(f"last seed {last} (seed + count - 1) must fit in 64 unsigned bits")
    return range(config.seed, last + 1)
