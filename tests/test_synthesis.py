import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _scan import (
    iter_statements,
    max_call_arity_depth,
    max_if_nesting,
    referenced_fields,
    referenced_methods,
    scope_violations,
)
from conftest import FIXTURES
from mechgen.game import build_game_registry
from mechgen.lang import ExprStmt, IfElse, IntLit, Signature, VarDecl, pretty, typecheck
from mechgen.registry import (
    BOOL,
    INT,
    VOID,
    EnumDef,
    FieldDescriptor,
    MethodDescriptor,
    Registry,
    TypeKind,
    enum_type,
)
from mechgen.synthesis import (
    MAX_LINES,
    ConfigError,
    Exhausted,
    GenerationConfig,
    Scope,
    StatementKind,
    config_with_seed,
    generate_block,
    generate_expression,
    load_config,
)

VOID_SIG = Signature("f", (), VOID)
TAP_SIG = Signature("onTileTapped", (("x", INT), ("y", INT)), VOID)


def fields_only_registry(*specs):
    reg = Registry()
    for name, t in specs:
        reg.register_field(FieldDescriptor(name, t))
    return reg.seal()


# --------------------------------------------------------------------------
# determinism and basic contracts


def test_same_seed_gives_byte_identical_output(game_registry, tap_sig):
    config = GenerationConfig(seed=99)
    a = generate_block(tap_sig, game_registry, config)
    b = generate_block(tap_sig, game_registry, config)
    assert a == b
    assert pretty(a) == pretty(b)


def test_config_with_seed_changes_only_the_seed():
    config = GenerationConfig(seed=1, max_lines=5)
    bumped = config_with_seed(config, 7)
    assert bumped.seed == 7 and bumped.max_lines == 5


def test_generate_statement_respects_scope_and_kind_filter(game_registry):
    from mechgen.synthesis import generate_statement

    scope = Scope([("x", INT), ("y", INT)])
    config = GenerationConfig(statement_kinds_enabled={StatementKind.VAR_DECL})
    rng = random.Random(5)
    stmt = generate_statement(scope, game_registry, config, rng, fresh_name_start=3)
    assert isinstance(stmt, VarDecl)
    assert stmt.name == "v3"
    assert scope.lookup("v3") == stmt.type


def test_empty_design_space_exhausts_at_line_0():
    reg = Registry().seal()
    with pytest.raises(Exhausted) as err:
        generate_block(VOID_SIG, reg, GenerationConfig(literal_weight=0.0))
    assert err.value.line_index == 0


def test_exhausted_carries_failed_type_requests():
    reg = Registry()
    reg.register_method(MethodDescriptor("Foo", (("n", INT),), VOID))
    reg.seal()
    with pytest.raises(Exhausted) as err:
        generate_block(VOID_SIG, reg, GenerationConfig(literal_weight=0.0))
    assert err.value.line_index == 0
    assert INT in err.value.failed


def test_only_do_nothing_available_means_every_line_is_do_nothing():
    reg = Registry()
    reg.register_method(MethodDescriptor("DoNothing", (), VOID))
    reg.seal()
    config = GenerationConfig(min_lines=4, max_lines=4, literal_weight=0.0)
    for seed in range(20):
        block = generate_block(VOID_SIG, reg, config_with_seed(config, seed))
        assert pretty(block) == "DoNothing();\n" * 4


def test_no_bool_producer_means_no_if_else():
    reg = fields_only_registry(("n", INT))
    config = GenerationConfig(literal_weight=0.0, max_lines=4)
    sig = Signature("f", (("px", INT),), VOID)
    for seed in range(300):
        block = generate_block(sig, reg, config_with_seed(config, seed))
        assert not any(isinstance(st, IfElse) for st in iter_statements(block))


def test_literal_weight_zero_never_emits_literals(game_registry, tap_sig):
    from _scan import iter_expressions
    from mechgen.lang import BoolLit, EnumLit

    config = GenerationConfig(literal_weight=0.0)
    for seed in range(200):
        block = generate_block(tap_sig, game_registry, config_with_seed(config, seed))
        for expr, _, _ in iter_expressions(block):
            assert not isinstance(expr, (IntLit, BoolLit, EnumLit))


# --------------------------------------------------------------------------
# well-typedness, scope discipline, usable scoping


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**63))
def test_generated_blocks_always_typecheck(seed, game_registry, tap_sig):
    block = generate_block(tap_sig, game_registry, GenerationConfig(seed=seed))
    typecheck(block, tap_sig, game_registry)


def test_scope_discipline(game_registry, tap_sig):
    config = GenerationConfig(max_lines=5, else_probability=0.5)
    for seed in range(300):
        block = generate_block(tap_sig, game_registry, config_with_seed(config, seed))
        assert scope_violations(block, {"x", "y"}) == []


def test_non_usable_items_never_referenced(tap_sig):
    scoped = build_game_registry(usable={"SetTile", "DoNothing"})
    config = GenerationConfig(max_lines=3)
    for seed in range(300):
        block = generate_block(tap_sig, scoped, config_with_seed(config, seed))
        assert referenced_methods(block) <= {"SetTile", "DoNothing"}
        assert referenced_fields(block) == set()


def test_if_nesting_capped(game_registry, tap_sig):
    config = GenerationConfig(max_lines=4, else_probability=1.0)
    deepest = 0
    for seed in range(200):
        block = generate_block(tap_sig, game_registry, config_with_seed(config, seed))
        deepest = max(deepest, max_if_nesting(block))
    assert deepest <= 3


# --------------------------------------------------------------------------
# depth bound


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_parameterised_calls_respect_depth_limit(depth, game_registry, tap_sig):
    config = GenerationConfig(max_recursion_depth=depth)
    for seed in range(400):
        block = generate_block(tap_sig, game_registry, config_with_seed(config, seed))
        assert max_call_arity_depth(block) < depth or max_call_arity_depth(block) == -1


# --------------------------------------------------------------------------
# selection distributions


def test_literal_pick_probability_matches_weight_rule():
    # three non-literal int producers and weight 2 -> literal rate 2/5
    reg = fields_only_registry(("a", INT), ("b", INT), ("c", INT))
    config = GenerationConfig(literal_weight=2.0)
    rng = random.Random(777)
    draws = 10_000
    literals = sum(
        isinstance(generate_expression(INT, Scope(), reg, config, rng), IntLit)
        for _ in range(draws)
    )
    assert abs(literals / draws - 0.4) <= 0.02


def test_vardecl_type_choice_uniform_over_eligible_types():
    reg = fields_only_registry(("n", INT), ("flag", BOOL))
    config = GenerationConfig(
        min_lines=1, max_lines=1, statement_kinds_enabled={StatementKind.VAR_DECL}
    )
    counts = {INT: 0, BOOL: 0}
    draws = 10_000
    for seed in range(draws):
        block = generate_block(VOID_SIG, reg, config_with_seed(config, seed))
        decl = block.statements[0]
        assert isinstance(decl, VarDecl)
        counts[decl.type] += 1
    assert abs(counts[INT] / draws - 0.5) <= 0.02
    assert abs(counts[BOOL] / draws - 0.5) <= 0.02


def test_enum_literals_uniform_over_variants():
    from mechgen.lang import EnumLit

    reg = Registry()
    reg.register_enum(EnumDef("DIR", ("N", "NE", "E", "SE", "S", "SW", "W", "NW")))
    reg.seal()
    rng = random.Random(31)
    config = GenerationConfig()
    draws = 16_000
    counts = {}
    for _ in range(draws):
        lit = generate_expression(enum_type("DIR"), Scope(), reg, config, rng)
        assert isinstance(lit, EnumLit)
        counts[lit.variant] = counts.get(lit.variant, 0) + 1
    assert set(counts) == {"N", "NE", "E", "SE", "S", "SW", "W", "NW"}
    for variant, n in counts.items():
        assert abs(n / draws - 1 / 8) <= 0.01, variant


# --------------------------------------------------------------------------
# constraint narrowing


def constrained_move_registry(lo, hi):
    reg = Registry()
    reg.register_method(
        MethodDescriptor(
            "Move",
            (("newx", INT),),
            VOID,
            bounds={"newx": (lo, hi)},
        )
    )
    return reg.seal()


def test_constrained_literal_arguments_stay_in_bounds():
    reg = constrained_move_registry(-1, 1)
    config = GenerationConfig(
        min_lines=1, max_lines=1, statement_kinds_enabled={StatementKind.EXPR_STMT}
    )
    seen = set()
    for seed in range(2000):
        block = generate_block(VOID_SIG, reg, config_with_seed(config, seed))
        call = block.statements[0].call
        assert call.method == "Move"
        assert isinstance(call.args[0], IntLit)
        assert -1 <= call.args[0].value <= 1
        seen.add(call.args[0].value)
    assert seen == {-1, 0, 1}


def test_constraint_interval_disjoint_from_literal_range_exhausts():
    reg = constrained_move_registry(50, 60)
    config = GenerationConfig(
        min_lines=1,
        max_lines=1,
        int_literal_range=(0, 2),
        statement_kinds_enabled={StatementKind.EXPR_STMT},
    )
    with pytest.raises(Exhausted):
        generate_block(VOID_SIG, reg, config)


# --------------------------------------------------------------------------
# one-line generation matches an independent brute-force enumeration

ENUM_CONFIG = GenerationConfig(
    min_lines=1,
    max_lines=1,
    max_recursion_depth=1,
    literal_weight=1.0,
    int_literal_range=(0, 2),
    statement_kinds_enabled={
        StatementKind.VAR_DECL,
        StatementKind.ASSIGN,
        StatementKind.EXPR_STMT,
    },
)


def enumerate_exprs(reg, wanted, scope, depth, max_depth, lit_range, interval=None):
    """Every surface form of ``wanted`` reachable at this depth (as text)."""
    grounded = depth >= max_depth
    out = []
    for f in reg.fields.values():
        if f.usable and f.type == wanted:
            out.append(f.name)
    for name, t in scope:
        if t == wanted:
            out.append(name)
    for m in reg.methods.values():
        if not m.usable or m.return_type != wanted:
            continue
        if m.arity >= 1 and grounded:
            continue
        per_arg = [
            enumerate_exprs(
                reg, ptype, scope, depth + 1, max_depth, lit_range,
                interval=m.literal_interval(pname),
            )
            for pname, ptype in m.params
        ]
        for combo in itertools.product(*per_arg):
            out.append(f"{m.name}({', '.join(combo)})")
    if wanted == INT:
        lo, hi = lit_range
        if interval is not None:
            cmin, cmax = interval
            if cmin is not None:
                lo = max(lo, cmin)
            if cmax is not None:
                hi = min(hi, cmax)
        out.extend(str(v) for v in range(lo, hi + 1))
    elif wanted == BOOL:
        out.extend(["true", "false"])
    elif wanted.kind is TypeKind.ENUM:
        out.extend(f"{wanted.enum_name}.{v}" for v in reg.enum(wanted.enum_name).variants)
    return out


def enumerate_one_line_bodies(reg, sig, config):
    scope = list(sig.params)
    lit = config.int_literal_range
    depth_limit = config.max_recursion_depth
    bodies = set()
    # variable declarations
    for t in reg.value_types():
        for expr in enumerate_exprs(reg, t, scope, 0, depth_limit, lit):
            bodies.add(f"{t.display()} v0 = {expr};\n")
    # assignments to parameters (game fields are read-only)
    for name, t in scope:
        for expr in enumerate_exprs(reg, t, scope, 0, depth_limit, lit):
            bodies.add(f"{name} = {expr};\n")
    # effect calls: the call node is depth 0, its arguments depth 1
    for m in reg.methods.values():
        if not m.usable or (depth_limit == 0 and m.arity >= 1):
            continue
        per_arg = [
            enumerate_exprs(
                reg, ptype, scope, 1, depth_limit, lit,
                interval=m.literal_interval(pname),
            )
            for pname, ptype in m.params
        ]
        for combo in itertools.product(*per_arg):
            bodies.add(f"{m.name}({', '.join(combo)});\n")
    return bodies


def test_one_line_blocks_are_members_of_the_enumerated_space(game_registry, tap_sig):
    space = enumerate_one_line_bodies(game_registry, tap_sig, ENUM_CONFIG)
    assert "DoNothing();\n" in space
    assert "SetTile(x, y, Colour.Y);\n" in space
    assert "SetTile(3, 0, Colour.Y);\n" not in space  # x constraint caps literals at 2
    for seed in range(400):
        block = generate_block(tap_sig, game_registry, config_with_seed(ENUM_CONFIG, seed))
        assert pretty(block) in space


# --------------------------------------------------------------------------
# config files


def test_default_config_file_round_trips():
    loaded = load_config((FIXTURES / "default.cfg").read_text())
    assert loaded == GenerationConfig()


def test_partial_config_uses_defaults():
    loaded = load_config("seed = 5\nmax_lines = 7\n")
    assert loaded.seed == 5
    assert loaded.max_lines == 7
    assert loaded.literal_weight == 1.0


def test_unknown_key_is_an_error():
    with pytest.raises(ConfigError, match="unknown key 'budget'"):
        load_config("budget = 10\n")


def test_duplicate_key_is_an_error():
    with pytest.raises(ConfigError, match="duplicate"):
        load_config("seed = 1\nseed = 2\n")


def test_statement_kinds_parse():
    loaded = load_config("statement_kinds = ExprStmt,VarDecl\n")
    assert loaded.statement_kinds_enabled == frozenset(
        {StatementKind.EXPR_STMT, StatementKind.VAR_DECL}
    )


def test_bad_statement_kind_is_an_error():
    with pytest.raises(ConfigError, match="unknown statement kind"):
        load_config("statement_kinds = WhileLoop\n")


def test_bad_values_are_errors():
    with pytest.raises(ConfigError):
        load_config("seed = banana\n")
    with pytest.raises(ConfigError):
        load_config("min_lines = 3\nmax_lines = 1\n")
    with pytest.raises(ConfigError):
        load_config("int_literal_min = 0\n")
    with pytest.raises(ConfigError):
        load_config("else_probability = 1.5\n")


def test_config_invariants_enforced():
    with pytest.raises(ConfigError):
        GenerationConfig(min_lines=0)
    with pytest.raises(ConfigError):
        GenerationConfig(literal_weight=-1.0)
    with pytest.raises(ConfigError):
        GenerationConfig(statement_kinds_enabled=frozenset())
    with pytest.raises(ConfigError):
        GenerationConfig(int_literal_range=(5, 4))


def test_max_lines_at_the_limit_is_accepted(tap_sig, game_registry):
    config = load_config(f"max_lines = {MAX_LINES}\n")
    assert config == GenerationConfig(max_lines=MAX_LINES)
    for seed in range(3):
        generate_block(tap_sig, game_registry, config_with_seed(config, seed))


def test_max_lines_past_the_limit_is_rejected():
    message = f"max_lines must be <= {MAX_LINES}"
    with pytest.raises(ConfigError, match=message):
        GenerationConfig(max_lines=MAX_LINES + 1)
    with pytest.raises(ConfigError, match=message):
        load_config(f"max_lines = {MAX_LINES + 1}\n")
    with pytest.raises(ConfigError, match=message):
        load_config("max_lines = 100\n")


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_non_finite_literal_weight_rejected(weight):
    with pytest.raises(ConfigError, match="literal_weight must be finite"):
        GenerationConfig(literal_weight=float(weight))
    with pytest.raises(ConfigError, match="literal_weight must be finite"):
        load_config(f"literal_weight = {weight}\n")
