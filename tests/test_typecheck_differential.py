"""Differential tests: the compiler's type checks against the reference checker.

``mechgen.lang.typecheck`` compiles a block and raises the first
TypeCheckError that the same walk found; ``_reference_typecheck.typecheck``
is the checker that walked the block on its own. Every case requires the
same outcome from both: no error, or errors equal in message, statement
index, path, expected type and found type.
"""

import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference_typecheck import typecheck as reference_typecheck
from conftest import FIXTURES
from test_executor_differential import HAND_MADE, LAB, START_ROWS, board_cells, game_world
from test_executor_differential import assert_same as assert_same_run
from mechgen.game import build_game_registry, on_tile_tapped_signature
from mechgen.lang import (
    Assign,
    BoolLit,
    Call,
    CodeBlock,
    EnumLit,
    Expression,
    FieldRef,
    FieldTarget,
    IfElse,
    IntLit,
    LocalRef,
    LocalTarget,
    LValue,
    Return,
    Signature,
    Statement,
    TypeCheckError,
    VarDecl,
    parse,
    typecheck,
)
from mechgen.registry import (
    BOOL,
    INT,
    VOID,
    EnumDef,
    FieldDescriptor,
    MethodDescriptor,
    Registry,
    enum_type,
)
from mechgen.runtime import GeneratedDelegate, IntV
from mechgen.synthesis import GenerationError, config_with_seed, generate_block, load_config_file


def checked(check, block, sig, registry):
    try:
        check(block, sig, registry)
    except TypeCheckError as err:
        return (str(err), err.stmt_index, err.path, err.expected, err.found)
    return None


def assert_same(block, sig, registry):
    """Both checkers' outcome, which must be the same; None when the block
    checks."""
    outcome = checked(typecheck, block, sig, registry)
    assert outcome == checked(reference_typecheck, block, sig, registry)
    return outcome


# --------------------------------------------------------------------------
# the executor differential's hand-made blocks


@pytest.mark.parametrize("sig, block", [case[1:3] for case in HAND_MADE], ids=[case[0] for case in HAND_MADE])
def test_hand_made_block_matches_reference(sig, block):
    assert_same(block, sig, LAB)


# --------------------------------------------------------------------------
# the typecheck cases of test_lang.py, on its registry

LANG_REG = Registry(
    enums=[EnumDef("DIR", ("N", "NE", "E", "SE", "S", "SW", "W", "NW"))],
    fields=[
        FieldDescriptor("x", INT, usable=True, writable=True),
        FieldDescriptor("secret", INT, usable=False),
        FieldDescriptor("score", INT, usable=True, writable=False),
    ],
    methods=[
        MethodDescriptor("Add", (("a", INT), ("b", INT)), INT),
        MethodDescriptor("DoNothing", (), VOID),
        MethodDescriptor("Hidden", (), VOID, usable=False),
    ],
)
STEP = Signature("step", (("dx", INT),), VOID)
F_VOID = Signature("f", (), VOID)
F_INT = Signature("f", (), INT)


def f_dx(ret):
    return Signature("f", (("dx", INT),), ret)


LANG_CASES = [
    ("field update", parse("x = Add(x, dx);", params=["dx"]), STEP),
    ("use before declare", CodeBlock((Assign(LocalTarget("t"), IntLit(1)),)), F_VOID),
    ("argument type", parse("x = Add(1, true);"), F_VOID),
    ("missing return", parse("DoNothing();"), F_INT),
    ("int return", parse("return 3;"), F_INT),
    ("return type", parse("return true;"), F_INT),
    ("void returns a value", parse("return 1;"), F_VOID),
    ("void return", parse("return;"), F_VOID),
    ("return in a branch", parse("if (true) { return; }"), F_VOID),
    ("return not last", parse("return 1;\nint v0 = 2;"), F_INT),
    ("redeclaration", parse("int a = 1;\nint a = 2;"), F_VOID),
    ("branch local escapes", parse("if (true) { int a = 1; }\nx = a;"), F_VOID),
    ("read-only field", parse("score = 1;"), F_VOID),
    ("unusable field read", parse("x = secret;"), F_VOID),
    ("unusable field write", parse("secret = 1;"), F_VOID),
    ("unusable method", parse("Hidden();"), F_VOID),
    ("void call as value", parse("int a = DoNothing();"), F_VOID),
    ("arity", parse("x = Add(1);"), F_VOID),
    ("unknown variant", CodeBlock((VarDecl(enum_type("DIR"), "d", EnumLit("DIR", "UP")),)), F_VOID),
    ("int condition", parse("if (x) { DoNothing(); }"), F_VOID),
    ("agreement: return", parse("DoNothing();\nreturn true;", params=["dx"]), f_dx(INT)),
    ("agreement: initializer", parse("int v0 = 1;\nDIR d = v0;", params=["dx"]), f_dx(VOID)),
    ("agreement: assignment", parse("if (true) { bool b = true; b = dx; }", params=["dx"]), f_dx(VOID)),
    ("agreement: condition", parse("DoNothing();\nif (DIR.N) { DoNothing(); }", params=["dx"]), f_dx(VOID)),
    ("agreement: argument", parse("int v0 = Add(dx, Add(true, 1));", params=["dx"]), f_dx(VOID)),
    ("calls at the nesting limit", parse("Add(" * 100 + "1" + ", 1)" * 100 + ";"), F_VOID),
    ("ifs at the nesting limit", parse("if (true) {\n" * 99 + "DoNothing();\n" + "}\n" * 99), F_VOID),
]


@pytest.mark.parametrize("block, sig", [case[1:] for case in LANG_CASES], ids=[case[0] for case in LANG_CASES])
def test_lang_case_matches_reference(block, sig):
    assert_same(block, sig, LANG_REG)


# Two faults each, where the order a compiler builds code in is not the
# checker's: a statement's own check comes before its expressions', a
# target before its value, a method before its arguments, and the arguments
# before the call's own type.
ORDER_REG = Registry(LANG_REG.enums.values(), LANG_REG.fields.values(),
                     [*LANG_REG.methods.values(), MethodDescriptor("Say", (("n", INT),), VOID)])
ORDER_CASES = [
    ("unknown local target", CodeBlock((Assign(LocalTarget("t"), Call("Add", (IntLit(1), BoolLit(True)))),)),
     F_VOID),
    ("unknown field target", parse("mana = Add(1, true);"), F_VOID),
    ("unusable field target", parse("secret = Add(1, true);"), F_VOID),
    ("read-only field target", parse("score = Add(1, true);"), F_VOID),
    ("unknown method", parse("x = Ghost(Add(1, true));"), F_VOID),
    ("unusable method", parse("Hidden(Add(1, true));"), F_VOID),
    ("arity", parse("DoNothing(Add(1, true));"), F_VOID),
    ("void call as a value", parse("int a = Say(true);"), F_VOID),
    ("unknown type", CodeBlock((VarDecl(enum_type("Nope"), "a", Call("Add", (IntLit(1), BoolLit(True)))),)),
     F_VOID),
    ("redeclared parameter", parse("int dx = Add(1, true);", params=["dx"]), f_dx(VOID)),
    ("early return", parse("return true;\nx = Add(1, true);"), F_INT),
    ("void return value", parse("return Add(1, true);"), F_VOID),
    ("missing return after a fault", parse("x = Add(1, true);"), F_INT),
    ("first argument first", parse("x = Add(Add(true, 1), secret);"), F_VOID),
]


@pytest.mark.parametrize("block, sig", [case[1:] for case in ORDER_CASES], ids=[case[0] for case in ORDER_CASES])
def test_fault_order_matches_reference(block, sig):
    assert_same(block, sig, ORDER_REG)


# --------------------------------------------------------------------------
# mutated generated blocks

GAME = build_game_registry()
CONFIGS = [load_config_file(str(FIXTURES / name)) for name in ("default.cfg", "search.cfg")]
COLOUR = enum_type("Colour")
SIGS = [
    on_tile_tapped_signature(),
    Signature("score", (("x", INT), ("y", INT)), INT),
    Signature("pick", (("x", INT), ("y", INT)), BOOL),
    Signature("shade", (("x", INT), ("y", INT)), COLOUR),
]
# Literals with their types; the last two do not resolve in the game registry.
LITERALS = [
    (IntLit(3), INT),
    (BoolLit(False), BOOL),
    (EnumLit("Colour", "R"), COLOUR),
    (EnumLit("Colour", "Q"), COLOUR),
    (EnumLit("Shade", "R"), enum_type("Shade")),
]
AST = (CodeBlock, Statement, Expression, LValue)


def nodes(node, path=()):
    """Every AST node under ``node`` with its path of field names and indices."""
    yield path, node
    if isinstance(node, tuple):
        children = enumerate(node)
    elif isinstance(node, AST):
        children = ((f.name, getattr(node, f.name)) for f in dataclasses.fields(node))
    else:
        return
    for key, child in children:
        yield from nodes(child, path + (key,))


def replace_at(node, path, new):
    if not path:
        return new
    key, rest = path[0], path[1:]
    if isinstance(node, tuple):
        return node[:key] + (replace_at(node[key], rest, new),) + node[key + 1:]
    return dataclasses.replace(node, **{key: replace_at(getattr(node, key), rest, new)})


def visible_names(block, sig):
    """The parameters, every declared name, and one name nothing declares."""
    declared = {node.name for _, node in nodes(block) if isinstance(node, VarDecl)}
    return sorted(declared | {name for name, _ in sig.params} | {"ghost"})


def rename_local(data, block, sig, registry):
    sites = [(path, node) for path, node in nodes(block) if isinstance(node, (LocalRef, LocalTarget))]
    if not sites:
        return block, registry
    path, node = data.draw(st.sampled_from(sites))
    name = data.draw(st.sampled_from(visible_names(block, sig)))
    return replace_at(block, path, type(node)(name)), registry


def swap_argument(data, block, sig, registry):
    sites = [(path + ("args", k), node.method, k)
             for path, node in nodes(block) if isinstance(node, Call) for k in range(len(node.args))]
    if not sites:
        return block, registry
    path, method, k = data.draw(st.sampled_from(sites))
    md = registry.method_named(method)
    wanted = md.params[k][1] if md is not None and k < md.arity else None
    literal = data.draw(st.sampled_from([lit for lit, t in LITERALS if t != wanted]))
    return replace_at(block, path, literal), registry


def displace_return(data, block, sig, registry):
    """Drop the final return, or move it (a bare one when there is none)
    into a new branch at any top-level position."""
    stmts = block.statements
    final = stmts[-1] if stmts and isinstance(stmts[-1], Return) else None
    rest = stmts[:-1] if final is not None else stmts
    if final is not None and data.draw(st.booleans()):
        return CodeBlock(rest), registry
    k = data.draw(st.integers(min_value=0, max_value=len(rest)))
    branch = IfElse(BoolLit(True), CodeBlock((final or Return(),)))
    return CodeBlock(rest[:k] + (branch,) + rest[k:]), registry


def redeclare(data, block, sig, registry):
    """Declare a parameter's or a local's name again, in any statement list."""
    name = data.draw(st.sampled_from(visible_names(block, sig)))
    literal, decl_type = data.draw(st.sampled_from(LITERALS))
    decl = VarDecl(data.draw(st.sampled_from([decl_type, INT, BOOL])), name, literal)
    lists = [(path, node) for path, node in nodes(block) if isinstance(node, CodeBlock)]
    path, target = data.draw(st.sampled_from(lists))
    k = data.draw(st.integers(min_value=0, max_value=len(target.statements)))
    statements = target.statements[:k] + (decl,) + target.statements[k:]
    return replace_at(block, path, CodeBlock(statements)), registry


def hide_used_name(data, block, sig, registry):
    """Mark a method or field the block uses ``usable=False``."""
    used = sorted({node.method for _, node in nodes(block) if isinstance(node, Call)}
                  | {node.name for _, node in nodes(block) if isinstance(node, (FieldRef, FieldTarget))})
    used = [name for name in used if name in registry.methods or name in registry.fields]
    if not used:
        return block, registry
    name = data.draw(st.sampled_from(used))

    def hidden(items):
        return [dataclasses.replace(d, usable=False) if d.name == name else d for d in items]

    registry = Registry(registry.enums.values(), hidden(registry.fields.values()), hidden(registry.methods.values()))
    return block, registry


MUTATIONS = [rename_local, swap_argument, displace_return, redeclare, hide_used_name]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_mutated_generated_blocks_match_reference(data):
    """Both checkers agree on mutated blocks, and the compiled program of
    each mutated block that checks runs like the reference interpreter."""
    config = data.draw(st.sampled_from(CONFIGS))
    sig = data.draw(st.sampled_from(SIGS))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    try:
        block = generate_block(sig, GAME, config_with_seed(config, seed))
    except GenerationError:
        assume(False)
    registry = GAME
    for mutate in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        block, registry = mutate(data, block, sig, registry)
    if assert_same(block, sig, registry) is not None:
        return
    x, y = data.draw(st.integers(min_value=-1, max_value=3)), data.draw(st.integers(min_value=-1, max_value=3))
    assert_same_run(GeneratedDelegate(sig, block, registry), [IntV(x), IntV(y)], game_world(START_ROWS),
                    board_cells, 100)
