"""Differential tests: the compiled executor against the reference interpreter.

Each case runs ``mechgen.runtime.invoke`` (blocks compiled to closures) and
``reference_invoke`` (the AST interpreter kept in ``_reference_interp``) on
the same delegate, arguments, world and budget, and compares the returned
Value, the world afterwards, the exception type and message, and the budget
left. A block that does not type-check never runs: constructing its
delegate raises the reference checker's error (``_reference_typecheck``).
"""

from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference_interp import reference_invoke
from _reference_typecheck import typecheck as reference_typecheck
from mechgen import evaluate, runtime
from mechgen.game import Board, GameState, build_game_registry, on_tile_tapped_signature
from mechgen.lang import (
    Assign,
    BoolLit,
    Call,
    CodeBlock,
    EnumLit,
    Expression,
    ExprStmt,
    FieldRef,
    FieldTarget,
    IfElse,
    IntLit,
    LocalRef,
    LocalTarget,
    Return,
    Signature,
    Statement,
    TypeCheckError,
    VarDecl,
    parse,
    pretty,
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
from mechgen.runtime import UNIT, BoolV, ConstraintViolation, ExecBudget, GeneratedDelegate, IntV, invoke, prepare
from mechgen.synthesis import (
    GenerationConfig,
    GenerationError,
    StatementKind,
    config_with_seed,
    generate_block,
    load_config_file,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"
TAP_SIG = on_tile_tapped_signature()
START_ROWS = ["RGB", "BRG", "GBR"]  # fixtures/unsolvable.ch
# In-range and out-of-range coordinates for the 3x3 game.
COORDS = range(-1, 4)


def outcome(execute, delegate, args, world, budget_limit):
    budget = ExecBudget(budget_limit)
    try:
        result = ("value", execute(delegate, args, world, budget))
    except Exception as err:  # the executors must agree on every exception
        result = ("raised", type(err), str(err))
    return result, budget.remaining


def assert_same(delegate, args, make_world, snapshot, budget_limit=10_000):
    """Run both executors on fresh, equal worlds and compare everything."""
    runs = []
    for execute in (invoke, reference_invoke):
        world = make_world()
        result, remaining = outcome(execute, delegate, args, world, budget_limit)
        runs.append((result, remaining, snapshot(world)))
    assert runs[0] == runs[1]
    return runs[0]


def game_world(rows):
    return lambda: GameState(Board.from_rows(rows))


def board_cells(world):
    return world.board.key()


# --------------------------------------------------------------------------
# criterion-9 corpus


def test_criterion_9_corpus_matches_reference():
    registry = build_game_registry(usable={"SetTile", "DoNothing"})
    config = GenerationConfig(
        min_lines=1,
        max_lines=1,
        max_recursion_depth=1,
        statement_kinds_enabled={StatementKind.EXPR_STMT},
    )
    blocks = {generate_block(TAP_SIG, registry, config_with_seed(config, seed))
              for seed in range(10_000)}
    outcomes = set()
    for block in blocks:
        delegate = GeneratedDelegate(TAP_SIG, block, registry)
        for x in COORDS:
            for y in COORDS:
                result, _, _ = assert_same(
                    delegate, [IntV(x), IntV(y)], game_world(START_ROWS), board_cells)
                outcomes.add(result[1] if result[0] == "raised" else "value")
    assert len(blocks) > 50
    # the corpus exercises both normal returns and constraint violations
    assert "value" in outcomes and any(o != "value" for o in outcomes)


# --------------------------------------------------------------------------
# default.cfg blocks on drawn boards and taps


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    cells=st.lists(st.sampled_from("RGBY."), min_size=9, max_size=9),
    x=st.integers(min_value=-2, max_value=4),
    y=st.integers(min_value=-2, max_value=4),
)
def test_default_cfg_blocks_match_reference(seed, cells, x, y):
    registry = build_game_registry()
    config = load_config_file(str(FIXTURES / "default.cfg"))
    try:
        block = generate_block(TAP_SIG, registry, config_with_seed(config, seed))
    except GenerationError:
        assume(False)
    rows = ["".join(cells[r * 3:r * 3 + 3]) for r in range(3)]
    delegate = GeneratedDelegate(TAP_SIG, block, registry)
    assert_same(delegate, [IntV(x), IntV(y)], game_world(rows), board_cells)


# --------------------------------------------------------------------------
# hand-made blocks, many of which do not pass the type checker


class LabWorld:
    """Field store that also logs every host call, to compare side effects."""

    def __init__(self):
        self.values = {"hp": IntV(10), "Width": IntV(3)}
        self.log = []

    def read_field(self, name):
        return self.values[name]

    def write_field(self, name, value):
        self.values[name] = value


def lab_snapshot(world):
    return dict(world.values), tuple(world.log)


def _logged(name, result):
    def host(world, args):
        world.log.append((name, tuple(args)))
        return result(args)

    return host


def lab_registry():
    return Registry(
        enums=[EnumDef("Colour", ("R", "G"))],
        fields=[FieldDescriptor("hp", INT), FieldDescriptor("Width", INT, writable=False)],
        methods=[
            MethodDescriptor(
                "Move", (("newx", INT),), VOID,
                bounds={"newx": (-1, 1)},
                host_impl=_logged("Move", lambda args: UNIT)),
            # Declared against signature order; checks still run in signature order.
            MethodDescriptor(
                "Span", (("lo", INT), ("hi", INT)), VOID,
                bounds={"hi": (0, 5), "lo": (-5, 0)},
                host_impl=_logged("Span", lambda args: UNIT)),
            # Min-only, max-only, two-sided and unbounded, declared out of order.
            MethodDescriptor(
                "Quad", (("a", INT), ("b", INT), ("c", INT), ("d", INT)), VOID,
                bounds={"c": (-3, 4), "b": (None, 2), "a": (-1, None)},
                host_impl=_logged("Quad", lambda args: UNIT)),
            MethodDescriptor(
                "Add", (("a", INT), ("b", INT)), INT,
                host_impl=_logged("Add", lambda args: IntV(args[0].value + args[1].value))),
            MethodDescriptor(
                "Less", (("a", INT), ("b", INT)), BOOL,
                host_impl=_logged("Less", lambda args: BoolV(args[0].value < args[1].value))),
            MethodDescriptor("Phantom", (), VOID),
        ],
    )


LAB = lab_registry()
VOID_SIG = Signature("f", (), VOID)
INT_SIG = Signature("g", (("x", INT),), INT)


def _call(method, *args):
    return Call(method, args)


def _block(*statements):
    return CodeBlock(statements)


# (id, signature, block, arguments, budget)
HAND_MADE = [
    ("unknown local read", VOID_SIG, _block(ExprStmt(_call("Move", LocalRef("ghost")))), [], 100),
    ("unknown local assign", VOID_SIG,
     _block(Assign(LocalTarget("ghost"), _call("Add", IntLit(1), IntLit(2)))), [], 100),
    ("unknown method", VOID_SIG, _block(ExprStmt(_call("Move", IntLit(0))), ExprStmt(_call("Ghost"))), [], 100),
    ("unknown method as argument", VOID_SIG,
     _block(ExprStmt(_call("Move", _call("Ghost", IntLit(1))))), [], 100),
    ("read-only field assignment", VOID_SIG,
     _block(Assign(FieldTarget("Width"), _call("Add", IntLit(1), IntLit(2)))), [], 100),
    ("unknown field assignment", VOID_SIG, _block(Assign(FieldTarget("mana"), IntLit(1))), [], 100),
    ("unknown field read", VOID_SIG, _block(ExprStmt(_call("Move", FieldRef("mana")))), [], 100),
    ("field write", VOID_SIG, _block(Assign(FieldTarget("hp"), _call("Add", FieldRef("hp"), IntLit(1)))), [], 100),
    ("non-bool if condition", VOID_SIG,
     _block(IfElse(_call("Add", IntLit(1), IntLit(1)), _block(ExprStmt(_call("Move", IntLit(0)))))), [], 100),
    ("enum if condition", VOID_SIG, _block(IfElse(EnumLit("Colour", "R"), _block())), [], 100),
    ("wrong arity", VOID_SIG, _block(ExprStmt(_call("Move"))), [], 100),
    ("non-int constrained argument", VOID_SIG, _block(ExprStmt(_call("Move", BoolLit(True)))), [], 100),
    ("literal violates a bound", VOID_SIG, _block(ExprStmt(_call("Move", IntLit(5)))), [], 100),
    ("first declared bound wins", VOID_SIG, _block(ExprStmt(_call("Span", IntLit(9), IntLit(-9)))), [], 100),
    ("computed argument violates", INT_SIG,
     _block(ExprStmt(_call("Span", IntLit(-1), _call("Add", LocalRef("x"), IntLit(3)))), Return(LocalRef("x"))),
     [IntV(4)], 100),
    ("no host implementation", VOID_SIG, _block(ExprStmt(_call("Phantom"))), [], 100),
    ("budget exhausted", VOID_SIG, _block(ExprStmt(_call("Move", IntLit(0))), ExprStmt(_call("Move", IntLit(1)))), [], 1),
    ("branch result returned at the end", INT_SIG,
     _block(VarDecl(INT, "r", LocalRef("x")),
            IfElse(_call("Less", LocalRef("x"), IntLit(0)), _block(Assign(LocalTarget("r"), IntLit(-1)))),
            Return(LocalRef("r"))),
     [IntV(-3)], 100),
    ("bare final return", VOID_SIG,
     _block(ExprStmt(_call("Move", IntLit(0))), ExprStmt(_call("Move", IntLit(1))), Return()), [], 100),
    ("shadowed local", INT_SIG,
     _block(VarDecl(INT, "a", IntLit(1)),
            IfElse(BoolLit(True), _block(VarDecl(INT, "a", IntLit(7)), Assign(LocalTarget("a"), IntLit(8)))),
            Return(LocalRef("a"))),
     [IntV(0)], 100),
    ("outer local written from a branch", INT_SIG,
     _block(VarDecl(INT, "a", IntLit(1)),
            IfElse(BoolLit(False), _block(), _block(Assign(LocalTarget("a"), _call("Add", LocalRef("a"), LocalRef("x"))))),
            Return(LocalRef("a"))),
     [IntV(5)], 100),
    ("redeclared in the same frame", INT_SIG,
     _block(VarDecl(INT, "a", IntLit(1)), VarDecl(INT, "a", _call("Add", LocalRef("a"), IntLit(1))), Return(LocalRef("a"))),
     [IntV(0)], 100),
    ("parameter shadowed in a branch", INT_SIG,
     _block(IfElse(BoolLit(True), _block(VarDecl(INT, "x", IntLit(2)))), Return(LocalRef("x"))),
     [IntV(9)], 100),
    ("branch local does not escape", INT_SIG,
     _block(IfElse(BoolLit(True), _block(VarDecl(INT, "b", IntLit(1)))), Return(LocalRef("b"))),
     [IntV(0)], 100),
    ("initializer reads its own name", VOID_SIG, _block(VarDecl(INT, "a", LocalRef("a"))), [], 100),
    ("unregistered enum literal", Signature("h", (), enum_type("Nope")),
     _block(Return(EnumLit("Nope", "X"))), [], 100),
    ("unknown statement kind", VOID_SIG, _block(ExprStmt(_call("Move", IntLit(0))), Statement()), [], 100),
    ("unknown expression kind", VOID_SIG, _block(ExprStmt(_call("Move", Expression()))), [], 100),
    ("statement expression is not a call", VOID_SIG, _block(ExprStmt(IntLit(3))), [], 100),
    ("wrong argument count", INT_SIG, _block(Return(LocalRef("x"))), [], 100),
    ("wrong argument type", INT_SIG, _block(Return(LocalRef("x"))), [BoolV(True)], 100),
    ("parsed body", INT_SIG,
     parse("int a = Add(x, 1);\nif (Less(a, 3)) {\n    Move(Add(a, -2));\n}\nreturn a;", params=["x"]),
     [IntV(1)], 100),
]


@pytest.mark.parametrize("sig, block, args, budget", [case[1:] for case in HAND_MADE],
                         ids=[case[0] for case in HAND_MADE])
def test_hand_made_block_matches_reference(sig, block, args, budget):
    try:
        reference_typecheck(block, sig, LAB)
    except TypeCheckError as expected:
        with pytest.raises(TypeCheckError) as raised:
            GeneratedDelegate(sig, block, LAB)
        error = raised.value
        assert (str(error), error.stmt_index, error.path, error.expected, error.found) == (
            str(expected), expected.stmt_index, expected.path, expected.expected, expected.found)
    else:
        assert_same(GeneratedDelegate(sig, block, LAB), args, LabWorld, lab_snapshot, budget)


def _violation(execute, delegate, args):
    try:
        return ("value", execute(delegate, args, LabWorld()))
    except ConstraintViolation as err:
        return ("violation", err.method, err.param, err.value, err.bound, err.bound_kind)


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(min_value=-8, max_value=8), min_size=4, max_size=4),
       literal=st.booleans())
def test_bound_violation_order_matches_reference(values, literal):
    """With several arguments out of bounds, both executors name the same
    violation: the first bounded parameter in signature order."""
    if literal:
        sig, args = VOID_SIG, []
        block = _block(ExprStmt(_call("Quad", *(IntLit(v) for v in values))))
    else:
        # Add(x, 0) is a computed value, so no check is settled at compile time.
        sig = Signature("q", tuple((p, INT) for p in "wxyz"), VOID)
        args = [IntV(v) for v in values]
        block = _block(ExprStmt(_call("Quad", *(_call("Add", LocalRef(p), IntLit(0)) for p in "wxyz"))))
    delegate = GeneratedDelegate(sig, block, LAB)
    assert _violation(invoke, delegate, args) == _violation(reference_invoke, delegate, args)
    assert_same(delegate, args, LabWorld, lab_snapshot)


def built_directly(monkeypatch, walks):
    """A delegate built from a block, which compiles on construction."""
    delegate = GeneratedDelegate(VOID_SIG, _block(ExprStmt(_call("Move", IntLit(0)))), LAB)
    assert len(walks) == 1
    invoke(delegate, [], LabWorld())
    assert len(walks) == 1
    return [delegate]


def checked_in_a_search(monkeypatch, walks):
    """The delegates the type checker returns in a search: it walks each
    distinct generated text once, and its delegate comes compiled."""
    texts, delegates = set(), []
    generator, check = evaluate.block_generator, evaluate.typecheck

    def spy_generator(*args):
        generate = generator(*args)

        def spy_generate(seed):
            block = generate(seed)
            texts.add(pretty(block))
            return block

        return spy_generate

    def spy_check(*args):
        delegates.append(check(*args))
        return delegates[-1]

    monkeypatch.setattr(evaluate, "block_generator", spy_generator)
    monkeypatch.setattr(evaluate, "typecheck", spy_check)
    challenge = evaluate.load_challenge(FIXTURES / "unsolvable.ch")
    config = load_config_file(str(FIXTURES / "search.cfg"))
    evaluate.search_mechanics(TAP_SIG, build_game_registry(), challenge, config, budget=200)
    assert len(texts) > 1
    assert len(walks) == len(texts) == len(delegates)
    return delegates


@pytest.mark.parametrize("delegates", [built_directly, checked_in_a_search])
def test_compiled_program_is_built_once_per_delegate(delegates, monkeypatch):
    walks = []
    compile_once = runtime._compile

    def spy_compile(*args):
        walks.append(args)
        return compile_once(*args)

    monkeypatch.setattr(runtime, "_compile", spy_compile)
    for delegate in delegates(monkeypatch, walks):
        before = len(walks)
        program = delegate.program
        assert prepare(delegate, [t for _, t in delegate.sig.params]) is program
        assert len(walks) == before
