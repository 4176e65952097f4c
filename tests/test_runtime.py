import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechgen.game import Board, GameState, build_game_registry, build_hook_table, tap
from mechgen.lang import (
    Call,
    CodeBlock,
    ExprStmt,
    LocalRef,
    Signature,
    TypeCheckError,
    parse,
)
from mechgen.registry import (
    BOOL,
    INT,
    VOID,
    FieldDescriptor,
    MethodDescriptor,
    Registry,
)
from mechgen.runtime import (
    UNIT,
    ArityMismatch,
    BoolV,
    BudgetExceeded,
    ConstraintViolation,
    Delegate,
    ExecBudget,
    ExecutionError,
    GeneratedDelegate,
    HookTable,
    HostDelegate,
    HostError,
    IntV,
    InterpreterError,
    SignatureMismatch,
    UnknownHook,
    compile_block,
    invoke,
    prepare,
    value_type,
    wrap64,
)
from mechgen.synthesis import GenerationConfig, generate_block

ADD_ONE_SIG = Signature("AddOne", (("x", INT),), INT)


def add_one_delegate():
    return HostDelegate(ADD_ONE_SIG, lambda world, args: IntV(args[0].value + 1))


class FakeWorld:
    """Minimal field store for synthetic registries."""

    def __init__(self, **values):
        self.values = values

    def read_field(self, name):
        return self.values[name]

    def write_field(self, name, value):
        self.values[name] = value


def move_registry():
    reg = Registry()
    reg.register_method(
        MethodDescriptor(
            "Move",
            (("newx", INT),),
            VOID,
            bounds={"newx": (-1, 1)},
            host_impl=lambda world, args: UNIT,
        )
    )
    reg.register_method(
        MethodDescriptor(
            "Add", (("a", INT), ("b", INT)), INT,
            host_impl=lambda world, args: IntV(wrap64(args[0].value + args[1].value)),
        )
    )
    return reg.seal()


# --------------------------------------------------------------------------
# delegate invocation


def test_host_delegate_add_one_returns_two():
    assert invoke(add_one_delegate(), [IntV(1)], world=None) == IntV(2)


def test_generated_delegate_add_one_returns_two():
    reg = move_registry()
    sig = Signature("addOneGen", (("x", INT),), INT)
    delegate = compile_block(sig, parse("return Add(x, 1);", params=["x"]), reg)
    assert invoke(delegate, [IntV(1)], world=None) == IntV(2)


def test_void_generated_delegate_returns_unit():
    reg = move_registry()
    sig = Signature("noop", (), VOID)
    delegate = compile_block(sig, parse("Move(0);"), reg)
    assert invoke(delegate, [], world=None) == UNIT


def test_compile_block_typechecks():
    reg = move_registry()
    with pytest.raises(TypeCheckError):
        compile_block(Signature("f", (), VOID), parse("Ghost();"), reg)


def test_arity_mismatch_surfaced_defensively():
    with pytest.raises(ArityMismatch):
        invoke(add_one_delegate(), [], world=None)
    with pytest.raises(ArityMismatch):
        invoke(add_one_delegate(), [BoolV(True)], world=None)


FAILED_CALLS = [
    (add_one_delegate(), [], ArityMismatch, "AddOne: expected 1 argument(s), got 0"),
    (add_one_delegate(), [BoolV(True)], ArityMismatch,
     "AddOne: argument 'x' expected int, got bool"),
    (Delegate(ADD_ONE_SIG), [IntV(1)], InterpreterError,
     f"cannot invoke delegate {Delegate(ADD_ONE_SIG)!r}"),
    (GeneratedDelegate(ADD_ONE_SIG, parse("return x;", params=["x"]), None), [IntV(1)],
     InterpreterError, "generated delegate carries no registry"),
]


@pytest.mark.parametrize("delegate,args,kind,message", FAILED_CALLS)
def test_failed_calls_raise_fresh_exceptions(delegate, args, kind, message):
    with pytest.raises(kind) as first:
        invoke(delegate, args, world=None)
    assert str(first.value) == message
    run = prepare(delegate, [value_type(v) for v in args])
    raised = []
    for _ in range(2):
        with pytest.raises(kind) as err:
            run(args, None, ExecBudget())
        assert str(err.value) == message
        raised.append(err.value)
    # One instance raised again would keep growing its traceback.
    assert raised[0] is not raised[1]


def test_prepared_host_call_spends_budget_per_run():
    run = prepare(add_one_delegate(), [INT])
    budget = ExecBudget(max_host_calls=2)
    assert [run([IntV(i)], None, budget) for i in range(2)] == [IntV(1), IntV(2)]
    with pytest.raises(BudgetExceeded):
        run([IntV(0)], None, budget)


def test_default_do_nothing_hook_leaves_world_unchanged():
    hooks = build_hook_table()
    hooks.reset("onTileTapped")
    world = GameState(Board.from_rows(["RG", "BY"]))
    before = world.board.key()
    # rebind to a null mechanic and check nothing happens
    reg = build_game_registry(2, 2)
    delegate = compile_block(hooks.sig("onTileTapped"), parse("DoNothing();"), reg)
    assert invoke(delegate, [IntV(0), IntV(0)], world) == UNIT
    assert world.board.key() == before


def test_wrap64_two_complement():
    assert wrap64(2**63) == -(2**63)
    assert wrap64(-(2**63) - 1) == 2**63 - 1
    assert wrap64(5) == 5


def test_zero_arg_hook_defaults_to_a_safe_noop():
    # the button pattern: an unassigned hook still dispatches somewhere
    calls = []
    sig = Signature("onActionButton", (), VOID)
    table = HookTable()
    table.declare("onActionButton", HostDelegate(sig, lambda w, a: (calls.append(1), UNIT)[1]))
    world = FakeWorld()
    assert invoke(table.delegate("onActionButton"), [], world) == UNIT
    assert calls == [1]
    assert world.values == {}


# --------------------------------------------------------------------------
# constraints


def test_literal_out_of_range_raises_constraint_violation():
    reg = move_registry()
    delegate = compile_block(Signature("f", (), VOID), parse("Move(5);"), reg)
    with pytest.raises(ConstraintViolation) as err:
        invoke(delegate, [], world=None)
    violation = err.value
    assert (violation.method, violation.param) == ("Move", "newx")
    assert (violation.value, violation.bound, violation.bound_kind) == (5, 1, "max")


def test_computed_argument_also_checked():
    reg = move_registry()
    delegate = compile_block(Signature("f", (), VOID), parse("Move(Add(2, 2));"), reg)
    with pytest.raises(ConstraintViolation) as err:
        invoke(delegate, [], world=None)
    assert err.value.value == 4


@settings(max_examples=200, deadline=None)
@given(value=st.integers(min_value=-50, max_value=50))
def test_constraint_fuzz_violation_iff_bound_exceeded(value):
    reg = move_registry()
    sig = Signature("f", (("v", INT),), VOID)
    delegate = compile_block(sig, parse("Move(v);", params=["v"]), reg)
    if -1 <= value <= 1:
        assert invoke(delegate, [IntV(value)], world=None) == UNIT
    else:
        with pytest.raises(ConstraintViolation):
            invoke(delegate, [IntV(value)], world=None)


def test_report_line_format():
    reg = move_registry()
    delegate = compile_block(Signature("f", (), VOID), parse("Move(5);"), reg)
    with pytest.raises(ConstraintViolation) as err:
        invoke(delegate, [], world=None)
    assert err.value.report_line() == (
        "ERROR kind=ConstraintViolation method=Move detail=newx=5 violates max=1"
    )


# --------------------------------------------------------------------------
# hooks


def test_bound_mechanic_runs_on_tap(game_registry, hooks):
    block = parse("SetTile(x, y, Colour.Y);", params=["x", "y"])
    hooks.bind("onTileTapped", GeneratedDelegate(hooks.sig("onTileTapped"), block, game_registry))
    world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
    tap(world, 1, 0, hooks)
    assert world.board.get(1, 0) == "Y"
    assert world.taps_used == 1


def test_bind_wrong_signature_rejected(hooks):
    bad_sig = Signature("onTileTapped", (("x", INT),), VOID)
    with pytest.raises(SignatureMismatch):
        hooks.bind("onTileTapped", HostDelegate(bad_sig, lambda w, a: UNIT))


def test_unknown_hook_rejected(hooks):
    with pytest.raises(UnknownHook):
        hooks.bind("onButtonPress", add_one_delegate())
    with pytest.raises(UnknownHook):
        hooks.reset("onButtonPress")


def test_reset_without_bind_is_a_noop(hooks):
    before = hooks.delegate("onTileTapped")
    hooks.reset("onTileTapped")
    assert hooks.delegate("onTileTapped") is before


def test_bind_then_reset_restores_baseline_transitions(game_registry, hooks):
    script = [(0, 0), (1, 1), (2, 0), (0, 0), (2, 2)]

    def run(table):
        world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
        keys = []
        for x, y in script:
            tap(world, x, y, table)
            keys.append(world.board.key())
        return keys

    baseline = run(build_hook_table())
    block = parse("SetTile(x, y, Colour.Y);", params=["x", "y"])
    hooks.bind("onTileTapped", GeneratedDelegate(hooks.sig("onTileTapped"), block, game_registry))
    swapped = run(hooks)
    assert swapped != baseline
    hooks.reset("onTileTapped")
    assert run(hooks) == baseline


def test_hook_table_clone_is_independent(game_registry, hooks):
    clone = hooks.clone()
    block = parse("DoNothing();")
    clone.bind("onTileTapped", GeneratedDelegate(hooks.sig("onTileTapped"), block, game_registry))
    assert hooks.delegate("onTileTapped") is not clone.delegate("onTileTapped")


# --------------------------------------------------------------------------
# budget


def test_budget_exhaustion():
    reg = move_registry()
    delegate = compile_block(
        Signature("f", (), VOID), parse("Move(0);\nMove(0);\nMove(0);"), reg
    )
    assert invoke(delegate, [], world=None, budget=ExecBudget(3)) == UNIT
    with pytest.raises(BudgetExceeded):
        invoke(delegate, [], world=None, budget=ExecBudget(2))


def test_default_budget_not_reachable_by_generated_mechanics(game_registry, tap_sig):
    world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
    for seed in range(100):
        block = generate_block(tap_sig, game_registry, GenerationConfig(seed=seed, max_lines=4))
        delegate = GeneratedDelegate(tap_sig, block, game_registry)
        try:
            invoke(delegate, [IntV(0), IntV(0)], world.clone())
        except ConstraintViolation:
            pass  # in-range data can still flow, e.g. Move-style bounds
        except BudgetExceeded:
            pytest.fail(f"seed {seed} exceeded the default budget")


# --------------------------------------------------------------------------
# interpreter dynamics


def test_assignment_writes_through_to_world_fields():
    reg = Registry()
    reg.register_field(FieldDescriptor("hp", INT, usable=True, writable=True))
    reg.seal()
    world = FakeWorld(hp=IntV(10))
    delegate = compile_block(Signature("f", (), VOID), parse("hp = 3;"), reg)
    invoke(delegate, [], world)
    assert world.values["hp"] == IntV(3)


def test_local_assignment_updates_inner_binding():
    reg = move_registry()
    sig = Signature("f", (), INT)
    body = "int a = 1;\na = Add(a, a);\nreturn a;"
    delegate = compile_block(sig, parse(body), reg)
    assert invoke(delegate, [], world=None) == IntV(2)


def test_branch_execution_and_locals():
    reg = move_registry()
    sig = Signature("f", (("flip", BOOL),), INT)
    body = (
        "int a = 0;\n"
        "if (flip) {\n"
        "    a = 1;\n"
        "} else {\n"
        "    a = 2;\n"
        "}\n"
        "return a;"
    )
    delegate = compile_block(sig, parse(body, params=["flip"]), reg)
    assert invoke(delegate, [BoolV(True)], world=None) == IntV(1)
    assert invoke(delegate, [BoolV(False)], world=None) == IntV(2)


def test_unchecked_block_faults_loudly():
    reg = move_registry()
    block = CodeBlock((ExprStmt(Call("Move", (LocalRef("ghost"),))),))
    delegate = GeneratedDelegate(Signature("f", (), VOID), block, reg)
    with pytest.raises(InterpreterError, match="unknown local"):
        invoke(delegate, [], world=None)


def test_method_without_host_impl_raises_host_error():
    reg = Registry()
    reg.register_method(MethodDescriptor("Phantom", (), VOID))
    reg.seal()
    delegate = compile_block(Signature("f", (), VOID), parse("Phantom();"), reg)
    with pytest.raises(HostError, match="no host implementation"):
        invoke(delegate, [], world=None)


@settings(max_examples=250, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    ax=st.integers(min_value=-10, max_value=10),
    ay=st.integers(min_value=-10, max_value=10),
)
def test_typechecked_blocks_never_fault_dynamically(seed, ax, ay, game_registry, tap_sig):
    """Soundness: for any argument values, a checked block only ever fails
    with a constraint violation, never with a dynamic type/name fault."""
    block = generate_block(tap_sig, game_registry, GenerationConfig(seed=seed))
    delegate = GeneratedDelegate(tap_sig, block, game_registry)
    world = GameState(Board.from_rows(["R.B", "BRG", "GBR"]))
    try:
        result = invoke(delegate, [IntV(ax), IntV(ay)], world)
        assert result == UNIT
    except ExecutionError as err:
        assert isinstance(err, ConstraintViolation)
