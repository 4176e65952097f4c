import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechgen import game
from mechgen.game import Board, GameState, build_game_registry, build_hook_table, tap
from mechgen.lang import INT64_MAX, INT64_MIN, Signature, TypeCheckError, parse
from mechgen.registry import (
    BOOL,
    INT,
    VOID,
    FieldDescriptor,
    MethodDescriptor,
    Registry,
)
from mechgen.runtime import (
    FALSE,
    TRUE,
    UNIT,
    ArityMismatch,
    BoolV,
    BudgetExceeded,
    ConstraintViolation,
    Delegate,
    EnumV,
    ExecBudget,
    ExecutionError,
    GeneratedDelegate,
    HookTable,
    HostDelegate,
    HostError,
    IntV,
    InterpreterError,
    Probe,
    SignatureMismatch,
    UnknownHook,
    WorldRead,
    int_value,
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
    return Registry(methods=[
        MethodDescriptor(
            "Move",
            (("newx", INT),),
            VOID,
            bounds={"newx": (-1, 1)},
            host_impl=lambda world, args: UNIT,
        ),
        MethodDescriptor(
            "Add", (("a", INT), ("b", INT)), INT,
            host_impl=lambda world, args: IntV(wrap64(args[0].value + args[1].value)),
        ),
    ])


# --------------------------------------------------------------------------
# delegate invocation


def test_host_delegate_add_one_returns_two():
    assert invoke(add_one_delegate(), [IntV(1)], world=None) == IntV(2)


def test_generated_delegate_add_one_returns_two():
    reg = move_registry()
    sig = Signature("addOneGen", (("x", INT),), INT)
    delegate = GeneratedDelegate(sig, parse("return Add(x, 1);", params=["x"]), reg)
    assert invoke(delegate, [IntV(1)], world=None) == IntV(2)


def test_void_generated_delegate_returns_unit():
    reg = move_registry()
    sig = Signature("noop", (), VOID)
    delegate = GeneratedDelegate(sig, parse("Move(0);"), reg)
    assert invoke(delegate, [], world=None) == UNIT


def test_constructing_a_delegate_typechecks():
    reg = move_registry()
    with pytest.raises(TypeCheckError):
        GeneratedDelegate(Signature("f", (), VOID), parse("Ghost();"), reg)


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
    delegate = GeneratedDelegate(hooks.sig("onTileTapped"), parse("DoNothing();"), reg)
    assert invoke(delegate, [IntV(0), IntV(0)], world) == UNIT
    assert world.board.key() == before


@settings(max_examples=500, deadline=None)
@given(value=st.integers(min_value=-(2**66), max_value=2**66))
def test_wrap64_two_complement(value):
    assert wrap64(2**63) == -(2**63)
    assert wrap64(-(2**63) - 1) == 2**63 - 1
    assert wrap64(5) == 5
    # the add-half, reduce, subtract-half form of the same wrap
    assert wrap64(value) == (value + 2**63) % 2**64 - 2**63


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
    delegate = GeneratedDelegate(Signature("f", (), VOID), parse("Move(5);"), reg)
    with pytest.raises(ConstraintViolation) as err:
        invoke(delegate, [], world=None)
    violation = err.value
    assert (violation.method, violation.param) == ("Move", "newx")
    assert (violation.value, violation.bound, violation.bound_kind) == (5, 1, "max")


def test_computed_argument_also_checked():
    reg = move_registry()
    delegate = GeneratedDelegate(Signature("f", (), VOID), parse("Move(Add(2, 2));"), reg)
    with pytest.raises(ConstraintViolation) as err:
        invoke(delegate, [], world=None)
    assert err.value.value == 4


@settings(max_examples=200, deadline=None)
@given(value=st.integers(min_value=-50, max_value=50))
def test_constraint_fuzz_violation_iff_bound_exceeded(value):
    reg = move_registry()
    sig = Signature("f", (("v", INT),), VOID)
    delegate = GeneratedDelegate(sig, parse("Move(v);", params=["v"]), reg)
    if -1 <= value <= 1:
        assert invoke(delegate, [IntV(value)], world=None) == UNIT
    else:
        with pytest.raises(ConstraintViolation):
            invoke(delegate, [IntV(value)], world=None)


def test_report_line_format():
    reg = move_registry()
    delegate = GeneratedDelegate(Signature("f", (), VOID), parse("Move(5);"), reg)
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
    assert world.cells[world.height] == "Y"
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


# --------------------------------------------------------------------------
# budget


@pytest.mark.parametrize("value", [-129, -128, 255, 256])
def test_shared_ints_equal_fresh_ones_at_the_range_ends(value):
    # -128..255 are shared; past either end each value is built fresh.
    assert int_value(value) == IntV(value) and type(int_value(value)) is IntV
    assert (int_value(value) is int_value(value)) is (-128 <= value <= 255)


@pytest.mark.parametrize("a, b", [
    (-128, -1), (-128, 0), (255, 0), (255, 1), (0, 0),
    (INT64_MAX, 1), (INT64_MIN, -1), (INT64_MAX, INT64_MAX), (INT64_MIN, INT64_MIN),
    (INT64_MAX, INT64_MIN), (INT64_MIN, INT64_MAX),
])
def test_shared_builtin_results_equal_fresh_ones(a, b):
    args = (IntV(a), IntV(b))
    assert game._host_add(None, args) == IntV(wrap64(a + b))
    assert game._host_sub(None, args) == IntV(wrap64(a - b))
    assert game._host_less(None, args) == BoolV(a < b)
    assert game._host_equal(None, args) == BoolV(a == b)
    assert game._host_less(None, args) is (TRUE if a < b else FALSE)


def test_shared_board_results_equal_fresh_ones():
    world = GameState(Board.from_rows(["R.", "RG"]))
    assert world.read_field("Width") == IntV(2) and world.read_field("Height") == IntV(2)
    assert game._host_count_colour(world, [EnumV("Colour", "R")]) == IntV(2)
    assert game._host_is_occupied(world, (IntV(1), IntV(1))) == BoolV(False)
    assert game._host_is_occupied(world, (IntV(0), IntV(1))) == BoolV(True)


def test_budget_exhaustion():
    reg = move_registry()
    delegate = GeneratedDelegate(
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


def test_world_read_escapes_invoke_only_under_a_probe(game_registry, tap_sig):
    assert not issubclass(WorldRead, ExecutionError)
    block = parse("SetTile(x, y, Colour.Y); if (IsOccupied(x, y)) { DestroyTile(x, y); }", params=["x", "y"])
    delegate = GeneratedDelegate(tap_sig, block, game_registry)
    world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
    probe = Probe()
    with pytest.raises(WorldRead, match="IsOccupied"):
        invoke(delegate, [IntV(0), IntV(0)], world, probe)
    # The run stops at the read: SetTile ran, IsOccupied spent nothing.
    assert world.cells[0] == "Y" and probe.remaining == probe.max_host_calls - 1
    budget = ExecBudget()
    assert invoke(delegate, [IntV(1), IntV(1)], world, budget) == UNIT
    assert world.cells[world.height + 1] is None and budget.remaining == budget.max_host_calls - 3
    # A non-reader runs under a probe as under any budget.
    assert invoke(GeneratedDelegate(tap_sig, parse("DestroyTile(x, y);", params=["x", "y"]), game_registry),
                  [IntV(2), IntV(2)], world, Probe()) == UNIT
    assert world.cells[2 * world.height + 2] is None


def test_a_host_behavior_is_a_reader_under_a_probe(tap_sig):
    # A host behavior declares no effect: under a probe it stops on entry,
    # before it spends budget or touches the world.
    calls = []

    def destroy(world, args):
        calls.append(args)
        world.cells[args[0].value * world.height + args[1].value] = None
        return UNIT

    delegate = HostDelegate(tap_sig, destroy)
    world = GameState(Board.from_rows(["RG", "BY"]))
    probe = Probe()
    with pytest.raises(WorldRead, match="^onTileTapped$"):
        invoke(delegate, [IntV(0), IntV(0)], world, probe)
    assert calls == [] and probe.remaining == probe.max_host_calls
    assert world.board == Board.from_rows(["RG", "BY"])
    budget = ExecBudget()
    assert invoke(delegate, [IntV(0), IntV(0)], world, budget) == UNIT
    assert world.cells[0] is None and budget.remaining == budget.max_host_calls - 1
    assert len(calls) == 1


def test_a_host_behavior_declares_every_parameter_read(tap_sig):
    assert HostDelegate(tap_sig, lambda w, a: UNIT).params_read == {0, 1}
    assert HostDelegate(ADD_ONE_SIG, lambda w, a: UNIT).params_read == {0}
    nothing = Signature("onStart", (), VOID)
    assert HostDelegate(nothing, lambda w, a: UNIT).params_read == frozenset()
    assert isinstance(Delegate(tap_sig).params_read, frozenset)


def test_a_probe_checks_a_readers_bounds_before_it_stops(game_registry, tap_sig):
    delegate = GeneratedDelegate(tap_sig, parse("IsOccupied(Add(x, 3), y);", params=["x", "y"]), game_registry)
    for budget in (Probe(), ExecBudget()):
        with pytest.raises(ConstraintViolation):
            invoke(delegate, [IntV(0), IntV(0)], GameState(Board(3, 3)), budget)


# --------------------------------------------------------------------------
# interpreter dynamics


def test_assignment_writes_through_to_world_fields():
    reg = Registry(fields=[FieldDescriptor("hp", INT, usable=True, writable=True)])
    world = FakeWorld(hp=IntV(10))
    delegate = GeneratedDelegate(Signature("f", (), VOID), parse("hp = 3;"), reg)
    invoke(delegate, [], world)
    assert world.values["hp"] == IntV(3)


def test_local_assignment_updates_inner_binding():
    reg = move_registry()
    sig = Signature("f", (), INT)
    body = "int a = 1;\na = Add(a, a);\nreturn a;"
    delegate = GeneratedDelegate(sig, parse(body), reg)
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
    delegate = GeneratedDelegate(sig, parse(body, params=["flip"]), reg)
    assert invoke(delegate, [BoolV(True)], world=None) == IntV(1)
    assert invoke(delegate, [BoolV(False)], world=None) == IntV(2)


def test_method_without_host_impl_raises_host_error():
    reg = Registry(methods=[MethodDescriptor("Phantom", (), VOID)])
    delegate = GeneratedDelegate(Signature("f", (), VOID), parse("Phantom();"), reg)
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


# --------------------------------------------------------------------------
# the parameters a block reads


def params_read(text, sig=None, registry=None):
    sig = sig or build_hook_table().sig("onTileTapped")
    registry = registry or build_game_registry()
    block = parse(text, params=[name for name, _ in sig.params])
    return GeneratedDelegate(sig, block, registry).params_read


@pytest.mark.parametrize("text, read", [
    ("DestroyTile(x, y);", {0, 1}),
    ("DestroyTile(x, 0);", {0}),
    ("DestroyTile(0, y);", {1}),
    ("DestroyTile(2, 0);", set()),
    ("DoNothing();", set()),
    ("", set()),
    # Field reads are not parameter reads.
    ("SetTile(Sub(Width, 1), Sub(Height, 1), Colour.R);", set()),
    # A read through a local still reads the parameter, where it is declared.
    ("int v0 = y; DestroyTile(0, v0);", {1}),
    ("int v0 = Add(x, 1); if (Equal(v0, 2)) { DoNothing(); }", {0}),
    # A condition reads, and so does a board-reading call's argument.
    ("if (Less(x, 1)) { DestroyTile(0, 0); }", {0}),
    ("if (IsOccupied(0, y)) { DestroyTile(0, 0); }", {1}),
    ("if (IsOccupied(0, 0)) { DestroyTile(1, 0); }", set()),
    # A nested if reads in its own condition and branches.
    ("if (Less(0, 1)) { if (Equal(y, 2)) { DoNothing(); } else { DestroyTile(x, 0); } }", {0, 1}),
])
def test_params_read(text, read):
    assert params_read(text) == frozenset(read)


def test_a_read_in_a_dead_branch_counts():
    assert params_read("if (false) { DestroyTile(x, 0); }") == {0}
    assert params_read("if (true) { DoNothing(); } else { DestroyTile(0, y); }") == {1}


def test_a_read_after_an_assignment_counts_and_a_write_alone_does_not():
    assert params_read("x = 1; DestroyTile(x, 0);") == {0}
    assert params_read("y = Add(1, 1); DestroyTile(0, 0);") == set()
    # The assigned value reads the other parameter.
    assert params_read("y = x; DoNothing();") == {0}


def test_params_read_indexes_the_signature():
    reg = move_registry()
    sig = Signature("f", (("a", INT), ("b", INT), ("c", INT)), INT)
    assert params_read("return Add(c, a);", sig, reg) == {0, 2}
    assert params_read("return c;", sig, reg) == {2}
    one = GeneratedDelegate(sig, parse("return b;", params=["a", "b", "c"]), reg)
    assert one.params_read == {1} and isinstance(one.params_read, frozenset)
