import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechgen.game import (
    Board,
    GameState,
    OutOfBounds,
    apply_gravity,
    baseline_on_tile_tapped,
    build_game_registry,
    build_hook_table,
    tap,
    tap_step,
)
from mechgen.registry import (
    INT,
    FieldProducer,
    LiteralOption,
    MethodProducer,
    enum_type,
)
from mechgen.runtime import ExecutionError, GeneratedDelegate, HostError, IntV
from mechgen.synthesis import GenerationConfig, config_with_seed, generate_block

boards = st.lists(
    st.lists(st.sampled_from(["R", "G", "B", "Y", None]), min_size=1, max_size=5),
    min_size=1,
    max_size=5,
).map(lambda cols: Board(len(cols), len(cols[0]), [c[:] + [None] * (len(cols[0]) - len(c)) for c in cols]))


def square_cols(cols):
    height = max(len(c) for c in cols)
    return [c + [None] * (height - len(c)) for c in cols]


# --------------------------------------------------------------------------
# board and gravity


def test_rows_round_trip():
    rows = ["R.B", "BRG", "GBR"]
    assert Board.from_rows(rows).to_rows() == rows


def test_from_rows_rejects_bad_input():
    with pytest.raises(ValueError):
        Board.from_rows(["RG", "R"])
    with pytest.raises(ValueError):
        Board.from_rows(["RX"])


def test_gravity_compacts_column_preserving_order():
    # bottom-to-top [Empty, R, Empty, G] -> [R, G, Empty, Empty]
    board = Board(1, 4, [[None, "R", None, "G"]])
    assert apply_gravity(board).cells[0] == ["R", "G", None, None]


def test_gravity_leaves_normal_boards_unchanged():
    board = Board.from_rows(["..", "RG"])
    assert apply_gravity(board) == board


def test_gravity_full_column_unchanged():
    board = Board(1, 3, [["R", "G", "B"]])
    assert apply_gravity(board).cells[0] == ["R", "G", "B"]


@settings(max_examples=200, deadline=None)
@given(board=boards)
def test_gravity_idempotent(board):
    once = apply_gravity(board)
    assert once.is_gravity_normal()
    assert apply_gravity(once) == once


@settings(max_examples=200, deadline=None)
@given(board=boards)
def test_gravity_is_column_independent(board):
    reversed_cols = Board(board.width, board.height, [c[:] for c in reversed(board.cells)])
    assert apply_gravity(reversed_cols).cells == list(reversed(apply_gravity(board).cells))


@settings(max_examples=200, deadline=None)
@given(board=boards)
def test_gravity_conserves_tiles(board):
    assert apply_gravity(board).tile_count() == board.tile_count()


# --------------------------------------------------------------------------
# tapping


def test_tap_destroys_bottom_tile_and_drops_the_rest(hooks):
    # bottom-to-top [R, G]; tapping the R cell leaves [G, Empty]
    world = GameState(Board(1, 2, [["R", "G"]]))
    tap(world, 0, 0, hooks)
    assert world.board.cells[0] == ["G", None]
    assert world.taps_used == 1


def test_tap_empty_cell_only_counts_the_tap(hooks):
    world = GameState(Board(1, 2, [["R", None]]))
    tap(world, 0, 1, hooks)
    assert world.board.cells[0] == ["R", None]
    assert world.taps_used == 1


def test_tap_restores_gravity_in_place(hooks):
    # both columns start with a floating tile; the tap empties column 0's bottom
    world = GameState(Board(2, 3, [["R", None, "G"], [None, None, "B"]]))
    board = world.board
    expected = apply_gravity(Board(2, 3, [[None, None, "G"], [None, None, "B"]]))
    tap(world, 0, 0, hooks)
    assert world.board is board
    assert board == expected


def test_tap_out_of_bounds(hooks):
    world = GameState(Board(2, 2))
    with pytest.raises(OutOfBounds):
        tap(world, 2, 0, hooks)


def test_tap_with_set_tile_mechanic(game_registry, hooks, set_yellow_block):
    hooks.bind(
        "onTileTapped",
        GeneratedDelegate(hooks.sig("onTileTapped"), set_yellow_block, game_registry),
    )
    world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
    tap(world, 2, 1, hooks)
    assert world.board.get(2, 1) == "Y"


def test_tap_step_matches_tap_and_keeps_its_hook(game_registry, hooks, set_yellow_block):
    board = Board.from_rows(["R.B", "GBR", "BRG"])
    step = tap_step(hooks, 3, 3)
    for x in range(3):
        for y in range(3):
            stepped, tapped = GameState(board.clone(), 2), GameState(board.clone(), 2)
            assert step(stepped, x, y) is stepped
            tap(tapped, x, y, hooks)
            assert (stepped.board, stepped.taps_used) == (tapped.board, 3)
    # The delegate is resolved when the step is built: rebinding reaches new steps only.
    hooks.bind(
        "onTileTapped",
        GeneratedDelegate(hooks.sig("onTileTapped"), set_yellow_block, game_registry),
    )
    assert step(GameState(board.clone()), 0, 0).board.get(0, 0) == "G"  # B destroyed
    assert tap_step(hooks, 3, 3)(GameState(board.clone()), 0, 0).board.get(0, 0) == "Y"


def test_baseline_destroys_without_counting_taps():
    world = GameState(Board(1, 1, [["R"]]))
    baseline_on_tile_tapped(world, 0, 0)
    assert world.board.get(0, 0) is None
    assert world.taps_used == 0
    baseline_on_tile_tapped(world, 0, 0)  # empty cell: no-op
    assert world.board.get(0, 0) is None


def test_gamestate_clone_is_independent():
    world = GameState(Board(1, 1, [["R"]]), taps_used=2)
    copy = world.clone()
    copy.board.set(0, 0, None)
    copy.taps_used = 9
    assert world.board.get(0, 0) == "R"
    assert world.taps_used == 2


def test_read_only_game_fields():
    world = GameState(Board(3, 2))
    assert world.read_field("Width") == IntV(3)
    assert world.read_field("Height") == IntV(2)
    with pytest.raises(HostError):
        world.write_field("Width", IntV(9))
    with pytest.raises(HostError):
        world.read_field("Depth")


# --------------------------------------------------------------------------
# the published design space


def test_int_candidates_match_the_advertised_design_space(game_registry):
    cands = game_registry.candidates_for(INT)
    names = []
    for c in cands:
        if isinstance(c, FieldProducer):
            names.append(c.field.name)
        elif isinstance(c, MethodProducer):
            names.append(c.method.name)
        else:
            names.append("<literal>")
    assert names == ["Width", "Height", "CountColour", "Add", "Sub", "<literal>"]


def test_colour_enum_registered(game_registry):
    assert game_registry.enum("Colour").variants == ("R", "G", "B", "Y")
    cands = game_registry.candidates_for(enum_type("Colour"))
    assert cands == [LiteralOption(enum_type("Colour"))]


@pytest.mark.parametrize(
    "method,param,expected",
    [
        ("DestroyTile", "x", (0, 2)),
        ("DestroyTile", "y", (0, 2)),
        ("SetTile", "x", (0, 2)),
        ("SwapTiles", "y2", (0, 2)),
        ("IsOccupied", "x", (0, 2)),
    ],
)
def test_coordinate_parameters_carry_board_bounds(game_registry, method, param, expected):
    assert game_registry.method_named(method).literal_interval(param) == expected


def test_bounds_follow_board_dimensions():
    reg = build_game_registry(5, 4)
    assert reg.method_named("DestroyTile").literal_interval("x") == (0, 4)
    assert reg.method_named("DestroyTile").literal_interval("y") == (0, 3)


def test_usable_allowlist_scopes_the_space():
    reg = build_game_registry(usable={"SetTile", "DoNothing"})
    assert not reg.field_named("Width").usable
    assert reg.method_named("SetTile").usable
    assert not reg.method_named("DestroyTile").usable
    # non-usable methods stay registered, just outside the search space
    assert "DestroyTile" in reg.methods


def test_arithmetic_builtins(game_registry):
    world = GameState(Board(3, 3))
    add = game_registry.method_named("Add").host_impl
    sub = game_registry.method_named("Sub").host_impl
    assert add(world, [IntV(2**63 - 1), IntV(1)]) == IntV(-(2**63))
    assert sub(world, [IntV(-(2**63)), IntV(1)]) == IntV(2**63 - 1)


# --------------------------------------------------------------------------
# invariants under arbitrary hooks


def test_baseline_taps_never_increase_tile_count(hooks):
    world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
    count = world.board.tile_count()
    for x, y in [(0, 0), (1, 1), (2, 2), (0, 0), (1, 0), (2, 0)]:
        tap(world, x, y, hooks)
        assert world.board.tile_count() <= count
        count = world.board.tile_count()


def test_board_is_gravity_normal_after_any_successful_tap(game_registry, tap_sig):
    config = GenerationConfig(max_lines=3)
    for seed in range(60):
        block = generate_block(tap_sig, game_registry, config_with_seed(config, seed))
        hooks = build_hook_table()
        hooks.bind("onTileTapped", GeneratedDelegate(tap_sig, block, game_registry))
        world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
        for x, y in [(0, 0), (1, 2), (2, 1)]:
            try:
                tap(world, x, y, hooks)
            except ExecutionError:
                world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
                continue
            assert world.board.is_gravity_normal()
