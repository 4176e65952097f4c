import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechgen.game import (
    _host_destroy_tile,
    Board,
    GameState,
    OutOfBounds,
    _settle,
    apply_gravity,
    build_game_registry,
    build_hook_table,
    on_tile_tapped_signature,
    tap,
    tap_moves,
)
from mechgen.lang import Signature, parse
from mechgen.registry import INT, VOID, LiteralOption, enum_type
from mechgen.runtime import ExecutionError, GeneratedDelegate, HostDelegate, HostError, IntV, invoke
from mechgen.synthesis import GenerationConfig, config_with_seed, generate_block

# Boards as lists of columns, bottom cell first, every column of one height.
columns = st.integers(min_value=1, max_value=5).flatmap(
    lambda height: st.lists(
        st.lists(st.sampled_from(["R", "G", "B", "Y", None]), min_size=height, max_size=height),
        min_size=1,
        max_size=5,
    )
)


def board_of(cols):
    """The board whose column x, bottom first, is ``cols[x]`` (column-major cells)."""
    return Board(len(cols), len(cols[0]), [c for col in cols for c in col])


boards = columns.map(board_of)


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
    board = Board(1, 4, [None, "R", None, "G"])
    assert apply_gravity(board).cells == ("R", "G", None, None)


def test_gravity_leaves_normal_boards_unchanged():
    board = Board.from_rows(["..", "RG"])
    assert apply_gravity(board) == board


def test_gravity_full_column_unchanged():
    board = Board(1, 3, ["R", "G", "B"])
    assert apply_gravity(board).cells == ("R", "G", "B")


@settings(max_examples=200, deadline=None)
@given(board=boards)
def test_gravity_idempotent(board):
    once = apply_gravity(board)
    assert apply_gravity(once) == once
    assert apply_gravity(once) == once


@settings(max_examples=200, deadline=None)
@given(board=boards)
def test_gravity_is_column_independent(board):
    reversed_cols = Board.from_rows([row[::-1] for row in board.to_rows()])
    assert apply_gravity(reversed_cols).to_rows() == [
        row[::-1] for row in apply_gravity(board).to_rows()
    ]


@settings(max_examples=200, deadline=None)
@given(board=boards)
def test_gravity_conserves_tiles(board):
    assert apply_gravity(board).cells.count(None) == board.cells.count(None)


# The per-column reference: a list of columns, bottom cell first.


def ref_gravity(cols):
    return [
        [c for c in col if c is not None] + [None] * col.count(None) for col in cols
    ]


def ref_is_gravity_normal(cols):
    return cols == ref_gravity(cols)


def ref_rows(cols):
    height = len(cols[0])
    return ["".join(col[y] or "." for col in cols) for y in reversed(range(height))]


@settings(max_examples=300, deadline=None)
@given(cols=columns)
def test_flat_board_matches_per_column_reference(cols):
    board = board_of(cols)
    width, height = len(cols), len(cols[0])
    assert all(board.cells[x * height + y] == cols[x][y] for x in range(width) for y in range(height))
    assert (apply_gravity(board) == board) == ref_is_gravity_normal(cols)
    assert board.to_rows() == ref_rows(cols)
    assert Board.from_rows(board.to_rows()) == board
    assert Board(width, height, list(board.key())) == board
    settled = ref_gravity(cols)
    assert apply_gravity(board) == board_of(settled)
    assert board == board_of(cols)  # apply_gravity leaves its argument alone
    cells = list(board.cells)
    _settle(cells, height)
    assert Board(width, height, cells) == board_of(settled)


def test_boards_of_different_shape_are_unequal():
    cells = ["R", "G", "B", "Y", "R", "G"]
    tall, wide = Board(2, 3, list(cells)), Board(3, 2, list(cells))
    assert tall.key() == wide.key()
    assert tall != wide
    assert tall == Board(2, 3, list(cells))


def test_a_board_does_not_alias_its_cells():
    cells = ["R", None]
    board = Board(1, 2, cells)
    cells[0] = "G"
    assert board.cells == ("R", None) and board.key() is board.cells
    world = GameState(board)
    world.cells[0] = None
    assert board == Board(1, 2, ("R", None))


def test_board_rejects_a_cell_list_of_the_wrong_size():
    with pytest.raises(ValueError):
        Board(2, 2, ["R", "G", "B"])


# --------------------------------------------------------------------------
# tapping


def test_tap_destroys_bottom_tile_and_drops_the_rest(hooks):
    # bottom-to-top [R, G]; tapping the R cell leaves [G, Empty]
    world = GameState(Board(1, 2, ["R", "G"]))
    tap(world, 0, 0, hooks)
    assert world.cells == ["G", None]
    assert world.taps_used == 1


def test_tap_empty_cell_only_counts_the_tap(hooks):
    world = GameState(Board(1, 2, ["R", None]))
    tap(world, 0, 1, hooks)
    assert world.cells == ["R", None]
    assert world.taps_used == 1


def test_tap_restores_gravity_in_place(hooks):
    # both columns start with a floating tile; the tap empties column 0's bottom
    world = GameState(Board.from_rows(["GB", "..", "R."]))
    cells = world.cells
    expected = apply_gravity(Board.from_rows(["GB", "..", ".."]))
    tap(world, 0, 0, hooks)
    assert world.cells is cells
    assert world.board == expected


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
    assert world.cells[2 * world.height + 1] == "Y"


def test_general_move_matches_tap_and_keeps_its_hook(game_registry, hooks, set_yellow_block):
    sig = hooks.sig("onTileTapped")
    reads = parse("if (IsOccupied(x, y)) { SetTile(x, y, Colour.Y); }", params=["x", "y"])
    reader = GeneratedDelegate(sig, reads, game_registry)
    yellow = GeneratedDelegate(sig, set_yellow_block, game_registry)
    board = Board.from_rows(["R..", "GB.", "BRG"])
    cells = [(x, y) for y in range(3) for x in range(3)]
    # Both hooks take the general path: the baseline's host behavior, a
    # reader as it declares no effect, and a block that reads the board.
    for delegate in (HostDelegate(sig, _host_destroy_tile), reader):
        hooks.bind("onTileTapped", delegate)
        later, _ = tap_moves(hooks, board)
        taps = {}
        for xy in cells:
            tapped = GameState(board.clone(), 2)
            assert tap(tapped, *xy, hooks) is tapped and tapped.taps_used == 3
            taps[xy] = tapped.board.key()
        xys, children = later(board.key())
        assert list(xys) == cells and children == [taps[xy] for xy in cells], delegate
        # The hook is resolved when the moves are built: rebinding reaches new moves only.
        hooks.bind("onTileTapped", yellow)
        assert later(board.key())[1] == children
    # So are tabulated moves: rebinding after ``tap_moves`` does not reach ``later``'s.
    later, _ = tap_moves(hooks, board)
    hooks.bind("onTileTapped", reader)
    xys, children = later(board.key())
    assert xys[0] == (0, 0) and children[0][0] == "Y"


def test_baseline_destroys_without_counting_taps():
    world = GameState(Board(1, 1, ["R"]))
    baseline = build_hook_table().delegate("onTileTapped")
    invoke(baseline, [IntV(0), IntV(0)], world)
    assert world.cells == [None]
    assert world.taps_used == 0
    invoke(baseline, [IntV(0), IntV(0)], world)  # empty cell: no-op
    assert world.cells == [None]


def test_gamestate_clone_is_independent():
    world = GameState(Board(1, 1, ["R"]), taps_used=2)
    copy = world.clone()
    copy.cells[0] = None
    copy.taps_used = 9
    assert world.cells == ["R"]
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
        if isinstance(c, LiteralOption):
            names.append("<literal>")
        else:
            names.append(c.name)
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
    empty = world.board.cells.count(None)
    for x, y in [(0, 0), (1, 1), (2, 2), (0, 0), (1, 0), (2, 0)]:
        tap(world, x, y, hooks)
        assert world.board.cells.count(None) >= empty
        empty = world.board.cells.count(None)


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
            assert apply_gravity(world.board) == world.board


def test_tap_signature_is_one_shared_value():
    sig = on_tile_tapped_signature()
    assert sig is on_tile_tapped_signature()
    assert build_hook_table().sig("onTileTapped") is sig
    assert sig == Signature("onTileTapped", (("x", INT), ("y", INT)), VOID)
