"""The solver's tabulated path against its general path, the marker pass
that chooses between them, and the effect annotation and parameter set the
tabulation trusts.

A block is run under a ``Probe`` on position markers, once per group of
cells that agree on the parameters it reads
(``GeneratedDelegate.params_read``). If no run calls a world-reading
method, each tap is replayed as a gather (``game.tap_moves``). Building the
same registry with every method marked ``reads_world=True`` sends a block
that calls any method down the general path, which runs it on every tap;
both must give the same ``EvalResult``: status, witness, ``error_count``
and ``states_explored``. ``takes_general_path`` says which path a solve
took. The groups are checked against a solve with one cell per group and
against ``tap`` cell by cell, and the parameter set against ``tap`` as an
independent oracle.
"""

import gc
import itertools
import signal
from contextlib import contextmanager
from unittest import mock
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mechgen import evaluate, game
from mechgen.evaluate import (
    Challenge, EvalResult, Goal, GoalKind, Solved, Unsolvable, load_challenge, parse_challenge,
    solve,
)
from mechgen.game import (
    COLOURS,
    Board,
    GameState,
    apply_gravity,
    build_game_registry,
    build_hook_table,
    on_tile_tapped_signature,
    tap,
    tap_moves,
)
from mechgen.lang import parse, pretty
from mechgen.registry import INT, VOID, EnumDef, FieldDescriptor, MethodDescriptor, Registry, enum_type
from mechgen.runtime import BoolV, ExecBudget, EnumV, ExecutionError, GeneratedDelegate, HostDelegate, IntV
from mechgen.synthesis import GenerationError, config_with_seed, generate_block, load_config_file
from test_evaluate import naive_solve, takes_general_path

FIXTURES = Path(__file__).parent.parent / "fixtures"
TAP_SIG = on_tile_tapped_signature()
CONFIGS = {name: load_config_file(str(FIXTURES / name)) for name in ("search.cfg", "default.cfg")}

# Criterion-9 style one-liners and a few multi-line blocks, all oblivious.
ONE_LINERS = [
    "DestroyTile(x, y);",
    *(f"SetTile(x, y, Colour.{c});" for c in COLOURS),
    "SwapTiles(x, y, 0, 0);",
    "SwapTiles(x, y, x, y);",  # a NOOP on every cell
    "SwapTiles(x, y, x, 0);",  # a NOOP on the bottom row
    "SwapTiles(x, y, Sub(Width, 1), Sub(Height, 1));",
    "DestroyTile(Add(x, 1), y);",  # ConstraintViolation on the last column
    "DestroyTile(Sub(x, 1), y);",  # ConstraintViolation on the first column
    "DoNothing();",
    "Add(21, y);",
    "if (Less(x, y)) { DestroyTile(x, y); } else { SetTile(x, 0, Colour.Y); }",
    "int v0 = Add(x, y); if (Equal(v0, 1)) { SwapTiles(x, y, y, x); }",
    "if (Less(0, x)) { DestroyTile(Sub(x, 1), y); SetTile(x, y, Colour.B); }",
]


def general_registry(registry):
    """The same design space with every method declared a world reader."""
    return Registry(
        enums=registry.enums.values(),
        fields=registry.fields.values(),
        methods=[replace(m, reads_world=True) for m in registry.methods.values()],
    )


def z_registry(width, height):
    """The game's design space whose ``Colour`` also declares ``Z``, a
    variant that is no tile colour."""
    registry = build_game_registry(width, height)
    return Registry(
        enums=[EnumDef("Colour", (*COLOURS, "Z"))],
        fields=registry.fields.values(),
        methods=registry.methods.values(),
    )


def hooks_for(block, registry):
    hooks = build_hook_table()
    hooks.bind("onTileTapped", GeneratedDelegate(TAP_SIG, block, registry))
    return hooks


def both_paths(challenge, block, registry=None):
    """(tabulated result, general result, whether the block is tabulated),
    over the game's design space unless ``registry`` is given."""
    registry = registry or build_game_registry(challenge.initial.width, challenge.initial.height)
    hooks = hooks_for(block, registry)
    fast = solve(challenge, hooks)
    slow = solve(challenge, hooks_for(block, general_registry(registry)))
    return fast, slow, not takes_general_path(hooks, challenge.initial)


def assert_paths_agree(challenge, text, registry=None):
    fast, slow, tabulated = both_paths(challenge, parse(text, params=["x", "y"]), registry)
    assert tabulated, text
    assert fast == slow, text
    return fast


# --------------------------------------------------------------------------
# chosen cases


CHALLENGES = [
    "R\ngoal: CLEARED\nmax_taps: 1\n",  # 1x1 board
    "R\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n",
    ".\n.\nB\ngoal: COLOUR_PRESENT G\nmax_taps: 2\n",  # 1x3, mostly empty
    ".R.\nGBR\ngoal: COLOUR_CLEARED R\nmax_taps: 2\n",  # empty cells
    "RGB\nBRG\nGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 1\n",
    "RG\nBR\ngoal: COLOUR_CLEARED R\nmax_taps: 3\n",
    "RGB\nBRG\nGBR\ngoal: CLEARED\nmax_taps: 3\n",
]


@pytest.mark.parametrize("text", ONE_LINERS)
def test_one_liners_agree(text):
    for challenge_text in CHALLENGES:
        assert_paths_agree(parse_challenge(challenge_text), text)


def test_goal_met_in_the_middle_of_the_root_expansion(monkeypatch):
    # Tap (0, 0) raises (x - 1 = -1), tap (1, 0) destroys the G: solved
    # before tap (2, 0) is tried.
    challenge = parse_challenge("GRR\ngoal: COLOUR_CLEARED G\nmax_taps: 2\n")
    calls = []
    spend = ExecBudget.spend
    monkeypatch.setattr(ExecBudget, "spend", lambda self: calls.append(1) or spend(self))
    result = assert_paths_agree(challenge, "DestroyTile(Sub(x, 1), y);")
    assert result.status == Solved(1, ((1, 0),))
    assert (result.error_count, result.states_explored) == (1, 1)
    calls.clear()
    registry = build_game_registry(3, 1)
    solve(challenge, hooks_for(parse("DestroyTile(Sub(x, 1), y);", params=["x", "y"]), registry))
    # One marker run per cell, every cell before the search starts: Sub,
    # then Sub and DestroyTile for each of the other two.
    assert len(calls) == 5


def test_a_tabulated_solve_runs_the_block_at_most_once_per_cell(monkeypatch):
    challenge = parse_challenge("RGB\nBRG\nGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n")
    calls = []
    spend = ExecBudget.spend
    monkeypatch.setattr(ExecBudget, "spend", lambda self: calls.append(1) or spend(self))
    registry = build_game_registry(3, 3)
    block = parse("SwapTiles(x, y, 0, 0);", params=["x", "y"])
    fast = solve(challenge, hooks_for(block, registry))
    assert len(calls) == 9  # one SwapTiles per cell
    calls.clear()
    slow = solve(challenge, hooks_for(block, general_registry(registry)))
    assert fast == slow
    assert len(calls) == 9 * fast.states_explored
    # A 1x1 board is tabulated too: R -> G, then G -> G, on one marker run.
    calls.clear()
    one_cell = parse_challenge("R\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n")
    block = parse("SetTile(x, y, Colour.G);", params=["x", "y"])
    result = solve(one_cell, hooks_for(block, build_game_registry(1, 1)))
    assert (result.states_explored, len(calls)) == (2, 1)


def test_a_variant_in_one_column_sends_the_whole_block_down_the_general_path():
    # Column 0 paints a variant that is no colour, which no gather can pick,
    # so every tap runs the block, on boards with empty cells too.
    text = "if (Equal(x, 0)) { SetTile(x, y, Colour.Z); } else { DestroyTile(x, y); }"
    for board in ("..R\n.GB\nRBG", ".R.\nGBR\nRBG", "R..\nG.B\nBRG"):
        for goal in ("COLOUR_CLEARED R", "COLOUR_CLEARED G", "COLOUR_PRESENT Y", "CLEARED"):
            challenge = parse_challenge(f"{board}\ngoal: {goal}\nmax_taps: 4\n")
            block = parse(text, params=["x", "y"])
            fast, slow, tabulated = both_paths(challenge, block, z_registry(3, 3))
            assert not tabulated and fast == slow, (board, goal)
            assert fast.states_explored > 1


def test_raising_cells_before_and_after_the_winning_tap():
    # Tapping (x, y) destroys (x - 1, y) or (x + 1, y), so column 0 or the
    # last column raises. The winning expansion counts (0, 0) before the
    # winning (2, 0), and neither (2, 0) nor (2, 1) after the winning (0, 0).
    challenge = parse_challenge(".Y.\nRYG\ngoal: COLOUR_CLEARED Y\nmax_taps: 3\n")
    for text, witness, errors, explored in (
        ("DestroyTile(Sub(x, 1), y);", ((2, 0), (2, 0)), 5, 3),
        ("DestroyTile(Add(x, 1), y);", ((0, 0), (0, 0)), 2, 2),
    ):
        result = assert_paths_agree(challenge, text)
        assert result == EvalResult(Solved(2, witness), errors, explored), text


@pytest.mark.parametrize("text, witness, errors, explored", [
    # Reads x: column 0 raises while (0, 0) holds a tile.
    ("if (IsOccupied(x, 0)) { DestroyTile(Sub(x, 1), 0); }", ((2, 0), (2, 0)), 5, 3),
    # Reads y: the top row raises while (0, 1) holds a tile.
    ("if (IsOccupied(0, y)) { DestroyTile(0, Add(y, 1)); }", None, 3, 2),
])
def test_a_general_block_that_reads_one_parameter_raises_per_group(text, witness, errors, explored):
    # A reader takes the general path, where a tap runs once per group of
    # cells that agree on the parameter read, on each parent. Every cell of
    # a raising group is still its own move and counts its error: ``errors``
    # and ``explored`` are the counts of one run per cell.
    challenge = parse_challenge("RY.\nRYG\ngoal: COLOUR_CLEARED Y\nmax_taps: 3\n")
    registry = build_game_registry(3, 2)
    block = parse(text, params=["x", "y"])
    hooks = hooks_for(block, registry)
    assert len(hooks.delegate("onTileTapped").params_read) == 1
    assert takes_general_path(hooks, challenge.initial)
    result = solve(challenge, hooks)
    status = Unsolvable() if witness is None else Solved(len(witness), witness)
    assert result == EvalResult(status, errors, explored)
    assert result == solve(challenge, hooks_for(block, general_registry(registry)))
    expected = ("unsolvable", None, None) if witness is None else ("solved", len(witness), witness)
    assert naive_solve(challenge, hooks) == expected


def test_a_tap_that_is_the_identity_on_some_masks_only():
    # Destroying a column's top cell does nothing while the column is not full.
    for board in ("..R\n.GB\nRBG", ".R.\nGBR\nRGB", "RG.\nGBR\nRGB"):
        for goal in ("COLOUR_CLEARED R", "COLOUR_CLEARED B", "CLEARED", "COLOUR_PRESENT Y"):
            challenge = parse_challenge(f"{board}\ngoal: {goal}\nmax_taps: 4\n")
            assert_paths_agree(challenge, "DestroyTile(x, Sub(Height, 1));")


def test_every_cell_a_noop_explores_only_the_root():
    challenge = parse_challenge("RG\nBR\ngoal: CLEARED\nmax_taps: 4\n")
    result = assert_paths_agree(challenge, "SwapTiles(x, y, x, y);")
    assert (result.error_count, result.states_explored) == (0, 1)


def test_noop_cells_never_reach_a_gather(monkeypatch):
    # A cell whose marker run leaves the markers in place is dropped when the
    # cells are tabulated, so no mask settles it.
    challenge = parse_challenge("....\nR...\nGB.R\nRGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 4\n")
    settled = []  # the picks of every gather settled
    real = game._settled_gather
    monkeypatch.setattr(game, "_settled_gather",
                        lambda picks, mask, height: settled.append(picks) or real(picks, mask, height))
    registry = build_game_registry(4, 4)
    for text in ("DoNothing();", "SwapTiles(x, y, x, y);"):
        result = solve(challenge, hooks_for(parse(text, params=["x", "y"]), registry))
        assert result == EvalResult(Unsolvable(), 0, 1), text
        assert settled == [], text
    # A NOOP on the bottom row only: the other twelve cells are gathers.
    later, _ = built_for("SwapTiles(x, y, x, 0);", challenge.initial)
    full = Board(4, 4, ["R"] * 16)
    assert list(later(full.key())[0]) == [(x, y) for y in range(1, 4) for x in range(4)]
    assert len(settled) == 12


def test_every_cell_raising_counts_every_tap():
    challenge = parse_challenge("RG\nBR\ngoal: CLEARED\nmax_taps: 4\n")
    result = assert_paths_agree(challenge, "DestroyTile(Add(Width, x), y);")
    assert (result.error_count, result.states_explored) == (4, 1)


def test_a_tabulated_solve_leaves_no_cyclic_garbage():
    # Every fill of a raising cell reports the error without keeping it; an
    # exception held for replay would tie its traceback's frames in a cycle.
    challenge = parse_challenge("RG\nBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n")
    block = parse("DestroyTile(Add(x, 1), y); SwapTiles(x, y, 0, 0);", params=["x", "y"])
    hooks = hooks_for(block, build_game_registry(2, 2))
    gc.collect()
    gc.disable()
    try:
        result = solve(challenge, hooks)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert result.error_count > 0 and result.states_explored > 1


def test_a_cell_value_outside_the_gather_constants_keeps_the_general_path():
    # A block can paint a variant that is no colour when its registry's
    # Colour declares one; no gather can pick it, so the whole block takes
    # the general path, which writes it into the board. A Z is a tile, not
    # an empty cell: painting Z everywhere never clears.
    challenge = parse_challenge("RG\nBR\ngoal: CLEARED\nmax_taps: 4\n")
    for text in ("SetTile(x, y, Colour.Z);", "SetTile(x, 0, Colour.R); SetTile(x, 1, Colour.Z);"):
        block = parse(text, params=["x", "y"])
        fast, slow, tabulated = both_paths(challenge, block, z_registry(2, 2))
        assert not tabulated and fast == slow
        assert fast.status == Unsolvable()


def test_a_reader_keeps_the_general_path():
    registry = build_game_registry(2, 2)
    block = parse("if (IsOccupied(x, 1)) { DestroyTile(x, y); }", params=["x", "y"])
    challenge = parse_challenge("RG\nBR\ngoal: CLEARED\nmax_taps: 4\n")
    assert takes_general_path(hooks_for(block, registry), challenge.initial)
    fast, slow, tabulated = both_paths(challenge, block)
    assert fast == slow and not tabulated


# --------------------------------------------------------------------------
# Hypothesis: random boards, goals and generated candidates


def board_of(cols):
    """The board whose column x, bottom first, is ``cols[x]``."""
    return Board(len(cols), len(cols[0]), [c for col in cols for c in col])


boards = st.integers(min_value=1, max_value=3).flatmap(
    lambda height: st.lists(
        st.lists(st.sampled_from([*COLOURS, None]), min_size=height, max_size=height),
        min_size=1,
        max_size=3,
    )
).map(board_of)

goals = st.one_of(
    st.just(Goal(GoalKind.CLEARED)),
    st.builds(Goal, st.sampled_from([GoalKind.COLOUR_CLEARED, GoalKind.COLOUR_PRESENT]),
              st.sampled_from(COLOURS)),
)


@st.composite
def challenges(draw):
    """A gravity-normal board, a goal that fails on it, and one to three taps."""
    board = apply_gravity(draw(boards))
    goal = draw(goals.filter(lambda goal: not goal.satisfied(board)))
    return Challenge(board, goal, draw(st.integers(min_value=1, max_value=3)))


@st.composite
def deep_challenges(draw):
    """A gravity-normal board of two cells or more, a goal that fails on it,
    and two or three taps: where a solve can count past the root."""
    board = apply_gravity(draw(boards.filter(lambda board: len(board.cells) > 1)))
    goal = draw(goals.filter(lambda goal: not goal.satisfied(board)))
    return Challenge(board, goal, draw(st.integers(min_value=2, max_value=3)))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(deep_challenges(), st.sampled_from(sorted(CONFIGS)), st.integers(min_value=0, max_value=10**6))
def test_generated_candidates_agree(challenge, config_name, seed):
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    try:
        block = generate_block(TAP_SIG, registry, config_with_seed(CONFIGS[config_name], seed))
    except GenerationError:
        assume(False)
    fast, slow, _ = both_paths(challenge, block)
    assert fast == slow


@pytest.mark.parametrize("config_name, challenge_name, floor", [
    # 22, 25, 68 and 87 when written
    ("default.cfg", "unsolvable.ch", 20),
    ("default.cfg", "clear_red.ch", 20),
    ("search.cfg", "unsolvable.ch", 60),
    ("search.cfg", "clear_red.ch", 80),
])
def test_deep_generated_solves_agree(config_name, challenge_name, floor):
    """Every distinct tabulated block that seeds 0-1,999 generate for a
    fixture challenge, and whose solve explores more than the root, gives
    the general path's result: at least ``floor`` such blocks, and some of
    their solves counted."""
    challenge = load_challenge(FIXTURES / challenge_name)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    config = CONFIGS[config_name]
    seen = set()
    deep = []  # whether each deep solve counted its levels
    for seed in range(2000):
        try:
            block = generate_block(TAP_SIG, registry, config_with_seed(config, seed))
        except GenerationError:
            continue
        text = pretty(block)
        if text in seen:
            continue
        seen.add(text)
        hooks = hooks_for(block, registry)
        if takes_general_path(hooks, challenge.initial):
            continue
        fast, parts = counted(challenge, hooks)
        if fast.states_explored > 1:
            deep.append(parts is not None)
            assert fast == solve(challenge, hooks_for(block, general_registry(registry))), text
    assert len(deep) >= floor and any(deep)


@settings(max_examples=150, deadline=None)
@given(challenges(), st.sampled_from(ONE_LINERS))
def test_one_liners_agree_on_random_boards(challenge, text):
    assert_paths_agree(challenge, text)


@settings(max_examples=150, deadline=None)
@given(deep_challenges(), st.sampled_from(ONE_LINERS))
def test_one_liners_agree_on_deep_challenges(challenge, text):
    assert_paths_agree(challenge, text)


# --------------------------------------------------------------------------
# Hypothesis: one move at a time


def settled_children(hooks, root, board):
    """{tap: the child key, or None when the tap raised} of every tap of
    ``board``, by the ``later`` that ``tap_moves`` builds on ``root``,
    called on ``board``'s key. A tap with no move leaves the board as gravity leaves
    it: on a gravity-normal board its settled gather is the identity, and
    a NOOP cell, which has no move, settles a board with floating tiles."""
    later, _ = tap_moves(hooks, root)
    settled = apply_gravity(board).key()
    out = {(x, y): settled for y in range(board.height) for x in range(board.width)}
    taps, children = later(board.key())
    assert len(taps) == len(children)
    for xy, child in zip(taps, children):
        if child is not None:
            assert isinstance(child, tuple) and len(child) == len(board.cells)
        out[xy] = child
    return out


def raw_children(hooks, root, board):
    """``settled_children`` with each tabulated tap as the gather its marker
    run left, before gravity."""
    with mock.patch.object(game, "_settled_gather", lambda picks, mask, height: game._items(picks)):
        return settled_children(hooks, root, board)


def settle(key, board):
    """The gravity-normal form of a key of ``board``'s size (None stays None)."""
    if key is None:
        return None
    return apply_gravity(Board(board.width, board.height, list(key))).key()


def tapped(hooks, board, x, y):
    """The settled key ``tap`` leaves, None if it raises an ExecutionError."""
    try:
        return tap(GameState(board.clone()), x, y, hooks).board.key()
    except ExecutionError:
        return None


@st.composite
def board_pairs(draw):
    """Two boards of one size: a gravity-normal root, and a board that the
    later moves are applied to, which may have floating tiles."""
    root = apply_gravity(draw(boards))
    w, h = root.width, root.height
    cells = st.lists(st.sampled_from([*COLOURS, None]), min_size=w * h, max_size=w * h)
    return root, Board(w, h, draw(cells))


@settings(max_examples=200, deadline=None)
@given(board_pairs(), st.sampled_from(ONE_LINERS))
def test_each_tabulated_move_matches_the_general_move(boards_, text):
    root, other = boards_
    block = parse(text, params=["x", "y"])
    registry = build_game_registry(root.width, root.height)
    fast_hooks = hooks_for(block, registry)
    slow_hooks = hooks_for(block, general_registry(registry))
    for board in (root, other):
        fast = settled_children(fast_hooks, root, board)
        slow = settled_children(slow_hooks, root, board)
        assert len(slow) == root.width * root.height
        for (x, y), expected in slow.items():
            assert expected == tapped(slow_hooks, board, x, y), (text, board, (x, y))
            # A tabulated cell left out of the moves is a NOOP: its child is
            # the settled board.
            assert fast.get((x, y), apply_gravity(board).key()) == expected, (text, board, (x, y))


@st.composite
def move_cases(draw):
    """A gravity-normal root and a second board of one size from 1x1 to
    4x4, each with empty cells, the second gravity-normal or not, and a
    one-liner or a block generated from a fixture config for that size."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cells = st.lists(st.sampled_from([*COLOURS, None]), min_size=w * h, max_size=w * h)
    root, other = apply_gravity(Board(w, h, draw(cells))), Board(w, h, draw(cells))
    if draw(st.booleans()):
        other = apply_gravity(other)
    if draw(st.booleans()):
        block = parse(draw(st.sampled_from(ONE_LINERS)), params=["x", "y"])
    else:
        config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
        seed = draw(st.integers(min_value=0, max_value=10**6))
        try:
            block = generate_block(TAP_SIG, build_game_registry(w, h), config_with_seed(config, seed))
        except GenerationError:
            assume(False)
    return root, other, block


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(move_cases())
def test_each_settled_move_is_gravity_after_its_gather(case):
    root, other, block = case
    registry = build_game_registry(root.width, root.height)
    fast_hooks = hooks_for(block, registry)
    slow_hooks = hooks_for(block, general_registry(registry))
    for board in (root, other):
        settled = settled_children(fast_hooks, root, board)
        raw = raw_children(fast_hooks, root, board)
        general = settled_children(slow_hooks, root, board)
        for xy, expected in general.items():
            assert expected == tapped(slow_hooks, board, *xy), (block, board, xy)
            assert settle(raw[xy], board) == expected, (block, board, xy)
            assert settled[xy] == expected, (block, board, xy)


def test_a_constraint_violation_cell_returns_none_on_every_board():
    block = parse("DestroyTile(Add(x, 1), y);", params=["x", "y"])  # raises on x = 2
    root = Board(3, 2)
    others = [Board(3, 2, ["R", "G", "B", "Y", "R", None]), Board(3, 2, ["R", None] * 3)]
    registry = build_game_registry(3, 2)
    for hooks in (hooks_for(block, registry), hooks_for(block, general_registry(registry))):
        for board in (root, *others):
            children = settled_children(hooks, root, board)
            assert [children[(2, y)] for y in range(2)] == [None, None]
            assert all(children[(x, y)] is not None for x in range(2) for y in range(2))


def test_a_one_cell_gather_returns_a_tuple():
    block = parse("SetTile(x, y, Colour.G);", params=["x", "y"])
    root = Board(1, 1, ["R"])
    hooks = hooks_for(block, build_game_registry(1, 1))
    later, _ = tap_moves(hooks, root)
    assert later(root.key()) == (((0, 0),), [("G",)])
    assert later(("B",)) == (((0, 0),), [("G",)])
    # Settled for an empty cell as well: still one tuple.
    assert later((None,)) == (((0, 0),), [("G",)])


def test_a_tap_settled_to_the_identity_has_no_move_on_that_mask():
    # Destroying the top cell of a column is the identity when the column is
    # not full, so every tap of such a column is dropped for that mask only.
    block = parse("DestroyTile(x, Sub(Height, 1));", params=["x", "y"])
    root = Board.from_rows([".R.", "GBR", "RBG"])
    hooks = hooks_for(block, build_game_registry(3, 3))
    later, _ = tap_moves(hooks, root)
    assert list(later(root.key())[0]) == [(1, y) for y in range(3)]
    assert len(later(Board.from_rows(["RRR", "GBR", "RBG"]).key())[1]) == 9
    assert later(Board.from_rows(["...", "GB.", "RBG"]).key()) == ((), [])


def test_the_tabulated_fast_path_runs_no_gravity_on_a_board(monkeypatch):
    # Once its cells are tabulated, a solve neither runs the block nor
    # settles a board: gravity runs on the picks of each gather, once per mask.
    game._settled_gather.cache_clear()  # so this solve settles its own gathers
    challenge = parse_challenge("....\nR...\nGB.R\nRGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n")
    settles, runs = [], []
    real_settle, real_prepare = game._settle, game.prepare

    def counted_settle(cells, height):
        settles.append(any(isinstance(c, str) for c in cells))
        real_settle(cells, height)

    def counted_prepare(delegate, params):
        run = real_prepare(delegate, params)
        return lambda *args: runs.append(1) or run(*args)

    monkeypatch.setattr(game, "_settle", counted_settle)
    monkeypatch.setattr(game, "prepare", counted_prepare)
    block = parse("DestroyTile(x, y);", params=["x", "y"])
    result = solve(challenge, hooks_for(block, build_game_registry(4, 4)))
    assert result.status == Unsolvable() and result.states_explored > 16
    assert len(runs) == 16  # one marker run per cell, all before the search starts
    assert settles and not any(settles)


# --------------------------------------------------------------------------
# the count decision: which gathers can make a child meet the goal


def assert_matches_naive(challenge, text, registry=None, tabulated=True):
    """``assert_paths_agree`` (or, unless ``tabulated``, that both solves
    take the general path and agree), and the status ``naive_solve`` finds
    by replay."""
    registry = registry or build_game_registry(challenge.initial.width, challenge.initial.height)
    if tabulated:
        result = assert_paths_agree(challenge, text, registry)
    else:
        result, slow, taken = both_paths(challenge, parse(text, params=["x", "y"]), registry)
        assert not taken and result == slow, text
    slow = naive_solve(challenge, hooks_for(parse(text, params=["x", "y"]), registry))
    expected = Unsolvable() if slow[0] == "unsolvable" else Solved(slow[1], slow[2])
    assert result.status == expected, text
    return result


def built_for(text, root, registry=None):
    """``later`` and the tabulated summary of ``text``'s moves built for
    ``root`` (``tap_moves``)."""
    registry = registry or build_game_registry(root.width, root.height)
    hooks = hooks_for(parse(text, params=["x", "y"]), registry)
    return tap_moves(hooks, root)


def test_a_present_goal_is_met_at_the_last_tap_by_a_gather_of_its_colour():
    # A tabulated child holds Y only if its gather picks the constant Y, and
    # every cell is tapped at the root: such a goal is met in one tap or never.
    challenge = parse_challenge("RGB\nBRG\nGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 1\n")
    for text, witness, errors in (
        ("SetTile(x, y, Colour.Y);", ((0, 0),), 0),
        ("DestroyTile(Sub(x, 1), y); SetTile(x, y, Colour.Y);", ((1, 0),), 1),
    ):
        result = assert_matches_naive(challenge, text)
        assert result == EvalResult(Solved(1, witness), errors, 1), text


def can_win(text, root, goal):
    """Whether ``text``'s moves built for ``root`` keep the queue: the hook
    takes the general path, or ``goal`` rules that some gather's summary
    can make a child meet it (``Goal.can_win``)."""
    _, tabulated = built_for(text, root)
    return tabulated is None or any(goal.can_win(*summary) for summary in tabulated[1])


PRESENT_Y = Goal(GoalKind.COLOUR_PRESENT, "Y")
CLEARED = Goal(GoalKind.CLEARED)
CLEARED_R = Goal(GoalKind.COLOUR_CLEARED, "R")


def test_a_present_goal_is_counted_unless_a_gather_picks_its_colour():
    for root in (Board.from_rows([".R.", "GBR", "RBG"]), Board.from_rows(["RGB", "GBR", "RBG"])):
        assert can_win("SetTile(x, y, Colour.Y);", root, PRESENT_Y)
        assert not can_win("SetTile(x, y, Colour.G);", root, PRESENT_Y)
        assert can_win("if (Equal(x, 1)) { SetTile(x, 0, Colour.Y); }", root, PRESENT_Y)
        # Column 0 raises on every board, and no gather picks a Y.
        assert not can_win("DestroyTile(Sub(x, 1), y); SetTile(x, y, Colour.G);", root, PRESENT_Y)


def test_a_cleared_goal_is_counted_unless_a_gather_can_clear_a_tile():
    root = Board.from_rows([".R.", "GBR", "RBG"])
    for goal in (CLEARED, CLEARED_R):
        assert can_win("DestroyTile(x, y);", root, goal)
        assert not can_win("SwapTiles(x, y, 0, 0);", root, goal)
        assert can_win("DestroyTile(Sub(x, 1), y);", root, goal)
    # A painted colour stays on the board: G meets COLOUR_CLEARED R, never CLEARED.
    assert can_win("SetTile(x, y, Colour.G);", root, CLEARED_R)
    assert not can_win("SetTile(x, y, Colour.G);", root, CLEARED)
    assert not can_win("SetTile(x, y, Colour.R);", root, CLEARED_R)


# --------------------------------------------------------------------------
# the goal rule: ``Goal.can_win`` on a gather's summary (``game._summary``)


def test_a_summary_is_the_colours_written_and_the_board_cells_unpicked():
    # Four board cells at 0..3, then the constants None, R, G, B, Y at 4..8.
    assert game._summary((0, 1, 2, 3)) == (frozenset(), 0)
    assert game._summary((3, 3, 2, 1)) == (frozenset(), 1)
    assert game._summary((4, 0, 1, 2)) == (frozenset(), 1)  # emptiness is no colour
    assert game._summary((8, 5, 5, 3)) == (frozenset({"R", "Y"}), 3)


@pytest.mark.parametrize("goal, writes, unpicked, wins", [
    (PRESENT_Y, {"Y"}, 0, True),
    (PRESENT_Y, {"R", "G"}, 4, False),
    (PRESENT_Y, set(), 9, False),
    (CLEARED_R, set(), 1, True),
    (CLEARED_R, {"G"}, 1, True),  # a tile of another colour may stay
    (CLEARED_R, {"R"}, 3, False),  # a written R stays on the board
    (CLEARED_R, set(), 0, False),  # the child keeps every tile of its parent
    (CLEARED, set(), 1, True),
    (CLEARED, {"B"}, 2, False),
    (CLEARED, set(), 0, False),
])
def test_the_goal_rule_on_a_summary(goal, writes, unpicked, wins):
    assert goal.can_win(frozenset(writes), unpicked) is wins


@st.composite
def picked_boards(draw):
    """A gravity-normal board up to 3x3, a goal of any kind that fails on
    it, and a gather's picks over its key followed by the constants
    ``(None, *COLOURS)``. The picks come from a few sources, often with the
    constant the goal is about (its colour if it wants one present, else
    emptiness), so that a child often meets the goal."""
    board = apply_gravity(draw(boards))
    goal = draw(goals.filter(lambda goal: not goal.satisfied(board)))
    n = len(board.cells)
    sources = draw(st.lists(st.integers(0, n + len(COLOURS)), min_size=1, max_size=n + len(COLOURS)))
    if draw(st.booleans()):
        present = goal.kind is GoalKind.COLOUR_PRESENT
        sources.append(n + 1 + COLOURS.index(goal.colour) if present else n)
    return board, goal, tuple(draw(st.lists(st.sampled_from(sources), min_size=n, max_size=n)))


@settings(max_examples=500, deadline=None)
@given(picked_boards())
def test_a_gather_whose_settled_child_meets_a_goal_its_parent_fails_can_win(case):
    board, goal, picks = case
    mask = tuple(cell is None for cell in board.cells)
    gather = game._settled_gather(picks, mask, board.height)
    child = board.cells if gather is None else gather(board.cells + (None, *COLOURS))
    if goal.satisfied(Board(board.width, board.height, child)):
        assert goal.can_win(*game._summary(picks))


@pytest.mark.parametrize("text, goal", [
    ("SetTile(x, y, Colour.R);", "COLOUR_CLEARED R"),
    ("SetTile(x, y, Colour.G);", "CLEARED"),
])
def test_painting_a_forbidden_colour_is_counted(text, goal):
    challenge = parse_challenge(f".R.\nGBR\nRBG\ngoal: {goal}\nmax_taps: 3\n")
    expected = assert_matches_naive(challenge, text)
    result, parts = counted(challenge, hooks_for(parse(text, params=["x", "y"]),
                                                 build_game_registry(3, 3)))
    assert parts is not None and result == expected and result.status == Unsolvable()
    assert result.states_explored > 1


@pytest.mark.parametrize("board, goal, witness, errors", [
    # Tap (x, y) destroys (x - 1, y): every tap of column 0 raises, and the
    # winning leaf parent counts its column-0 taps before its winning tap.
    ("...\nRG.", "CLEARED", ((1, 0), (2, 0)), 3),
    (".R.\nRBG", "COLOUR_CLEARED R", ((1, 0), (2, 1)), 4),
])
def test_a_cleared_goal_met_at_the_last_tap_after_raising_cells(board, goal, witness, errors):
    challenge = parse_challenge(f"{board}\ngoal: {goal}\nmax_taps: 2\n")
    result = assert_matches_naive(challenge, "DestroyTile(Sub(x, 1), y);")
    assert result == EvalResult(Solved(2, witness), errors, 2)


# --------------------------------------------------------------------------
# counting: a solve whose goal no move can meet counts its levels


def counted(challenge, hooks, calls=None):
    """The solve's result, and the number of parts it counted its levels
    over (``evaluate._count_levels``), or None when it queued them instead.
    With ``calls``, every child that ``later`` or a part builds appends its
    (parent, child) there."""
    built, counts = [], []
    real, real_count = evaluate.tap_moves, evaluate._count_levels

    def spy(later):
        def recorded(key):
            taps, children = later(key)
            calls.extend((key, child) for child in children)
            return taps, children
        return recorded

    def spied(hooks, board):
        later, tabulated = real(hooks, board)
        built.append(tabulated)
        if calls is not None:
            later = spy(later)
            if tabulated is not None:
                raising, summaries, parts = tabulated
                tabulated = (raising, summaries, [spy(part) for part in parts])
        return later, tabulated

    def count_levels(start, parts, depths):
        counts.append(len(parts))
        return real_count(start, parts, depths)

    with mock.patch.object(evaluate, "tap_moves", spied), \
            mock.patch.object(evaluate, "_count_levels", count_levels):
        result = solve(challenge, hooks)
    assert len(built) == 1 and len(counts) <= 1
    assert not counts or built[0] is not None  # only a tabulated hook is counted
    return result, counts[0] if counts else None


@pytest.mark.parametrize("goal", ["COLOUR_PRESENT Y", "COLOUR_CLEARED R"])
def test_a_swap_calls_no_move_at_the_last_depth(goal):
    # A swap's child holds the parent's tiles and no constant, so it neither
    # holds a Y nor clears a colour: the solve counts its levels from the
    # root, and a last-depth parent builds no child. Every swap moves a tile
    # of column 0, so the count has one part.
    challenge = parse_challenge(f"RGB\nBRG\nGBR\ngoal: {goal}\nmax_taps: 3\n")
    text = "SwapTiles(x, y, 0, 0);"
    expected = assert_matches_naive(challenge, text)
    calls = []  # (parent, child) of every child built
    block = parse(text, params=["x", "y"])
    result, parts = counted(challenge, hooks_for(block, build_game_registry(3, 3)), calls)
    assert result == expected and result.status == Unsolvable()
    assert parts == 1 and result.error_count == 0
    root = challenge.initial.key()
    inner = {root} | {child for parent, child in calls if parent == root}
    assert len(inner) > 2 and {parent for parent, _ in calls} == inner


def test_a_counted_solve_counts_each_raising_cell_on_every_state():
    # Taps of the last column raise on every board; the rest destroy a tile,
    # which never makes a Y.
    challenge = parse_challenge("RGB\nBRG\nGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n")
    text = "DestroyTile(Add(x, 1), y);"
    expected = assert_matches_naive(challenge, text)
    result, parts = counted(challenge, hooks_for(parse(text, params=["x", "y"]),
                                                 build_game_registry(3, 3)))
    assert parts is not None and result == expected and result.status == Unsolvable()
    assert result.states_explored > 1 and result.error_count == result.states_explored * 3


@contextmanager
def ends_within(seconds):
    """Fail with a TimeoutError unless the body ends within ``seconds``."""
    def hang(signum, frame):
        raise TimeoutError("the count went on past an empty level")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_counted_solve_ends_on_an_empty_level():
    # A swap with the bottom cell reaches two boards, so the third level adds
    # no state: a budget of 10**12 taps ends there, as the general path does.
    challenge = parse_challenge("R\nG\ngoal: COLOUR_PRESENT Y\nmax_taps: 1000000000000\n")
    block = parse("SwapTiles(x, y, 0, 0);", params=["x", "y"])
    registry = build_game_registry(1, 2)
    with ends_within(60):  # generous: the solve takes well under a second
        result, parts = counted(challenge, hooks_for(block, registry))
    slow = solve(challenge, hooks_for(block, general_registry(registry)))
    assert parts is not None and result == slow == EvalResult(Unsolvable(), 0, 2)


# --------------------------------------------------------------------------
# counting by parts: taps that change disjoint columns are counted apart


def assert_count_agrees(challenge, text, parts):
    """``assert_matches_naive``, and that the solve counted over ``parts``
    parts; returns the result."""
    expected = assert_matches_naive(challenge, text)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    result, split = counted(challenge, hooks_for(parse(text, params=["x", "y"]), registry))
    assert split == parts and result == expected and result.status == Unsolvable(), text
    return result


def test_taps_coupled_across_columns_are_one_part():
    # Taps (1, 0) and (0, 1) swap a tile between columns 0 and 1; every other
    # tap destroys its own tile. Columns 0 and 1 are one part, column 2 another.
    challenge = parse_challenge("RGB\nBRG\nGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 4\n")
    text = "if (Equal(Add(x, y), 1)) { SwapTiles(x, y, y, x); } else { DestroyTile(x, y); }"
    assert assert_count_agrees(challenge, text, 2).states_explored > 8
    # Swapping with (0, 0) couples every column: one part, the whole board.
    assert_count_agrees(challenge, "SwapTiles(x, y, 0, 0);", 1)


def test_a_part_that_runs_out_of_boards_while_another_grows():
    # Column 0 holds one tile, column 1 three: destroying tiles, column 0's
    # levels are 1, 1 and column 1's 1, 3, 3, 1. Their convolution is
    # 1, 4, 6, 4, 1, and three taps reach all but the last.
    challenge = parse_challenge(".R\n.G\nRB\ngoal: COLOUR_PRESENT Y\nmax_taps: 4\n")
    result = assert_count_agrees(challenge, "DestroyTile(x, y);", 2)
    assert result == EvalResult(Unsolvable(), 0, 15)


def test_raising_cells_in_a_multi_part_count():
    # Tap (x, y) destroys (x + 1, y): the last column raises on every board,
    # and columns 1 and 2 are destroyed apart.
    challenge = parse_challenge("RGB\nBRG\nGBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n")
    result = assert_count_agrees(challenge, "DestroyTile(Add(x, 1), y);", 2)
    assert result.states_explored > 1 and result.error_count == 3 * result.states_explored


def test_a_multi_part_count_ends_on_an_empty_level():
    # Two columns of destroyable tiles: 8 boards in all, whatever the budget.
    challenge = parse_challenge(".R\nGB\ngoal: COLOUR_PRESENT Y\nmax_taps: 1000000000000\n")
    block = parse("DestroyTile(x, y);", params=["x", "y"])
    registry = build_game_registry(2, 2)
    with ends_within(60):  # generous: the solve takes well under a second
        result, parts = counted(challenge, hooks_for(block, registry))
    slow = solve(challenge, hooks_for(block, general_registry(registry)))
    assert parts == 2 and result == slow == EvalResult(Unsolvable(), 0, 8)


def test_a_counted_destroy_never_expands_a_board_changed_in_two_parts():
    # Each column of the 5x5 ladder board is a part: every board the count
    # expands is the root with at most one column changed.
    challenge = load_challenge(FIXTURES / "present_yellow_5x5.ch")
    calls = []
    block = parse("DestroyTile(x, y);", params=["x", "y"])
    result, parts = counted(challenge, hooks_for(block, build_game_registry(5, 5)), calls)
    assert parts == 5 and result == EvalResult(Unsolvable(), 0, 4271)
    root, h = challenge.initial.key(), challenge.initial.height

    def columns_changed(key):
        return {i // h for i, (a, b) in enumerate(zip(key, root)) if a != b}

    assert calls and max(len(columns_changed(parent)) for parent, _ in calls) == 1


MIXED = "if (Less(x, 1)) { SwapTiles(x, y, 1, 1); } else { DestroyTile(x, y); }"


@pytest.mark.parametrize("text, goal", [
    ("SetTile(x, y, Colour.Y);", "COLOUR_PRESENT Y"),  # a gather that picks the Y
    ("DestroyTile(x, y);", "COLOUR_CLEARED R"),  # a gather that drops a tile
    # column 0 swaps, the rest destroy: a mixed move list at every depth
    (MIXED, "CLEARED"),
    (MIXED, "COLOUR_CLEARED R"),
])
def test_a_move_that_can_meet_the_goal_keeps_the_queue(text, goal):
    for taps in (2, 3):
        challenge = parse_challenge(f"RGB\nBRG\nGBR\ngoal: {goal}\nmax_taps: {taps}\n")
        assert built_for(text, challenge.initial)[1] is not None
        assert can_win(text, challenge.initial, challenge.goal)
        expected = assert_matches_naive(challenge, text)
        result, parts = counted(challenge, hooks_for(parse(text, params=["x", "y"]),
                                                     build_game_registry(3, 3)))
        assert parts is None and result == expected


@pytest.mark.parametrize("board, goal, taps, text, result", [
    # Two boards in all: the third level is empty, one depth before the last.
    ("R\nG", "COLOUR_PRESENT Y", 4, "SwapTiles(x, y, 0, 0);", EvalResult(Unsolvable(), 0, 2)),
    # One tap: the root is the only state expanded, and its children are counted.
    ("RGB\nBRG\nGBR", "COLOUR_PRESENT Y", 1, "SwapTiles(x, y, 0, 0);",
     EvalResult(Unsolvable(), 0, 1)),
    ("RGB\nBRG\nGBR", "COLOUR_CLEARED R", 1,
     "DestroyTile(Add(x, 1), y); SetTile(x, y, Colour.R);", EvalResult(Unsolvable(), 3, 1)),
])
def test_a_counted_solve_at_its_first_and_last_levels(board, goal, taps, text, result):
    challenge = parse_challenge(f"{board}\ngoal: {goal}\nmax_taps: {taps}\n")
    expected = assert_matches_naive(challenge, text)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    got, parts = counted(challenge, hooks_for(parse(text, params=["x", "y"]), registry))
    assert parts is not None and got == expected == result


@pytest.mark.parametrize("goal", ["CLEARED", "COLOUR_PRESENT Y"])
def test_a_variant_cell_keeps_the_queue(goal):
    # Painting Z picks no Y and drops no tile, but no gather can pick a Z, so
    # the block runs on every move, which the rule does not look into.
    challenge = parse_challenge(f"RG\nBR\ngoal: {goal}\nmax_taps: 3\n")
    text = "SetTile(x, 0, Colour.R); SetTile(x, 1, Colour.Z);"
    assert built_for(text, challenge.initial, z_registry(2, 2))[1] is None
    result, parts = counted(challenge, hooks_for(parse(text, params=["x", "y"]), z_registry(2, 2)))
    assert parts is None and result.status == Unsolvable() and result.states_explored > 1


def test_a_reader_keeps_the_queue():
    challenge = parse_challenge("RG\nBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n")
    text = "if (IsOccupied(x, 1)) { SwapTiles(x, y, 0, 0); }"
    assert built_for(text, challenge.initial)[1] is None
    hooks = hooks_for(parse(text, params=["x", "y"]), build_game_registry(2, 2))
    result, parts = counted(challenge, hooks)
    assert parts is None and result.status == Unsolvable() and result.states_explored > 1
    assert naive_solve(challenge, hooks)[0] == "unsolvable"


def test_the_random_differentials_take_the_counting_path():
    """The Hypothesis differentials above draw cases that ``solve`` counts
    past the root, so their general path checks the count: at least one in
    ``test_one_liners_agree_on_random_boards``, whose draws are mostly one
    tap or a root with no new child, and in ``test_generated_candidates_agree``
    (it draws deep challenges, and twice as many cases, as few generated
    blocks count past a gravity-normal root), and one in ten in
    ``test_one_liners_agree_on_deep_challenges``. Some of the deep draws
    count over two parts or more."""
    taken = {"random": [], "generated": [], "deep": []}
    split = []  # whether each deep count past the root had two parts or more

    def record(name, challenge, block):
        registry = build_game_registry(challenge.initial.width, challenge.initial.height)
        result, parts = counted(challenge, hooks_for(block, registry))
        deep = parts is not None and result.states_explored > 1
        taken[name].append(deep)
        if deep and name == "deep":
            split.append(parts > 1)

    def one_liners(name, strategy):
        @settings(max_examples=150, deadline=None, derandomize=True, database=None)
        @given(strategy, st.sampled_from(ONE_LINERS))
        def run(challenge, text):
            record(name, challenge, parse(text, params=["x", "y"]))
        run()

    @settings(max_examples=300, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(deep_challenges(), st.sampled_from(sorted(CONFIGS)),
           st.integers(min_value=0, max_value=10**6))
    def generated(challenge, config_name, seed):
        registry = build_game_registry(challenge.initial.width, challenge.initial.height)
        try:
            block = generate_block(TAP_SIG, registry, config_with_seed(CONFIGS[config_name], seed))
        except GenerationError:
            assume(False)
        record("generated", challenge, block)

    one_liners("random", challenges())
    one_liners("deep", deep_challenges())
    generated()
    # 17 of 150, 4 of 300 and 78 of 150 when written (2 of 300 when the
    # generated draws were not deep)
    assert all(len(flags) >= 100 for flags in taken.values())
    assert sum(taken["random"]) >= 1 and sum(taken["generated"]) >= 1
    assert sum(taken["deep"]) * 10 >= len(taken["deep"])
    assert sum(split) >= 3  # 35 of the deep draws when written


@pytest.mark.parametrize("config_name, size, floor", [
    # 174 and 131 of 200 when written; 162 and 88 when any call site of a
    # reader, reachable or not, sent a block down the general path
    ("search.cfg", 4, 100),
    ("default.cfg", 3, 120),
])
def test_most_search_candidates_are_tabulated(config_name, size, floor):
    """The differential above exercises the tabulated path, not just the general one."""
    registry = build_game_registry(size, size)
    board = Board(size, size, ["R"] * (size * size))
    config = CONFIGS[config_name]
    blocks = [generate_block(TAP_SIG, registry, config_with_seed(config, s)) for s in range(200)]
    tabulated = sum(not takes_general_path(hooks_for(b, registry), board) for b in blocks)
    assert tabulated > floor


# --------------------------------------------------------------------------
# the annotation: non-readers never look at a cell


class Opaque:
    """A cell a method may move but must not look at."""

    __slots__ = ("pos",)

    def __init__(self, pos):
        self.pos = pos

    def _look(self, *args):
        raise AssertionError(f"a host method looked at cell {self.pos}")

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = __hash__ = _look


WIDTH, HEIGHT = 3, 2  # not square, so a swapped x and y shows


def argument_lists(method):
    """Every in-bounds argument list of a game method, with a few values
    for unbounded ints."""
    options = []
    for pname, ptype in method.params:
        if ptype == INT:
            lo, hi = method.literal_interval(pname)
            values = range(lo, hi + 1) if lo is not None else (-3, 0, 2, 2**63 - 1)
            options.append([IntV(v) for v in values])
        else:
            assert ptype == enum_type("Colour")
            options.append([EnumV("Colour", c) for c in COLOURS])
    return [list(args) for args in itertools.product(*options)]


def run_host(method, cells, args):
    world = GameState(Board(WIDTH, HEIGHT, list(cells)))
    value = method.host_impl(world, args)
    return value, world.cells


def non_readers():
    return [m for m in build_game_registry(WIDTH, HEIGHT).methods.values() if not m.reads_world]


def test_game_registry_declares_only_the_two_readers():
    registry = build_game_registry(WIDTH, HEIGHT)
    readers = {name for name, m in registry.methods.items() if m.reads_world}
    assert readers == {"IsOccupied", "CountColour"}
    assert len(non_readers()) == 8


@pytest.mark.parametrize("method", non_readers(), ids=lambda m: m.name)
@settings(max_examples=40, deadline=None)
@given(cells=st.lists(st.sampled_from([None, *COLOURS]), min_size=WIDTH * HEIGHT,
                      max_size=WIDTH * HEIGHT))
def test_non_readers_never_look_at_a_cell(method, cells):
    markers = [Opaque(i) for i in range(WIDTH * HEIGHT)]
    for args in argument_lists(method):
        value, after = run_host(method, markers, args)
        # Each cell is a marker (by identity, so nothing is compared) or a constant.
        for cell in after:
            assert any(cell is m for m in markers) or cell is None or cell in COLOURS
        # The marker run predicts the method on the drawn board.
        expected = [
            cells[next(i for i, m in enumerate(markers) if m is c)]
            if isinstance(c, Opaque) else c
            for c in after
        ]
        assert run_host(method, cells, args) == (value, expected)


@pytest.mark.parametrize("name", ["IsOccupied", "CountColour"])
def test_the_readers_do_look(name):
    method = build_game_registry(WIDTH, HEIGHT).methods[name]
    empty, full = [None] * (WIDTH * HEIGHT), ["R"] * (WIDTH * HEIGHT)
    args = argument_lists(method)[0]
    assert run_host(method, empty, args) != run_host(method, full, args)


# --------------------------------------------------------------------------
# the marker pass decides the path


def general(text, registry=None, size=3):
    """Whether ``text`` takes the general path on a ``size`` x ``size`` board."""
    registry = registry or build_game_registry(size, size)
    board = Board(size, size, ["R"] * (size * size))
    return takes_general_path(hooks_for(parse(text, params=["x", "y"]), registry), board)


def test_oblivious_blocks_are_tabulated():
    for text in ONE_LINERS + ["int v0 = Width; SetTile(Sub(Width, 1), Height, Colour.R);", ""]:
        assert not general(text), text


DECIDED = "RGB\nBRG\nGBR\ngoal: CLEARED\nmax_taps: 3\n"


def test_a_reader_in_a_dead_branch_is_tabulated():
    # No marker run reaches the read, so it never happens on any board.
    for text in ("if (false) { IsOccupied(x, y); } DestroyTile(x, y);",
                 "if (true) { DestroyTile(x, y); } else { Add(CountColour(Colour.R), 1); }"):
        assert not general(text), text
        for goal in ("CLEARED", "COLOUR_CLEARED R", "COLOUR_PRESENT Y"):
            assert_matches_naive(parse_challenge(DECIDED.replace("CLEARED", goal, 1)), text)


def test_a_field_write_is_tabulated():
    # The game's fields cannot be written: a reached write raises on every
    # board, and an unreached one does nothing.
    game_space = build_game_registry()
    registry = Registry(game_space.enums.values(), [*game_space.fields.values(), FieldDescriptor("Score", INT)],
                        game_space.methods.values())
    challenge = parse_challenge(DECIDED)
    for text, errors in (("Score = 3;", 9), ("if (false) { Score = Add(x, 1); }", 0),
                         ("if (false) { Add(Score, 1); }", 0)):
        assert not general(text, registry), text
        result = assert_matches_naive(challenge, text, registry)
        assert result == EvalResult(Unsolvable(), errors, 1), text


def test_a_default_method_descriptor_takes_the_general_path():
    plain = MethodDescriptor("Plain", (), VOID, host_impl=lambda world, args: None)
    assert plain.reads_world
    registry = Registry(methods=[plain, replace(plain, name="Pure", reads_world=False)])
    assert general("Plain();", registry)
    assert not general("Pure();", registry)
    for text in ("Plain();", "Pure();"):
        assert_matches_naive(parse_challenge(DECIDED), text, registry, tabulated=text == "Pure();")


def test_a_reader_reached_on_some_groups_only_takes_the_general_path():
    # Column 0 reaches no reader, the other columns do: the whole block runs
    # on every tap.
    text = "if (Less(0, x)) { IsOccupied(x, y); } DestroyTile(x, y);"
    assert general(text)
    for goal in ("CLEARED", "COLOUR_CLEARED R"):
        assert_matches_naive(parse_challenge(DECIDED.replace("CLEARED", goal, 1)), text, tabulated=False)


def test_a_reader_whose_bound_check_fails_is_counted_as_raising():
    # The bound check comes before the read, so every marker run raises a
    # ConstraintViolation: every cell raises on every board.
    text = "IsOccupied(Add(x, 3), y);"
    challenge = parse_challenge(DECIDED)
    assert not general(text)
    assert built_for(text, challenge.initial)[1] == (9, [], [])
    assert assert_matches_naive(challenge, text) == EvalResult(Unsolvable(), 9, 1)


def test_a_probe_never_calls_a_readers_host():
    # This IsOccupied fails on a marker cell; the marker pass must stop at
    # the call, and the general path then calls it on real boards only.
    def strict_is_occupied(world, args):
        cell = world.cells[args[0].value * world.height + args[1].value]
        assert not isinstance(cell, int), "a marker run called a reader's host"
        return BoolV(cell is not None)

    game_space = build_game_registry(3, 3)
    registry = Registry(game_space.enums.values(), game_space.fields.values(), [
        replace(m, host_impl=strict_is_occupied) if m.name == "IsOccupied" else m
        for m in game_space.methods.values()
    ])
    text = "if (IsOccupied(x, y)) { DestroyTile(x, y); }"
    assert general(text, registry)
    assert_matches_naive(parse_challenge(DECIDED), text, registry, tabulated=False)


def test_the_flag_is_not_rendered():
    registry = build_game_registry()
    assert general_registry(registry).dump_lines() == registry.dump_lines()
    assert not any("reads" in line for line in registry.dump_lines())


# --------------------------------------------------------------------------
# groups: a tap runs once per value of the parameters its block reads


# Blocks that read no parameter, only x or only y: tabulated ones first.
GROUPED = [
    "DestroyTile(2, 0);",  # raises on a board narrower than 3
    "SetTile(x, 0, Colour.Y);",
    "SwapTiles(0, y, Sub(Width, 1), y);",
    "if (Equal(y, 1)) { DestroyTile(0, 0); }",  # a NOOP outside row 1
    "DestroyTile(Sub(x, 1), Sub(Height, 1));",  # raises on column 0
]
READERS = [
    "if (IsOccupied(0, 0)) { DestroyTile(1, 0); }",
    "if (IsOccupied(x, 0)) { SetTile(x, 0, Colour.G); }",
    "if (Less(CountColour(Colour.R), 2)) { DestroyTile(0, y); }",
    "if (IsOccupied(0, y)) { SwapTiles(0, y, Sub(Width, 1), 0); } else { DestroyTile(Sub(Width, 2), 0); }",
]


def ungrouped(challenge, hooks):
    """The solve with every cell in a group of its own, as for a block that
    reads both parameters: one run per cell."""
    real = game._plan
    with mock.patch.object(game, "_plan", lambda w, h, read: real(w, h, frozenset((0, 1)))):
        return solve(challenge, hooks)


def assert_grouped_agree(challenge, text):
    """The grouped solve equals the general path's, the ungrouped solve's
    and, in status, ``naive_solve``'s replay through ``tap``."""
    block = parse(text, params=["x", "y"])
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    fast, slow, tabulated = both_paths(challenge, block)
    assert tabulated == (text in GROUPED), text
    hooks = hooks_for(block, registry)
    assert fast == slow == ungrouped(challenge, hooks), text
    naive = naive_solve(challenge, hooks)
    assert fast.status == (Unsolvable() if naive[0] == "unsolvable" else Solved(naive[1], naive[2])), text
    return fast


@pytest.mark.parametrize("text", GROUPED + READERS)
def test_grouped_blocks_agree(text):
    assert GeneratedDelegate(TAP_SIG, parse(text, params=["x", "y"]), build_game_registry()).params_read != {0, 1}
    for challenge_text in CHALLENGES:
        assert_grouped_agree(parse_challenge(challenge_text), text)


@settings(max_examples=100, deadline=None)
@given(deep_challenges(), st.sampled_from(GROUPED + READERS))
def test_grouped_blocks_agree_on_deep_challenges(challenge, text):
    assert_grouped_agree(challenge, text)


@settings(max_examples=150, deadline=None)
@given(board_pairs(), st.sampled_from(GROUPED + READERS))
def test_each_grouped_move_matches_tap(boards_, text):
    # The moves built for the root, on the root and on a second board of
    # its size, in turn.
    root, other = boards_
    block = parse(text, params=["x", "y"])
    hooks = hooks_for(block, build_game_registry(root.width, root.height))
    later, _ = tap_moves(hooks, root)
    for board in (root, other, root, other):
        children = dict(zip(*later(board.key())))
        for y in range(board.height):
            for x in range(board.width):
                # A tabulated cell left out of the moves is a NOOP.
                child = children.get((x, y), apply_gravity(board).key())
                assert child == tapped(hooks, board, x, y), (text, board, (x, y))


def count_runs(monkeypatch):
    """A list that gets one entry per run of a hook whose moves are built
    from now on, counted at ``game.prepare``'s runner."""
    runs = []
    real_prepare = game.prepare

    def counted_prepare(delegate, params):
        run = real_prepare(delegate, params)
        return lambda *args: runs.append(1) or run(*args)

    monkeypatch.setattr(game, "prepare", counted_prepare)
    return runs


SPY_CHALLENGE = "RGB\nBRG\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n"


@pytest.mark.parametrize("text, groups", [
    ("DestroyTile(2, 0);", 1),
    ("SetTile(x, 0, Colour.G);", 3),  # the width
    ("SwapTiles(0, y, Sub(Width, 1), y);", 2),  # the height
    ("DestroyTile(x, y);", 6),
])
def test_a_tabulated_block_runs_once_per_group(text, groups, monkeypatch):
    # One marker run per group, all when ``tap_moves`` is called.
    challenge = parse_challenge(SPY_CHALLENGE)
    hooks = hooks_for(parse(text, params=["x", "y"]), build_game_registry(3, 2))
    runs = count_runs(monkeypatch)
    tap_moves(hooks, challenge.initial)
    assert len(runs) == groups
    runs.clear()
    result = solve(challenge, hooks)
    assert result.status == Unsolvable() and result.states_explored > 1
    assert len(runs) == groups


@pytest.mark.parametrize("text, groups", [
    ("if (IsOccupied(0, 0)) { DestroyTile(1, 0); }", 1),
    ("if (IsOccupied(x, 0)) { SetTile(x, 0, Colour.G); }", 3),  # the width
    ("if (Less(CountColour(Colour.R), 3)) { DestroyTile(0, y); }", 2),  # the height
    ("if (IsOccupied(x, y)) { DestroyTile(x, y); }", 6),
    (None, 6),  # the baseline's host behavior reads both parameters
])
def test_a_board_reader_runs_once_per_group_on_each_expanded_state(text, groups, monkeypatch):
    # A hook that reads the board runs once per group of cells on every state
    # the solve expands; the other cells of a group reuse that run's child.
    # It also has its one marker run, which stops at its first read; a host
    # behavior declares no effect, so it is a reader from the start.
    challenge = parse_challenge(SPY_CHALLENGE)
    if text is None:
        hooks = build_hook_table()
        hooks.bind("onTileTapped", HostDelegate(TAP_SIG, game._host_destroy_tile))
    else:
        hooks = hooks_for(parse(text, params=["x", "y"]), build_game_registry(3, 2))
    runs = count_runs(monkeypatch)
    result = solve(challenge, hooks)
    assert result.status == Unsolvable() and result.states_explored > 1
    assert len(runs) == groups * result.states_explored + 1


def test_the_default_hook_runs_only_its_marker_runs(monkeypatch):
    # The baseline tap is the block ``DestroyTile(x, y);``: tabulated, with one
    # marker run per cell and no run while the solve expands its states.
    challenge = parse_challenge(SPY_CHALLENGE)
    runs = count_runs(monkeypatch)
    result = solve(challenge, build_hook_table())
    assert result.status == Unsolvable() and result.states_explored > 1
    assert len(runs) == 6


# --------------------------------------------------------------------------
# the compiler's parameter set: cells that agree on it tap alike


PARAM_CASES = [
    "if (false) { DestroyTile(x, 0); }",  # a read only in a dead branch
    "y = Sub(Height, 1); SetTile(0, y, Colour.B);",  # an assignment, then a read
    "if (Less(0, x)) { if (Equal(y, 0)) { DestroyTile(x, 0); } else { DoNothing(); } }",
    "SetTile(0, 0, Colour.R);",  # no read
    *GROUPED,
    *READERS,
]


def tap_outcome(hooks, board, x, y):
    """The settled key ``tap`` leaves on a copy of ``board``, or the kind of
    the ExecutionError it raises."""
    try:
        return tap(GameState(board.clone()), x, y, hooks).board.key()
    except ExecutionError as err:
        return err.kind


@st.composite
def param_cases(draw):
    """A board from 1x1 to 4x4, with empty cells and floating tiles, and a
    chosen block or one generated from a fixture config for that size."""
    w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    board = Board(w, h, draw(st.lists(st.sampled_from([*COLOURS, None]), min_size=w * h, max_size=w * h)))
    if draw(st.booleans()):
        return board, parse(draw(st.sampled_from(PARAM_CASES)), params=["x", "y"])
    config = CONFIGS[draw(st.sampled_from(sorted(CONFIGS)))]
    seed = draw(st.integers(min_value=0, max_value=10**6))
    try:
        return board, generate_block(TAP_SIG, build_game_registry(w, h), config_with_seed(config, seed))
    except GenerationError:
        assume(False)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(param_cases())
def test_cells_that_agree_on_the_parameters_read_tap_alike(case):
    board, block = case
    delegate = GeneratedDelegate(TAP_SIG, block, build_game_registry(board.width, board.height))
    hooks = build_hook_table()
    hooks.bind("onTileTapped", delegate)
    read = sorted(delegate.params_read)
    outcomes = {}  # group -> the outcomes of its cells
    for y in range(board.height):
        for x in range(board.width):
            group = tuple((x, y)[i] for i in read)
            outcomes.setdefault(group, set()).add(tap_outcome(hooks, board, x, y))
    assert all(len(seen) == 1 for seen in outcomes.values()), (pretty(block), board, outcomes)
