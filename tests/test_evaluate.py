import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from mechgen import game
from mechgen.evaluate import (
    AlreadySolved,
    Challenge,
    ChallengeError,
    ChallengeParseError,
    EvalResult,
    Goal,
    GoalKind,
    NotGravityNormal,
    Rejected,
    Solved,
    Unsolvable,
    evaluate_candidate,
    load_challenge,
    parse_challenge,
    render_report,
    search_mechanics,
    solve,
)
from mechgen.game import (
    COLOURS,
    ON_TILE_TAPPED,
    Board,
    GameState,
    build_game_registry,
    build_hook_table,
    on_tile_tapped_signature,
    tap,
    tap_moves,
)
from mechgen.lang import Signature, TypeCheckError, parse
from mechgen.registry import INT, VOID
from mechgen.runtime import (
    UNIT,
    ArityMismatch,
    Delegate,
    ExecutionError,
    GeneratedDelegate,
    HookTable,
    HostDelegate,
    InterpreterError,
)
from mechgen.synthesis import GenerationConfig, StatementKind


def bind_mechanic(registry, text):
    hooks = build_hook_table()
    sig = hooks.sig("onTileTapped")
    block = parse(text, params=["x", "y"])
    hooks.bind("onTileTapped", GeneratedDelegate(sig, block, registry))
    return hooks


def naive_solve(challenge, hooks):
    """No-dedup oracle: replay every tap sequence fresh, shortest first and in
    (y, x)-lexicographic order, and report the first whose end state solves.
    Ascending lengths cover every prefix, so end-state checking is complete."""
    taps = [
        (x, y)
        for y in range(challenge.initial.height)
        for x in range(challenge.initial.width)
    ]
    for length in range(1, challenge.max_taps + 1):
        for seq in itertools.product(taps, repeat=length):
            state = GameState(challenge.initial.clone())
            failed = False
            for x, y in seq:
                try:
                    tap(state, x, y, hooks)
                except ExecutionError:
                    failed = True
                    break
            if not failed and challenge.goal.satisfied(state.board):
                return ("solved", length, seq)
    return ("unsolvable", None, None)


def takes_general_path(hooks, board):
    """Whether ``tap_moves`` sends the tap of ``hooks`` down the general path
    on boards of ``board``'s size: there ``later`` runs the hook once for the
    first cell of each group of cells that agree on the parameters read,
    where a tabulated tap only picks cells. Runs are counted at
    ``game.prepare``'s runner, after the marker runs; a general ``later``
    that runs the hook for any other cell fails."""
    ran = []  # the tap of each run, marker runs first
    real_prepare = game.prepare

    def counted_prepare(delegate, params):
        run = real_prepare(delegate, params)
        return lambda args, *rest: ran.append((args[0].value, args[1].value)) or run(args, *rest)

    with mock.patch.object(game, "prepare", counted_prepare):
        later, _ = tap_moves(hooks, board)
        ran.clear()
        later(board.key())
    if not ran:
        return False
    read = hooks.delegate("onTileTapped").params_read
    firsts, seen = [], set()  # the first cell of each group, as the parameters read key it
    for y in range(board.height):
        for x in range(board.width):
            group = (x if 0 in read else None, y if 1 in read else None)
            if group not in seen:
                seen.add(group)
                firsts.append((x, y))
    assert ran == firsts, "not one run per group"
    return True


# --------------------------------------------------------------------------
# challenge parsing


def test_parse_valid_challenge():
    ch = parse_challenge("..\nRG\ngoal: CLEARED\nmax_taps: 2\n")
    assert ch.initial.to_rows() == ["..", "RG"]
    assert ch.goal == Goal(GoalKind.CLEARED)
    assert ch.max_taps == 2


def test_floating_tiles_rejected():
    with pytest.raises(NotGravityNormal):
        parse_challenge("RG\n..\ngoal: CLEARED\nmax_taps: 2\n")


def test_already_solved_rejected():
    with pytest.raises(AlreadySolved):
        parse_challenge("RY\ngoal: COLOUR_PRESENT Y\nmax_taps: 1\n")
    with pytest.raises(AlreadySolved):
        parse_challenge("RG\ngoal: COLOUR_CLEARED Y\nmax_taps: 1\n")


def test_comments_and_blank_lines_skipped():
    ch = parse_challenge("# solvable\n\nRG\n\ngoal: CLEARED\nmax_taps: 2\n")
    assert ch.initial.to_rows() == ["RG"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("R!\ngoal: CLEARED\nmax_taps: 1\n", "illegal board character"),
        ("RG\nR\ngoal: CLEARED\nmax_taps: 2\n", "equal length"),
        ("RG\ngoal: PAINTED\nmax_taps: 1\n", "malformed goal"),
        ("RG\ngoal: COLOUR_PRESENT Q\nmax_taps: 1\n", "unknown colour"),
        ("RG\ngoal: CLEARED\nmax_taps: zero\n", "integer"),
        ("RG\ngoal: CLEARED\nmax_taps: 0\n", ">= 1"),
        ("goal: CLEARED\nmax_taps: 1\n", "no board rows"),
        ("RG\nmax_taps: 1\n", "missing goal"),
        ("RG\ngoal: CLEARED\n", "missing max_taps"),
        ("RG\ngoal: CLEARED\nmax_taps: 1\nBB\n", "precede"),
    ],
)
def test_malformed_challenges_rejected(text, fragment):
    with pytest.raises(ChallengeParseError, match=fragment):
        parse_challenge(text)


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0663", "3.0", "0x3", "3 4", "- 3", "\uff13"])
def test_max_taps_must_be_an_ascii_decimal(text):
    # int() reads "1_0" as 10, "+3" and the Arabic-Indic digit three as 3.
    with pytest.raises(ChallengeParseError, match="max_taps must be an integer"):
        parse_challenge(f"RG\ngoal: CLEARED\nmax_taps: {text}\n")


def test_max_taps_accepts_leading_zeros_and_surrounding_spaces():
    assert parse_challenge("RG\ngoal: CLEARED\nmax_taps:   007 \n").max_taps == 7


@pytest.mark.parametrize("rows, goal, max_taps, error", [
    ("RG", "CLEARED", 0, ChallengeError),
    ("RG", "COLOUR_PRESENT Y", -1, ChallengeError),
    ("RG\n..", "CLEARED", 2, NotGravityNormal),
    ("..\n..", "CLEARED", 1, AlreadySolved),
    ("RY", "COLOUR_PRESENT Y", 1, AlreadySolved),
    ("RG", "COLOUR_CLEARED Y", 3, AlreadySolved),
    ("RG\n..", "COLOUR_PRESENT R", 0, ChallengeError),  # all three: the budget first
    ("RG\n..", "COLOUR_PRESENT R", 1, NotGravityNormal),  # then the board, then the goal
])
def test_a_challenge_built_directly_is_checked_as_parsed(rows, goal, max_taps, error):
    # The same rules, errors and order as the parser; only the parser's
    # budget error names its line.
    with pytest.raises(ChallengeError) as parsed:
        parse_challenge(f"{rows}\ngoal: {goal}\nmax_taps: {max_taps}\n")
    kind, *colour = goal.split()
    with pytest.raises(ChallengeError) as built:
        Challenge(Board.from_rows(rows.split("\n")), Goal(GoalKind(kind), *colour), max_taps)
    assert type(built.value) is error
    if isinstance(parsed.value, ChallengeParseError):
        assert (error, str(built.value)) == (ChallengeError, parsed.value.reason)
    else:
        assert (type(parsed.value), str(built.value)) == (error, str(parsed.value))


def test_a_checked_challenge_stays_valid(hooks):
    # A challenge's board cannot be written, so no floating root can follow
    # the check, and tapping a state built from the board leaves it alone.
    c = parse_challenge("..\nRG\ngoal: CLEARED\nmax_taps: 2\n")
    with pytest.raises(TypeError):
        c.initial.cells[1] = None  # type: ignore[index]
    before = solve(c, hooks)
    world = GameState(c.initial)
    tap(world, 0, 0, hooks)
    assert world.board == Board.from_rows(["..", ".G"])
    assert c.initial == Board.from_rows(["..", "RG"])
    assert solve(c, hooks) == before == EvalResult(Solved(2, ((0, 0), (1, 0))), 0, 2)


@pytest.mark.parametrize("kind, colour", [
    (GoalKind.COLOUR_PRESENT, "Q"),
    (GoalKind.COLOUR_CLEARED, None),
    (GoalKind.COLOUR_PRESENT, ""),
    (GoalKind.CLEARED, "R"),
])
def test_a_goal_names_a_colour_exactly_when_its_kind_needs_one(kind, colour):
    with pytest.raises(ValueError):
        Goal(kind, colour)


def test_goal_predicates():
    board = Board.from_rows(["RG"])
    assert not Goal(GoalKind.CLEARED).satisfied(board)
    assert Goal(GoalKind.CLEARED).satisfied(Board(2, 1))
    assert Goal(GoalKind.COLOUR_CLEARED, "Y").satisfied(board)
    assert not Goal(GoalKind.COLOUR_CLEARED, "R").satisfied(board)
    assert Goal(GoalKind.COLOUR_PRESENT, "G").satisfied(board)
    assert not Goal(GoalKind.COLOUR_PRESENT, "Y").satisfied(board)


EVERY_GOAL = [
    Goal(GoalKind.CLEARED),
    *(Goal(kind, colour) for kind in (GoalKind.COLOUR_CLEARED, GoalKind.COLOUR_PRESENT)
      for colour in COLOURS),
]


@st.composite
def any_boards(draw):
    """Boards up to 3x3: empty, full, or mixed, with cells that may hold a
    variant that is no colour (a block can paint one when its registry's
    ``Colour`` declares it)."""
    width = draw(st.integers(min_value=1, max_value=3))
    height = draw(st.integers(min_value=1, max_value=3))
    kind = draw(st.sampled_from(["empty", "full", "mixed"]))
    values = {"empty": [None], "full": [*COLOURS, "Z"], "mixed": [*COLOURS, "Z", None]}[kind]
    cells = draw(st.lists(st.sampled_from(values), min_size=width * height,
                          max_size=width * height))
    return Board(width, height, cells)


def reference_goal(goal, cells):
    """Each goal written out over the tiles (the cells that are not empty)."""
    tiles = [c for c in cells if c is not None]
    if goal.kind is GoalKind.CLEARED:
        return not tiles
    present = any(t == goal.colour for t in tiles)
    return not present if goal.kind is GoalKind.COLOUR_CLEARED else present


@settings(max_examples=300, deadline=None)
@given(any_boards())
def test_the_key_test_agrees_with_satisfied(board):
    for goal in EVERY_GOAL:
        expected = reference_goal(goal, board.cells)
        test, holds = goal.key_test()
        assert (test(board.key()) is holds) is expected, (goal, board)
        assert goal.satisfied(board) is expected, (goal, board)


# --------------------------------------------------------------------------
# solve


def test_two_taps_clear_the_column(clearable_challenge, hooks):
    result = solve(clearable_challenge, hooks)
    assert result.status == Solved(2, ((0, 0), (0, 0)))
    assert result.error_count == 0


def test_unsolvable_fixture_is_unsolvable(unsolvable_challenge, hooks):
    result = solve(unsolvable_challenge, hooks)
    assert result.status == Unsolvable()


def test_four_by_four_fixture_needs_one_tap_per_red(hooks):
    # two reds, baseline destroys at most one tile per tap and never adds
    # reds, so exactly two taps are required
    challenge = load_challenge(FIXTURES / "clear_red.ch")
    result = solve(challenge, hooks)
    assert isinstance(result.status, Solved)
    assert result.status.min_taps == 2
    assert result.status.witness == ((0, 0), (2, 2))


def test_set_yellow_solves_in_one_tap(unsolvable_challenge):
    registry = build_game_registry()
    hooks = bind_mechanic(registry, "SetTile(x, y, Colour.Y);")
    result = solve(unsolvable_challenge, hooks)
    assert result.status == Solved(1, ((0, 0),))


def test_solve_is_deterministic(unsolvable_challenge, hooks):
    assert solve(unsolvable_challenge, hooks) == solve(unsolvable_challenge, hooks)


def test_every_tap_erroring_prunes_all_branches(unsolvable_challenge):
    registry = build_game_registry()
    # 5 is outside the x <= 2 bound, so every tap raises before acting
    hooks = bind_mechanic(registry, "SetTile(5, y, Colour.Y);")
    result = solve(unsolvable_challenge, hooks)
    assert result.status == Unsolvable()
    assert result.states_explored == 1
    assert result.error_count == 9  # one per branching attempt from the root


def test_witness_replays_to_goal(unsolvable_challenge):
    registry = build_game_registry()
    hooks = bind_mechanic(registry, "SetTile(Sub(x, 0), y, Colour.Y);")
    result = solve(unsolvable_challenge, hooks)
    assert isinstance(result.status, Solved)
    world = GameState(unsolvable_challenge.initial.clone())
    for x, y in result.status.witness:
        tap(world, x, y, hooks)
    assert unsolvable_challenge.goal.satisfied(world.board)
    assert world.taps_used == result.status.min_taps <= unsolvable_challenge.max_taps


SMALL_CHALLENGES = [
    "R\ngoal: CLEARED\nmax_taps: 2\n",
    "R\nG\ngoal: CLEARED\nmax_taps: 3\n",
    "..\nRG\ngoal: CLEARED\nmax_taps: 3\n",
    "RG\nBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 2\n",
    "R.\nGB\ngoal: COLOUR_CLEARED R\nmax_taps: 3\n",
]

MECHANICS = [
    None,  # baseline
    "SetTile(x, y, Colour.Y);",
    "DestroyTile(x, y);",
    "SetTile(x, y, Colour.R);",
]


@pytest.mark.parametrize("challenge_text", SMALL_CHALLENGES)
@pytest.mark.parametrize("mechanic", MECHANICS)
def test_solver_matches_naive_enumerator(challenge_text, mechanic):
    challenge = parse_challenge(challenge_text)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    hooks = build_hook_table() if mechanic is None else bind_mechanic(registry, mechanic)
    fast = solve(challenge, hooks)
    slow = naive_solve(challenge, hooks)
    if slow[0] == "unsolvable":
        assert fast.status == Unsolvable()
    else:
        assert isinstance(fast.status, Solved)
        assert fast.status.min_taps == slow[1]
        if slow[2] is not None:
            assert fast.status.witness == slow[2]


# Boards with empty cells and the two goals whose check on a key differs
# most from a colour probe: children fall under gravity and may clear.
EMPTY_CELL_CHALLENGES = [
    ".R\nGB\ngoal: CLEARED\nmax_taps: 3\n",
    "R.\nGB\nBR\ngoal: CLEARED\nmax_taps: 3\n",
    "..G\nRBR\ngoal: COLOUR_CLEARED R\nmax_taps: 3\n",
    "G.\nRB\ngoal: COLOUR_CLEARED G\nmax_taps: 2\n",
    ".\nR\nG\ngoal: CLEARED\nmax_taps: 3\n",
]

# (text, whether the block takes the general path: it reads the board on every tap)
GRAVITY_MECHANICS = [
    ("if (IsOccupied(x, Sub(Height, 1))) { DestroyTile(x, 0); } else { DestroyTile(x, y); }", True),
    ("if (Equal(x, 0)) { DestroyTile(x, 0); } else { SwapTiles(x, y, 0, 0); }", False),
]


@pytest.mark.parametrize("challenge_text", EMPTY_CELL_CHALLENGES)
@pytest.mark.parametrize("mechanic,general", GRAVITY_MECHANICS)
def test_cleared_goals_on_boards_with_empty_cells_match_naive(challenge_text, mechanic, general):
    challenge = parse_challenge(challenge_text)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    hooks = bind_mechanic(registry, mechanic)
    assert takes_general_path(hooks, challenge.initial) is general
    fast = solve(challenge, hooks)
    slow = naive_solve(challenge, hooks)
    if slow[0] == "unsolvable":
        assert fast.status == Unsolvable()
    else:
        assert fast.status == Solved(slow[1], slow[2])


def test_the_empty_cell_cases_include_solved_and_unsolvable():
    """Each mechanic above both solves and fails some of the challenges."""
    for mechanic, _ in GRAVITY_MECHANICS:
        kinds = set()
        for text in EMPTY_CELL_CHALLENGES:
            challenge = parse_challenge(text)
            registry = build_game_registry(challenge.initial.width, challenge.initial.height)
            kinds.add(type(solve(challenge, bind_mechanic(registry, mechanic)).status))
        assert kinds == {Solved, Unsolvable}, mechanic


def hook_table_with(delegate):
    table = HookTable()
    table.declare(ON_TILE_TAPPED, delegate)
    return table


# (hooks, the error every tap raises or None, challenge text, expected result).
# The solver checks the hook once per solve; each tap must still run it.
PREPARED_DISPATCH = {
    "baseline-unsolvable": (
        build_hook_table, None, "RG\nBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 2\n",
        EvalResult(Unsolvable(), 0, 5),
    ),
    "baseline-solved": (
        build_hook_table, None, "R.\nRB\ngoal: COLOUR_CLEARED R\nmax_taps: 3\n",
        EvalResult(Solved(2, ((0, 0), (0, 0))), 0, 2),
    ),
    "one-parameter-hook": (
        lambda: hook_table_with(HostDelegate(
            Signature(ON_TILE_TAPPED, (("x", INT),), VOID), lambda world, args: UNIT)),
        (ArityMismatch, r"^onTileTapped: expected 1 argument\(s\), got 2$"),
        "RG\nBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 2\n",
        EvalResult(Unsolvable(), 4, 1),
    ),
    "bare-delegate": (
        lambda: hook_table_with(Delegate(on_tile_tapped_signature())),
        (InterpreterError, r"^cannot invoke delegate Delegate\(sig="),
        "RGB\nBRG\ngoal: CLEARED\nmax_taps: 3\n",
        EvalResult(Unsolvable(), 6, 1),
    ),
}


@pytest.mark.parametrize("case", list(PREPARED_DISPATCH))
def test_prepared_dispatch_matches_naive_enumerator(case):
    make_hooks, error, text, expected = PREPARED_DISPATCH[case]
    challenge = parse_challenge(text)
    hooks = make_hooks()
    assert solve(challenge, hooks) == expected
    slow = naive_solve(challenge, hooks)
    if isinstance(expected.status, Solved):
        assert slow == ("solved", expected.status.min_taps, expected.status.witness)
    else:
        assert slow == ("unsolvable", None, None)
    if error is not None:
        kind, message = error
        with pytest.raises(kind, match=message):
            tap(GameState(challenge.initial.clone()), 0, 0, hooks)


# --------------------------------------------------------------------------
# candidate evaluation


def test_ill_typed_candidate_rejected_without_execution(unsolvable_challenge, game_registry, tap_sig):
    block = parse("Ghost(x);", params=["x", "y"])
    result = evaluate_candidate(block, tap_sig, game_registry, unsolvable_challenge)
    assert isinstance(result.status, Rejected)
    assert isinstance(result.status.reason, TypeCheckError)
    assert result.states_explored == 0


def test_a_rejection_keeps_no_block(unsolvable_challenge, game_registry, tap_sig):
    import weakref

    block = parse("Ghost(x);", params=["x", "y"])
    ref = weakref.ref(block)
    result = evaluate_candidate(block, tap_sig, game_registry, unsolvable_challenge)
    del block
    assert isinstance(result.status.reason, TypeCheckError)
    assert ref() is None  # the search memo keeps results like this one


def test_destroy_mechanic_is_baseline_equivalent():
    # Three taps that destroy the tapped tile agree in status, witness and
    # counters, on the fixtures and on every board of the benchmark's solve
    # ladder: the ``destroy.mg`` candidate, the default hook (the same
    # block, tabulated) and the host behavior, which runs on every tap.
    from mechgen.lang import parse_mechanic

    sig, block = parse_mechanic((FIXTURES / "destroy.mg").read_text(encoding="utf-8"))
    host = hook_table_with(HostDelegate(on_tile_tapped_signature(), game._host_destroy_tile))
    ladder = sorted((FIXTURES.parent / "bench" / "ladder").glob("*.ch"))
    assert len(ladder) == 7
    for path in [FIXTURES / "unsolvable.ch", FIXTURES / "clearable.ch", *ladder]:
        challenge = load_challenge(path)
        registry = build_game_registry(challenge.initial.width, challenge.initial.height)
        candidate = evaluate_candidate(block, sig, registry, challenge)
        assert candidate == solve(challenge, build_hook_table()) == solve(challenge, host), path.name
    assert not takes_general_path(build_hook_table(), challenge.initial)
    assert takes_general_path(host, challenge.initial)


def test_solving_candidate(unsolvable_challenge, game_registry, tap_sig, set_yellow_block):
    result = evaluate_candidate(set_yellow_block, tap_sig, game_registry, unsolvable_challenge)
    assert result.status == Solved(1, ((0, 0),))


def test_empty_mechanic_body_is_a_valid_noop(unsolvable_challenge, game_registry):
    from mechgen.lang import parse_mechanic

    sig, block = parse_mechanic("signature: onTileTapped(x:int, y:int) -> void\n")
    assert block.statements == ()
    result = evaluate_candidate(block, sig, game_registry, unsolvable_challenge)
    assert result.status == Unsolvable()


# --------------------------------------------------------------------------
# search


def scoped_search_parts(unsolvable_challenge):
    registry = build_game_registry(usable={"SetTile", "DoNothing"})
    hooks = build_hook_table()
    sig = hooks.sig("onTileTapped")
    config = GenerationConfig(
        min_lines=1,
        max_lines=1,
        max_recursion_depth=1,
        statement_kinds_enabled={StatementKind.EXPR_STMT},
    )
    return registry, sig, config


def test_search_finds_solving_mechanics(unsolvable_challenge):
    registry, sig, config = scoped_search_parts(unsolvable_challenge)
    report = search_mechanics(sig, registry, unsolvable_challenge, config, budget=200)
    assert report.solved_count >= 1
    assert report.distinct
    texts = [text for text, _ in report.distinct]
    assert all("Colour.Y" in text for text in texts)
    assert len(texts) == len(set(texts))
    assert report.solved_count > len(report.distinct)  # dedup collapsed repeats


def test_search_budget_validation(unsolvable_challenge):
    registry, sig, config = scoped_search_parts(unsolvable_challenge)
    with pytest.raises(ValueError):
        search_mechanics(sig, registry, unsolvable_challenge, config, budget=0)


def test_search_budget_one_on_a_solving_seed(unsolvable_challenge):
    registry, sig, config = scoped_search_parts(unsolvable_challenge)
    scout = search_mechanics(sig, registry, unsolvable_challenge, config, budget=100)
    solving_seed = next(e.seed for e in scout.entries if e.outcome == "solved")
    from mechgen.synthesis import config_with_seed

    report = search_mechanics(
        sig, registry, unsolvable_challenge, config_with_seed(config, solving_seed), budget=1
    )
    assert report.solved_count == 1
    assert len(report.distinct) == 1


def test_search_counts_generation_failures_as_rejected(unsolvable_challenge):
    from mechgen.lang import Signature
    from mechgen.registry import VOID, Registry

    # no parameters and an empty registry: every generation attempt exhausts
    registry = Registry()
    sig = Signature("onTileTapped", (), VOID)
    config = GenerationConfig(literal_weight=0.0, statement_kinds_enabled={StatementKind.VAR_DECL})
    report = search_mechanics(sig, registry, unsolvable_challenge, config, budget=5)
    assert report.solved_count == 0
    assert all(e.outcome == "rejected" for e in report.entries)
    assert report.distinct == []


def test_report_rendering(unsolvable_challenge):
    registry, sig, config = scoped_search_parts(unsolvable_challenge)
    report = search_mechanics(sig, registry, unsolvable_challenge, config, budget=60)
    text = render_report(report, "fixtures/unsolvable.ch")
    lines = text.split("\n")
    assert lines[0] == "challenge: fixtures/unsolvable.ch"
    assert lines[1] == "budget: 60"
    assert lines[2] == f"solved: {report.solved_count}"
    assert lines[3] == f"distinct: {len(report.distinct)}"
    if report.distinct:
        assert lines[4].startswith("--- mechanic 1 (min_taps=")


def test_entries_cover_the_whole_budget(unsolvable_challenge):
    registry, sig, config = scoped_search_parts(unsolvable_challenge)
    report = search_mechanics(sig, registry, unsolvable_challenge, config, budget=40)
    assert [e.seed for e in report.entries] == list(range(40))
    assert all(e.outcome in ("solved", "unsolvable", "rejected") for e in report.entries)


def test_search_evaluates_each_distinct_text_once_and_keeps_no_block(monkeypatch):
    import weakref

    import mechgen.evaluate as evaluate
    from mechgen.lang import pretty
    from mechgen.synthesis import block_generator, load_config_file

    challenge = load_challenge(FIXTURES / "clear_red.ch")
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    sig = build_hook_table().sig(ON_TILE_TAPPED)
    config = load_config_file(str(FIXTURES / "search.cfg"))
    blocks, texts, evaluated = [], [], []

    def spy_generator(*args):
        generate = block_generator(*args)

        def spy_generate(seed):
            block = generate(seed)
            blocks.append(weakref.ref(block))
            return block

        return spy_generate

    def counted_pretty(block):
        texts.append(pretty(block))
        return texts[-1]

    def counted_evaluate(block, *args):
        evaluated.append(pretty(block))
        return evaluate_candidate(block, *args)

    monkeypatch.setattr(evaluate, "block_generator", spy_generator)
    monkeypatch.setattr(evaluate, "pretty", counted_pretty)
    monkeypatch.setattr(evaluate, "evaluate_candidate", counted_evaluate)
    report = search_mechanics(sig, registry, challenge, config, budget=300)
    assert len(report.entries) == 300
    assert len(texts) == len(blocks)  # one pretty per generated block
    assert evaluated == list(dict.fromkeys(texts))  # one evaluation per distinct text
    assert len(evaluated) < len(texts)  # and the repeats came from the memo
    assert [ref() for ref in blocks] == [None] * len(blocks)
