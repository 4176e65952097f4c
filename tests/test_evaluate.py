import itertools

import pytest

from conftest import FIXTURES
from mechgen.evaluate import (
    AlreadySolved,
    Challenge,
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
    ON_TILE_TAPPED,
    Board,
    GameState,
    build_game_registry,
    build_hook_table,
    on_tile_tapped_signature,
    tap,
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


def test_goal_predicates():
    board = Board.from_rows(["RG"])
    assert not Goal(GoalKind.CLEARED).satisfied(board)
    assert Goal(GoalKind.CLEARED).satisfied(Board(2, 1))
    assert Goal(GoalKind.COLOUR_CLEARED, "Y").satisfied(board)
    assert not Goal(GoalKind.COLOUR_CLEARED, "R").satisfied(board)
    assert Goal(GoalKind.COLOUR_PRESENT, "G").satisfied(board)
    assert not Goal(GoalKind.COLOUR_PRESENT, "Y").satisfied(board)


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


@pytest.mark.parametrize("max_taps", [0, -1])
def test_no_tap_budget_explores_nothing(unsolvable_challenge, max_taps):
    # Built directly: parse_challenge rejects max_taps < 1.
    registry = build_game_registry()
    hooks = bind_mechanic(registry, "SetTile(x, y, Colour.Y);")  # solves in one tap
    board = unsolvable_challenge.initial
    challenge = Challenge(board, unsolvable_challenge.goal, max_taps)
    assert solve(challenge, hooks) == EvalResult(Unsolvable(), 0, 0)
    already = Challenge(board, Goal(GoalKind.COLOUR_PRESENT, "R"), max_taps)
    assert solve(already, hooks) == EvalResult(Solved(0, ()), 0, 0)


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


def test_destroy_mechanic_is_baseline_equivalent(game_registry, tap_sig):
    block = parse("DestroyTile(x, y);", params=["x", "y"])
    for path in ("unsolvable.ch", "clearable.ch"):
        challenge = load_challenge(FIXTURES / path)
        registry = build_game_registry(challenge.initial.width, challenge.initial.height)
        candidate = evaluate_candidate(block, tap_sig, registry, challenge)
        baseline = solve(challenge, build_hook_table())
        assert candidate.status == baseline.status


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
    registry = Registry().seal()
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
