"""Gameplay unit tests: exhaustive solvability and generate-and-test search.

A Challenge is a board, a goal predicate, and a tap budget. ``solve`` runs
breadth-first search over every tap sequence up to that budget, pruning
duplicate board states, and reports Solved with a minimal witness or
Unsolvable. A candidate mechanic is judged by binding it to the tap hook and
asking whether it flips a challenge from unsolvable to solvable; taps that
raise runtime errors prune their branch and are counted, not fatal.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple, Union

from .game import (
    _CONSTANTS,
    COLOURS,
    ON_TILE_TAPPED,
    Board,
    Cell,
    Later,
    build_hook_table,
    tap,  # unused here; the benchmark's tracer wraps ``evaluate.tap`` by name
    tap_moves,
)
from .lang import CodeBlock, Signature, TypeCheckError, decimal_int, pretty, typecheck
from .registry import Registry
from .runtime import HookTable
from .synthesis import (
    GenerationConfig,
    GenerationError,
    block_generator,
    generate_block,  # unused here; the benchmark's tracer wraps ``evaluate.generate_block`` by name
    run_seeds,
)


class GoalKind(Enum):
    CLEARED = "CLEARED"
    COLOUR_CLEARED = "COLOUR_CLEARED"
    COLOUR_PRESENT = "COLOUR_PRESENT"


@dataclass(frozen=True)
class Goal:
    kind: GoalKind
    colour: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind is GoalKind.CLEARED:
            if self.colour is not None:
                raise ValueError(f"a CLEARED goal names no colour, got {self.colour!r}")
        elif self.colour not in COLOURS:
            raise ValueError(f"unknown colour {self.colour!r}")

    def satisfied(self, board: Board) -> bool:
        test, holds = self.key_test()
        return test(board.key()) is holds

    def key_test(self) -> Tuple[Callable[[Tuple[Cell, ...]], bool], bool]:
        """The goal as one C call on a board key, built once per solve:
        ``(test, holds)`` such that the goal holds on a board when
        ``test(board.key()) is holds``. This is the one definition of each
        goal: no cell holds a tile, ``colour`` is in no cell, or it is in
        some cell."""
        if self.kind is GoalKind.CLEARED:
            return {None}.issuperset, True
        return {self.colour}.isdisjoint, self.kind is GoalKind.COLOUR_CLEARED

    def describe(self) -> str:
        return self.kind.value if self.colour is None else f"{self.kind.value} {self.colour}"


class ChallengeError(Exception):
    pass


class ChallengeParseError(ChallengeError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class AlreadySolved(ChallengeError):
    pass


class NotGravityNormal(ChallengeError):
    pass


@dataclass(frozen=True)
class Challenge:
    """A gravity-normal board, a goal that fails on it, and a budget of at
    least one tap: constructing one checks the budget, then the board, then the goal."""

    initial: Board
    goal: Goal
    max_taps: int

    def __post_init__(self) -> None:
        if self.max_taps < 1:
            raise ChallengeError("max_taps must be >= 1")
        if not self.initial.is_gravity_normal():
            raise NotGravityNormal("board has floating tiles")
        if self.goal.satisfied(self.initial):
            raise AlreadySolved(f"goal '{self.goal.describe()}' already holds on the initial board")


_LEGAL_ROW_CHARS = frozenset((*COLOURS, "."))


def parse_challenge(text: str) -> Challenge:
    """Parse the challenge text format.

    ``#`` lines and blank lines are skipped; board rows come top-first using
    characters R, G, B, Y and '.'; then ``goal: ...`` and ``max_taps: <n>``.
    """
    rows: List[str] = []
    goal: Optional[Goal] = None
    max_taps: Optional[int] = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("goal:"):
            if goal is not None:
                raise ChallengeParseError(lineno, "duplicate goal line")
            goal = _parse_goal(line[len("goal:"):].strip(), lineno)
        elif line.startswith("max_taps:"):
            if max_taps is not None:
                raise ChallengeParseError(lineno, "duplicate max_taps line")
            try:
                max_taps = decimal_int(line[len("max_taps:"):].strip())
            except ValueError:
                raise ChallengeParseError(lineno, "max_taps must be an integer") from None
            if max_taps < 1:  # as ``Challenge`` checks it, but naming the line
                raise ChallengeParseError(lineno, "max_taps must be >= 1")
        else:
            if goal is not None or max_taps is not None:
                raise ChallengeParseError(lineno, "board rows must precede goal/max_taps")
            if not set(line) <= _LEGAL_ROW_CHARS:
                raise ChallengeParseError(lineno, f"illegal board character in {line!r}")
            if rows and len(line) != len(rows[0]):
                raise ChallengeParseError(lineno, "all rows must have equal length")
            rows.append(line)
    if not rows:
        raise ChallengeParseError(0, "no board rows")
    if goal is None:
        raise ChallengeParseError(0, "missing goal line")
    if max_taps is None:
        raise ChallengeParseError(0, "missing max_taps line")
    return Challenge(Board.from_rows(rows), goal, max_taps)


def _parse_goal(text: str, lineno: int) -> Goal:
    parts = text.split()
    if parts == ["CLEARED"]:
        return Goal(GoalKind.CLEARED)
    if len(parts) == 2 and parts[0] in ("COLOUR_CLEARED", "COLOUR_PRESENT"):
        try:
            return Goal(GoalKind(parts[0]), parts[1])
        except ValueError as err:  # an unknown colour
            raise ChallengeParseError(lineno, str(err)) from None
    raise ChallengeParseError(lineno, f"malformed goal {text!r}")


def load_challenge(path: Union[str, Path]) -> Challenge:
    return parse_challenge(Path(path).read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Results


@dataclass(frozen=True)
class Solved:
    min_taps: int
    witness: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class Unsolvable:
    pass


@dataclass(frozen=True)
class Rejected:
    reason: Exception  # TypeCheckError or GenerationError


Status = Union[Solved, Unsolvable, Rejected]


@dataclass(frozen=True)
class EvalResult:
    status: Status
    error_count: int = 0
    states_explored: int = 0


def solve(challenge: Challenge, hooks: HookTable) -> EvalResult:
    """Exhaustive BFS over tap sequences up to ``max_taps``.

    Duplicate board states are pruned; a tap that raises an ExecutionError
    prunes that branch and increments error_count. Among minimal-length
    solutions the returned witness is the lexicographically smallest under
    (y, x) tap ordering, which is what expanding taps bottom row first gives.
    states_explored counts states dequeued and expanded.

    The frontier and ``visited`` hold board keys (``Board.key()``: the flat
    tuple of cells), not game states. The tap hook is resolved and checked
    once per solve into the moves of ``game.tap_moves``, so a hook that
    cannot take the tap's arguments raises on every tap and prunes every
    branch; the goal becomes one C call on a key (``Goal.key_test``).
    Expanding a state, the root included, takes ``later(key)`` and
    builds ``key + (None, *COLOURS)`` once (the values a tabulated move
    picks from); per move, ``move`` maps that to the child's key, already
    gravity-normal (or None: the tap raised). The child is then
    goal-checked and, if adding it grows ``visited``, queued: one hash per
    child, as a tuple does not cache its hash.

    ``tap_moves`` tabulates the hook before the search starts unless its
    marker pass sends it down the general path, where each tap runs the hook
    on a scratch board. A tabulated tap is one ``itemgetter`` call on the
    parent's key, settled for its empty cells, or None, and a tap that
    leaves the parent as it is has no move.

    Children at the last tap depth are goal-checked but neither stored in
    ``visited`` nor queued: they would never be expanded, and BFS discovers
    every shallower state before any state at that depth, so leaving them
    out of ``visited`` cannot change which shallower states are expanded.

    When no move can ever meet the goal, ``tap_moves`` says how many cells
    raise on every board, and nothing is queued: ``_count_levels`` counts
    the states from the root down, leaving the last level unexpanded. It
    decides from the colour a COLOUR_PRESENT goal wants, or those a
    clearing goal forbids (its colour, or every colour for CLEARED). Every
    state would be expanded and count each raising cell (every move list
    keeps them), so ``states_explored`` is the number of states and
    ``error_count`` that times the raising cells. ``tap_moves`` splits the
    other taps into parts that share no column, and the levels of each part
    are counted on its own and convolved: on the gravity-normal root a
    board's fewest taps is the sum of its parts' fewest. Taps that join
    every column are one part, counted as the whole board.
    """
    start = challenge.initial.key()
    goal = challenge.goal
    test, holds = goal.key_test()
    last = challenge.max_taps - 1  # the children of states at this depth are not stored
    present = goal.colour if goal.kind is GoalKind.COLOUR_PRESENT else None
    forbidden = COLOURS if goal.kind is GoalKind.CLEARED else (goal.colour,)
    later, count = tap_moves(hooks, challenge.initial, present, forbidden)
    if count is not None:  # no move can ever meet the goal: count
        raising, parts = count
        explored = sum(_count_levels(start, parts, last))
        return EvalResult(Unsolvable(), raising * explored, explored)
    visited = {start}
    frontier: deque = deque([(start, ())])
    errors = 0
    explored = 0
    while frontier:
        key, path = frontier.popleft()
        explored += 1
        depth = len(path)
        src = key + _CONSTANTS
        for tap_xy, move in later(key):
            child = move(src)
            if child is None:  # the tap raised an ExecutionError
                errors += 1
                continue
            if test(child) is holds:
                witness = path + (tap_xy,)
                return EvalResult(Solved(len(witness), witness), errors, explored)
            if depth == last:
                continue
            size = len(visited)
            visited.add(child)
            if len(visited) != size:
                frontier.append((child, path + (tap_xy,)))
    return EvalResult(Unsolvable(), errors, explored)


def _count_levels(start: Tuple[Cell, ...], parts: List[Later], depths: int) -> List[int]:
    """The number of states at each depth up to ``depths`` taps from
    ``start``, given moves split into ``parts`` (``later``s) whose taps
    change and read only their own part's columns.

    Each part's levels are counted from ``start`` with its own moves, level
    by level until a level adds none. Each parent adds its children to a set
    in one call; the set keeps their hashes for the subtraction and the
    merge, so each child is hashed once. A level joins ``visited`` only to
    be expanded, and loses the states seen before in place, so the last
    level, often the largest, is held once and never merged.

    Moves of different parts commute (independent moves, as in Godefroid's
    partial-order methods, 1996), and neither sees the other's columns, so
    the fewest taps that reach a board is the sum of the fewest for each of
    its parts: the level sizes of the whole are the convolution of the
    parts'. One part gives its own levels; no part, the root alone. Each
    list is as long as its levels last, never as ``depths``."""
    sizes = [1]
    for later in parts:
        level, visited, counts = {start}, set(), [1]
        for _ in range(depths):
            visited |= level
            children: Set[Tuple[Cell, ...]] = set()
            for key in level:
                src = key + _CONSTANTS
                children.update([move(src) for _, move in later(key)])
            children -= visited
            if not children:
                break
            level = children
            counts.append(len(level))
        product = [0] * min(len(sizes) + len(counts) - 1, depths + 1)
        for i, size in enumerate(sizes):
            for j, count in enumerate(counts[:len(product) - i]):
                product[i + j] += size * count
        sizes = product
    return sizes


def evaluate_candidate(
    block: CodeBlock,
    sig: Signature,
    registry: Registry,
    challenge: Challenge,
) -> EvalResult:
    """Static gate, then solve the challenge with the block bound as the hook.

    The gate returns the checked delegate, its program built by the same
    walk, so the block is walked once. A rejection keeps its error without
    the traceback, whose frames would keep the block alive for as long as
    the result is kept.
    """
    try:
        delegate = typecheck(block, sig, registry)
    except TypeCheckError as err:
        return EvalResult(Rejected(err.with_traceback(None)))
    hooks = build_hook_table()
    hooks.bind(ON_TILE_TAPPED, delegate)
    return solve(challenge, hooks)


# --------------------------------------------------------------------------
# Generate-and-test search


class SearchEntry(NamedTuple):
    seed: int
    outcome: str  # "solved" | "unsolvable" | "rejected"
    min_taps: Optional[int] = None
    error_count: int = 0
    states_explored: int = 0
    detail: str = ""


_OUTCOMES = {Solved: "solved", Unsolvable: "unsolvable", Rejected: "rejected"}


@dataclass
class SearchReport:
    budget: int
    entries: List[SearchEntry] = field(default_factory=list)
    # Distinct solving mechanics in discovery order: (pretty text, min_taps).
    distinct: List[Tuple[str, int]] = field(default_factory=list)
    solved_count: int = 0


def search_mechanics(
    sig: Signature,
    registry: Registry,
    challenge: Challenge,
    config: GenerationConfig,
    budget: int,
) -> SearchReport:
    """Generate up to ``budget`` candidates (seeds seed, seed+1, ...) and
    evaluate each; solving blocks are deduplicated by their pretty text.
    One ``block_generator`` serves the whole run, reseeded per candidate.

    Each distinct block is evaluated once per call. A generated block
    round-trips through the parser (``parse(pretty(b)) == b``, acceptance
    criterion 6), so two blocks with equal text are equal blocks, and
    ``evaluate_candidate`` is a pure function of the block, the signature,
    the registry and the challenge: equal texts get equal ``EvalResult``s,
    counters included. A memo maps each text to its result, and a repeat
    reuses it without typechecking or solving again. The memo holds text
    and results, never a block, so each block dies with its iteration. A
    solving text joins ``distinct`` when it is first evaluated. A seed that
    fails to generate has no block and no memo entry.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    seeds = run_seeds(config, budget)
    generate = block_generator(sig, registry, config)
    report = SearchReport(budget=budget)
    memo: Dict[str, EvalResult] = {}
    for seed in seeds:
        fresh = False
        try:
            block = generate(seed)
        except GenerationError as err:
            result = EvalResult(Rejected(err))
        else:
            text = pretty(block)
            result = memo.get(text)
            if result is None:
                result = memo[text] = evaluate_candidate(block, sig, registry, challenge)
                fresh = True
        status = result.status
        min_taps = None
        if isinstance(status, Solved):
            min_taps = status.min_taps
            report.solved_count += 1
            if fresh:
                report.distinct.append((text, min_taps))
        report.entries.append(
            SearchEntry(
                seed,
                _OUTCOMES[type(status)],
                min_taps=min_taps,
                error_count=result.error_count,
                states_explored=result.states_explored,
                detail=str(status.reason) if isinstance(status, Rejected) else "",
            )
        )
    return report


def render_report(report: SearchReport, challenge_label: str) -> str:
    lines = [
        f"challenge: {challenge_label}",
        f"budget: {report.budget}",
        f"solved: {report.solved_count}",
        f"distinct: {len(report.distinct)}",
    ]
    for i, (text, min_taps) in enumerate(report.distinct, start=1):
        lines.append(f"--- mechanic {i} (min_taps={min_taps})")
        lines.append(text.rstrip("\n"))
    return "\n".join(lines) + "\n"


def write_report(report: SearchReport, path: Union[str, Path], challenge_label: str) -> None:
    Path(path).write_text(render_report(report, challenge_label), encoding="utf-8")
