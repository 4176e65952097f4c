"""Gameplay unit tests: exhaustive solvability and generate-and-test search.

A Challenge is a board, a goal predicate, and a tap budget. ``solve`` runs
breadth-first search over every tap sequence up to that budget, pruning
duplicate board states, and reports Solved with a minimal witness or
Unsolvable. A candidate mechanic is judged by binding it to the tap hook and
asking whether it flips a challenge from unsolvable to solvable; taps that
raise runtime errors prune their branch and are counted, not fatal.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import List, Optional, Set, Tuple, Union

from .game import (
    ON_TILE_TAPPED,
    Board,
    GameState,
    build_hook_table,
    tap,  # unused here; the benchmark's tracer wraps ``evaluate.tap`` by name
    tap_step,
)
from .lang import CodeBlock, Signature, TypeCheckError, pretty, typecheck
from .registry import Registry
from .runtime import ExecutionError, GeneratedDelegate, HookTable
from .synthesis import GenerationConfig, GenerationError, config_with_seed, generate_block


class GoalKind(Enum):
    CLEARED = "CLEARED"
    COLOUR_CLEARED = "COLOUR_CLEARED"
    COLOUR_PRESENT = "COLOUR_PRESENT"


@dataclass(frozen=True)
class Goal:
    kind: GoalKind
    colour: Optional[str] = None

    def satisfied(self, board: Board) -> bool:
        if self.kind is GoalKind.CLEARED:
            return board.tile_count() == 0
        # ``board.contains`` inlined: the solver checks the goal after every tap.
        present = (self.colour or "") in board.cells
        return not present if self.kind is GoalKind.COLOUR_CLEARED else present

    def describe(self) -> str:
        if self.kind is GoalKind.CLEARED:
            return "CLEARED"
        return f"{self.kind.value} {self.colour}"


@dataclass(frozen=True)
class Challenge:
    initial: Board
    goal: Goal
    max_taps: int


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


_LEGAL_ROW_CHARS = frozenset("RGBY.")


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
                max_taps = int(line[len("max_taps:"):].strip())
            except ValueError:
                raise ChallengeParseError(lineno, "max_taps must be an integer") from None
            if max_taps < 1:
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
    board = Board.from_rows(rows)
    if not board.is_gravity_normal():
        raise NotGravityNormal("board has floating tiles")
    if goal.satisfied(board):
        raise AlreadySolved(f"goal '{goal.describe()}' already holds on the initial board")
    return Challenge(board, goal, max_taps)


def _parse_goal(text: str, lineno: int) -> Goal:
    parts = text.split()
    if parts == ["CLEARED"]:
        return Goal(GoalKind.CLEARED)
    if len(parts) == 2 and parts[0] in ("COLOUR_CLEARED", "COLOUR_PRESENT"):
        if parts[1] not in "RGBY" or len(parts[1]) != 1:
            raise ChallengeParseError(lineno, f"unknown colour {parts[1]!r}")
        return Goal(GoalKind(parts[0]), parts[1])
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

    The tap hook is resolved and checked once per solve (``tap_step``), so
    a hook that cannot take the tap's arguments raises on every tap and
    prunes every branch. The frontier and ``visited`` hold board keys
    (``Board.key()``: the flat tuple of cells), not game states. One scratch
    board and game state serve every tap: before each tap the board's cells
    are refilled from the parent's key and the tap counter is set to the
    parent's depth, and the child's key is the tuple of the cells after the
    tap (the hook and gravity change the scratch board in place).
    Children at the last tap depth are goal-checked but neither stored in
    ``visited`` nor queued: they would never be expanded, and BFS discovers
    every shallower state before any state at that depth, so leaving them
    out of ``visited`` cannot change which shallower states are expanded.
    A challenge with ``max_taps < 1`` allows no tap: it is Solved in 0 taps
    if the goal already holds, else Unsolvable with nothing explored.
    """
    initial = challenge.initial
    goal = challenge.goal
    if goal.satisfied(initial):
        return EvalResult(Solved(0, ()), 0, 0)
    if challenge.max_taps < 1:
        return EvalResult(Unsolvable(), 0, 0)
    width, height = initial.width, initial.height
    taps = [(x, y) for y in range(height) for x in range(width)]
    step = tap_step(hooks, width, height)
    last = challenge.max_taps - 1  # states at this depth have only leaf children
    start = initial.key()
    board = initial.clone()  # the scratch board every tap runs on
    state = GameState(board)
    cells = board.cells
    satisfied = goal.satisfied
    visited = {start}
    frontier: deque = deque([(start, ())])
    errors = 0
    explored = 0
    while frontier:
        key, path = frontier.popleft()
        explored += 1
        depth = len(path)
        for x, y in taps:
            cells[:] = key
            state.taps_used = depth
            try:
                step(state, x, y)
            except ExecutionError:
                errors += 1
                continue
            if satisfied(board):
                witness = path + ((x, y),)
                return EvalResult(Solved(len(witness), witness), errors, explored)
            if depth == last:
                continue
            child_key = tuple(cells)
            if child_key not in visited:
                visited.add(child_key)
                frontier.append((child_key, path + ((x, y),)))
    return EvalResult(Unsolvable(), errors, explored)


def evaluate_candidate(
    block: CodeBlock,
    sig: Signature,
    registry: Registry,
    challenge: Challenge,
) -> EvalResult:
    """Static gate, then solve the challenge with the block bound as the hook."""
    try:
        typecheck(block, sig, registry)
    except TypeCheckError as err:
        return EvalResult(Rejected(err))
    hooks = build_hook_table()
    hooks.bind(ON_TILE_TAPPED, GeneratedDelegate(sig, block, registry))
    return solve(challenge, hooks)


# --------------------------------------------------------------------------
# Generate-and-test search


@dataclass(frozen=True)
class SearchEntry:
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
    wall_time: float = 0.0


def search_mechanics(
    sig: Signature,
    registry: Registry,
    challenge: Challenge,
    config: GenerationConfig,
    budget: int,
) -> SearchReport:
    """Generate up to ``budget`` candidates (seeds seed, seed+1, ...) and
    evaluate each; solving blocks are deduplicated by their pretty text."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    report = SearchReport(budget=budget)
    seen: Set[str] = set()
    started = time.perf_counter()
    for i in range(budget):
        seed = config.seed + i
        try:
            block = generate_block(sig, registry, config_with_seed(config, seed))
        except GenerationError as err:
            result = EvalResult(Rejected(err))
        else:
            result = evaluate_candidate(block, sig, registry, challenge)
        status = result.status
        min_taps = None
        if isinstance(status, Solved):
            min_taps = status.min_taps
            report.solved_count += 1
            text = pretty(block)
            if text not in seen:
                seen.add(text)
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
    report.wall_time = time.perf_counter() - started
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
