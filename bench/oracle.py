"""Independent reference for the solver: enumerate tap sequences, no dedup.

It works like ``naive_solve`` in the test suite: sequences are tried shortest
first and in (y, x)-lexicographic order, a tap that raises an execution error
drops every sequence through it, and the first sequence whose end state
meets the goal is the answer. It never prunes repeated board states, so it
does not share the breadth-first solver's bookkeeping. Its cost grows as
(width * height) ** depth, so callers bound ``depth``.
"""

from __future__ import annotations

from typing import Optional, Tuple

Witness = Tuple[Tuple[int, int], ...]


def naive_solve(challenge, hooks, depth: int, mg) -> Optional[Witness]:
    """Shortest, lexicographically smallest solving sequence of at most
    ``depth`` taps, or None. ``mg`` supplies the program's game layer."""
    board = challenge.initial
    taps = [(x, y) for y in range(board.height) for x in range(board.width)]
    goal = challenge.goal
    tap = mg.game.tap
    game_state = mg.game.GameState
    execution_error = mg.runtime.ExecutionError

    def extend(state, prefix: Witness, remaining: int) -> Optional[Witness]:
        for x, y in taps:
            child = game_state(state.board.clone(), state.taps_used)
            try:
                tap(child, x, y, hooks)
            except execution_error:
                continue
            path = prefix + ((x, y),)
            if remaining == 1:
                if goal.satisfied(child.board):
                    return path
            else:
                found = extend(child, path, remaining - 1)
                if found is not None:
                    return found
        return None

    start = game_state(board.clone(), 0)
    for length in range(1, min(depth, challenge.max_taps) + 1):
        found = extend(start, (), length)
        if found is not None:
            return found
    return None


def oracle_depth(challenge, max_sequences: int) -> int:
    """Deepest tap count whose sequences number at most ``max_sequences``."""
    cells = challenge.initial.width * challenge.initial.height
    depth = 1
    while depth < challenge.max_taps and cells ** (depth + 1) <= max_sequences:
        depth += 1
    return depth


def agrees(outcome: str, min_taps: Optional[int], witness: Optional[Witness],
           found: Optional[Witness], depth: int) -> bool:
    """Whether a solver result (outcome, min_taps, witness) is consistent
    with the oracle's answer ``found`` for sequences of at most ``depth``."""
    if found is not None:
        return outcome == "solved" and min_taps == len(found) and witness == found
    if outcome == "solved":
        return min_taps is not None and min_taps > depth
    return outcome == "unsolvable"
