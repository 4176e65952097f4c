"""Pins the solver's per-candidate counters on the 5x5t5 ladder board.

The same per-seed rows as ``test_solver_golden.py`` (outcome, min taps,
witness, error count, states), for seeds 0-999 of both fixture configs on
the 5x5 board with two goals: ``COLOUR_CLEARED R`` and ``COLOUR_PRESENT Y``.
At 5x5 some blocks take the general path through deep solves, and others
are counted over many states, which the 3x3 goldens do not reach.

Regenerate (only from a commit whose outputs are known to be right):

    PYTHONPATH=src python tests/test_solver_golden_5x5.py
"""

import sys
from pathlib import Path

from test_solver_golden import assert_rows_match, compute_golden, write_golden

GOLDEN = Path(__file__).parent / "golden" / "solver_counters_5x5.json"
SEEDS = range(1000)
CASES = tuple((cfg, ch) for ch in ("clear_red_5x5.ch", "present_yellow_5x5.ch")
              for cfg in ("default.cfg", "search.cfg"))


def test_solver_counters_match_5x5_golden():
    assert_rows_match(GOLDEN, compute_golden(CASES, SEEDS))


if __name__ == "__main__":
    write_golden(GOLDEN, compute_golden(CASES, SEEDS))
    sys.exit(0)
