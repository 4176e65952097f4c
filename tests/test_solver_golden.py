"""Pins the solver's per-candidate counters against a recorded golden.

The benchmark and the CLI goldens only compare outcomes and witnesses; this
test also pins ``error_count`` and ``states_explored``, so a change to the
executor or to the BFS bookkeeping cannot shift them unnoticed.

Regenerate (only from a commit whose outputs are known to be right):

    PYTHONPATH=src python tests/test_solver_golden.py
"""

import json
import sys
from pathlib import Path

from mechgen.evaluate import Rejected, Solved, evaluate_candidate, load_challenge
from mechgen.game import build_game_registry, build_hook_table, ON_TILE_TAPPED
from mechgen.synthesis import GenerationError, config_with_seed, generate_block, load_config_file

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "solver_counters.json"
SEEDS = range(2000)
# (config, challenge) pairs, named by their fixture files.
CASES = (("default.cfg", "unsolvable.ch"), ("search.cfg", "clear_red.ch"))


def candidate_rows(config_name: str, challenge_name: str):
    """[outcome, min_taps, witness, error_count, states_explored] per seed."""
    config = load_config_file(str(FIXTURES / config_name))
    challenge = load_challenge(FIXTURES / challenge_name)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    sig = build_hook_table().sig(ON_TILE_TAPPED)
    rows = []
    for seed in SEEDS:
        try:
            block = generate_block(sig, registry, config_with_seed(config, seed))
        except GenerationError:
            rows.append(["generation_error", None, None, 0, 0])
            continue
        result = evaluate_candidate(block, sig, registry, challenge)
        status = result.status
        if isinstance(status, Solved):
            row = ["solved", status.min_taps, [list(t) for t in status.witness]]
        elif isinstance(status, Rejected):
            row = ["rejected", None, None]
        else:
            row = ["unsolvable", None, None]
        rows.append(row + [result.error_count, result.states_explored])
    return rows


def compute_golden():
    return {f"{cfg} on {ch}": candidate_rows(cfg, ch) for cfg, ch in CASES}


def test_solver_counters_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_golden()
    assert set(actual) == set(golden)
    for case, rows in actual.items():
        diffs = [
            (seed, want, got)
            for seed, (want, got) in enumerate(zip(golden[case], rows))
            if want != got
        ]
        assert len(rows) == len(golden[case]), case
        assert not diffs, f"{case}: {len(diffs)} candidates differ, first {diffs[:3]}"


if __name__ == "__main__":
    data = compute_golden()
    GOLDEN.parent.mkdir(exist_ok=True)
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (case, rows) in enumerate(data.items()):
            fh.write(f"{json.dumps(case)}: [\n")
            fh.write(",\n".join(json.dumps(row) for row in rows))
            fh.write("\n]" + ("," if i < len(data) - 1 else "") + "\n")
        fh.write("}\n")
    sys.exit(0)
