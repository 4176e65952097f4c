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

from mechgen.evaluate import (
    Rejected, Solved, evaluate_candidate, load_challenge, search_mechanics,
)
from mechgen.game import build_game_registry, build_hook_table, ON_TILE_TAPPED
from mechgen.synthesis import GenerationError, config_with_seed, generate_block, load_config_file

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "solver_counters.json"
SEEDS = range(2000)
# (config, challenge) pairs, named by their fixture files.
CASES = (("default.cfg", "unsolvable.ch"), ("search.cfg", "clear_red.ch"))


def case_inputs(config_name: str, challenge_name: str):
    """(config, challenge, registry, tap signature) of one case."""
    config = load_config_file(str(FIXTURES / config_name))
    challenge = load_challenge(FIXTURES / challenge_name)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    return config, challenge, registry, build_hook_table().sig(ON_TILE_TAPPED)


def candidate_rows(config_name: str, challenge_name: str, seeds=SEEDS):
    """[outcome, min_taps, witness, error_count, states_explored] per seed."""
    config, challenge, registry, sig = case_inputs(config_name, challenge_name)
    rows = []
    for seed in seeds:
        try:
            block = generate_block(sig, registry, config_with_seed(config, seed))
        except GenerationError:
            rows.append(["generation_error", None, None, 0, 0])
            continue
        rows.append(result_row(evaluate_candidate(block, sig, registry, challenge)))
    return rows


def result_row(result):
    """[outcome, min_taps, witness, error_count, states_explored] of an EvalResult."""
    status = result.status
    if isinstance(status, Solved):
        row = ["solved", status.min_taps, [list(t) for t in status.witness]]
    elif isinstance(status, Rejected):
        row = ["rejected", None, None]
    else:
        row = ["unsolvable", None, None]
    return row + [result.error_count, result.states_explored]


def compute_golden(cases=CASES, seeds=SEEDS):
    return {f"{cfg} on {ch}": candidate_rows(cfg, ch, seeds) for cfg, ch in cases}


def assert_rows_match(golden_path: Path, actual):
    """Each case's rows in ``actual`` equal those recorded in ``golden_path``."""
    golden = json.loads(golden_path.read_text(encoding="utf-8"))
    assert set(actual) == set(golden)
    for case, rows in actual.items():
        diffs = [
            (seed, want, got)
            for seed, (want, got) in enumerate(zip(golden[case], rows))
            if want != got
        ]
        assert len(rows) == len(golden[case]), case
        assert not diffs, f"{case}: {len(diffs)} candidates differ, first {diffs[:3]}"


def test_solver_counters_match_golden():
    assert_rows_match(GOLDEN, compute_golden())


def write_golden(golden_path: Path, data) -> None:
    """Write ``data`` as the golden's JSON: one line per seed."""
    golden_path.parent.mkdir(exist_ok=True)
    with golden_path.open("w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (case, rows) in enumerate(data.items()):
            fh.write(f"{json.dumps(case)}: [\n")
            fh.write(",\n".join(json.dumps(row) for row in rows))
            fh.write("\n]" + ("," if i < len(data) - 1 else "") + "\n")
        fh.write("}\n")


def test_search_entries_match_solver_golden():
    """The search evaluates each distinct text once and gives every repeat
    the stored result; its entries must still equal the golden, which was
    recorded by evaluating every candidate."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    for cfg, ch in CASES:
        config, challenge, registry, sig = case_inputs(cfg, ch)
        report = search_mechanics(sig, registry, challenge, config_with_seed(config, 0), len(SEEDS))
        expected = [
            ("rejected", None, 0, 0) if outcome == "generation_error"
            else (outcome, min_taps, error_count, states)
            for outcome, min_taps, _, error_count, states in golden[f"{cfg} on {ch}"]
        ]
        actual = [
            (e.outcome, e.min_taps, e.error_count, e.states_explored) for e in report.entries
        ]
        assert [e.seed for e in report.entries] == list(SEEDS)
        diffs = [(seed, want, got) for seed, (want, got) in enumerate(zip(expected, actual))
                 if want != got]
        assert not diffs, f"{cfg} on {ch}: {len(diffs)} entries differ, first {diffs[:3]}"


if __name__ == "__main__":
    write_golden(GOLDEN, compute_golden())
    sys.exit(0)
