"""Pins the solver's counters on the 14 rungs of the benchmark's ladder.

``bench/ladder/expected.json`` names each rung's challenge and mechanic and
its status, min taps and witness. This test solves every rung through
``evaluate_candidate`` with the colours as committed (the benchmark's seed
0, whose colour permutation is the identity) and compares status, min taps,
witness, ``error_count`` and ``states_explored`` against a recorded golden,
so the counters of the solve-ladder workload cannot shift unnoticed.

Regenerate (only from a commit whose outputs are known to be right):

    PYTHONPATH=src python tests/test_ladder_golden.py
"""

import json
import sys
from pathlib import Path

from mechgen.evaluate import evaluate_candidate, load_challenge
from mechgen.game import build_game_registry
from mechgen.lang import parse_mechanic
from test_solver_golden import result_row

LADDER = Path(__file__).resolve().parent.parent / "bench" / "ladder"
GOLDEN = Path(__file__).parent / "golden" / "ladder_counters.json"


def rung_rows():
    """{rung: [status, min_taps, witness, error_count, states_explored]},
    in the order of ``expected.json``."""
    rungs = json.loads((LADDER / "expected.json").read_text(encoding="utf-8"))["rungs"]
    rows = {}
    for rung in rungs:
        challenge = load_challenge(LADDER / f"{rung['challenge']}.ch")
        sig, block = parse_mechanic((LADDER / f"{rung['mechanic']}.mg").read_text(encoding="utf-8"))
        registry = build_game_registry(challenge.initial.width, challenge.initial.height)
        rows[rung["rung"]] = result_row(evaluate_candidate(block, sig, registry, challenge))
    return rows


def test_ladder_counters_match_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert rung_rows() == golden


def test_ladder_golden_agrees_with_the_benchmark_expectations():
    """The golden's status, min taps and witness are the benchmark's."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    rungs = json.loads((LADDER / "expected.json").read_text(encoding="utf-8"))["rungs"]
    assert list(golden) == [r["rung"] for r in rungs]
    for r in rungs:
        assert golden[r["rung"]][:3] == [r["status"], r["min_taps"], r["witness"]], r["rung"]


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rung_rows().items()))
        fh.write("\n}\n")
    sys.exit(0)
