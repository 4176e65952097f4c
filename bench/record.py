#!/usr/bin/env python3
"""Regenerate the benchmark's committed data from the current program.

    python3 bench/record.py ladder [--seed 0]   # bench/ladder/*
    python3 bench/record.py search              # bench/ref/search-*.json

``ladder`` draws seeded random full boards, writes one challenge file per
ladder challenge, the two ladder mechanics, and ``expected.json`` with the
(status, min_taps, witness) the program gives for every rung. Most
challenges ask for a colour no board holds, so the solver must exhaust the
whole space; the ``-clear`` challenges are solvable by destroying tiles, so
their witnesses get checked.

``search`` runs every rotation of each search workload's candidate pool and
records each candidate's (outcome, min_taps) and the SHA-256 of every
rendered report. Record only from a commit whose outputs are known good:
the benchmark counts every later difference as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from workloads import (
    LADDER_DIR,
    LADDER_MECHANICS,
    MECHANIC_HEADER,
    POOL,
    REF_DIR,
    ROOT,
    ROTATION_STEP,
    SEARCH_SPECS,
    call_key,
    import_mechgen,
    outcome_code,
    rotation_calls,
    setup_search,
    sha256_text,
    status_triple,
)

# (name, width, height, max_taps, yellow tiles). Boards hold R, G and B;
# "-absent" asks for yellow, which no rung can create, and "-clear" places
# the given yellow tiles and asks for them all to be gone.
LADDER_CHALLENGES = (
    ("3x3t4-absent", 3, 3, 4, 0),
    ("3x3t4-clear", 3, 3, 4, 2),
    ("4x4t4-absent", 4, 4, 4, 0),
    ("4x4t5-absent", 4, 4, 5, 0),
    ("4x4t5-clear", 4, 4, 5, 3),
    ("5x5t4-absent", 5, 5, 4, 0),
    ("5x5t5-absent", 5, 5, 5, 0),
)


def challenge_text(rng: random.Random, width: int, height: int, taps: int, yellow: int) -> str:
    cells = [rng.choice("RGB") for _ in range(width * height)]
    for index in rng.sample(range(width * height), yellow):
        cells[index] = "Y"
    rows = ["".join(cells[r * width:(r + 1) * width]) for r in range(height)]
    goal = "COLOUR_CLEARED Y" if yellow else "COLOUR_PRESENT Y"
    return "\n".join(rows) + f"\ngoal: {goal}\nmax_taps: {taps}\n"


def record_ladder(seed: int) -> None:
    mg = import_mechgen()
    rng = random.Random(seed)
    LADDER_DIR.mkdir(parents=True, exist_ok=True)
    for name, body in LADDER_MECHANICS.items():
        (LADDER_DIR / f"{name}.mg").write_text(MECHANIC_HEADER + body + "\n", encoding="utf-8")
    rungs = []
    for name, width, height, taps, yellow in LADDER_CHALLENGES:
        path = LADDER_DIR / f"{name}.ch"
        header = f"# {width}x{height} ladder board, generator seed {seed}.\n"
        path.write_text(header + challenge_text(rng, width, height, taps, yellow), encoding="utf-8")
        challenge = mg.evaluate.load_challenge(path)
        registry = mg.game.build_game_registry(width, height)
        for mechanic in LADDER_MECHANICS:
            sig, block = mg.lang.parse_mechanic((LADDER_DIR / f"{mechanic}.mg").read_text())
            result = mg.evaluate.evaluate_candidate(block, sig, registry, challenge)
            status, min_taps, witness = status_triple(result)
            expect_solved = yellow > 0 and mechanic == "destroy"
            if (status == "solved") != expect_solved:
                raise SystemExit(f"{name}.{mechanic}: unexpected status {status}")
            rungs.append({
                "rung": f"{name}.{mechanic}",
                "challenge": name,
                "mechanic": mechanic,
                "status": status,
                "min_taps": min_taps,
                "witness": witness,
            })
            print(f"{name}.{mechanic}: {status} states={result.states_explored}", flush=True)
    expected = {"generator_seed": seed, "rungs": rungs}
    (LADDER_DIR / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


def record_search() -> None:
    mg = import_mechgen()
    REF_DIR.mkdir(parents=True, exist_ok=True)
    for workload, spec in SEARCH_SPECS.items():
        inputs = setup_search(mg, spec)
        codes = [None] * POOL
        reports = {}
        for rotation in range(POOL // ROTATION_STEP):
            for start, budget in rotation_calls(rotation):
                key = call_key(start, budget)
                if key in reports:
                    continue
                config = mg.synthesis.config_with_seed(inputs.config, start)
                report = mg.evaluate.search_mechanics(
                    inputs.sig, inputs.registry, inputs.challenge, config, budget)
                reports[key] = sha256_text(mg.evaluate.render_report(report, spec.challenge))
                for entry in report.entries:
                    code = outcome_code(entry)
                    if codes[entry.seed] not in (None, code):
                        raise SystemExit(f"{workload}: seed {entry.seed} is not deterministic")
                    codes[entry.seed] = code
        ref = {
            "workload": workload,
            "config": spec.config,
            "challenge": spec.challenge,
            "config_sha256": sha256_text((ROOT / spec.config).read_text(encoding="utf-8")),
            "challenge_sha256": sha256_text((ROOT / spec.challenge).read_text(encoding="utf-8")),
            "pool": POOL,
            "rotation_step": ROTATION_STEP,
            "outcomes": "".join(codes),
            "reports": reports,
        }
        (REF_DIR / f"{workload}.json").write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
        print(f"{workload}: {len(reports)} reports recorded", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("what", choices=("ladder", "search"))
    parser.add_argument("--seed", type=int, default=0, help="ladder generator seed")
    args = parser.parse_args(argv)
    if args.what == "ladder":
        record_ladder(args.seed)
    else:
        record_search()
    return 0


if __name__ == "__main__":
    sys.exit(main())
