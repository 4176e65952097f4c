"""Workload definitions shared by the benchmark and its reference recorder.

Two search workloads run ``search_mechanics`` over a fixed pool of candidate
seeds; the workload seed rotates where in the pool the search starts, so
every seed does the same work in a different order and the report's
discovery order differs. The ladder workload runs ``evaluate_candidate`` on
committed challenges; the workload seed permutes the colours of every board
and goal, which leaves the work and the expected results unchanged because
both ladder mechanics ignore colour. See README.md for why each was chosen.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
LADDER_DIR = BENCH_DIR / "ladder"
REF_DIR = BENCH_DIR / "ref"
OUT_DIR = BENCH_DIR / "out"

SEARCH_WORKLOADS = ("search-3x3", "search-4x4")
LADDER_WORKLOAD = "solve-ladder"
WORKLOADS = SEARCH_WORKLOADS + (LADDER_WORKLOAD,)

# Candidate seeds [0, POOL) form each search workload; the workload seed
# picks one of POOL // ROTATION_STEP starting points.
POOL = 5000
ROTATION_STEP = 250


@dataclass(frozen=True)
class SearchSpec:
    config: str     # generation config, relative to the repository root
    challenge: str  # challenge file, relative to the repository root


SEARCH_SPECS: Dict[str, SearchSpec] = {
    "search-3x3": SearchSpec("fixtures/default.cfg", "fixtures/unsolvable.ch"),
    "search-4x4": SearchSpec("fixtures/search.cfg", "fixtures/clear_red.ch"),
}

PROGRAM_MODULES = ("evaluate", "game", "lang", "registry", "runtime", "synthesis")


class BenchError(Exception):
    """The benchmark cannot run here: missing program, inputs or references."""


def check_program() -> None:
    if not (SRC_DIR / "mechgen" / "__init__.py").is_file():
        raise BenchError(f"program not found: {SRC_DIR / 'mechgen'}")


def import_mechgen() -> types.SimpleNamespace:
    """Import the program from ``src/`` afresh and return its modules.

    Earlier imports are dropped first, so each call pays the full import the
    way a new ``mechgen`` process does (compiled bytecode caches aside).
    """
    check_program()
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    for name in [n for n in sys.modules if n == "mechgen" or n.startswith("mechgen.")]:
        del sys.modules[name]
    importlib.import_module("mechgen")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"mechgen.{name}") for name in PROGRAM_MODULES})


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def read_json(path: Path):
    if not path.is_file():
        raise BenchError(f"missing benchmark data file: {path}")
    return json.loads(path.read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# Search workloads


def rotation_calls(seed: int) -> List[Tuple[int, int]]:
    """(first candidate seed, budget) of each ``search_mechanics`` call.

    Together the calls cover the pool exactly once, starting at an offset
    the workload seed chooses and wrapping round to 0.
    """
    offset = (seed % (POOL // ROTATION_STEP)) * ROTATION_STEP
    if offset == 0:
        return [(0, POOL)]
    return [(offset, POOL - offset), (0, offset)]


def call_key(start: int, budget: int) -> str:
    return f"{start}+{budget}"


def outcome_code(entry) -> str:
    """One character per candidate: 'r' rejected, 'u' unsolvable, or the
    solved min_taps as a digit."""
    if entry.outcome == "solved":
        if not 0 < entry.min_taps < 10:
            raise BenchError(f"min_taps {entry.min_taps} does not fit the reference code")
        return str(entry.min_taps)
    return {"rejected": "r", "unsolvable": "u"}[entry.outcome]


@dataclass
class SearchInputs:
    config: object
    challenge: object
    registry: object
    sig: object


def setup_search(mg, spec: SearchSpec) -> SearchInputs:
    """Load a search workload's inputs the way ``mechgen search`` does."""
    config = mg.synthesis.load_config_file(str(ROOT / spec.config))
    challenge = mg.evaluate.load_challenge(ROOT / spec.challenge)
    registry = mg.game.build_game_registry(challenge.initial.width, challenge.initial.height)
    sig = mg.game.build_hook_table().sig(mg.game.ON_TILE_TAPPED)
    return SearchInputs(config, challenge, registry, sig)


def check_fixtures(spec: SearchSpec, ref: dict) -> None:
    """The references hold only for the fixture bytes they were recorded on."""
    for key in ("config", "challenge"):
        path = ROOT / getattr(spec, key)
        if not path.is_file():
            raise BenchError(f"missing fixture: {path}")
        if sha256_text(path.read_text(encoding="utf-8")) != ref[f"{key}_sha256"]:
            raise BenchError(f"{path} differs from the file the references were recorded on")


# --------------------------------------------------------------------------
# Ladder workload

# Each rung binds one of these mechanics to one ladder challenge.
LADDER_MECHANICS = {
    "destroy": "DestroyTile(x, y);",
    "swap": "SwapTiles(x, y, 0, 0);",
}
MECHANIC_HEADER = "signature: onTileTapped(x:int, y:int) -> void\n"

COLOUR_PERMUTATIONS = list(itertools.permutations("RGBY"))


def colour_map(seed: int) -> Dict[str, str]:
    return dict(zip("RGBY", COLOUR_PERMUTATIONS[seed % len(COLOUR_PERMUTATIONS)]))


def recolour_challenge(text: str, mapping: Dict[str, str]) -> str:
    """Apply a colour permutation to board rows and the goal of a challenge."""
    out = []
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped.startswith("goal:"):
            parts = stripped.split()
            if len(parts) == 3:
                parts[2] = mapping[parts[2]]
            line = " ".join(parts)
        elif stripped and not stripped.startswith("#") and not stripped.startswith("max_taps:"):
            line = "".join(mapping.get(ch, ch) for ch in line)
        out.append(line)
    return "\n".join(out)


@dataclass(frozen=True)
class Rung:
    name: str
    challenge: str  # challenge name, file ``<challenge>.ch``
    mechanic: str   # key of LADDER_MECHANICS, file ``<mechanic>.mg``
    status: str
    min_taps: object
    witness: object


def load_ladder() -> List[Rung]:
    data = read_json(LADDER_DIR / "expected.json")
    return [
        Rung(
            r["rung"], r["challenge"], r["mechanic"], r["status"], r["min_taps"],
            tuple(tuple(t) for t in r["witness"]) if r["witness"] is not None else None,
        )
        for r in data["rungs"]
    ]


def write_ladder_inputs(rungs: List[Rung], seed: int) -> Path:
    """Write the seed's recoloured challenges; return their directory."""
    mapping = colour_map(seed)
    target = OUT_DIR / "inputs" / f"{LADDER_WORKLOAD}-seed{seed}"
    target.mkdir(parents=True, exist_ok=True)
    for name in sorted({r.challenge for r in rungs}):
        source = LADDER_DIR / f"{name}.ch"
        if not source.is_file():
            raise BenchError(f"missing ladder challenge: {source}")
        text = recolour_challenge(source.read_text(encoding="utf-8"), mapping)
        (target / f"{name}.ch").write_text(text, encoding="utf-8")
    return target


@dataclass
class LadderInputs:
    challenges: Dict[str, object]
    mechanics: Dict[str, Tuple[object, object]]  # name -> (sig, block)
    registries: Dict[Tuple[int, int], object]


def setup_ladder(mg, rungs: List[Rung], input_dir: Path) -> LadderInputs:
    """Load ladder challenges and parse its mechanics the way
    ``mechgen evaluate`` does."""
    challenges = {
        name: mg.evaluate.load_challenge(input_dir / f"{name}.ch")
        for name in sorted({r.challenge for r in rungs})
    }
    mechanics = {
        name: mg.lang.parse_mechanic((LADDER_DIR / f"{name}.mg").read_text(encoding="utf-8"))
        for name in sorted({r.mechanic for r in rungs})
    }
    registries = {}
    for ch in challenges.values():
        size = (ch.initial.width, ch.initial.height)
        if size not in registries:
            registries[size] = mg.game.build_game_registry(*size)
    return LadderInputs(challenges, mechanics, registries)


def status_triple(result) -> Tuple[str, object, object]:
    """(status, min_taps, witness) of an EvalResult, as the ladder records it."""
    status = result.status
    kind = type(status).__name__
    if kind == "Solved":
        return "solved", status.min_taps, tuple(tuple(t) for t in status.witness)
    if kind == "Unsolvable":
        return "unsolvable", None, None
    return "rejected", None, None
