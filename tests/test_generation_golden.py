"""Pins ``generate_block`` output over a grid of signatures, registries and configs.

Each grid cell generates a few seeds and records ``pretty(block)``, or the
``GenerationError`` type and text when generation fails. The golden stores one
SHA-256 digest per cell, so a refactor of the generator that changes any draw,
any literal value or any error message shows up as the cell that moved.

The grid covers void, int, enum and bool signatures; the full game registry,
``usable``-restricted ones and a small registry with one-sided, one-value and
out-of-range parameter bounds; ``literal_weight`` 0 and > 0;
``max_recursion_depth`` 0, 1 and 2; and several statement-kind subsets.

Regenerate (only from a commit whose outputs are known to be right):

    PYTHONPATH=src python tests/test_generation_golden.py
"""

import hashlib
import itertools
import json
import sys
from pathlib import Path

from mechgen.game import build_game_registry
from mechgen.lang import Signature, pretty
from mechgen.registry import (
    BOOL,
    INT,
    VOID,
    EnumDef,
    FieldDescriptor,
    MethodDescriptor,
    Registry,
    enum_type,
)
from mechgen.synthesis import GenerationConfig, GenerationError, StatementKind, generate_block

GOLDEN = Path(__file__).parent / "golden" / "generation.json"
SEEDS = range(8)

COLOUR = enum_type("Colour")
SIGNATURES = {
    "tap": Signature("onTileTapped", (("x", INT), ("y", INT)), VOID),
    "int": Signature("score", (("n", INT),), INT),
    "enum": Signature("pick", (("c", COLOUR), ("b", BOOL)), COLOUR),
    "bool": Signature("check", (), BOOL),
}


def _bounded_registry() -> Registry:
    """A two-sided bound, a one-value range and a min-only bound outside the
    literal range."""
    reg = Registry()
    reg.register_enum(EnumDef("Colour", ("R", "G")))
    reg.register_field(FieldDescriptor("Score", INT))
    reg.register_field(FieldDescriptor("Lock", BOOL, writable=False))
    reg.register_field(FieldDescriptor("Hidden", COLOUR, usable=False))
    reg.register_method(MethodDescriptor(
        "Put", (("n", INT),), VOID,
        bounds={"n": (2, 3)},
    ))
    reg.register_method(MethodDescriptor(
        "Far", (("n", INT), ("c", COLOUR)), VOID,
        bounds={"n": (200, None)},
    ))
    reg.register_method(MethodDescriptor(
        "Pin", (("n", INT),), BOOL,
        bounds={"n": (1, 1)},
    ))
    reg.register_method(MethodDescriptor("Same", (("c", COLOUR),), BOOL))
    reg.register_method(MethodDescriptor("Tick", (), INT))
    return reg.seal()


REGISTRIES = {
    "full": build_game_registry(),
    "usable-set": build_game_registry(usable={"SetTile", "IsOccupied", "Width"}),
    "usable-swap": build_game_registry(4, 5, usable={"SwapTiles", "Less", "Add"}),
    "bounded": _bounded_registry(),
}

LITERAL_WEIGHTS = (0.0, 1.0, 2.5)
DEPTHS = (0, 1, 2)
KIND_SUBSETS = {
    "all": frozenset(StatementKind),
    "expr": frozenset({StatementKind.EXPR_STMT}),
    "decl-assign": frozenset({StatementKind.VAR_DECL, StatementKind.ASSIGN}),
    "assign-if": frozenset({StatementKind.ASSIGN, StatementKind.IF_ELSE}),
}


def cell_outputs(sig, registry, weight, depth, kinds):
    out = []
    for seed in SEEDS:
        config = GenerationConfig(
            seed=seed,
            max_lines=3,
            max_recursion_depth=depth,
            literal_weight=weight,
            else_probability=0.5,
            max_retries_per_line=4,
            statement_kinds_enabled=kinds,
        )
        try:
            out.append(pretty(generate_block(sig, registry, config)))
        except GenerationError as err:
            out.append(f"{type(err).__name__}: {err}\n")
    return out


def compute_golden():
    golden = {}
    for (sname, sig), (rname, reg), weight, depth, (kname, kinds) in itertools.product(
        SIGNATURES.items(), REGISTRIES.items(), LITERAL_WEIGHTS, DEPTHS, KIND_SUBSETS.items()
    ):
        text = "\x00".join(cell_outputs(sig, reg, weight, depth, kinds))
        key = f"{sname} {rname} w={weight} d={depth} {kname}"
        golden[key] = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    return golden


def test_generation_matches_golden():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_golden()
    assert set(actual) == set(golden)
    moved = [key for key in actual if actual[key] != golden[key]]
    assert not moved, f"{len(moved)} of {len(actual)} cells differ, first {moved[:5]}"


if __name__ == "__main__":
    data = compute_golden()
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(data, indent=0) + "\n", encoding="utf-8")
    sys.exit(0)
