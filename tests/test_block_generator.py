"""One generator per run against a fresh generation per seed.

``block_generator`` resolves what does not depend on the seed once, and its
``generate(seed)`` reseeds one ``random.Random`` and starts a fresh scope
and fresh local names. Reused over seeds in any order, failing seeds
among them, it must give what ``generate_block`` gives for the config with
that seed, and what the reference generator gives: the same pretty text,
or the same ``GenerationError`` type and message.
"""

import json
import random
from dataclasses import replace

import pytest

from _reference_gen import reference_generate_block
from conftest import FIXTURES
from mechgen.game import build_game_registry, on_tile_tapped_signature
from mechgen.lang import Signature
from mechgen.registry import BOOL, INT, VOID, MethodDescriptor, Registry
from mechgen.synthesis import (
    ConfigError,
    SEED_LIMIT,
    block_generator,
    config_with_seed,
    generate_block,
    load_config_file,
)
from test_generation_golden import GOLDEN, SEEDS, cell_config, compute_golden, outcome

DEFAULT_CFG = load_config_file(str(FIXTURES / "default.cfg"))
CONFIGS = {
    "default": DEFAULT_CFG,
    "search": load_config_file(str(FIXTURES / "search.cfg")),
    "no-literals-depth-0": replace(DEFAULT_CFG, literal_weight=0.0, max_recursion_depth=0),
}


def _far_registry() -> Registry:
    """A do-nothing method and, per return type, a dozen methods whose one
    argument is bounded outside every config's literal range: a call to one
    has an argument only when an int local is in scope, so about half the
    seeds of ``default.cfg`` and ``search.cfg`` exhaust their retries."""
    far = {"n": (200, None)}
    return Registry(methods=[
        MethodDescriptor("Tick", (), VOID),
        *(MethodDescriptor(f"{name}{i}", (("n", INT),), ret, bounds=far)
          for name, ret in (("Put", VOID), ("Int", INT), ("Bool", BOOL)) for i in range(12)),
    ])


FAR = _far_registry()
CASES = [
    (on_tile_tapped_signature(), build_game_registry()),
    (on_tile_tapped_signature(), build_game_registry(4, 4)),
    (Signature("f", (), VOID), FAR),
    (Signature("check", (), BOOL), FAR),
]
SEED_COUNT = 40


def _outcomes(generate, seeds):
    return {seed: outcome(generate, seed) for seed in seeds}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_one_generator_over_shuffled_seeds_matches_per_seed_generation(name):
    config = CONFIGS[name]
    seeds = [*range(SEED_COUNT), 0, 7, SEED_LIMIT - 1]  # repeats, and the last seed
    random.Random(name).shuffle(seeds)
    failed = succeeded = 0
    for sig, registry in CASES:
        got = _outcomes(block_generator(sig, registry, config), seeds)
        assert got == _outcomes(
            lambda seed: generate_block(sig, registry, config_with_seed(config, seed)), seeds)
        assert got == _outcomes(
            lambda seed: reference_generate_block(sig, registry, config_with_seed(config, seed)),
            seeds)
        errors = sum(text.startswith("Exhausted: ") for text in got.values())
        failed += errors
        succeeded += len(got) - errors
    assert failed and succeeded


@pytest.mark.parametrize("name", ["default", "search"])
def test_failing_and_generated_seeds_interleave_in_one_generator(name):
    generate = block_generator(Signature("f", (), VOID), FAR, CONFIGS[name])
    outcomes = [outcome(generate, seed) for seed in range(SEED_COUNT)]
    errors = [text.startswith("Exhausted: ") for text in outcomes]
    assert any(errors) and not all(errors)


def _generator_cell_outputs(sig, registry, weight, depth, kinds):
    """One generator per grid cell, its seeds drawn in reverse."""
    generate = block_generator(sig, registry, cell_config(weight, depth, kinds))
    out = _outcomes(generate, reversed(SEEDS))
    return [out[seed] for seed in SEEDS]


def test_the_generation_golden_grid_holds_through_one_generator_per_cell():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = compute_golden(_generator_cell_outputs)
    moved = [key for key in actual if actual[key] != golden.get(key)]
    assert set(actual) == set(golden)
    assert not moved, f"{len(moved)} of {len(actual)} cells differ, first {moved[:5]}"


@pytest.mark.parametrize("seed, message", [
    (-1, "seed must fit in 64 unsigned bits"),
    (SEED_LIMIT, "seed must fit in 64 unsigned bits"),
    (1.5, "seed must be an integer"),
    (True, "seed must be an integer"),
])
def test_a_bad_seed_is_a_config_error(seed, message, tap_sig, game_registry):
    generate = block_generator(tap_sig, game_registry, DEFAULT_CFG)
    with pytest.raises(ConfigError, match=message):
        generate(seed)
    assert outcome(generate, 3) == outcome(lambda s: generate_block(
        tap_sig, game_registry, config_with_seed(DEFAULT_CFG, s)), 3)
