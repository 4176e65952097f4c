"""The generator against the reference generator it replaced.

``tests/_reference_gen.py`` keeps the old generator, which built the weighted
options of every candidate statement and summed them for each draw. The
current one draws from per-registry tables and builds only the chosen
statement's options. Every random call must stay the same, in the same order,
so both must give byte-identical blocks, or the same ``GenerationError`` type
and message, on any config, registry and signature.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference_gen import Scope as ReferenceScope
from _reference_gen import _Gen as ReferenceGen
from _reference_gen import reference_generate_block
from conftest import generation_configs
from mechgen.lang import pretty
from mechgen.registry import BOOL, INT, enum_type
from mechgen.synthesis import (
    GenerationConfig,
    GenerationError,
    Scope,
    generate_block,
    generate_expression,
)
from test_generation_golden import REGISTRIES, SIGNATURES

# Weights whose sum with a count of 1.0s is inexact, and the extremes.
ODD_WEIGHTS = (0.3, 0.1, 1 / 3, 0.7, 2.5, 5e-324, 1e-9, 1e300)


def outcome(generate, sig, registry, config):
    try:
        return pretty(generate(sig, registry, config))
    except GenerationError as err:
        return f"{type(err).__name__}: {err}"


def assert_same_block(sig, registry, config):
    expected = outcome(reference_generate_block, sig, registry, config)
    assert outcome(generate_block, sig, registry, config) == expected


@settings(max_examples=400, deadline=None)
@given(
    config=generation_configs(),
    sig=st.sampled_from(sorted(SIGNATURES)),
    registry=st.sampled_from(sorted(REGISTRIES)),
)
def test_blocks_match_the_reference_generator(config, sig, registry):
    assert_same_block(SIGNATURES[sig], REGISTRIES[registry], config)


@pytest.mark.parametrize("weight", ODD_WEIGHTS)
@pytest.mark.parametrize("depth", [0, 1, 2])
def test_non_integer_literal_weights_match_the_reference(weight, depth):
    for sig in SIGNATURES.values():
        for registry in REGISTRIES.values():
            for seed in range(12):
                config = GenerationConfig(
                    seed=seed, max_lines=4, max_recursion_depth=depth,
                    literal_weight=weight, else_probability=0.5,
                )
                assert_same_block(sig, registry, config)


# Literal intervals: open, one-sided, one value, inside and disjoint from the
# config's literal range.
INTERVALS = (None, (None, None), (0, 2), (None, -5), (7, None), (3, 3), (500, 900))


@pytest.mark.parametrize("registry", sorted(REGISTRIES))
@pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
def test_expressions_match_the_reference_and_draw_the_same_numbers(registry, weight):
    reg = REGISTRIES[registry]
    # "Dir" is declared by no registry: only a local can produce it.
    params = [("x", INT), ("b", BOOL), ("c", enum_type("Colour")), ("d", enum_type("Dir"))]
    for wanted in (INT, BOOL, enum_type("Colour"), enum_type("Dir"), enum_type("Other")):
        for depth in range(3):
            for interval in INTERVALS:
                for seed in range(6):
                    config = GenerationConfig(
                        max_recursion_depth=2, literal_weight=weight, int_literal_range=(-10, 10)
                    )
                    rng, ref_rng = random.Random(seed), random.Random(seed)
                    try:
                        got = generate_expression(
                            wanted, Scope(params), reg, config, rng, depth, interval
                        )
                    except GenerationError as err:
                        got = f"{type(err).__name__}: {err}"
                    try:
                        want = ReferenceGen(reg, config, ref_rng).expression(
                            wanted, ReferenceScope(params), depth, interval
                        )
                    except GenerationError as err:
                        want = f"{type(err).__name__}: {err}"
                    assert got == want
                    assert rng.getstate() == ref_rng.getstate()
