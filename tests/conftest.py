from pathlib import Path

import pytest
from hypothesis import strategies as st

from mechgen.evaluate import load_challenge
from mechgen.game import build_game_registry, build_hook_table, on_tile_tapped_signature
from mechgen.lang import INT64_MAX, INT64_MIN, parse
from mechgen.synthesis import GenerationConfig, StatementKind

FIXTURES = Path(__file__).parent.parent / "fixtures"


@pytest.fixture(scope="session")
def game_registry():
    return build_game_registry()


@pytest.fixture(scope="session")
def tap_sig():
    return on_tile_tapped_signature()


@pytest.fixture()
def hooks():
    return build_hook_table()


@pytest.fixture(scope="session")
def unsolvable_challenge():
    return load_challenge(FIXTURES / "unsolvable.ch")


@pytest.fixture(scope="session")
def clearable_challenge():
    return load_challenge(FIXTURES / "clearable.ch")


@pytest.fixture(scope="session")
def set_yellow_block():
    return parse("SetTile(x, y, Colour.Y);", params=["x", "y"])


# Integer literal bounds that touch both ends of the int64 range.
int64s = st.one_of(
    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1, INT64_MAX]),
    st.integers(min_value=INT64_MIN, max_value=INT64_MAX),
)


@st.composite
def generation_configs(draw):
    """Any valid config of up to 6 lines, seed included: statement-kind
    subsets, literal ranges at the int64 limits, and the extreme weights
    (non-integer ones among them) and else probabilities."""
    max_lines = draw(st.integers(min_value=1, max_value=6))
    return GenerationConfig(
        seed=draw(st.integers(min_value=0, max_value=2**32 - 1)),
        min_lines=draw(st.integers(min_value=1, max_value=max_lines)),
        max_lines=max_lines,
        max_recursion_depth=draw(st.integers(min_value=0, max_value=3)),
        literal_weight=draw(st.one_of(st.sampled_from([0.0, 0.3, 1.0, 2.5, 4.0]),
                                      st.floats(min_value=0.0, max_value=10.0))),
        int_literal_range=tuple(sorted(draw(st.tuples(int64s, int64s)))),
        else_probability=draw(st.one_of(st.sampled_from([0.0, 1.0]),
                                        st.floats(min_value=0.0, max_value=1.0))),
        statement_kinds_enabled=draw(st.sets(st.sampled_from(list(StatementKind)), min_size=1)),
    )
