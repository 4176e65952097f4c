"""Fuzz the input entry points with mutated fixture text and random text.

Every input either parses or raises the documented error of its parser, and
the CLI exits 0 or 1, never 2 (an internal error). Most inputs are a few
token edits away from a committed fixture, so they reach past the first line
of each parser. ``solve`` has no state bound, so a challenge that reaches
the solver allows at most 3 taps.
"""

import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FIXTURES
from mechgen.cli import main
from mechgen.evaluate import ChallengeError, parse_challenge
from mechgen.lang import ParseError, parse_mechanic
from mechgen.synthesis import ConfigError, load_config

CHALLENGES = [(FIXTURES / name).read_text() for name in ("unsolvable.ch", "clearable.ch", "clear_red.ch")]
MECHANICS = [(FIXTURES / name).read_text() for name in ("set_yellow.mg", "destroy.mg")] + [
    "signature: onTileTapped(x:int, y:int) -> void\n"
    "int v0 = Add(x, 1);\nif (Less(v0, Height)) {\n  SwapTiles(x, y, x, v0);\n} else {\n  DoNothing();\n}\n",
]
CONFIGS = [(FIXTURES / name).read_text() for name in ("default.cfg", "search.cfg")]

# Characters the formats use, a few they do not, and non-ASCII digits and
# spaces that str.isdigit/int/strip accept.
_ALPHABET = "RGBY.#:=,;(){}-+_ \t\n0123456789xyvabcdefhilmnoprstuCDEHILMNOPSTVW\u0663\u00a0\u2003"

# An edit works on tokens (words, runs of space, single other characters):
# (operation, position, a second position, random text).
_edits = st.lists(
    st.tuples(
        st.sampled_from(["copy", "replace", "delete", "insert"]),
        st.integers(min_value=0),
        st.integers(min_value=0),
        st.text(alphabet=_ALPHABET, min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=3,
)


def _mutate(text, edits):
    """Apply token edits: copy a token of the text before another, replace a
    token by another, delete one, or insert random text."""
    tokens = re.findall(r"\w+|\s+|.", text, flags=re.S)
    for op, i, j, chunk in edits:
        if not tokens:
            tokens = [chunk]
            continue
        i %= len(tokens)
        other = tokens[j % len(tokens)]
        if op == "copy":
            tokens.insert(i, other)
        elif op == "replace":
            tokens[i] = other
        elif op == "delete":
            del tokens[i]
        else:
            tokens.insert(i, chunk)
    return "".join(tokens)


def near(fixtures):
    """A fixture text after a few edits, or random text."""
    return st.one_of(
        st.builds(_mutate, st.sampled_from(fixtures), _edits),
        st.text(alphabet=_ALPHABET, max_size=120),
        st.text(max_size=60),
    )


# Values for a ``max_taps:`` line: none allows more than 3 taps.
_TAP_VALUES = ["0", "1", "2", "3", "-2", "", "x", "2.0", " 3 ", "\u0663", "+1", "9" * 30]


def _cap_taps(text, values):
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.strip().startswith("max_taps:"):
            lines[i] = "max_taps: " + values[i % len(values)]
    return "\n".join(lines)


solver_challenges = st.builds(
    _cap_taps, near(CHALLENGES), st.lists(st.sampled_from(_TAP_VALUES), min_size=1, max_size=3)
)

FUZZ = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
# The parsers take well under a millisecond per input, so they get more.
PARSER_FUZZ = settings(FUZZ, max_examples=500)


@PARSER_FUZZ
@given(near(MECHANICS))
def test_parse_mechanic_raises_only_parse_error(text):
    try:
        parse_mechanic(text)
    except ParseError:
        pass


@PARSER_FUZZ
@given(near(CHALLENGES))
def test_parse_challenge_raises_only_challenge_error(text):
    try:
        parse_challenge(text)
    except ChallengeError:
        pass


@PARSER_FUZZ
@given(near(CONFIGS))
def test_load_config_raises_only_config_error(text):
    try:
        load_config(text)
    except ConfigError:
        pass


def _run_cli(capsys, files, *argv):
    """Write ``files`` (name -> text or bytes) to a scratch directory and run
    the CLI there; returns the exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, content in files.items():
            path = root / name
            path.parent.mkdir(parents=True, exist_ok=True)
            if isinstance(content, bytes):
                path.write_bytes(content)
            else:
                path.write_text(content, encoding="utf-8")
        code = main([arg.format(root=root) for arg in argv])
    return code, capsys.readouterr().err


def _assert_clean_exit(code, err):
    assert code in (0, 1), err
    assert "internal error" not in err


@FUZZ
@given(st.one_of(solver_challenges, st.binary(max_size=40)))
def test_cli_solve_exits_0_or_1(capsys, challenge):
    _assert_clean_exit(*_run_cli(capsys, {"c.ch": challenge}, "solve", "--challenge", "{root}/c.ch"))


@FUZZ
@given(near(MECHANICS), solver_challenges)
def test_cli_evaluate_exits_0_or_1(capsys, mechanic, challenge):
    files = {"m.mg": mechanic, "c.ch": challenge}
    _assert_clean_exit(*_run_cli(
        capsys, files, "evaluate", "--mechanic", "{root}/m.mg", "--challenge", "{root}/c.ch"))


@FUZZ
@given(near(CONFIGS), st.sampled_from(["onTileTapped", "onTileTapped ", "", "tap"]))
def test_cli_generate_exits_0_or_1(capsys, config, signature):
    files = {"g.cfg": config, "out/.keep": ""}
    _assert_clean_exit(*_run_cli(
        capsys, files, "generate", "--config", "{root}/g.cfg", "--signature", signature,
        "--count", "2", "--out", "{root}/out"))
