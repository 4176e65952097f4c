"""Every committed mutant (``tests/mutants.json``) still applies: its file
exists and its snippet occurs there exactly once, and it names tests. The
mutants themselves run in ``tests/run_mutants.py``, its own CI step."""

import pytest

from run_mutants import ROOT, load_mutants, mutated

MUTANTS = load_mutants()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant["name"] for mutant in MUTANTS])
def test_the_mutant_applies(mutant):
    source = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert mutated(source, mutant) != source
    assert mutant["tests"]
