"""Runs the committed mutants (``tests/mutants.json``): each one must fail
the tests named for it.

A mutant names a file under the repository root, an exact snippet that
occurs once in it, the snippet's replacement and the tests that must fail.
Snippets and replacements are lists of lines. The runner copies the program
and its tests to a temporary directory, first runs every named test on the
unmutated copy (they must pass), then applies each mutant in turn and runs
each of its tests on its own. It exits 1 when a mutant survives one of its
tests (that test passes), when its snippet does not occur exactly once, or
when a run ends in anything but passing or failing tests (a test name that
no longer exists, say).

    python tests/run_mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).resolve().parent / "mutants.json"
COPIED = ("src", "tests", "fixtures", "bench", "pyproject.toml", "README.md")
# Caches, and ``bench/out``, where the benchmark writes its results.
IGNORED = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis", "out")


def load_mutants() -> List[Dict]:
    """The committed mutants, each snippet and replacement joined into text."""
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    for mutant in mutants:
        mutant["snippet"] = "\n".join(mutant["snippet"])
        mutant["replacement"] = "\n".join(mutant["replacement"])
    return mutants


def mutated(source: str, mutant: Dict) -> str:
    """``source`` with the mutant applied; ValueError unless its snippet
    occurs exactly once."""
    found = source.count(mutant["snippet"])
    if found != 1:
        raise ValueError(f"snippet occurs {found} times in {mutant['file']}, expected once")
    return source.replace(mutant["snippet"], mutant["replacement"])


def run_tests(copy: Path, tests: List[str]) -> int:
    """pytest's exit code for ``tests`` in ``copy``: 0 passed, 1 failed."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    mutants = load_mutants()
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=IGNORED)
            else:
                shutil.copy2(source, copy / name)
        named = sorted({test for mutant in mutants for test in mutant["tests"]})
        status = run_tests(copy, named)
        if status != 0:
            print(f"the named tests do not pass unmutated (pytest exit {status})")
            return 1
        for mutant in mutants:
            path = copy / mutant["file"]
            original = path.read_text(encoding="utf-8")
            try:
                path.write_text(mutated(original, mutant), encoding="utf-8")
            except ValueError as err:
                outcome = f"STALE: {err}"
            else:
                outcomes = {test: run_tests(copy, [test]) for test in mutant["tests"]}
                wrong = [f"{test} (pytest exit {status})" for test, status in outcomes.items() if status != 1]
                outcome = "SURVIVED " + ", ".join(wrong) if wrong else "killed"
            finally:
                path.write_text(original, encoding="utf-8")
            failures += outcome != "killed"
            print(f"{mutant['name']}: {outcome}")
    print(f"{len(mutants) - failures} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
