"""What the benchmark relies on must still hold.

``bench/tracing.py`` replaces the attributes listed in ``HOOK_POINTS`` with
timing wrappers and fails the traced run when one is missing. This test
reads that list so a refactor that drops or moves one of those names fails
here, not only in a traced benchmark run. The committed mechanics must
type-check on every board they are solved on: ``bench/run.py`` builds each
ladder mechanic as a delegate, which raises on an ill-typed block.
"""

import importlib
import sys
from pathlib import Path

import pytest

from mechgen.evaluate import load_challenge
from mechgen.game import build_game_registry
from mechgen.lang import parse_mechanic
from mechgen.runtime import GeneratedDelegate

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
# Each directory's mechanics are solved on its challenges.
MECHANIC_DIRS = [ROOT / "fixtures", BENCH_DIR / "ladder"]


def load_hook_points(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    try:
        return importlib.import_module("tracing").HOOK_POINTS
    finally:
        # The bench modules have generic names; keep them out of later tests.
        for name in ("tracing", "workloads"):
            sys.modules.pop(name, None)


def test_every_trace_hook_point_names_an_owner_attribute(monkeypatch):
    hook_points = load_hook_points(monkeypatch)
    assert hook_points
    missing = []
    for where, attr, _name, _kind in hook_points:
        module, _, cls = where.partition(":")
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        if attr not in vars(owner):
            missing.append(f"{where}.{attr}")
    assert not missing, f"trace hook points not found: {missing}"


@pytest.mark.parametrize("directory", MECHANIC_DIRS, ids=lambda d: d.name)
def test_committed_mechanics_check_on_every_board_they_are_solved_on(directory):
    sizes = {(c.initial.width, c.initial.height) for c in map(load_challenge, sorted(directory.glob("*.ch")))}
    mechanics = sorted(directory.glob("*.mg"))
    assert sizes and mechanics
    for path in mechanics:
        sig, block = parse_mechanic(path.read_text())
        for width, height in sorted(sizes):
            GeneratedDelegate(sig, block, build_game_registry(width, height))
