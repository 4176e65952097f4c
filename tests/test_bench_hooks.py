"""The benchmark's tracer wraps program names; each must still exist.

``bench/tracing.py`` replaces the attributes listed in ``HOOK_POINTS`` with
timing wrappers and fails the traced run when one is missing. This test
reads that list so a refactor that drops or moves one of those names fails
here, not only in a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


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
