"""Layer-boundary tracing for the benchmark's traced run.

The tracer replaces public mechgen functions with timing wrappers inside the
benchmark process only; no file of the program changes. Calls at candidate
and solve granularity become spans (name, start, end, parent). Calls below a
span that are too frequent to keep one by one (taps, interpreter calls,
gravity, hashing, registry lookups) are aggregated into the nearest open span
as a count, self time and inclusive time, so memory stays bounded however
many taps a solve makes. Self time is a call's duration minus the time of
the wrapped calls it made.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from workloads import BenchError

SPAN, AGG, COUNT = "span", "agg", "count"

# (owner, attribute, metric name, kind); an owner is a module, or a class as
# ``module:Class``. Module functions are wrapped where the caller looks the
# name up, so the wrapper sits on the call edge between two layers:
# ``solve`` calls ``tap`` through the evaluate module's global, and ``tap``
# calls ``invoke`` through the game module's global.
HOOK_POINTS: Tuple[Tuple[str, str, str, str], ...] = (
    ("mechgen.evaluate", "search_mechanics", "evaluate.search_mechanics", SPAN),
    ("mechgen.evaluate", "generate_block", "synthesis.generate_block", SPAN),
    ("mechgen.registry:Registry", "candidates_for", "registry.candidates_for", AGG),
    ("mechgen.evaluate", "evaluate_candidate", "evaluate.evaluate_candidate", SPAN),
    ("mechgen.evaluate", "typecheck", "lang.typecheck", SPAN),
    ("mechgen.evaluate", "pretty", "lang.pretty", SPAN),
    ("mechgen.evaluate", "solve", "evaluate.solve", SPAN),
    ("mechgen.evaluate", "tap", "game.tap", AGG),
    ("mechgen.game", "invoke", "runtime.invoke", AGG),
    ("mechgen.game", "apply_gravity", "game.apply_gravity", AGG),
    ("mechgen.game:Board", "key", "game.board_key", AGG),
    ("mechgen.game:GameState", "clone", "game.clone", AGG),
    ("mechgen.runtime:ExecBudget", "spend", "runtime.host_calls", COUNT),
    ("mechgen.lang", "parse_mechanic", "lang.parse_mechanic", SPAN),
)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and aggregates for one traced pass; install, run, uninstall."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        # Blocks returned by generate_block, for the distinct-text ratio.
        self.blocks: List[object] = []
        # One entry per open wrapped call: time spent in wrapped children.
        self._child: List[float] = [0.0]
        # Span records of the open spans, innermost last.
        self._open: List[dict] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._clock = time.perf_counter

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for where, attr, name, kind in HOOK_POINTS:
            owner = _resolve(where)
            if attr not in vars(owner):
                raise BenchError(f"trace hook point {where}.{attr} not found")
            original = vars(owner)[attr]
            if kind == SPAN:
                wrapper = self._span_wrapper(name, original)
            elif kind == AGG:
                wrapper = self._agg_wrapper(name, original)
            else:
                wrapper = self._count_wrapper(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- recording ---------------------------------------------------------

    def _open_span(self, name: str, attrs: Optional[dict]) -> dict:
        parent = self._open[-1] if self._open else None
        record = {
            "id": len(self.spans),
            "parent": parent["id"] if parent else None,
            "name": name,
            "label": parent["label"] if parent else None,
            "start": 0.0,
            "end": 0.0,
            "self": 0.0,
            "agg": {},
        }
        if attrs:
            record.update(attrs)
        self.spans.append(record)
        self._open.append(record)
        self._child.append(0.0)
        return record

    def _close_span(self, record: dict, start: float, end: float) -> None:
        inner = self._child.pop()
        self._open.pop()
        dur = end - start
        self._child[-1] += dur
        record["start"] = start
        record["end"] = end
        record["self"] = dur - inner

    @contextmanager
    def span(self, name: str, label: Optional[str] = None) -> Iterator[dict]:
        """A span the benchmark itself opens, such as one ladder rung."""
        record = self._open_span(name, {"label": label} if label else None)
        start = self._clock()
        try:
            yield record
        finally:
            self._close_span(record, start, self._clock())

    def _span_wrapper(self, name, fn):
        clock = self._clock

        def traced(*args, **kwargs):
            attrs = None
            if name == "synthesis.generate_block" and len(args) >= 3:
                attrs = {"seed": getattr(args[2], "seed", None)}
            record = self._open_span(name, attrs)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                record["error"] = type(err).__name__
                raise
            finally:
                self._close_span(record, start, clock())
            if name == "synthesis.generate_block":
                self.blocks.append(result)
            elif name == "evaluate.evaluate_candidate":
                record["status"] = type(result.status).__name__
                record["states_explored"] = result.states_explored
                record["exec_errors"] = result.error_count
            return result

        traced.__wrapped__ = fn
        return traced

    def _agg_wrapper(self, name, fn):
        clock = self._clock
        child = self._child
        opened = self._open

        def traced(*args, **kwargs):
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                errors = opened[-1]["agg"].setdefault(f"{name}.errors.{type(err).__name__}", [0, 0.0, 0.0])
                errors[0] += 1
                raise
            finally:
                dur = clock() - start
                inner = child.pop()
                child[-1] += dur
                entry = opened[-1]["agg"].get(name)
                if entry is None:
                    entry = opened[-1]["agg"][name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += dur - inner
                entry[2] += dur

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        opened = self._open

        def traced(*args, **kwargs):
            entry = opened[-1]["agg"].get(name)
            if entry is None:
                entry = opened[-1]["agg"][name] = [0, 0.0, 0.0]
            entry[0] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def totals(self) -> Dict[str, List[float]]:
        """name -> [calls, self seconds, inclusive seconds] over all spans."""
        out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for record in self.spans:
            entry = out[record["name"]]
            entry[0] += 1
            entry[1] += record["self"]
            entry[2] += record["end"] - record["start"]
            if "error" in record:
                out[f"{record['name']}.errors.{record['error']}"][0] += 1
            for agg_name, (calls, self_s, incl_s) in record["agg"].items():
                entry = out[agg_name]
                entry[0] += calls
                entry[1] += self_s
                entry[2] += incl_s
        return out

    def write(self, path, header: dict) -> None:
        """One JSON line for the header, then one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")
