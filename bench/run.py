#!/usr/bin/env python3
"""mechgen benchmark: search throughput and solve-ladder latency.

    python3 bench/run.py --workload search-3x3 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process, one thread, a closed loop with one caller. After set-up the
workload runs whole passes until ``--seconds`` is used up (at least
MIN_PASSES); every output is checked against committed references and a
sample against an independent no-dedup enumerator. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run alternates untraced and traced passes and reports the
per-layer split. Results, with the environment, are also written under
``bench/out/``. See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from oracle import agrees, naive_solve, oracle_depth
from tracing import Tracer
from workloads import (
    LADDER_WORKLOAD,
    OUT_DIR,
    POOL,
    REF_DIR,
    SEARCH_SPECS,
    WORKLOADS,
    BenchError,
    call_key,
    check_fixtures,
    check_program,
    import_mechgen,
    load_ladder,
    outcome_code,
    read_json,
    rotation_calls,
    setup_ladder,
    setup_search,
    sha256_text,
    status_triple,
    write_ladder_inputs,
)

SETUP_REPEATS = 7
MIN_PASSES = 2
# Upper bound on tap sequences the oracle enumerates for one check; it fixes
# the depth to which each rung or sampled candidate is re-solved.
ORACLE_MAX_SEQUENCES = 7000
# Search candidates re-solved by the oracle per run: (solved, unsolvable).
ORACLE_SAMPLE = (2, 4)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("candidates_per_s", "1/s"),
    ("solve_s.geomean", "s"),
    ("peak_rss_mb", "MB"),
)

# Wrapped functions reported with a call count and a self time.
TIMED_CALLS = (
    "registry.candidates_for",
    "synthesis.generate_block",
    "lang.typecheck",
    "lang.pretty",
    "lang.parse_mechanic",
    "runtime.invoke",
    "game.tap",
    "game.apply_gravity",
    "game.board_key",
    "game.clone",
    "evaluate.search_mechanics",
    "evaluate.evaluate_candidate",
    "evaluate.solve",
)
LAYERS = ("registry", "synthesis", "lang", "runtime", "game", "evaluate")
EXEC_ERROR_KINDS = ("ConstraintViolation", "HostError", "BudgetExceeded", "ArityMismatch", "InterpreterError")


def per_layer_metrics(rungs) -> Tuple[Tuple[str, str], ...]:
    """(name, unit) of every per-layer metric, in report order."""
    return (
        tuple((f"{name}.{suffix}", unit) for name in TIMED_CALLS
              for suffix, unit in (("calls", "count"), ("self_s", "s")))
        + (
            ("game.tap.incl_s", "s"),
            ("synthesis.generation_errors", "count"),
            ("synthesis.distinct_ratio", "ratio"),
            ("lang.typecheck_rejects", "count"),
            ("runtime.host_calls", "count"),
            ("runtime.exec_errors", "count"),
        )
        + tuple((f"runtime.exec_errors.{kind}", "count") for kind in EXEC_ERROR_KINDS)
        + (
            ("evaluate.states_explored", "count"),
            ("evaluate.states_per_s", "1/s"),
            ("evaluate.solved_ratio", "ratio"),
        )
        + tuple((f"evaluate.solve_s.{rung}", "s") for rung in rungs)
        + tuple((f"layer.{layer}.self_s", "s") for layer in LAYERS)
        + (
            ("trace.wall_s", "s"),
            ("trace.overhead_ratio", "ratio"),
        )
    )


@dataclass
class PassResult:
    wall: float
    ops: int
    failed: int
    solved: int = 0
    states: int = 0
    busy_s: float = 0.0  # time inside the measured public calls
    op_times: List[float] = field(default_factory=list)  # per evaluate_candidate


def geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def report_exception(context: str) -> None:
    print(f"{context}: unexpected exception", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --------------------------------------------------------------------------
# Workloads


class SearchWorkload:
    """``search_mechanics`` over the candidate pool, rotated by the seed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.spec = SEARCH_SPECS[name]
        self.ref = read_json(REF_DIR / f"{name}.json")
        if self.ref["pool"] != POOL or len(self.ref["outcomes"]) != POOL:
            raise BenchError(f"{name} references do not cover the pool of {POOL}")
        check_fixtures(self.spec, self.ref)
        self.calls = rotation_calls(seed)

    def setup(self, mg):
        return setup_search(mg, self.spec)

    def run_pass(self, mg, inputs, tracer: Optional[Tracer]) -> PassResult:
        op_times: List[float] = []
        reports = []
        busy = 0.0
        timer = nullcontext() if tracer else timed_calls(mg.evaluate, "evaluate_candidate", op_times)
        started = time.perf_counter()
        with timer:
            try:
                for start, budget in self.calls:
                    config = mg.synthesis.config_with_seed(inputs.config, start)
                    t0 = time.perf_counter()
                    reports.append(mg.evaluate.search_mechanics(
                        inputs.sig, inputs.registry, inputs.challenge, config, budget))
                    busy += time.perf_counter() - t0
            except Exception:
                report_exception(self.name)
        wall = time.perf_counter() - started
        result = PassResult(wall, POOL, 0, busy_s=busy, op_times=op_times)
        self._check(mg, reports, result)
        return result

    def _check(self, mg, reports, result: PassResult) -> None:
        """Compare report bytes and each candidate's (outcome, min_taps)."""
        expected = self.ref["outcomes"]
        failed = set()
        for index, (start, budget) in enumerate(self.calls):
            seeds = range(start, start + budget)
            if index >= len(reports):
                failed.update(seeds)
                continue
            report = reports[index]
            text = mg.evaluate.render_report(report, self.spec.challenge)
            if sha256_text(text) != self.ref["reports"].get(call_key(start, budget)):
                failed.update(seeds)
            if [e.seed for e in report.entries] != list(seeds):
                failed.update(seeds)
                continue
            for entry in report.entries:
                try:
                    code = outcome_code(entry)
                except BenchError:
                    code = "?"
                if code != expected[entry.seed]:
                    failed.add(entry.seed)
                result.solved += entry.outcome == "solved"
                result.states += entry.states_explored
        result.failed = len(failed)

    def oracle_check(self, mg, inputs) -> Tuple[int, int]:
        """Re-solve sampled candidates with the solver and the oracle."""
        expected = self.ref["outcomes"]
        rng = random.Random(self.seed)
        solved = [s for s, c in enumerate(expected) if c.isdigit()]
        unsolvable = [s for s, c in enumerate(expected) if c == "u"]
        sample = (rng.sample(solved, min(ORACLE_SAMPLE[0], len(solved)))
                  + rng.sample(unsolvable, min(ORACLE_SAMPLE[1], len(unsolvable))))
        challenge = inputs.challenge
        depth = oracle_depth(challenge, ORACLE_MAX_SEQUENCES)
        failed = 0
        for seed in sample:
            try:
                config = mg.synthesis.config_with_seed(inputs.config, seed)
                block = mg.synthesis.generate_block(inputs.sig, inputs.registry, config)
                result = mg.evaluate.evaluate_candidate(block, inputs.sig, inputs.registry, challenge)
                status, min_taps, witness = status_triple(result)
                code = str(min_taps) if status == "solved" else status[0]
                found = naive_solve(challenge, _bound_hooks(mg, inputs.sig, block, inputs.registry), depth, mg)
                ok = code == expected[seed] and agrees(status, min_taps, witness, found, depth)
            except Exception:
                report_exception(f"{self.name} oracle check of seed {seed}")
                ok = False
            if not ok:
                print(f"{self.name}: candidate seed {seed} disagrees with the oracle", file=sys.stderr)
                failed += 1
        return len(sample), failed


class LadderWorkload:
    """``evaluate_candidate`` on every committed rung, recoloured by the seed."""

    name = LADDER_WORKLOAD

    def __init__(self, seed: int):
        self.seed = seed
        self.rungs = load_ladder()
        self.input_dir = write_ladder_inputs(self.rungs, seed)

    def setup(self, mg):
        inputs = setup_ladder(mg, self.rungs, self.input_dir)
        hook_sig = mg.game.build_hook_table().sig(mg.game.ON_TILE_TAPPED)
        if any(sig != hook_sig for sig, _ in inputs.mechanics.values()):
            raise BenchError("a ladder mechanic does not match the tap hook signature")
        return inputs

    def _rung_args(self, inputs, rung):
        sig, block = inputs.mechanics[rung.mechanic]
        challenge = inputs.challenges[rung.challenge]
        registry = inputs.registries[(challenge.initial.width, challenge.initial.height)]
        return block, sig, registry, challenge

    def run_pass(self, mg, inputs, tracer: Optional[Tracer]) -> PassResult:
        results = []
        op_times: List[float] = []
        started = time.perf_counter()
        for rung in self.rungs:
            args = self._rung_args(inputs, rung)
            with tracer.span("rung", rung.name) if tracer else nullcontext():
                t0 = time.perf_counter()
                try:
                    results.append(mg.evaluate.evaluate_candidate(*args))
                except Exception:
                    report_exception(f"rung {rung.name}")
                    results.append(None)
                op_times.append(time.perf_counter() - t0)
        wall = time.perf_counter() - started
        result = PassResult(wall, len(self.rungs), 0, busy_s=sum(op_times), op_times=op_times)
        for rung, outcome in zip(self.rungs, results):
            if outcome is None or status_triple(outcome) != (rung.status, rung.min_taps, rung.witness):
                print(f"rung {rung.name}: result differs from expected.json", file=sys.stderr)
                result.failed += 1
                continue
            result.solved += rung.status == "solved"
            result.states += outcome.states_explored
        return result

    def oracle_check(self, mg, inputs) -> Tuple[int, int]:
        """Re-solve every rung with the oracle, to the depth it can afford."""
        failed = 0
        for rung in self.rungs:
            block, sig, registry, challenge = self._rung_args(inputs, rung)
            depth = oracle_depth(challenge, ORACLE_MAX_SEQUENCES)
            try:
                found = naive_solve(challenge, _bound_hooks(mg, sig, block, registry), depth, mg)
                ok = agrees(rung.status, rung.min_taps, rung.witness, found, depth)
            except Exception:
                report_exception(f"oracle check of rung {rung.name}")
                ok = False
            if not ok:
                print(f"rung {rung.name}: expected.json disagrees with the oracle", file=sys.stderr)
                failed += 1
        return len(self.rungs), failed


def _bound_hooks(mg, sig, block, registry):
    hooks = mg.game.build_hook_table()
    hooks.bind(mg.game.ON_TILE_TAPPED, mg.runtime.GeneratedDelegate(sig, block, registry))
    return hooks


@contextmanager
def timed_calls(owner, attr: str, sink: List[float]):
    """Record the duration of every call to ``owner.attr`` into ``sink``."""
    original = getattr(owner, attr)
    clock = time.perf_counter

    def timed(*args, **kwargs):
        start = clock()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(clock() - start)

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def make_workload(name: str, seed: int):
    if name == LADDER_WORKLOAD:
        return LadderWorkload(seed)
    return SearchWorkload(name, seed)


# --------------------------------------------------------------------------
# Measurement


def summarize(values: List[float]) -> Dict[str, float]:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def timed_setups(workload) -> Tuple[object, object, List[float]]:
    """Import the program and load the inputs SETUP_REPEATS times."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        mg = import_mechgen()
        inputs = workload.setup(mg)
        times.append(time.perf_counter() - start)
    return mg, inputs, times


def traced_pass(workload, mg, inputs) -> Tuple[PassResult, Tracer]:
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("pass"):
            result = workload.run_pass(mg, inputs, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def pass_layer_metrics(mg, result: PassResult, tracer: Tracer, rungs) -> Dict[str, float]:
    totals = tracer.totals()

    def get(name: str, index: int) -> float:
        return totals[name][index] if name in totals else 0

    out: Dict[str, float] = {}
    for name in TIMED_CALLS:
        if name == "lang.parse_mechanic":
            continue  # parsing happens in set-up, see traced_series
        out[f"{name}.calls"] = get(name, 0)
        out[f"{name}.self_s"] = get(name, 1)
    out["game.tap.incl_s"] = get("game.tap", 2)
    out["synthesis.generation_errors"] = sum(
        v[0] for k, v in totals.items() if k.startswith("synthesis.generate_block.errors."))
    generated = get("synthesis.generate_block", 0)
    texts = {mg.lang.pretty(block) for block in tracer.blocks}
    out["synthesis.distinct_ratio"] = len(texts) / generated if generated else 0.0
    out["lang.typecheck_rejects"] = get("lang.typecheck.errors.TypeCheckError", 0)
    out["runtime.host_calls"] = get("runtime.host_calls", 0)
    out["runtime.exec_errors"] = sum(
        v[0] for k, v in totals.items() if k.startswith("runtime.invoke.errors."))
    for kind in EXEC_ERROR_KINDS:
        out[f"runtime.exec_errors.{kind}"] = get(f"runtime.invoke.errors.{kind}", 0)
    out["evaluate.states_explored"] = result.states
    solve_incl = get("evaluate.solve", 2)
    out["evaluate.states_per_s"] = result.states / solve_incl if solve_incl else 0.0
    out["evaluate.solved_ratio"] = result.solved / result.ops
    rung_solve = {s["label"]: s["end"] - s["start"] for s in tracer.spans
                  if s["name"] == "evaluate.solve" and s["label"]}
    for rung in rungs:
        out[f"evaluate.solve_s.{rung}"] = rung_solve.get(rung, 0.0)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v[1] for k, v in totals.items() if k.startswith(layer + ".") and ".errors." not in k)
    out["trace.wall_s"] = result.wall
    return out


def traced_series(per_layer, untraced: List[PassResult],
                  traced: List[Tuple[PassResult, Dict[str, float]]],
                  setup_tracer: Tracer) -> Dict[str, List[float]]:
    """Per-layer values of every traced pass; parsing comes from the traced
    set-up, and the overhead ratio from the untraced passes' median wall."""
    series = {name: [metrics[name] for _, metrics in traced] for name, _ in per_layer
              if name in traced[0][1]}
    parse = setup_tracer.totals().get("lang.parse_mechanic", [0, 0.0, 0.0])
    series["lang.parse_mechanic.calls"] = [parse[0]]
    series["lang.parse_mechanic.self_s"] = [parse[1]]
    plain_wall = statistics.median(p.wall for p in untraced)
    series["trace.overhead_ratio"] = [result.wall / plain_wall for result, _ in traced]
    return series


def run_passes(step, seconds: float, min_steps: int) -> None:
    """Call ``step`` (one or two passes; returns their wall seconds) until the
    next call would overrun ``seconds``, and at least ``min_steps`` times."""
    started = time.perf_counter()
    count = 0
    while True:
        gc.collect()
        step_wall = step()
        count += 1
        elapsed = time.perf_counter() - started
        if count >= min_steps and elapsed + step_wall > seconds:
            return


def run_workload(args) -> dict:
    check_program()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    workload = make_workload(args.workload, args.seed)
    rungs = [r.name for r in load_ladder()]
    per_layer = per_layer_metrics(rungs)
    mg, inputs, setup_times = timed_setups(workload)
    untraced: List[PassResult] = []
    traced: List[Tuple[PassResult, Dict[str, float]]] = []
    first_tracer: Optional[Tracer] = None
    setup_tracer: Optional[Tracer] = None

    if args.trace:
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            with setup_tracer.span("setup"):
                inputs = workload.setup(mg)
        finally:
            setup_tracer.uninstall()

        def step() -> float:
            nonlocal first_tracer
            plain = workload.run_pass(mg, inputs, None)
            untraced.append(plain)
            gc.collect()
            result, tracer = traced_pass(workload, mg, inputs)
            traced.append((result, pass_layer_metrics(mg, result, tracer, rungs)))
            if first_tracer is None:
                first_tracer = tracer
            return plain.wall + result.wall
    else:
        def step() -> float:
            untraced.append(workload.run_pass(mg, inputs, None))
            return untraced[-1].wall

    # A traced step is an untraced and a traced pass, so one step suffices.
    run_passes(step, args.seconds, 1 if args.trace else MIN_PASSES)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle_attempted, oracle_failed = workload.oracle_check(mg, inputs)

    passes = untraced + [result for result, _ in traced]
    attempted = sum(p.ops for p in passes) + oracle_attempted
    failed = sum(p.failed for p in passes) + oracle_failed

    series: Dict[str, List[float]] = {
        "setup_s": setup_times,
        "wall_s": [p.wall for p in untraced],
        "candidates_per_s": [p.ops / p.busy_s for p in untraced if p.busy_s > 0],
        "solve_s.geomean": [geomean(p.op_times) for p in untraced],
        "peak_rss_mb": [peak_rss_mb],
    }
    units = dict(END_TO_END)
    if args.trace:
        units = dict(per_layer)
        series = traced_series(per_layer, untraced, traced, setup_tracer)
        for name, unit in per_layer:
            if unit == "count" and len(set(series[name])) > 1:
                print(f"count {name} differs between traced passes: {series[name]}", file=sys.stderr)
                failed += 1
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        first_tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "pass": 0})
        print(f"spans of the first traced pass: {spans_path}")

    stats = {name: summarize(series[name]) for name in units}
    return {
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "repeats": len(untraced) + len(traced),
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "setup_repeats": SETUP_REPEATS,
        },
        "attempted": attempted,
        "failed": failed,
        "failed_ops_ratio": failed / attempted,
        "metrics": {name: {**stats[name], "unit": units[name]} for name in units},
    }


def print_result(record: dict) -> None:
    env = record["environment"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in record["metrics"].items():
        fmt = ".0f" if m["unit"] == "count" else ".6g"
        print(f"{env['workload']:>12} {name:<44} {m['median']:>14{fmt}} {m['unit']:<6}"
              f" q1={m['q1']:{fmt}} q3={m['q3']:{fmt}} n={m['n']}")
    print(f"{env['workload']:>12} {'failed_ops_ratio':<44} {record['failed_ops_ratio']:>14.6g} ratio"
          f"  (failed={record['failed']} ops_attempted={record['attempted']})")


def final_line(record: dict) -> str:
    metrics = {name: {"value": m["median"], "unit": m["unit"]} for name, m in record["metrics"].items()}
    return json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def run_all(args) -> int:
    """Each workload in its own process, one after another; the last line
    joins their results, with the workload as a prefix of each metric."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description="mechgen benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        record = run_workload(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_result(record)
    print(final_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
