"""Acceptance suite: each criterion prints one PASS/FAIL line and asserts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
go by; a plain ``pytest`` run still enforces every criterion.
"""

import itertools
import random
import time

import pytest

from _scan import (
    constraint_violating_literals,
    has_parameterised_call_in_arg_position,
    max_call_arity_depth,
)
from conftest import FIXTURES
from mechgen.cli import main
from mechgen.evaluate import Solved, Unsolvable, parse_challenge, search_mechanics, solve
from mechgen.game import Board, GameState, build_game_registry, build_hook_table, tap
from mechgen.lang import (
    IntLit,
    Signature,
    parse,
    parse_mechanic,
    pretty,
    typecheck,
)
from mechgen.registry import (
    INT,
    VOID,
    FieldDescriptor,
    LiteralOption,
    MethodDescriptor,
    Registry,
)
from mechgen.runtime import (
    UNIT,
    ConstraintViolation,
    GeneratedDelegate,
    HostDelegate,
    IntV,
    compile_block,
    invoke,
)
from mechgen.synthesis import (
    GenerationConfig,
    Scope,
    StatementKind,
    config_with_seed,
    generate_block,
    generate_expression,
)
from test_evaluate import naive_solve

N_BLOCKS = 10_000


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {status} {name}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


@pytest.fixture(scope="module")
def default_blocks(game_registry, tap_sig):
    """The shared 10,000-block corpus: default config, seeds 0..9999."""
    started = time.perf_counter()
    blocks = [
        generate_block(tap_sig, game_registry, GenerationConfig(seed=seed))
        for seed in range(N_BLOCKS)
    ]
    return blocks, time.perf_counter() - started


def test_criterion_1_well_typedness(default_blocks, game_registry, tap_sig):
    blocks, gen_elapsed = default_blocks
    started = time.perf_counter()
    failures = 0
    for block in blocks:
        try:
            typecheck(block, tap_sig, game_registry)
        except Exception:
            failures += 1
    elapsed = gen_elapsed + (time.perf_counter() - started)
    report(
        1,
        "well-typedness of 10,000 generated blocks",
        failures == 0 and elapsed < 60.0,
        f"failures={failures}, runtime={elapsed:.1f}s",
    )


def test_criterion_2_determinism(game_registry, tap_sig):
    seeds = range(0, N_BLOCKS, 100)  # 100 sampled seeds
    mismatches = 0
    for seed in seeds:
        config = GenerationConfig(seed=seed)
        first = pretty(generate_block(tap_sig, game_registry, config))
        second = pretty(generate_block(tap_sig, game_registry, config))
        if first.encode() != second.encode():
            mismatches += 1
    report(2, "byte-identical regeneration on 100 seeds", mismatches == 0,
           f"mismatches={mismatches}")


def test_criterion_3_literal_weighting():
    reg = Registry()
    for name in ("a", "b", "c", "d"):  # exactly 4 non-literal int producers
        reg.register_field(FieldDescriptor(name, INT))
    reg.seal()
    assert sum(1 for c in reg.candidates_for(INT) if not isinstance(c, LiteralOption)) == 4
    config = GenerationConfig(literal_weight=1.0)
    rng = random.Random(2024)
    draws = 10_000
    hits = sum(
        isinstance(generate_expression(INT, Scope(), reg, config, rng), IntLit)
        for _ in range(draws)
    )
    rate = hits / draws
    report(3, "literal picked at rate 1/5 against 4 producers",
           abs(rate - 0.2) <= 0.02, f"rate={rate:.4f}")


def test_criterion_4_constraint_compliance(default_blocks, game_registry):
    blocks, _ = default_blocks
    violations = []
    for block in blocks:
        violations.extend(constraint_violating_literals(block, game_registry))
    # runtime semantics of annotated bounds: newx=5 against max 1 must fail
    reg = Registry()
    reg.register_method(
        MethodDescriptor(
            "Move", (("newx", INT),), VOID,
            bounds={"newx": (-1, 1)},
            host_impl=lambda world, args: UNIT,
        )
    )
    reg.seal()
    delegate = compile_block(Signature("f", (), VOID), parse("Move(5);"), reg)
    try:
        invoke(delegate, [], world=None)
        runtime_check = False
    except ConstraintViolation as err:
        runtime_check = (err.method, err.param, err.value, err.bound) == ("Move", "newx", 5, 1)
    report(4, "constrained literals in range and runtime check fires",
           not violations and runtime_check,
           f"literal violations={len(violations)}, runtime_check={runtime_check}")


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_criterion_5_grounding(depth, game_registry, tap_sig):
    config = GenerationConfig(max_recursion_depth=depth)
    too_deep = 0
    in_arg_positions = 0
    for seed in range(N_BLOCKS):
        block = generate_block(tap_sig, game_registry, config_with_seed(config, seed))
        if max_call_arity_depth(block) > depth:
            too_deep += 1
        if depth == 0 and has_parameterised_call_in_arg_position(block):
            in_arg_positions += 1
    report(5, f"grounding at max_recursion_depth={depth}",
           too_deep == 0 and in_arg_positions == 0,
           f"too_deep={too_deep}, arg_position_calls={in_arg_positions}")


def test_criterion_6_parser_round_trip(default_blocks, tap_sig):
    blocks, _ = default_blocks
    params = [n for n, _ in tap_sig.params]
    failures = sum(1 for b in blocks if parse(pretty(b), params=params) != b)
    fixture_failures = 0
    for name in ("set_yellow.mg", "destroy.mg"):
        sig, block = parse_mechanic((FIXTURES / name).read_text())
        if parse(pretty(block), params=[n for n, _ in sig.params]) != block:
            fixture_failures += 1
    report(6, "parse(pretty(b)) == b on 10,000 blocks and fixtures",
           failures == 0 and fixture_failures == 0,
           f"failures={failures + fixture_failures}")


def test_criterion_7_delegate_semantics(game_registry, tap_sig):
    add_one = HostDelegate(
        Signature("AddOne", (("x", INT),), INT),
        lambda world, args: IntV(args[0].value + 1),
    )
    add_one_ok = invoke(add_one, [IntV(1)], world=None) == IntV(2)

    script = [(0, 0), (1, 1), (2, 0), (0, 2), (1, 0), (2, 2), (0, 0), (1, 2), (2, 1), (0, 1)]

    def run(table):
        world = GameState(Board.from_rows(["RGB", "BRG", "GBR"]))
        keys = []
        for x, y in script:
            tap(world, x, y, table)
            keys.append(world.board.key())
        return keys

    baseline = run(build_hook_table())
    table = build_hook_table()
    block = parse("SetTile(x, y, Colour.Y);", params=["x", "y"])
    table.bind("onTileTapped", GeneratedDelegate(tap_sig, block, game_registry))
    table.reset("onTileTapped")
    restored = run(table)
    report(7, "AddOne returns 2 and bind/reset restores the baseline",
           add_one_ok and restored == baseline)


def test_criterion_8_gameplay_oracle(unsolvable_challenge, game_registry, tap_sig):
    started = time.perf_counter()
    baseline = solve(unsolvable_challenge, build_hook_table())
    elapsed = time.perf_counter() - started
    baseline_ok = baseline.status == Unsolvable() and elapsed < 10.0

    hooks = build_hook_table()
    block = parse("SetTile(x, y, Colour.Y);", params=["x", "y"])
    hooks.bind("onTileTapped", GeneratedDelegate(tap_sig, block, game_registry))
    handcrafted = solve(unsolvable_challenge, hooks)
    handcrafted_ok = isinstance(handcrafted.status, Solved) and handcrafted.status.min_taps == 1

    # solver vs the naive no-dedup enumerator on small boards
    mismatches = 0
    small = [
        "R\ngoal: CLEARED\nmax_taps: 2\n",
        "RG\ngoal: COLOUR_CLEARED G\nmax_taps: 2\n",
        "..\nRG\ngoal: CLEARED\nmax_taps: 3\n",
        "RG\nBR\ngoal: COLOUR_PRESENT Y\nmax_taps: 3\n",
    ]
    for text in small:
        challenge = parse_challenge(text)
        reg = build_game_registry(challenge.initial.width, challenge.initial.height)
        for mechanic in (None, "SetTile(x, y, Colour.Y);", "DestroyTile(x, y);"):
            table = build_hook_table()
            if mechanic is not None:
                table.bind(
                    "onTileTapped",
                    GeneratedDelegate(tap_sig, parse(mechanic, params=["x", "y"]), reg),
                )
            fast = solve(challenge, table)
            slow = naive_solve(challenge, table)
            if slow[0] == "unsolvable":
                if fast.status != Unsolvable():
                    mismatches += 1
            elif not (
                isinstance(fast.status, Solved)
                and fast.status.min_taps == slow[1]
                and fast.status.witness == slow[2]
            ):
                mismatches += 1
    report(8, "solvability oracle (fixture + naive-enumerator agreement)",
           baseline_ok and handcrafted_ok and mismatches == 0,
           f"baseline={elapsed:.2f}s, mismatches={mismatches}")


def test_criterion_9_mechanic_discovery(unsolvable_challenge, tap_sig):
    registry = build_game_registry(usable={"SetTile", "DoNothing"})
    config = GenerationConfig(
        min_lines=1,
        max_lines=1,
        max_recursion_depth=1,
        statement_kinds_enabled={StatementKind.EXPR_STMT},
    )
    budget = 10_000

    # Enumeration oracle: every one-line body with its generation probability.
    def expr_options(wanted, interval):
        # depth-1 argument position: grounded candidates plus the literal option
        cands = registry.candidates_for(wanted, [("x", INT), ("y", INT)], grounded_only=True)
        total = sum(
            config.literal_weight if isinstance(c, LiteralOption) else 1.0 for c in cands
        )
        out = []
        for cand in cands:
            if isinstance(cand, LiteralOption):
                share = config.literal_weight / total
                if wanted == INT:
                    lo, hi = config.int_literal_range
                    cmin, cmax = interval
                    lo, hi = max(lo, cmin), min(hi, cmax)
                    values = range(lo, hi + 1)
                    out.extend((str(v), share / len(values)) for v in values)
                else:
                    variants = registry.enum(wanted.enum_name).variants
                    out.extend((f"{wanted.enum_name}.{v}", share / len(variants)) for v in variants)
            else:
                out.append((cand.name, 1.0 / total))
        return out

    usable_methods = [m for m in registry.methods.values() if m.usable]
    p_success = 0.0
    n_lines = 0
    for method in usable_methods:
        per_arg = [
            expr_options(ptype, method.literal_interval(pname))
            for pname, ptype in method.params
        ]
        for combo in itertools.product(*per_arg):
            args = ", ".join(text for text, _ in combo)
            body = f"{method.name}({args});"
            prob = 1.0 / len(usable_methods)
            for _, p in combo:
                prob *= p
            n_lines += 1
            block = parse(body, params=["x", "y"])
            hooks = build_hook_table()
            hooks.bind("onTileTapped", GeneratedDelegate(tap_sig, block, registry))
            result = solve(unsolvable_challenge, hooks)
            if isinstance(result.status, Solved):
                p_success += prob

    expected = budget * p_success
    started = time.perf_counter()
    found = search_mechanics(tap_sig, registry, unsolvable_challenge, config, budget)
    elapsed = time.perf_counter() - started
    report(
        9,
        "scoped search discovers a solving mechanic",
        expected >= 10 and found.solved_count >= 1 and elapsed < 300.0,
        f"p={p_success:.4f} over {n_lines} bodies, expected={expected:.0f}, "
        f"found={found.solved_count}, runtime={elapsed:.1f}s",
    )


def test_criterion_10_cli_golden(tmp_path, capsys):
    unsolvable = str(FIXTURES / "unsolvable.ch")

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    checks = []
    # stable stdout and exit 0 across repeated runs of each subcommand
    for argv in (
        ("solve", "--challenge", unsolvable),
        ("solve", "--challenge", str(FIXTURES / "clearable.ch")),
        ("evaluate", "--mechanic", str(FIXTURES / "set_yellow.mg"), "--challenge", unsolvable),
        ("registry",),
    ):
        first = run(*argv)
        second = run(*argv)
        checks.append(first == second and first[0] == 0)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    for out_dir in (out_a, out_b):
        code, _ = run(
            "generate", "--config", str(FIXTURES / "default.cfg"),
            "--signature", "onTileTapped", "--count", "5", "--out", str(out_dir),
        )
        checks.append(code == 0)
    checks.append(
        sorted(p.name for p in out_a.iterdir()) == sorted(p.name for p in out_b.iterdir())
        and all((out_a / p.name).read_bytes() == (out_b / p.name).read_bytes()
                for p in out_a.iterdir())
    )

    report_a, report_b = tmp_path / "ra.txt", tmp_path / "rb.txt"
    for path in (report_a, report_b):
        code, _ = run(
            "search", "--config", str(FIXTURES / "search.cfg"),
            "--challenge", unsolvable, "--report", str(path),
        )
        checks.append(code == 0)
    checks.append(report_a.read_bytes() == report_b.read_bytes())

    # documented failure exit code on rejected input
    checks.append(run("solve", "--challenge", "missing.ch")[0] == 1)
    checks.append(run("nonsense")[0] == 1)

    report(10, "CLI byte-stable outputs and exit codes", all(checks),
           f"{sum(checks)}/{len(checks)} checks")
