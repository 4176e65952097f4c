"""Command-line front end for batch generation, solving, and search.

Exit codes: 0 on success, 1 on any rejected input (bad flags, missing files,
malformed or ill-typed inputs), 2 on internal error. All output is
deterministic given the same inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .evaluate import (
    ChallengeError,
    Rejected,
    Solved,
    Unsolvable,
    evaluate_candidate,
    parse_challenge,
    search_mechanics,
    solve,
    write_report,
)
from .game import ON_TILE_TAPPED, build_game_registry, build_hook_table
from .lang import ParseError, decimal_int, format_mechanic, parse_mechanic
from .runtime import HookError
from .synthesis import (
    ConfigError, GenerationError, block_generator, load_config, run_seeds,
)

# `search` takes no budget flag; batch size is fixed here.
DEFAULT_SEARCH_BUDGET = 1000


class UsageError(Exception):
    pass


class InputRejected(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="mechgen", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write generated mechanic files")
    p.add_argument("--config", required=True)
    p.add_argument("--signature", required=True)
    p.add_argument("--count", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("solve", help="solve a challenge with the baseline mechanic")
    p.add_argument("--challenge", required=True)

    p = sub.add_parser("evaluate", help="evaluate a mechanic file against a challenge")
    p.add_argument("--mechanic", required=True)
    p.add_argument("--challenge", required=True)

    p = sub.add_parser("search", help="generate-and-test candidate mechanics")
    p.add_argument("--config", required=True)
    p.add_argument("--challenge", required=True)
    p.add_argument("--report", required=True)

    p = sub.add_parser("registry", help="print the built-in design space")
    p.add_argument("--dump", action="store_true", help="print the listing (default action)")

    return parser


def _read_input(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise InputRejected(f"{what} file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InputRejected(f"{what} file is not UTF-8 text: {path}") from None


def _format_status(result) -> str:
    if isinstance(result.status, Solved):
        witness = ",".join(f"({x},{y})" for x, y in result.status.witness)
        return f"SOLVED min_taps={result.status.min_taps} witness={witness}"
    if isinstance(result.status, Unsolvable):
        return "UNSOLVABLE"
    assert isinstance(result.status, Rejected)
    return f"REJECTED {result.status.reason}"


def _cmd_generate(args: argparse.Namespace) -> int:
    config = load_config(_read_input(args.config, "config"))
    out_dir = Path(args.out)
    if not out_dir.is_dir():
        raise InputRejected(f"output directory not found: {args.out}")
    try:
        count = decimal_int(args.count)
    except ValueError:
        raise InputRejected(f"--count must be a decimal integer, got {args.count!r}") from None
    if count < 1:
        raise InputRejected("--count must be >= 1")
    hooks = build_hook_table()
    if args.signature not in hooks.names():
        raise InputRejected(f"unknown signature '{args.signature}'")
    sig = hooks.sig(args.signature)
    seeds = run_seeds(config, count)
    generate = block_generator(sig, build_game_registry(), config)
    written = 0
    for seed in seeds:
        try:
            block = generate(seed)
        except GenerationError as err:
            print(f"seed {seed}: {err}", file=sys.stderr)
            continue
        (out_dir / f"mech_{seed}.mg").write_text(format_mechanic(sig, block), encoding="utf-8")
        written += 1
    return 0 if written else 1


def _cmd_solve(args: argparse.Namespace) -> int:
    challenge = parse_challenge(_read_input(args.challenge, "challenge"))
    result = solve(challenge, build_hook_table())
    print(_format_status(result))
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    mechanic = _read_input(args.mechanic, "mechanic")
    challenge = parse_challenge(_read_input(args.challenge, "challenge"))
    sig, block = parse_mechanic(mechanic)
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    result = evaluate_candidate(block, sig, registry, challenge)
    print(_format_status(result))
    return 1 if isinstance(result.status, Rejected) else 0


def _cmd_search(args: argparse.Namespace) -> int:
    config = load_config(_read_input(args.config, "config"))
    challenge = parse_challenge(_read_input(args.challenge, "challenge"))
    report_path = Path(args.report)
    if not report_path.parent.exists():
        raise InputRejected(f"report directory not found: {report_path.parent}")
    if report_path.is_dir():
        raise InputRejected(f"report path is a directory: {args.report}")
    registry = build_game_registry(challenge.initial.width, challenge.initial.height)
    sig = build_hook_table().sig(ON_TILE_TAPPED)
    report = search_mechanics(sig, registry, challenge, config, DEFAULT_SEARCH_BUDGET)
    write_report(report, report_path, args.challenge)
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    for line in build_game_registry().dump_lines():
        print(line)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "evaluate": _cmd_evaluate,
    "search": _cmd_search,
    "registry": _cmd_registry,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (InputRejected, ChallengeError, ParseError, ConfigError, HookError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # anything else is a bug, not bad input
        print(f"internal error: {err!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
