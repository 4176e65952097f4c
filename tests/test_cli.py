import pytest

from conftest import FIXTURES
from mechgen.cli import main
from mechgen.lang import MAX_PARSE_DEPTH, parse_mechanic, typecheck
from mechgen.game import build_game_registry

UNSOLVABLE = str(FIXTURES / "unsolvable.ch")
CLEARABLE = str(FIXTURES / "clearable.ch")
SET_YELLOW = str(FIXTURES / "set_yellow.mg")
DESTROY = str(FIXTURES / "destroy.mg")
DEFAULT_CFG = str(FIXTURES / "default.cfg")
SEARCH_CFG = str(FIXTURES / "search.cfg")

REGISTRY_DUMP = """\
ENUM Colour {R,G,B,Y}
FIELD Height : int [usable]
FIELD Width : int [usable]
METHOD Add(a:int,b:int) : int [usable]
METHOD CountColour(c:Colour) : int [usable]
METHOD DestroyTile(x:int,y:int) : void [usable] {x>=0,x<=2,y>=0,y<=2}
METHOD DoNothing() : void [usable]
METHOD Equal(a:int,b:int) : bool [usable]
METHOD IsOccupied(x:int,y:int) : bool [usable] {x>=0,x<=2,y>=0,y<=2}
METHOD Less(a:int,b:int) : bool [usable]
METHOD SetTile(x:int,y:int,c:Colour) : void [usable] {x>=0,x<=2,y>=0,y<=2}
METHOD Sub(a:int,b:int) : int [usable]
METHOD SwapTiles(x1:int,y1:int,x2:int,y2:int) : void [usable] {x1>=0,x1<=2,y1>=0,y1<=2,x2>=0,x2<=2,y2>=0,y2<=2}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# golden outputs


def test_solve_unsolvable_fixture(capsys):
    code, out, _ = run(capsys, "solve", "--challenge", UNSOLVABLE)
    assert (code, out) == (0, "UNSOLVABLE\n")


def test_solve_clearable_fixture(capsys):
    code, out, _ = run(capsys, "solve", "--challenge", CLEARABLE)
    assert (code, out) == (0, "SOLVED min_taps=2 witness=(0,0),(0,0)\n")


def test_evaluate_set_yellow(capsys):
    code, out, _ = run(capsys, "evaluate", "--mechanic", SET_YELLOW, "--challenge", UNSOLVABLE)
    assert (code, out) == (0, "SOLVED min_taps=1 witness=(0,0)\n")


def test_evaluate_destroy_matches_baseline(capsys):
    code, out, _ = run(capsys, "evaluate", "--mechanic", DESTROY, "--challenge", CLEARABLE)
    assert (code, out) == (0, "SOLVED min_taps=2 witness=(0,0),(0,0)\n")


def test_registry_dump(capsys):
    code, out, _ = run(capsys, "registry")
    assert (code, out) == (0, REGISTRY_DUMP)
    code, out, _ = run(capsys, "registry", "--dump")
    assert (code, out) == (0, REGISTRY_DUMP)


def test_outputs_are_byte_stable(capsys):
    first = run(capsys, "solve", "--challenge", UNSOLVABLE)
    second = run(capsys, "solve", "--challenge", UNSOLVABLE)
    assert first == second


# --------------------------------------------------------------------------
# generate


def test_generate_is_deterministic_and_round_trips(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    for out_dir in (out_a, out_b):
        code, _, err = run(
            capsys, "generate", "--config", DEFAULT_CFG, "--signature", "onTileTapped",
            "--count", "3", "--out", str(out_dir),
        )
        assert code == 0, err
    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["mech_0.mg", "mech_1.mg", "mech_2.mg"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # emitted files parse and typecheck unchanged
    registry = build_game_registry()
    for name in names:
        sig, block = parse_mechanic((out_a / name).read_text())
        typecheck(block, sig, registry)
    # and feed straight back into evaluate
    code, out, _ = run(
        capsys, "evaluate", "--mechanic", str(out_a / "mech_0.mg"), "--challenge", UNSOLVABLE
    )
    assert code == 0
    assert out.startswith(("SOLVED", "UNSOLVABLE"))


def test_generate_writes_each_block_and_reports_each_failure(tmp_path, capsys):
    from mechgen.game import build_hook_table
    from mechgen.lang import format_mechanic
    from mechgen.synthesis import GenerationError, config_with_seed, generate_block, load_config

    # Two lines with one retry each: some seeds exhaust, the rest generate.
    text = ("statement_kinds = IfElse,Assign\nmax_lines = 2\n"
            "literal_weight = 0\nmax_retries_per_line = 1\n")
    cfg = tmp_path / "mixed.cfg"
    cfg.write_text(text)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, out, err = run(
        capsys, "generate", "--config", str(cfg), "--signature", "onTileTapped",
        "--count", "30", "--out", str(out_dir),
    )
    config, sig = load_config(text), build_hook_table().sig("onTileTapped")
    registry = build_game_registry()
    files, failures = {}, []
    for seed in range(30):
        try:
            block = generate_block(sig, registry, config_with_seed(config, seed))
        except GenerationError as exc:
            failures.append(f"seed {seed}: {exc}\n")
        else:
            files[f"mech_{seed}.mg"] = format_mechanic(sig, block)
    assert files and failures
    assert (code, out, err) == (0, "", "".join(failures))
    assert {p.name: p.read_text() for p in out_dir.iterdir()} == files


def test_generate_rejects_unknown_signature(tmp_path, capsys):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run(
        capsys, "generate", "--config", DEFAULT_CFG, "--signature", "onButtonPress",
        "--count", "1", "--out", str(out_dir),
    )
    assert code == 1
    assert "unknown signature" in err


def test_generate_requires_existing_out_dir(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--config", DEFAULT_CFG, "--signature", "onTileTapped",
        "--count", "1", "--out", str(tmp_path / "missing"),
    )
    assert code == 1
    assert "not found" in err


def test_generate_rejects_zero_count(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--config", DEFAULT_CFG, "--signature", "onTileTapped",
        "--count", "0", "--out", str(tmp_path),
    )
    assert code == 1


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0663"])
def test_generate_rejects_a_non_decimal_count(tmp_path, capsys, text):
    # argparse's int() used to accept these: '1_0' wrote ten files.
    code, out, err = run(
        capsys, "generate", "--config", DEFAULT_CFG, "--signature", "onTileTapped",
        "--count", text, "--out", str(tmp_path),
    )
    assert (code, out) == (1, "")
    assert "--count must be a decimal integer" in err
    assert list(tmp_path.iterdir()) == []


def test_generate_rejects_an_int_literal_range_outside_64_bits(tmp_path, capsys):
    # Such a range used to write 'int v0 = 100000000000000000007;', which
    # evaluate then rejected.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(
        (FIXTURES / "default.cfg").read_text()
        .replace("int_literal_min = -100", "int_literal_min = 100000000000000000000")
        .replace("int_literal_max = 100", "int_literal_max = 100000000000000000009")
    )
    code, _, err = run(
        capsys, "generate", "--config", str(cfg), "--signature", "onTileTapped",
        "--count", "1", "--out", str(tmp_path),
    )
    assert code == 1
    assert "int_literal_range must lie within" in err
    assert not list(tmp_path.glob("*.mg"))


def _config_with_seed(tmp_path, seed):
    cfg = tmp_path / "late.cfg"
    cfg.write_text((FIXTURES / "search.cfg").read_text().replace("seed = 0", f"seed = {seed}"))
    return str(cfg)


def test_generate_writes_up_to_the_last_64_bit_seed(tmp_path, capsys):
    cfg = _config_with_seed(tmp_path, 2**64 - 6)
    code, _, err = run(
        capsys, "generate", "--config", cfg, "--signature", "onTileTapped",
        "--count", "6", "--out", str(tmp_path),
    )
    assert code == 0, err
    assert len(list(tmp_path.glob("*.mg"))) == 6


def test_generate_rejects_seeds_past_64_bits_before_writing(tmp_path, capsys):
    cfg = _config_with_seed(tmp_path, 18446744073709551610)
    code, _, err = run(
        capsys, "generate", "--config", cfg, "--signature", "onTileTapped",
        "--count", "10", "--out", str(tmp_path),
    )
    assert code == 1
    assert "last seed 18446744073709551619" in err
    assert not list(tmp_path.glob("*.mg"))


# --------------------------------------------------------------------------
# search


def test_search_writes_deterministic_report(tmp_path, capsys):
    report_a = tmp_path / "a.txt"
    report_b = tmp_path / "b.txt"
    for path in (report_a, report_b):
        code, out, err = run(
            capsys, "search", "--config", SEARCH_CFG, "--challenge", UNSOLVABLE,
            "--report", str(path),
        )
        assert code == 0, err
        assert out == ""
    assert report_a.read_bytes() == report_b.read_bytes()
    lines = report_a.read_text().split("\n")
    assert lines[0] == f"challenge: {UNSOLVABLE}"
    assert lines[1] == "budget: 1000"
    assert lines[2].startswith("solved: ")
    assert lines[3].startswith("distinct: ")


def test_search_requires_existing_report_directory(tmp_path, capsys):
    code, _, err = run(
        capsys, "search", "--config", SEARCH_CFG, "--challenge", UNSOLVABLE,
        "--report", str(tmp_path / "missing" / "r.txt"),
    )
    assert code == 1


def test_search_rejects_a_directory_report_before_searching(tmp_path, capsys, monkeypatch):
    import mechgen.cli

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(mechgen.cli, "search_mechanics", no_search)
    code, _, err = run(
        capsys, "search", "--config", SEARCH_CFG, "--challenge", UNSOLVABLE,
        "--report", str(tmp_path),
    )
    assert code == 1
    assert err == f"error: report path is a directory: {tmp_path}\n"


def test_search_rejects_seeds_past_64_bits_before_searching(tmp_path, capsys, monkeypatch):
    import mechgen.evaluate

    def no_work(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(mechgen.evaluate, "block_generator", no_work)
    report = tmp_path / "r.txt"
    code, _, err = run(
        capsys, "search", "--config", _config_with_seed(tmp_path, 18446744073709551610),
        "--challenge", UNSOLVABLE, "--report", str(report),
    )
    assert code == 1
    assert "last seed 18446744073709552609" in err
    assert not report.exists()


# --------------------------------------------------------------------------
# exit codes


def test_missing_challenge_file(capsys):
    code, _, err = run(capsys, "solve", "--challenge", "no_such.ch")
    assert code == 1
    assert "not found" in err


def test_rejected_mechanic_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.mg"
    bad.write_text("signature: onTileTapped(x:int, y:int) -> void\nGhost(x);\n")
    code, out, _ = run(capsys, "evaluate", "--mechanic", str(bad), "--challenge", UNSOLVABLE)
    assert code == 1
    assert out.startswith("REJECTED")


def test_mechanic_with_wrong_signature_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.mg"
    bad.write_text("signature: onTileTapped(x:int) -> void\nDoNothing();\n")
    code, _, err = run(capsys, "evaluate", "--mechanic", str(bad), "--challenge", UNSOLVABLE)
    assert code == 1


@pytest.mark.parametrize(
    "text,message",
    [
        ("signature: onTileTapped(x:int, x:int) -> void\nDestroyTile(x, x);\n",
         "line 1, col 1: signature repeats parameter name 'x'"),
        ("signature: onTileTapped(x:int, y:int) -> void\nSetTile(x, int y, Colour.Y);\n",
         "line 2, col 12: expected an expression, found 'int'"),
    ],
    ids=["repeated-parameter", "int-keyword-as-argument"],
)
def test_malformed_mechanic_exits_1(tmp_path, capsys, text, message):
    bad = tmp_path / "bad.mg"
    bad.write_text(text)
    code, _, err = run(capsys, "evaluate", "--mechanic", str(bad), "--challenge", UNSOLVABLE)
    assert (code, err) == (1, f"error: {message}\n")


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "solve")[0] == 1  # missing required flag
    assert run(capsys, "fly")[0] == 1  # unknown subcommand
    assert run(capsys)[0] == 1  # no subcommand
    assert run(capsys, "solve", "--challenge", UNSOLVABLE, "--fast")[0] == 1


def _not_utf8(tmp_path, name):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe not text \x80\n")
    return str(path)


def test_non_utf8_challenge_exits_1(tmp_path, capsys):
    bad = _not_utf8(tmp_path, "bad.ch")
    code, _, err = run(capsys, "solve", "--challenge", bad)
    assert (code, err) == (1, f"error: challenge file is not UTF-8 text: {bad}\n")


def test_non_utf8_config_exits_1(tmp_path, capsys):
    bad = _not_utf8(tmp_path, "bad.cfg")
    code, _, err = run(
        capsys, "search", "--config", bad, "--challenge", UNSOLVABLE,
        "--report", str(tmp_path / "r.txt"),
    )
    assert (code, err) == (1, f"error: config file is not UTF-8 text: {bad}\n")


def test_non_utf8_mechanic_exits_1(tmp_path, capsys):
    bad = _not_utf8(tmp_path, "bad.mg")
    code, _, err = run(capsys, "evaluate", "--mechanic", bad, "--challenge", UNSOLVABLE)
    assert (code, err) == (1, f"error: mechanic file is not UTF-8 text: {bad}\n")


def _tap_mechanic(tmp_path, body):
    path = tmp_path / "deep.mg"
    path.write_text("signature: onTileTapped(x:int, y:int) -> void\n" + body)
    return str(path)


def deep_calls(levels):
    """DestroyTile(x, y) with x wrapped in Add(_, 0) until calls nest ``levels`` deep."""
    return "DestroyTile(" + "Add(" * (levels - 1) + "x" + ", 0)" * (levels - 1) + ", y);\n"


def deep_ifs(levels):
    """DestroyTile(x, y) inside if blocks; its arguments open level ``levels``."""
    return "if (true) {\n" * (levels - 1) + "DestroyTile(x, y);\n" + "}\n" * (levels - 1)


@pytest.mark.parametrize(
    "body", [deep_calls(MAX_PARSE_DEPTH), deep_ifs(MAX_PARSE_DEPTH)], ids=["calls", "ifs"]
)
def test_mechanic_nested_at_the_limit_evaluates(tmp_path, capsys, body):
    mechanic = _tap_mechanic(tmp_path, body)
    code, out, _ = run(capsys, "evaluate", "--mechanic", mechanic, "--challenge", CLEARABLE)
    assert (code, out) == (0, "SOLVED min_taps=2 witness=(0,0),(0,0)\n")


@pytest.mark.parametrize(
    "body", [deep_calls(3001), deep_ifs(1001)], ids=["3000-adds", "1000-ifs"]
)
def test_mechanic_nested_past_the_limit_exits_1(tmp_path, capsys, body):
    mechanic = _tap_mechanic(tmp_path, body)
    code, _, err = run(capsys, "evaluate", "--mechanic", mechanic, "--challenge", CLEARABLE)
    assert code == 1
    assert f"nest deeper than {MAX_PARSE_DEPTH} levels" in err


def test_malformed_challenge_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.ch"
    bad.write_text("RG\n..\ngoal: CLEARED\nmax_taps: 2\n")  # floating tiles
    code, _, err = run(capsys, "solve", "--challenge", str(bad))
    assert code == 1
    assert "floating" in err


def test_bad_config_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("budget = 7\n")
    code, _, err = run(
        capsys, "search", "--config", str(cfg), "--challenge", UNSOLVABLE,
        "--report", str(tmp_path / "r.txt"),
    )
    assert code == 1
    assert "unknown key" in err


@pytest.mark.parametrize("text", ["1_0", "+3", "\u0663"])
def test_non_decimal_max_taps_exits_1(tmp_path, capsys, text):
    challenge = tmp_path / "bad.ch"
    challenge.write_text(f"RG\ngoal: CLEARED\nmax_taps: {text}\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", "--challenge", str(challenge))
    assert (code, out) == (1, "")
    assert "max_taps must be an integer" in err


def test_non_decimal_config_seed_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((FIXTURES / "default.cfg").read_text().replace("seed = 0", "seed = 1_0"))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run(
        capsys, "generate", "--config", str(cfg), "--signature", "onTileTapped",
        "--count", "1", "--out", str(out_dir),
    )
    assert code == 1
    assert "bad value for 'seed'" in err
    assert list(out_dir.iterdir()) == []


def test_generate_rejects_an_oversized_max_lines(tmp_path, capsys):
    # default.cfg with max_lines = 100 used to spend ~27 s on one seed-0 block.
    cfg = tmp_path / "big.cfg"
    cfg.write_text((FIXTURES / "default.cfg").read_text().replace("max_lines = 3", "max_lines = 100"))
    code, _, err = run(
        capsys, "generate", "--config", str(cfg), "--signature", "onTileTapped",
        "--count", "1", "--out", str(tmp_path),
    )
    assert code == 1
    assert "max_lines must be <=" in err
    assert not list(tmp_path.glob("*.mg"))


def test_internal_error_exits_2(capsys, monkeypatch):
    import mechgen.cli as cli

    def boom(*args, **kwargs):
        raise RuntimeError("wires crossed")

    monkeypatch.setattr(cli, "solve", boom)
    code, _, err = run(capsys, "solve", "--challenge", UNSOLVABLE)
    assert code == 2
    assert "internal error" in err
