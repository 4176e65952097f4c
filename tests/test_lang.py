import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FIXTURES, generation_configs
from mechgen.lang import (
    MAX_PARSE_DEPTH,
    Assign,
    BoolLit,
    Call,
    CodeBlock,
    EnumLit,
    ExprStmt,
    FieldRef,
    FieldTarget,
    IfElse,
    IntLit,
    LocalRef,
    LocalTarget,
    ParseError,
    Return,
    Signature,
    TypeCheckError,
    VarDecl,
    format_mechanic,
    parse,
    parse_mechanic,
    parse_signature,
    pretty,
    typecheck,
)
from mechgen.registry import (
    BOOL,
    INT,
    VOID,
    EnumDef,
    FieldDescriptor,
    MethodDescriptor,
    Registry,
    enum_type,
)
from mechgen.synthesis import GenerationConfig, GenerationError, generate_block


@pytest.fixture(scope="module")
def reg():
    return Registry(
        enums=[EnumDef("DIR", ("N", "NE", "E", "SE", "S", "SW", "W", "NW"))],
        fields=[
            FieldDescriptor("x", INT, usable=True, writable=True),
            FieldDescriptor("secret", INT, usable=False),
            FieldDescriptor("score", INT, usable=True, writable=False),
        ],
        methods=[
            MethodDescriptor("Add", (("a", INT), ("b", INT)), INT),
            MethodDescriptor("DoNothing", (), VOID),
            MethodDescriptor("Hidden", (), VOID, usable=False),
        ],
    )


VOID_SIG = Signature("step", (("dx", INT),), VOID)


# --------------------------------------------------------------------------
# typecheck


def test_field_update_through_call_checks(reg):
    block = parse("x = Add(x, dx);", params=["dx"])
    typecheck(block, VOID_SIG, reg)


def test_use_before_declare_rejected(reg):
    block = CodeBlock((Assign(LocalTarget("t"), IntLit(1)),))
    with pytest.raises(TypeCheckError, match="unknown local 't'"):
        typecheck(block, Signature("f", (), VOID), reg)


def test_argument_type_mismatch_reported_with_position(reg):
    block = parse("x = Add(1, true);", params=[])
    with pytest.raises(TypeCheckError) as err:
        typecheck(block, Signature("f", (), VOID), reg)
    assert err.value.expected == INT
    assert err.value.found == BOOL
    assert "arg 1 of Add" in err.value.path


def test_return_required_for_non_void(reg):
    sig = Signature("f", (), INT)
    with pytest.raises(TypeCheckError, match="missing final return"):
        typecheck(parse("DoNothing();"), sig, reg)
    typecheck(parse("return 3;"), sig, reg)


def test_return_type_checked(reg):
    with pytest.raises(TypeCheckError, match="expected int, found bool"):
        typecheck(parse("return true;"), Signature("f", (), INT), reg)


def test_void_body_cannot_return_value(reg):
    with pytest.raises(TypeCheckError, match="cannot return a value"):
        typecheck(parse("return 1;"), Signature("f", (), VOID), reg)
    typecheck(parse("return;"), Signature("f", (), VOID), reg)


def test_return_only_final_and_top_level(reg):
    block = parse("if (true) { return; }")
    with pytest.raises(TypeCheckError, match="final top-level"):
        typecheck(block, Signature("f", (), VOID), reg)
    block = parse("return 1;\nint v0 = 2;", params=[])
    with pytest.raises(TypeCheckError, match="final top-level"):
        typecheck(block, Signature("f", (), INT), reg)


def test_redeclaration_rejected(reg):
    block = parse("int a = 1;\nint a = 2;")
    with pytest.raises(TypeCheckError, match="redeclaration"):
        typecheck(block, Signature("f", (), VOID), reg)


def test_branch_locals_do_not_escape(reg):
    block = parse("if (true) { int a = 1; }\nx = a;")
    with pytest.raises(TypeCheckError, match="unknown field 'a'"):
        typecheck(block, Signature("f", (), VOID), reg)


def test_read_only_field_not_assignable(reg):
    with pytest.raises(TypeCheckError, match="read-only"):
        typecheck(parse("score = 1;"), Signature("f", (), VOID), reg)


def test_non_usable_field_rejected(reg):
    with pytest.raises(TypeCheckError, match="not usable"):
        typecheck(parse("x = secret;"), Signature("f", (), VOID), reg)
    with pytest.raises(TypeCheckError, match="not usable"):
        typecheck(parse("secret = 1;"), Signature("f", (), VOID), reg)


def test_non_usable_method_rejected(reg):
    with pytest.raises(TypeCheckError, match="not usable"):
        typecheck(parse("Hidden();"), Signature("f", (), VOID), reg)


def test_void_call_is_not_a_value(reg):
    with pytest.raises(TypeCheckError, match="used as a value"):
        typecheck(parse("int a = DoNothing();"), Signature("f", (), VOID), reg)


def test_arity_mismatch_rejected(reg):
    with pytest.raises(TypeCheckError, match="takes 2 argument"):
        typecheck(parse("x = Add(1);"), Signature("f", (), VOID), reg)


def test_unknown_enum_variant_rejected(reg):
    block = CodeBlock((VarDecl(enum_type("DIR"), "d", EnumLit("DIR", "UP")),))
    with pytest.raises(TypeCheckError, match="no variant 'UP'"):
        typecheck(block, Signature("f", (), VOID), reg)


def test_if_condition_must_be_bool(reg):
    with pytest.raises(TypeCheckError, match="expected bool, found int"):
        typecheck(parse("if (x) { DoNothing(); }"), Signature("f", (), VOID), reg)


@pytest.mark.parametrize(
    "text,ret,message,stmt_index,path,expected,found",
    [
        (
            "DoNothing();\nreturn true;", INT,
            "stmt 1: return value: expected int, found bool",
            1, "return value", INT, BOOL,
        ),
        (
            "int v0 = 1;\nDIR d = v0;", VOID,
            "stmt 1: initializer of d: expected DIR, found int",
            1, "initializer of d", enum_type("DIR"), INT,
        ),
        (
            "if (true) { bool b = true; b = dx; }", VOID,
            "stmt 0: value assigned to b: expected bool, found int",
            0, "value assigned to b", BOOL, INT,
        ),
        (
            "DoNothing();\nif (DIR.N) { DoNothing(); }", VOID,
            "stmt 1: if condition: expected bool, found DIR",
            1, "if condition", BOOL, enum_type("DIR"),
        ),
        (
            "int v0 = Add(dx, Add(true, 1));", VOID,
            "stmt 0: arg 0 of Add: expected int, found bool",
            0, "arg 0 of Add", INT, BOOL,
        ),
    ],
    ids=["return", "initializer", "assignment", "if-condition", "call-argument"],
)
def test_type_agreement_errors(reg, text, ret, message, stmt_index, path, expected, found):
    with pytest.raises(TypeCheckError) as err:
        typecheck(parse(text, params=["dx"]), Signature("f", (("dx", INT),), ret), reg)
    assert str(err.value) == message
    assert err.value.stmt_index == stmt_index
    assert err.value.path == path
    assert err.value.expected == expected
    assert err.value.found == found


# --------------------------------------------------------------------------
# pretty


def test_pretty_vardecl():
    block = CodeBlock((VarDecl(INT, "a", IntLit(3)),))
    assert pretty(block) == "int a = 3;\n"


def test_pretty_if_without_else():
    block = CodeBlock((IfElse(BoolLit(True), CodeBlock((ExprStmt(Call("DoNothing", ())),))),))
    assert pretty(block) == "if (true) {\n    DoNothing();\n}\n"


def test_pretty_if_else_and_nesting():
    inner = CodeBlock((Assign(LocalTarget("a"), IntLit(-7)),))
    block = CodeBlock(
        (
            VarDecl(INT, "a", IntLit(0)),
            IfElse(BoolLit(False), inner, CodeBlock((ExprStmt(Call("DoNothing", ())),))),
        )
    )
    assert pretty(block) == (
        "int a = 0;\n"
        "if (false) {\n"
        "    a = -7;\n"
        "} else {\n"
        "    DoNothing();\n"
        "}\n"
    )


def test_pretty_enum_literal_uses_dotted_access():
    block = CodeBlock((VarDecl(enum_type("DIR"), "d", EnumLit("DIR", "N")),))
    assert pretty(block) == "DIR d = DIR.N;\n"


# --------------------------------------------------------------------------
# parse


def test_parse_call_statement_classifies_params_as_locals():
    block = parse("SetTile(x, y, Colour.Y);", params=["x", "y"])
    assert block == CodeBlock(
        (ExprStmt(Call("SetTile", (LocalRef("x"), LocalRef("y"), EnumLit("Colour", "Y")))),)
    )


def test_parse_unknown_name_is_a_field_reference():
    block = parse("SetTile(x, y, Colour.Y);")
    call = block.statements[0].call
    assert call.args[0] == FieldRef("x")


def test_parse_assignment_target_classification():
    block = parse("int a = 1;\na = 2;\nb = 3;")
    assert isinstance(block.statements[1].target, LocalTarget)
    assert isinstance(block.statements[2].target, FieldTarget)


def test_missing_semicolon_reported_at_end_of_line_1():
    with pytest.raises(ParseError) as err:
        parse("DoNothing()")
    assert err.value.line == 1
    assert ";" in err.value.expected


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse("DoNothing();\nint = 3;")
    assert err.value.line == 2


def test_unexpected_character():
    with pytest.raises(ParseError, match="unexpected character"):
        parse("int a = 1 + 2;")


def nested_calls(levels):
    """A statement whose calls nest ``levels`` deep."""
    return "Add(" * levels + "1" + ", 1)" * levels + ";\n"


def nested_ifs(levels):
    """``levels`` nested if blocks; the call inside opens one level more."""
    return "if (true) {\n" * levels + "DoNothing();\n" + "}\n" * levels


@pytest.mark.parametrize(
    "text", [nested_calls(MAX_PARSE_DEPTH + 1), nested_ifs(MAX_PARSE_DEPTH)], ids=["calls", "ifs"]
)
def test_nesting_past_the_limit_is_a_parse_error(text):
    with pytest.raises(ParseError, match=f"nest deeper than {MAX_PARSE_DEPTH} levels"):
        parse(text)


@pytest.mark.parametrize(
    "text", [nested_calls(MAX_PARSE_DEPTH), nested_ifs(MAX_PARSE_DEPTH - 1)], ids=["calls", "ifs"]
)
def test_nesting_at_the_limit_parses_and_round_trips(reg, text):
    block = parse(text)
    typecheck(block, Signature("f", (), VOID), reg)
    assert parse(pretty(block)) == block


def test_int_literal_range_enforced():
    parse(f"int a = {2**63 - 1};")
    parse(f"int a = {-(2**63)};")
    with pytest.raises(ParseError, match="64-bit"):
        parse(f"int a = {2**63};")


def test_parse_negative_literal():
    assert parse("int a = -42;").statements[0].init == IntLit(-42)


def test_parse_return_forms():
    assert parse("return;") == CodeBlock((Return(None),))
    assert parse("return 5;") == CodeBlock((Return(IntLit(5)),))


def test_parse_if_else_scoping():
    text = "if (true) {\n    int a = 1;\n    a = 2;\n} else {\n    a = 3;\n}\n"
    block = parse(text)
    else_assign = block.statements[0].else_block.statements[0]
    # 'a' from the then-branch is gone by the time the else-branch parses
    assert isinstance(else_assign.target, FieldTarget)


def test_parse_whitespace_insensitive():
    a = parse("int   a=1;\n\n  a  =  Add( a ,2 ) ;", params=[])
    b = parse("int a = 1;\na = Add(a, 2);")
    assert a == b


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParseError):
        parse("DoNothing(); }")


def test_no_loop_construct_exists():
    # 'while' is just an identifier, so this reads as a call statement
    # missing its semicolon and fails
    with pytest.raises(ParseError):
        parse("while (true) { DoNothing(); }")
    with pytest.raises(ParseError):
        parse("for (x) { }")


@settings(max_examples=300, deadline=None)
@given(config=st.one_of(st.integers(min_value=0, max_value=2**32 - 1).map(
    lambda seed: GenerationConfig(seed=seed)), generation_configs()))
def test_roundtrip_generated_blocks(config, game_registry, tap_sig):
    try:
        block = generate_block(tap_sig, game_registry, config)
    except GenerationError:
        return  # no block to round-trip
    text = pretty(block)
    assert parse(text, params=[n for n, _ in tap_sig.params]) == block


def test_roundtrip_fixture_mechanics():
    for name in ("set_yellow.mg", "destroy.mg"):
        text = (FIXTURES / name).read_text()
        sig, block = parse_mechanic(text)
        assert format_mechanic(sig, block) == text


# --------------------------------------------------------------------------
# signatures and mechanic files


def test_parse_signature():
    sig = parse_signature("onTileTapped(x:int, y:int) -> void")
    assert sig == Signature("onTileTapped", (("x", INT), ("y", INT)), VOID)
    assert sig.format() == "onTileTapped(x:int, y:int) -> void"


def test_parse_signature_no_params_and_enum_types():
    assert parse_signature("tick() -> int").params == ()
    sig = parse_signature("paint(c:Colour) -> bool")
    assert sig.params == (("c", enum_type("Colour")),)
    assert sig.return_type == BOOL


def test_parse_signature_rejects_malformed():
    for bad in ("nope", "f(x) -> void", "f(x:int) ->", "f(x:void) -> int",
                "f(:int) -> void", "f(x:int:int) -> void", "f(x y:int) -> void", "f(x:) -> void"):
        with pytest.raises(ParseError):
            parse_signature(bad)


def test_parse_signature_rejects_a_repeated_parameter_name():
    with pytest.raises(ParseError, match="repeats parameter name 'x'") as err:
        parse_mechanic("\nsignature: onTileTapped(x:int, x:int) -> void\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "text,found",
    [("SetTile(x, int y, Colour.Y);", "int"), ("5 v = 1;", "5")],
)
def test_type_keywords_and_numbers_keep_their_places(text, found):
    # The keyword ``int`` is no integer literal, and a number starts no declaration.
    with pytest.raises(ParseError, match=f"found '{found}'"):
        parse(text, params=["x", "y"])


def test_parse_mechanic_requires_header():
    with pytest.raises(ParseError, match="signature"):
        parse_mechanic("DoNothing();\n")


def test_parse_mechanic_error_lines_count_the_header():
    with pytest.raises(ParseError) as err:
        parse_mechanic("signature: f() -> void\nDoNothing()\n")
    assert err.value.line == 2


def test_signature_rejects_duplicate_params():
    with pytest.raises(ValueError):
        Signature("f", (("a", INT), ("a", INT)), VOID)
