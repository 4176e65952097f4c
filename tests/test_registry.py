import copy
import pickle

import pytest

from mechgen.registry import (
    BOOL,
    INT,
    VOID,
    ConstraintTypeMismatch,
    DuplicateName,
    EmptyEnum,
    EnumDef,
    FieldDescriptor,
    InvertedBounds,
    LiteralOption,
    LocalProducer,
    MethodDescriptor,
    Registry,
    TypeId,
    TypeKind,
    UnknownConstraintParam,
    UnresolvedType,
    VoidField,
    enum_type,
)


def test_enum_with_eight_variants():
    reg = Registry(enums=[EnumDef("DIR", ("N", "NE", "E", "SE", "S", "SW", "W", "NW"))])
    assert reg.enum("DIR").variants == ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
    # the enum admits literals: the single option stands in for 8 values
    cands = reg.candidates_for(enum_type("DIR"))
    assert cands == [LiteralOption(enum_type("DIR"))]


def test_duplicate_enum_rejected():
    colour = EnumDef("Colour", ("R", "G", "B", "Y"))
    with pytest.raises(DuplicateName):
        Registry(enums=[colour, colour])


def test_empty_enum_rejected():
    with pytest.raises(EmptyEnum):
        EnumDef("Nothing", ())


def test_duplicate_variant_rejected():
    with pytest.raises(DuplicateName):
        EnumDef("E", ("A", "A"))


def test_void_field_rejected():
    with pytest.raises(VoidField):
        FieldDescriptor("v", VOID)


def test_unresolved_field_type_rejected_at_registration():
    with pytest.raises(UnresolvedType):
        Registry(fields=[FieldDescriptor("ghost", enum_type("Ghost"))])


def test_duplicate_field_rejected():
    with pytest.raises(DuplicateName):
        Registry(fields=[FieldDescriptor("x", INT), FieldDescriptor("x", BOOL)])


def test_usable_field_appears_in_producers():
    reg = Registry(fields=[
        FieldDescriptor("x", INT, usable=True, writable=True),
        FieldDescriptor("y", INT, usable=False),
    ])
    cands = reg.candidates_for(INT)
    assert cands == [reg.field_named("x"), LiteralOption(INT)]


def test_constraint_interval_recorded():
    reg = Registry(methods=[
        MethodDescriptor("Move", (("newx", INT),), VOID, bounds={"newx": (-1, 1)})
    ])
    assert reg.method_named("Move").literal_interval("newx") == (-1, 1)


def test_constraint_on_unknown_param_rejected():
    with pytest.raises(UnknownConstraintParam):
        MethodDescriptor(
            "Move", (("newx", INT),), VOID,
            bounds={"z": (0, None)},
        )


def test_inverted_bounds_rejected():
    with pytest.raises(InvertedBounds):
        MethodDescriptor("Move", (("newx", INT),), VOID, bounds={"newx": (5, 1)})


def test_constraint_on_non_int_param_rejected():
    with pytest.raises(ConstraintTypeMismatch):
        MethodDescriptor(
            "Toggle", (("on", BOOL),), VOID,
            bounds={"on": (0, None)},
        )


def test_bool_bound_rejected():
    with pytest.raises(ConstraintTypeMismatch):
        MethodDescriptor("Move", (("newx", INT),), VOID, bounds={"newx": (True, None)})


def test_min_and_max_together_are_fine():
    move = MethodDescriptor("Move", (("newx", INT),), VOID, bounds={"newx": (-1, 1)})
    assert Registry(methods=[move]).method_named("Move") is move


def test_grounded_only_excludes_parameterised_methods():
    reg = Registry(methods=[
        MethodDescriptor("Add", (("a", INT), ("b", INT)), INT),
        MethodDescriptor("Zero", (), INT),
    ])
    full = reg.candidates_for(INT)
    grounded = reg.candidates_for(INT, grounded_only=True)
    assert any(isinstance(c, MethodDescriptor) and c.name == "Add" for c in full)
    assert not any(isinstance(c, MethodDescriptor) and c.name == "Add" for c in grounded)
    assert any(isinstance(c, MethodDescriptor) and c.name == "Zero" for c in grounded)


def test_void_candidates_have_no_literal_option():
    reg = Registry(
        fields=[FieldDescriptor("x", INT)],
        methods=[MethodDescriptor("DoNothing", (), VOID), MethodDescriptor("Zero", (), INT)],
    )
    cands = reg.candidates_for(VOID)
    assert [type(c) for c in cands] == [MethodDescriptor]
    assert cands[0].name == "DoNothing"


def test_candidate_order_fields_locals_methods_literal():
    reg = Registry(
        fields=[FieldDescriptor("a", INT), FieldDescriptor("b", INT)],
        methods=[MethodDescriptor("Zero", (), INT)],
    )
    scope = [("p", INT), ("q", BOOL), ("r", INT)]
    cands = reg.candidates_for(INT, scope=scope)
    assert [type(c).__name__ for c in cands] == [
        "FieldDescriptor", "FieldDescriptor", "LocalProducer", "LocalProducer",
        "MethodDescriptor", "LiteralOption",
    ]
    assert [c.name for c in cands if isinstance(c, LocalProducer)] == ["p", "r"]


def produced_type(cand):
    """A method produces its return type; a field, local or literal its type."""
    return cand.return_type if isinstance(cand, MethodDescriptor) else cand.type


def test_every_producer_has_wanted_type(game_registry):
    scope = [("x", INT), ("y", INT), ("flag", BOOL)]
    for wanted in [INT, BOOL, VOID, enum_type("Colour")]:
        for grounded in (False, True):
            for cand in game_registry.candidates_for(wanted, scope, grounded):
                assert produced_type(cand) == wanted


def test_grounded_subset_of_full(game_registry):
    scope = [("x", INT), ("y", INT)]
    for wanted in [INT, BOOL, VOID, enum_type("Colour")]:
        full = game_registry.candidates_for(wanted, scope, grounded_only=False)
        grounded = game_registry.candidates_for(wanted, scope, grounded_only=True)
        assert set(map(repr, grounded)) <= set(map(repr, full))
        assert not any(
            isinstance(c, MethodDescriptor) and c.arity >= 1 for c in grounded
        )


def test_marking_non_usable_strictly_removes_item():
    def build(usable_flag):
        return Registry(
            fields=[FieldDescriptor("a", INT), FieldDescriptor("b", INT, usable=usable_flag)],
            methods=[MethodDescriptor("Zero", (), INT)],
        )

    with_b = build(True).candidates_for(INT)
    without_b = build(False).candidates_for(INT)
    names_with = [c.name for c in with_b if isinstance(c, FieldDescriptor)]
    names_without = [c.name for c in without_b if isinstance(c, FieldDescriptor)]
    assert names_with == ["a", "b"]
    assert names_without == ["a"]
    # everything else is untouched
    assert [c for c in with_b if not isinstance(c, FieldDescriptor) or c.name != "b"] == without_b


def test_marking_method_non_usable_strictly_removes_it():
    def build(usable_flag):
        return Registry(methods=[
            MethodDescriptor("Zero", (), INT),
            MethodDescriptor("One", (), INT, usable=usable_flag),
        ])

    with_one = build(True).candidates_for(INT)
    without_one = build(False).candidates_for(INT)
    assert [c.name for c in with_one if isinstance(c, MethodDescriptor)] == ["Zero", "One"]
    assert [c.name for c in without_one if isinstance(c, MethodDescriptor)] == ["Zero"]


def test_candidates_deterministic(game_registry):
    scope = [("x", INT), ("y", INT)]
    first = game_registry.candidates_for(INT, scope)
    second = game_registry.candidates_for(INT, scope)
    assert first == second


def test_sealed_maps_are_immutable(game_registry):
    with pytest.raises(TypeError):
        game_registry.fields["sneaky"] = FieldDescriptor("sneaky", INT)


def test_method_with_unresolved_param_type_rejected():
    with pytest.raises(UnresolvedType):
        Registry(methods=[MethodDescriptor("Paint", (("c", enum_type("Hue")),), VOID)])


def test_duplicate_method_rejected():
    with pytest.raises(DuplicateName, match="method 'Zero' already registered"):
        Registry(methods=[MethodDescriptor("Zero", (), INT), MethodDescriptor("Zero", (), BOOL)])


def test_method_with_unresolved_return_type_rejected():
    with pytest.raises(UnresolvedType) as err:
        Registry(methods=[MethodDescriptor("Pick", (), enum_type("Hue"))])
    assert str(err.value) == "method 'Pick': unresolved return type 'Hue'"


def test_checks_run_in_declaration_order():
    # several declarations are bad in each case; the first bad one in the
    # order enums, fields, methods (name before types) is the one reported
    hue = enum_type("Hue")
    colour = EnumDef("Colour", ("R",))
    with pytest.raises(DuplicateName, match="enum"):
        Registry([colour, colour], [FieldDescriptor("f", hue)], [MethodDescriptor("m", (), hue)])
    with pytest.raises(UnresolvedType, match="field"):
        Registry([colour], [FieldDescriptor("f", hue)], [MethodDescriptor("m", (), hue)])
    with pytest.raises(DuplicateName, match="field"):
        Registry(fields=[FieldDescriptor("f", INT), FieldDescriptor("f", hue)])
    with pytest.raises(UnresolvedType, match="parameter 'p'"):
        Registry(methods=[MethodDescriptor("m", (("p", hue),), hue)])


def test_resolves_exactly_the_value_types():
    reg = Registry(enums=[EnumDef("Colour", ("R",))])
    assert [reg.resolves(t) for t in (INT, BOOL, enum_type("Colour"))] == [True] * 3
    assert [reg.resolves(t) for t in (VOID, enum_type("Hue"))] == [False, False]


def test_encapsulated_field_via_getter_setter():
    # a read-only value exposed both as a field and through accessor methods
    reg = Registry(
        fields=[FieldDescriptor("score", INT, usable=True, writable=False)],
        methods=[
            MethodDescriptor("GetScore", (), INT),
            MethodDescriptor("SetScore", (("v", INT),), VOID),
        ],
    )
    int_cands = reg.candidates_for(INT)
    kinds = [type(c).__name__ for c in int_cands]
    assert kinds == ["FieldDescriptor", "MethodDescriptor", "LiteralOption"]
    void_cands = reg.candidates_for(VOID)
    assert [c.name for c in void_cands] == ["SetScore"]
    # grounded search keeps the getter but loses the setter
    assert reg.candidates_for(VOID, grounded_only=True) == []
    grounded_int = reg.candidates_for(INT, grounded_only=True)
    assert any(isinstance(c, MethodDescriptor) and c.name == "GetScore" for c in grounded_int)


def test_dump_lines_renders_each_side_of_a_bound():
    reg = Registry(methods=[
        MethodDescriptor("Far", (("n", INT),), VOID, bounds={"n": (200, None)}),
        MethodDescriptor(
            "Cap", (("k", INT), ("on", BOOL)), INT, usable=False, bounds={"k": (None, 9)}
        ),
        MethodDescriptor(
            "Span", (("a", INT), ("b", INT), ("c", INT)), VOID,
            bounds={"c": (-1, 1), "a": (0, 4)},
        ),
    ])
    assert reg.dump_lines() == [
        "METHOD Cap(k:int,on:bool) : int {k<=9}",
        "METHOD Far(n:int) : void [usable] {n>=200}",
        "METHOD Span(a:int,b:int,c:int) : void [usable] {a>=0,a<=4,c>=-1,c<=1}",
    ]


def test_literal_interval_reads_the_folded_bounds():
    m = MethodDescriptor(
        "Put", (("n", INT), ("k", INT)), VOID,
        bounds={"n": (2, 4)},
    )
    assert m.literal_interval("n") == (2, 4)
    assert m.literal_interval("k") == (None, None)


# --------------------------------------------------------------------------
# TypeId: a value, whatever instance carries it


def test_separately_built_types_are_equal_and_interchangeable_keys():
    pairs = [(enum_type("Colour"), enum_type("Colour")), (TypeId(TypeKind.INT), INT),
             (TypeId(TypeKind.BOOL), BOOL), (TypeId(TypeKind.VOID), VOID)]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found" and b in {a}
    assert enum_type("Colour") != enum_type("Color")
    assert hash(enum_type("Colour")) != hash(enum_type("Color"))
    assert INT != BOOL and INT != VOID and enum_type("Colour") != INT
    assert INT != "int" and INT != TypeKind.INT


@pytest.mark.parametrize("t", [INT, BOOL, VOID, enum_type("Colour")])
def test_copies_and_pickles_round_trip_to_an_equal_type(t):
    for other in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert other == t and hash(other) == hash(t)
        assert {t: 1}[other] == 1
        assert repr(other) == repr(t)
    # The cached hash is never pickled: a new process salts string hashes anew.
    assert b"_hash" not in pickle.dumps(t)


def test_enum_type_without_a_name_still_raises():
    with pytest.raises(ValueError):
        TypeId(TypeKind.ENUM)
    with pytest.raises(ValueError):
        TypeId(TypeKind.INT, "Colour")
