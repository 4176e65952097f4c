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
    FieldProducer,
    InvertedBounds,
    LiteralOption,
    LocalProducer,
    MethodDescriptor,
    MethodProducer,
    Registry,
    RegistryNotSealed,
    RegistrySealed,
    UnknownConstraintParam,
    UnresolvedType,
    ValidationFailed,
    VoidField,
    enum_type,
)


@pytest.fixture()
def reg():
    return Registry()


def test_register_enum_with_eight_variants(reg):
    reg.register_enum(EnumDef("DIR", ("N", "NE", "E", "SE", "S", "SW", "W", "NW")))
    reg.seal()
    assert reg.enum("DIR").variants == ("N", "NE", "E", "SE", "S", "SW", "W", "NW")
    # the enum admits literals: the single option stands in for 8 values
    cands = reg.candidates_for(enum_type("DIR"))
    assert cands == [LiteralOption(enum_type("DIR"))]


def test_duplicate_enum_rejected(reg):
    reg.register_enum(EnumDef("Colour", ("R", "G", "B", "Y")))
    with pytest.raises(DuplicateName):
        reg.register_enum(EnumDef("Colour", ("R", "G", "B", "Y")))


def test_empty_enum_rejected():
    with pytest.raises(EmptyEnum):
        EnumDef("Nothing", ())


def test_duplicate_variant_rejected():
    with pytest.raises(DuplicateName):
        EnumDef("E", ("A", "A"))


def test_void_field_rejected():
    with pytest.raises(VoidField):
        FieldDescriptor("v", VOID)


def test_unresolved_field_type_rejected_at_registration(reg):
    with pytest.raises(UnresolvedType):
        reg.register_field(FieldDescriptor("ghost", enum_type("Ghost")))


def test_duplicate_field_rejected(reg):
    reg.register_field(FieldDescriptor("x", INT))
    with pytest.raises(DuplicateName):
        reg.register_field(FieldDescriptor("x", BOOL))


def test_usable_field_appears_in_producers(reg):
    reg.register_field(FieldDescriptor("x", INT, usable=True, writable=True))
    reg.register_field(FieldDescriptor("y", INT, usable=False))
    reg.seal()
    cands = reg.candidates_for(INT)
    assert cands == [FieldProducer(reg.field_named("x")), LiteralOption(INT)]


def test_constraint_interval_recorded(reg):
    reg.register_method(
        MethodDescriptor("Move", (("newx", INT),), VOID, bounds={"newx": (-1, 1)})
    )
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


def test_min_and_max_together_are_fine(reg):
    reg.register_method(
        MethodDescriptor("Move", (("newx", INT),), VOID, bounds={"newx": (-1, 1)})
    )
    reg.seal()
    assert reg.validate() == []


def test_grounded_only_excludes_parameterised_methods(reg):
    reg.register_method(MethodDescriptor("Add", (("a", INT), ("b", INT)), INT))
    reg.register_method(MethodDescriptor("Zero", (), INT))
    reg.seal()
    full = reg.candidates_for(INT)
    grounded = reg.candidates_for(INT, grounded_only=True)
    assert any(isinstance(c, MethodProducer) and c.method.name == "Add" for c in full)
    assert not any(isinstance(c, MethodProducer) and c.method.name == "Add" for c in grounded)
    assert any(isinstance(c, MethodProducer) and c.method.name == "Zero" for c in grounded)


def test_void_candidates_have_no_literal_option(reg):
    reg.register_field(FieldDescriptor("x", INT))
    reg.register_method(MethodDescriptor("DoNothing", (), VOID))
    reg.register_method(MethodDescriptor("Zero", (), INT))
    reg.seal()
    cands = reg.candidates_for(VOID)
    assert [type(c) for c in cands] == [MethodProducer]
    assert cands[0].method.name == "DoNothing"


def test_candidate_order_fields_locals_methods_literal(reg):
    reg.register_field(FieldDescriptor("a", INT))
    reg.register_field(FieldDescriptor("b", INT))
    reg.register_method(MethodDescriptor("Zero", (), INT))
    reg.seal()
    scope = [("p", INT), ("q", BOOL), ("r", INT)]
    cands = reg.candidates_for(INT, scope=scope)
    assert [type(c).__name__ for c in cands] == [
        "FieldProducer", "FieldProducer", "LocalProducer", "LocalProducer",
        "MethodProducer", "LiteralOption",
    ]
    assert [c.name for c in cands if isinstance(c, LocalProducer)] == ["p", "r"]


def test_every_producer_has_wanted_type(game_registry):
    scope = [("x", INT), ("y", INT), ("flag", BOOL)]
    for wanted in [INT, BOOL, VOID, enum_type("Colour")]:
        for grounded in (False, True):
            for cand in game_registry.candidates_for(wanted, scope, grounded):
                assert cand.produced_type == wanted


def test_grounded_subset_of_full(game_registry):
    scope = [("x", INT), ("y", INT)]
    for wanted in [INT, BOOL, VOID, enum_type("Colour")]:
        full = game_registry.candidates_for(wanted, scope, grounded_only=False)
        grounded = game_registry.candidates_for(wanted, scope, grounded_only=True)
        assert set(map(repr, grounded)) <= set(map(repr, full))
        assert not any(
            isinstance(c, MethodProducer) and c.method.arity >= 1 for c in grounded
        )


def test_marking_non_usable_strictly_removes_item():
    def build(usable_flag):
        reg = Registry()
        reg.register_field(FieldDescriptor("a", INT))
        reg.register_field(FieldDescriptor("b", INT, usable=usable_flag))
        reg.register_method(MethodDescriptor("Zero", (), INT))
        return reg.seal()

    with_b = build(True).candidates_for(INT)
    without_b = build(False).candidates_for(INT)
    names_with = [c.field.name for c in with_b if isinstance(c, FieldProducer)]
    names_without = [c.field.name for c in without_b if isinstance(c, FieldProducer)]
    assert names_with == ["a", "b"]
    assert names_without == ["a"]
    # everything else is untouched
    assert [c for c in with_b if not isinstance(c, FieldProducer) or c.field.name != "b"] == without_b


def test_marking_method_non_usable_strictly_removes_it():
    def build(usable_flag):
        reg = Registry()
        reg.register_method(MethodDescriptor("Zero", (), INT))
        reg.register_method(MethodDescriptor("One", (), INT, usable=usable_flag))
        return reg.seal()

    with_one = build(True).candidates_for(INT)
    without_one = build(False).candidates_for(INT)
    assert [c.method.name for c in with_one if isinstance(c, MethodProducer)] == ["Zero", "One"]
    assert [c.method.name for c in without_one if isinstance(c, MethodProducer)] == ["Zero"]


def test_candidates_deterministic(game_registry):
    scope = [("x", INT), ("y", INT)]
    first = game_registry.candidates_for(INT, scope)
    second = game_registry.candidates_for(INT, scope)
    assert first == second


def test_candidates_require_sealed(reg):
    reg.register_field(FieldDescriptor("x", INT))
    with pytest.raises(RegistryNotSealed):
        reg.candidates_for(INT)


def test_registration_after_seal_rejected(reg):
    reg.seal()
    with pytest.raises(RegistrySealed):
        reg.register_field(FieldDescriptor("x", INT))


def test_sealed_maps_are_immutable(game_registry):
    with pytest.raises(TypeError):
        game_registry.fields["sneaky"] = FieldDescriptor("sneaky", INT)


def test_validate_ok_on_game_registry(game_registry):
    assert game_registry.validate() == []


def test_validate_flags_unresolved_enum_type(reg):
    # assemble the broken registry directly; register_field would refuse it
    reg.fields["ghost"] = FieldDescriptor("ghost", enum_type("Ghost"))
    diags = reg.validate()
    assert len(diags) == 1 and "Ghost" in diags[0]
    with pytest.raises(ValidationFailed):
        reg.seal()


def test_method_with_unresolved_param_type_rejected(reg):
    with pytest.raises(UnresolvedType):
        reg.register_method(MethodDescriptor("Paint", (("c", enum_type("Hue")),), VOID))


def test_encapsulated_field_via_getter_setter(reg):
    # a read-only value exposed both as a field and through accessor methods
    reg.register_field(FieldDescriptor("score", INT, usable=True, writable=False))
    reg.register_method(MethodDescriptor("GetScore", (), INT))
    reg.register_method(MethodDescriptor("SetScore", (("v", INT),), VOID))
    reg.seal()
    int_cands = reg.candidates_for(INT)
    kinds = [type(c).__name__ for c in int_cands]
    assert kinds == ["FieldProducer", "MethodProducer", "LiteralOption"]
    void_cands = reg.candidates_for(VOID)
    assert [c.method.name for c in void_cands] == ["SetScore"]
    # grounded search keeps the getter but loses the setter
    assert reg.candidates_for(VOID, grounded_only=True) == []
    grounded_int = reg.candidates_for(INT, grounded_only=True)
    assert any(isinstance(c, MethodProducer) and c.method.name == "GetScore" for c in grounded_int)


def test_dump_lines_renders_each_side_of_a_bound():
    reg = Registry()
    reg.register_method(MethodDescriptor("Far", (("n", INT),), VOID, bounds={"n": (200, None)}))
    reg.register_method(
        MethodDescriptor("Cap", (("k", INT), ("on", BOOL)), INT, usable=False, bounds={"k": (None, 9)})
    )
    reg.register_method(
        MethodDescriptor(
            "Span", (("a", INT), ("b", INT), ("c", INT)), VOID,
            bounds={"c": (-1, 1), "a": (0, 4)},
        )
    )
    assert reg.seal().dump_lines() == [
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
