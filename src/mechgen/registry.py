"""Catalogue of the types, fields, and methods that generated code may touch.

A Registry models the slice of a host program that is opened up to code
generation: enums, fields, and methods, each gated by a ``usable`` flag, plus
an optional ``(min, max)`` bound per integer method parameter
(``MethodDescriptor.bounds``) and an effect flag per method
(``MethodDescriptor.reads_world``). Build one in a single call,
``Registry(enums, fields, methods)``, which checks every declaration; the
result is immutable and safe to share between any number of generators and
compiled blocks.

``candidates_for`` is the search primitive: given a wanted type and the local
scope, it returns every producer of that type in a fixed order: the usable
``FieldDescriptor``s themselves, then one ``LocalProducer`` per visible local
(outermost frame first), then the usable ``MethodDescriptor``s themselves,
then a single ``LiteralOption`` when the type is a value type here. A block
generator asks it once per value type and grounding when it is built, and
keeps the answers for as long as the generator lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union


class TypeKind(Enum):
    INT = "int"
    BOOL = "bool"
    VOID = "void"
    ENUM = "enum"


@dataclass(frozen=True)
class TypeId:
    """Type tag for values in the generated language.

    Types key the generator's tables and are compared on every lookup, so the
    hash is computed once and ``==`` tries identity first. Copies and pickles
    go through the constructor, which recomputes the hash in the new process.
    """

    kind: TypeKind
    enum_name: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.kind is TypeKind.ENUM) != (self.enum_name is not None):
            raise ValueError("enum_name is required exactly for enum types")
        object.__setattr__(self, "_hash", hash((self.kind, self.enum_name)))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not TypeId:
            return NotImplemented
        return self.kind is other.kind and self.enum_name == other.enum_name  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> Tuple[Any, ...]:
        return TypeId, (self.kind, self.enum_name)

    @property
    def is_void(self) -> bool:
        return self.kind is TypeKind.VOID

    def display(self) -> str:
        if self.kind is TypeKind.ENUM:
            return self.enum_name  # type: ignore[return-value]
        return self.kind.value

    def __repr__(self) -> str:
        return f"TypeId<{self.display()}>"


INT = TypeId(TypeKind.INT)
BOOL = TypeId(TypeKind.BOOL)
VOID = TypeId(TypeKind.VOID)


def enum_type(name: str) -> TypeId:
    return TypeId(TypeKind.ENUM, name)


class RegistryError(Exception):
    """Base class for rejected design-space declarations."""


class DuplicateName(RegistryError):
    pass


class EmptyEnum(RegistryError):
    pass


class UnresolvedType(RegistryError):
    pass


class VoidField(RegistryError):
    pass


class UnknownConstraintParam(RegistryError):
    pass


class ConstraintTypeMismatch(RegistryError):
    pass


class InvertedBounds(RegistryError):
    pass


@dataclass(frozen=True)
class EnumDef:
    name: str
    variants: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", tuple(self.variants))
        if not self.variants:
            raise EmptyEnum(f"enum '{self.name}' has no variants")
        if len(set(self.variants)) != len(self.variants):
            raise DuplicateName(f"enum '{self.name}' repeats a variant name")


@dataclass(frozen=True)
class FieldDescriptor:
    name: str
    type: TypeId
    usable: bool = True
    writable: bool = True

    def __post_init__(self) -> None:
        if self.type.is_void:
            raise VoidField(f"field '{self.name}' cannot have type void")


# A host behavior takes (world, argument values) and returns a runtime value.
HostImpl = Callable[..., Any]

# The (min, max) bounds of an integer parameter; None means an open side.
Bounds = Tuple[Optional[int], Optional[int]]
_OPEN: Bounds = (None, None)


@dataclass(frozen=True)
class MethodDescriptor:
    """A host method open to generated code.

    ``bounds`` maps each bounded int parameter to its ``(min, max)``, with
    None for an open side, for example ``{"x": (0, 2), "n": (None, 9)}``.
    It is the one form of a bound: it is stored read-only, in signature
    order and without fully open entries, and the compiler, the generator
    (``synthesis._method``) and ``Registry.dump_lines`` all read it.
    Descriptors compare their bounds; the hash leaves the mapping out.

    ``reads_world`` declares the method's effect. False promises that what
    the method returns and does depends only on its arguments and the
    world's shape (a board's size, not its contents): it may move cells and
    write constants, but never inspects them. The default, True, is the
    safe one: the solver tabulates a block only if its marker runs reach no
    call of a reader (``game.tap_moves``). ``dump_lines`` does not show it.
    """

    name: str
    params: Tuple[Tuple[str, TypeId], ...]
    return_type: TypeId
    usable: bool = True
    bounds: Mapping[str, Bounds] = field(default_factory=dict, hash=False)
    host_impl: Optional[HostImpl] = field(default=None, compare=False)
    reads_world: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(tuple(p) for p in self.params))
        names = [n for n, _ in self.params]
        if len(set(names)) != len(names):
            raise DuplicateName(f"method '{self.name}' repeats a parameter name")
        for _, t in self.params:
            if t.is_void:
                raise VoidField(f"method '{self.name}' has a void parameter")
        by_param: Dict[str, TypeId] = dict(self.params)
        for p, (lo, hi) in self.bounds.items():
            if p not in by_param:
                raise UnknownConstraintParam(
                    f"method '{self.name}': bound names unknown parameter '{p}'"
                )
            if by_param[p] != INT:
                raise ConstraintTypeMismatch(
                    f"method '{self.name}': bound on non-int parameter '{p}'"
                )
            # bool is an int subclass; reject it explicitly.
            if any(b is not None and type(b) is not int for b in (lo, hi)):
                raise ConstraintTypeMismatch(
                    f"method '{self.name}': bound for '{p}' must be an int, got {(lo, hi)!r}"
                )
        for p, (lo, hi) in self.bounds.items():
            if lo is not None and hi is not None and lo > hi:
                raise InvertedBounds(
                    f"method '{self.name}': parameter '{p}' has min {lo} > max {hi}"
                )
        pairs = ((p, tuple(self.bounds.get(p, _OPEN))) for p in names)
        ordered = {p: b for p, b in pairs if b != _OPEN}
        object.__setattr__(self, "bounds", MappingProxyType(ordered))

    @property
    def arity(self) -> int:
        return len(self.params)

    def literal_interval(self, param: str) -> Bounds:
        """The (min, max) bounds of a parameter; None means an open side."""
        return self.bounds.get(param, _OPEN)


@dataclass(frozen=True)
class LocalProducer:
    """A visible local of the wanted type."""

    name: str
    type: TypeId


@dataclass(frozen=True)
class LiteralOption:
    """A literal of the wanted type, the value drawn later."""

    type: TypeId


# A usable field or method is a producer of its (return) type as it stands.
Producer = Union[FieldDescriptor, LocalProducer, MethodDescriptor, LiteralOption]

# Ordered (name, type) pairs describing visible locals, outermost frame first.
ScopePairs = Sequence[Tuple[str, TypeId]]


def _by_name(kind: str, items: Iterable[Any], check: Callable[[Any], None]) -> Mapping[str, Any]:
    """``items`` keyed by name in order; each name must be new, then passes ``check``."""
    out: Dict[str, Any] = {}
    for item in items:
        if item.name in out:
            raise DuplicateName(f"{kind} '{item.name}' already registered")
        check(item)
        out[item.name] = item
    return MappingProxyType(out)


class Registry:
    """The design space: enums, fields, and methods open to generation.

    Built in one call and immutable afterwards. The constructor checks each
    declaration once, in order: each enum's name, then each field's name and
    type, then each method's name, parameter types and return type. It stores
    ``enums``/``fields``/``methods`` as read-only mappings in declaration
    order.
    """

    def __init__(
        self,
        enums: Iterable[EnumDef] = (),
        fields: Iterable[FieldDescriptor] = (),
        methods: Iterable[MethodDescriptor] = (),
    ) -> None:
        self.enums: Mapping[str, EnumDef] = _by_name("enum", enums, lambda e: None)
        self.fields: Mapping[str, FieldDescriptor] = _by_name("field", fields, self._check_field)
        self.methods: Mapping[str, MethodDescriptor] = _by_name("method", methods, self._check_method)

    def resolves(self, t: TypeId) -> bool:
        """Whether ``t`` is a value type here: int, bool or a registered enum."""
        if t.kind is TypeKind.ENUM:
            return t.enum_name in self.enums
        return t.kind is not TypeKind.VOID

    def _check_field(self, f: FieldDescriptor) -> None:
        if not self.resolves(f.type):
            raise UnresolvedType(f"field '{f.name}': unresolved type '{f.type.display()}'")

    def _check_method(self, m: MethodDescriptor) -> None:
        for pname, ptype in m.params:
            if not self.resolves(ptype):
                raise UnresolvedType(
                    f"method '{m.name}': parameter '{pname}' has "
                    f"unresolved type '{ptype.display()}'"
                )
        if not (m.return_type.is_void or self.resolves(m.return_type)):
            raise UnresolvedType(
                f"method '{m.name}': unresolved return type '{m.return_type.display()}'"
            )

    def enum(self, name: str) -> Optional[EnumDef]:
        return self.enums.get(name)

    def field_named(self, name: str) -> Optional[FieldDescriptor]:
        return self.fields.get(name)

    def method_named(self, name: str) -> Optional[MethodDescriptor]:
        return self.methods.get(name)

    def value_types(self) -> List[TypeId]:
        """Every non-void type a local could hold: int, bool, then enums."""
        return [INT, BOOL] + [enum_type(n) for n in self.enums]

    def candidates_for(
        self,
        wanted: TypeId,
        scope: ScopePairs = (),
        grounded_only: bool = False,
    ) -> List[Producer]:
        """All producers of ``wanted`` visible from ``scope``, in fixed order.

        Order: usable fields (declaration order), locals (scope order,
        innermost frame last), usable methods (declaration order, methods of
        arity >= 1 dropped when ``grounded_only``), then one LiteralOption if
        the type is a value type here (``resolves``). Non-usable items never
        appear.
        """
        out: List[Producer] = [f for f in self.fields.values() if f.usable and f.type == wanted]
        out.extend(LocalProducer(name, t) for name, t in scope if t == wanted)
        methods = self.methods.values()
        out.extend(m for m in methods if m.usable and m.return_type == wanted
                   and not (grounded_only and m.arity))
        if self.resolves(wanted):
            out.append(LiteralOption(wanted))
        return out

    def dump_lines(self) -> List[str]:
        """One line per item, sorted by kind (ENUM, FIELD, METHOD) then name."""
        lines: List[str] = []
        for name in sorted(self.enums):
            e = self.enums[name]
            lines.append(f"ENUM {name} {{{','.join(e.variants)}}}")
        for name in sorted(self.fields):
            f = self.fields[name]
            flags = ""
            if f.usable:
                flags += " [usable]"
            if f.writable:
                flags += " [writable]"
            lines.append(f"FIELD {name} : {f.type.display()}{flags}")
        for name in sorted(self.methods):
            m = self.methods[name]
            params = ",".join(f"{p}:{t.display()}" for p, t in m.params)
            line = f"METHOD {name}({params}) : {m.return_type.display()}"
            if m.usable:
                line += " [usable]"
            if m.bounds:
                rendered = []
                for p, (lo, hi) in m.bounds.items():
                    if lo is not None:
                        rendered.append(f"{p}>={lo}")
                    if hi is not None:
                        rendered.append(f"{p}<={hi}")
                line += " {" + ",".join(rendered) + "}"
            lines.append(line)
        return lines
