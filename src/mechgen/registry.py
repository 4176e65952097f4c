"""Catalogue of the types, fields, and methods that generated code may touch.

A Registry models the slice of a host program that is opened up to code
generation: enums, fields, and methods, each gated by a ``usable`` flag, plus
an optional ``(min, max)`` bound per integer method parameter
(``MethodDescriptor.bounds``). Build one imperatively with the ``register_*``
methods, then ``seal()`` it; a sealed registry is validated, immutable, and
safe to share between any number of generators and compiled blocks.

``candidates_for`` is the search primitive: given a wanted type and the local
scope, it returns every producer of that type in a fixed order (usable fields,
then locals outermost-frame-first, then usable methods, then a single
LiteralOption marker when the type admits literals at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union


class TypeKind(Enum):
    INT = "int"
    BOOL = "bool"
    VOID = "void"
    ENUM = "enum"


@dataclass(frozen=True)
class TypeId:
    """Type tag for values in the generated language."""

    kind: TypeKind
    enum_name: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.kind is TypeKind.ENUM) != (self.enum_name is not None):
            raise ValueError("enum_name is required exactly for enum types")

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


def admits_literals(t: TypeId) -> bool:
    """int, bool and enum values can be spelled as literals; void cannot."""
    return t.kind is not TypeKind.VOID


class RegistryError(Exception):
    """Base class for design-space registration and validation failures."""


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


class RegistrySealed(RegistryError):
    """Raised on any mutation attempt after seal()."""


class RegistryNotSealed(RegistryError):
    """Raised when a query requiring a sealed registry runs on an open one."""


class ValidationFailed(RegistryError):
    def __init__(self, diagnostics: Sequence[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = tuple(diagnostics)


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
    (through ``literal_interval``) and ``Registry.dump_lines`` all read it.
    Descriptors compare their bounds; the hash leaves the mapping out.
    """

    name: str
    params: Tuple[Tuple[str, TypeId], ...]
    return_type: TypeId
    usable: bool = True
    bounds: Mapping[str, Bounds] = field(default_factory=dict, hash=False)
    host_impl: Optional[HostImpl] = field(default=None, compare=False)

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
class FieldProducer:
    field: FieldDescriptor

    @property
    def produced_type(self) -> TypeId:
        return self.field.type


@dataclass(frozen=True)
class LocalProducer:
    name: str
    type: TypeId

    @property
    def produced_type(self) -> TypeId:
        return self.type


@dataclass(frozen=True)
class MethodProducer:
    method: MethodDescriptor

    @property
    def produced_type(self) -> TypeId:
        return self.method.return_type


@dataclass(frozen=True)
class LiteralOption:
    type: TypeId

    @property
    def produced_type(self) -> TypeId:
        return self.type


Producer = Union[FieldProducer, LocalProducer, MethodProducer, LiteralOption]

# Ordered (name, type) pairs describing visible locals, outermost frame first.
ScopePairs = Sequence[Tuple[str, TypeId]]

# (fields, methods + literal, arity-0 methods + literal) producers of one type.
_Producers = Tuple[Tuple[Producer, ...], Tuple[Producer, ...], Tuple[Producer, ...]]
_NO_PRODUCERS: _Producers = ((), (), ())


class Registry:
    """The design space: enums, fields, and methods open to generation.

    ``enums``/``fields``/``methods`` are plain insertion-ordered dicts while
    the registry is open; ``seal()`` validates everything, freezes them behind
    read-only views, and precomputes the per-type producer caches used by
    ``candidates_for``.
    """

    def __init__(self) -> None:
        self.enums: Dict[str, EnumDef] = {}
        self.fields: Dict[str, FieldDescriptor] = {}
        self.methods: Dict[str, MethodDescriptor] = {}
        self._sealed = False
        # Built by seal(): per type, (field producers, method producers then
        # the literal option, the same with only arity-0 methods).
        self._producers: Dict[TypeId, _Producers] = {}

    @property
    def sealed(self) -> bool:
        return self._sealed

    def _require_open(self) -> None:
        if self._sealed:
            raise RegistrySealed("registry is sealed; no further registration allowed")

    def register_enum(self, enum_def: EnumDef) -> None:
        self._require_open()
        if enum_def.name in self.enums:
            raise DuplicateName(f"enum '{enum_def.name}' already registered")
        self.enums[enum_def.name] = enum_def

    def register_field(self, desc: FieldDescriptor) -> None:
        self._require_open()
        if desc.name in self.fields:
            raise DuplicateName(f"field '{desc.name}' already registered")
        if not self._resolves(desc.type):
            raise UnresolvedType(
                f"field '{desc.name}': unresolved type '{desc.type.display()}'"
            )
        self.fields[desc.name] = desc

    def register_method(self, desc: MethodDescriptor) -> None:
        self._require_open()
        if desc.name in self.methods:
            raise DuplicateName(f"method '{desc.name}' already registered")
        for pname, ptype in desc.params:
            if not self._resolves(ptype):
                raise UnresolvedType(
                    f"method '{desc.name}': parameter '{pname}' has "
                    f"unresolved type '{ptype.display()}'"
                )
        if not (desc.return_type.is_void or self._resolves(desc.return_type)):
            raise UnresolvedType(
                f"method '{desc.name}': unresolved return type "
                f"'{desc.return_type.display()}'"
            )
        self.methods[desc.name] = desc

    def _resolves(self, t: TypeId) -> bool:
        if t.kind is TypeKind.ENUM:
            return t.enum_name in self.enums
        return t.kind is not TypeKind.VOID

    def validate(self) -> List[str]:
        """Re-check every registry-level invariant; returns all violations.

        Registration already rejects bad input, so this mainly guards
        registries assembled directly (tests, bulk loading).
        """
        out: List[str] = []
        for name, e in self.enums.items():
            if name != e.name:
                out.append(f"enum '{name}': key does not match descriptor name '{e.name}'")
        for name, f in self.fields.items():
            if name != f.name:
                out.append(f"field '{name}': key does not match descriptor name '{f.name}'")
            if f.type.is_void:
                out.append(f"field '{name}': void is not a value type")
            elif not self._resolves(f.type):
                out.append(f"field '{name}': unresolved type '{f.type.display()}'")
        for name, m in self.methods.items():
            if name != m.name:
                out.append(f"method '{name}': key does not match descriptor name '{m.name}'")
            for pname, ptype in m.params:
                if not self._resolves(ptype):
                    out.append(
                        f"method '{name}': parameter '{pname}' has "
                        f"unresolved type '{ptype.display()}'"
                    )
            if not (m.return_type.is_void or self._resolves(m.return_type)):
                out.append(
                    f"method '{name}': unresolved return type '{m.return_type.display()}'"
                )
        return out

    def seal(self) -> "Registry":
        if self._sealed:
            return self
        diagnostics = self.validate()
        if diagnostics:
            raise ValidationFailed(diagnostics)
        fields: Dict[TypeId, List[Producer]] = {}
        for f in self.fields.values():
            if f.usable:
                fields.setdefault(f.type, []).append(FieldProducer(f))
        methods: Dict[TypeId, List[MethodProducer]] = {}
        for m in self.methods.values():
            if m.usable:
                methods.setdefault(m.return_type, []).append(MethodProducer(m))
        # Every field and return type resolves, so these are all the types
        # with a producer; any other type gets none from the registry.
        for t in (*self.value_types(), VOID):
            literal = (LiteralOption(t),) if admits_literals(t) else ()
            typed = methods.get(t, [])
            self._producers[t] = (
                tuple(fields.get(t, ())),
                (*typed, *literal),
                (*(p for p in typed if p.method.arity == 0), *literal),
            )
        self.enums = MappingProxyType(dict(self.enums))  # type: ignore[assignment]
        self.fields = MappingProxyType(dict(self.fields))  # type: ignore[assignment]
        self.methods = MappingProxyType(dict(self.methods))  # type: ignore[assignment]
        self._sealed = True
        return self

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

        Order: usable fields (registration order), locals (scope order,
        innermost frame last), usable methods (registration order, methods of
        arity >= 1 dropped when ``grounded_only``), then one LiteralOption if
        the type admits literals. Non-usable items never appear.
        """
        if not self._sealed:
            raise RegistryNotSealed("candidates_for requires a sealed registry")
        fields, methods, grounded = self._producers.get(wanted, _NO_PRODUCERS)
        out: List[Producer] = list(fields)
        for name, t in scope:
            if t == wanted:
                out.append(LocalProducer(name, t))
        out.extend(grounded if grounded_only else methods)
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
