"""Type representations for the mini-Java frontend.

Types are immutable values; structural equality is what the type checker
and the grammar generator rely on.
"""

from __future__ import annotations

from dataclasses import dataclass


class JType:
    """Base class of all mini-Java types."""

    def is_numeric(self) -> bool:
        return False

    def is_collection(self) -> bool:
        return False


@dataclass(frozen=True)
class PrimitiveType(JType):
    """A primitive or built-in scalar type (int, double, boolean, String...)."""

    name: str  # one of: int, long, double, float, boolean, char, String, void

    _NUMERIC = frozenset({"int", "long", "double", "float", "char"})

    def is_numeric(self) -> bool:
        return self.name in self._NUMERIC

    def is_floating(self) -> bool:
        return self.name in ("double", "float")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayType(JType):
    """``T[]`` — element type plus one dimension per nesting level."""

    element: JType

    def is_collection(self) -> bool:
        return True

    @property
    def dimensions(self) -> int:
        if isinstance(self.element, ArrayType):
            return 1 + self.element.dimensions
        return 1

    @property
    def base_element(self) -> JType:
        if isinstance(self.element, ArrayType):
            return self.element.base_element
        return self.element

    def __str__(self) -> str:
        return f"{self.element}[]"


@dataclass(frozen=True)
class ListType(JType):
    """``List<T>``."""

    element: JType

    def is_collection(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"List<{self.element}>"


@dataclass(frozen=True)
class SetType(JType):
    """``Set<T>``."""

    element: JType

    def is_collection(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"Set<{self.element}>"


@dataclass(frozen=True)
class MapType(JType):
    """``Map<K, V>``."""

    key: JType
    value: JType

    def is_collection(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"Map<{self.key}, {self.value}>"


@dataclass(frozen=True)
class ClassType(JType):
    """A user-defined (or library-modelled) reference type."""

    name: str

    def __str__(self) -> str:
        return self.name


# Canonical singletons for the common primitives.
INT = PrimitiveType("int")
LONG = PrimitiveType("long")
DOUBLE = PrimitiveType("double")
FLOAT = PrimitiveType("float")
BOOLEAN = PrimitiveType("boolean")
CHAR = PrimitiveType("char")
STRING = PrimitiveType("String")
VOID = PrimitiveType("void")

_PRIMITIVES = {
    "int": INT,
    "long": LONG,
    "double": DOUBLE,
    "float": FLOAT,
    "boolean": BOOLEAN,
    "char": CHAR,
    "String": STRING,
    "void": VOID,
}


def primitive(name: str) -> PrimitiveType:
    """Look up the canonical primitive type for a keyword name."""
    return _PRIMITIVES[name]


def is_primitive_name(name: str) -> bool:
    """Return True if ``name`` denotes a primitive/built-in scalar type."""
    return name in _PRIMITIVES


def numeric_join(left: JType, right: JType) -> JType:
    """Result type of a binary arithmetic operation (Java-style widening)."""
    if not (isinstance(left, PrimitiveType) and isinstance(right, PrimitiveType)):
        return left
    if left.is_floating() or right.is_floating():
        return DOUBLE
    if left.name == "long" or right.name == "long":
        return LONG
    return INT
