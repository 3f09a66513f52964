"""Attribute data types for relational schemas.

GROM executes over ordinary relational databases, so schemas are typed.
The type system is deliberately small — integers, floats, booleans,
strings, plus the wildcard ``ANY`` — and labeled nulls are members of
every type (they are placeholders, not values).
"""

from __future__ import annotations

import enum
from typing import Union

from repro.errors import TypingError
from repro.logic.terms import Constant, Null, Term

__all__ = [
    "DataType",
    "check_value",
    "check_term",
    "parse_literal",
    "term_order_key",
    "term_compare_key",
]


def term_order_key(term: Term):
    """Canonical sort key over ground terms.

    Nulls sort after constants, by numeric id — so "smaller null id wins"
    when egds orient unifications, which is what makes canonical null
    renaming deterministic.  Constants sort by ``repr``.  This single
    definition is shared by the chase engine's enforcement order and the
    columnar kernel's interning pool (which caches the key per code so
    encoded rows sort identically to decoded bindings).
    """
    if isinstance(term, Null):
        return (1, term.id, "")
    return (0, 0, repr(term))


def term_compare_key(term: Term):
    """Typed key for order comparisons (``<``, ``<=``, ``>``, ``>=``).

    ``(0, value)`` for numeric constants (int, float, bool), ``(1,
    value)`` for strings, ``None`` for a null.  Two keys order-compare
    only when their kinds match — exactly the pairs
    :meth:`~repro.logic.atoms.Comparison.evaluate` accepts; a null or a
    kind mismatch is its :class:`TypingError`, which matching reads as
    "does not hold".  The columnar kernel's pool caches this key per
    code, so encoded comparisons never decode.
    """
    if isinstance(term, Null):
        return None
    value = term.value  # type: ignore[union-attr]
    return (1, value) if isinstance(value, str) else (0, value)


class DataType(enum.Enum):
    """The declared type of a relational attribute."""

    INT = "int"
    FLOAT = "float"
    BOOL = "bool"
    STRING = "string"
    ANY = "any"

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        normalized = name.strip().lower()
        aliases = {
            "int": cls.INT,
            "integer": cls.INT,
            "float": cls.FLOAT,
            "double": cls.FLOAT,
            "real": cls.FLOAT,
            "bool": cls.BOOL,
            "boolean": cls.BOOL,
            "string": cls.STRING,
            "str": cls.STRING,
            "text": cls.STRING,
            "varchar": cls.STRING,
            "any": cls.ANY,
        }
        if normalized not in aliases:
            raise TypingError(f"unknown data type {name!r}")
        return aliases[normalized]

    def admits(self, value: Union[int, float, bool, str]) -> bool:
        """Whether a Python value conforms to this type.

        ``bool`` is checked before ``int`` because it subclasses ``int``;
        ``FLOAT`` accepts ints (the usual numeric widening).
        """
        if self is DataType.ANY:
            return isinstance(value, (int, float, bool, str))
        if self is DataType.BOOL:
            return isinstance(value, bool)
        if self is DataType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is DataType.FLOAT:
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        return isinstance(value, str)

    def __str__(self) -> str:
        return self.value


def check_value(value: Union[int, float, bool, str], dtype: DataType, where: str = "") -> None:
    """Raise :class:`TypingError` when ``value`` does not conform to ``dtype``."""
    if not dtype.admits(value):
        location = f" in {where}" if where else ""
        raise TypingError(
            f"value {value!r} does not conform to type {dtype}{location}"
        )


def check_term(term: Term, dtype: DataType, where: str = "") -> None:
    """Type-check a term; labeled nulls conform to every type."""
    if isinstance(term, Null):
        return
    if isinstance(term, Constant):
        check_value(term.value, dtype, where)


def parse_literal(text: str, dtype: DataType) -> Constant:
    """Parse a textual literal as a constant of the given type.

    Used by the CSV loader; the DSL parser has its own literal syntax.
    """
    stripped = text.strip()
    if dtype is DataType.INT:
        return Constant(int(stripped))
    if dtype is DataType.FLOAT:
        return Constant(float(stripped))
    if dtype is DataType.BOOL:
        lowered = stripped.lower()
        if lowered in ("true", "1", "t", "yes"):
            return Constant(True)
        if lowered in ("false", "0", "f", "no"):
            return Constant(False)
        raise TypingError(f"cannot parse {text!r} as a boolean")
    return Constant(stripped)
