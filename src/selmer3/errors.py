"""Exception types, and the one reader and writer of the input documents.

A document is a frozen dataclass that inherits `Document`; its fields are
the only statement of its JSON shape.  A field's key is its name; an absent
key takes the field default and unknown keys are ignored.  A value is read
by the field's annotation: bool, int and str as exactly that JSON kind,
`X | None` as null or X, a Fraction as its text, a nested document as an
object, a tuple or frozenset as an array.  Any other field names its own
(read, write) pair in `field(metadata={"json": ...})`.  The writer leaves
out None.  A missing key or a wrong JSON kind raises `DocumentError`, naming
the JSON path (`$.profiles[3].place`); a value of the right kind outside
its domain raises `DomainError` from the class's own checks.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import MISSING, fields
from fractions import Fraction
from functools import cache
from types import NoneType, UnionType
from typing import ClassVar, get_args, get_origin


class Selmer3Error(Exception):
    pass


class DomainError(Selmer3Error, ValueError):
    """Input outside the mathematical domain of an operation (zero twist
    parameter, residue characteristic 3 where excluded, bad reduction where
    good is required, and so on)."""


class NonIntegralClassError(DomainError):
    """An integral representative was requested for a class that has none."""


class IncompleteConfigError(Selmer3Error, KeyError):
    """A descriptor or place profile is missing data that the requested
    computation needs (e.g. a 3-adic override, or a kappa-order entry for a
    stratum of nonzero measure)."""

    def __str__(self) -> str:  # KeyError quotes its message otherwise
        return self.args[0] if self.args else ""


class BudgetError(Selmer3Error, RuntimeError):
    """A bounded search ran out of budget: an oracle's lattice search or
    the rho iterations of a factorization.  No partial result is
    returned."""


class PrecisionError(Selmer3Error, RuntimeError):
    """A p-adic search hit its depth cap without resolving; raising instead
    of guessing keeps every reported answer exact."""


class DocumentError(Selmer3Error):
    """A usage error: an input document unreadable, or malformed at the JSON path named."""


def malformed(path: str, value, expected: str) -> DocumentError:
    """The error for `value` at `path`, where `expected` belongs."""
    shown = {list: "an array", dict: "an object"}.get(type(value)) or json.dumps(value)[:40]
    return DocumentError(f"{path} is {shown}, not {expected}")


_KINDS = {bool: "a boolean", int: "an integer", str: "a string"}
# The text str(Fraction) writes, within int's 4,300 digits and with no zero
# denominator: not "0.5", nor "1e999999999", a billion-digit integer.
_RATIONAL = re.compile(r"[+-]?[0-9]{1,4300}(/(?=0*[1-9])[0-9]{1,4300})?")


def json_kind(value, kind: type, path: str):
    """value if its type is exactly `kind` (bool, int or str), else a DocumentError."""
    if type(value) is not kind:
        raise malformed(path, value, _KINDS[kind])
    return value


def _read_fraction(value, path: str) -> Fraction:
    if type(value) is not str or not _RATIONAL.fullmatch(value):
        raise malformed(path, value, 'the text of a rational, such as "-3" or "1/2"')
    return Fraction(value)


@cache
def _codec(tp) -> tuple:
    """(read, write) for the annotation tp: read(value, path) checks a parsed
    JSON value and returns the Python value, write does the reverse."""
    origin, args = get_origin(tp), get_args(tp)
    if tp in _KINDS:
        return (lambda value, path: json_kind(value, tp, path)), (lambda value: value)
    if tp is Fraction:
        return _read_fraction, str
    if origin is UnionType:  # X | None, the one union the generic reader takes
        read_value, write = _codec(args[1] if args[0] is NoneType else args[0])
        return (lambda value, path: None if value is None else read_value(value, path)), write
    if origin in (tuple, frozenset):
        read_item, write_item = _codec(args[0])
        arrange = list if origin is tuple else sorted

        def read_array(value, path):
            if type(value) is not list:
                raise malformed(path, value, "an array")
            return origin([read_item(v, f"{path}[{i}]") for i, v in enumerate(value)])

        return read_array, lambda items: arrange(map(write_item, items))
    return _document_codec(tp)


def _document_codec(cls) -> tuple:
    """(read, write) of a Document subclass, from its field table."""
    namespace = vars(sys.modules[cls.__module__])  # where the annotation strings were written
    table = []  # (name, kind, read, write, required): kind is the type of a bool, int or str field
    for f in fields(cls):
        tp = eval(f.type, namespace) if isinstance(f.type, str) else f.type
        read_field, write_field = f.metadata.get("json") or _codec(tp)
        table.append((f.name, tp if tp in _KINDS else None, read_field, write_field, f.default is MISSING))

    def read(obj, path: str):
        if type(obj) is not dict:
            raise malformed(path, obj, "an object")
        if cls.schema is not None and (type(obj.get("schema")) is not int or obj["schema"] != cls.schema):
            raise DomainError(f"unsupported schema at {path}: a {cls.__name__} has schema {cls.schema}")
        kwargs = {}
        for name, kind, read_field, _, required in table:
            value = obj.get(name, MISSING)
            if type(value) is kind:  # a scalar of its field's kind, taken as it is
                kwargs[name] = value
            elif value is not MISSING:
                kwargs[name] = read_field(value, f"{path}.{name}")
            elif required:
                raise DocumentError(f"{path}.{name} is missing")
        return cls(**kwargs)

    def write(doc) -> dict:
        obj = {} if cls.schema is None else {"schema": cls.schema}
        for name, _, _, write_field, _ in table:
            if (value := getattr(doc, name)) is not None:
                obj[name] = write_field(value)
        return obj

    return read, write


class Document:
    """Base of the input documents (see the module docstring)."""

    schema: ClassVar[int | None] = None  # carried by a top-level document

    @classmethod
    def from_json_obj(cls, obj):
        return _codec(cls)[0](obj, "$")

    @classmethod
    def from_json(cls, text: str):
        return cls.from_json_obj(json.loads(text))

    def to_json_obj(self) -> dict:
        return _codec(type(self))[1](self)
