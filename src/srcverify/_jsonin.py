"""Parse and shape checks for outside JSON: a request, a chain fixture, a
compiler's artifact.  Each raises TypeError or ValueError, never coerces,
and names JSON kinds, never a value's repr, which a deep value cannot give."""

from __future__ import annotations

import json

from .bytecode import parse_hex
from .errors import NonHexCharacterError, OddLengthError

_KINDS = {dict: "an object", list: "a list", str: "a string",
          int: "an integer", float: "a number", bool: "a boolean",
          type(None): "null"}


def read(text: str | bytes, of: type | None = None) -> dict:
    """The JSON object in text, checked as field checks a value; nesting
    past the recursion limit or an integer past the digit limit is no JSON."""
    try:
        return _checked(json.loads(text), dict, "the document", of)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not JSON: {exc}") from exc


def field(obj: dict, key: str, kind, default=..., of: type | None = None):
    """obj[key], of kind (a type or tuple of them; a boolean is no integer),
    each member of type of when given; default when absent, unless ``...``."""
    if key in obj:
        return _checked(obj[key], kind, key, of)
    if default is ...:
        raise ValueError(f"{key} is missing")
    return default


def _checked(value, kind, name: str, of: type | None):
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if type(value) not in kinds:
        raise TypeError(f"{name} must be {' or '.join(map(_KINDS.get, kinds))}"
                        f", got {_KINDS[type(value)]}")
    members = value.values() if type(value) is dict else value or ()
    for member in members if of else ():
        if type(member) is not of:
            raise TypeError(f"each member of {name} must be {_KINDS[of]}, "
                            f"got {_KINDS[type(member)]}")
    return value


def hexfield(obj: dict, key: str, length: int | None = None, default=...) -> bytes:
    """The bytes the hex string field(obj, key, str, default) spells, of
    length bytes when length is given."""
    try:
        raw = parse_hex(field(obj, key, str, default))
    except (NonHexCharacterError, OddLengthError) as exc:
        raise ValueError(f"{key}: {exc}") from exc
    if length is not None and len(raw) != length:
        raise ValueError(f"{key} must be {length} bytes, got {len(raw)}")
    return raw
