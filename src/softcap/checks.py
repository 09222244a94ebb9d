"""The rule every configuration dataclass applies to its fields."""

from __future__ import annotations

import dataclasses
import functools
import math
import typing


@functools.cache
def field_hints(cls) -> tuple:
    """Each field's name and resolved type hint, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def _fits(value, hint) -> bool:
    """A float field takes an int, no number field takes a bool, and no
    field takes a NaN or an infinity.  ``Optional`` takes ``None``; a
    ``Tuple`` takes a list or tuple of its length whose elements each fit;
    any other hint (``bool``, ``str``, a config dataclass) an instance."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return value is None or _fits(value, args[0])
    if origin is tuple:
        return isinstance(value, (list, tuple)) and len(value) == len(args) and all(map(_fits, value, args))
    return (isinstance(value, (int, float) if hint is float else hint)
            and (hint is bool or not isinstance(value, bool))
            and (not isinstance(value, float) or math.isfinite(value)))


def _describe(hint) -> str:
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        return _describe(args[0])
    if origin is tuple:
        return f"{len(args)} numbers"
    return f"{'finite ' if hint is float else ''}{hint.__name__}"


def check_fields(config) -> None:
    """Refuse a dataclass whose field holds a value its type hint does not
    admit, naming the field.  Nothing is converted."""
    for name, hint in field_hints(type(config)):
        value = getattr(config, name)
        if not _fits(value, hint):
            raise ValueError(f"{name} must be {_describe(hint)}, got {value!r}")
