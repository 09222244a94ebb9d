"""The check that every configuration dataclass makes of its numbers."""

from __future__ import annotations

import dataclasses
import math


def require_finite(config) -> None:
    """Refuse a dataclass that holds a NaN or an infinity in a number field
    or in a tuple or list of numbers, naming the field."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        items = value if isinstance(value, (tuple, list)) else (value,)
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            raise ValueError(f"{f.name} must be finite, got {value!r}")
