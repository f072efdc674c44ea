"""The range a dataclass field declares in its metadata, and its check.

"ge", "gt" and "le" bound a number (each item of a list), "choices" lists
the allowed values, "min_len" bounds a list's length, "key" names the config
key where it differs from the field name, and "config": False marks a field
that the code sets, not the config (see config.py).
"""

import operator
from dataclasses import fields

from .errors import InputError

_BOUNDS = {"ge": (">=", operator.ge), "gt": (">", operator.gt), "le": ("<=", operator.le)}


def range_error(value, meta):
    """What puts a scalar outside the choices or bounds in meta, or None."""
    if "choices" in meta and value not in meta["choices"]:
        return f"{value!r} is not one of {meta['choices']}"
    for name, (sign, holds) in _BOUNDS.items():
        if name in meta and not holds(value, meta[name]):
            return f"{value!r} is not {sign} {meta[name]!r}"
    return None


def check_fields(obj):
    """Raise InputError unless every field of obj lies in its declared range."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        for item in value if isinstance(value, (list, tuple)) else [value]:
            problem = range_error(item, f.metadata)
            if problem:
                raise InputError(f"{type(obj).__name__}.{f.name}: {problem}")
