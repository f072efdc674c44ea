"""The one check of a value against the type and range its field declares,
and the one check of a point batch (check_batch).

"ge", "gt" and "le" bound a number (each item of a list), "choices" lists
the allowed values, "min_len" bounds a list's length, "key" names the config
key where it differs from the field name, and "config": False marks a field
that the code sets, not the config (see config.py).
"""

import math
import operator
from dataclasses import fields
from typing import get_args, get_origin

import numpy as np

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


def check_value(value, kind, meta, path, error=InputError):
    """Raise error("<path>: <problem>") unless value fits a field of type kind
    and metadata meta; item i of a list is path.i. Types are exact: a bool is
    not an int and 1.0 is not an int, but an int is a float. A float is finite."""
    if get_origin(kind) in (list, tuple):
        if not isinstance(value, (list, tuple)):
            raise error(f"{path}: {value!r} is not a list")
        if len(value) < meta.get("min_len", 0):
            raise error(f"{path}: {value!r} has fewer than {meta['min_len']} items")
        for i, item in enumerate(value):
            check_value(item, get_args(kind)[0], {**meta, "min_len": 0}, f"{path}.{i}", error)
    elif not (type(value) is kind or (kind is float and type(value) is int)):
        raise error(f"{path}: {value!r} is not of type {kind.__name__}")
    elif kind is float and not math.isfinite(value):
        raise error(f"{path}: {value!r} is not finite")
    elif problem := range_error(value, meta):
        raise error(f"{path}: {problem}")


def check_values(values, cls, name):
    """Raise InputError unless values[f] fits each field f of the dataclass cls."""
    for f in fields(cls):
        check_value(values[f.name], f.type, f.metadata, f"{name}.{f.name}")


def check_fields(obj):
    """Raise InputError unless every field of obj fits its declared type and
    range, as check_value checks it; a field whose default is None (an
    optional object or path) is left to its reader."""
    for f in fields(obj):
        if f.default is not None:
            check_value(getattr(obj, f.name), f.type, f.metadata,
                        f"{type(obj).__name__}.{f.name}")


def check_batch(x, name="x", dim=None):
    """x as a C-contiguous float64 (n, d) batch of finite values, d = dim if given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or (dim is not None and x.shape[1] != dim):
        raise InputError(f"{name} must have shape (n, {dim or 'd'}), got {x.shape}")
    if not np.isfinite(x).all():
        raise InputError(f"{name} holds a non-finite value (nan or inf)")
    return np.ascontiguousarray(x)
