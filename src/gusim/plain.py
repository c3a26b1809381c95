"""Conversion between the package's frozen dataclasses and plain data
(dicts, lists, numbers, strings) ready for YAML, driven by the dataclass
fields and their type annotations."""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

from .errors import ConfigurationError


def to_plain(value):
    """Dataclasses as nested dicts, tuples and arrays as lists."""
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_plain(x) for x in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def from_plain(cls, data, where: str):
    """Build dataclass ``cls`` from a plain mapping, rejecting unknown and
    missing keys and values that do not match the field types."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = [str(k) for k in data if k not in hints]
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    missing = [f.name for f in fields(cls) if f.name not in data
               and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ConfigurationError(f"missing key(s) in {where}: {', '.join(missing)}")
    return cls(**{name: _typed(hints[name], value, f"{where}.{name}")
                  for name, value in data.items()})


def _typed(hint, value, where: str):
    """``value`` checked against the field type ``hint``; ints are accepted
    for floats, lists for tuples, and nested lists of numbers for float
    arrays, which come back read-only."""
    if is_dataclass(hint):
        return from_plain(hint, value, where)
    if hint is np.ndarray:
        try:
            array = np.array(value) if isinstance(value, list) else None
        except ValueError:  # ragged nesting
            array = None
        if array is None or array.dtype.kind not in "iuf":
            raise ConfigurationError(
                f"{where} must be a nested list of numbers, got {value!r}")
        array = array.astype(float)
        array.setflags(write=False)
        return array
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = [a for a in args if a is not type(None)]
        return _typed(hint, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigurationError(f"{where} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ConfigurationError(f"{where} must have {len(args)} entries, got {value!r}")
        return tuple(_typed(t, x, f"{where}[{i}]")
                     for i, (t, x) in enumerate(zip(args, value)))
    is_bool = isinstance(value, bool)
    if hint is float and isinstance(value, int) and not is_bool:
        return float(value)
    if not isinstance(value, hint) or (is_bool and hint is not bool):
        raise ConfigurationError(f"{where} must be {hint.__name__}, got {value!r}")
    return value
