"""Conversion between the package's frozen dataclasses and plain data
(dicts, lists, numbers, strings) and its YAML, and the checks on their
values, both driven by the dataclass fields and their type annotations."""

from __future__ import annotations

import math
import typing
from dataclasses import field, fields, is_dataclass
from functools import cache

import numpy as np

from .errors import ConfigurationError


def read_yaml(path, what: str):
    """The YAML document (a ``what``) at ``path``, or ``ConfigurationError``."""
    import yaml   # here and in write_yaml only: a sweep, which writes no YAML, never imports it
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except (OSError, ValueError, yaml.YAMLError) as exc:   # ValueError: bad UTF-8, huge int
        raise ConfigurationError(f"cannot read {what} {path}: {exc}") from exc


def write_yaml(data, path) -> None:
    """``data`` from ``to_plain`` as block YAML at ``path``; a refused value opens no file."""
    import yaml
    text = yaml.safe_dump(data, sort_keys=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def to_plain(value):
    """Dataclasses as nested dicts, tuples as lists, numpy scalars as numbers."""
    if is_dataclass(value):
        return {f.name: to_plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [to_plain(x) for x in value]
    if isinstance(value, np.generic):
        return value.tolist()
    return value


def from_plain(cls, data, where: str):
    """Build dataclass ``cls`` from a plain mapping, rejecting unknown keys (a
    missing one takes its field's default); its own ``validate()`` judges each
    value, in an error naming ``where``."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {data!r}")
    hints = typing.get_type_hints(cls)
    unknown = [str(k) for k in data if k not in hints]
    if unknown:
        raise ConfigurationError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    values = {name: _typed(hints[name], value, f"{where}.{name}") for name, value in data.items()}
    try:
        return cls(**values)
    except ConfigurationError as exc:   # a nested block's error left above, prefixed once
        raise ConfigurationError(f"{where}: {exc}") from None


def _typed(hint, value, where: str):
    """``value`` shaped for the field type ``hint``: a mapping becomes a nested
    dataclass and a list a tuple; any other value is left for the class's
    ``validate()`` to judge."""
    if is_dataclass(hint):
        return from_plain(hint, value, where)
    return tuple(value) if isinstance(value, list) else value


def _is_integer(value) -> bool:
    """An int or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_count(name: str, value, high=math.inf) -> None:
    """Raise ``ConfigurationError`` unless ``value`` is an integer, not a bool, in [1, high]."""
    if not (_is_integer(value) and 1 <= value <= high):
        raise ConfigurationError(f"{name} must be an integer in [1, {high}], got {value!r}")


def _is_finite(value) -> bool:
    """A finite real number, not a bool; an int too large for a float is not."""
    try:
        return isinstance(value, (int, float, np.integer, np.floating)) \
            and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:
        return False


# annotation: (test, what a value must be, what grid entries must be, allowed under a bound)
_KINDS = {
    int: (_is_integer, "integer", "integers", "{} integers"),
    float: (_is_finite, "finite", "finite numbers", "finite and {} numbers"),
    bool: (lambda value: isinstance(value, bool), "a bool", "bools", None),
    str: (lambda value: isinstance(value, str), "a string", "strings", None),
}
_BOUNDS = {"positive": lambda value: value > 0, "nonnegative": lambda value: value >= 0}


def checked(default, bound: str | None = None, choices: tuple = ()):
    """A dataclass field that ``check_fields`` checks. The annotation gives
    the kind: ``int`` (not a bool), ``float`` (finite), ``bool`` or ``str``;
    ``X | None`` also allows None, and ``tuple[X, ...]`` is a grid, a
    nonempty tuple of distinct X. ``bound`` is "positive" or "nonnegative",
    and nonempty ``choices`` lists the allowed values."""
    return field(default=default, metadata={"check": (bound, choices)})


@cache
def _rules(cls) -> tuple:
    """(name, checks, allowed, floats) for each checked field of ``cls``, where ``checks``
    pairs what the value must be with its test, in order, and ``floats`` is a float kind."""
    hints = typing.get_type_hints(cls)
    rules = []
    for f in fields(cls):
        if "check" not in f.metadata:
            continue
        bound, choices = f.metadata["check"]
        args = typing.get_args(hints[f.name])   # of tuple[X, ...] or X | None
        grid = typing.get_origin(hints[f.name]) is tuple
        kind = args[0] if args else hints[f.name]
        test, one, many, under_bound = _KINDS[kind]
        checks = [(many if grid else one, test)]
        allowed = many
        if bound:
            checks.append((bound, _BOUNDS[bound]))
            allowed = under_bound.format(bound)
        if choices:
            checks.append(("among the choices", choices.__contains__))
            allowed = ", ".join(map(repr, choices))
        if grid:
            # the entry tests come first, so the entries are hashable; a
            # duplicate would be a second cell holding the same trials
            checks = [("a tuple", lambda value: isinstance(value, tuple)),
                      *((what, lambda value, t=t: all(map(t, value))) for what, t in checks),
                      ("nonempty and distinct", lambda value: 0 < len(value) == len(set(value)))]
            allowed = f"nonempty tuples of distinct {allowed}"
        if type(None) in args:
            checks = [(what, lambda value, t=t: value is None or t(value)) for what, t in checks]
            allowed += " or None"
        rules.append((f.name, tuple(checks), allowed, kind is float))
    return tuple(rules)


def check_fields(obj) -> None:
    """Raise ``ConfigurationError`` unless every field of dataclass ``obj``
    declared with ``checked`` keeps its rule; a float field's numbers become floats."""
    for name, checks, allowed, floats in _rules(type(obj)):
        value = getattr(obj, name)
        for what, test in checks:
            if not test(value):
                raise ConfigurationError(
                    f"{name} must be {what}, got {value!r}; allowed: {allowed}")
        if floats:   # as floats, -0.0 as 0.0, so equal configs write equal bytes
            object.__setattr__(obj, name, value if value is None else tuple(
                float(x) + 0.0 for x in value) if isinstance(value, tuple) else float(value) + 0.0)
