"""One strict JSON loader for the frozen dataclasses the package reads back:
the run config and the method and dims headers of a model bundle.

`from_json` takes the keys, types and defaults from the dataclass
itself, so no field is described twice.  It refuses unknown keys and
missing required ones, and checks each present value against its
annotation:

  int             a JSON integer, never a boolean
  float           a JSON number (an integer is widened), never non-finite
  bool, str       exactly that JSON type
  tuple[X, ...]   a JSON list whose items are X
  a dataclass     a JSON object, loaded the same way

Then it calls the constructor, so each type's `__post_init__` keeps its
own range rules.  Every refusal is a ConfigurationError.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from .errors import ConfigurationError


def from_json(cls, payload, where: str):
    """An instance of dataclass `cls` from a parsed JSON value; `where`
    names the value in error messages (nested values get dotted paths)."""
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.init}
    unknown = sorted(set(payload) - set(fields))
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {unknown}")
    missing = [name for name, f in fields.items() if name not in payload
               and f.default is dataclasses.MISSING
               and f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigurationError(f"{where} is missing keys {missing}")
    hints = typing.get_type_hints(cls)
    return cls(**{name: _value(hints[name], value, f"{where}.{name}")
                  for name, value in payload.items()})


def _value(tp, value, where: str):
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
    if typing.get_origin(tp) is tuple:
        item, _ = typing.get_args(tp)
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be a list, got {type(value).__name__}")
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if tp is float and type(value) is int:
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if not isinstance(value, tp) or isinstance(value, bool) and tp is not bool:
        raise ConfigurationError(f"{where} must be {tp.__name__}, got {type(value).__name__}")
    if tp is float and not math.isfinite(value):
        raise ConfigurationError(f"{where} must be a finite number, got {value}")
    return value
