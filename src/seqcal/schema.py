"""Every file a stage reads or writes goes through this module.  It holds
one strict JSON loader for what a stage reads back (the run config, the
vocabulary, the split and prediction JSONL files, whole model bundles)
and one atomic writer for everything a stage leaves in the run directory.

`parse_json` is the package's only JSON parse.  Bad syntax, text that is
not UTF-8 and nesting too deep for the parser are one refusal.

`from_json` takes the keys, types and defaults from a dataclass itself,
so no field is described twice.  It refuses unknown keys and missing
required ones, and checks each present value against its annotation:

  int             a JSON integer, never a boolean
  float           a JSON number (an integer is widened), never non-finite
  bool, str       exactly that JSON type
  tuple[X, ...]   a JSON list whose items are X
  np.ndarray      {"shape": [d0, d1, ...], "f8": base64 text}: the shape
                  a list of non-negative ints, the text the array's
                  C-order little-endian float64 bytes, exactly 8 per
                  element and all finite; returned as a writable native
                  float64 array, its shape the caller's to check
  X | None        null, or a value of X
  a dataclass     a JSON object, loaded the same way

Then it calls the constructor, so each type's `__post_init__` keeps its
own range rules.  Every refusal of these two is a ConfigurationError.
`to_json` is its inverse: a dataclass becomes an object of its init
fields in declaration order, a tuple a list, an array its shape and
bytes.  Arrays travel as raw IEEE-754 bytes, so no element becomes a
Python float or a decimal string on either side, and every bit of every
element, a negative zero's sign included, survives the round trip.  The
byte count is checked against the shape on Python ints before the array
is allocated.

`read_jsonl` loads one dataclass per non-blank line of a JSONL file and
requires a non-empty `id` that is unique in the file.  Each of its
refusals is a ParseError that names the line.

`write_text` is the package's only file write.  It writes UTF-8 with
LF line ends to a temp file beside the target and renames it over the
target only once the last chunk is written, so a stage that fails leaves
the previous file or none, never a partial one.  `write_jsonl` is the
inverse of `read_jsonl` and refuses an empty or duplicate id before
writing.
"""

from __future__ import annotations

import base64
import dataclasses
import functools
import json
import math
import os
import typing

import numpy as np

from .errors import ConfigurationError, ParseError, ValidationError


def parse_json(data: bytes, where: str):
    """`data` read as UTF-8 and parsed as JSON; `where` names it in the
    error message."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad syntax or UTF-8, too deep
        raise ConfigurationError(f"{where} is not valid JSON: {exc}") from exc


@functools.cache
def _fields(cls) -> tuple[dict, tuple[str, ...]]:
    """The init fields of dataclass `cls` as {name: annotation}, and the
    names of those without a default."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.init]
    required = tuple(f.name for f in fields if f.default is dataclasses.MISSING
                     and f.default_factory is dataclasses.MISSING)
    return {f.name: hints[f.name] for f in fields}, required


def from_json(cls, payload, where: str):
    """An instance of dataclass `cls` from a parsed JSON value; `where`
    names the value in error messages (nested values get dotted paths)."""
    if not isinstance(payload, dict):
        raise ConfigurationError(f"{where} must be a JSON object")
    types, required = _fields(cls)
    unknown = sorted(payload.keys() - types.keys())
    if unknown:
        raise ConfigurationError(f"{where} has unknown keys {unknown}")
    missing = [name for name in required if name not in payload]
    if missing:
        raise ConfigurationError(f"{where} is missing keys {missing}")
    return cls(**{name: _value(types[name], value, f"{where}.{name}")
                  for name, value in payload.items()})


@functools.cache
def _tuple_item(tp):
    """X for the annotation tuple[X, ...], None for any other."""
    return typing.get_args(tp)[0] if typing.get_origin(tp) is tuple else None


@functools.cache
def _optional(tp):
    """X for the annotation X | None, None for any other."""
    args = typing.get_args(tp)
    return args[0] if len(args) == 2 and args[1] is type(None) else None


@dataclasses.dataclass(frozen=True)
class _F8Array:
    """An array as stored: its shape, and base64 of its C-order
    little-endian float64 bytes."""

    shape: tuple[int, ...]
    f8: str


def _array(value, where: str) -> np.ndarray:
    if not isinstance(value, dict):
        raise ConfigurationError(f'{where} must be a regular array of numbers stored as '
                                 f'{{"shape", "f8"}}, got {type(value).__name__}')
    stored = from_json(_F8Array, value, where)
    shape = stored.shape
    if any(n < 0 for n in shape):
        raise ConfigurationError(f"{where}.shape must hold non-negative ints, got {list(shape)}")
    try:
        data = base64.b64decode(stored.f8, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ConfigurationError(f"{where}.f8 is not valid base64: {exc}") from exc
    if len(data) != 8 * math.prod(shape):
        raise ConfigurationError(f"{where}.f8 holds {len(data)} bytes, expected 8 per "
                                 f"element of shape {list(shape)}")
    # The copy makes the array writable and native-endian.
    arr = np.frombuffer(data, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"{where} must hold finite numbers only")
    return arr


def _value(tp, value, where: str):
    inner = _optional(tp)
    if inner is not None:
        return None if value is None else _value(inner, value, where)
    if tp is np.ndarray:
        return _array(value, where)
    item = _tuple_item(tp)
    if item is not None:
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be a list, got {type(value).__name__}")
        # The common case in one pass; the per-item path names a bad item.
        if all(type(v) is item for v in value) and (
                item is not float or all(map(math.isfinite, value))):
            return tuple(value)
        return tuple(_value(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(tp):
        return from_json(tp, value, where)
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


def to_json(obj):
    """The JSON value `from_json` reads back as `obj`."""
    if dataclasses.is_dataclass(obj):
        return {f.name: to_json(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.init}
    if isinstance(obj, np.ndarray):
        data = base64.b64encode(np.ascontiguousarray(obj, dtype="<f8"))
        return {"shape": list(obj.shape), "f8": data.decode("ascii")}
    if isinstance(obj, tuple):
        return [to_json(v) for v in obj]
    return obj


def _check_id(rec, seen: set) -> None:
    """Refuse a record whose id is empty or in `seen`, else add it."""
    if not rec.id:
        raise ValidationError("record.id must be a non-empty string")
    if rec.id in seen:
        raise ValidationError(f"duplicate id {rec.id!r}")
    seen.add(rec.id)


def read_jsonl(path, cls, check=None) -> list:
    """One `cls` per non-blank line of the JSONL file at `path`.  Line
    numbers count every line the way text-mode reading splits them.
    `check(record)`, when given, may refuse a record that needs context
    its class does not hold by raising ValidationError."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    records = []
    seen = set()
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = from_json(cls, parse_json(line, "record"), "record")
            _check_id(rec, seen)
            if check is not None:
                check(rec)
        except (ConfigurationError, ValidationError) as exc:
            raise ParseError(f"{path}: {exc}", line=line_no) from exc
        records.append(rec)
    return records


def write_text(path, chunks) -> None:
    """Write the strings `chunks` to `path` as UTF-8 with LF line ends,
    through a temp file beside it that replaces `path` only after the last
    chunk is written.  On any failure the temp file is removed and `path`
    is left as it was."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:  # never created, or not a file
            pass
        raise


def write_jsonl(path, records) -> None:
    """One compact JSON object per dataclass in `records`, the file
    `read_jsonl` reads back; an empty or duplicate id is refused before
    `path` is touched.  A record's fields must be JSON values or tuples of
    them: `vars` gives the same bytes as `to_json` at a quarter of the
    cost."""
    records = tuple(records)
    seen = set()
    for rec in records:
        _check_id(rec, seen)
    write_text(path, (json.dumps(vars(rec), separators=(",", ":")) + "\n"
                      for rec in records))
