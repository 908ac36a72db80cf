"""Where JSON enters the program: one parse, one shape check, one range check.

Labels lines, fold plans, config files and checkpoint headers all pass
through parse and check_object, so a fault reads the same in each:

    {what}: not JSON: {reason}
    {what} must be a JSON object, got {type}
    {what} is missing the key(s) {k1, k2}
    {what}: {key} must be {want}, got {value!r}
    {what}: {key}[{i}] must be an integer, got {entry!r}   (a list of integers)
    {what} has unknown fields {names}                      (JsonConfig)
    {name} must be in {interval}, got {value!r}            (check_ranges)

A number is a float, or an int that float() can hold. check_ranges is
the one range rule of the config classes and Adam: each numeric field
declares an interval as text, such as "[0, 1)" or "(0, inf)", both the
rule and the message; NaN lies in no interval and an open bound at inf
keeps inf out. Meaning checks (a known mode, an ordering of two fields)
stay with the reader that knows them.

JsonConfig gives the frozen config dataclasses to_dict/from_dict.
to_dict lists the fields in declaration order, so a checkpoint header
written from it does not change when the code around it does; from_dict
rejects unknown fields, then checks the shape before the dataclass's own
range check runs.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from typing import get_type_hints


def is_int(v) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """True for a float, or for a JSON integer that float() can hold."""
    if not is_int(v):
        return isinstance(v, float)
    try:
        float(v)
    except OverflowError:
        return False
    return True


# value kind -> (what the error message asks for, accepted-value test)
_ACCEPTS = {
    int: ("an integer", is_int),
    float: ("a number", _is_number),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[int, ...]: (
        "a list of integers",
        lambda v: isinstance(v, (list, tuple)) and all(is_int(c) for c in v),
    ),
    list: ("a list", lambda v: isinstance(v, list)),
    dict: ("a JSON object", lambda v: isinstance(v, dict)),
}


def parse(text: str | bytes, what: str):
    """The JSON value of text; a ValueError naming what if it is not JSON."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8/16/32
        raise ValueError(f"{what}: not JSON: {exc}") from None


def check_object(obj, what: str, kinds: dict) -> dict:
    """obj, once it is a JSON object holding every key of kinds, each
    with a value of that kind (a key of _ACCEPTS); else a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in kinds if key not in obj]
    if missing:
        raise ValueError(f"{what} is missing the key(s) {', '.join(missing)}")
    for key, kind in kinds.items():
        want, ok = _ACCEPTS[kind]
        value = obj[key]
        if ok(value):
            continue
        if kind == tuple[int, ...] and isinstance(value, list):
            # a list is named by its first bad entry, not printed whole
            i = next(i for i, v in enumerate(value) if not is_int(v))
            raise ValueError(f"{what}: {key}[{i}] must be an integer, got {value[i]!r}")
        raise ValueError(f"{what}: {key} must be {want}, got {value!r}")
    return obj


def check_ranges(obj, ranges: dict[str, str]) -> None:
    """A ValueError for the first attribute of obj, in the order of ranges,
    that lies outside its interval, given as text such as "[0, 1)" or
    "(0, inf)"; NaN lies in no interval."""
    for name, interval in ranges.items():
        value = getattr(obj, name)
        low, high = (float(bound) for bound in interval[1:-1].split(","))
        above = low <= value if interval[0] == "[" else low < value
        below = value <= high if interval[-1] == "]" else value < high
        if not (above and below):
            raise ValueError(f"{name} must be in {interval}, got {value!r}")


class JsonConfig:
    """Mixin giving a dataclass to_dict/from_dict over its own fields."""

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, what: str | None = None):
        """cls(**d) once d has the fields' shapes; a shape fault names what,
        the class name by default."""
        what = cls.__name__ if what is None else what
        check_object(d, what, {})
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"{what} has unknown fields {sorted(extra)}")
        hints = get_type_hints(cls)
        kinds = {f.name: hints[f.name] for f in fields(cls) if f.name in d or f.default is MISSING}
        check_object(d, what, kinds)
        return cls(**d)
