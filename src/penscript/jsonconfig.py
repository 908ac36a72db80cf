"""Where JSON enters the program: one parse, one shape check, one range check.

Labels lines, fold plans, config files and checkpoint headers all pass
through parse and check_object, so a fault reads the same in each:

    {what}: not JSON: {reason}
    {what} must be a JSON object, got {type}
    {what} is missing the key(s) {k1, k2}
    {what}: {key} must be {want}, got {value!r}
    {what}: {key}[{i}] must be an integer, got {entry!r}   (a list of integers)
    {what}: {key} must be in {interval}, got {value!r}     (Annotated kind; config via from_dict)
    {what} has unknown fields {names}                      (JsonConfig)
    {name} must be in {interval}, got {value!r}            (check_ranges)

A number is a float, or an int that float() can hold. A numeric field
declares its kind and interval once, as Annotated[int, "[1, inf)"]: the
interval text is both the rule and the message. NaN lies in no interval
and an open bound at inf keeps inf out. check_object checks every kind
before any interval; check_ranges applies the same rule to attributes.
Meaning checks (a known mode, an ordering of two fields) stay with the
reader that knows them.

JsonConfig gives the frozen config dataclasses to_dict/from_dict and a
__post_init__ that checks every declared interval. to_dict lists the
fields in declaration order, so a checkpoint header written from it does
not change when the code around it does; from_dict rejects unknown
fields, then checks the shape before that range check runs, and prefixes
a fault from it with what it read.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from functools import cache
from typing import Annotated, get_args, get_origin, get_type_hints


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


def _intervals(kinds: dict) -> dict[str, str]:
    """The interval text of each Annotated[kind, interval] entry of kinds."""
    return {key: get_args(kind)[1] for key, kind in kinds.items() if get_origin(kind) is Annotated}


def _outside(value, interval: str) -> bool:
    """True when value lies outside interval; NaN lies in no interval."""
    low, high = (float(bound) for bound in interval[1:-1].split(","))
    above = low <= value if interval[0] == "[" else low < value
    below = value <= high if interval[-1] == "]" else value < high
    return not (above and below)


def check_object(obj, what: str, kinds: dict) -> dict:
    """obj, once it is a JSON object holding every key of kinds with a value of its
    kind (a key of _ACCEPTS), inside the interval an Annotated kind adds; else a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    missing = [key for key in kinds if key not in obj]
    if missing:
        raise ValueError(f"{what} is missing the key(s) {', '.join(missing)}")
    intervals = _intervals(kinds)
    for key, kind in kinds.items():
        kind = get_args(kind)[0] if key in intervals else kind
        want, ok = _ACCEPTS[kind]
        value = obj[key]
        if ok(value):
            continue
        if kind == tuple[int, ...] and isinstance(value, list):
            # a list is named by its first bad entry, not printed whole
            i = next(i for i, v in enumerate(value) if not is_int(v))
            raise ValueError(f"{what}: {key}[{i}] must be an integer, got {value[i]!r}")
        raise ValueError(f"{what}: {key} must be {want}, got {value!r}")
    for key, interval in intervals.items():
        if _outside(obj[key], interval):
            raise ValueError(f"{what}: {key} must be in {interval}, got {obj[key]!r}")
    return obj


def check_ranges(obj, ranges: dict[str, str]) -> None:
    """A ValueError for the first attribute of obj, in the order of ranges,
    that lies outside its interval text, such as "[0, 1)" or "(0, inf)"."""
    for name, interval in ranges.items():
        value = getattr(obj, name)
        if _outside(value, interval):
            raise ValueError(f"{name} must be in {interval}, got {value!r}")


@cache
def _declared_ranges(cls) -> dict[str, str]:
    return _intervals(get_type_hints(cls, include_extras=True))


class JsonConfig:
    """Mixin giving a dataclass to_dict/from_dict over its own fields, and
    a range check of every field that declares Annotated[kind, interval]."""

    def __post_init__(self) -> None:
        check_ranges(self, _declared_ranges(type(self)))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict, what: str | None = None):
        """cls(**d) once d has the fields' shapes; a shape fault, or a range
        fault from the class's own check, names what, the class name by
        default."""
        what = cls.__name__ if what is None else what
        check_object(d, what, {})
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"{what} has unknown fields {sorted(extra)}")
        hints = get_type_hints(cls)
        kinds = {f.name: hints[f.name] for f in fields(cls) if f.name in d or f.default is MISSING}
        check_object(d, what, kinds)
        try:
            return cls(**d)
        except ValueError as exc:
            raise ValueError(f"{what}: {exc}") from None
