"""Dictionary (de)serialisation shared by the frozen config dataclasses.

to_dict lists the fields in declaration order, so a checkpoint header
written from it does not change when the code around it does. from_dict
is where config files and checkpoint headers enter the program: it
rejects unknown fields and values of the wrong JSON type with a
ValueError that names the config and the field, before the dataclass's
own range checks run.
"""

from __future__ import annotations

from dataclasses import fields
from typing import get_type_hints


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# field type -> (what the error message asks for, accepted-value test)
_ACCEPTS = {
    int: ("an integer", _is_int),
    float: ("a number", lambda v: _is_int(v) or isinstance(v, float)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    tuple[int, ...]: (
        "a list of integers",
        lambda v: isinstance(v, (list, tuple)) and all(_is_int(c) for c in v),
    ),
}


class JsonConfig:
    """Mixin giving a dataclass to_dict/from_dict over its own fields."""

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ValueError(f"{name} must be a JSON object, got {type(d).__name__}")
        hints = get_type_hints(cls)
        extra = set(d) - {f.name for f in fields(cls)}
        if extra:
            raise ValueError(f"unknown {name} fields: {sorted(extra)}")
        for key, value in d.items():
            want, ok = _ACCEPTS[hints[key]]
            if not ok(value):
                raise ValueError(f"{name}.{key} must be {want}, got {value!r}")
        return cls(**d)
