"""One declarative table per JSON input format, the one walker that checks them,
and the one parser that reads them.

A table is an `Object` of `Row`s. `walk` refuses the first value its table
does not allow by a ValueError that names the value's path. `loads` parses
JSON text and refuses an object that repeats a key.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple


def loads(text: str, source) -> Any:
    """Parse JSON text; an object that repeats a key is refused by a ValueError
    naming `source` and the key."""
    def distinct(pairs: list) -> dict:
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"{source}: repeated key {key!r}")
            seen.add(key)
        return dict(pairs)

    return json.loads(text, object_pairs_hook=distinct)


class Range(NamedTuple):
    """[low, high], or (low, high) where `open`."""

    low: float
    high: float = float("inf")
    open: bool = False

    def __str__(self):
        if self.high == float("inf"):
            return f">= {self.low}"
        return f"in ({self.low}, {self.high})" if self.open else f"in [{self.low}, {self.high}]"


class Value(NamedTuple):
    """A JSON scalar: an instance of `types` but not a bool, within `range` if given."""

    types: tuple
    phrase: str
    range: Range | None = None


INT = Value((int,), "an integer")
NUMBER = Value((int, float), "a number")
STRING = Value((str,), "a string")
COUNT = INT._replace(range=Range(1))


class Array(NamedTuple):
    """A JSON array of `item`s, each named `path[k]`; where `each` is given, of
    Values refused as a whole unless it holds only `each`."""

    item: Any
    phrase: str
    each: str | None = None


class Row(NamedTuple):
    """A key, its JSON type, whether it is required, whether null reads as the key
    left out, and the default it reads as when left out."""

    key: str
    kind: Any
    required: bool = False
    null: bool = False
    default: Any = None


class Object:
    """A JSON object of `rows`; its value at key k is named `child.format(k)`.

    A key of no row is refused unless `rest` is its type. A required key
    left out is refused as `missing.format(key)`, or else as a null.
    """

    def __init__(self, *rows: Row, child: str = "{}", rest=None, missing: str | None = None):
        self.rows, self.child, self.rest, self.missing = rows, child, rest, missing
        self.keys = frozenset(row.key for row in rows)
        self.named = [(row, child.format(row.key)) for row in rows]


class Forms(Object):
    """A JSON object of one of several forms: keys of no form are refused, then
    `pick(value)` names its form (or raises). A value of no form is refused by
    `key`, as left out or as none of the names of the forms that have it."""

    def __init__(self, pick: Callable[[dict], Any], forms: dict[str, Object], key: str = ""):
        super().__init__()
        self.pick, self.forms, self.key = pick, forms, key
        self.keys = frozenset().union(*(form.keys for form in forms.values()))


def walk(kind, value, path: str):
    """Refuse `value` unless `kind` allows it, by a ValueError naming `path`."""
    if isinstance(kind, Value):
        if isinstance(value, bool) or not isinstance(value, kind.types):
            raise ValueError(f"{path} must be {kind.phrase}, got {value!r}")
        r = kind.range
        if r is not None and not (r.low < value < r.high if r.open else r.low <= value <= r.high):
            raise ValueError(f"{path} must be {r}, got {value}")
    elif isinstance(kind, Array):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{path} must be {kind.phrase}, got {value!r}")
        if kind.each is None:
            for k, v in enumerate(value):
                walk(kind.item, v, f"{path}[{k}]")
        elif not set(map(type, value)) <= set(kind.item.types):  # one C-level pass
            for v in value:
                if isinstance(v, bool) or not isinstance(v, kind.item.types):
                    raise ValueError(f"{path} must hold only {kind.each}, got {v!r}")
    else:
        if not isinstance(value, dict):
            raise ValueError(f"{path} must be a JSON object, got {value!r}")
        if kind.rest is None and not value.keys() <= kind.keys:
            raise ValueError(f"unknown {path} key(s) {sorted(value.keys() - kind.keys)}")
        if isinstance(kind, Forms):
            form = kind.forms.get(kind.pick(value))
            if form is None:
                if kind.key not in value:
                    raise ValueError(f"{path} has no {kind.key!r} key")
                names = sorted(name for name, form in kind.forms.items() if kind.key in form.keys)
                raise ValueError(f"{path} key {kind.key!r} must be one of {names}, "
                                 f"got {value[kind.key]!r}")
            walk(form, value, path)
        for row, name in kind.named:
            if row.key in value:
                if value[row.key] is not None or not row.null:
                    walk(row.kind, value[row.key], name)
            elif row.required:
                if kind.missing is not None:
                    raise ValueError(kind.missing.format(row.key))
                walk(row.kind, None, name)
        for key, v in value.items() if kind.rest is not None else ():
            if key not in kind.keys:
                walk(kind.rest, v, kind.child.format(key))
