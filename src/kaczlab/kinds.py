"""Self-describing kinds.

A sampling spec, stepsize policy or weight scheme names its JSON ``kind``
and writes its own JSON dict.  Each union keeps one registry, kind name to
class (or factory), which reads the dicts back and supplies the CLI's
choices.
"""

from __future__ import annotations

import dataclasses
import numbers
import typing
from typing import ClassVar


def _plain(value):
    """JSON-ready copy: tuples become (nested) lists."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


class Kind:
    """Mixin for frozen dataclasses registered under the class attribute
    ``kind``; the JSON dict is the kind plus every field."""

    kind: ClassVar[str]

    def to_dict(self) -> dict:
        fields = dataclasses.fields(self)
        return {"kind": self.kind} | {f.name: _plain(getattr(self, f.name)) for f in fields}


def registry(*classes: type[Kind]) -> dict[str, type[Kind]]:
    return {cls.kind: cls for cls in classes}


def number(value, name: str, kind: type):
    """``value`` of the field ``name`` as ``kind``, int or float.  A value
    that is not a number of that kind (a bool, a string, None, a fractional
    number for an int) raises ValueError naming the field."""
    numeric = numbers.Integral if kind is int else numbers.Real
    if isinstance(value, bool) or not isinstance(value, numeric):
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got {value!r}")
    return kind(value)


def number_field(doc: dict, name: str, kind: type, default=None):
    """``doc[name]`` (``default`` when absent) read by ``number``."""
    return number(doc.get(name, default), name, kind)


def from_kind_dict(kinds: dict, doc: dict, what: str, *args):
    """``kinds[doc["kind"]](*args, **other fields of doc)``.

    Fields annotated ``int`` or ``float`` are read with ``number_field``.
    A doc that is not a dict, an unknown kind, an unknown or missing field,
    or a value of the wrong type raises ``ValueError``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a {what} must be a JSON object, got {doc!r}")
    fields = dict(doc)
    kind = fields.pop("kind", None)
    if kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}; expected one of {', '.join(kinds)}")
    make = kinds[kind]
    hints = typing.get_type_hints(make) if isinstance(make, type) else {}
    try:
        fields = {k: number_field(fields, k, hints[k]) if hints.get(k) in (int, float) else v
                  for k, v in fields.items()}
        return make(*args, **fields)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} kind {kind!r}: {exc}") from exc
