"""Canonical JSON serialization, digests, and the record codec.

Every artifact that gets hashed (genesis files, transactions, blocks,
clearing results) goes through the same canonical form: keys sorted,
no insignificant whitespace, UTF-8, lowercase hex digests, and no
``NaN`` or infinity, which JSON does not have. A record's fields are its
class's annotations, in order, and a class attribute of a field's name is
its default: one rule for a ``Record`` and a dataclass. Its document is
``{camelCase(field name): value}`` in field order: ``tx_id`` is ``txId``.

This module is SHA-256's one home in a node: ``sha256`` comes from the
interpreter's own module when it has one, as ``random`` takes its
``sha512``, so a node maps neither ``hashlib`` nor the OpenSSL library
under it.
"""

from __future__ import annotations

import functools
import json

try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

ZERO_DIGEST = "0" * 64
_NO_DEFAULT = object()  # the default of a field that has none


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return sha256(data).hexdigest()


def digest_of(obj: Any) -> str:
    return sha256_hex(canonical_json(obj))


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(map(str.capitalize, rest))


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str, Any], ...]:
    """(name, document key, default) of each field of a record class: its annotations, defaulted by its attributes.

    A dataclass keeps a field's default as its class attribute, and drops
    it for a ``default_factory``, so such a field's key is required.
    """
    return tuple((name, _camel(name), vars(cls).get(name, _NO_DEFAULT)) for name in cls.__annotations__)


class Record:
    """A frozen record: it compares, hashes and prints by its class and its field values, and ``replace`` copies it.

    A field with a default is keyword-only. ``__init__`` is compiled per
    class, as a dataclass's is: it sets each field in field order, so all
    records of a class share one key table, and it raises TypeError on a
    missing, doubled or unknown field.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = _fields(cls)
        defaults = {name: default for name, _, default in fields if default is not _NO_DEFAULT}
        params = [name for name, _, _ in fields if name not in defaults]
        if defaults:
            params += ["*", *(f"{name}=_defaults[{name!r}]" for name in defaults)]
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name, _, _ in fields)
        namespace = {"_defaults": defaults, "_set": object.__setattr__}
        exec(f"def __init__(self, {', '.join(params)}):{body}", namespace)
        cls.__init__ = namespace["__init__"]

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name, _, _ in _fields(type(self)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name, _, _ in _fields(type(self)))
        return f"{type(self).__qualname__}({values})"

    def replace(self, **changes: Any) -> Record:
        """A copy of this record with the given fields changed."""
        return type(self)(**{name: getattr(self, name) for name, _, _ in _fields(type(self))} | changes)


def document(record: Any, **nested: Any) -> dict:
    """The record's document; a keyword gives a field's value as it goes in, say its records' documents."""
    doc = {key: getattr(record, name) for name, key, _ in _fields(type(record))}
    for name, value in nested.items():
        doc[_camel(name)] = value
    return doc


def from_document(cls: type, data: dict, **nested: Any) -> Any:
    """The record of class ``cls`` that ``data`` holds; a keyword gives a field's value, say its records.

    A key absent from ``data`` raises KeyError, unless its field has a default.
    """
    values = {
        name: data[key] if default is _NO_DEFAULT else data.get(key, default) for name, key, default in _fields(cls)
    }
    return cls(**(values | nested))
