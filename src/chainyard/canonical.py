"""Canonical JSON serialization, digests, and the record codec.

Every artifact that gets hashed (genesis files, transactions, blocks,
clearing results) goes through the same canonical form: keys sorted,
no insignificant whitespace, UTF-8, lowercase hex digests. A record is
a dataclass whose document is ``{camelCase(field name): value}`` in
field order: ``tx_id`` is ``txId``.

This module is SHA-256's one home in a node: ``sha256`` comes from the
interpreter's own module when it has one, as ``random`` takes its
``sha512``, so a node maps neither ``hashlib`` nor the OpenSSL library
under it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import MISSING, fields

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


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return sha256(data).hexdigest()


def digest_of(obj: Any) -> str:
    return sha256_hex(canonical_json(obj))


def _camel(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(map(str.capitalize, rest))


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str, Any], ...]:
    """(name, document key, default) of each field of a record class."""
    return tuple((field.name, _camel(field.name), field.default) for field in fields(cls))


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
    values = {name: data[key] if default is MISSING else data.get(key, default) for name, key, default in _fields(cls)}
    return cls(**(values | nested))
