"""Network-definition DSL: parsing, schema checks, and consistency validation.

A network document is UTF-8 JSON with a fixed schema (unknown keys are
rejected so test networks stay reproducible). Parsing yields a
``NetworkConfig`` that mirrors the document; ``validate`` then reports
relational violations (port conflicts, duplicate names, ...) as data
rather than exceptions.

Each object of the document is declared once, as a table of (key,
attribute, check) rows that both parsing and serializing read.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Iterable

IDENTIFIER_RE = re.compile(r"^[A-Za-z0-9_-]+$")
CLIENT_ROLES = ("prosumer", "dso")
PORT_MIN = 1024
PORT_MAX = 65535
RESERVED_PUBLIC_CHAIN_IDS = range(1, 5)


class ConfigParseError(ValueError):
    """Malformed document (bad JSON), with line/column context."""


class ConfigSchemaError(ValueError):
    """Missing required key, wrong value type, or unknown key."""


class NodeNotFound(LookupError):
    pass


@dataclass(frozen=True)
class GenesisParams:
    chain_id: int
    difficulty: int
    gas_limit: int
    balance: int


@dataclass(frozen=True)
class NodeSpec:
    name: str
    role: str  # prosumer | dso | miner
    host: str
    blockchain_port: int
    admin_port: int
    wrapper_port: int | None = None  # absent for miners

    def ports(self) -> tuple[int, ...]:
        if self.wrapper_port is None:
            return (self.blockchain_port, self.admin_port)
        return (self.blockchain_port, self.admin_port, self.wrapper_port)


@dataclass(frozen=True)
class NetworkConfig:
    configuration_name: str
    configuration_version: str
    genesis: GenesisParams
    clients: tuple[NodeSpec, ...]
    miners: tuple[NodeSpec, ...]

    def all_nodes(self) -> tuple[NodeSpec, ...]:
        return self.clients + self.miners


@dataclass(frozen=True)
class ValidationIssue:
    code: str
    message: str
    nodes: tuple[str, ...] = ()


@dataclass
class ValidationReport:
    errors: list[ValidationIssue] = field(default_factory=list)
    warnings: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


Check = Callable[[Any, str, str], Any]  # (value, where, key) -> the value parsed, or ConfigSchemaError
Fields = tuple[tuple[str, str, Check], ...]  # (document key, attribute, check) of each key of an object, in order


def _kind(test: Callable[[Any], bool], kind: str) -> Check:
    """The check that passes each value for which test holds, and says of any other that it must be kind."""

    def check(value: Any, where: str, key: str) -> Any:
        if not test(value):
            raise ConfigSchemaError(f"{where}: {key} must be {kind}")
        return value

    return check


# type(v) is int, not isinstance: a boolean is an int to isinstance, and here always a mistake
_string = _kind(lambda v: isinstance(v, str), "a string")
_port = _kind(lambda v: type(v) is int, "an integer port")
_positive = _kind(lambda v: type(v) is int and v >= 1, "a positive integer")
_non_negative = _kind(lambda v: type(v) is int and v >= 0, "a non-negative integer")
_array = _kind(lambda v: isinstance(v, list), "an array")


def _role(value: Any, where: str, key: str) -> str:
    if _string(value, where, key) not in CLIENT_ROLES:
        raise ConfigSchemaError(f"{where}: {key} must be one of {CLIENT_ROLES}, got {value!r}")
    return value


@dataclass(frozen=True)
class _Objects:
    """The check of an array of objects that one table describes: it makes one node of each; write renders them."""

    table: Fields
    make: Callable[..., NodeSpec]

    def __call__(self, value: Any, where: str, key: str) -> tuple[NodeSpec, ...]:
        return tuple(self.make(**_read(e, self.table, f"{key}[{i}]")) for i, e in enumerate(_array(value, where, key)))

    def write(self, nodes: Iterable[dict[str, Any]]) -> list[dict[str, Any]]:
        return [_write(node, self.table) for node in nodes]


_MINER: Fields = (
    ("name", "name", _string),
    ("host", "host", _string),
    ("blockchainPort", "blockchain_port", _port),
    ("adminPort", "admin_port", _port),
)
_CLIENT: Fields = (_MINER[0], ("role", "role", _role), *_MINER[1:], ("wrapperPort", "wrapper_port", _port))
_DOCUMENT: Fields = (
    ("configurationName", "configuration_name", _string),
    ("configurationVersion", "configuration_version", _string),
    ("chainID", "chain_id", _positive),
    ("difficulty", "difficulty", _positive),
    ("gasLimit", "gas_limit", _positive),
    ("balance", "balance", _non_negative),
    ("clients", "clients", _Objects(_CLIENT, NodeSpec)),
    ("miners", "miners", _Objects(_MINER, functools.partial(NodeSpec, role="miner"))),
)


def _read(obj: Any, table: Fields, where: str) -> dict[str, Any]:
    """Each attribute's value in the document object obj, checked: an unknown key, then a missing one, fails first."""
    if not isinstance(obj, dict):
        raise ConfigSchemaError(f"{where}: must be an object")
    keys = [key for key, _, _ in table]
    unknown, missing = [k for k in obj if k not in keys], [k for k in keys if k not in obj]
    if unknown or missing:
        what = f"unknown key {unknown[0]!r}" if unknown else f"missing required key {missing[0]!r}"
        raise ConfigSchemaError(f"{where}: {what}")
    return {attr: check(obj[key], where, key) for key, attr, check in table}


def _write(values: dict[str, Any], table: Fields) -> dict[str, Any]:
    """The document object of values (attribute -> value), its keys in table order."""
    return {
        key: check.write(values[attr]) if isinstance(check, _Objects) else values[attr] for key, attr, check in table
    }


def parse_config(text: str) -> NetworkConfig:
    """Parse a configuration document into a NetworkConfig mirroring it exactly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"malformed document: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ConfigSchemaError("document root must be an object")
    values = _read(doc, _DOCUMENT, "document")
    genesis = GenesisParams(**{f.name: values.pop(f.name) for f in fields(GenesisParams)})
    return NetworkConfig(genesis=genesis, **values)


def serialize_config(config: NetworkConfig) -> str:
    """Render a NetworkConfig back into the document format (round-trip safe)."""
    values = {**asdict(config), **asdict(config.genesis)}
    return json.dumps(_write(values, _DOCUMENT), indent=2) + "\n"


def load_config(path: str | Path) -> NetworkConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))


def validate(config: NetworkConfig) -> ValidationReport:
    """Check internal consistency before any deployment is attempted.

    Violations are data, not failures: one error per violation,
    deduplicated by (code, node set), sorted by code then node names.
    """
    errors: set[ValidationIssue] = set()
    warnings: list[ValidationIssue] = []

    name = config.configuration_name
    if not name or not IDENTIFIER_RE.match(name):
        errors.add(
            ValidationIssue(
                "CONFIG_NAME_INVALID",
                f"configurationName {name!r} must be non-empty and use only [A-Za-z0-9_-]",
            )
        )
    if not config.clients:
        errors.add(ValidationIssue("NO_CLIENTS", "a network needs at least one client"))
    if not config.miners:
        errors.add(ValidationIssue("NO_MINERS", "a network needs at least one miner"))

    seen: dict[str, str] = {}
    for node in config.all_nodes():
        if not node.name or not IDENTIFIER_RE.match(node.name):
            errors.add(
                ValidationIssue(
                    "NODE_NAME_INVALID",
                    f"node name {node.name!r} must be non-empty and use only [A-Za-z0-9_-]",
                    (node.name,),
                )
            )
        if node.name in seen:
            errors.add(
                ValidationIssue(
                    "NAME_DUPLICATE",
                    f"node name {node.name!r} is used more than once",
                    (node.name,),
                )
            )
        seen[node.name] = node.role

        for port in node.ports():
            if not (PORT_MIN <= port <= PORT_MAX):
                errors.add(
                    ValidationIssue(
                        "PORT_RANGE",
                        f"node {node.name!r}: port {port} outside {PORT_MIN}-{PORT_MAX}",
                        (node.name,),
                    )
                )
        if len(set(node.ports())) != len(node.ports()):
            errors.add(
                ValidationIssue(
                    "PORT_REUSE_IN_NODE",
                    f"node {node.name!r} declares the same port more than once",
                    (node.name,),
                )
            )

    # Cross-node conflicts: any two nodes claiming the same (host, port).
    endpoints: dict[tuple[str, int], set[str]] = {}
    for node in config.all_nodes():
        for port in set(node.ports()):
            endpoints.setdefault((node.host, port), set()).add(node.name)
    for (host, port), names in endpoints.items():
        if len(names) < 2:
            continue
        for pair in _unordered_pairs(sorted(names)):
            errors.add(
                ValidationIssue(
                    "PORT_CONFLICT",
                    f"nodes {pair[0]!r} and {pair[1]!r} both request port {port} on host {host!r}",
                    pair,
                )
            )

    if config.genesis.chain_id in RESERVED_PUBLIC_CHAIN_IDS:
        warnings.append(
            ValidationIssue(
                "CHAIN_ID_RESERVED",
                f"chainID {config.genesis.chain_id} is a reserved public blockchain id (1-4)",
            )
        )

    # Deduplicate PORT_CONFLICT by (code, node pair): two nodes colliding on
    # several endpoints still count as one conflict. Sort before deduping so
    # the surviving message is deterministic.
    deduped: dict[tuple[str, tuple[str, ...]], ValidationIssue] = {}
    for issue in sorted(errors, key=lambda i: (i.code, i.nodes, i.message)):
        deduped.setdefault((issue.code, issue.nodes), issue)
    return ValidationReport(errors=list(deduped.values()), warnings=warnings)


def node_lookup(config: NetworkConfig, name: str) -> NodeSpec:
    for node in config.all_nodes():
        if node.name == name:
            return node
    raise NodeNotFound(f"no node named {name!r} in configuration {config.configuration_name!r}")


def _unordered_pairs(items: list[str]) -> list[tuple[str, str]]:
    return [(items[i], items[j]) for i in range(len(items)) for j in range(i + 1, len(items))]
