"""Network-definition DSL: parsing, schema checks, and consistency validation.

A network document is UTF-8 JSON with a fixed schema (unknown keys are
rejected so test networks stay reproducible). Parsing yields a
``NetworkConfig`` that mirrors the document; ``validate`` then reports
relational violations (port conflicts, duplicate names, ...) as data
rather than exceptions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

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


def _expect_keys(obj: dict, required: tuple[str, ...], where: str) -> None:
    for key in obj:
        if key not in required:
            raise ConfigSchemaError(f"{where}: unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ConfigSchemaError(f"{where}: missing required key {key!r}")


def _get_str(obj: dict, key: str, where: str) -> str:
    value = obj[key]
    if not isinstance(value, str):
        raise ConfigSchemaError(f"{where}: {key} must be a string")
    return value


def _get_int(obj: dict, key: str, where: str, minimum: int) -> int:
    value = obj[key]
    # bool is an int subclass; a boolean here is always a mistake
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        kind = "non-negative integer" if minimum == 0 else "positive integer"
        raise ConfigSchemaError(f"{where}: {key} must be a {kind}")
    return value


def _get_port(obj: dict, key: str, where: str) -> int:
    value = obj[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigSchemaError(f"{where}: {key} must be an integer port")
    return value


def _parse_client(entry: object, index: int) -> NodeSpec:
    where = f"clients[{index}]"
    if not isinstance(entry, dict):
        raise ConfigSchemaError(f"{where}: must be an object")
    _expect_keys(entry, ("name", "role", "host", "blockchainPort", "adminPort", "wrapperPort"), where)
    role = _get_str(entry, "role", where)
    if role not in CLIENT_ROLES:
        raise ConfigSchemaError(f"{where}: role must be one of {CLIENT_ROLES}, got {role!r}")
    return NodeSpec(
        name=_get_str(entry, "name", where),
        role=role,
        host=_get_str(entry, "host", where),
        blockchain_port=_get_port(entry, "blockchainPort", where),
        admin_port=_get_port(entry, "adminPort", where),
        wrapper_port=_get_port(entry, "wrapperPort", where),
    )


def _parse_miner(entry: object, index: int) -> NodeSpec:
    where = f"miners[{index}]"
    if not isinstance(entry, dict):
        raise ConfigSchemaError(f"{where}: must be an object")
    _expect_keys(entry, ("name", "host", "blockchainPort", "adminPort"), where)
    return NodeSpec(
        name=_get_str(entry, "name", where),
        role="miner",
        host=_get_str(entry, "host", where),
        blockchain_port=_get_port(entry, "blockchainPort", where),
        admin_port=_get_port(entry, "adminPort", where),
        wrapper_port=None,
    )


def parse_config(text: str) -> NetworkConfig:
    """Parse a configuration document into a NetworkConfig mirroring it exactly."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigParseError(f"malformed document: {exc.msg} at line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ConfigSchemaError("document root must be an object")
    _expect_keys(
        doc,
        (
            "configurationName",
            "configurationVersion",
            "chainID",
            "difficulty",
            "gasLimit",
            "balance",
            "clients",
            "miners",
        ),
        "document",
    )
    genesis = GenesisParams(
        chain_id=_get_int(doc, "chainID", "document", minimum=1),
        difficulty=_get_int(doc, "difficulty", "document", minimum=1),
        gas_limit=_get_int(doc, "gasLimit", "document", minimum=1),
        balance=_get_int(doc, "balance", "document", minimum=0),
    )
    if not isinstance(doc["clients"], list):
        raise ConfigSchemaError("document: clients must be an array")
    if not isinstance(doc["miners"], list):
        raise ConfigSchemaError("document: miners must be an array")
    clients = tuple(_parse_client(entry, i) for i, entry in enumerate(doc["clients"]))
    miners = tuple(_parse_miner(entry, i) for i, entry in enumerate(doc["miners"]))
    return NetworkConfig(
        configuration_name=_get_str(doc, "configurationName", "document"),
        configuration_version=_get_str(doc, "configurationVersion", "document"),
        genesis=genesis,
        clients=clients,
        miners=miners,
    )


def serialize_config(config: NetworkConfig) -> str:
    """Render a NetworkConfig back into the document format (round-trip safe)."""
    doc = {
        "configurationName": config.configuration_name,
        "configurationVersion": config.configuration_version,
        "chainID": config.genesis.chain_id,
        "difficulty": config.genesis.difficulty,
        "gasLimit": config.genesis.gas_limit,
        "balance": config.genesis.balance,
        "clients": [
            {
                "name": c.name,
                "role": c.role,
                "host": c.host,
                "blockchainPort": c.blockchain_port,
                "adminPort": c.admin_port,
                "wrapperPort": c.wrapper_port,
            }
            for c in config.clients
        ],
        "miners": [
            {
                "name": m.name,
                "host": m.host,
                "blockchainPort": m.blockchain_port,
                "adminPort": m.admin_port,
            }
            for m in config.miners
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


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
