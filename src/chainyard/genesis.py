"""The deterministic first block, and the artifacts that distribute it.

Accounts are derived from (configuration name, node name) so every
component can recompute them from the network document alone; no key
material is stored anywhere. The genesis file is canonical JSON, making
byte-identical distribution and cross-host hash verification possible.
"""

from __future__ import annotations

import json
from pathlib import Path

from .canonical import Record, canonical_json, sha256_hex

TYPE_CHECKING = False
if TYPE_CHECKING:  # a node process reads genesis files and never imports the DSL
    from .dsl import NetworkConfig

ACCOUNT_DOMAIN_PREFIX = b"testnet-account-v1:"
GENESIS_FILE = "genesis.json"  # its name in the workspace and in every node directory


class InvalidConfig(ValueError):
    """make_genesis was called on a config that fails validation."""


class GenesisFormatError(ValueError):
    """Genesis file is not a well-formed canonical genesis document."""


class HashMismatch(ValueError):
    """Stored genesis hash does not match the recomputed content digest."""


def derive_account(configuration_name: str, node_name: str) -> str:
    """Derive a node's account id: sha256 over a domain-separated name pair."""
    if not configuration_name or not node_name:
        raise ValueError("configuration_name and node_name must be non-empty")
    material = ACCOUNT_DOMAIN_PREFIX + configuration_name.encode("utf-8") + b":" + node_name.encode("utf-8")
    return sha256_hex(material)


class GenesisDocument(Record):
    chain_id: int
    difficulty: int
    gas_limit: int
    allocations: dict[str, int]  # account hex -> starting balance
    genesis_hash: str

    @classmethod
    def from_config(cls, config: NetworkConfig) -> "GenesisDocument":
        """Build the genesis document of a config that has passed validation: one allocation per node."""
        allocations = {
            derive_account(config.configuration_name, node.name): config.genesis.balance
            for node in config.all_nodes()
        }
        doc = cls(
            chain_id=config.genesis.chain_id,
            difficulty=config.genesis.difficulty,
            gas_limit=config.genesis.gas_limit,
            allocations=allocations,
            genesis_hash="",
        )
        return doc.replace(genesis_hash=doc.content_hash())

    def body(self) -> dict:
        return {
            "chainId": self.chain_id,
            "difficulty": self.difficulty,
            "gasLimit": self.gas_limit,
            "alloc": dict(sorted(self.allocations.items())),
        }

    def content_hash(self) -> str:
        """The digest genesisHash must equal: SHA-256 of the canonical body."""
        return sha256_hex(canonical_json(self.body()))

    def to_file_bytes(self) -> bytes:
        doc = self.body()
        doc["genesisHash"] = self.genesis_hash
        return canonical_json(doc)

    def total_supply(self) -> int:
        return sum(self.allocations.values())


def make_genesis(config: NetworkConfig) -> GenesisDocument:
    """Validate the config, then build its genesis document: one allocation per client and per miner."""
    from .dsl import validate

    report = validate(config)
    if not report.ok:
        codes = ", ".join(issue.code for issue in report.errors)
        raise InvalidConfig(f"config {config.configuration_name!r} has validation errors: {codes}")
    return GenesisDocument.from_config(config)


def write_genesis(doc: GenesisDocument, path: str | Path) -> None:
    Path(path).write_bytes(doc.to_file_bytes())


def read_genesis(path: str | Path) -> GenesisDocument:
    raw = Path(path).read_bytes()
    try:
        parsed = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise GenesisFormatError(f"{path}: not a valid genesis document: {exc.msg}") from exc
    if not isinstance(parsed, dict):
        raise GenesisFormatError(f"{path}: genesis document must be an object")
    for key in ("chainId", "difficulty", "gasLimit", "alloc", "genesisHash"):
        if key not in parsed:
            raise GenesisFormatError(f"{path}: missing key {key!r}")
    alloc = parsed["alloc"]
    if not isinstance(alloc, dict) or not all(isinstance(v, int) for v in alloc.values()):
        raise GenesisFormatError(f"{path}: alloc must map accounts to integer balances")
    doc = GenesisDocument(
        chain_id=parsed["chainId"],
        difficulty=parsed["difficulty"],
        gas_limit=parsed["gasLimit"],
        allocations=dict(alloc),
        genesis_hash=parsed["genesisHash"],
    )
    recomputed = doc.content_hash()
    if recomputed != doc.genesis_hash:
        raise HashMismatch(
            f"{path}: content digest {recomputed} does not match embedded genesisHash {doc.genesis_hash}"
        )
    return doc
