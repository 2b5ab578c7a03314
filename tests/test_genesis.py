from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainyard.dsl import parse_config
from chainyard.manager import make_bench_config
from chainyard.genesis import (
    GenesisFormatError,
    HashMismatch,
    InvalidConfig,
    derive_account,
    make_genesis,
    read_genesis,
    write_genesis,
)
from conftest import BENCH_TEMPLATE, random_valid_config, sample_doc

# Computed once with an independent sha256 implementation (coreutils
# sha256sum over the exact domain-separated byte string) and frozen.
GOLDEN_ACCOUNTS = {
    ("net", "prosumer1"): "349c60256cde78e53b6361b3abdee8f9364f531333c90f44abc896e96273a88f",
    ("net", "a"): "1101d72e8152919d50c4fd51336044b252e5740275e8dba6ec892ba619b2bd40",
    ("net", "b"): "6c3341c096ab5864649e49282acc8dbe9c2f9f842bc8d0a45417075dfb5f57ec",
}


def test_derive_account_deterministic():
    assert derive_account("net", "a") == derive_account("net", "a")


def test_derive_account_distinct_nodes():
    assert derive_account("net", "a") != derive_account("net", "b")
    assert derive_account("net", "a") != derive_account("other", "a")


def test_derive_account_golden_vectors():
    for (config_name, node_name), expected in GOLDEN_ACCOUNTS.items():
        assert derive_account(config_name, node_name) == expected


def test_derive_account_rejects_empty():
    with pytest.raises(ValueError):
        derive_account("", "a")
    with pytest.raises(ValueError):
        derive_account("net", "")


def test_make_genesis_allocates_all_nodes(sample_config):
    doc = make_genesis(sample_config)
    assert len(doc.allocations) == 4  # 3 clients + 1 miner
    assert set(doc.allocations.values()) == {1000}
    assert doc.allocations[derive_account("net", "miner1")] == 1000


def test_make_genesis_zero_balance_boundary():
    config = parse_config(json.dumps(sample_doc(balance=0)))
    doc = make_genesis(config)
    assert set(doc.allocations.values()) == {0}
    assert doc.total_supply() == 0


def test_make_genesis_deterministic(sample_config):
    first = make_genesis(sample_config)
    second = make_genesis(sample_config)
    assert first.genesis_hash == second.genesis_hash
    assert first.to_file_bytes() == second.to_file_bytes()


def test_genesis_hash_golden_value():
    # Genesis hashes are a stable interface: frozen from an earlier release, they must not move.
    doc = make_genesis(make_bench_config(BENCH_TEMPLATE, 2, suffix="golden"))
    assert doc.genesis_hash == "c4921ada0d35beb45de57bf2293fe8fab0523e30c17006c5d8f4fdb77ad9c9a5"


def test_make_genesis_refuses_invalid_config():
    doc = sample_doc()
    doc["clients"][1]["host"] = doc["clients"][0]["host"]
    doc["clients"][1]["blockchainPort"] = doc["clients"][0]["blockchainPort"]
    with pytest.raises(InvalidConfig, match="PORT_CONFLICT"):
        make_genesis(parse_config(json.dumps(doc)))


def test_write_read_round_trip(tmp_path, sample_config):
    doc = make_genesis(sample_config)
    path = tmp_path / "genesis.json"
    write_genesis(doc, path)
    assert read_genesis(path) == doc


def test_read_detects_tampered_byte(tmp_path, sample_config):
    doc = make_genesis(sample_config)
    path = tmp_path / "genesis.json"
    write_genesis(doc, path)
    raw = bytearray(path.read_bytes())
    # flip one digit of one balance, keeping the JSON well-formed
    index = raw.find(b"1000")
    raw[index : index + 4] = b"1001"
    path.write_bytes(bytes(raw))
    with pytest.raises(HashMismatch):
        read_genesis(path)


def test_read_empty_file(tmp_path):
    path = tmp_path / "genesis.json"
    path.write_bytes(b"")
    with pytest.raises(GenesisFormatError):
        read_genesis(path)


def test_read_missing_file(tmp_path):
    with pytest.raises(OSError):
        read_genesis(tmp_path / "nope.json")


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**9),
    clients=st.integers(min_value=1, max_value=6),
    miners=st.integers(min_value=1, max_value=3),
)
def test_allocation_count_matches_node_count(seed, clients, miners):
    config = random_valid_config(random.Random(seed), clients=clients, miners=miners)
    doc = make_genesis(config)
    assert len(doc.allocations) == clients + miners
    assert doc.total_supply() == (clients + miners) * config.genesis.balance
