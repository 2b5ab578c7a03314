from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainyard.dsl import (
    ConfigParseError,
    ConfigSchemaError,
    NodeNotFound,
    node_lookup,
    parse_config,
    serialize_config,
    validate,
)
from conftest import inject_port_collisions, random_valid_config, sample_doc


def test_parse_mirrors_document(sample_config):
    assert sample_config.configuration_name == "net"
    assert sample_config.configuration_version == "1"
    assert sample_config.genesis.chain_id == 5871
    assert sample_config.genesis.difficulty == 400
    assert sample_config.genesis.gas_limit == 21000
    assert sample_config.genesis.balance == 1000
    assert len(sample_config.clients) == 3
    assert len(sample_config.miners) == 1
    dso = sample_config.clients[0]
    assert (dso.name, dso.role, dso.host) == ("dso1", "dso", "10.0.0.1")
    assert (dso.blockchain_port, dso.admin_port, dso.wrapper_port) == (30303, 30403, 30503)
    miner = sample_config.miners[0]
    assert miner.role == "miner"
    assert miner.wrapper_port is None


def test_parse_missing_gas_limit():
    doc = sample_doc()
    del doc["gasLimit"]
    with pytest.raises(ConfigSchemaError, match="gasLimit"):
        parse_config(json.dumps(doc))


def test_parse_chain_id_not_integer():
    with pytest.raises(ConfigSchemaError, match="chainID must be a positive integer"):
        parse_config(json.dumps(sample_doc(chainID="abc")))


@pytest.mark.parametrize("bad", [0, -3, True, 2.5])
def test_parse_chain_id_bad_values(bad):
    with pytest.raises(ConfigSchemaError):
        parse_config(json.dumps(sample_doc(chainID=bad)))


def test_parse_negative_balance_rejected():
    with pytest.raises(ConfigSchemaError, match="balance"):
        parse_config(json.dumps(sample_doc(balance=-1)))


def test_parse_unknown_top_level_key():
    with pytest.raises(ConfigSchemaError, match="surprise"):
        parse_config(json.dumps(sample_doc(surprise=1)))


def test_parse_unknown_client_key():
    doc = sample_doc()
    doc["clients"][0]["color"] = "red"
    with pytest.raises(ConfigSchemaError, match="color"):
        parse_config(json.dumps(doc))


def test_parse_miner_must_not_declare_wrapper_port():
    doc = sample_doc()
    doc["miners"][0]["wrapperPort"] = 30503
    with pytest.raises(ConfigSchemaError, match="wrapperPort"):
        parse_config(json.dumps(doc))


def test_parse_bad_role():
    doc = sample_doc()
    doc["clients"][1]["role"] = "oracle"
    with pytest.raises(ConfigSchemaError, match="role"):
        parse_config(json.dumps(doc))


# Each key of each object of the document: a value of the wrong type for it, and the message that value gets.
_DOCUMENT_KEYS = {
    "configurationName": (5, "configurationName must be a string"),
    "configurationVersion": (1, "configurationVersion must be a string"),
    "chainID": ("5871", "chainID must be a positive integer"),
    "difficulty": (True, "difficulty must be a positive integer"),
    "gasLimit": (2.5, "gasLimit must be a positive integer"),
    "balance": ("x", "balance must be a non-negative integer"),
    "clients": ({}, "clients must be an array"),
    "miners": ("miner1", "miners must be an array"),
}
_MINER_KEYS = {
    "name": (5, "name must be a string"),
    "host": (None, "host must be a string"),
    "blockchainPort": ("30303", "blockchainPort must be an integer port"),
    "adminPort": (False, "adminPort must be an integer port"),
}
_CLIENT_KEYS = {
    **_MINER_KEYS,
    "role": (5, "role must be a string"),
    "wrapperPort": (30503.0, "wrapperPort must be an integer port"),
}


def _schema_cases():
    for where, keys in (("document", _DOCUMENT_KEYS), ("clients[1]", _CLIENT_KEYS), ("miners[0]", _MINER_KEYS)):
        for key, (bad, message) in keys.items():
            missing = f"{where}: missing required key {key!r}"
            yield pytest.param(where, key, "missing", missing, id=f"{where}-{key}-missing")
            yield pytest.param(where, key, bad, f"{where}: {message}", id=f"{where}-{key}-type")
            extra = key.upper()  # a key that differs from a known one only in case is unknown
            yield pytest.param(where, extra, "extra", f"{where}: unknown key {extra!r}", id=f"{where}-{key}-extra")


@pytest.mark.parametrize("where, key, value, message", list(_schema_cases()))
def test_each_key_of_each_object_is_pinned_by_its_message(where, key, value, message):
    doc = sample_doc()
    obj = {"document": doc, "clients[1]": doc["clients"][1], "miners[0]": doc["miners"][0]}[where]
    if value == "missing":
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ConfigSchemaError) as caught:
        parse_config(json.dumps(doc))
    assert str(caught.value) == message


@pytest.mark.parametrize("objects", ["clients", "miners"])
def test_an_entry_that_is_no_object_is_named(objects):
    doc = sample_doc()
    doc[objects].append(["not", "an", "object"])
    with pytest.raises(ConfigSchemaError) as caught:
        parse_config(json.dumps(doc))
    assert str(caught.value) == f"{objects}[{len(doc[objects]) - 1}]: must be an object"


def test_parse_malformed_document_reports_position():
    with pytest.raises(ConfigParseError, match="line"):
        parse_config('{"configurationName": "net",')


def test_validate_clean_config_is_deployable():
    rng = random.Random(7)
    report = validate(random_valid_config(rng))
    assert report.ok
    assert report.errors == []
    assert report.warnings == []


def test_validate_port_conflict_names_both_clients(sample_config):
    # sample doc puts every node on its own host; move two onto one endpoint
    doc = sample_doc()
    doc["clients"][1]["host"] = doc["clients"][0]["host"]
    doc["clients"][1]["blockchainPort"] = doc["clients"][0]["blockchainPort"]
    report = validate(parse_config(json.dumps(doc)))
    conflicts = [e for e in report.errors if e.code == "PORT_CONFLICT"]
    assert len(conflicts) == 1
    assert set(conflicts[0].nodes) == {"dso1", "prosumer1"}


def test_validate_conflict_deduplicated_per_node_pair():
    doc = sample_doc()
    # same two nodes colliding on two endpoints: still one conflict
    doc["clients"][1]["host"] = doc["clients"][0]["host"]
    doc["clients"][1]["blockchainPort"] = doc["clients"][0]["blockchainPort"]
    doc["clients"][1]["adminPort"] = doc["clients"][0]["adminPort"]
    report = validate(parse_config(json.dumps(doc)))
    conflicts = [e for e in report.errors if e.code == "PORT_CONFLICT"]
    assert len(conflicts) == 1


@pytest.mark.parametrize("chain_id", [1, 2, 3, 4])
def test_validate_reserved_chain_id_is_warning_not_error(chain_id):
    report = validate(parse_config(json.dumps(sample_doc(chainID=chain_id))))
    assert report.ok
    assert [w.code for w in report.warnings] == ["CHAIN_ID_RESERVED"]


def test_validate_duplicate_node_names():
    doc = sample_doc()
    doc["miners"][0]["name"] = "prosumer1"
    report = validate(parse_config(json.dumps(doc)))
    assert any(e.code == "NAME_DUPLICATE" and e.nodes == ("prosumer1",) for e in report.errors)


def test_validate_empty_clients_and_miners():
    report = validate(parse_config(json.dumps(sample_doc(clients=[], miners=[]))))
    codes = {e.code for e in report.errors}
    assert {"NO_CLIENTS", "NO_MINERS"} <= codes


def test_validate_port_out_of_range():
    doc = sample_doc()
    doc["clients"][0]["adminPort"] = 80
    report = validate(parse_config(json.dumps(doc)))
    assert any(e.code == "PORT_RANGE" and e.nodes == ("dso1",) for e in report.errors)


def test_validate_port_reuse_within_node():
    doc = sample_doc()
    doc["clients"][0]["wrapperPort"] = doc["clients"][0]["adminPort"]
    report = validate(parse_config(json.dumps(doc)))
    assert any(e.code == "PORT_REUSE_IN_NODE" for e in report.errors)


def test_validate_bad_config_name():
    report = validate(parse_config(json.dumps(sample_doc(configurationName="bad name!"))))
    assert any(e.code == "CONFIG_NAME_INVALID" for e in report.errors)


def test_validate_is_pure_and_deterministic():
    rng = random.Random(11)
    config = inject_port_collisions(random_valid_config(rng, clients=5, miners=2), 2, rng)
    first = validate(config)
    second = validate(config)
    assert first.errors == second.errors
    assert first.warnings == second.warnings


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9), k=st.integers(min_value=0, max_value=3))
def test_injected_collisions_reported_exactly(seed, k):
    rng = random.Random(seed)
    config = random_valid_config(rng, clients=5, miners=2)
    broken = inject_port_collisions(config, k, rng)
    report = validate(broken)
    conflicts = [e for e in report.errors if e.code == "PORT_CONFLICT"]
    assert len(conflicts) == k
    names = {n.name for n in broken.all_nodes()}
    for error in report.errors:
        assert set(error.nodes) <= names


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_round_trip_parse_serialize(seed):
    rng = random.Random(seed)
    config = random_valid_config(rng, clients=rng.randint(1, 5), miners=rng.randint(1, 2))
    text = serialize_config(config)
    reparsed = parse_config(text)
    assert reparsed == config
    assert parse_config(serialize_config(reparsed)) == reparsed


def test_node_lookup_unique(sample_config):
    assert node_lookup(sample_config, "dso1").role == "dso"
    assert node_lookup(sample_config, "miner1").wrapper_port is None
    with pytest.raises(NodeNotFound):
        node_lookup(sample_config, "ghost")
