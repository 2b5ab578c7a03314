"""The documents records are written as: their keys, and the records they read back to.

Each document's keys follow from its dataclass's field names, and a
document is a wire message, a file on disk or the body of a hash. So a
renamed field must fail here rather than change a format unseen.
"""

from __future__ import annotations

import json

import pytest

from chainyard.canonical import document, from_document
from chainyard.chain import Block, Transaction, make_transaction, mine_candidate
from chainyard.node import NodeIdentity
from chainyard.tes import ClearingResult, IntervalOutcome, Order, Trade, clear_market

TX = make_transaction("a" * 40, "b" * 40, 7, nonce=0, payload_hash="c" * 64)
BLOCK = mine_candidate(1, "0" * 64, "d" * 40, (TX, make_transaction("b" * 40, "a" * 40, 1, nonce=0)), 4, 1700000000)
IDENTITY = NodeIdentity(
    configuration_name="records",
    name="prosumer1",
    role="prosumer",
    host="127.0.0.1",
    blockchain_port=30303,
    admin_port=8545,
    wrapper_port=9545,
    account="e" * 40,
    block_interval_seconds=0.1,
    max_block_txs=16,
)
ORDER = Order("prosumer1", 3, "offer", 4, 9)
RESULT = clear_market(
    [Order("s1", 0, "offer", 5, 3), Order("s2", 0, "offer", 2, 18)],
    [Order("b1", 0, "bid", 3, 12), Order("b2", 0, "bid", 6, 4)],
)
OUTCOME = IntervalOutcome(0, "ok", RESULT.to_dict(), "f" * 64, "1" * 64, TX.tx_id, [TX.tx_id], None)


def read_result(doc: dict) -> ClearingResult:
    return from_document(
        ClearingResult,
        doc,
        trades=[from_document(Trade, t) for t in doc["trades"]],
        dso_sales=[tuple(sale) for sale in doc["dsoSales"]],
        dso_purchases=[tuple(purchase) for purchase in doc["dsoPurchases"]],
    )


# (record, its document, the record read back from the document as JSON would carry it, the keys in order)
RECORDS = {
    "tx": (
        TX,
        TX.to_dict(),
        lambda doc: from_document(Transaction, doc),
        ["sender", "recipient", "value", "nonce", "cost", "payloadHash", "txId"],
    ),
    "block": (
        BLOCK,
        BLOCK.to_dict(),
        Block.from_dict,
        ["height", "parentHash", "timestamp", "miner", "powNonce", "transactions", "blockHash"],
    ),
    "node.json": (
        IDENTITY,
        IDENTITY.dump(),
        lambda doc: from_document(NodeIdentity, doc),
        [
            "configurationName",
            "name",
            "role",
            "host",
            "blockchainPort",
            "adminPort",
            "wrapperPort",
            "account",
            "blockIntervalSeconds",
            "maxBlockTxs",
        ],
    ),
    "order": (
        ORDER,
        ORDER.to_dict(),
        lambda doc: from_document(Order, doc),
        ["actor", "interval", "side", "quantity", "unitPrice"],
    ),
    "trade": (
        RESULT.trades[0],
        document(RESULT.trades[0]),
        lambda doc: from_document(Trade, doc),
        ["seller", "buyer", "quantity", "unitPrice"],
    ),
    "clearing result": (
        RESULT,
        RESULT.to_dict(),
        read_result,
        ["interval", "trades", "clearingPrice", "dsoResidual", "dsoSales", "dsoPurchases", "tariff"],
    ),
    "interval outcome": (
        OUTCOME,
        document(OUTCOME),
        lambda doc: from_document(IntervalOutcome, doc),
        ["interval", "status", "result", "digest", "chainDigest", "commitTxId", "settlementTxIds", "error"],
    ),
}


@pytest.mark.parametrize("kind", RECORDS)
def test_a_record_document_has_its_pinned_keys_and_reads_back_to_the_record(kind):
    record, doc, read, keys = RECORDS[kind]
    assert list(doc) == keys
    assert read(json.loads(json.dumps(doc))) == record


def test_the_nested_records_of_a_document_are_their_own_documents():
    assert BLOCK.to_dict()["transactions"] == [document(tx) for tx in BLOCK.transactions]
    assert RESULT.to_dict()["trades"] == [document(trade) for trade in RESULT.trades]


def test_a_tx_document_without_a_payload_hash_reads_as_none():
    doc = make_transaction("a" * 40, "b" * 40, 7, nonce=0).to_dict()
    del doc["payloadHash"]
    assert from_document(Transaction, doc).payload_hash is None
    assert from_document(Transaction, doc) == make_transaction("a" * 40, "b" * 40, 7, nonce=0)


@pytest.mark.parametrize("absent", ["wrapperPort", "blockIntervalSeconds", "maxBlockTxs"])
def test_a_node_json_without_an_optional_key_reads_as_its_default(tmp_path, absent):
    doc = IDENTITY.dump()
    del doc[absent]
    path = tmp_path / "node.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    defaults = {"wrapperPort": None, "blockIntervalSeconds": 0.25, "maxBlockTxs": 64}
    assert NodeIdentity.load(path).dump() == {**IDENTITY.dump(), absent: defaults[absent]}


@pytest.mark.parametrize("required", ["sender", "txId"])
def test_a_tx_document_without_a_required_key_raises_key_error(required):
    doc = TX.to_dict()
    del doc[required]
    with pytest.raises(KeyError, match=required):
        from_document(Transaction, doc)
