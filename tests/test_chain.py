from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainyard.canonical import canonical_json
from chainyard.chain import (
    BadNonce,
    Block,
    Chain,
    CostExceedsGasLimit,
    InsufficientBalance,
    TxError,
    apply_tx,
    audit_chain,
    block_header_hash,
    digest_limit,
    genesis_block,
    header_hasher,
    make_transaction,
    meets_target,
    mine_candidate,
    pow_target,
    tx_digest,
    tx_root,
)
from chainyard.genesis import make_genesis
from conftest import random_valid_config


def build_chain(balance=1000, accounts=4, difficulty=16, gas_limit=21000):
    rng = random.Random(99)
    config = random_valid_config(rng, clients=accounts - 1, miners=1)
    config = config.__class__(
        configuration_name=config.configuration_name,
        configuration_version=config.configuration_version,
        genesis=config.genesis.__class__(
            chain_id=77, difficulty=difficulty, gas_limit=gas_limit, balance=balance
        ),
        clients=config.clients,
        miners=config.miners,
    )
    doc = make_genesis(config)
    return Chain(doc), sorted(doc.allocations)


def replay_oracle(blocks, allocations):
    """Independent single-threaded interpreter: plain dict arithmetic only."""
    balances = dict(allocations)
    nonces = {}
    for block in blocks[1:]:
        for tx in block.transactions:
            assert tx.nonce == nonces.get(tx.sender, 0)
            balances[tx.sender] = balances.get(tx.sender, 0) - tx.value
            balances[tx.recipient] = balances.get(tx.recipient, 0) + tx.value
            nonces[tx.sender] = tx.nonce + 1
    return balances, nonces


# -- proof of work ------------------------------------------------------------


def test_pow_target_clamp_floor():
    assert pow_target(1) == 4


def test_pow_target_exact_power_of_two():
    assert pow_target(1024) == 10


def test_pow_target_difficulty_400():
    # ceil(log2(400)) = 9: 2^8 = 256 < 400 <= 512 = 2^9
    assert pow_target(400) == 9


def test_pow_target_clamp_ceiling():
    assert pow_target(2**30) == 24


def test_pow_target_rejects_zero():
    with pytest.raises(ValueError):
        pow_target(0)


@settings(max_examples=100, deadline=None)
@given(a=st.integers(min_value=1, max_value=2**40), b=st.integers(min_value=0, max_value=2**20))
def test_pow_target_monotone(a, b):
    assert pow_target(a) <= pow_target(a + b)
    assert 4 <= pow_target(a) <= 24


def test_meets_target_counts_leading_zero_bits():
    assert meets_target("0" * 64, 24)
    assert meets_target("0f" + "a" * 62, 4)
    assert not meets_target("1f" + "a" * 62, 4)


def test_mined_block_satisfies_target():
    chain, accounts = build_chain(difficulty=256)  # 8 bits
    block = chain.mine_next(accounts[0], timestamp=5)
    assert meets_target(block.block_hash, 8)


NONCE_EDGES = (0, 9, 10, 99, 100, 2**64 - 1)
HEADER_TEXT = st.one_of(
    st.sampled_from(['"powNonce":', '"powNonce":0,', '\\"', '\\', "é€😀", "ab" * 32]),
    st.text(),
)


@settings(max_examples=200, deadline=None)
@given(
    height=st.integers(min_value=0, max_value=2**63),
    timestamp=st.integers(min_value=0, max_value=2**63),
    parent_hash=HEADER_TEXT,
    miner=HEADER_TEXT,
    root=HEADER_TEXT,
    nonce=st.one_of(st.sampled_from(NONCE_EDGES), st.integers(min_value=0, max_value=2**64 - 1)),
)
def test_header_hasher_matches_block_header_hash(height, timestamp, parent_hash, miner, root, nonce):
    digest = header_hasher(height, parent_hash, timestamp, miner, root)(nonce)
    assert digest.hex() == block_header_hash(height, parent_hash, timestamp, miner, nonce, root)


@settings(max_examples=200, deadline=None)
@given(digest=st.binary(min_size=32, max_size=32), bits=st.integers(min_value=4, max_value=24))
def test_digest_limit_agrees_with_meets_target(digest, bits):
    assert (digest <= digest_limit(bits)) == meets_target(digest.hex(), bits)


@pytest.mark.parametrize("bits", range(4, 25))
def test_digest_limit_is_the_boundary(bits):
    limit = int.from_bytes(digest_limit(bits), "big")
    assert meets_target(f"{limit:064x}", bits)
    assert not meets_target(f"{limit + 1:064x}", bits)


def golden_candidate():
    txs = tuple(make_transaction("alice", "bob", 10 + i, nonce=i) for i in range(3))
    return dict(height=7, parent_hash="ab" * 32, miner="cd" * 32, transactions=txs, timestamp=1700000001)


def test_mined_block_golden_value():
    # Block hashes are a stable interface: frozen from an earlier release, they must not move.
    # The search for this candidate runs past two abort checks (nonce 1024 and 2048).
    block = mine_candidate(**golden_candidate(), target_bits=pow_target(400), should_abort=lambda: False)
    assert (block.pow_nonce, block.block_hash) == (
        2293,
        "001923d68b3b35f11c5b8d7fff4d6168ff8e77fae4123d4e630f4fb5a2f2043f",
    )


@pytest.mark.parametrize("timestamp", range(20))
def test_mine_candidate_finds_the_first_nonce_block_header_hash_accepts(timestamp):
    candidate = dict(golden_candidate(), timestamp=timestamp)
    root = tx_root(candidate["transactions"])
    fields = (candidate["height"], candidate["parent_hash"], timestamp, candidate["miner"])
    nonce = 0
    while not meets_target(block_header_hash(*fields, nonce, root), 8):
        nonce += 1
    block = mine_candidate(**candidate, target_bits=8)
    assert block.pow_nonce == nonce
    assert block.block_hash == block_header_hash(*fields, nonce, root)


def test_mine_candidate_aborts_within_1024_nonces():
    calls = []

    def should_abort():
        calls.append(True)
        return True

    assert mine_candidate(**golden_candidate(), target_bits=24, should_abort=should_abort) is None
    assert len(calls) == 1  # asked once, at nonce 1024, after nonces 0..1023 missed


# -- transaction admission -----------------------------------------------------


def test_submit_valid_transaction_pending():
    chain, accounts = build_chain()
    tx = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    assert chain.submit_transaction(tx) == tx.tx_id
    assert tx.tx_id in chain.mempool


def test_submit_value_above_balance():
    chain, accounts = build_chain(balance=50)
    tx = make_transaction(accounts[0], accounts[1], 51, nonce=0)
    with pytest.raises(InsufficientBalance):
        chain.submit_transaction(tx)


def test_submit_counts_pending_spend():
    chain, accounts = build_chain(balance=100)
    chain.submit_transaction(make_transaction(accounts[0], accounts[1], 80, nonce=0))
    with pytest.raises(InsufficientBalance):
        chain.submit_transaction(make_transaction(accounts[0], accounts[1], 30, nonce=1))


def test_submit_cost_exceeding_gas_limit():
    chain, accounts = build_chain(gas_limit=21000)
    tx = make_transaction(accounts[0], accounts[1], 1, nonce=0, cost=21001)
    with pytest.raises(CostExceedsGasLimit):
        chain.submit_transaction(tx)


def test_submit_bad_nonce():
    chain, accounts = build_chain()
    with pytest.raises(BadNonce):
        chain.submit_transaction(make_transaction(accounts[0], accounts[1], 1, nonce=3))


def test_submit_duplicate_is_idempotent():
    chain, accounts = build_chain()
    tx = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    chain.submit_transaction(tx)
    assert chain.submit_transaction(tx) == tx.tx_id
    assert len(chain.mempool) == 1


def test_nonce_considers_mempool():
    chain, accounts = build_chain()
    chain.submit_transaction(make_transaction(accounts[0], accounts[1], 1, nonce=0))
    assert chain.next_nonce_for(accounts[0]) == 1
    chain.submit_transaction(make_transaction(accounts[0], accounts[1], 1, nonce=1))
    assert chain.next_nonce_for(accounts[0]) == 2


# -- mining and block application ------------------------------------------------


def test_empty_mempool_still_mines_empty_blocks():
    chain, accounts = build_chain()
    block = chain.mine_next(accounts[0], timestamp=1)
    assert block.height == 1
    assert block.transactions == ()


def test_pending_tx_included_in_next_block():
    chain, accounts = build_chain()
    tx = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    chain.submit_transaction(tx)
    block = chain.mine_next(accounts[0], timestamp=1)
    assert [t.tx_id for t in block.transactions] == [tx.tx_id]
    assert chain.transaction_status(tx.tx_id)[0] == "mined"


def test_stalled_mining_never_includes_pending():
    chain, accounts = build_chain()
    tx = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    chain.submit_transaction(tx)
    for _ in range(3):
        block = chain.mine_next(accounts[0], timestamp=1, include_txs=False)
        assert block.transactions == ()
    assert chain.transaction_status(tx.tx_id)[0] == "pending"
    assert chain.height == 3


def test_receive_valid_block_updates_balances():
    chain, accounts = build_chain()
    peer_chain = Chain(chain.genesis)
    tx = make_transaction(accounts[0], accounts[1], 25, nonce=0)
    peer_chain.submit_transaction(tx)
    block = peer_chain.mine_next(accounts[1], timestamp=9)
    status, detail = chain.receive_block(block)
    assert (status, detail) == ("accepted", None)
    assert chain.balance_of(accounts[1]) == 1025


def test_receive_duplicate_block_is_noop():
    chain, accounts = build_chain()
    block = chain.mine_next(accounts[0], timestamp=1)
    status, _ = chain.receive_block(block)
    assert status == "duplicate"
    assert chain.height == 1


def test_receive_block_with_bad_parent():
    chain, accounts = build_chain()
    orphan = mine_candidate(5, "ab" * 32, accounts[0], (), chain.target_bits, timestamp=1)
    status, _ = chain.receive_block(orphan)
    assert status == "BadParent"


def test_receive_block_with_fake_pow():
    chain, accounts = build_chain(difficulty=2**20)  # 20 bits: nonce 0 will not pass
    bad = Block(
        height=1,
        parent_hash=chain.tip.block_hash,
        timestamp=1,
        miner=accounts[0],
        pow_nonce=0,
        transactions=(),
        block_hash="f" * 64,
    )
    status, _ = chain.receive_block(bad)
    assert status == "BadPow"


def test_receive_block_with_tampered_tx_value():
    chain, accounts = build_chain(balance=100)
    donor = Chain(chain.genesis)
    tx = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    donor.submit_transaction(tx)
    honest = donor.mine_next(accounts[0], timestamp=3)
    # re-mine the block with a tampered transaction: pow passes, value does not
    evil_tx = make_transaction(accounts[0], accounts[1], 10_000, nonce=0)
    tampered = mine_candidate(1, chain.tip.block_hash, accounts[0], (evil_tx,), chain.target_bits, timestamp=3)
    status, detail = chain.receive_block(tampered)
    assert status == "BadTx"
    assert "exceeds balance" in detail
    assert chain.height == 0
    assert chain.balance_of(accounts[1]) == 100
    status, _ = chain.receive_block(honest)
    assert status == "accepted"


def test_genesis_block_is_the_document():
    chain, _ = build_chain()
    block0 = chain.blocks[0]
    assert block0.height == 0
    assert block0.parent_hash == "0" * 64
    assert block0.block_hash == chain.genesis.genesis_hash
    assert genesis_block(chain.genesis) == block0


def test_applied_tx_cannot_reappear():
    chain, accounts = build_chain()
    tx = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    chain.submit_transaction(tx)
    chain.mine_next(accounts[0], timestamp=1)
    replay = mine_candidate(2, chain.tip.block_hash, accounts[0], (tx,), chain.target_bits, timestamp=2)
    status, detail = chain.receive_block(replay)
    assert status == "BadTx"
    assert "already applied" in detail


def test_transaction_status_unknown():
    chain, _ = build_chain()
    assert chain.transaction_status("00" * 32) == ("unknown", None, None)


# -- conservation, audit, and the replay oracle -----------------------------------


def run_random_workload(chain, accounts, rng, n_txs, max_block_txs=8):
    submitted = 0
    while submitted < n_txs:
        for _ in range(rng.randint(1, max_block_txs)):
            if submitted >= n_txs:
                break
            sender = rng.choice(accounts)
            recipient = rng.choice([a for a in accounts if a != sender])
            spendable = chain.balance_of(sender) - chain.pending_spend(sender)
            if spendable <= 0:
                continue
            tx = make_transaction(
                sender, recipient, rng.randint(0, spendable), chain.next_nonce_for(sender)
            )
            chain.submit_transaction(tx)
            submitted += 1
        chain.mine_next(accounts[0], timestamp=submitted, max_txs=max_block_txs)
    while chain.mempool:
        chain.mine_next(accounts[0], timestamp=submitted, max_txs=max_block_txs)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_conservation_and_oracle_equivalence(seed):
    rng = random.Random(seed)
    chain, accounts = build_chain(balance=500, accounts=4, difficulty=16)
    total = chain.total_balance()
    run_random_workload(chain, accounts, rng, n_txs=40)
    assert chain.total_balance() == total
    assert audit_chain(chain.blocks, chain.genesis) == []
    balances, nonces = replay_oracle(chain.blocks, chain.genesis.allocations)
    assert balances == chain.balances
    assert nonces == chain.next_nonce


def test_audit_flags_corrupted_chain():
    chain, accounts = build_chain()
    tx = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    chain.submit_transaction(tx)
    chain.mine_next(accounts[0], timestamp=1)
    broken = list(chain.blocks)
    hacked_tx = make_transaction(accounts[0], accounts[1], 999, nonce=0)
    original = broken[1]
    broken[1] = Block(
        original.height,
        original.parent_hash,
        original.timestamp,
        original.miner,
        original.pow_nonce,
        (hacked_tx,),
        original.block_hash,
    )
    problems = audit_chain(broken, chain.genesis)
    assert problems, "tampered block must fail the audit"


def test_forged_tx_id_is_refused_by_submit_receive_and_audit():
    chain, accounts = build_chain()
    honest = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    forged = honest.replace(value=20)  # fields changed after the id was made
    with pytest.raises(TxError, match="id does not match"):
        chain.submit_transaction(forged)
    block = mine_candidate(1, chain.tip.block_hash, accounts[0], (forged,), chain.target_bits, timestamp=1)
    status, detail = chain.receive_block(block)
    assert status == "BadTx"
    assert "id does not match" in detail
    assert chain.height == 0
    problems = audit_chain(chain.blocks + [block], chain.genesis)
    assert any("id does not match" in problem for problem in problems), problems


def test_apply_tx_changes_nothing_when_it_fails():
    balances, nonces = {"a": 5}, {"a": 0}
    with pytest.raises(InsufficientBalance):
        apply_tx(balances, nonces, make_transaction("a", "b", 6, nonce=0))
    with pytest.raises(BadNonce):
        apply_tx(balances, nonces, make_transaction("a", "b", 1, nonce=1))
    assert (balances, nonces) == ({"a": 5}, {"a": 0})
    apply_tx(balances, nonces, make_transaction("a", "b", 5, nonce=0))
    assert (balances, nonces) == ({"a": 0, "b": 5}, {"a": 1})


def test_block_round_trips_through_dict():
    chain, accounts = build_chain()
    chain.submit_transaction(make_transaction(accounts[0], accounts[1], 10, nonce=0))
    block = chain.mine_next(accounts[0], timestamp=4)
    assert Block.from_dict(block.to_dict()) == block


def test_tx_root_depends_on_transactions():
    chain, accounts = build_chain()
    a = make_transaction(accounts[0], accounts[1], 1, nonce=0)
    b = make_transaction(accounts[0], accounts[1], 2, nonce=0)
    assert tx_root((a,)) != tx_root((b,))


def test_cost_must_be_positive():
    chain, accounts = build_chain()
    with pytest.raises(TxError):
        chain.submit_transaction(make_transaction(accounts[0], accounts[1], 1, nonce=0, cost=0))


def with_field(tx, **fields):
    """The tx with fields changed and an id that matches them: what a sender who chose those values would send."""
    draft = tx.replace(**fields)
    return draft.replace(tx_id=tx_digest(draft))


@pytest.mark.parametrize(
    "fields", [{"value": 10.0}, {"value": 0.5}, {"value": True}, {"nonce": 0.0}, {"cost": 21000.0}]
)
def test_a_block_carrying_a_tx_whose_amounts_are_not_integers_is_refused_and_fails_the_audit(fields):
    chain, accounts = build_chain()
    mistyped = with_field(make_transaction(accounts[0], accounts[1], 10, nonce=0), **fields)
    with pytest.raises(TxError, match="is not an integer"):
        chain.submit_transaction(mistyped)
    block = mine_candidate(1, chain.tip.block_hash, accounts[0], (mistyped,), chain.target_bits, timestamp=1)
    status, detail = chain.receive_block(block)
    assert status == "BadTx" and "is not an integer" in detail
    assert chain.height == 0
    assert all(type(balance) is int for balance in chain.balances.values())
    problems = audit_chain(chain.blocks + [block], chain.genesis)
    assert any("is not an integer" in problem for problem in problems), problems


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_a_tx_whose_amount_is_nan_or_infinite_has_no_id_and_no_block_can_carry_it(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        canonical_json(value)
    chain, accounts = build_chain()
    with pytest.raises(ValueError, match="not JSON compliant"):
        make_transaction(accounts[0], accounts[1], value, nonce=0)
    honest = make_transaction(accounts[0], accounts[1], 10, nonce=0)
    with pytest.raises(ValueError, match="not JSON compliant"):
        mine_candidate(1, chain.tip.block_hash, accounts[0], (honest.replace(value=value),), chain.target_bits, 1)


@pytest.mark.parametrize(
    "fields",
    [{"sender": 5}, {"recipient": None}, {"payload_hash": 1}, {"tx_id": 7}, {"tx_id": ["not", "hashable"]}],
)
def test_a_tx_whose_strings_are_not_strings_is_refused_by_submit_receive_and_audit(fields):
    chain, accounts = build_chain()
    honest = make_transaction(accounts[0], accounts[1], 0, nonce=0)  # a value of 0 needs no balance
    mistyped = honest.replace(**fields) if "tx_id" in fields else with_field(honest, **fields)
    with pytest.raises(TxError, match="is not a string"):
        chain.submit_transaction(mistyped)
    assert chain.mempool == {}
    block = mine_candidate(1, chain.tip.block_hash, accounts[0], (mistyped,), chain.target_bits, timestamp=1)
    status, detail = chain.receive_block(block)
    assert status == "BadTx" and "is not a string" in detail
    assert chain.height == 0
    problems = audit_chain(chain.blocks + [block], chain.genesis)
    assert any("is not a string" in problem for problem in problems), problems
