"""Ledger engine: transactions, proof-of-work blocks, and chain state.

This is the single-threaded core shared by the node runtime and by
offline tooling (audits, replays). It holds no locks and performs no
I/O; the runtime serializes access and persists blocks as they are
appended.

Value transfers conserve currency exactly: there are no fees charged
and no mining reward, so the sum of balances always equals the genesis
allocation total.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field, replace

from .canonical import ZERO_DIGEST, canonical_json, digest_of, document, from_document, sha256, sha256_hex
from .genesis import GenesisDocument

DEFAULT_TX_COST = 21000
DEFAULT_MAX_BLOCK_TXS = 64
POW_MIN_BITS = 4
POW_MAX_BITS = 24


class TxError(ValueError):
    """Base class for transaction admission failures."""

    code = "TxError"


class InsufficientBalance(TxError):
    code = "InsufficientBalance"


class BadNonce(TxError):
    code = "BadNonce"


class CostExceedsGasLimit(TxError):
    code = "CostExceedsGasLimit"


def pow_target(difficulty: int) -> int:
    """Map abstract difficulty to required leading zero bits: clamp(ceil(log2(d)), 4, 24)."""
    if difficulty < 1:
        raise ValueError("difficulty must be >= 1")
    bits = (difficulty - 1).bit_length()  # == ceil(log2(d)) for d >= 2, 0 for d == 1
    return max(POW_MIN_BITS, min(POW_MAX_BITS, bits))


def meets_target(block_hash: str, target_bits: int) -> bool:
    return int(block_hash, 16) >> (256 - target_bits) == 0


@dataclass(frozen=True)
class Transaction:
    sender: str
    recipient: str
    value: int
    nonce: int
    cost: int
    payload_hash: str | None = field(default=None, kw_only=True)  # a document without payloadHash reads as None
    tx_id: str

    def to_dict(self) -> dict:
        return document(self)


def tx_digest(tx: Transaction) -> str:
    """The id a tx's fields give it: the digest of its document without txId."""
    doc = document(tx)
    del doc["txId"]
    return digest_of(doc)


def check_tx(tx: Transaction, gas_limit: int) -> None:
    """The stateless tx rules: value, nonce and cost are ints, the id matches, 1 <= cost <= gas limit, value >= 0.

    A JSON document also gives NaN, 0.5 and true for a number, and a NaN
    balance passes every ``value > available`` test: none is an amount.
    """
    for name in ("value", "nonce", "cost"):
        if type(getattr(tx, name)) is not int:
            raise TxError(f"tx {tx.tx_id[:12]}: {name} {getattr(tx, name)!r} is not an integer")
    if tx_digest(tx) != tx.tx_id:
        raise TxError(f"tx {tx.tx_id[:12]}: id does not match its fields")
    if tx.cost < 1:
        raise TxError(f"tx {tx.tx_id[:12]}: cost must be a positive integer")
    if tx.cost > gas_limit:
        raise CostExceedsGasLimit(f"tx {tx.tx_id[:12]}: cost {tx.cost} exceeds gas limit {gas_limit}")
    if tx.value < 0:
        raise TxError(f"tx {tx.tx_id[:12]}: value must be non-negative")


def apply_tx(balances: dict[str, int], nonces: dict[str, int], tx: Transaction) -> None:
    """Move tx.value and bump the sender's nonce; on BadNonce/InsufficientBalance change nothing."""
    expected = nonces.get(tx.sender, 0)
    if tx.nonce != expected:
        raise BadNonce(f"tx {tx.tx_id[:12]}: nonce {tx.nonce}, expected {expected}")
    available = balances.get(tx.sender, 0)
    if tx.value > available:
        raise InsufficientBalance(f"tx {tx.tx_id[:12]}: value {tx.value} exceeds balance {available}")
    balances[tx.sender] = available - tx.value
    balances[tx.recipient] = balances.get(tx.recipient, 0) + tx.value
    nonces[tx.sender] = tx.nonce + 1


def make_transaction(
    sender: str,
    recipient: str,
    value: int,
    nonce: int,
    cost: int = DEFAULT_TX_COST,
    payload_hash: str | None = None,
) -> Transaction:
    draft = Transaction(sender, recipient, value, nonce, cost, "", payload_hash=payload_hash)
    return replace(draft, tx_id=tx_digest(draft))


@dataclass(frozen=True)
class Block:
    height: int
    parent_hash: str
    timestamp: int
    miner: str
    pow_nonce: int
    transactions: tuple[Transaction, ...]
    block_hash: str

    def to_dict(self) -> dict:
        return document(self, transactions=[document(tx) for tx in self.transactions])

    @staticmethod
    def from_dict(data: dict) -> "Block":
        transactions = tuple(from_document(Transaction, t) for t in data["transactions"])
        return from_document(Block, data, transactions=transactions)


def tx_root(transactions: Iterable[Transaction]) -> str:
    return sha256_hex(canonical_json([document(tx) for tx in transactions]))


def block_header_hash(height: int, parent_hash: str, timestamp: int, miner: str, pow_nonce: int, root: str) -> str:
    return digest_of(
        {
            "height": height,
            "parentHash": parent_hash,
            "timestamp": timestamp,
            "miner": miner,
            "powNonce": pow_nonce,
            "txRoot": root,
        }
    )


def header_hasher(height: int, parent_hash: str, timestamp: int, miner: str, root: str) -> Callable[[int], bytes]:
    """block_header_hash as raw digest bytes, for a header whose fields other than pow_nonce are fixed.

    Canonical JSON sorts the keys, so the header's bytes are the fields
    before "powNonce", then the nonce's decimal digits, then the fields
    after it. The prefix is hashed once; each call copies that state and
    hashes only the nonce and the suffix.
    """
    before = canonical_json({"height": height, "miner": miner, "parentHash": parent_hash})
    after = canonical_json({"timestamp": timestamp, "txRoot": root})
    prefix_state = sha256(before[:-1] + b',"powNonce":')
    suffix = b"," + after[1:]

    def digest_at(pow_nonce: int) -> bytes:
        state = prefix_state.copy()
        state.update(b"%d" % pow_nonce + suffix)
        return state.digest()

    return digest_at


def digest_limit(target_bits: int) -> bytes:
    """The largest digest that meets the target: meets_target(d.hex(), bits) iff d <= digest_limit(bits)."""
    return ((1 << (256 - target_bits)) - 1).to_bytes(32, "big")


def header_problem(block: Block, target_bits: int) -> str | None:
    """Why the block's hash is not a valid proof-of-work over its header, or None."""
    expected = block_header_hash(
        block.height, block.parent_hash, block.timestamp, block.miner, block.pow_nonce, tx_root(block.transactions)
    )
    if expected != block.block_hash:
        return "block hash does not match header fields"
    if not meets_target(block.block_hash, target_bits):
        return f"hash does not meet {target_bits} leading zero bits"
    return None


def genesis_block(doc: GenesisDocument) -> Block:
    # The height-0 block IS the genesis document: its hash is the document
    # digest, so any party can re-derive it and detect a mismatched chain.
    return Block(
        height=0,
        parent_hash=ZERO_DIGEST,
        timestamp=0,
        miner=ZERO_DIGEST,
        pow_nonce=0,
        transactions=(),
        block_hash=doc.genesis_hash,
    )


def mine_candidate(
    height: int,
    parent_hash: str,
    miner: str,
    transactions: tuple[Transaction, ...],
    target_bits: int,
    timestamp: int,
    should_abort: Callable[[], bool] | None = None,
) -> Block | None:
    """Search pow_nonce from 0 until the header hash meets the target.

    should_abort is asked once every 1024 nonces. Returns None only if it
    fires; the search space is never exhausted in practice (nonce is
    64-bit, targets are <= 24 bits).
    """
    digest_at = header_hasher(height, parent_hash, timestamp, miner, tx_root(transactions))
    limit = digest_limit(target_bits)
    start = 0
    while True:
        for nonce in range(start, start + 1024):
            digest = digest_at(nonce)
            if digest <= limit:
                return Block(height, parent_hash, timestamp, miner, nonce, transactions, digest.hex())
        start = (start + 1024) % (1 << 64)
        if should_abort is not None and should_abort():
            return None


class Chain:
    """Ledger state seeded from a genesis document.

    Not thread safe; callers serialize access (the node runtime wraps
    every call in one lock).
    """

    def __init__(self, doc: GenesisDocument):
        self.genesis = doc
        self.gas_limit = doc.gas_limit
        self.target_bits = pow_target(doc.difficulty)
        self.blocks: list[Block] = [genesis_block(doc)]
        self.balances: dict[str, int] = dict(doc.allocations)
        self.next_nonce: dict[str, int] = {}
        self.mempool: dict[str, Transaction] = {}  # tx_id -> tx, insertion ordered
        self.applied: dict[str, int] = {}  # tx_id -> height

    @property
    def height(self) -> int:
        return self.blocks[-1].height

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def total_balance(self) -> int:
        return sum(self.balances.values())

    def balance_of(self, account: str) -> int:
        return self.balances.get(account, 0)

    def next_nonce_for(self, sender: str) -> int:
        """Next unsent nonce, considering transactions already in the mempool."""
        pending = sum(1 for tx in self.mempool.values() if tx.sender == sender)
        return self.next_nonce.get(sender, 0) + pending

    def pending_spend(self, sender: str) -> int:
        return sum(tx.value for tx in self.mempool.values() if tx.sender == sender)

    def submit_transaction(self, tx: Transaction) -> str:
        """Admit a transaction to the mempool. Duplicate tx_id is a no-op."""
        check_tx(tx, self.gas_limit)
        if tx.tx_id in self.mempool or tx.tx_id in self.applied:
            return tx.tx_id
        # Apply to a view of the sender alone, net of what its mempool txs already commit.
        sender = tx.sender
        spendable = {sender: self.balance_of(sender) - self.pending_spend(sender)}
        apply_tx(spendable, {sender: self.next_nonce_for(sender)}, tx)
        self.mempool[tx.tx_id] = tx
        return tx.tx_id

    def assemble_candidate(self, max_txs: int = DEFAULT_MAX_BLOCK_TXS) -> tuple[Transaction, ...]:
        """Pick up to max_txs mempool transactions applicable in order."""
        picked: list[Transaction] = []
        balances = dict(self.balances)
        nonces = dict(self.next_nonce)
        for tx in self.mempool.values():
            if len(picked) >= max_txs:
                break
            try:
                apply_tx(balances, nonces, tx)
            except TxError:
                continue
            picked.append(tx)
        return tuple(picked)

    def _try_apply(self, block: Block) -> str | None:
        """Apply the block's txs all or none; the reason the first bad one fails, or None."""
        balances = dict(self.balances)
        nonces = dict(self.next_nonce)
        seen: set[str] = set()
        for tx in block.transactions:
            if tx.tx_id in self.applied or tx.tx_id in seen:
                return f"tx {tx.tx_id[:12]} already applied"
            try:
                check_tx(tx, self.gas_limit)
                apply_tx(balances, nonces, tx)
            except TxError as exc:
                return str(exc)
            seen.add(tx.tx_id)
        self.balances = balances
        self.next_nonce = nonces
        for tx in block.transactions:
            self.applied[tx.tx_id] = block.height
            self.mempool.pop(tx.tx_id, None)
        self.blocks.append(block)
        return None

    def receive_block(self, block: Block) -> tuple[str, str | None]:
        """Validate and apply a block atomically.

        Returns (status, detail) with status one of "accepted",
        "duplicate", "BadParent", "BadPow", "BadTx". Only non-tip parents
        are rejected; fork resolution is out of scope (star topology).
        """
        if 0 <= block.height <= self.height and self.blocks[block.height].block_hash == block.block_hash:
            return "duplicate", None
        tip = self.tip
        if block.height != tip.height + 1 or block.parent_hash != tip.block_hash:
            return "BadParent", f"expected parent {tip.block_hash[:12]} at height {tip.height + 1}"
        problem = header_problem(block, self.target_bits)
        if problem is not None:
            return "BadPow", problem
        problem = self._try_apply(block)
        if problem is not None:
            return "BadTx", problem
        return "accepted", None

    def mine_next(
        self,
        miner: str,
        timestamp: int,
        max_txs: int = DEFAULT_MAX_BLOCK_TXS,
        include_txs: bool = True,
    ) -> Block:
        """Assemble, mine, and append the next block (single-threaded use)."""
        txs = self.assemble_candidate(max_txs) if include_txs else ()
        block = mine_candidate(self.height + 1, self.tip.block_hash, miner, txs, self.target_bits, timestamp)
        status, detail = self.receive_block(block)
        if status != "accepted":
            raise RuntimeError(f"freshly mined block rejected: {status} {detail}")
        return block

    def transaction_status(self, tx_id: str) -> tuple[str, int | None, Transaction | None]:
        """Report one of unknown / pending / mined(height) for a tx_id."""
        if tx_id in self.mempool:
            return "pending", None, self.mempool[tx_id]
        if tx_id in self.applied:
            height = self.applied[tx_id]
            for tx in self.blocks[height].transactions:
                if tx.tx_id == tx_id:
                    return "mined", height, tx
        return "unknown", None, None


def audit_chain(blocks: list[Block], doc: GenesisDocument) -> list[str]:
    """Full-chain audit: linkage, proof-of-work, tx validity, conservation.

    Returns a list of problems; an empty list means the chain verifies.
    """
    problems: list[str] = []
    if not blocks:
        return ["chain has no blocks"]
    if blocks[0].block_hash != doc.genesis_hash:
        problems.append(f"block 0 hash {blocks[0].block_hash[:12]} != genesis document hash")
    if blocks[0].parent_hash != ZERO_DIGEST or blocks[0].transactions:
        problems.append("block 0 must have all-zero parent and no transactions")
    target_bits = pow_target(doc.difficulty)
    total = sum(doc.allocations.values())
    balances = dict(doc.allocations)
    nonces: dict[str, int] = {}
    seen_txs: set[str] = set()
    for i, block in enumerate(blocks[1:], start=1):
        if block.height != i:
            problems.append(f"block at index {i} has height {block.height}")
            break
        if block.parent_hash != blocks[i - 1].block_hash:
            problems.append(f"block {i}: parent hash does not match block {i - 1}")
        problem = header_problem(block, target_bits)
        if problem is not None:
            problems.append(f"block {i}: {problem}")
        for tx in block.transactions:
            if tx.tx_id in seen_txs:
                problems.append(f"block {i}: tx {tx.tx_id[:12]} applied twice")
                continue
            try:
                check_tx(tx, doc.gas_limit)
                apply_tx(balances, nonces, tx)
            except TxError as exc:
                problems.append(f"block {i}: {exc}")  # and left out of the running balances
                continue
            seen_txs.add(tx.tx_id)
        if sum(balances.values()) != total:
            problems.append(f"block {i}: balance sum diverged from genesis total {total}")
    return problems
