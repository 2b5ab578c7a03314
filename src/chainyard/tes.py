"""Transactive-energy case study: a simulated day of local energy trading.

Prosumers send hourly offers/bids off-chain to the DSO wrapper; the DSO
clears a uniform-price double auction, broadcasts the full result
off-chain, and commits only its digest on-chain. Settlement moves value
on-chain per trade. Anyone holding the day report and any node's chain
can audit that no result was altered after the fact.

All arithmetic is integer (quantities, prices, midpoints) so clearing
is exact and reproducible.
"""

from __future__ import annotations

import json
import logging
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .canonical import canonical_json, digest_of, document, from_document, sha256_hex
from .chain import Block
from .dsl import NetworkConfig, node_lookup
from .genesis import derive_account
from .protocol import AdminClient, AdminError, AdminTimeout, AdminUnreachable
from .wrapper import NodeWrapper, PeerUnreachable

logger = logging.getLogger(__name__)

QUANTITY_RANGE = (1, 10)  # kWh per order
PRICE_RANGE = (1, 20)  # currency units per kWh
DEFAULT_INTERVALS = 24
SETTLEMENT_COST = 21000
BUY_PRICE = 30  # participants buy from the grid (the DSO) at this price
SELL_PRICE = 5  # participants sell to the grid (the DSO) at this price
TARIFF = {"buyPrice": BUY_PRICE, "sellPrice": SELL_PRICE}


class TesError(RuntimeError):
    pass


@dataclass(frozen=True)
class Order:
    actor: str
    interval: int
    side: str  # offer | bid
    quantity: int
    unit_price: int

    def __post_init__(self):
        if self.side not in ("offer", "bid"):
            raise ValueError(f"order side must be 'offer' or 'bid', got {self.side!r}")
        if self.quantity <= 0:
            raise ValueError("order quantity must be positive")
        if self.unit_price <= 0:
            raise ValueError("order unit price must be positive")

    def to_dict(self) -> dict:
        return document(self)


@dataclass(frozen=True)
class Trade:
    seller: str
    buyer: str
    quantity: int
    unit_price: int


@dataclass
class ClearingResult:
    interval: int
    trades: list[Trade]
    clearing_price: int | None
    dso_residual: int  # grid import covering unmatched demand
    dso_sales: list[tuple[str, int]] = field(default_factory=list)  # (buyer, qty) at BUY_PRICE
    dso_purchases: list[tuple[str, int]] = field(default_factory=list)  # (seller, qty) at SELL_PRICE

    def matched_quantity(self) -> int:
        return sum(t.quantity for t in self.trades)

    def settlements(self, dso: str) -> list[tuple[str, str, int]]:
        """(payer, payee, amount) of each payment: the trades, then the DSO's sales, then its purchases."""
        return (
            [(t.buyer, t.seller, t.quantity * t.unit_price) for t in self.trades]
            + [(buyer, dso, qty * BUY_PRICE) for buyer, qty in self.dso_sales]
            + [(dso, seller, qty * SELL_PRICE) for seller, qty in self.dso_purchases]
        )

    def to_dict(self) -> dict:
        trades = [document(t) for t in self.trades]
        sales, purchases = list(map(list, self.dso_sales)), list(map(list, self.dso_purchases))
        return {**document(self, trades=trades, dso_sales=sales, dso_purchases=purchases), "tariff": dict(TARIFF)}

    def digest(self) -> str:
        return digest_of(self.to_dict())


def _prosumers(config: NetworkConfig) -> list[str]:
    return sorted(c.name for c in config.clients if c.role == "prosumer")


def generate_day(seed: int, config: NetworkConfig, intervals: int = DEFAULT_INTERVALS) -> dict[int, list[Order]]:
    """Deterministic synthetic order book: one order per prosumer per interval."""
    rng = random.Random(seed)
    prosumers = _prosumers(config)
    book: dict[int, list[Order]] = {}
    for interval in range(intervals):
        orders = []
        for actor in prosumers:
            side = rng.choice(("offer", "bid"))
            quantity = rng.randint(*QUANTITY_RANGE)
            price = rng.randint(*PRICE_RANGE)
            orders.append(Order(actor, interval, side, quantity, price))
        book[interval] = orders
    return book


def clear_market(offers: list[Order], bids: list[Order]) -> ClearingResult:
    """Uniform-price double auction for one interval.

    Offers are filled cheapest first, bids dearest first, matched while
    the bid price covers the offer price. The clearing price is the
    integer midpoint of the marginal matched pair; every local trade
    settles at it. Unmatched demand buys from the DSO at BUY_PRICE,
    unmatched supply sells to the DSO at SELL_PRICE.
    """
    interval = offers[0].interval if offers else (bids[0].interval if bids else 0)
    for order in offers + bids:
        if order.interval != interval:
            raise ValueError("clear_market expects orders from a single interval")
    sorted_offers = sorted(offers, key=lambda o: (o.unit_price, o.actor))
    sorted_bids = sorted(bids, key=lambda o: (-o.unit_price, o.actor))
    offer_left = [o.quantity for o in sorted_offers]
    bid_left = [b.quantity for b in sorted_bids]

    raw_trades: list[tuple[str, str, int]] = []
    marginal_offer_price = None
    marginal_bid_price = None
    i = j = 0
    while i < len(sorted_offers) and j < len(sorted_bids):
        offer, bid = sorted_offers[i], sorted_bids[j]
        if bid.unit_price < offer.unit_price:
            break
        quantity = min(offer_left[i], bid_left[j])
        raw_trades.append((offer.actor, bid.actor, quantity))
        marginal_offer_price = offer.unit_price
        marginal_bid_price = bid.unit_price
        offer_left[i] -= quantity
        bid_left[j] -= quantity
        if offer_left[i] == 0:
            i += 1
        if bid_left[j] == 0:
            j += 1

    clearing_price: int | None = None
    if raw_trades:
        clearing_price = (marginal_offer_price + marginal_bid_price) // 2
    trades = [Trade(seller, buyer, qty, clearing_price) for seller, buyer, qty in raw_trades if qty > 0]

    dso_sales = [(b.actor, left) for b, left in zip(sorted_bids, bid_left) if left > 0]
    dso_purchases = [(o.actor, left) for o, left in zip(sorted_offers, offer_left) if left > 0]
    # Residual = total demand minus matched local supply: the energy the grid
    # must import for unserved buyers. Unmatched supply is settled separately
    # (dso_purchases) and does not offset the residual.
    residual = sum(q for _, q in dso_sales)
    return ClearingResult(
        interval=interval,
        trades=trades,
        clearing_price=clearing_price,
        dso_residual=residual,
        dso_sales=dso_sales,
        dso_purchases=dso_purchases,
    )


# -- day orchestration ---------------------------------------------------------


@dataclass
class IntervalOutcome:
    interval: int
    status: str  # ok | failed
    result: dict | None = None
    digest: str | None = None
    chain_digest: str | None = None
    commit_tx_id: str | None = None
    settlement_tx_ids: list[str] = field(default_factory=list)
    error: str | None = None


class _DsoInbox:
    """Collects prosumer orders arriving on the DSO wrapper's off-chain channel.

    The wrapper runs this handler before it acks a message, so an order is here once its send_offchain returned.
    """

    def __init__(self):
        self._orders: dict[tuple[int, str], Order] = {}

    def __call__(self, message: dict) -> None:
        if message.get("kind") != "tes_order":
            return
        try:
            order = from_document(Order, json.loads(message["payload"].decode("utf-8")))
        except (ValueError, KeyError):
            logger.warning("dso inbox: discarding malformed order message")
            return
        self._orders[(order.interval, order.actor)] = order

    def orders_for(self, interval: int, actors: set[str]) -> list[Order]:
        missing = sorted(actor for actor in actors if (interval, actor) not in self._orders)
        if missing:
            raise TesError(f"interval {interval}: orders missing from {', '.join(missing)}")
        return [self._orders[(interval, actor)] for actor in sorted(actors)]


class _Day:
    """One trading day over a running network: the parties, the DSO's inbox, and the rule that clears an interval."""

    def __init__(self, wrappers: dict[str, NodeWrapper], config: NetworkConfig, mine_deadline: float):
        dsos = [c.name for c in config.clients if c.role == "dso"]
        if len(dsos) != 1:
            raise TesError(f"the trading day needs exactly one dso client, found {len(dsos)}")
        self.prosumers = _prosumers(config)
        if not self.prosumers:
            raise TesError("config has no prosumers")
        self.wrappers = wrappers
        self.dso = dsos[0]
        self.accounts = {node.name: derive_account(config.configuration_name, node.name) for node in config.all_nodes()}
        self.endpoints = {c.name: (c.host, c.wrapper_port) for c in config.clients}
        self.inbox = _DsoInbox()
        self.mine_deadline = mine_deadline
        wrappers[self.dso].on_message(self.inbox)

    def clear(self, interval: int, orders: list[Order], prev_chain_digest: str) -> IntervalOutcome:
        # Prosumers submit orders concurrently over the off-chain channel.
        errors: list[str] = []

        def send_order(order: Order) -> None:
            try:
                self.wrappers[order.actor].send_offchain(
                    self.endpoints[self.dso], canonical_json(order.to_dict()), kind="tes_order"
                )
            except PeerUnreachable as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=send_order, args=(order,)) for order in orders]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise TesError(f"interval {interval}: order delivery failed: {errors[0]}")

        received = self.inbox.orders_for(interval, {order.actor for order in orders})
        result = clear_market([o for o in received if o.side == "offer"], [o for o in received if o.side == "bid"])
        digest = result.digest()

        # Full result goes off-chain to every prosumer; only its digest goes on-chain.
        dso = self.wrappers[self.dso]
        commit_tx_id, _ = dso.submit_with_privacy(
            canonical_json(result.to_dict()),
            recipient=self.accounts[self.dso],
            value=0,
            endpoints=[self.endpoints[p] for p in self.prosumers],
        )
        settlement_tx_ids = [
            self.wrappers[payer].submit(self.accounts[payee], amount, cost=SETTLEMENT_COST)
            for payer, payee, amount in result.settlements(self.dso)
        ]

        _await_mined(dso.admin, [commit_tx_id, *settlement_tx_ids], self.mine_deadline, interval)
        return IntervalOutcome(
            interval=interval,
            status="ok",
            result=result.to_dict(),
            digest=digest,
            chain_digest=sha256_hex(f"{prev_chain_digest}:{digest}".encode("utf-8")),
            commit_tx_id=commit_tx_id,
            settlement_tx_ids=settlement_tx_ids,
        )


def run_day(
    wrappers: dict[str, NodeWrapper],
    config: NetworkConfig,
    seed: int,
    intervals: int = DEFAULT_INTERVALS,
    fault: tuple[int, str, str] | None = None,
    mine_deadline: float = 90.0,
) -> dict:
    """Drive a full trading day over a running, connected network.

    A faulted interval is aborted (marked failed) without aborting the
    day. The returned report is a plain dict ready for canonical
    serialization.
    """
    day = _Day(wrappers, config, mine_deadline)
    book = generate_day(seed, config, intervals)
    outcomes: list[IntervalOutcome] = []
    chain_digest = ""
    started_at = time.time()

    for interval in range(intervals):
        if fault is not None and fault[0] == interval:
            _inject_fault(config, fault[1], fault[2])
        try:
            outcome = day.clear(interval, book[interval], chain_digest)
        except (TesError, AdminError, AdminTimeout, AdminUnreachable, PeerUnreachable) as exc:
            logger.error("interval %d failed: %s", interval, exc)
            outcome = IntervalOutcome(interval=interval, status="failed", error=str(exc))
        if outcome.chain_digest:
            chain_digest = outcome.chain_digest
        outcomes.append(outcome)

    return {
        "configurationName": config.configuration_name,
        "seed": seed,
        "intervals": intervals,
        "tariff": dict(TARIFF),
        "outcomes": [document(o) for o in outcomes],
        "finalChainDigest": chain_digest,
        "startedAt": started_at,
        "finishedAt": time.time(),
    }


def _await_mined(admin: AdminClient, tx_ids: list[str], deadline: float, interval: int) -> None:
    limit = time.monotonic() + deadline
    waiting = list(tx_ids)
    while waiting:
        tx_id = waiting[0]
        try:
            info = admin.get_transaction(tx_id)
            if info["status"] == "mined":
                waiting.pop(0)
                continue
        except (AdminTimeout, AdminUnreachable):
            pass  # node may be mid-recovery; keep waiting
        if time.monotonic() > limit:
            raise TesError(f"interval {interval}: tx {tx_id[:12]} not mined within {deadline}s")
        time.sleep(0.05)


def _inject_fault(config: NetworkConfig, node_name: str, mode: str) -> None:
    spec = node_lookup(config, node_name)
    logger.warning("injecting fault %s on node %s at its admin port", mode, node_name)
    AdminClient(spec.host, spec.admin_port, timeout=2.0).set_fault(mode)


# -- reporting and audit ----------------------------------------------------------


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_bytes(canonical_json(report))


def read_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def stable_report_view(report: dict) -> dict:
    """The deterministic part of a report: everything except wall-clock stamps."""
    view = {k: v for k, v in report.items() if k not in ("startedAt", "finishedAt")}
    return view


@dataclass(frozen=True)
class AuditFinding:
    interval: int
    ok: bool
    reason: str


def audit_report(report: dict, blocks: list[Block]) -> list[AuditFinding]:
    """Verify every interval's on-chain commitment against the reported result.

    Recomputes each clearing result digest and compares it with the
    payload hash of the recorded transaction on the given chain; the
    transaction must be mined.
    """
    tx_index = {}
    for block in blocks:
        for tx in block.transactions:
            tx_index[tx.tx_id] = tx
    findings: list[AuditFinding] = []
    for outcome in report.get("outcomes", []):
        interval = outcome.get("interval", -1)
        if outcome.get("status") != "ok":
            findings.append(AuditFinding(interval, False, f"interval marked {outcome.get('status')}"))
            continue
        tx = tx_index.get(outcome.get("commitTxId"))
        if tx is None:
            findings.append(AuditFinding(interval, False, "unmined: commitment tx not on chain"))
            continue
        recomputed = digest_of(outcome.get("result"))
        if recomputed != tx.payload_hash:
            findings.append(
                AuditFinding(interval, False, f"digest mismatch: result {recomputed[:12]} vs chain {tx.payload_hash[:12]}")
            )
            continue
        findings.append(AuditFinding(interval, True, "ok"))
    return findings
