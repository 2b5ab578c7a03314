from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainyard.canonical import canonical_json, digest_of
from chainyard.chain import Chain, make_transaction
from chainyard.genesis import derive_account, make_genesis
from chainyard.manager import make_bench_config
from chainyard.node import load_blocks
from chainyard.protocol import AdminUnreachable
from chainyard.tes import (
    Order,
    TesError,
    _DsoInbox,
    audit_report,
    clear_market,
    generate_day,
    read_report,
    run_day,
    stable_report_view,
    write_report,
)
from chainyard.wrapper import NodeWrapper
from conftest import BENCH_TEMPLATE, wait_until


def offers_of(*specs):
    return [Order(actor, 0, "offer", qty, price) for actor, qty, price in specs]


def bids_of(*specs):
    return [Order(actor, 0, "bid", qty, price) for actor, qty, price in specs]


def max_uniform_quantity(offers, bids):
    """Brute force: best min(supply(p), demand(p)) over all candidate prices."""
    prices = sorted({o.unit_price for o in offers} | {b.unit_price for b in bids})
    best = 0
    for price in prices:
        supply = sum(o.quantity for o in offers if o.unit_price <= price)
        demand = sum(b.quantity for b in bids if b.unit_price >= price)
        best = max(best, min(supply, demand))
    return best


def test_clear_market_worked_example():
    # Frozen from an enumeration of the supply/demand intersection: 8 units
    # trade, feasible uniform prices are 20..25, midpoint of the marginal
    # pair (20, 25) floors to 22.
    result = clear_market(
        offers_of(("A", 5, 10), ("B", 5, 20)),
        bids_of(("C", 8, 25)),
    )
    assert [(t.seller, t.buyer, t.quantity) for t in result.trades] == [("A", "C", 5), ("B", "C", 3)]
    assert result.clearing_price == 22
    assert all(t.unit_price == 22 for t in result.trades)
    assert result.dso_residual == 0
    assert result.matched_quantity() == 8 == max_uniform_quantity(
        offers_of(("A", 5, 10), ("B", 5, 20)), bids_of(("C", 8, 25))
    )


def test_settlements_list_each_payment_in_submission_order():
    # The worked example plus a bid that clears nothing: trades, then the DSO's sales, then its purchases.
    result = clear_market(offers_of(("A", 5, 10), ("B", 5, 20)), bids_of(("C", 8, 25), ("D", 3, 15)))
    assert result.settlements("dso1") == [
        ("C", "A", 5 * 22),
        ("C", "B", 3 * 22),
        ("D", "dso1", 3 * 30),
        ("dso1", "B", 2 * 5),
    ]


def test_clearing_a_seeded_day_is_byte_stable():
    config = make_bench_config(BENCH_TEMPLATE, 5, suffix="golden")
    book = generate_day(42, config)
    results = [
        clear_market([o for o in orders if o.side == "offer"], [o for o in orders if o.side == "bid"]).to_dict()
        for orders in book.values()
    ]
    assert len(results) == 24
    assert digest_of(results) == "e90815919e843b920d096c33789d8884c7934fe3ac6527a127c1c71b5bc0f866"


def test_clear_market_no_offers_residual_positive():
    result = clear_market([], bids_of(("C", 4, 25)))
    assert result.trades == []
    assert result.clearing_price is None
    assert result.dso_residual == 4
    assert result.dso_sales == [("C", 4)]


def test_clear_market_only_offers_exported_but_no_residual():
    result = clear_market(offers_of(("A", 6, 3)), [])
    assert result.trades == []
    assert result.dso_residual == 0  # no unserved demand; export is settled separately
    assert result.dso_purchases == [("A", 6)]


def test_clear_market_identical_price_trades_at_it():
    result = clear_market(offers_of(("A", 4, 7)), bids_of(("B", 4, 7)))
    assert len(result.trades) == 1
    assert result.clearing_price == 7
    assert result.dso_residual == 0


def test_clear_market_empty_inputs():
    result = clear_market([], [])
    assert result.trades == []
    assert result.dso_residual == 0


def test_clear_market_rejects_mixed_intervals():
    with pytest.raises(ValueError):
        clear_market([Order("A", 0, "offer", 1, 1)], [Order("B", 1, "bid", 1, 5)])


def test_order_validation():
    with pytest.raises(ValueError):
        Order("A", 0, "offer", 0, 5)
    with pytest.raises(ValueError):
        Order("A", 0, "hold", 1, 5)


order_lists = st.lists(
    st.tuples(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=20)),
    min_size=0,
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(offer_specs=order_lists, bid_specs=order_lists)
def test_clearing_matches_bruteforce_optimum(offer_specs, bid_specs):
    offers = [Order(f"s{i}", 0, "offer", q, p) for i, (q, p) in enumerate(offer_specs)]
    bids = [Order(f"b{i}", 0, "bid", q, p) for i, (q, p) in enumerate(bid_specs)]
    result = clear_market(offers, bids)

    # market balance: matched supply equals matched demand by construction
    sold = sum(t.quantity for t in result.trades)
    assert sold == result.matched_quantity()
    # optimality against the independent enumeration
    assert sold == max_uniform_quantity(offers, bids)
    # uniform price and exact budget balance
    if result.trades:
        assert len({t.unit_price for t in result.trades}) == 1
        payments = sum(t.quantity * t.unit_price for t in result.trades)
        receipts = sum(t.quantity * t.unit_price for t in result.trades)
        assert payments == receipts
        # clearing price sits between the marginal matched offer and bid
        matched_offers = [o.unit_price for o in offers]
        assert min(matched_offers) <= result.clearing_price <= 20
    # residual accounting: total demand minus matched supply (grid import)
    unmatched_demand = sum(b.quantity for b in bids) - sold
    unmatched_supply = sum(o.quantity for o in offers) - sold
    assert result.dso_residual == unmatched_demand
    assert sum(q for _, q in result.dso_sales) == unmatched_demand
    assert sum(q for _, q in result.dso_purchases) == unmatched_supply


def test_generate_day_deterministic_and_bounded():
    config = make_bench_config(BENCH_TEMPLATE, 5, suffix="gen")
    first = generate_day(1234, config)
    second = generate_day(1234, config)
    assert first == second
    different = generate_day(1235, config)
    assert first != different
    all_orders = [order for orders in first.values() for order in orders]
    assert len(all_orders) == 5 * 24
    for order in all_orders:
        assert 1 <= order.quantity <= 10
        assert 1 <= order.unit_price <= 20
        assert order.side in ("offer", "bid")


def test_generate_day_interval_override():
    config = make_bench_config(BENCH_TEMPLATE, 2, suffix="gen2")
    book = generate_day(7, config, intervals=3)
    assert sorted(book) == [0, 1, 2]


def test_dso_inbox_names_a_missing_order_without_waiting():
    inbox = _DsoInbox()
    order = Order("prosumer1", 0, "offer", 3, 10)
    inbox({"kind": "tes_order", "payload": canonical_json(order.to_dict())})
    started = time.monotonic()
    with pytest.raises(TesError, match="orders missing from prosumer2$"):
        inbox.orders_for(0, {"prosumer1", "prosumer2"})
    assert time.monotonic() - started < 0.1
    assert inbox.orders_for(0, {"prosumer1"}) == [order]


def test_dso_inbox_discards_an_order_that_carries_nan():
    inbox = _DsoInbox()  # a NaN quantity passes Order's "> 0" check, and clear_market never ends on it
    doc = Order("prosumer1", 0, "offer", 3, 10).to_dict()
    inbox({"kind": "tes_order", "payload": json.dumps(dict(doc, quantity=float("nan"))).encode()})
    with pytest.raises(TesError, match="orders missing from prosumer1$"):
        inbox.orders_for(0, {"prosumer1"})


# -- audit (unit level, no network)---------------------------------------------


def fabricate_committed_report(tmp_name="fab"):
    """A 2-interval report plus a real chain carrying its commitments."""
    config = make_bench_config(BENCH_TEMPLATE, 2, suffix=tmp_name)
    doc = make_genesis(config)
    chain = Chain(doc)
    dso_account = derive_account(config.configuration_name, "dso1")
    outcomes = []
    chain_digest = ""
    for interval in range(2):
        result = clear_market(
            [Order("prosumer1", interval, "offer", 5, 4)],
            [Order("prosumer2", interval, "bid", 5, 9)],
        )
        payload_digest = result.digest()
        tx = make_transaction(
            dso_account, dso_account, 0, nonce=chain.next_nonce_for(dso_account), payload_hash=payload_digest
        )
        chain.submit_transaction(tx)
        chain.mine_next(dso_account, timestamp=interval)
        outcomes.append(
            {
                "interval": interval,
                "status": "ok",
                "result": result.to_dict(),
                "digest": payload_digest,
                "chainDigest": chain_digest,
                "commitTxId": tx.tx_id,
                "settlementTxIds": [],
                "error": None,
            }
        )
    report = {"configurationName": config.configuration_name, "seed": 0, "intervals": 2, "outcomes": outcomes}
    return report, chain


def test_audit_passes_untampered_report():
    report, chain = fabricate_committed_report()
    findings = audit_report(report, chain.blocks)
    assert all(f.ok for f in findings)
    assert len(findings) == 2


def test_audit_fails_exactly_the_tampered_interval():
    report, chain = fabricate_committed_report()
    report["outcomes"][1]["result"]["clearingPrice"] += 1
    findings = audit_report(report, chain.blocks)
    assert findings[0].ok
    assert not findings[1].ok
    assert "digest mismatch" in findings[1].reason


def test_audit_flags_unmined_commitment():
    report, chain = fabricate_committed_report()
    report["outcomes"][0]["commitTxId"] = "ab" * 32
    findings = audit_report(report, chain.blocks)
    assert not findings[0].ok
    assert "unmined" in findings[0].reason


def test_report_round_trip(tmp_path):
    report, _ = fabricate_committed_report()
    path = tmp_path / "report.json"
    write_report(report, path)
    assert read_report(path) == report


# -- the day, end to end on a live network ----------------------------------------


@pytest.fixture
def day_network(live_network):
    wrappers = []

    def launch(prosumers=2, block_interval=0.12):
        manager, config = live_network(prosumers=prosumers, block_interval=block_interval)
        built = {}
        for client in config.clients:
            wrapper = NodeWrapper(manager.node_dir(client.name), poll_period=0.1).attach()
            wrappers.append(wrapper)
            built[client.name] = wrapper
        return manager, config, built

    yield launch
    for wrapper in wrappers:
        wrapper.close()


def expected_deltas(report):
    deltas: dict[str, int] = {}
    for outcome in report["outcomes"]:
        if outcome["status"] != "ok":
            continue
        result = outcome["result"]
        tariff = result["tariff"]
        for trade in result["trades"]:
            paid = trade["quantity"] * trade["unitPrice"]
            deltas[trade["buyer"]] = deltas.get(trade["buyer"], 0) - paid
            deltas[trade["seller"]] = deltas.get(trade["seller"], 0) + paid
        for buyer, quantity in result["dsoSales"]:
            paid = quantity * tariff["buyPrice"]
            deltas[buyer] = deltas.get(buyer, 0) - paid
            deltas["dso1"] = deltas.get("dso1", 0) + paid
        for seller, quantity in result["dsoPurchases"]:
            paid = quantity * tariff["sellPrice"]
            deltas["dso1"] = deltas.get("dso1", 0) - paid
            deltas[seller] = deltas.get(seller, 0) + paid
    return deltas


def test_run_day_happy_path_commits_and_audits(day_network):
    manager, config, wrappers = day_network(prosumers=2)
    report = run_day(wrappers, config, seed=42, intervals=3)
    assert [o["status"] for o in report["outcomes"]] == ["ok", "ok", "ok"]
    assert all(o["commitTxId"] for o in report["outcomes"])

    # settlement moved exactly the cleared value
    deltas = expected_deltas(report)
    balance_of = wrappers["dso1"].admin.get_balance
    for node in config.all_nodes():
        account = derive_account(config.configuration_name, node.name)
        expected = BENCH_TEMPLATE.genesis.balance + deltas.get(node.name, 0)
        assert balance_of(account) == expected, node.name

    manager.network_stop()
    blocks = load_blocks(manager.node_dir(config.miners[0].name))
    findings = audit_report(report, blocks)
    assert all(f.ok for f in findings)


def test_run_day_with_fault_recovers_and_still_commits(day_network):
    manager, config, wrappers = day_network(prosumers=2, block_interval=0.15)
    report = run_day(
        wrappers, config, seed=7, intervals=3, fault=(1, "dso1", "stall_mempool"), mine_deadline=60.0
    )
    assert [o["status"] for o in report["outcomes"]] == ["ok", "ok", "ok"]
    assert wrappers["dso1"].recovery_count >= 1

    manager.network_stop()
    blocks = load_blocks(manager.node_dir(config.miners[0].name))
    assert all(f.ok for f in audit_report(report, blocks))


def test_run_day_records_an_unreachable_node_as_a_failed_interval(day_network):
    manager, config, wrappers = day_network(prosumers=2)
    dso = wrappers["dso1"]
    submit, commits = dso.submit, []

    def submit_meeting_a_restart(*args, payload_hash=None, **kwargs):
        if payload_hash is not None:  # the interval's on-chain commitment
            commits.append(payload_hash)
            if len(commits) == 2:
                raise AdminUnreachable("admin unreachable: node restarting")
        return submit(*args, payload_hash=payload_hash, **kwargs)

    dso.submit = submit_meeting_a_restart
    report = run_day(wrappers, config, seed=42, intervals=3)
    assert [o["status"] for o in report["outcomes"]] == ["ok", "failed", "ok"]
    assert "node restarting" in report["outcomes"][1]["error"]


def test_run_day_waits_for_a_recovery_in_progress(day_network):
    manager, config, wrappers = day_network(prosumers=2)
    dso = wrappers["dso1"]
    recovery = threading.Thread(target=dso.recover)  # dso1's node restarts as the day begins
    recovery.start()
    wait_until(dso._recover_lock.locked, message="the recovery under way")
    report = run_day(wrappers, config, seed=42, intervals=2)
    recovery.join(timeout=30)
    assert not recovery.is_alive()
    assert [o["status"] for o in report["outcomes"]] == ["ok", "ok"]
    assert dso.recovery_count == 1

    manager.network_stop()
    blocks = load_blocks(manager.node_dir(config.miners[0].name))
    assert all(f.ok for f in audit_report(report, blocks))


def test_stable_report_view_strips_timestamps():
    report, _ = fabricate_committed_report()
    report["startedAt"] = 1.0
    report["finishedAt"] = 2.0
    view = stable_report_view(report)
    assert "startedAt" not in view and "finishedAt" not in view
    assert view["outcomes"] == report["outcomes"]
