"""Per-layer measurements for the traced run.

Two kinds: in-process replays of a run's recorded inputs through a
layer's public functions (chain, node replay, market clearing), and
short probes on the live network for the layer paths a workload's own
body does not exercise (gossip hops, the wrapper's fault recovery).
"""

from __future__ import annotations

import statistics
import threading
import time
from pathlib import Path

from chainyard.chain import Chain, TxError, make_transaction, mine_candidate
from chainyard.genesis import derive_account, read_genesis
from chainyard.node import NodeRuntime
from chainyard.protocol import AdminClient
from chainyard.tes import clear_market, generate_day
from chainyard.wrapper import TX_MINED, TX_STALLED, LocalNodeLauncher, NodeWrapper

from harness import Net, Tracer, median


def chain_layers(net: Net, blocks: list, gates) -> dict[str, float]:
    """Replay the miner's persisted chain in-process: admission at depth, assembly, apply, PoW."""
    doc = read_genesis(net.manager.node_dir(net.miner.name) / "genesis.json")
    txs = [tx for block in blocks[1:] for tx in block.transactions]
    out: dict[str, float] = {}

    pool = Chain(doc)
    admit = []
    for tx in txs:
        started = time.perf_counter()
        try:
            pool.submit_transaction(tx)
        except TxError as exc:
            gates.check(False, f"replayed tx {tx.tx_id[:12]} rejected: {exc}")
        admit.append(time.perf_counter() - started)
    edge = max(1, min(100, len(admit) // 10))
    out["chain.admit_first_us"] = statistics.fmean(admit[:edge]) * 1e6 if admit else 0.0
    out["chain.admit_last_us"] = statistics.fmean(admit[-edge:]) * 1e6 if admit else 0.0
    assemble = []
    for _ in range(5):
        started = time.perf_counter()
        pool.assemble_candidate(net.manager.node_defaults.max_block_txs)
        assemble.append(time.perf_counter() - started)
    out["chain.assemble_ms"] = median(assemble) * 1e3

    replica = Chain(doc)
    started = time.perf_counter()
    for block in blocks[1:]:
        status, detail = replica.receive_block(block)
        gates.check(status == "accepted", f"replayed block {block.height}: {status} {detail}")
    out["chain.receive_block_ms"] = (time.perf_counter() - started) / max(1, len(blocks) - 1) * 1e3
    out["chain.pow_hashes"] = float(sum(block.pow_nonce + 1 for block in blocks[1:]))

    recent = blocks[-40:] if len(blocks) > 40 else blocks[1:]
    started = time.perf_counter()
    for block in recent:
        again = mine_candidate(
            block.height, block.parent_hash, block.miner, block.transactions, replica.target_bits, block.timestamp
        )
        gates.check(again.block_hash == block.block_hash, f"re-mined block {block.height} differs")
    elapsed = time.perf_counter() - started
    out["chain.hash_rate"] = sum(block.pow_nonce + 1 for block in recent) / elapsed if elapsed > 0 else 0.0
    return out


def node_replay_s(net: Net, scratch: Path) -> float:
    """NodeRuntime start-up replay on a copy of the stopped miner's data directory."""
    copy = net.copy_node_dir(net.miner.name, scratch / "replay")
    started = time.perf_counter()
    NodeRuntime(copy)
    return time.perf_counter() - started


def clear_market_us(net: Net, seed: int, reps: int = 20) -> float:
    book = generate_day(seed, net.config, 24)
    sides = [
        ([o for o in orders if o.side == "offer"], [o for o in orders if o.side == "bid"]) for orders in book.values()
    ]
    started = time.perf_counter()
    for _ in range(reps):
        for offers, bids in sides:
            clear_market(offers, bids)
    return (time.perf_counter() - started) / (reps * len(sides)) * 1e6


def idle_block_number_ms(net: Net, count: int = 50) -> list[float]:
    admin = net.admin(net.clients[0])
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        admin.block_number()
        samples.append((time.perf_counter() - started) * 1e3)
    return samples


def hop_probe(net: Net, tracer: Tracer, count: int = 30, rate: float = 20.0) -> dict[str, list[float]]:
    """Gossip hops, polled from outside at ~1 ms.

    tx hop: a tx admitted at a client until the miner knows it.
    block hop: the miner reaching a height until the client holds it.
    Txs come from the miner's account, continuing its nonce sequence.
    """
    client, miner = net.clients[0], net.miner
    client_admin = net.admin(client)
    miner_poll = AdminClient(miner.host, miner.admin_port)
    client_poll = AdminClient(client.host, client.admin_port)
    sender = derive_account(net.config.configuration_name, miner.name)
    recipient = derive_account(net.config.configuration_name, client.name)
    nonce = client_admin.get_nonce(sender)
    tx_hops, block_hops, lateness, sent = [], [], [], []
    started = time.perf_counter()
    for index in range(count):
        due = started + index / rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lateness.append((time.perf_counter() - due) * 1e3)
        tx = make_transaction(sender, recipient, 1, nonce + index)
        with tracer.span("probe.tx", op=tx.tx_id):
            client_admin.submit_tx(tx.to_dict())
            admitted = time.perf_counter()
            with tracer.span("node.tx_hop"):
                while miner_poll.get_transaction(tx.tx_id)["status"] == "unknown":
                    if time.perf_counter() - admitted > 2.0:
                        break
                    time.sleep(0.001)
                else:
                    tx_hops.append((time.perf_counter() - admitted) * 1e3)
        sent.append(tx.tx_id)
    deadline = time.perf_counter() + max(3.0, 12 * net.block_interval)
    last = miner_poll.block_number()
    while len(block_hops) < 10 and time.perf_counter() < deadline:
        height = miner_poll.block_number()
        if height > last:
            seen = time.perf_counter()
            with tracer.span("node.block_hop"):
                while client_poll.block_number() < height and time.perf_counter() - seen < 2.0:
                    time.sleep(0.001)
            block_hops.append((time.perf_counter() - seen) * 1e3)
            last = height
        time.sleep(0.001)
    return {"tx_hop": tx_hops, "block_hop": block_hops, "lateness": lateness, "tx_ids": sent}


def recovery_probe(net: Net, launcher: LocalNodeLauncher, timeout: float = 20.0) -> dict:
    """The wrapper's fault recovery for one stalled tx on dso1.

    ``stall_mempool`` on dso1, one ``NodeWrapper.submit`` from its account,
    then wait for the wrapper to detect the stall, restart the node and see
    the resubmitted tx mined. Only this one tx is pending on the faulted
    node. Returns the timings (None when the tx was not mined), the tx id
    and the wrapper's recovery count.
    """
    node = next(c for c in net.clients if c.name == "dso1")
    wrapper = NodeWrapper(net.manager.node_dir(node.name), poll_period=0.1, launcher=launcher)
    wrapper.admin = net.admin(node, timeout=wrapper.admin.timeout)
    events: dict[str, float] = {}
    mined = threading.Event()
    tx_id = None

    def on_event(event) -> None:
        if event.tx_id == tx_id:
            events.setdefault(event.kind, event.observed_at)
            if event.kind == TX_MINED:
                mined.set()

    wrapper.subscribe([TX_STALLED, TX_MINED], on_event)
    try:
        wrapper.attach()
        net.admin(node).set_fault("stall_mempool")
        with net.tracer.span("wrapper.recovery"):
            tx_id = wrapper.submit(derive_account(net.config.configuration_name, net.miner.name), 1)
            mined.wait(timeout)
    finally:
        wrapper.close()
    net.refresh_pids()
    out = {"tx_id": tx_id, "recoveries": wrapper.recovery_count, "stall_detect_s": None}
    if TX_STALLED in events and TX_MINED in events:
        submitted = wrapper.journal.entries[tx_id].submitted_at
        out["stall_detect_s"] = events[TX_STALLED] - submitted
        out["restart_s"] = events[TX_MINED] - events[TX_STALLED]
        out["recovery_s"] = events[TX_MINED] - submitted
    return out
