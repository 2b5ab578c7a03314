"""The four workloads of the chainyard benchmark.

Every workload runs rounds; a round builds a fresh local network through
``NetworkManager``, drives it, gates its outputs and tears it down. The
number of rounds follows from ``--seconds`` and the workload's nominal round
length alone, so two commits compare the same number of rounds. Set-up,
tear-down and peak RSS report the median round; latency and throughput the
best round (``best_round``; on tx_stream the best 2 s window).

End-to-end metrics use one vocabulary on every workload (see ``E2E``);
``named`` holds the workload-specific names, e.g. ``admit_tx_per_s`` of
tx_backlog, which is about 1000 / ``latency_mean_ms``.
"""

from __future__ import annotations

import random
import statistics
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from chainyard.chain import Transaction, make_transaction
from chainyard.manager import ManagerError
from chainyard.protocol import AdminClient, AdminError
from chainyard.tes import audit_report, run_day
from chainyard.wrapper import TX_MINED, LocalNodeLauncher, NodeWrapper

import layers
from harness import Gates, Net, Tracer, fetch_blocks, median, percentile, span_cost_us

E2E = {
    "setup_s": "s",
    "teardown_s": "s",
    "peak_rss_mb": "MB",
    "latency_mean_ms": "ms",
    "latency_p99_ms": "ms",
    "throughput_per_s": "1/s",
}

STREAM_RATE = 100.0  # tx/s, about half of what one client admits back to back
STREAM_WINDOW_S = 2.0
STREAM_WINDOWS = 2  # per round; each window waits until its txs are mined, so it starts on a shallow mempool
BACKLOG_TXS = 1000


@dataclass
class Ctx:
    workload: str
    seed: int
    seconds: float
    tracer: Tracer
    work: Path
    gates: Gates = field(default_factory=Gates)
    attempted: int = 0
    failed: int = 0
    setup: list = field(default_factory=list)
    teardown: list = field(default_factory=list)
    rss: list = field(default_factory=list)
    latency: list = field(default_factory=list)  # ms samples, one list per round (tx_stream: per window)
    rates: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    named: dict = field(default_factory=dict)  # name -> (value, unit, note)
    layer: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)  # phase -> [seconds per round]
    executor: dict = field(default_factory=lambda: {"calls": [], "busy": []})
    idle_bn: list = field(default_factory=list)
    hops: dict = field(default_factory=lambda: {"tx_hop": [], "block_hop": [], "lateness": []})
    day: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.workload}:{self.seed}:{round_index}")

    def fail(self, what: str, count: int = 1) -> None:
        """Count failed operations (rejected submits, unmined txs, failed intervals)."""
        self.failed += count
        self.errors.append(what)


def make_txs(rng: random.Random, accounts: list[str], count: int) -> list[Transaction]:
    """Value transfers from every funded account in round-robin, seeded recipients and values."""
    nonces = dict.fromkeys(accounts, 0)
    txs = []
    for index in range(count):
        sender = accounts[index % len(accounts)]
        recipient = rng.choice([a for a in accounts if a != sender])
        txs.append(make_transaction(sender, recipient, rng.randint(1, 9), nonces[sender]))
        nonces[sender] += 1
    return txs


class HeightWatcher(threading.Thread):
    """Polls one node's height; stamps each tx with the moment its block was first seen there."""

    def __init__(self, node, poll: float):
        super().__init__(daemon=True)
        self.node = node
        self.poll = poll
        self.admin = AdminClient(node.host, node.admin_port)
        self.height = self.admin.block_number()
        self.seen: dict[str, float] = {}
        self.halt = threading.Event()
        self.error: Exception | None = None

    def run(self) -> None:
        try:
            while not self.halt.is_set():
                height = self.admin.block_number()
                if height > self.height:
                    now = time.perf_counter()
                    for block in fetch_blocks(self.node.host, self.node.blockchain_port, self.height + 1):
                        for tx in block["transactions"]:
                            self.seen.setdefault(tx["txId"], now)
                        self.height = max(self.height, block["height"])
                self.halt.wait(self.poll)
        except OSError as exc:
            self.error = exc

    def wait_for(self, tx_ids, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline and self.error is None:
            if all(tx_id in self.seen for tx_id in tx_ids):
                return True
            time.sleep(0.01)
        return False

    def close(self) -> None:
        self.halt.set()
        self.join(timeout=10)


# -- rounds ---------------------------------------------------------------------------


def run_rounds(ctx: Ctx, net: Net, body, round_s: float) -> None:
    """Run set-up → body → gates → tear-down on ``net`` a fixed number of times.

    ``round_s`` is the workload's nominal round length: the count is
    ``--seconds`` / ``round_s`` (at least 3) and never depends on how fast
    the rounds actually go.
    """
    rounds = max(3, int(ctx.seconds / round_s))
    for index in range(rounds):
        one_round(ctx, net, body, index)
    ctx.notes.append(f"rounds={rounds}")


def one_round(ctx: Ctx, net: Net, body, index: int) -> None:
    ctx.attempted += 1
    # The traced run measures the layers once, in the first round that gets through (node.replay_s comes last).
    probe = ctx.tracer.enabled and "node.replay_s" not in ctx.layer
    try:
        ctx.setup.append(net.setup())
        for phase, seconds in net.phases.items():
            ctx.phases.setdefault(phase, []).append(seconds)
        if ctx.tracer.enabled:
            ctx.idle_bn.extend(layers.idle_block_number_ms(net))
        tx_ids = list(body(ctx, net, index))
        if probe:
            # Layer paths the body may not exercise, probed once on the same live network.
            probe = layers.hop_probe(net, ctx.tracer)
            for key in ("tx_hop", "block_hop", "lateness"):
                ctx.hops[key].extend(probe[key])
            tx_ids += probe["tx_ids"]
            if ctx.workload != "trading_day":
                tx_ids += trading_day_round(ctx, net, index, intervals=4, record_e2e=False)
            tx_ids += recovery_round(ctx, net, index)
            ctx.layer["tes.clear_market_us"] = layers.clear_market_us(net, ctx.seed)
        ctx.gates.check(net.settle(), f"round {index}: clients did not reach the miner's height")
        ctx.rss.append(net.peak_rss_mb())
        stop_s = net.stop()
        chains = net.persisted_chains()
        net.audit(ctx.gates, chains, tx_ids)
        for report in ctx.day.pop("pending_reports", []):
            bad = [(f.interval, f.reason) for f in audit_report(report, chains[net.miner.name]) if not f.ok]
            if bad:
                ctx.fail(f"round {index}: audit_report: {bad[:3]}", len(bad))
        if probe:
            ctx.layer.update(layers.chain_layers(net, chains[net.miner.name], ctx.gates))
            ctx.layer["node.replay_s"] = layers.node_replay_s(net, ctx.work)
        delete_s = net.delete()
        ctx.teardown.append(stop_s + delete_s)
        for phase in ("NetworkStop", "NetworkDelete"):
            ctx.phases.setdefault(phase, []).append(net.phases[phase])
        ctx.executor["calls"].append(net.executor.calls)
        ctx.executor["busy"].append(net.executor.busy)
        for launcher in ctx.day.pop("launchers", []):
            launcher.reap()
        net.check_no_pids(ctx.gates)
    except (ManagerError, AdminError, OSError) as exc:
        where = " > ".join(f"{Path(f.filename).name}:{f.lineno}" for f in traceback.extract_tb(exc.__traceback__))
        ctx.fail(f"round {index}: {type(exc).__name__} at {where}: {exc}")
        cleanup(ctx, net)
    except BaseException:
        cleanup(ctx, net)
        raise


def cleanup(ctx: Ctx, net: Net) -> None:
    net.force_cleanup()
    unaudited = sum(len(report["outcomes"]) for report in ctx.day.pop("pending_reports", []))
    if unaudited:
        ctx.fail(f"{unaudited} intervals left unaudited", unaudited)
    for launcher in ctx.day.pop("launchers", []):
        launcher.reap()


# -- lifecycle ------------------------------------------------------------------------------


def lifecycle(ctx: Ctx) -> None:
    """Full netmgr cycles of the paper's 22-node network (20 prosumers + dso + miner)."""
    net = Net(ctx.work, "lifecycle", prosumers=20, block_interval=0.25, tracer=ctx.tracer)

    def body(ctx: Ctx, net: Net, index: int):
        for client in net.clients:
            status = net.admin(client).status()
            ctx.gates.check(status["peers"] == len(net.config.miners), f"{client.name}: peers={status['peers']}")
        return []

    run_rounds(ctx, net, body, round_s=9.0)
    nodes = len(net.config.all_nodes())
    ctx.rates = [nodes / (s + t) for s, t in zip(ctx.setup, ctx.teardown)]
    ctx.latency = [[seconds * 1e3 for seconds in stop] for stop in net.stop_times]
    ctx.named["node_stop_p50_ms"] = (pooled(ctx.latency, 50), "ms", "stop request to process gone, per node")


# -- tx_stream ---------------------------------------------------------------------------------


def tx_stream(ctx: Ctx) -> None:
    """Open loop at a fixed rate into one client of a 3-client + 1-miner net, 0.05 s blocks."""
    net = Net(ctx.work, "stream", prosumers=2, block_interval=0.05, tracer=ctx.tracer)
    lateness: list[float] = []

    def body(ctx: Ctx, net: Net, index: int):
        client = net.clients[0]
        admin = net.admin(client)
        per_window = int(STREAM_RATE * STREAM_WINDOW_S)
        txs = make_txs(ctx.rng(index), net.accounts, STREAM_WINDOWS * per_window)
        watcher = HeightWatcher(client, poll=0.005)
        watcher.start()
        sent: list[str] = []
        try:
            for window in range(STREAM_WINDOWS):
                due: dict[str, float] = {}
                started = time.perf_counter() + 0.05
                for number, tx in enumerate(txs[window * per_window:(window + 1) * per_window]):
                    due_at = started + number / STREAM_RATE
                    delay = due_at - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    lateness.append((time.perf_counter() - due_at) * 1e3)
                    ctx.attempted += 1
                    try:
                        with ctx.tracer.span("stream.tx", op=tx.tx_id):
                            admin.submit_tx(tx.to_dict())
                        due[tx.tx_id] = due_at
                    except AdminError as exc:
                        ctx.fail(f"submit rejected: {exc}")
                sent += due
                if not watcher.wait_for(due, timeout=15.0):
                    missing = [tx_id for tx_id in due if tx_id not in watcher.seen]
                    ctx.fail(f"round {index}: {len(missing)} stream txs not mined on the submitting client", len(missing))
                    continue
                ctx.latency.append([(watcher.seen[t] - d) * 1e3 for t, d in due.items()])
                ctx.rates.append(len(due) / (max(watcher.seen[t] for t in due) - min(due.values())))
        finally:
            watcher.close()
        return sent

    run_rounds(ctx, net, body, round_s=6.0)
    ctx.named["confirm_p50_ms"] = (pooled(ctx.latency, 50), "ms", "due time to mined at the client")
    ctx.named["confirm_p99_ms"] = (best_round(ctx.latency, lambda v: percentile(v, 99)), "ms",
                                   "due time to mined at the client, best round")
    ctx.named["generator_late_p50_ms"] = (percentile(lateness, 50), "ms", "send time minus due time")
    ctx.named["generator_late_p99_ms"] = (percentile(lateness, 99), "ms", "send time minus due time")
    ctx.hops["lateness"].extend(lateness)


# -- tx_backlog -----------------------------------------------------------------------------------


def tx_backlog(ctx: Ctx) -> None:
    """Miner paused, one client filled back to back, then mining resumed and drained."""
    net = Net(ctx.work, "backlog", prosumers=2, block_interval=0.05, tracer=ctx.tracer)
    admit_rates: list[float] = []

    def body(ctx: Ctx, net: Net, index: int):
        client = net.clients[0]
        admin = net.admin(client)
        miner = net.admin(net.miner)
        txs = make_txs(ctx.rng(index), net.accounts, BACKLOG_TXS)
        miner.set_mining(False)
        time.sleep(net.block_interval + 0.05)  # let a block already being mined land
        admitted, latency = [], []
        fill_started = time.perf_counter()
        for tx in txs:
            ctx.attempted += 1
            started = time.perf_counter()
            try:
                with ctx.tracer.span("backlog.tx", op=tx.tx_id):
                    admin.submit_tx(tx.to_dict())
                admitted.append(tx.tx_id)
            except AdminError as exc:
                ctx.fail(f"submit rejected: {exc}")
            latency.append((time.perf_counter() - started) * 1e3)
        fill_s = time.perf_counter() - fill_started
        ctx.latency.append(latency)
        watcher = HeightWatcher(client, poll=0.005)
        watcher.start()
        try:
            resumed = time.perf_counter()
            miner.set_mining(True)
            mined = watcher.wait_for(admitted, timeout=60.0)
        finally:
            watcher.close()
        missing = [tx_id for tx_id in admitted if tx_id not in watcher.seen]
        if not mined:
            ctx.fail(f"round {index}: {len(missing)} backlog txs not mined on the submitting client", len(missing))
        admit_rates.append(len(admitted) / fill_s)
        if admitted and not missing:
            ctx.rates.append(len(admitted) / (max(watcher.seen[t] for t in admitted) - resumed))
        return admitted

    run_rounds(ctx, net, body, round_s=9.0)
    ctx.named["admit_tx_per_s"] = (median(admit_rates), "tx/s", f"{BACKLOG_TXS} back-to-back submit_tx")
    ctx.named["drain_tx_per_s"] = (median(ctx.rates), "tx/s", "backlog / (resume to last mined at the client)")


# -- trading_day -------------------------------------------------------------------------------------


def trading_day_round(ctx: Ctx, net: Net, index: int, intervals: int, record_e2e: bool) -> list:
    """One ``tes.run_day`` over wrappers on every client, no fault injected."""
    launcher = LocalNodeLauncher()
    ctx.day.setdefault("launchers", []).append(launcher)
    wrappers = {}
    for client in net.clients:
        wrapper = NodeWrapper(net.manager.node_dir(client.name), poll_period=0.1, launcher=launcher)
        wrapper.admin = net.admin(client, timeout=wrapper.admin.timeout)
        wrappers[client.name] = wrapper
    dso = wrappers["dso1"]
    events: list = []
    dso.subscribe([TX_MINED], events.append)
    try:
        for wrapper in wrappers.values():
            wrapper.attach()
        started = time.perf_counter()
        with ctx.tracer.span("tes.run_day"):
            report = run_day(wrappers, net.config, seed=ctx.seed * 1000 + index, intervals=intervals)
        day_s = time.perf_counter() - started
    finally:
        for wrapper in wrappers.values():
            wrapper.close()
    outcomes = report["outcomes"]
    ctx.attempted += len(outcomes)
    bad = [o["interval"] for o in outcomes if o["status"] != "ok"]
    if bad:
        ctx.fail(f"round {index}: intervals failed: {bad}", len(bad))
    recoveries = sum(w.recovery_count for w in wrappers.values())
    if recoveries:
        # No fault is injected, so any recovery is a false positive of the wrapper's stall detection.
        ctx.fail(
            f"round {index}: {recoveries} recoveries with no fault injected "
            f"({ {n: w.recovery_count for n, w in wrappers.items() if w.recovery_count} })",
            recoveries,
        )
    ctx.day.setdefault("pending_reports", []).append(report)

    commits = [o["commitTxId"] for o in outcomes if o["commitTxId"]]
    submitted = {c: dso.journal.entries[c].submitted_at for c in commits}
    times = [submitted[c] for c in commits]
    spacing = [(b - a) * 1e3 for a, b in zip(times, times[1:])]
    mined = {e.tx_id: e.observed_at for e in events}
    day = ctx.day
    day.setdefault("spacing", []).extend(spacing)
    day.setdefault("day_s", []).append(day_s * 24 / intervals)
    day.setdefault("recoveries", []).append(recoveries)
    day.setdefault("mined_observe_ms", []).extend((mined[c] - submitted[c]) * 1e3 for c in commits if c in mined)
    if record_e2e:
        ctx.latency.append(spacing)
        ctx.rates.append(intervals / day_s)
    net.refresh_pids()
    return [tx_id for w in wrappers.values() for tx_id, e in w.journal.entries.items() if e.status != "failed"]


def recovery_round(ctx: Ctx, net: Net, index: int) -> list:
    """The traced run's fault: one tx stalled on dso1, recovered by its wrapper (``layers.recovery_probe``)."""
    launcher = LocalNodeLauncher()
    ctx.day.setdefault("launchers", []).append(launcher)
    ctx.attempted += 1
    probe = layers.recovery_probe(net, launcher)
    ctx.day.setdefault("recoveries", []).append(probe["recoveries"])
    if probe["recoveries"] != 1:
        ctx.fail(f"round {index}: {probe['recoveries']} recoveries for 1 injected fault")
    if probe["stall_detect_s"] is None:
        ctx.fail(f"round {index}: the stalled probe tx was not seen stalling and then mined")
    else:
        for key in ("stall_detect_s", "restart_s", "recovery_s"):
            ctx.day.setdefault(key, []).append(probe[key])
    return [probe["tx_id"]] if probe["tx_id"] else []


def trading_day(ctx: Ctx) -> None:
    """run_day with 5 prosumers, 0.1 s blocks and a seeded book."""
    net = Net(ctx.work, "day", prosumers=5, block_interval=0.1, tracer=ctx.tracer)

    def body(ctx: Ctx, net: Net, index: int):
        return trading_day_round(ctx, net, index, intervals=24, record_e2e=True)

    run_rounds(ctx, net, body, round_s=7.5)
    ctx.named["day_s"] = (median(ctx.day["day_s"]), "s", "wall time of tes.run_day, 24 intervals")
    if ctx.day.get("recovery_s"):
        ctx.named["recovery_s"] = (median(ctx.day["recovery_s"]), "s", "stalled probe tx: submitted to mined")


WORKLOADS = {
    "lifecycle": lifecycle,
    "tx_stream": tx_stream,
    "tx_backlog": tx_backlog,
    "trading_day": trading_day,
}


# -- results ------------------------------------------------------------------------------------------


def best_round(samples: list[list[float]], stat) -> float:
    """Lowest ``stat`` over the run's rounds, each round's latency samples taken alone.

    On a shared 2-vCPU host, other tenants take the CPU away in bursts of
    seconds, so a few rounds of most runs are slowed as a whole: over ten
    runs of tx_stream the median round's p99 spread 0.35-0.45, the best
    round's 0.16-0.18. The round count is fixed, so both commits take the
    best of the same N. A regression that hits only some rounds is not seen.
    """
    return min(stat(v) for v in samples if v)


def pooled(samples: list[list[float]], q: float) -> float:
    """q-th percentile of the samples of all rounds together."""
    return percentile([x for v in samples for x in v], q)


def end_to_end(ctx: Ctx) -> dict[str, float]:
    return {
        "setup_s": median(ctx.setup),
        "teardown_s": median(ctx.teardown),
        "peak_rss_mb": median(ctx.rss),
        "latency_mean_ms": best_round(ctx.latency, statistics.fmean),
        "latency_p99_ms": best_round(ctx.latency, lambda v: percentile(v, 99)),
        "throughput_per_s": max(ctx.rates),
    }


PHASE_METRICS = ("FullNetworkCreated", "MinerStart", "ClientsStart", "NetworkConnect", "NetworkStop", "NetworkDelete")


def per_layer(ctx: Ctx, e2e: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric; one with no samples (its probe failed) reads 0 and counts a failed operation."""

    def of(name: str, values, stat) -> float:
        if not values:
            ctx.fail(f"traced run: no samples for {name}")
            return 0.0
        return stat(values)

    def layer(name: str) -> float:
        return of(name, [ctx.layer[name]] if name in ctx.layer else [], lambda v: v[0])

    def p(q):
        return lambda v: percentile(v, q)

    out: dict[str, tuple[float, str]] = {}
    for phase in PHASE_METRICS:
        out[f"manager.{phase}_s"] = (of(phase, ctx.phases.get(phase), median), "s")
    out["executor.run_calls"] = (of("executor.run_calls", ctx.executor["calls"], median), "count")
    out["executor.run_busy_s"] = (of("executor.run_busy_s", ctx.executor["busy"], median), "s")
    submits = [d * 1e3 for d in ctx.tracer.durations("protocol.submit_tx")]
    out["protocol.submit_tx_p50_ms"] = (of("protocol.submit_tx", submits, p(50)), "ms")
    out["protocol.submit_tx_p99_ms"] = (of("protocol.submit_tx", submits, p(99)), "ms")
    out["protocol.block_number_p50_ms"] = (of("protocol.block_number", ctx.idle_bn, p(50)), "ms")
    out["node.tx_hop_ms"] = (of("node.tx_hop", ctx.hops["tx_hop"], p(50)), "ms")
    out["node.block_hop_ms"] = (of("node.block_hop", ctx.hops["block_hop"], p(50)), "ms")
    out["node.replay_s"] = (layer("node.replay_s"), "s")
    units = {"admit_first_us": "us", "admit_last_us": "us", "assemble_ms": "ms", "receive_block_ms": "ms",
             "pow_hashes": "count", "hash_rate": "1/s"}
    for name, unit in units.items():
        out[f"chain.{name}"] = (layer(f"chain.{name}"), unit)
    day = ctx.day
    for name in ("stall_detect_s", "restart_s", "recovery_s"):
        out[f"wrapper.{name}"] = (of(name, day.get(name), median), "s")
    out["wrapper.mined_observe_ms"] = (of("mined_observe", day.get("mined_observe_ms"), p(50)), "ms")
    out["wrapper.recoveries"] = (float(sum(day.get("recoveries", []))), "count")
    out["tes.interval_p50_ms"] = (of("tes.interval", day.get("spacing"), p(50)), "ms")
    out["tes.clear_market_us"] = (layer("tes.clear_market_us"), "us")
    out["load.late_p99_ms"] = (of("load.late", ctx.hops["lateness"], p(99)), "ms")
    out["trace.spans"] = (float(len(ctx.tracer.spans)), "count")
    out["trace.span_cost_us"] = (span_cost_us(), "us")
    out["trace.latency_mean_ms"] = (e2e["latency_mean_ms"], "ms")
    out["trace.setup_s"] = (e2e["setup_s"], "s")
    return out
