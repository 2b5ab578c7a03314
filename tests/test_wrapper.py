from __future__ import annotations

import json
import logging
import queue
import threading
import time
from collections import Counter

import pytest

from chainyard.canonical import sha256_hex
from chainyard.chain import make_transaction
from chainyard.dsl import GenesisParams, NetworkConfig
from chainyard.genesis import make_genesis, write_genesis
from chainyard.manager import NetworkManager, NodeDefaults, make_bench_config
from chainyard.launcher import NodeLauncher
from chainyard.protocol import AdminClient, AdminError, AdminTimeout, AdminUnreachable
from chainyard.wrapper import (
    NEW_BLOCK,
    NODE_UNRESPONSIVE,
    TX_MINED,
    TX_STALLED,
    BindFailure,
    NodeEvent,
    NodeWrapper,
    PeerUnreachable,
    RecoveryFailed,
    TxJournal,
)
from conftest import BENCH_TEMPLATE, CountingExecutor, launcher_pid, parent_pid, process_running, wait_until


@pytest.fixture
def wrapped(live_network):
    """A started 1-prosumer network plus attached wrappers, all torn down."""
    wrappers = []

    def launch(prosumers=1, block_interval=0.15, auto_recover=True, poll=0.1, **wrapper_kwargs):
        manager, config = live_network(prosumers=prosumers, block_interval=block_interval)
        built = {}
        for client in config.clients:
            wrapper = NodeWrapper(
                manager.node_dir(client.name),
                poll_period=poll,
                auto_recover=auto_recover,
                **wrapper_kwargs,
            ).attach()
            wrappers.append(wrapper)
            built[client.name] = wrapper
        return manager, config, built

    yield launch
    for wrapper in wrappers:
        wrapper.close()


class Collector:
    def __init__(self):
        self.events = []
        self._cond = threading.Condition()

    def __call__(self, event):
        with self._cond:
            self.events.append(event)
            self._cond.notify_all()

    def wait_for(self, predicate, timeout=15.0):
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                matches = [e for e in self.events if predicate(e)]
                if matches:
                    return matches[0]
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AssertionError(f"no matching event; saw {[e.kind for e in self.events]}")
                self._cond.wait(remaining)


def test_attach_reports_snapshot_and_duplicate_bind_fails(wrapped):
    manager, config, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    assert wrapper.admin.is_up()
    with pytest.raises(BindFailure):
        NodeWrapper(manager.node_dir("prosumer1")).attach()


def test_attach_with_node_down_supervises_from_cold(live_network):
    manager, config = live_network(prosumers=1, block_interval=0.1)
    manager.network_stop()
    wrapper = NodeWrapper(manager.node_dir("prosumer1"), poll_period=0.1).attach()
    try:
        unresponsive = Collector()
        wrapper.subscribe(NODE_UNRESPONSIVE, unresponsive)
        event = unresponsive.wait_for(lambda e: True, timeout=15)
        assert event.consecutive_timeouts >= 3
        wait_until(lambda: wrapper.recovery_count == 1, timeout=20, message="cold supervision restarts the node")
        assert wrapper.admin.is_up()
    finally:
        wrapper.close()


def test_new_block_events_arrive_in_height_order(wrapped):
    _, _, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    collector = Collector()
    wrapper.subscribe(NEW_BLOCK, collector)
    collector.wait_for(lambda e: e.height is not None and len(collector.events) >= 4)
    heights = [e.height for e in collector.events]
    assert heights == sorted(heights)
    assert heights == list(range(heights[0], heights[0] + len(heights)))


def test_multiple_subscribers_and_unsubscribe(wrapped):
    _, _, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    first, second = Collector(), Collector()
    sub1 = wrapper.subscribe(NEW_BLOCK, first)
    wrapper.subscribe(NEW_BLOCK, second)
    first.wait_for(lambda e: True)
    second.wait_for(lambda e: True)

    wrapper.unsubscribe(sub1)
    seen = len(first.events)
    second.wait_for(lambda e: len(second.events) >= seen + 3)
    assert len(first.events) == seen  # no calls after unsubscribe


def test_submit_mined_event_and_journal(wrapped):
    _, config, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    collector = Collector()
    wrapper.subscribe(TX_MINED, collector)
    recipient = wrappers["dso1"].account
    tx_id = wrapper.submit(recipient, 42)
    event = collector.wait_for(lambda e: e.tx_id == tx_id)
    assert event.height >= 1
    entry = wrapper.journal.entries[tx_id]
    assert entry.status == "mined"
    assert entry.resubmissions == 0
    assert entry.describe() == "mined"


def test_journal_is_write_ahead(wrapped):
    manager, config, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    manager.network_stop()  # node down: the submit cannot reach it
    tx = make_transaction(wrapper.account, wrappers["dso1"].account, 1, nonce=0)
    assert wrapper.submit_transaction(tx) == tx.tx_id
    entry = wrapper.journal.entries[tx.tx_id]
    assert entry.status == "pending"
    journal_lines = wrapper.paths.wrapper_journal.read_text().splitlines()
    assert any(json.loads(line)["txId"] == tx.tx_id for line in journal_lines)


def test_journal_replay_matches_the_live_entries(tmp_path, monkeypatch):
    monkeypatch.setattr(time, "time", lambda: 1.5)  # the journal stamps every record with time.time()
    path = tmp_path / "wrapper-journal.log"
    live = TxJournal(path)
    resubmitted = make_transaction("a" * 64, "b" * 64, 5, nonce=0)
    failed = make_transaction("a" * 64, "b" * 64, 6, nonce=1)
    assert live.record_submitted(resubmitted, submit_height=2)
    assert not live.record_submitted(resubmitted, submit_height=3)  # a duplicate writes nothing
    live.mark_resubmitted(resubmitted.tx_id, submit_height=4)
    live.mark_mined(resubmitted.tx_id, 7)
    live.mark_mined(resubmitted.tx_id, 8)  # already mined: writes nothing
    assert live.record_submitted(failed, submit_height=2)
    live.mark_failed(failed.tx_id, "InsufficientBalance")
    live.mark_resubmitted("f" * 64, submit_height=4)  # unknown ids write nothing

    def view(journal):
        return {tx_id: (e.status, e.resubmissions, e.mined_height) for tx_id, e in journal.entries.items()}

    assert view(live) == {resubmitted.tx_id: ("mined", 1, 7), failed.tx_id: ("failed", 0, None)}
    assert view(TxJournal(path)) == view(live)
    assert live.entries[resubmitted.tx_id].submit_height == 4  # runtime-only, set by the live path
    lines = path.read_text().splitlines()
    assert lines[0] == json.dumps(
        {"at": 1.5, "event": "submitted", "tx": resubmitted.to_dict(), "txId": resubmitted.tx_id},
        sort_keys=True,
        separators=(",", ":"),
    )
    assert lines[1:3] == [
        f'{{"at":1.5,"event":"resubmitted","txId":"{resubmitted.tx_id}"}}',
        f'{{"at":1.5,"event":"mined","height":7,"txId":"{resubmitted.tx_id}"}}',
    ]
    assert lines[4] == f'{{"at":1.5,"error":"InsufficientBalance","event":"failed","txId":"{failed.tx_id}"}}'
    assert len(lines) == 5


def test_a_torn_final_journal_line_is_dropped_and_cut_back(tmp_path):
    path = tmp_path / "wrapper-journal.log"
    txs = [make_transaction("a" * 64, "b" * 64, 5, nonce=nonce) for nonce in range(3)]
    live = TxJournal(path)
    for tx in txs[:2]:
        live.record_submitted(tx, submit_height=1)
    two_records = path.read_bytes()
    live.record_submitted(txs[2], submit_height=1)
    third = path.read_bytes()[len(two_records) :]
    path.write_bytes(two_records + third[: len(third) // 2])  # an append cut short by kill -9

    assert list(TxJournal(path).entries) == [txs[0].tx_id, txs[1].tx_id]
    assert path.read_bytes() == two_records
    assert TxJournal(path).record_submitted(txs[2], submit_height=1)
    assert list(TxJournal(path).entries) == [tx.tx_id for tx in txs]

    path.write_bytes(third[: len(third) // 2] + b"\n" + two_records)  # a bad line before the last still raises
    with pytest.raises(ValueError, match="wrapper-journal.log:1"):
        TxJournal(path)


def test_duplicate_submit_single_journal_entry(wrapped):
    _, _, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    tx = make_transaction(wrapper.account, wrappers["dso1"].account, 5, nonce=0)
    first = wrapper.submit_transaction(tx)
    second = wrapper.submit_transaction(tx)
    assert first == second
    assert len([e for e in wrapper.journal.entries if e == tx.tx_id]) == 1


def test_semantic_rejection_marks_journal_failed(wrapped):
    _, _, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    with pytest.raises(AdminError):
        wrapper.submit(wrappers["dso1"].account, 10**12)  # far beyond balance
    failed = [e for e in wrapper.journal.entries.values() if e.status == "failed"]
    assert len(failed) == 1


def test_stall_detected_after_exactly_three_blocks_and_recovered(wrapped):
    manager, config, wrappers = wrapped(block_interval=0.2)
    wrapper = wrappers["prosumer1"]
    stalled, mined = Collector(), Collector()
    wrapper.subscribe(TX_STALLED, stalled)
    wrapper.subscribe(TX_MINED, mined)

    wrapper.admin.set_fault("stall_mempool")
    tx_id = wrapper.submit(wrappers["dso1"].account, 3)
    event = stalled.wait_for(lambda e: e.tx_id == tx_id, timeout=20)
    assert event.blocks_waited == 3

    mined.wait_for(lambda e: e.tx_id == tx_id, timeout=30)
    entry = wrapper.journal.entries[tx_id]
    assert entry.status == "mined"
    assert entry.resubmissions == 1
    assert wrapper.recovery_count == 1
    assert wrapper.admin.status()["fault"] == "none"  # restart cleared the fault


def test_unresponsive_node_is_replaced_with_chain_preserved(wrapped):
    manager, config, wrappers = wrapped(block_interval=0.1)
    wrapper = wrappers["prosumer1"]
    unresponsive = Collector()
    wrapper.subscribe(NODE_UNRESPONSIVE, unresponsive)

    wait_until(lambda: wrapper.admin.is_up(), message="node up")
    height_before = wrapper.admin.block_number()
    old_pid = int(wrapper.paths.pid.read_text())
    wrapper.admin.set_fault("unresponsive")

    event = unresponsive.wait_for(lambda e: True, timeout=20)
    assert event.consecutive_timeouts >= 3
    wait_until(lambda: wrapper.recovery_count == 1, timeout=30, message="automatic recovery")
    status = wait_until(lambda: wrapper.admin.is_up() and wrapper.admin.status(), timeout=10, message="node healthy")
    assert status["height"] >= height_before
    new_pid = int(wrapper.paths.pid.read_text())
    assert new_pid != old_pid
    # relaunched by the host's warm launcher, which forked the miner too
    miner_pid = manager._running_pids(config.miners)[config.miners[0].name]
    assert parent_pid(new_pid) == parent_pid(miner_pid) == launcher_pid(manager.config_dir(), "127.0.0.1")


def test_recovery_failed_after_max_restarts(wrapped):
    manager, config, wrappers = wrapped(auto_recover=False)
    wrapper = wrappers["prosumer1"]
    wrapper.max_restarts = 2
    wrapper.backoff_base = 0.05
    # poison the data directory: a different (valid) genesis makes every restart exit
    other = make_bench_config(NetworkConfig("other", "1", GenesisParams(5, 16, 21000, 7), (), ()), 1, suffix="x")
    write_genesis(make_genesis(other), wrapper.paths.genesis)
    with pytest.raises(RecoveryFailed):
        wrapper.recover()
    assert wrapper.recovery_count == 0


class CountingAdmin:
    """An admin client with no socket: it reports a set height, every tx as pending, and counts its calls."""

    def __init__(self, height: int):
        self.height = height
        self.down = False
        self.calls: Counter[str] = Counter()

    def status(self) -> dict:
        self.calls["status"] += 1
        if self.down:
            raise AdminTimeout("node is down")
        return {"height": self.height}

    def get_transaction(self, tx_id: str) -> dict:
        self.calls["get_transaction"] += 1
        return {"status": "pending", "txId": tx_id}


def drain(events: queue.Queue) -> list[NodeEvent]:
    drained = []
    while not events.empty():
        drained.append(events.get_nowait())
    return drained


def test_a_poll_queries_each_pending_tx_once_and_reports_each_trigger_once(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="poll")
    manager = NetworkManager(config, tmp_path / "ws", node_defaults=NodeDefaults(block_interval=0.1))
    manager.network_create()  # created, never started: no socket is opened
    wrapper = NodeWrapper(manager.node_dir("prosumer1"), auto_recover=False)
    wrapper.admin = admin = CountingAdmin(height=5)
    wrapper._poll_once()  # the first poll only learns the height
    for nonce in range(2):
        wrapper.journal.record_submitted(make_transaction(wrapper.account, "ab" * 32, 1, nonce), submit_height=5)
    admin.calls.clear()

    admin.height = 8
    wrapper._poll_once()
    assert admin.calls == {"status": 1, "get_transaction": 2}
    events = drain(wrapper._events)
    assert [(e.kind, e.height) for e in events[:3]] == [(NEW_BLOCK, 6), (NEW_BLOCK, 7), (NEW_BLOCK, 8)]
    assert [(e.kind, e.blocks_waited) for e in events[3:]] == [(TX_STALLED, 3), (TX_STALLED, 3)]
    assert {e.tx_id for e in events[3:]} == set(wrapper.journal.entries)

    admin.height = 9
    wrapper._poll_once()  # still pending, but each stall is reported once
    assert [e.kind for e in drain(wrapper._events)] == [NEW_BLOCK]

    admin.down = True
    for _ in range(5):
        wrapper._poll_once()
    unresponsive = drain(wrapper._events)
    assert [(e.kind, e.consecutive_timeouts) for e in unresponsive] == [(NODE_UNRESPONSIVE, 3)]
    admin.down = False
    wrapper._poll_once()
    admin.down = True
    for _ in range(3):
        wrapper._poll_once()
    assert [e.kind for e in drain(wrapper._events)] == [NODE_UNRESPONSIVE]


def test_two_stall_triggers_in_one_poll_restart_the_node_once(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="twostalls")
    manager = NetworkManager(config, tmp_path / "ws", node_defaults=NodeDefaults(block_interval=0.1))
    manager.network_create()  # created, never started: no socket is opened
    wrapper = NodeWrapper(manager.node_dir("prosumer1"), poll_period=0.01)  # auto_recover
    wrapper.admin = admin = CountingAdmin(height=5)
    wrapper._poll_once()  # the first poll only learns the height
    for nonce in range(2):
        wrapper.journal.record_submitted(make_transaction(wrapper.account, "ab" * 32, 1, nonce), submit_height=5)
    admin.height = 8  # the next poll finds both txs stalled
    recoveries = []
    wrapper.recover = lambda: recoveries.append(admin.calls["status"])
    poll = wrapper._poll_once

    def poll_three_times():
        poll()
        if admin.calls["status"] == 4:
            wrapper._stopping.set()

    wrapper._poll_once = poll_three_times
    wrapper._monitor_loop()  # on this thread, until the third poll
    assert [e.kind for e in drain(wrapper._events)].count(TX_STALLED) == 2
    assert recoveries == [2]  # one recovery, right after the poll that reported both stalls


class SlowLauncher(NodeLauncher):
    """A launcher that runs no node: each start takes 0.5 s and is timed, each stop is a no-op."""

    def __init__(self):
        super().__init__()
        self.launches: list[list[float | None]] = []  # [began, ended] in time.monotonic()

    def start(self, host, data_dirs):
        launch = [time.monotonic(), None]
        self.launches.append(launch)
        time.sleep(0.5)
        launch[1] = time.monotonic()
        return {}

    def stop(self, *args):
        return False


class DownAdmin:
    """An admin client with no socket whose every request finds the node down."""

    def __getattr__(self, name):
        def down(*args, **kwargs):
            raise AdminUnreachable(f"{name}: node is down")

        return down


def test_close_during_a_recovery_lets_no_launch_begin_or_end_after_it(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="close")
    manager = NetworkManager(config, tmp_path / "ws", node_defaults=NodeDefaults(block_interval=0.1))
    manager.network_create()  # created, never started; a miner has no wrapper port, so no socket is opened
    launcher = SlowLauncher()
    wrapper = NodeWrapper(manager.node_dir(config.miners[0].name), poll_period=0.02, launcher=launcher)
    wrapper.admin = DownAdmin()
    wrapper.attach()  # three polls find the node down, and the monitor starts a recovery
    wait_until(lambda: launcher.launches and launcher.launches[0][1], timeout=10, message="the first launch done")
    wrapper.close()  # within the backoff before the second attempt
    closed = time.monotonic()
    time.sleep(1.0)  # past that backoff and another launch
    assert launcher.launches
    assert all(ended is not None and ended <= closed for _, ended in launcher.launches), (closed, launcher.launches)


def test_a_recovery_attempt_makes_two_host_commands(wrapped):
    executor = CountingExecutor()
    manager, config, wrappers = wrapped(auto_recover=False, block_interval=0.1, launcher=NodeLauncher(executor))
    wrapper = wrappers["prosumer1"]
    wrapper.admin.set_fault("stall_mempool")  # the node runs and holds its lock, but mines nothing of its own
    wrapper.submit(wrappers["dso1"].account, 2)
    report = wrapper.recover()
    assert (report.restarted, report.attempts) == (True, 1)
    stop, launch = [command for _, command in executor.commands]  # no separate lock probe
    assert "flock -w" in stop and 0 <= stop.find("kill -TERM") < stop.find("kill -9")
    assert "chainyard.node --detach" in launch


def test_recovering_an_unresponsive_node_waits_out_no_admin_timeout(wrapped):
    manager, config, wrappers = wrapped(auto_recover=False)
    wrapper = wrappers["prosumer1"]
    wrapper.admin.set_fault("unresponsive")  # the admin port answers nothing, not even a stop
    started = time.perf_counter()
    report = wrapper.recover()
    took = time.perf_counter() - started
    assert report.restarted and took < 1, took
    assert wrapper.admin.status()["genesisHash"] == wrapper.expected_genesis_hash


def test_manual_recover_resubmits_pending(wrapped):
    manager, config, wrappers = wrapped(auto_recover=False, block_interval=0.1)
    wrapper = wrappers["prosumer1"]
    wrapper.admin.set_fault("stall_mempool")
    tx_id = wrapper.submit(wrappers["dso1"].account, 2)
    report = wrapper.recover()
    assert report.restarted
    assert report.resubmitted == 1
    wait_until(
        lambda: wrapper.admin.get_transaction(tx_id)["status"] == "mined", timeout=20, message="tx mined after recover"
    )


class OnceTimingOut:
    """The wrapper's admin client, except that the first ``op`` asked from the thread that made it times out.

    Calls from any other thread, the monitor's among them, go to the real client, so they cannot use up the timeout.
    """

    def __init__(self, admin: AdminClient, op: str):
        self._admin, self._op = admin, op
        self._thread = threading.current_thread()
        self.timed_out = 0

    def __getattr__(self, name):
        if name != self._op or self.timed_out or threading.current_thread() is not self._thread:
            return getattr(self._admin, name)

        def time_out(*args, **kwargs):
            self.timed_out += 1
            raise AdminTimeout(f"{name} timed out")

        return time_out


@pytest.mark.parametrize("op", ["status", "submit_tx"], ids=["status after restart", "resubmission"])
def test_a_recovery_attempt_cut_short_by_a_timeout_is_tried_again_from_a_stop(wrapped, op):
    manager, config, wrappers = wrapped(auto_recover=False, block_interval=0.1)
    wrapper = wrappers["prosumer1"]
    wrapper.backoff_base = 0.05
    wrapper.admin.set_fault("stall_mempool")
    tx_id = wrapper.submit(wrappers["dso1"].account, 2)
    wrapper.admin = flaky = OnceTimingOut(wrapper.admin, op)
    report = wrapper.recover()
    assert flaky.timed_out == 1
    assert (report.restarted, report.attempts, report.resubmitted) == (True, 2, 1)
    wait_until(
        lambda: wrapper.admin.get_transaction(tx_id)["status"] == "mined", timeout=20, message="tx mined after recover"
    )


def test_recover_leaves_a_process_holding_a_stale_pid_alone(live_network, foreign_process):
    manager, config = live_network(prosumers=1, block_interval=0.1)
    manager.network_stop()
    wrapper = NodeWrapper(manager.node_dir("prosumer1"), auto_recover=False)
    wrapper.paths.pid.write_text(str(foreign_process.pid))
    report = wrapper.recover()
    assert report.restarted
    assert wrapper.admin.is_up()
    assert foreign_process.poll() is None


def test_node_restarted_by_its_wrapper_is_stopped_by_the_manager(wrapped, caplog):
    manager, config, wrappers = wrapped(auto_recover=False, block_interval=0.1)
    wrapper = wrappers["prosumer1"]
    old_pid = int(wrapper.paths.pid.read_text())
    wrapper.admin.set_fault("stall_mempool")
    wrapper.recover()
    pids = {node.name: int((manager.node_dir(node.name) / "node.pid").read_text()) for node in config.all_nodes()}
    assert pids["prosumer1"] != old_pid
    with caplog.at_level(logging.INFO, logger="chainyard.manager"):
        manager.network_stop()
    stops = [r.getMessage() for r in caplog.records if r.getMessage().startswith("stop ")]
    assert len(stops) == len(pids)
    assert not any("escalated to kill" in line for line in stops)
    assert not [pid for pid in pids.values() if process_running(pid)]


def test_offchain_delivery_and_dedup(wrapped):
    _, config, wrappers = wrapped()
    sender, receiver = wrappers["prosumer1"], wrappers["dso1"]
    inbox = []
    receiver.on_message(inbox.append)
    dso_spec = next(c for c in config.clients if c.role == "dso")
    endpoint = (dso_spec.host, dso_spec.wrapper_port)

    receipt = sender.send_offchain(endpoint, b"hello grid", kind="greeting")
    assert not receipt.duplicate
    wait_until(lambda: len(inbox) == 1, message="message delivered")
    assert inbox[0]["payload"] == b"hello grid"
    assert inbox[0]["kind"] == "greeting"

    duplicate = sender.send_offchain(endpoint, b"hello grid", kind="greeting", msg_id=receipt.msg_id)
    assert duplicate.duplicate
    time.sleep(0.2)
    assert len(inbox) == 1  # one logical delivery


def test_offchain_dead_peer(wrapped):
    _, _, wrappers = wrapped()
    wrapper = wrappers["prosumer1"]
    wrapper.offchain_retries = 0
    with pytest.raises(PeerUnreachable):
        wrapper.send_offchain(("127.0.0.1", 1), b"x")


@pytest.mark.parametrize("payload", [b"secret meter readings", b""])
def test_submit_with_privacy_commits_digest_only(wrapped, payload):
    _, config, wrappers = wrapped()
    sender, receiver = wrappers["prosumer1"], wrappers["dso1"]
    got = []
    receiver.on_message(got.append)
    dso_spec = next(c for c in config.clients if c.role == "dso")

    tx_id, msg_ids = sender.submit_with_privacy(
        payload, receiver.account, value=1, endpoints=[(dso_spec.host, dso_spec.wrapper_port)]
    )
    assert len(msg_ids) == 1
    wait_until(lambda: got, message="payload delivered off-chain")
    assert got[0]["payload"] == payload
    assert got[0]["txId"] == tx_id

    wait_until(lambda: sender.admin.get_transaction(tx_id)["status"] == "mined", message="commitment mined")
    # The miner relays each block to its peers one after another, so the receiver may see it after the sender.
    wait_until(lambda: receiver.admin.get_transaction(tx_id)["status"] == "mined", message="commitment reached receiver")
    on_chain = receiver.admin.get_transaction(tx_id)["tx"]
    assert on_chain["payloadHash"] == sha256_hex(payload)
    assert "payload" not in on_chain  # only the 32-byte digest travels on-chain

    ok, reason = receiver.verify_offchain_payload(tx_id, payload)
    assert ok, reason
    tampered_ok, tampered_reason = receiver.verify_offchain_payload(tx_id, payload + b"!")
    assert not tampered_ok
    assert "digest" in tampered_reason


def test_idle_subscription_still_fires(wrapped):
    manager, config, wrappers = wrapped(block_interval=0.1)
    wrapper = wrappers["prosumer1"]
    collector = Collector()
    wrapper.subscribe(NEW_BLOCK, collector)
    collector.wait_for(lambda e: True)

    miner = config.miners[0]
    miner_admin = AdminClient(miner.host, miner.admin_port)
    miner_admin.set_mining(False)
    time.sleep(1.0)  # drain in-flight blocks
    idle_count = len(collector.events)
    time.sleep(5.0)  # idle period: no events at all
    assert len(collector.events) == idle_count

    miner_admin.set_mining(True)
    collector.wait_for(lambda e: len(collector.events) > idle_count, timeout=10)
