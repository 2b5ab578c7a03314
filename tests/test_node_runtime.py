from __future__ import annotations

import dataclasses
import errno
import itertools
import json
import logging
import os
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from chainyard.chain import make_transaction
from chainyard.dsl import GenesisParams, NetworkConfig
from chainyard.genesis import derive_account, make_genesis, write_genesis
from chainyard.launcher import NodeLauncher, code_image, code_image_name
from chainyard.manager import make_bench_config
from chainyard.node import (
    ADMIN_LINE_MAX,
    HELLO_TIMEOUT,
    THREAD_DIED,
    GenesisMismatch,
    NodeIdentity,
    NodePaths,
    NodeRuntime,
    PortInUse,
    load_blocks,
    run_node,
)
from chainyard.protocol import (
    MAX_FRAME,
    AdminClient,
    AdminError,
    AdminTimeout,
    AdminUnreachable,
    Server,
    framed_request,
    recv_framed,
    send_framed,
)
from chainyard.wrapper import NodeWrapper
from conftest import wait_until

TEMPLATE = NetworkConfig(
    configuration_name="nodert",
    configuration_version="1",
    genesis=GenesisParams(chain_id=9001, difficulty=16, gas_limit=21000, balance=100000),
    clients=(),
    miners=(),
)


def deploy(tmp_path, prosumers=1, block_interval=0.08, template=TEMPLATE, suffix="a"):
    """Lay out data directories for every node of a freshly instantiated config."""
    config = make_bench_config(template, prosumers, suffix=suffix)
    doc = make_genesis(config)
    dirs = {}
    for node in config.all_nodes():
        directory = tmp_path / config.configuration_name / node.name
        directory.mkdir(parents=True)
        identity = NodeIdentity(
            configuration_name=config.configuration_name,
            name=node.name,
            role=node.role,
            host=node.host,
            blockchain_port=node.blockchain_port,
            admin_port=node.admin_port,
            wrapper_port=node.wrapper_port,
            account=derive_account(config.configuration_name, node.name),
            block_interval_seconds=block_interval,
            max_block_txs=64,
        )
        (directory / "node.json").write_text(json.dumps(identity.dump()), encoding="utf-8")
        write_genesis(doc, directory / "genesis.json")
        dirs[node.name] = directory
    return config, doc, dirs


@pytest.fixture
def boot():
    started = []

    def _boot(data_dir) -> NodeRuntime:
        runtime = NodeRuntime(data_dir)
        runtime.start()
        started.append(runtime)
        return runtime

    yield _boot
    for runtime in started:
        try:
            runtime.shutdown()
        except Exception:
            pass


def admin_for(config, name, timeout=3.0) -> AdminClient:
    for node in config.all_nodes():
        if node.name == name:
            return AdminClient(node.host, node.admin_port, timeout=timeout)
    raise KeyError(name)


def account_of(config, name) -> str:
    return derive_account(config.configuration_name, name)


def test_fresh_node_starts_at_genesis(tmp_path, boot):
    config, doc, dirs = deploy(tmp_path)
    boot(dirs["prosumer1"])
    admin = admin_for(config, "prosumer1")
    status = admin.status()
    assert status["height"] == 0
    assert status["pending"] == 0
    assert status["fault"] == "none"
    assert status["genesisHash"] == doc.genesis_hash
    for account, balance in doc.allocations.items():
        assert admin.get_balance(account) == balance


def test_admin_basic_queries(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="b")
    boot(dirs["prosumer1"])
    admin = admin_for(config, "prosumer1")
    assert admin.block_number() == 0
    assert admin.pending_count() == 0
    assert admin.get_transaction("00" * 32)["status"] == "unknown"
    assert admin.get_balance("unknown-account") == 0


def test_admin_malformed_request(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="c")
    boot(dirs["prosumer1"])
    node = config.clients[0]
    with socket.create_connection((node.host, node.admin_port), timeout=2) as sock:
        sock.sendall(b'{"op": "no_such_op"}\n')
        reply = json.loads(sock.recv(4096).decode())
    assert reply["ok"] is False
    assert reply["error"]["code"] == "MalformedRequest"


def test_an_admin_request_line_longer_than_its_bound_is_malformed(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="long")
    boot(dirs["prosumer1"])
    node = config.clients[0]
    with socket.create_connection((node.host, node.admin_port), timeout=5) as sock:
        sock.sendall(b"x" * (ADMIN_LINE_MAX + 1))  # no newline, and the socket stays open
        with sock.makefile("rb") as rfile:
            reply = json.loads(rfile.readline())
    assert reply["error"]["code"] == "MalformedRequest"
    assert admin_for(config, "prosumer1").status()["name"] == "prosumer1"


def test_miner_mines_and_includes_tx(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="d")
    boot(dirs["miner1"])
    admin = admin_for(config, "miner1")
    wait_until(lambda: admin.block_number() >= 2, message="empty blocks")

    sender = account_of(config, "miner1")
    recipient = account_of(config, "prosumer1")
    tx = make_transaction(sender, recipient, 5, nonce=admin.get_nonce(sender))
    assert admin.submit_tx(tx.to_dict()) == tx.tx_id
    wait_until(lambda: admin.get_transaction(tx.tx_id)["status"] == "mined", message="tx mined")
    info = admin.get_transaction(tx.tx_id)
    assert info["height"] >= 1
    assert admin.get_balance(recipient) == 100005


def test_submit_rejects_bad_tx(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="e")
    boot(dirs["prosumer1"])
    admin = admin_for(config, "prosumer1")
    sender = account_of(config, "prosumer1")
    overdraft = make_transaction(sender, account_of(config, "dso1"), 10**9, nonce=0)
    with pytest.raises(AdminError) as excinfo:
        admin.submit_tx(overdraft.to_dict())
    assert excinfo.value.code == "InsufficientBalance"
    costly = make_transaction(sender, account_of(config, "dso1"), 1, nonce=0, cost=21001)
    with pytest.raises(AdminError) as excinfo:
        admin.submit_tx(costly.to_dict())
    assert excinfo.value.code == "CostExceedsGasLimit"


def test_add_peer_is_idempotent_and_bidirectional(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="f")
    boot(dirs["prosumer1"])
    boot(dirs["miner1"])
    client_admin = admin_for(config, "prosumer1")
    miner_admin = admin_for(config, "miner1")
    miner = config.miners[0]
    assert client_admin.add_peer(miner.host, miner.blockchain_port) == 1
    wait_until(lambda: miner_admin.status()["peers"] == 1, message="miner sees client")
    assert client_admin.add_peer(miner.host, miner.blockchain_port) == 1  # unchanged
    assert miner_admin.status()["peers"] == 1


def test_add_peer_connection_refused(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="g")
    boot(dirs["prosumer1"])
    admin = admin_for(config, "prosumer1")
    with pytest.raises(AdminError) as excinfo:
        admin.add_peer("127.0.0.1", 1)  # privileged port, nothing listens
    assert excinfo.value.code == "ConnectionRefused"


def test_blocks_propagate_and_late_joiner_syncs(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="h")
    boot(dirs["miner1"])
    miner_admin = admin_for(config, "miner1")
    wait_until(lambda: miner_admin.block_number() >= 4, message="miner ahead")

    boot(dirs["prosumer1"])
    client_admin = admin_for(config, "prosumer1")
    assert client_admin.block_number() == 0
    miner = config.miners[0]
    client_admin.add_peer(miner.host, miner.blockchain_port)
    wait_until(
        lambda: client_admin.block_number() >= miner_admin.block_number() - 1,
        message="client catches up",
    )


def test_client_tx_gossips_to_miner_and_back(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="i")
    boot(dirs["miner1"])
    boot(dirs["prosumer1"])
    client_admin = admin_for(config, "prosumer1")
    miner = config.miners[0]
    client_admin.add_peer(miner.host, miner.blockchain_port)

    sender = account_of(config, "prosumer1")
    tx = make_transaction(sender, account_of(config, "miner1"), 7, nonce=client_admin.get_nonce(sender))
    client_admin.submit_tx(tx.to_dict())
    wait_until(lambda: client_admin.get_transaction(tx.tx_id)["status"] == "mined", message="gossiped tx mined")


def test_restart_preserves_height(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="j")
    runtime = NodeRuntime(dirs["miner1"])
    runtime.start()
    admin = admin_for(config, "miner1")
    wait_until(lambda: admin.block_number() >= 3, message="some blocks")
    height = admin.block_number()
    runtime.request_stop()
    runtime.shutdown()

    restarted = boot(dirs["miner1"])
    assert restarted.chain.height >= height
    assert admin.block_number() >= height


def behind_the_miner(tmp_path, boot, suffix, with_stranger=False):
    """A running miner some blocks ahead, and a client directory whose peers.json names it.

    The miner never heard of the client, so only the client's greeting can bring it up to date.
    With with_stranger, peers.json also names a listener that sorts first and that the test drives.
    """
    config, _, dirs = deploy(tmp_path, suffix=suffix)
    miner = boot(dirs["miner1"])
    wait_until(lambda: miner.chain.height >= 3, message="miner ahead")
    spec = config.miners[0]
    peers = [(spec.host, spec.blockchain_port)]
    stranger = None
    if with_stranger:
        stranger = listener_before(spec.blockchain_port)
        peers.append(stranger.getsockname())
    NodePaths(dirs["prosumer1"]).peers.write_text(json.dumps(sorted(peers)), encoding="utf-8")
    return dirs["prosumer1"], miner, stranger


def listener_before(port: int) -> socket.socket:
    """A listening socket on 127.0.0.1 at a port below the given one, so it sorts (and is greeted) first."""
    for candidate in range(port - 1, 1024, -1):
        sock = socket.socket()
        try:
            sock.bind(("127.0.0.1", candidate))
        except OSError:
            sock.close()
            continue
        sock.listen()
        return sock
    raise RuntimeError(f"no free port below {port}")


def test_restarted_client_has_caught_up_when_start_returns(tmp_path, boot):
    client_dir, miner, _ = behind_the_miner(tmp_path, boot, "w")
    target = miner.chain.height
    client = boot(client_dir)
    assert client.chain.height >= target


def test_a_peer_answering_garbage_does_not_stop_the_catch_up(tmp_path, boot):
    client_dir, miner, garbage = behind_the_miner(tmp_path, boot, "x", with_stranger=True)

    def answer_garbage():
        conn, _ = garbage.accept()
        with conn:
            conn.sendall(struct.pack(">I", 5) + b"{oops")  # a frame that is no JSON

    with garbage:
        threading.Thread(target=answer_garbage, daemon=True).start()
        target = miner.chain.height
        client = boot(client_dir)
        wait_until(lambda: client.chain.height >= target, timeout=2.0, message="client caught up past the garbage")


def test_a_peer_that_never_answers_delays_start_by_the_hello_timeout_at_most(tmp_path, boot):
    client_dir, miner, hung = behind_the_miner(tmp_path, boot, "y", with_stranger=True)
    with hung:  # connections wait in its backlog and are never answered
        target = miner.chain.height
        started = time.monotonic()
        client = boot(client_dir)
        assert time.monotonic() - started < HELLO_TIMEOUT + 0.5
        wait_until(lambda: client.chain.height >= target, timeout=1.0, message="client caught up")


def test_gossip_goes_on_past_a_peer_answering_garbage(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="z")
    miner = boot(dirs["miner1"])
    miner.mining_enabled = False  # the txs stay in its mempool
    spec = config.miners[0]
    garbage = listener_before(spec.blockchain_port)

    def answer_garbage():
        while True:
            try:
                conn, _ = garbage.accept()
            except OSError:  # the test closed the listener
                return
            with conn:
                conn.sendall(struct.pack(">I", 5) + b"{oops")  # a frame that is no JSON

    with garbage:
        threading.Thread(target=answer_garbage, daemon=True).start()
        peers = sorted([(spec.host, spec.blockchain_port), garbage.getsockname()])
        NodePaths(dirs["prosumer1"]).peers.write_text(json.dumps(peers), encoding="utf-8")
        client = boot(dirs["prosumer1"])
        client_admin = admin_for(config, "prosumer1")
        sender = account_of(config, "prosumer1")
        nonce = client_admin.get_nonce(sender)
        txs = [make_transaction(sender, account_of(config, "miner1"), 1, nonce=nonce + i) for i in range(2)]
        client_admin.submit_tx(txs[0].to_dict())
        time.sleep(0.5)
        client_admin.submit_tx(txs[1].to_dict())
        wait_until(
            lambda: all(tx.tx_id in miner.chain.mempool for tx in txs), timeout=5.0, message="both txs gossiped"
        )
        assert garbage.getsockname() in client.peers


def test_a_repeated_hello_does_not_rewrite_peers_json(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="v")
    boot(dirs["miner1"])
    boot(dirs["prosumer1"])
    client_admin = admin_for(config, "prosumer1")
    miner = config.miners[0]
    client_admin.add_peer(miner.host, miner.blockchain_port)
    files = [NodePaths(dirs[name]).peers for name in ("prosumer1", "miner1")]
    before = [(path.stat().st_ino, path.stat().st_mtime_ns) for path in files]

    client_admin.add_peer(miner.host, miner.blockchain_port)  # a hello each way from a known peer
    client = config.clients[0]
    hello = {"kind": "hello", "from": {"host": client.host, "port": client.blockchain_port}, "height": 0}
    assert framed_request(miner.host, miner.blockchain_port, hello, timeout=2.0)["kind"] == "hello_ack"

    assert [(path.stat().st_ino, path.stat().st_mtime_ns) for path in files] == before


def test_restart_with_different_genesis_mismatch(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="k")
    runtime = NodeRuntime(dirs["prosumer1"])
    runtime.start()
    runtime.shutdown()
    other = make_bench_config(
        NetworkConfig("elsewhere", "9", GenesisParams(42, 16, 21000, 5), (), ()), 1, suffix="x"
    )
    write_genesis(make_genesis(other), dirs["prosumer1"] / "genesis.json")
    with pytest.raises(GenesisMismatch):
        NodeRuntime(dirs["prosumer1"])


def test_port_in_use(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="l")
    boot(dirs["prosumer1"])
    with pytest.raises(PortInUse):
        NodeRuntime(dirs["prosumer1"]).start()


def test_mempool_journal_survives_restart(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="m")
    runtime = NodeRuntime(dirs["prosumer1"])
    runtime.start()
    admin = admin_for(config, "prosumer1")
    sender = account_of(config, "prosumer1")
    tx = make_transaction(sender, account_of(config, "dso1"), 3, nonce=0)
    admin.submit_tx(tx.to_dict())
    runtime.request_stop()
    runtime.shutdown()

    restarted = boot(dirs["prosumer1"])
    assert admin.pending_count() == 1
    assert admin.get_transaction(tx.tx_id)["status"] == "pending"


def test_stall_mempool_fault_blocks_grow_pending_stuck(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="n")
    boot(dirs["miner1"])
    admin = admin_for(config, "miner1")
    admin.set_fault("stall_mempool")
    sender = account_of(config, "miner1")
    tx = make_transaction(sender, account_of(config, "dso1"), 1, nonce=admin.get_nonce(sender))
    admin.submit_tx(tx.to_dict())
    start_height = admin.block_number()
    wait_until(lambda: admin.block_number() >= start_height + 3, message="blocks mined during stall")
    assert admin.pending_count() == 1
    assert admin.get_transaction(tx.tx_id)["status"] == "pending"
    # clearing the fault lets the pending tx through
    admin.set_fault("none")
    wait_until(lambda: admin.get_transaction(tx.tx_id)["status"] == "mined", message="tx mined after clearing fault")


def test_unresponsive_fault_times_out_all_queries(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="o")
    boot(dirs["prosumer1"])
    admin = admin_for(config, "prosumer1", timeout=0.4)
    admin.set_fault("unresponsive")
    with pytest.raises(AdminTimeout):
        admin.status()
    with pytest.raises(AdminTimeout):
        admin.set_fault("none")  # even the cure times out; only a restart clears it


def test_admin_stop_sets_stop_event(tmp_path):
    config, _, dirs = deploy(tmp_path, suffix="p")
    runtime = NodeRuntime(dirs["prosumer1"])
    runtime.start()
    admin = admin_for(config, "prosumer1")
    assert admin.stop() == "stopping"
    wait_until(runtime.stop_event.is_set, timeout=3, message="stop event")
    runtime.shutdown()


def test_admin_stop_replies_then_the_process_exits(tmp_path):
    config, _, dirs = deploy(tmp_path, suffix="r")
    node_dir = dirs["prosumer1"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "chainyard.node", "--data-dir", str(node_dir)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        admin = admin_for(config, "prosumer1")
        wait_until(admin.is_up, message="node up")
        assert (node_dir / "node.pid").exists()
        assert admin.stop() == "stopping"
        assert proc.wait(timeout=5) == 0
        assert not (node_dir / "node.pid").exists()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=5)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--detach"],
        ["--data-dir"],
        ["--data-dir", "a", "--data-dir", "b"],  # several need --detach
        ["--data-dir", "a", "--detach"],
        ["--data-dir=a"],
        ["--data-dir", "a", "--verbose"],
        ["--help"],
    ],
    ids=repr,
)
def test_a_command_line_of_any_other_form_prints_the_usage_and_exits_2(tmp_path, argv):
    run = subprocess.run(
        [sys.executable, "-m", "chainyard.node", *argv], cwd=tmp_path, capture_output=True, text=True, timeout=30
    )
    assert run.returncode == 2
    assert run.stdout == ""
    assert run.stderr == "usage: chainyard-node [--detach] --data-dir DIR [--data-dir DIR ...]\n"


def test_sigterm_stops_a_started_node_gracefully(tmp_path):
    config, _, dirs = deploy(tmp_path, suffix="t")
    node_dir = dirs["prosumer1"]
    host = next(node.host for node in config.clients if node.name == "prosumer1")
    (node_dir.parent / code_image_name()).write_bytes(code_image())  # as distribute ships it: a launch runs it
    launcher = NodeLauncher()
    launcher.start(host, [node_dir])
    try:
        admin_for(config, "prosumer1").set_fault("unresponsive")  # from here on the admin port answers nothing
        started = time.perf_counter()
        escalated = launcher.stop(host, node_dir)
        took = time.perf_counter() - started
    finally:
        launcher.stop(host, node_dir)  # nothing to do once the node is gone
    assert not escalated and took < 1, took
    assert launcher.running_pids(host, [node_dir]) == {node_dir: None}
    log = NodePaths(node_dir).log.read_text()
    assert "signal 15: stopping" in log
    assert "stopped at height" in log


def test_a_miner_whose_mining_thread_dies_exits_with_its_own_status_and_frees_its_lock(tmp_path):
    _, _, dirs = deploy(tmp_path, suffix="died")
    miner_dir = dirs["miner1"]
    pid = os.fork()
    if pid == 0:  # the child owns its main thread, as a node that its launcher forked does
        status = 1
        try:
            persist, failures = NodeRuntime._persist_block, [OSError(errno.ENOSPC, "No space left on device")]

            def persist_once(runtime, block):
                if failures:
                    raise failures.pop()
                persist(runtime, block)

            NodeRuntime._persist_block = persist_once
            status = run_node(miner_dir)
        finally:
            os._exit(status)
    deadline = time.monotonic() + 10
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert done[0] == pid, "the miner served on after its mining thread died"
    assert os.waitstatus_to_exitcode(done[1]) == THREAD_DIED
    assert NodeLauncher().running_pids("127.0.0.1", [miner_dir]) == {miner_dir: None}


def test_a_client_whose_block_append_fails_exits_with_its_own_status_and_restarts_on_a_whole_chain(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="append")
    client_dir = dirs["prosumer1"]
    pid = os.fork()
    if pid == 0:  # the child forks before this process starts the miner's threads
        status = 1
        try:
            persist, appends = NodeRuntime._persist_block, itertools.count()

            def persist_all_but_the_third(runtime, block):
                if next(appends) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                persist(runtime, block)

            NodeRuntime._persist_block = persist_all_but_the_third
            status = run_node(client_dir)
        finally:
            os._exit(status)
    done = (0, 0)
    try:
        miner = boot(dirs["miner1"])
        client_admin = admin_for(config, "prosumer1")
        wait_until(client_admin.is_up, message="the client serving admin")
        wait_until(lambda: miner.chain.height >= 5, message="the miner at height 5")
        client_admin.add_peer(miner.identity.host, miner.identity.blockchain_port)  # the client catches up, to fail
        deadline = time.monotonic() + 10
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        if done[0] == 0:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    assert done[0] == pid, "the client served on after its block append failed"
    assert os.waitstatus_to_exitcode(done[1]) == THREAD_DIED
    assert NodeLauncher().running_pids("127.0.0.1", [client_dir]) == {client_dir: None}
    assert [block.height for block in load_blocks(client_dir)] == [0, 1, 2]
    boot(client_dir)  # replays its log, then catches up from the miner it knows from peers.json
    target = miner.chain.height
    wait_until(lambda: client_admin.block_number() >= target, message=f"the restarted client at height {target}")


def test_a_node_whose_disk_is_full_stops_as_failed(tmp_path):
    _, _, dirs = deploy(tmp_path, suffix="full")
    runtime = NodeRuntime(dirs["miner1"])
    runtime._blocks_handle = open("/dev/full", "a", encoding="utf-8")  # each flush raises ENOSPC, the line stays buffered
    runtime.start()
    assert runtime.stop_event.wait(5), "the miner served on after its append failed"
    runtime.shutdown()  # flushes the buffered line once more, which fails again
    assert runtime.failed
    assert runtime.chain.height == 1 and load_blocks(dirs["miner1"]) == [runtime.chain.blocks[0]]


def test_shutdown_does_not_wait_out_a_server_poll(tmp_path):
    config, _, dirs = deploy(tmp_path, suffix="s")
    admin = admin_for(config, "prosumer1")
    took = []
    for _ in range(5):
        runtime = NodeRuntime(dirs["prosumer1"])
        runtime.start()
        assert admin.is_up()
        started = time.perf_counter()
        runtime.shutdown()
        took.append(time.perf_counter() - started)
    assert statistics.median(took) < 0.1, took  # waiting out a 0.1 s serve poll per server would fail this


def test_a_burst_of_clients_connecting_at_once_is_served_without_a_syn_retransmit():
    server = Server(("127.0.0.1", 0), lambda sock: send_framed(sock, recv_framed(sock)))
    server.start()
    port = server.server_address[1]
    clients = 21  # about one interval's orders, sent to the DSO's wrapper at once
    try:
        for burst in range(3):
            barrier = threading.Barrier(clients)
            took: list[float] = []

            def ask(i: int) -> None:
                barrier.wait(timeout=5)
                started = time.perf_counter()
                assert framed_request("127.0.0.1", port, {"i": i}) == {"i": i}
                took.append(time.perf_counter() - started)

            threads = [threading.Thread(target=ask, args=(i,)) for i in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert len(took) == clients, f"burst {burst}: {clients - len(took)} requests failed"
            assert max(took) < 0.5, f"burst {burst}: slowest reply took {max(took):.2f}s"  # a dropped SYN waits 1 s
    finally:
        server.stop()


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


def test_a_serving_server_holds_one_descriptor_and_none_once_stopped():
    before = open_descriptors()
    server = Server(("127.0.0.1", 0), lambda sock: send_framed(sock, recv_framed(sock)))
    server.start()
    assert open_descriptors() - before == 1  # the listening socket, nothing more
    assert framed_request("127.0.0.1", server.server_address[1], {"n": 1}) == {"n": 1}
    wait_until(lambda: open_descriptors() - before == 1, timeout=2.0, message="the served connection closed")
    server.stop()
    assert open_descriptors() == before


def test_an_admin_client_that_goes_away_costs_no_server_thread_an_exception(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="gone")
    boot(dirs["prosumer1"])
    threads = threading.active_count()
    spec = next(node for node in config.clients if node.name == "prosumer1")
    address = (spec.host, spec.admin_port)
    socket.create_connection(address, timeout=3).close()  # connects and sends nothing
    for request in (b'{"op": "status"}\n', b'{"op": "sta'):  # a whole request, and half of one
        with socket.create_connection(address, timeout=3) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.sendall(request)
        # closed with a zero linger: a reset, before the reply is read
    wait_until(lambda: threading.active_count() <= threads, timeout=3.0, message="every connection served")
    assert admin_for(config, "prosumer1").status()["name"] == "prosumer1"


@pytest.mark.parametrize("reply", [b'{"ok": true, "resu', b'{"ok": tr\n'], ids=["torn", "garbled"])
def test_an_admin_reply_that_is_torn_or_garbled_is_unreachable(reply):
    with socket.create_server(("127.0.0.1", 0)) as listener:

        def answer() -> None:
            conn, _ = listener.accept()
            with conn:
                conn.recv(4096)
                conn.sendall(reply)  # and close, as a node killed in the middle of its reply does

        answerer = threading.Thread(target=answer, daemon=True)
        answerer.start()
        with pytest.raises(AdminUnreachable):
            AdminClient(*listener.getsockname(), timeout=3).status()
        answerer.join(timeout=3)


def test_a_catch_up_from_a_peer_that_is_down_is_logged_and_skipped(tmp_path, boot, caplog):
    config, _, dirs = deploy(tmp_path, suffix="gap")
    client = boot(dirs["prosumer1"])
    with socket.create_server(("127.0.0.1", 0)) as closed:
        down = closed.getsockname()[1]  # no listener once closed
    block = {
        "height": 7,
        "parentHash": "ab" * 32,
        "timestamp": 0,
        "miner": "cd" * 32,
        "powNonce": 0,
        "transactions": [],
        "blockHash": "ef" * 32,
    }
    message = {"kind": "new_block", "from": {"host": "127.0.0.1", "port": down}, "block": block}
    with caplog.at_level(logging.INFO, logger="chainyard.node"):
        reply = framed_request(client.identity.host, client.identity.blockchain_port, message)
        assert reply["status"] == "BadParent"
        wait_until(lambda: f"_sync_from with peer 127.0.0.1:{down} failed" in caplog.text, timeout=5.0)
    assert client.chain.height == 0


def test_torn_final_block_line_is_truncated_and_the_miner_mines_on(tmp_path, caplog):
    config, _, dirs = deploy(tmp_path, suffix="t")
    admin = admin_for(config, "miner1")
    log = dirs["miner1"] / "blocks.log"
    runtime = NodeRuntime(dirs["miner1"])
    runtime.start()
    try:
        wait_until(lambda: admin.block_number() >= 2, message="some blocks")
        # Appends cut short by kill -9: half of a line, and a whole line but its newline.
        for cut, message in (
            (lambda intact, last: intact + last[: len(last) // 2], "torn final line"),
            (lambda intact, last: intact[:-1], "missing final newline"),
        ):
            admin.set_mining(False)
            time.sleep(0.3)  # a block already being mined still lands
            runtime.shutdown()
            height = runtime.chain.height
            intact = log.read_bytes()
            log.write_bytes(cut(intact, intact.splitlines()[-1]))
            assert len(load_blocks(dirs["miner1"])) == height + 1

            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="chainyard.node"):
                runtime = NodeRuntime(dirs["miner1"])
            assert runtime.chain.height == height
            assert log.read_bytes() == intact
            assert message in caplog.text
            runtime.start()
            wait_until(lambda: admin.block_number() > height, message="mining on after the repair")
    finally:
        runtime.shutdown()
    assert len(load_blocks(dirs["miner1"])) > height + 1


def test_bad_block_line_before_the_end_is_a_genesis_mismatch(tmp_path):
    _, _, dirs = deploy(tmp_path, suffix="u")
    (dirs["miner1"] / "blocks.log").write_bytes(b'{"height": 1, "torn\n{"height": 2}\n')
    with pytest.raises(GenesisMismatch, match="blocks.log:1"):
        NodeRuntime(dirs["miner1"])
    with pytest.raises(GenesisMismatch, match="blocks.log:1"):
        load_blocks(dirs["miner1"])


def test_forged_peer_tx_is_rejected_and_the_miner_mines_on(tmp_path, boot):
    config, _, dirs = deploy(tmp_path, suffix="v")
    boot(dirs["miner1"])
    admin = admin_for(config, "miner1")
    miner = config.miners[0]
    honest = make_transaction(account_of(config, "miner1"), account_of(config, "prosumer1"), 5, nonce=0)
    forged = dataclasses.replace(honest, value=6)  # fields changed after the id was made
    reply = framed_request(miner.host, miner.blockchain_port, {"kind": "new_tx", "tx": forged.to_dict()}, timeout=3.0)
    assert reply["status"] == "rejected", reply
    assert admin.pending_count() == 0
    height = admin.block_number()
    wait_until(lambda: admin.block_number() >= height + 5, message="mining on after a forged tx")


def test_load_blocks_reads_persisted_chain(tmp_path, boot):
    config, doc, dirs = deploy(tmp_path, suffix="q")
    runtime = boot(dirs["miner1"])
    admin = admin_for(config, "miner1")
    wait_until(lambda: admin.block_number() >= 2, message="blocks")
    runtime.request_stop()
    runtime.shutdown()
    blocks = load_blocks(dirs["miner1"])
    assert blocks[0].block_hash == doc.genesis_hash
    assert len(blocks) >= 3


def test_a_queued_block_goes_to_every_peer_before_the_next_queued_tx(tmp_path, monkeypatch):
    _, _, dirs = deploy(tmp_path, suffix="w")
    runtime = NodeRuntime(dirs["miner1"])  # never started: no socket, only the gossip thread below
    runtime.peers = {("127.0.0.1", port) for port in (1, 2, 3)}
    sends: list[tuple[int, str, int]] = []
    first_send, release = threading.Event(), threading.Event()

    def fake_framed_request(host, port, message, timeout):
        if not first_send.is_set():
            first_send.set()
            release.wait(5)
        sends.append((port, message["kind"], message["n"]))
        return {"kind": "ok"}

    monkeypatch.setattr("chainyard.node.framed_request", fake_framed_request)
    sender = threading.Thread(target=runtime._broadcast_loop, daemon=True)
    sender.start()
    runtime._enqueue(None, {"kind": "new_tx", "n": 0})
    assert first_send.wait(5)  # the first tx is being sent, and held
    for n in range(1, 30):
        runtime._enqueue(None, {"kind": "new_tx", "n": n})
    runtime._enqueue(None, {"kind": "new_block", "n": 0})
    release.set()
    wait_until(lambda: len(sends) == 31 * 3, message="every message sent to every peer")
    runtime.shutdown()  # ends gossip ahead of anything still queued
    sender.join(5)
    assert not sender.is_alive()

    last_block = max(i for i, (_, kind, _) in enumerate(sends) if kind == "new_block")
    second_tx = min(i for i, (_, kind, n) in enumerate(sends) if kind == "new_tx" and n == 1)
    assert last_block < second_tx, sends[:8]
    txs = [n for _, kind, n in sends if kind == "new_tx"]
    assert txs == sorted(txs)  # txs keep their order among themselves


def test_a_handshake_sends_the_mempool_to_the_greeted_peer_only(tmp_path, monkeypatch):
    config, _, dirs = deploy(tmp_path, suffix="h")
    runtime = NodeRuntime(dirs["miner1"])  # never started: no socket, only the gossip thread below
    peers = {("127.0.0.1", port) for port in (1, 2, 3)}
    runtime.peers = set(peers)  # as a restarted node loads them from peers.json
    pending = [
        make_transaction(account_of(config, "miner1"), account_of(config, "prosumer1"), 5, nonce=n) for n in range(2)
    ]
    for tx in pending:
        runtime.chain.submit_transaction(tx)
    sends: list[tuple[tuple[str, int], str, str | None]] = []

    def fake_framed_request(host, port, message, timeout):
        sends.append(((host, port), message["kind"], message.get("tx", {}).get("txId")))
        return {"kind": "hello_ack", "height": 0} if message["kind"] == "hello" else {"kind": "ok"}

    monkeypatch.setattr("chainyard.node.framed_request", fake_framed_request)
    runtime._enqueue(None, {"kind": "new_block"})
    runtime._greet_known_peers()
    runtime._enqueue(None, {"kind": "new_tx", "tx": {"txId": "last"}})  # sent after every tx queued before it
    sender = threading.Thread(target=runtime._broadcast_loop, daemon=True)
    sender.start()
    wait_until(lambda: [tx_id for *_, tx_id in sends].count("last") == len(peers), message="the last tx sent")
    runtime.shutdown()
    sender.join(5)
    assert not sender.is_alive()

    gossip = [(peer, kind, tx_id) for peer, kind, tx_id in sends if kind != "hello" and tx_id != "last"]
    assert [kind for _, kind, _ in gossip[: len(peers)]] == ["new_block"] * len(peers)  # a queued block goes first
    assert sorted((peer, tx_id) for peer, kind, tx_id in gossip if kind == "new_tx") == sorted(
        (peer, tx.tx_id) for peer in peers for tx in pending
    )  # each pending tx once to each greeted peer: N·P sends, not N²·P


def test_a_meta_json_write_cut_short_does_not_stop_the_next_start(tmp_path, monkeypatch):
    _, doc, dirs = deploy(tmp_path, suffix="m")
    write_text = Path.write_text

    def cut_short(self, data, *args, **kwargs):  # as a kill -9 or a full disk leaves a write
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patched:
        patched.setattr(Path, "write_text", cut_short)
        with pytest.raises(OSError):
            NodeRuntime(dirs["prosumer1"])  # its first start writes meta.json
    NodeRuntime(dirs["prosumer1"])
    assert json.loads((dirs["prosumer1"] / "meta.json").read_text()) == {"genesisHash": doc.genesis_hash}


BAD_FRAMES = {
    "non-JSON frame": struct.pack(">I", 5) + b"{oops",
    "length over MAX_FRAME": struct.pack(">I", MAX_FRAME + 1),
    "close mid-frame": struct.pack(">I", 100) + b'{"kind"',
}


@pytest.mark.parametrize("bad", BAD_FRAMES.values(), ids=BAD_FRAMES.keys())
@pytest.mark.parametrize("port", ["peer", "offchain"])
def test_a_framed_port_serves_on_after_bad_input(tmp_path, boot, caplog, port, bad):
    config, _, dirs = deploy(tmp_path, suffix="f")
    spec = next(node for node in config.clients if node.name == "prosumer1")
    wrapper = None
    if port == "peer":
        boot(dirs["prosumer1"])
        address, good, answer = (spec.host, spec.blockchain_port), {"kind": "hello"}, {"kind": "hello_ack", "height": 0}
    else:
        wrapper = NodeWrapper(dirs["prosumer1"], auto_recover=False).attach()  # its node is down
        address, good, answer = (spec.host, spec.wrapper_port), {"msgId": "m1"}, {"ok": True, "duplicate": False}
    try:
        with caplog.at_level(logging.DEBUG, logger="chainyard.protocol"):
            with socket.create_connection(address, timeout=3) as sock:
                sock.sendall(bad)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(1) == b""  # closed without a reply
        assert f"framed request on port {address[1]} failed" in caplog.text
        assert framed_request(*address, good, timeout=3) == answer
    finally:
        if wrapper is not None:
            wrapper.close()


def test_a_node_process_imports_no_dsl_code():
    probe = "import sys, chainyard.node; print('chainyard.dsl' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"
