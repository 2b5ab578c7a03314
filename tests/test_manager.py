from __future__ import annotations

import dataclasses
import json
import logging
import subprocess
import sys
import time
from pathlib import Path

import pytest

from chainyard.dsl import NetworkConfig
from chainyard.executor import ExecResult, LocalExecutor, SshExecutor
from chainyard.genesis import make_genesis, read_genesis
from chainyard.launcher import STOP_GRACE, NodeLauncher
from chainyard.manager import (
    AlreadyExists,
    AlreadyRunning,
    DistributeHashMismatch,
    ExecutorFailure,
    ManagerError,
    MissingGenesis,
    NetworkManager,
    NodeDefaults,
    NotCreated,
    NotRunning,
    Phase,
    ValidationFailed,
    bench,
    make_bench_config,
)
from chainyard.node import NodeIdentity, NodePaths
from chainyard.protocol import AdminClient
from conftest import BENCH_TEMPLATE, CountingExecutor, process_running


def quick_manager(tmp_path, prosumers=1, suffix="m", **kwargs):
    config = make_bench_config(BENCH_TEMPLATE, prosumers, suffix=suffix)
    defaults = kwargs.pop("node_defaults", NodeDefaults(block_interval=0.1))
    return NetworkManager(config, tmp_path / "ws", node_defaults=defaults, **kwargs), config


# -- executors ----------------------------------------------------------------


def test_local_executor_runs_commands(tmp_path):
    executor = LocalExecutor()
    result = executor.run("any-host-ignored", f"echo hello > {tmp_path}/x && cat {tmp_path}/x")
    assert result.status == 0
    assert result.output.strip() == "hello"
    assert executor.run("h", "exit 3").status == 3


def test_an_executor_notes_when_each_output_line_arrives():
    started = time.perf_counter()
    result = LocalExecutor().run("h", "echo a; sleep 0.2; echo b")
    (first, a), (second, b) = result.timed_lines()
    assert (a, b) == ("a", "b")
    assert started < first and second - first >= 0.15  # each line as it came, not all at the end


def test_local_executor_put(tmp_path):
    LocalExecutor().put("ignored", b"payload", tmp_path / "deep" / "dst.txt")
    assert (tmp_path / "deep" / "dst.txt").read_text() == "payload"


def test_ssh_executor_builds_ssh_argv(monkeypatch):
    captured = {}

    def fake_run(argv):
        captured["argv"] = argv
        return ExecResult(0, "")

    monkeypatch.setattr("chainyard.executor._run", fake_run)
    SshExecutor(user="deploy").run("node-7", "uptime")
    assert captured["argv"][0] == "ssh"
    assert "deploy@node-7" in captured["argv"]
    assert captured["argv"][-1] == "uptime"


# -- create phases ---------------------------------------------------------------


def test_clients_create_lays_out_directories(tmp_path):
    manager, config = quick_manager(tmp_path, prosumers=2, suffix="c1")
    timing = manager.clients_create()
    assert timing.phase == Phase.CLIENTS_CREATE.value
    assert timing.node_count == 4
    for client in config.clients:
        identity = json.loads((manager.node_dir(client.name) / "node.json").read_text())
        assert identity["name"] == client.name
        assert len(identity["account"]) == 64


def test_recreate_requires_force(tmp_path):
    manager, _ = quick_manager(tmp_path, suffix="c2")
    manager.clients_create()
    with pytest.raises(AlreadyExists):
        manager.clients_create()
    forced, _ = quick_manager(tmp_path, suffix="c2", force=True)
    forced.clients_create()  # succeeds


def test_miners_create_phase_name(tmp_path):
    manager, _ = quick_manager(tmp_path, suffix="c3")
    assert manager.miners_create().phase == "MinersCreate"


def test_blockchain_make_is_deterministic(tmp_path):
    manager, _ = quick_manager(tmp_path, suffix="c4")
    manager.blockchain_make()
    first = manager.genesis_path().read_bytes()
    manager.blockchain_make()
    assert manager.genesis_path().read_bytes() == first


def test_blockchain_make_refuses_invalid_config(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="c5")
    broken = NetworkConfig(
        config.configuration_name, config.configuration_version, config.genesis, config.clients, ()
    )
    manager = NetworkManager(broken, tmp_path / "ws")
    with pytest.raises(ValidationFailed):
        manager.blockchain_make()
    assert not manager.genesis_path().exists()  # refused before any side effect


def test_blockchain_create_requires_genesis(tmp_path):
    manager, _ = quick_manager(tmp_path, suffix="c6")
    manager.miners_create()
    with pytest.raises(MissingGenesis):
        manager.blockchain_create()


def test_blockchain_create_initializes_miner_store(tmp_path):
    manager, config = quick_manager(tmp_path, suffix="c7")
    manager.miners_create()
    manager.blockchain_make()
    manager.blockchain_create()
    miner_dir = manager.node_dir(config.miners[0].name)
    assert (miner_dir / "blocks.log").read_bytes() == b""
    meta = json.loads((miner_dir / "meta.json").read_text())
    assert meta["genesisHash"] == json.loads(manager.genesis_path().read_text())["genesisHash"]
    with pytest.raises(AlreadyExists):
        manager.blockchain_create()


def test_node_json_round_trips_the_identity_the_manager_built(tmp_path):
    manager, config = quick_manager(tmp_path, prosumers=2, suffix="c7b")
    manager.clients_create()
    for client in config.clients:
        paths = NodePaths(manager.node_dir(client.name))
        assert NodeIdentity.load(paths.node_json) == manager.node_identity(client)


def test_blockchain_create_leaves_the_miner_without_a_mempool_journal(tmp_path):
    manager, config = quick_manager(tmp_path, suffix="c7c", force=True)
    manager.miners_create()
    manager.blockchain_make()
    manager.blockchain_create()
    mempool = NodePaths(manager.node_dir(config.miners[0].name)).mempool
    assert not mempool.exists()  # the node reads a missing journal as empty and writes it once its mempool changes
    mempool.write_text('{"transactions": [{"txId": "stale"}]}')
    manager.blockchain_create()  # a forced re-init of the chain store drops the old journal with it
    assert not mempool.exists()


def test_distribute_verifies_digest(tmp_path):
    manager, config = quick_manager(tmp_path, prosumers=2, suffix="c8")
    manager.clients_create()
    manager.blockchain_make()
    timing = manager.distribute("clients")
    assert timing.phase == "DistributeToClients"
    for client in config.clients:
        copied = (manager.node_dir(client.name) / "genesis.json").read_bytes()
        assert copied == manager.genesis_path().read_bytes()


def test_distribute_before_create(tmp_path):
    manager, _ = quick_manager(tmp_path, suffix="c9")
    manager.blockchain_make()
    with pytest.raises(NotCreated):
        manager.distribute("miners")


class CorruptingExecutor(LocalExecutor):
    """Flips a byte of genesis copies headed to one node."""

    def __init__(self, victim: str):
        self.victim = victim

    def put(self, host, data, path):
        super().put(host, data, path)
        path = Path(path)
        if path.name == "genesis.json" and self.victim in str(path):
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))


def test_distribute_detects_corrupted_copy(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="c10")
    manager = NetworkManager(config, tmp_path / "ws", executor=CorruptingExecutor("miner1"))
    manager.miners_create()
    manager.blockchain_make()
    with pytest.raises(DistributeHashMismatch) as excinfo:
        manager.distribute("miners")
    assert excinfo.value.node == "miner1"


class FailingExecutor(LocalExecutor):
    """Fails the commands on bad_host that contain only (by default, all of them), as ssh does when it cannot connect."""

    def __init__(self, bad_host: str, only: str = ""):
        self.bad_host = bad_host
        self.only = only

    def run(self, host, command):
        if host == self.bad_host and self.only in command:
            return ExecResult(255, "ssh: connect to host failed")
        return super().run(host, command)


def test_executor_failure_names_host(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="c11")
    manager = NetworkManager(config, tmp_path / "ws", executor=FailingExecutor("127.0.0.1"))
    with pytest.raises(ExecutorFailure) as excinfo:
        manager.clients_create()
    assert excinfo.value.host == "127.0.0.1"


def test_a_failed_probe_is_an_executor_failure_never_a_verdict(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="c11b")
    NetworkManager(config, tmp_path / "ws").blockchain_make()  # local: no host command
    manager = NetworkManager(config, tmp_path / "ws", executor=FailingExecutor("127.0.0.1"))
    phases = (
        manager.clients_create,
        manager.blockchain_create,
        lambda: manager.distribute("clients"),
        lambda: manager.start("clients"),
        manager.network_stop,
        manager.network_delete,
    )
    for phase in phases:
        with pytest.raises(ExecutorFailure) as excinfo:  # not NotCreated, AlreadyExists or NotRunning
            phase()
        assert excinfo.value.host == "127.0.0.1"


def test_a_failed_lock_probe_is_an_executor_failure_never_not_running(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="c11e")
    NetworkManager(config, tmp_path / "ws").network_create()  # created, never started
    manager = NetworkManager(config, tmp_path / "ws", executor=FailingExecutor("127.0.0.1", only="flock"))
    try:
        for phase in (lambda: manager.start("miners"), manager.network_stop, manager.network_delete):
            with pytest.raises(ExecutorFailure, match="lock probe") as excinfo:
                phase()
            assert excinfo.value.host == "127.0.0.1"
        for node in config.all_nodes():
            assert not NodePaths(manager.node_dir(node.name)).pid.exists()  # nothing launched
            assert manager.node_dir(node.name).is_dir()  # nothing deleted
    finally:
        NetworkManager(config, tmp_path / "ws", force=True).network_delete()  # kills a node that a start launched anyway


def test_already_exists_names_the_first_existing_node_in_config_order(tmp_path):
    manager, config = quick_manager(tmp_path, prosumers=3, suffix="c11c")
    for name in ("prosumer3", "prosumer2"):
        manager.node_dir(name).mkdir(parents=True)
    with pytest.raises(AlreadyExists, match="node 'prosumer2'"):
        manager.clients_create()


def test_a_plain_file_where_a_node_directory_belongs_exists(tmp_path):
    manager, _ = quick_manager(tmp_path, suffix="c11f")
    manager.config_dir().mkdir(parents=True)
    manager.node_dir("prosumer1").write_text("not a directory")
    with pytest.raises(AlreadyExists, match="node 'prosumer1'"):
        manager.clients_create()
    forced, _ = quick_manager(tmp_path, suffix="c11f", force=True)
    forced.clients_create()  # removes the file and makes the directory
    assert NodePaths(forced.node_dir("prosumer1")).node_json.is_file()


def test_a_node_directory_outside_the_configuration_directory_is_refused(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 1, suffix="c11g")
    escaping = dataclasses.replace(config.clients[0], name="../outside")  # validation would refuse the name
    config = dataclasses.replace(config, clients=(escaping, *config.clients[1:]))
    manager = NetworkManager(config, tmp_path / "ws", force=True)
    manager.config_dir().mkdir(parents=True)
    outside = tmp_path / "ws" / "outside"
    outside.mkdir()
    with pytest.raises(ManagerError, match="escapes"):
        manager.network_delete()
    assert outside.is_dir()
    for name in ("../../outside", "a/b"):
        with pytest.raises(ManagerError, match="escapes"):
            manager.node_dir(name)
    assert manager.node_dir("dso1").parent == manager.config_dir()


def test_distribute_names_the_one_wrong_copy_among_several(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 3, suffix="c10b")
    manager = NetworkManager(config, tmp_path / "ws", executor=CorruptingExecutor("prosumer2"))
    manager.clients_create()
    manager.blockchain_make()
    with pytest.raises(DistributeHashMismatch) as excinfo:
        manager.distribute("clients")
    assert excinfo.value.node == "prosumer2"


def test_a_workspace_path_with_a_space_creates_distributes_and_verifies(tmp_path):
    config = make_bench_config(BENCH_TEMPLATE, 2, suffix="c11d")
    manager = NetworkManager(config, tmp_path / "my work space", force=True)
    manager.network_create()
    manager.network_create()  # forced: removes and remakes every directory and chain store
    genesis = manager.genesis_path().read_bytes()
    for node in config.all_nodes():
        assert (manager.node_dir(node.name) / "genesis.json").read_bytes() == genesis
        assert NodeIdentity.load(NodePaths(manager.node_dir(node.name)).node_json) == manager.node_identity(node)
    assert (manager.node_dir("miner1") / "blocks.log").read_bytes() == b""


def test_network_create_emits_seven_timings(tmp_path):
    manager, _ = quick_manager(tmp_path, prosumers=2, suffix="c12")
    timings = manager.network_create()
    phases = [t.phase for t in timings]
    assert phases == [
        "ClientsCreate",
        "MinersCreate",
        "BlockchainMake",
        "BlockchainCreate",
        "DistributeToClients",
        "DistributeToMiners",
        "FullNetworkCreated",
    ]
    total = timings[-1].duration
    assert sum(t.duration for t in timings[:-1]) <= total


def test_phase_order_guards(tmp_path):
    manager, _ = quick_manager(tmp_path, suffix="c13")
    with pytest.raises(NotCreated):
        manager.start("miners")
    manager.network_create()
    with pytest.raises(NotRunning):
        manager.network_connect()
    with pytest.raises(NotRunning):
        manager.network_stop()


def test_stateless_reentry_between_phases(tmp_path):
    # every phase from a brand-new manager instance: state lives on disk only
    _, config = quick_manager(tmp_path, suffix="c14")

    def fresh():
        return NetworkManager(config, tmp_path / "ws", node_defaults=NodeDefaults(block_interval=0.1))

    fresh().clients_create()
    fresh().miners_create()
    fresh().blockchain_make()
    fresh().blockchain_create()
    fresh().distribute("clients")
    fresh().distribute("miners")
    fresh().start("miners")
    fresh().start("clients")
    fresh().network_connect()
    status = fresh().network_status()
    assert all(s is not None for s in status.values())
    fresh().network_stop()
    cleanup = NetworkManager(config, tmp_path / "ws", force=True)
    cleanup.network_delete()
    assert not (tmp_path / "ws" / config.configuration_name).exists()


def test_full_lifecycle_forms_star(live_network):
    manager, config = live_network(prosumers=2)
    status = manager.network_status()
    miner_status = status["miner1"]
    assert miner_status["peers"] == len(config.clients) == 3
    for client in config.clients:
        assert status[client.name]["peers"] == 1

    manager.network_stop()
    for node in config.all_nodes():
        assert not AdminClient(node.host, node.admin_port).is_up(timeout=0.3)
    manager.network_delete()
    assert not manager.config_dir().exists()


def stop_records(caplog) -> list[logging.LogRecord]:
    return [r for r in caplog.records if r.name == "chainyard.manager" and r.getMessage().startswith("stop ")]


def test_network_stop_lets_every_node_exit_without_escalation(live_network, caplog):
    manager, config = live_network(prosumers=2)
    pid_files = {node.name: manager.node_dir(node.name) / "node.pid" for node in config.all_nodes()}
    pids = {name: int(path.read_text()) for name, path in pid_files.items()}
    down = config.clients[1].name  # stopped first: it gets no line of the network's stop
    manager.launcher.stop(config.clients[1].host, [manager.node_dir(down)])
    executor = CountingExecutor()
    stopper = NetworkManager(config, manager.workspace, executor=executor, node_defaults=manager.node_defaults)
    with caplog.at_level(logging.INFO, logger="chainyard.manager"):
        timing = stopper.network_stop()
    assert [host for host, _ in executor.commands] == ["127.0.0.1"]  # one host command stops every node
    stops = stop_records(caplog)
    assert [r.args[0] for r in stops] == [n.name for n in config.all_nodes() if n.name != down]  # config order
    assert not any("escalated to kill" in r.getMessage() for r in stops)
    assert sum(r.args[1] for r in stops) <= timing.duration
    for node in config.all_nodes():
        assert manager._running_pids([node]) == {node.name: None}
        assert not process_running(pids[node.name])  # nor any other process under that pid
        assert not pid_files[node.name].exists()  # removed by the node itself on a graceful exit


SIGTERM_IGNORING_HOLDER = """
import fcntl, os, signal, sys, time
signal.signal(signal.SIGTERM, signal.SIG_IGN)
with open(sys.argv[1], "w") as pid_file:
    fcntl.flock(pid_file, fcntl.LOCK_EX)
    pid_file.write(str(os.getpid()))
    pid_file.flush()
    print("locked", flush=True)
    time.sleep(60)
"""


def test_the_escalation_note_goes_on_the_line_of_the_node_that_was_killed(live_network, caplog):
    manager, config = live_network(prosumers=2, connect=False)
    stubborn = config.clients[1]  # between two nodes that stop gracefully
    directory = manager.node_dir(stubborn.name)
    manager.launcher.stop(stubborn.host, [directory])
    holder = subprocess.Popen(
        [sys.executable, "-c", SIGTERM_IGNORING_HOLDER, str(NodePaths(directory).pid)], stdout=subprocess.PIPE
    )
    try:
        assert holder.stdout.readline() == b"locked\n"
        with caplog.at_level(logging.INFO, logger="chainyard.manager"):
            manager.network_stop()
        assert holder.wait(timeout=5) == -9
    finally:
        holder.kill()
        holder.wait()
        holder.stdout.close()
    stops = {r.args[0]: r for r in stop_records(caplog)}
    assert list(stops) == [n.name for n in config.all_nodes()]
    assert [name for name, r in stops.items() if r.getMessage().endswith(" (escalated to kill)")] == [stubborn.name]
    assert stops[stubborn.name].args[1] >= STOP_GRACE
    assert all(r.args[1] < STOP_GRACE for name, r in stops.items() if name != stubborn.name)


def test_a_stop_that_reports_no_node_fails_naming_its_host_and_logs_no_line(live_network, caplog):
    manager, config = live_network(prosumers=1, connect=False)
    executor = FailingExecutor("127.0.0.1", only="kill -TERM")
    stopper = NetworkManager(config, manager.workspace, executor=executor, node_defaults=manager.node_defaults)
    with caplog.at_level(logging.INFO, logger="chainyard.manager"), pytest.raises(ExecutorFailure) as excinfo:
        stopper.network_stop()
    assert excinfo.value.host == "127.0.0.1"
    assert stop_records(caplog) == []


def test_a_stale_pid_of_another_process_is_not_this_node(tmp_path, foreign_process):
    manager, config = quick_manager(tmp_path, suffix="c16")
    manager.network_create()  # created, never started
    for node in config.all_nodes():
        (manager.node_dir(node.name) / "node.pid").write_text(str(foreign_process.pid))
    with pytest.raises(NotRunning):
        manager.network_stop()
    manager.network_delete()  # nothing of this network runs
    assert foreign_process.poll() is None


def test_running_pid_is_the_live_node_of_the_directory_or_none(live_network, foreign_process, tmp_path):
    manager, config = live_network(prosumers=1, connect=False)
    miner = config.miners[0]
    directory = manager.node_dir(miner.name)
    pid = int(NodePaths(directory).pid.read_text())
    launcher = NodeLauncher()
    other = (tmp_path / "other").resolve()
    other.mkdir()
    assert launcher.running_pids(miner.host, [directory, other]) == {directory: pid, other: None}  # other: no node.pid
    for content in ("garbage", f"{pid} {pid}", str(foreign_process.pid), str(pid)):
        NodePaths(other).pid.write_text(content)
        assert launcher.running_pids(miner.host, [other]) == {other: None}, content  # the last: another's node


def test_blockchain_make_does_not_validate_a_second_time(tmp_path, monkeypatch):
    manager, config = quick_manager(tmp_path, suffix="c17")
    expected = make_genesis(config).genesis_hash

    def refuse(_config):
        raise AssertionError("the genesis builder validated a config that ensure_valid had already validated")

    monkeypatch.setattr("chainyard.dsl.validate", refuse)  # make_genesis imports it when called
    manager.blockchain_make()
    assert read_genesis(manager.genesis_path()).genesis_hash == expected


def test_delete_refuses_running_network(live_network):
    manager, _ = live_network(prosumers=1, connect=False)
    with pytest.raises(ManagerError, match="refusing to delete"):
        manager.network_delete()


def test_another_workspace_with_the_same_ports_does_not_run_this_network(live_network, tmp_path):
    running, config = live_network(prosumers=1, connect=False)
    other = NetworkManager(config, tmp_path / "other-ws", node_defaults=running.node_defaults)
    other.network_create()  # created, never started: its admin ports answer only for the running network
    with pytest.raises(NotRunning, match="nodes not running"):
        other.network_connect()
    with pytest.raises(NotRunning):
        other.network_stop()
    assert all(status is not None for status in running.network_status().values())
    other.network_delete()  # no force needed: none of its nodes runs
    assert not other.config_dir().exists()
    assert all(status is not None for status in running.network_status().values())


def test_start_on_a_running_network_refuses_or_with_force_restarts_every_node(live_network):
    manager, config = live_network(prosumers=2, connect=False)
    nodes = config.all_nodes()

    def pids():
        return manager._running_pids(nodes)

    before = pids()
    assert None not in before.values()
    with pytest.raises(AlreadyRunning, match="node 'prosumer1'"):  # the first client in config order
        manager.start("clients")
    assert pids() == before
    forced = NetworkManager(config, manager.workspace, force=True, node_defaults=manager.node_defaults)
    forced.start("miners")
    forced.start("clients")
    after = pids()
    for node in nodes:
        assert after[node.name] is not None and after[node.name] != before[node.name], node.name
        assert not process_running(before[node.name])


def test_bench_happy_path_produces_all_phases(tmp_path):
    result = bench(
        BENCH_TEMPLATE,
        [1],
        1,
        tmp_path / "ws",
        node_defaults=NodeDefaults(block_interval=0.1),
        warmup=False,
    )
    assert result.ok
    assert len(result.rows) == 12
    assert {r.phase for r in result.rows} == {p.value for p in Phase}
    raw = result.to_raw_csv()
    assert raw.splitlines()[0] == "phase,node_count,rep,duration_seconds"
    summary = result.to_summary_csv()
    assert summary.splitlines()[0] == "phase,avg_1p,stddev_1p"
    assert len(summary.splitlines()) == 13


def test_bench_runs_every_count_once_per_repetition(tmp_path):
    result = bench(
        BENCH_TEMPLATE,
        [1, 2],
        2,
        tmp_path / "ws",
        node_defaults=NodeDefaults(block_interval=0.1),
        warmup=False,
    )
    assert result.ok
    order = [(row.rep, row.prosumers) for row in result.rows if row.phase == Phase.CLIENTS_START.value]
    assert order == [(0, 1), (0, 2), (1, 1), (1, 2)]


class StartBlockingExecutor(LocalExecutor):
    def run(self, host, command):
        if "chainyard.node" in command:
            return ExecResult(1, "simulated launch failure")
        return super().run(host, command)


def test_bench_flags_partial_results_on_failure(tmp_path):
    result = bench(
        BENCH_TEMPLATE,
        [1],
        1,
        tmp_path / "ws",
        executor=StartBlockingExecutor(),
        warmup=False,
    )
    assert not result.ok
    assert result.failures
    assert "# failures" in result.to_summary_csv()
