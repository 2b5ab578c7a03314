"""One network on several hosts: the manager works on every host at once, and on each host's nodes in order.

The hosts are 127.0.0.1, .2 and .3 on loopback. Through the ssh_hosts shim,
SshExecutor's own command strings and quoting run on this machine.
"""

from __future__ import annotations

import dataclasses
import json
import threading

import pytest

from chainyard.cli import main
from chainyard.dsl import NetworkConfig, NodeSpec, serialize_config
from chainyard.executor import LocalExecutor, SshExecutor
from chainyard.launcher import NodeLauncher
from chainyard.manager import ExecutorFailure, ManagerError, NetworkManager, NodeDefaults, allocate_ports, make_bench_config
from chainyard.node import IMAGE_NAME, load_blocks
from chainyard.protocol import AdminClient
from chainyard.tes import audit_report, run_day
from chainyard.wrapper import NodeWrapper
from conftest import BENCH_TEMPLATE, launcher_pid, parent_pid, process_running, wait_until

CLIENTS = (
    ("dso1", "dso", "127.0.0.2"),
    ("prosumer1", "prosumer", "127.0.0.2"),
    ("prosumer2", "prosumer", "127.0.0.3"),
    ("prosumer3", "prosumer", "127.0.0.3"),
)
CLIENT_HOSTS = ["127.0.0.2", "127.0.0.3"]


def three_hosts(suffix: str) -> NetworkConfig:
    """The miner on 127.0.0.1, dso1 and prosumer1 on 127.0.0.2, prosumer2 and prosumer3 on 127.0.0.3."""
    ports = iter(allocate_ports(3 * len(CLIENTS) + 2))
    clients = tuple(NodeSpec(name, role, host, next(ports), next(ports), next(ports)) for name, role, host in CLIENTS)
    miner = NodeSpec("miner1", "miner", "127.0.0.1", next(ports), next(ports))
    return dataclasses.replace(BENCH_TEMPLATE, configuration_name=f"hosts-{suffix}", clients=clients, miners=(miner,))


@pytest.fixture
def networks(tmp_path):
    """Factory: a manager of a three-host network; every node of it is stopped and deleted afterwards."""
    managers: list[NetworkManager] = []

    def make(executor, workspace: str = "ws") -> NetworkManager:
        config = three_hosts(str(len(managers)))
        manager = NetworkManager(
            config, tmp_path / workspace, executor=executor, node_defaults=NodeDefaults(block_interval=0.1)
        )
        managers.append(manager)
        return manager

    yield make
    for manager in managers:
        cleanup = NetworkManager(manager.config, manager.workspace, force=True)  # local: needs no shim
        for step in (cleanup.network_stop, cleanup.network_delete):
            try:
                step()
            except (ManagerError, OSError):
                pass


class RecordingSsh(SshExecutor):
    def __init__(self):
        super().__init__()
        self.calls: list[tuple[str, str]] = []

    def run(self, host, command, **kwargs):
        self.calls.append((host, command))
        return super().run(host, command, **kwargs)


KINDS = {"launch": "chainyard.node --detach", "existence probe": "test -e", "lock probe": "flock -n -s"}


def kinds(calls: list[tuple[str, str]], host: str) -> list[str]:
    """What each command sent to host was, in order; a command of no known kind stands as itself.

    A launch also probes its launcher's lock, so its mark is tried first.
    """
    return [next((k for k, mark in KINDS.items() if mark in command), command) for h, command in calls if h == host]


def node_pids(manager: NetworkManager, nodes) -> dict[str, int | None]:
    """Each node's pid while it holds its lock, else None, probed on this machine."""
    dirs = {manager.node_dir(n.name): n.name for n in nodes}
    return {dirs[d]: pid for d, pid in NodeLauncher(LocalExecutor()).running_pids("127.0.0.1", list(dirs)).items()}


def running(manager: NetworkManager) -> set[str]:
    """The nodes whose lock is held."""
    return {name for name, pid in node_pids(manager, manager.config.all_nodes()).items() if pid is not None}


def launchers(manager: NetworkManager) -> dict[str, int]:
    """Each host's launcher: host -> the pid that is the parent of every node running there."""
    pids = node_pids(manager, manager.config.all_nodes())
    parents = {(n.host, parent_pid(pids[n.name])) for n in manager.config.all_nodes()}
    assert len(dict(parents)) == len(parents), f"nodes of one host have different parents: {sorted(parents)}"
    return dict(parents)


def test_an_ssh_copy_is_one_command_and_keeps_an_awkward_path(ssh_hosts, tmp_path):
    source = tmp_path / "source.bin"
    source.write_bytes(bytes(range(256)) * 64)
    destination = tmp_path / "it's a dir" / "deeper" / "copy.bin"
    SshExecutor().put_file("127.0.0.2", source, destination)
    assert destination.read_bytes() == source.read_bytes()
    assert ssh_hosts.hosts() == ["127.0.0.2"]


def test_a_network_on_three_hosts_lives_and_trades_through_ssh(ssh_hosts, networks):
    executor = RecordingSsh()
    manager = networks(executor, workspace="work space")
    config = manager.config
    manager.network_create()
    for targets, hosts in (("miners", ["127.0.0.1"]), ("clients", CLIENT_HOSTS)):
        executor.calls.clear()
        manager.start(targets)
        assert sorted({host for host, _ in executor.calls}) == hosts
        for host in hosts:
            assert kinds(executor.calls, host) == ["existence probe", "lock probe", "launch"], host
    hosts = launchers(manager)
    assert sorted(hosts) == ["127.0.0.1", *CLIENT_HOSTS]
    assert len(set(hosts.values())) == 3
    assert hosts == {host: launcher_pid(manager.config_dir(), host) for host in hosts}
    manager.network_connect()
    status = manager.network_status()
    assert status["miner1"]["peers"] == 4
    assert [status[c.name]["peers"] for c in config.clients] == [1, 1, 1, 1]

    wrappers = {
        c.name: NodeWrapper(manager.node_dir(c.name), poll_period=0.1, launcher=manager.launcher).attach()
        for c in config.clients
    }
    try:
        report = run_day(wrappers, config, seed=11, intervals=2)
    finally:
        for wrapper in wrappers.values():
            wrapper.close()
    assert [o["status"] for o in report["outcomes"]] == ["ok", "ok"]

    manager.network_stop()
    assert running(manager) == set()
    wait_until(lambda: not any(process_running(pid) for pid in hosts.values()), timeout=2, message="launchers gone")
    findings = audit_report(report, load_blocks(manager.node_dir("miner1")))
    assert len(findings) == 2 and all(f.ok for f in findings)

    asked = len(ssh_hosts.hosts())
    manager.network_delete()
    assert sorted(ssh_hosts.hosts()[asked:]) == ["127.0.0.1"] * 2 + ["127.0.0.2"] * 2 + ["127.0.0.3"] * 2
    assert not manager.config_dir().exists()


class BarrierAtLaunch(LocalExecutor):
    """Each launch waits until a second launch has begun too."""

    def __init__(self):
        self.barrier = threading.Barrier(2, timeout=5)

    def run(self, host, command):
        if "chainyard.node --detach" in command:
            self.barrier.wait()
        return super().run(host, command)


def test_a_start_launches_on_every_host_at_once(networks):
    manager = networks(BarrierAtLaunch())
    manager.network_create()
    manager.start("clients")  # the launches on 127.0.0.2 and 127.0.0.3 each wait for the other
    assert running(manager) == {name for name, _, _ in CLIENTS}


class ThreadRecorder(LocalExecutor):
    def __init__(self):
        self.threads: list[threading.Thread] = []

    def run(self, host, command):
        self.threads.append(threading.current_thread())
        return super().run(host, command)

    def put_file(self, host, local_path, remote_path):
        self.threads.append(threading.current_thread())
        super().put_file(host, local_path, remote_path)


def test_one_host_is_worked_on_the_calling_thread(tmp_path):
    executor = ThreadRecorder()
    config = make_bench_config(BENCH_TEMPLATE, 2, suffix="onehost")
    manager = NetworkManager(config, tmp_path / "ws", executor=executor, node_defaults=NodeDefaults(block_interval=0.1))
    try:
        manager.network_create()
        manager.start("miners")
        manager.start("clients")
        manager.network_stop()
        manager.network_delete()
    finally:
        cleanup = NetworkManager(config, tmp_path / "ws", force=True)
        for step in (cleanup.network_stop, cleanup.network_delete):
            try:
                step()
            except ManagerError:
                pass
    assert executor.threads
    assert set(executor.threads) == {threading.current_thread()}


def test_a_host_that_ssh_cannot_reach_is_named_and_nothing_changes_elsewhere(ssh_hosts, networks):
    manager = networks(SshExecutor())
    NetworkManager(manager.config, manager.workspace).network_create()  # locally: no copy is under test here
    manager.start("miners")
    ssh_hosts.unreachable("127.0.0.3")
    with pytest.raises(ExecutorFailure) as failure:
        manager.start("clients")
    assert failure.value.host == "127.0.0.3"
    started = running(manager)
    assert started == {"miner1"}  # every host is probed before any launch
    for phase in (manager.network_stop, manager.network_delete):
        with pytest.raises(ExecutorFailure) as failure:
            phase()
        assert failure.value.host == "127.0.0.3"
        assert running(manager) == started
        assert all(manager.node_dir(n.name).is_dir() for n in manager.config.all_nodes())
    assert manager.genesis_path().is_file()


def test_force_restarts_running_clients_on_every_host_through_ssh(ssh_hosts, networks):
    manager = networks(SshExecutor())
    config = manager.config
    NetworkManager(config, manager.workspace).network_create()  # locally: no copy is under test here
    manager.start("miners")
    manager.start("clients")
    manager.network_connect()
    before = node_pids(manager, config.clients)

    forced = NetworkManager(
        config, manager.workspace, executor=SshExecutor(), force=True, node_defaults=manager.node_defaults
    )
    forced.start("clients")
    after = node_pids(manager, config.clients)
    assert all(after.values()) and not set(after.values()) & set(before.values())
    assert running(manager) == {n.name for n in config.all_nodes()}
    miner = config.miners[0]
    target = AdminClient(miner.host, miner.admin_port).block_number() + 2

    def star_whole() -> bool:
        status = manager.network_status()
        return all(status[c.name]["peers"] == 1 and status[c.name]["height"] >= target for c in config.clients)

    wait_until(star_whole, timeout=15, message="every restarted client peered with the miner and caught up")


def test_the_cli_runs_a_day_on_three_hosts_that_have_no_chainyard_installed(ssh_hosts, networks, tmp_path):
    ssh_hosts.bare()  # each host command runs with no PYTHONPATH: only the shipped code image can run a node
    manager = networks(SshExecutor())
    config_path = tmp_path / "hosts.json"
    config_path.write_text(serialize_config(manager.config), encoding="utf-8")
    base = ["--config", str(config_path), "--workspace", str(manager.workspace), "--executor", "ssh",
            "--block-interval", "0.1"]
    assert main(["create", *base]) == 0
    day = ["--seed", "11", "--intervals", "2", "--keep-network", "--report", str(tmp_path / "day.json")]
    assert main(["run-tes", *base, *day]) == 0
    status_path = tmp_path / "status.json"
    assert main(["status", *base, "--json", str(status_path)]) == 0
    status = json.loads(status_path.read_text(encoding="utf-8"))
    assert sorted(status) == sorted(n.name for n in manager.config.all_nodes())
    assert {IMAGE_NAME.format(answer["codeDigest"]) for answer in status.values()} == {manager.image_path().name}
    assert main(["stop", *base]) == 0
    assert running(manager) == set()
    assert main(["delete", *base]) == 0
    assert not manager.config_dir().exists()
    assert set(ssh_hosts.hosts()) == {"127.0.0.1", *CLIENT_HOSTS}
