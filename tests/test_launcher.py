"""One launch of several nodes, the warm launcher that forks them, and liveness told by the node.pid lock."""

from __future__ import annotations

import fcntl
import io
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import zipfile
from pathlib import Path

import pytest

from chainyard.executor import LocalExecutor
from chainyard.forkserver import launcher_files
from chainyard.launcher import LaunchFailed, code_image, code_image_name
from chainyard.manager import (
    ExecutorFailure,
    ManagerError,
    NetworkManager,
    NodeDefaults,
    NotCreated,
    make_bench_config,
)
from chainyard.node import IMAGE_NAME, NodePaths, meta_document
from chainyard.protocol import AdminClient
from conftest import BENCH_TEMPLATE, CountingExecutor, launcher_pid, parent_pid, process_running, wait_until


@pytest.fixture
def created(tmp_path):
    """Factory: a created (not started) local network; every node of it is stopped and deleted afterwards."""
    managers: list[NetworkManager] = []

    def create(prosumers: int = 2, executor=None):
        config = make_bench_config(BENCH_TEMPLATE, prosumers, suffix=f"l{len(managers)}")
        manager = NetworkManager(
            config, tmp_path / "ws", executor=executor, node_defaults=NodeDefaults(block_interval=0.1)
        )
        managers.append(manager)
        manager.network_create()
        return manager, config

    yield create
    for manager in managers:
        cleanup = NetworkManager(manager.config, manager.workspace, force=True)
        for step in (cleanup.network_stop, cleanup.network_delete):
            try:
                step()
            except ManagerError:
                pass


def fd_targets(pid: int) -> dict[int, str]:
    fd_dir = Path(f"/proc/{pid}/fd")
    return {int(fd): os.readlink(fd_dir / fd) for fd in os.listdir(fd_dir)}


def test_one_launch_gives_each_node_its_own_pid_lock_and_log(created):
    manager, config = created(prosumers=2)
    nodes = config.all_nodes()
    dirs = {node.name: manager.node_dir(node.name) for node in nodes}
    pids = manager.launcher.start("127.0.0.1", list(dirs.values()))

    # The launch has returned, and every node it started runs and serves admin.
    assert len(set(pids.values())) == len(nodes)
    assert manager.launcher.running_pids("127.0.0.1", list(dirs.values())) == pids
    for node in nodes:
        directory = dirs[node.name]
        pid = pids[directory]
        assert AdminClient(node.host, node.admin_port).is_up()
        assert int(NodePaths(directory).pid.read_text()) == pid
        targets = fd_targets(pid)
        assert targets[0] == os.devnull
        assert targets[1] == targets[2] == str(NodePaths(directory).log)
        others = tuple(str(d) for name, d in dirs.items() if name != node.name)
        assert not [t for t in targets.values() if t.startswith(others) or t.startswith("pipe:")], targets
        assert not [t for t in targets.values() if "launcher-" in t or "pidfd" in t], targets  # the launcher's own
        log = NodePaths(directory).log.read_text()
        assert f"{node.name} ({node.role}) up" in log
        assert not [n.name for n in nodes if n is not node and f"{n.name} ({n.role}) up" in log]


def test_kill_9_of_one_node_frees_its_lock_while_its_siblings_serve(created):
    manager, config = created(prosumers=2)
    nodes = config.all_nodes()
    dirs = [manager.node_dir(node.name) for node in nodes]
    pids = manager.launcher.start("127.0.0.1", dirs)
    victim = dirs[1]
    os.kill(pids[victim], signal.SIGKILL)
    wait_until(lambda: manager.launcher.running_pids("127.0.0.1", [victim]) == {victim: None}, message="lock freed")
    assert manager.launcher.running_pids("127.0.0.1", dirs) == {d: None if d == victim else pids[d] for d in dirs}
    for node, directory in zip(nodes, dirs):
        if directory != victim:
            assert AdminClient(node.host, node.admin_port).is_up()


def test_probing_running_pid_during_a_start_never_fails_it(created):
    manager, config = created(prosumers=5)
    manager.start("miners")
    dirs = [manager.node_dir(client.name) for client in config.clients]
    for directory in dirs:
        NodePaths(directory).pid.write_text("1")  # left by a node killed with -9: every probe locks it
    done = threading.Event()
    probes = []

    def probe() -> None:
        while not done.is_set():
            for directory in dirs:
                probes.append(manager.launcher.running_pids("127.0.0.1", [directory])[directory])

    probers = [threading.Thread(target=probe) for _ in range(3)]
    for prober in probers:
        prober.start()
    try:
        manager.start("clients")
    finally:
        done.set()
        for prober in probers:
            prober.join()
    assert len(probes) >= len(dirs)
    assert all(manager.launcher.running_pids("127.0.0.1", dirs).values())


def test_a_start_waits_out_a_probe_that_holds_the_lock(created):
    manager, _ = created(prosumers=1)
    directory = manager.node_dir("prosumer1")
    paths = NodePaths(directory)
    paths.pid.write_text("1")
    with paths.pid.open() as held:
        fcntl.flock(held, fcntl.LOCK_SH)  # what a probe holds, here until the node has tried to lock

        def release() -> None:
            wait_until(paths.log.exists, message="node.log, opened just before the lock is tried")
            time.sleep(0.05)
            fcntl.flock(held, fcntl.LOCK_UN)

        releaser = threading.Thread(target=release)
        releaser.start()
        try:
            pids = manager.launcher.start("127.0.0.1", [directory])
        finally:
            releaser.join()
    assert manager.launcher.running_pids("127.0.0.1", [directory]) == pids


def test_a_node_that_dies_at_start_fails_its_phase_with_its_name_and_exit_status(created):
    manager, config = created(prosumers=2)
    NodePaths(manager.node_dir("prosumer1")).meta.write_text(json.dumps(meta_document("0" * 64)))
    manager.start("miners")
    with pytest.raises(ExecutorFailure) as failure:
        manager.start("clients")
    message = str(failure.value)
    assert "'prosumer1' exited with status 3" in message
    assert "prosumer2" not in message and "dso1" not in message
    pids = manager._running_pids(config.all_nodes())
    assert pids["prosumer1"] is None
    launcher = launcher_pid(manager.config_dir(), "127.0.0.1")  # the clients came from the miner's warm launcher
    assert {parent_pid(pids[name]) for name in ("miner1", "dso1", "prosumer2")} == {launcher}


def test_a_second_node_on_a_running_directory_changes_nothing(live_network):
    manager, config = live_network(prosumers=1)
    miner = config.miners[0]
    client = next(c for c in config.clients if c.name == "prosumer1")
    AdminClient(miner.host, miner.admin_port).set_mining(False)
    height = lambda node: AdminClient(node.host, node.admin_port).block_number()  # noqa: E731
    wait_until(lambda: height(client) == height(miner), message="client at the miner's height")
    directory = manager.node_dir(client.name)
    paths = NodePaths(directory)
    pid_text, blocks = paths.pid.read_text(), paths.blocks.read_bytes()
    running = manager.launcher.running_pids(client.host, [directory])
    assert running == {directory: int(pid_text)}

    second = subprocess.run(
        [sys.executable, "-m", "chainyard.node", "--data-dir", str(directory)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=30,
    )
    assert second.returncode != 0
    assert paths.pid.read_text() == pid_text
    assert paths.blocks.read_bytes() == blocks
    assert manager.launcher.running_pids(client.host, [directory]) == running
    assert AdminClient(client.host, client.admin_port).is_up()


def test_network_delete_asks_each_host_once(created):
    executor = CountingExecutor()
    manager, config = created(prosumers=3, executor=executor)
    executor.commands.clear()
    manager.network_delete()
    hosts = [host for host, _ in executor.commands]
    assert hosts.count("127.0.0.1") == 2  # one lock probe and one rm -rf over the host's node directories
    assert hosts.count("localhost") == 0  # the configuration directory is removed in-process
    assert not manager.config_dir().exists()


def test_every_start_on_a_host_forks_its_nodes_from_one_launcher(created):
    manager, config = created(prosumers=2)
    manager.start("miners")
    launcher = launcher_pid(manager.config_dir(), "127.0.0.1")
    manager.start("clients")
    pids = manager._running_pids(config.all_nodes())
    assert launcher is not None and launcher != os.getpid()
    assert {name: parent_pid(pid) for name, pid in pids.items()} == {n.name: launcher for n in config.all_nodes()}
    assert launcher_pid(manager.config_dir(), "127.0.0.1") == launcher


def test_the_launcher_exits_with_its_last_node_and_the_network_deletes(created):
    manager, config = created(prosumers=1)
    manager.start("miners")
    manager.start("clients")
    launcher = launcher_pid(manager.config_dir(), "127.0.0.1")
    manager.network_stop()
    wait_until(lambda: not process_running(launcher), timeout=2, message="the launcher gone")
    assert not [p.name for p in manager.config_dir().iterdir() if p.name in launcher_files("127.0.0.1")]
    manager.network_delete()
    assert not manager.config_dir().exists()


def test_nodes_outlive_a_killed_launcher_and_the_next_start_brings_up_another(created):
    manager, config = created(prosumers=1)
    manager.start("miners")
    miner = config.miners[0]
    first = launcher_pid(manager.config_dir(), "127.0.0.1")
    os.kill(first, signal.SIGKILL)
    wait_until(lambda: not process_running(first), message="the killed launcher gone")
    assert AdminClient(miner.host, miner.admin_port).is_up()
    manager.start("clients")
    second = launcher_pid(manager.config_dir(), "127.0.0.1")
    assert second not in (None, first)
    pids = manager._running_pids(config.all_nodes())
    assert {parent_pid(pids[c.name]) for c in config.clients} == {second}
    assert parent_pid(pids[miner.name]) != second
    assert AdminClient(miner.host, miner.admin_port).is_up()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_two_starts_at_once_on_one_host_reach_one_launcher(created, warm):
    manager, config = created(prosumers=4)
    if warm:
        manager.start("miners")
    halves = [[manager.node_dir(c.name) for c in config.clients[i::2]] for i in (0, 1)]
    barrier = threading.Barrier(2, timeout=5)
    results: dict[int, dict] = {}

    def start(i: int) -> None:
        barrier.wait()
        results[i] = manager.launcher.start("127.0.0.1", halves[i])

    threads = [threading.Thread(target=start, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == [0, 1]
    pids = [pid for i in (0, 1) for pid in results[i].values()]
    assert len(set(pids)) == len(config.clients)
    assert {parent_pid(pid) for pid in pids} == {launcher_pid(manager.config_dir(), "127.0.0.1")}


def test_a_launch_that_no_launcher_answers_forks_its_nodes_itself(created):
    manager, config = created(prosumers=1)
    lock_name, socket_name = launcher_files("127.0.0.1")
    with (manager.config_dir() / lock_name).open("w") as held:
        fcntl.flock(held, fcntl.LOCK_EX)  # a holder that never listens: the client, then the lock's retry, give up
        held.write(str(os.getpid()))
        held.flush()
        manager.start("miners")
        manager.start("clients")
        pids = manager._running_pids(config.all_nodes())
        assert all(pids.values())
        assert not (manager.config_dir() / socket_name).exists()
    forced = NetworkManager(config, manager.workspace, force=True)
    forced.start("clients")  # the lock is free again: this launch becomes the host's launcher
    launcher = launcher_pid(manager.config_dir(), "127.0.0.1")
    assert launcher not in (None, os.getpid())
    assert {parent_pid(pid) for pid in forced._running_pids(config.clients).values()} == {launcher}


# -- the code image: what every launch on a host runs ------------------------------------------


def test_two_processes_give_one_code_version_one_image_name():
    probe = "from chainyard.launcher import code_image_name; print(code_image_name())"
    names = [subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.strip()
             for _ in range(2)]
    assert names == [code_image_name()] * 2


def test_a_launch_from_the_image_loads_neither_site_nor_argparse(tmp_path):
    image = tmp_path / code_image_name()
    image.write_bytes(code_image())
    probe = (
        "import sys, chainyard.node as node, chainyard.forkserver; node._parse_args(['--detach', '--data-dir', 'd']); "
        "print(sorted({'argparse', 'site'} & set(sys.modules)), node.CODE_DIGEST, node.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(image))
    run = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, check=True)
    loaded, digest, origin = run.stdout.split()
    assert loaded == "[]"
    assert IMAGE_NAME.format(digest) == image.name
    assert origin == f"{image}/chainyard/node.pyc"


def test_every_node_runs_the_image_of_its_network_without_site(created):
    executor = CountingExecutor()
    manager, config = created(prosumers=1, executor=executor)
    assert sorted(p.name for p in manager.config_dir().glob("chainyard-*")) == [code_image_name()]
    executor.commands.clear()
    manager.start("miners")
    manager.start("clients")
    launch = next(command for _, command in executor.commands if "chainyard.node --detach" in command)
    assert f"PYTHONPATH={manager.image_path()}; export PYTHONPATH; " in launch
    assert " -S -m chainyard.node --detach " in launch
    for node, pid in manager._running_pids(config.all_nodes()).items():
        assert b"\0-S\0-m\0chainyard.node\0--detach\0" in Path(f"/proc/{pid}/cmdline").read_bytes(), node
    assert {IMAGE_NAME.format(s["codeDigest"]) for s in manager.network_status().values()} == {code_image_name()}


def test_an_image_whose_bytecode_has_a_foreign_magic_starts_nodes_from_its_sources(created):
    manager, config = created(prosumers=1)
    image = manager.image_path()
    with zipfile.ZipFile(io.BytesIO(image.read_bytes())) as original, zipfile.ZipFile(image, "w") as foreign:
        for entry in original.infolist():
            data = original.read(entry)
            if entry.filename.endswith(".pyc"):
                data = b"\x00\x00\r\n" + data[4:]  # no interpreter's magic number
            foreign.writestr(entry, data, zipfile.ZIP_DEFLATED)
    manager.start("miners")
    manager.start("clients")
    assert {IMAGE_NAME.format(s["codeDigest"]) for s in manager.network_status().values()} == {image.name}


def test_a_home_without_its_image_starts_no_node_and_names_the_image(created):
    manager, config = created(prosumers=1)
    image = manager.image_path()
    image.unlink()  # chainyard stays importable from the source tree here: no launch may fall back to it
    with pytest.raises(NotCreated, match=re.escape(str(image))):
        manager.start("miners")
    miner_dir = manager.node_dir(config.miners[0].name)
    with pytest.raises(LaunchFailed, match=re.escape(f"no code image {image}")):
        manager.launcher.start("127.0.0.1", [miner_dir])  # as a wrapper relaunches a node
    assert not any(manager._running_pids(config.all_nodes()).values())
    manager.distribute("miners")  # ships the image again
    manager.start("miners")


class ImagesAfterRemoval(LocalExecutor):
    """Records which code images each host's rm -rf left in the configuration directory."""

    def __init__(self):
        self.config_dir: Path | None = None
        self.left: list[list[str]] = []

    def run(self, host, command):
        result = super().run(host, command)
        if command.startswith("rm -rf"):
            self.left.append(sorted(p.name for p in self.config_dir.glob("chainyard-*")))
        return result


def test_network_delete_leaves_no_code_image_on_any_host(created):
    executor = ImagesAfterRemoval()
    manager, _ = created(prosumers=1, executor=executor)
    executor.config_dir = manager.config_dir()
    (manager.config_dir() / IMAGE_NAME.format("0" * 16)).write_bytes(b"an image of another code version")
    manager.image_path().with_name(f"{manager.image_path().name}.127.0.0.1.part").write_bytes(b"a copy cut short")
    manager.network_delete()
    assert executor.left == [[]]
    assert not manager.config_dir().exists()
