from __future__ import annotations

import json
import os
import random
import shlex
import subprocess
import time
from pathlib import Path

import pytest

from chainyard.dsl import GenesisParams, NetworkConfig, NodeSpec, parse_config
from chainyard.executor import LocalExecutor
from chainyard.forkserver import launcher_files
from chainyard.manager import NetworkManager, NodeDefaults, make_bench_config

# Node processes that the tests launch import chainyard from this source tree too.
SRC = Path(__file__).resolve().parent.parent / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

SAMPLE_DOC = {
    "configurationName": "net",
    "configurationVersion": "1",
    "chainID": 5871,
    "difficulty": 400,
    "gasLimit": 21000,
    "balance": 1000,
    "clients": [
        {"name": "dso1", "role": "dso", "host": "10.0.0.1", "blockchainPort": 30303, "adminPort": 30403, "wrapperPort": 30503},
        {"name": "prosumer1", "role": "prosumer", "host": "10.0.0.2", "blockchainPort": 30303, "adminPort": 30403, "wrapperPort": 30503},
        {"name": "prosumer2", "role": "prosumer", "host": "10.0.0.3", "blockchainPort": 30303, "adminPort": 30403, "wrapperPort": 30503},
    ],
    "miners": [
        {"name": "miner1", "host": "10.0.0.4", "blockchainPort": 30303, "adminPort": 30403},
    ],
}


def sample_doc(**overrides) -> dict:
    doc = json.loads(json.dumps(SAMPLE_DOC))
    doc.update(overrides)
    return doc


@pytest.fixture
def sample_config() -> NetworkConfig:
    return parse_config(json.dumps(SAMPLE_DOC))


def random_valid_config(rng: random.Random, clients: int = 3, miners: int = 1) -> NetworkConfig:
    """A structurally valid config with unique names and collision-free ports."""
    hosts = [f"host{rng.randint(1, 6)}" for _ in range(clients + miners)]
    # ports below 40000 so injected collisions (40000+) never clash by accident
    ports = rng.sample(range(1024, 40000), (clients + miners) * 3)
    port_iter = iter(ports)
    client_specs = []
    for i in range(clients):
        role = "dso" if i == 0 else "prosumer"
        client_specs.append(
            NodeSpec(
                name=f"c{i}",
                role=role,
                host=hosts[i],
                blockchain_port=next(port_iter),
                admin_port=next(port_iter),
                wrapper_port=next(port_iter),
            )
        )
    miner_specs = []
    for i in range(miners):
        miner_specs.append(
            NodeSpec(
                name=f"m{i}",
                role="miner",
                host=hosts[clients + i],
                blockchain_port=next(port_iter),
                admin_port=next(port_iter),
            )
        )
    return NetworkConfig(
        configuration_name=f"rand{rng.randint(0, 10 ** 9)}",
        configuration_version="1",
        genesis=GenesisParams(
            chain_id=rng.randint(5, 100000),
            difficulty=rng.randint(1, 5000),
            gas_limit=rng.randint(21000, 100000),
            balance=rng.randint(0, 10 ** 6),
        ),
        clients=tuple(client_specs),
        miners=tuple(miner_specs),
    )


def inject_port_collisions(config: NetworkConfig, k: int, rng: random.Random) -> NetworkConfig:
    """Force exactly k PORT_CONFLICT violations between k disjoint node pairs."""
    nodes = list(config.all_nodes())
    assert 2 * k <= len(nodes), "not enough nodes for disjoint collision pairs"
    order = rng.sample(range(len(nodes)), 2 * k)
    updated = {node.name: node for node in nodes}
    for pair_index in range(k):
        a = nodes[order[2 * pair_index]]
        b = nodes[order[2 * pair_index + 1]]
        shared_host = f"clash{pair_index}"  # unique host per pair: no cross-pair conflicts
        shared_port = 40000 + pair_index
        updated[a.name] = NodeSpec(a.name, a.role, shared_host, shared_port, a.admin_port, a.wrapper_port)
        updated[b.name] = NodeSpec(b.name, b.role, shared_host, shared_port, b.admin_port, b.wrapper_port)
    clients = tuple(updated[c.name] for c in config.clients)
    miners = tuple(updated[m.name] for m in config.miners)
    return NetworkConfig(config.configuration_name, config.configuration_version, config.genesis, clients, miners)


def wait_until(condition, timeout: float = 10.0, interval: float = 0.02, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = condition()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out after {timeout}s waiting for {message}")


# -- no process outlives its test -------------------------------------------------


def processes_naming(path: Path) -> dict[int, str]:
    """Each live process whose command line names path, or a path inside it: pid -> command line. Reads only /proc."""
    mark = os.fsencode(path)
    found = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                cmdline = Path(f"/proc/{entry}/cmdline").read_bytes()  # empty for a zombie
            except OSError:
                continue
            if mark + b"/" in cmdline or mark + b"\0" in cmdline:
                found[int(entry)] = cmdline.replace(b"\0", b" ").decode(errors="replace").strip()
    return found


@pytest.fixture(autouse=True)
def no_process_left_running(request):
    """Fail a test if a process that names its tmp_path is still alive after the test's own cleanup, 2 s on."""
    tmp_path = request.getfixturevalue("tmp_path") if "tmp_path" in request.fixturenames else None
    yield
    if tmp_path is not None:
        deadline = time.monotonic() + 2.0
        while (left := processes_naming(tmp_path)) and time.monotonic() < deadline:
            time.sleep(0.02)
        if left:
            pytest.fail(f"processes left running: {left}")


# -- live-network helpers ----------------------------------------------------


BENCH_TEMPLATE = NetworkConfig(
    configuration_name="testnet",
    configuration_version="1",
    genesis=GenesisParams(chain_id=5871, difficulty=400, gas_limit=21000, balance=100000),
    clients=(),
    miners=(),
)


@pytest.fixture
def live_network(tmp_path, request):
    """Factory: create+start+connect a local network; guaranteed teardown."""
    managers: list[NetworkManager] = []

    def launch(prosumers: int = 1, block_interval: float = 0.15, connect: bool = True, template=BENCH_TEMPLATE):
        config = make_bench_config(template, prosumers, suffix=f"live{len(managers)}")
        manager = NetworkManager(
            config,
            tmp_path / "ws",
            node_defaults=NodeDefaults(block_interval=block_interval),
        )
        managers.append(manager)
        manager.network_create()
        manager.start("miners")
        manager.start("clients")
        if connect:
            manager.network_connect()
        return manager, config

    yield launch

    leaked = []
    for manager in managers:
        cleanup = NetworkManager(manager.config, manager.workspace, force=True, node_defaults=manager.node_defaults)
        nodes = manager.config.all_nodes()
        pids = cleanup._running_pids(nodes)
        try:
            cleanup.network_stop()
        except Exception:
            pass
        try:
            cleanup.network_delete()
        except Exception:
            pass
        after = cleanup._running_pids(nodes)
        for node in nodes:
            pid = pids[node.name]
            if pid is not None and after[node.name] == pid:
                leaked.append(f"{node.name} (pid {pid})")
                cleanup.launcher.stop(node.host, cleanup.node_dir(node.name))
    if leaked:
        pytest.fail(f"nodes still running after cleanup: {', '.join(leaked)}")


class CountingExecutor(LocalExecutor):
    """A local executor that records each (host, command) it runs."""

    def __init__(self):
        self.commands: list[tuple[str, str]] = []

    def run(self, host, command):
        self.commands.append((host, command))
        return super().run(host, command)


def process_running(pid: int) -> bool:
    """Whether any process that is not a zombie holds pid, whatever it runs."""
    state = subprocess.run(["ps", "-o", "state=", "-p", str(pid)], capture_output=True, text=True).stdout.strip()
    return bool(state) and not state.startswith("Z")


def parent_pid(pid: int) -> int:
    """The parent of pid, read from /proc/<pid>/stat."""
    return int(Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[1])


def launcher_pid(config_dir: Path, host: str) -> int | None:
    """The pid that host's launcher wrote into its pid file in config_dir, if the file is there and names one."""
    try:
        text = (config_dir / launcher_files(host)[0]).read_text()
    except FileNotFoundError:
        return None
    return int(text) if text.isdigit() else None


@pytest.fixture
def foreign_process():
    """A live process that is no node: what a stale node.pid may point at once its pid is reused."""
    proc = subprocess.Popen(["sleep", "60"])
    yield proc
    proc.kill()
    proc.wait(timeout=5)


# -- hosts on loopback, reached through an ssh shim ---------------------------------


SSH_SHIM = """#!/bin/sh
# ssh [-o option]... host command: logs the host and runs the command on this machine, stdin passed through.
while :; do
    case $1 in
        -o) shift 2 ;;
        -o*) shift ;;
        *) break ;;
    esac
done
host=$1
shift
echo "$host" >> {log}
unreachable=
[ -r {unreachable} ] && read -r unreachable < {unreachable}
if [ "$host" = "$unreachable" ]; then
    echo "ssh: connect to host $host port 22: Connection refused" >&2
    exit 255
fi
[ -e {bare} ] && exec env -i PATH={path} /bin/sh -c "$*"
exec /bin/sh -c "$*"
"""
BARE_PATH = "/usr/local/bin:/usr/bin:/bin"  # a host's own PATH: no chainyard on it, and no PYTHONPATH


class SshHosts:
    """The ``ssh`` that the ssh_hosts fixture puts first on PATH: every host is this machine, one may be down."""

    def __init__(self, directory: Path):
        self.log = directory / "hosts.log"
        self.down = directory / "unreachable"
        self.bare_mark = directory / "bare"
        shim = directory / "ssh"
        words = {"log": self.log, "unreachable": self.down, "bare": self.bare_mark, "path": BARE_PATH}
        shim.write_text(SSH_SHIM.format(**{key: shlex.quote(str(value)) for key, value in words.items()}))
        shim.chmod(0o755)

    def hosts(self) -> list[str]:
        """The host of every ssh call so far, in call order."""
        return self.log.read_text().split() if self.log.exists() else []

    def unreachable(self, host: str) -> None:
        """From now on, ssh to host exits 255, as ssh does when it cannot connect."""
        self.down.write_text(host + "\n")

    def bare(self) -> None:
        """From now on, every host runs each command as a host without chainyard would: under ``env -i PATH=...``."""
        self.bare_mark.touch()


@pytest.fixture
def ssh_hosts(tmp_path, monkeypatch) -> SshHosts:
    """An ssh shim first on PATH. Nodes on 127.0.0.1, .2 and .3 are then three hosts: Linux routes 127/8 to loopback."""
    directory = tmp_path / "ssh-shim"
    directory.mkdir()
    monkeypatch.setenv("PATH", f"{directory}{os.pathsep}{os.environ.get('PATH', '')}")
    return SshHosts(directory)
