"""Stateless network lifecycle driver.

Every command is a pure function of (network document, workspace
contents, command): there is no daemon and no database, so the manager
can be killed between any two phases and re-run. Effects on hosts go
exclusively through an Executor (run a command, write a file); node
control beyond that uses the nodes' admin protocol.

Each host question is asked one way: paths exist by one ``_exists`` probe,
and a node runs exactly while it holds its ``node.pid`` lock (one
``NodeLauncher.running_pids`` probe per host), never because some process
answers on its admin port. A phase works on all its hosts at once, and on
each host's nodes in config order. The create phases take at least one
host command per node; a stop takes one per host, which finds each lock's
holder itself. Each error names the node it is about, and a probe or stop
that fails on its host raises ExecutorFailure naming the host.

Phase names mirror the canonical benchmark vocabulary: ClientsCreate,
MinersCreate, BlockchainMake, BlockchainCreate, DistributeToClients,
DistributeToMiners, FullNetworkCreated, MinerStart, ClientsStart,
NetworkConnect, NetworkStop, NetworkDelete.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shlex
import shutil
import socket
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .chain import DEFAULT_MAX_BLOCK_TXS
from .dsl import NetworkConfig, NodeSpec, validate
from .executor import Executor, LocalExecutor
from .genesis import GENESIS_FILE, GenesisDocument, derive_account, write_genesis
from .launcher import LaunchFailed, NodeLauncher, NodeStop, ProbeFailed, code_image, code_image_name
from .node import DEFAULT_BLOCK_INTERVAL, IMAGE_NAME, NodeIdentity, NodePaths, meta_document
from .protocol import AdminClient, AdminError, AdminTimeout, AdminUnreachable

logger = logging.getLogger(__name__)


class Phase(str, Enum):
    CLIENTS_CREATE = "ClientsCreate"
    MINERS_CREATE = "MinersCreate"
    BLOCKCHAIN_MAKE = "BlockchainMake"
    BLOCKCHAIN_CREATE = "BlockchainCreate"
    DISTRIBUTE_TO_CLIENTS = "DistributeToClients"
    DISTRIBUTE_TO_MINERS = "DistributeToMiners"
    FULL_NETWORK_CREATED = "FullNetworkCreated"
    MINER_START = "MinerStart"
    CLIENTS_START = "ClientsStart"
    NETWORK_CONNECT = "NetworkConnect"
    NETWORK_STOP = "NetworkStop"
    NETWORK_DELETE = "NetworkDelete"


@dataclass(frozen=True)
class PhaseTiming:
    phase: str
    duration: float
    node_count: int


class ManagerError(RuntimeError):
    exit_code = 2


class ValidationFailed(ManagerError):
    exit_code = 1


class AlreadyExists(ManagerError):
    pass


class AlreadyRunning(ManagerError):
    pass


class NotCreated(ManagerError):
    pass


class NotRunning(ManagerError):
    pass


class MissingGenesis(ManagerError):
    pass


class ExecutorFailure(ManagerError):
    def __init__(self, host: str, message: str):
        super().__init__(f"host {host!r}: {message}")
        self.host = host


class DistributeHashMismatch(ManagerError):
    def __init__(self, node: str, message: str):
        super().__init__(f"node {node!r}: {message}")
        self.node = node


@dataclass
class NodeDefaults:
    """Runtime knobs stamped into node.json at create time (not part of the DSL)."""

    block_interval: float = DEFAULT_BLOCK_INTERVAL
    max_block_txs: int = DEFAULT_MAX_BLOCK_TXS


class NetworkManager:
    def __init__(
        self,
        config: NetworkConfig,
        workspace: str | Path,
        executor: Executor | None = None,
        force: bool = False,
        node_defaults: NodeDefaults | None = None,
    ):
        self.config = config
        self.workspace = Path(workspace).resolve()
        self.executor = executor or LocalExecutor()
        self.force = force
        self.node_defaults = node_defaults or NodeDefaults()
        self.launcher = NodeLauncher(self.executor)
        self._node_dirs: dict[str, Path] = {}

    # -- workspace layout (derivable purely from config + root) -----------

    def config_dir(self) -> Path:
        return self.workspace / self.config.configuration_name

    def node_dir(self, name: str) -> Path:
        """The node's directory, resolved once per name; it must lie in the configuration directory."""
        if name not in self._node_dirs:
            path = (self.config_dir() / name).resolve()
            if path.parent != self.config_dir():  # the workspace is resolved, so this also keeps path inside it
                raise ManagerError(f"node directory {path} escapes {self.config_dir()}")
            self._node_dirs[name] = path
        return self._node_dirs[name]

    def genesis_path(self) -> Path:
        return self.config_dir() / GENESIS_FILE

    def image_path(self) -> Path:
        """This code version's image, in the configuration directory of every host: the code each node runs."""
        return self.config_dir() / code_image_name()

    @property
    def node_count(self) -> int:
        return len(self.config.all_nodes())

    def node_identity(self, node: NodeSpec) -> NodeIdentity:
        """What the node's node.json holds: its DSL entry, its account and the runtime knobs."""
        return NodeIdentity(
            configuration_name=self.config.configuration_name,
            name=node.name,
            role=node.role,
            host=node.host,
            blockchain_port=node.blockchain_port,
            admin_port=node.admin_port,
            wrapper_port=node.wrapper_port,
            account=derive_account(self.config.configuration_name, node.name),
            block_interval_seconds=self.node_defaults.block_interval,
            max_block_txs=self.node_defaults.max_block_txs,
        )

    def ensure_valid(self) -> None:
        report = validate(self.config)
        if not report.ok:
            lines = "; ".join(f"{e.code}: {e.message}" for e in report.errors)
            raise ValidationFailed(f"configuration has validation errors: {lines}")

    # -- executor helpers ---------------------------------------------------

    def _run(self, host: str, command: str) -> str:
        result = self.executor.run(host, command)
        if result.status != 0:
            raise ExecutorFailure(host, f"command {command!r} exited {result.status}: {result.output.strip()}")
        return result.output

    def _exists(self, host: str, paths: Sequence[Path]) -> list[bool]:
        """Whether each of paths exists on host, in argument order: one host command, one output line per path.

        A probe that fails raises ExecutorFailure; it never reads as "nothing exists".
        """
        command = f'for p in {_quoted(paths)}; do test -e "$p" && echo =1 || echo =0; done'
        result = self.executor.run(host, command)
        answers = [line for line in result.output.splitlines() if line in ("=0", "=1")]
        if result.status != 0 or len(answers) != len(paths):
            raise ExecutorFailure(host, f"existence probe exited {result.status}: {result.output.strip()}")
        return [answer == "=1" for answer in answers]

    def _host_pids(self, host: str, group: Sequence[NodeSpec]) -> dict[str, int | None]:
        """Each node's pid while it holds its node.pid lock, else None: one lock probe of host.

        A probe that fails raises ExecutorFailure; it never reads as "not running".
        """
        try:
            found = self.launcher.running_pids(host, [self.node_dir(n.name) for n in group])
        except ProbeFailed as exc:
            raise ExecutorFailure(host, str(exc)) from None
        return {n.name: found[self.node_dir(n.name)] for n in group}

    def _stop(self, host: str, group: Sequence[NodeSpec]) -> dict[str, NodeStop]:
        """Stop group's nodes on host one after another, in config order: one host command.

        A stop that does not report every node raises ExecutorFailure.
        """
        try:
            stops = self.launcher.stop(host, [self.node_dir(n.name) for n in group])
        except ProbeFailed as exc:
            raise ExecutorFailure(host, str(exc)) from None
        return {n.name: stops[self.node_dir(n.name)] for n in group}

    def _running_pids(self, nodes: Sequence[NodeSpec]) -> dict[str, int | None]:
        pids: dict[str, int | None] = {}
        self._each_host(nodes, lambda host, group: pids.update(self._host_pids(host, group)))
        return pids

    def _put_json(self, host: str, payload: dict, path: Path) -> None:
        self.executor.put(host, (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode(), path)

    def _put_image(self, host: str) -> None:
        """Put the code image on host, where it takes its name only once its sha256 matches: a put and one command.

        The put goes to a name of the host's own, so hosts that share one
        filesystem never write the same file.
        """
        data, image = code_image(), self.image_path()
        source_digest = hashlib.sha256(data).hexdigest()
        part = image.with_name(f"{image.name}.{host}.part")
        self.executor.put(host, data, part)
        part_word = shlex.quote(str(part))
        check = f'd=$(sha256sum {part_word}) && echo "$d" && [ "${{d%% *}}" = {source_digest} ]'
        result = self.executor.run(host, f"{check} && mv {part_word} {shlex.quote(str(image))}")
        copied_digest = result.output.split()[0] if result.output.split() else ""
        if copied_digest != source_digest:
            raise ExecutorFailure(host, f"copied code image digest {copied_digest} != source {source_digest}")
        if result.status != 0:
            raise ExecutorFailure(host, f"code image check exited {result.status}: {result.output.strip()}")

    def _each_host(self, nodes: Iterable[NodeSpec], fn: Callable[[str, list[NodeSpec]], None]) -> None:
        """fn(host, its nodes in config order) for all hosts at once: the first on this thread, others on their own."""
        hosts: dict[str, list[NodeSpec]] = {}
        for node in nodes:
            hosts.setdefault(node.host, []).append(node)
        groups = list(hosts.items())
        with ThreadPoolExecutor(max_workers=max(1, len(groups) - 1)) as pool:  # a thread starts only on submit
            futures = [pool.submit(fn, *group) for group in groups[1:]]
            for group in groups[:1]:  # none when there are no nodes
                fn(*group)
            for future in futures:  # the first host's error, else the next in host order, once every host is done
                future.result()

    def _timed(self, phase: Phase, body: Callable[[], None]) -> PhaseTiming:
        started = time.perf_counter()
        body()
        timing = PhaseTiming(phase.value, time.perf_counter() - started, self.node_count)
        logger.info("%s: %.4fs (%d nodes)", timing.phase, timing.duration, timing.node_count)
        return timing

    def admin(self, node: NodeSpec, timeout: float = 3.0) -> AdminClient:
        return AdminClient(node.host, node.admin_port, timeout=timeout)

    # -- create phases ------------------------------------------------------

    def _create_host(self, host: str, group: list[NodeSpec]) -> None:
        for node in group:
            directory = self.node_dir(node.name)
            if self._exists(host, [directory])[0]:
                if not self.force:
                    raise AlreadyExists(f"node {node.name!r}: {directory} already exists (use force to recreate)")
                self._run(host, f"rm -rf {shlex.quote(str(directory))}")
            # The put makes the node directory: it makes a path's missing parents.
            self._put_json(host, self.node_identity(node).dump(), NodePaths(directory).node_json)

    def clients_create(self) -> PhaseTiming:
        self.ensure_valid()
        return self._timed(Phase.CLIENTS_CREATE, lambda: self._each_host(self.config.clients, self._create_host))

    def miners_create(self) -> PhaseTiming:
        self.ensure_valid()
        return self._timed(Phase.MINERS_CREATE, lambda: self._each_host(self.config.miners, self._create_host))

    def blockchain_make(self) -> PhaseTiming:
        """Produce the genesis document from the network document (idempotent)."""
        self.ensure_valid()

        def body() -> None:
            doc = GenesisDocument.from_config(self.config)  # ensure_valid has validated it
            self.config_dir().mkdir(parents=True, exist_ok=True)
            write_genesis(doc, self.genesis_path())
            logger.info("genesis written: hash=%s", doc.genesis_hash)

        return self._timed(Phase.BLOCKCHAIN_MAKE, body)

    def blockchain_create(self) -> PhaseTiming:
        """Initialize the miner-side canonical chain stores from the genesis document.

        A miner starts without a mempool journal, as a client does: the node writes it on its first run.
        """
        if not self.genesis_path().exists():
            raise MissingGenesis(f"{self.genesis_path()} missing: run blockchain-make first")
        genesis_hash = json.loads(self.genesis_path().read_text(encoding="utf-8"))["genesisHash"]

        def init_host(host: str, group: list[NodeSpec]) -> None:
            for node in group:
                directory = self.node_dir(node.name)
                paths = NodePaths(directory)
                created, initialized = self._exists(host, [directory, paths.blocks])
                if not created:
                    raise NotCreated(f"miner {node.name!r}: {directory} missing (run miners-create first)")
                if initialized:
                    if not self.force:
                        raise AlreadyExists(f"miner {node.name!r}: chain store already initialized")
                    self._run(host, f"rm -f {shlex.quote(str(paths.mempool))}")
                self.executor.put(host, b"", paths.blocks)  # an empty chain store, in place of any earlier one
                self._put_json(host, meta_document(genesis_hash), paths.meta)

        return self._timed(Phase.BLOCKCHAIN_CREATE, lambda: self._each_host(self.config.miners, init_host))

    def distribute(self, targets: str) -> PhaseTiming:
        """Copy the genesis file to every target node, and the code image to each host without it, digest-verified.

        One probe per host over its node directories and its image, then one
        copy and one sha256sum per node, and per image that the host lacks.
        """
        nodes, phase = self._select_targets(targets, Phase.DISTRIBUTE_TO_CLIENTS, Phase.DISTRIBUTE_TO_MINERS)
        if not self.genesis_path().exists():
            raise MissingGenesis(f"{self.genesis_path()} missing: run blockchain-make first")
        genesis = self.genesis_path().read_bytes()
        source_digest = hashlib.sha256(genesis).hexdigest()

        missing: set[str] = set()
        imaged: set[str] = set()  # the hosts that hold the image already

        def check_host(host: str, group: list[NodeSpec]) -> None:
            *present, has_image = self._exists(host, [*(self.node_dir(n.name) for n in group), self.image_path()])
            missing.update(n.name for n, found in zip(group, present) if not found)
            if has_image:
                imaged.add(host)

        def copy_host(host: str, group: list[NodeSpec]) -> None:
            if host not in imaged:
                self._put_image(host)
            for node in group:
                destination = NodePaths(self.node_dir(node.name)).genesis
                self.executor.put(host, genesis, destination)
                output = self._run(host, f"sha256sum {shlex.quote(str(destination))}")
                copied_digest = output.split()[0] if output.split() else ""
                if copied_digest != source_digest:
                    raise DistributeHashMismatch(
                        node.name, f"copied genesis digest {copied_digest} != source {source_digest}"
                    )

        def body() -> None:
            self._each_host(nodes, check_host)  # every directory is probed before any copy
            first_missing = next((n for n in nodes if n.name in missing), None)
            if first_missing is not None:
                directory = self.node_dir(first_missing.name)
                raise NotCreated(f"node {first_missing.name!r}: {directory} missing (create it first)")
            self._each_host(nodes, copy_host)

        return self._timed(phase, body)

    def network_create(self) -> list[PhaseTiming]:
        """Run the six creation phases in order; the total is FullNetworkCreated."""
        timings: list[PhaseTiming] = []
        started = time.perf_counter()
        timings.append(self.clients_create())
        timings.append(self.miners_create())
        timings.append(self.blockchain_make())
        timings.append(self.blockchain_create())
        timings.append(self.distribute("clients"))
        timings.append(self.distribute("miners"))
        total = PhaseTiming(Phase.FULL_NETWORK_CREATED.value, time.perf_counter() - started, self.node_count)
        logger.info("%s: %.4fs (%d nodes)", total.phase, total.duration, total.node_count)
        timings.append(total)
        return timings

    # -- start / connect / stop / delete -----------------------------------

    def _select_targets(self, targets: str, client_phase: Phase, miner_phase: Phase) -> tuple[Sequence[NodeSpec], Phase]:
        if targets == "clients":
            return self.config.clients, client_phase
        if targets == "miners":
            return self.config.miners, miner_phase
        raise ValueError(f"targets must be 'clients' or 'miners', got {targets!r}")

    def start(self, targets: str) -> PhaseTiming:
        """Start the target nodes: one launch per host, which returns once each of its nodes serves admin.

        Every host is probed before any node is stopped or launched, so a
        probe that fails on one host starts nothing on the others.
        """
        nodes, phase = self._select_targets(targets, Phase.CLIENTS_START, Phase.MINER_START)
        pids: dict[str, int | None] = {}

        def probe_host(host: str, group: list[NodeSpec]) -> None:
            names = {self.node_dir(n.name): n.name for n in group}
            *present, has_image = self._exists(host, [*(NodePaths(d).genesis for d in names), self.image_path()])
            missing = [d for d, found in zip(names, present) if not found]
            if missing:
                raise NotCreated(f"node {names[missing[0]]!r}: not created/distributed (no genesis in {missing[0]})")
            if not has_image:
                raise NotCreated(
                    f"host {host!r}: no code image {self.image_path()} (run distribute-miners and distribute-clients)"
                )
            pids.update(self._host_pids(host, group))

        def launch_host(host: str, group: list[NodeSpec]) -> None:
            names = {self.node_dir(n.name): n.name for n in group}
            running = [n for n in group if pids[n.name] is not None]  # running nodes get here only with force
            if running:
                self._stop(host, running)
            try:
                self.launcher.start(host, list(names))
            except LaunchFailed as exc:
                detail = "; ".join(f"node {names[d]!r} {why}" for d, why in exc.failed.items()) or str(exc)
                raise ExecutorFailure(host, detail) from exc

        def body() -> None:
            self._each_host(nodes, probe_host)
            running = [n for n in nodes if pids[n.name] is not None]
            if running and not self.force:
                raise AlreadyRunning(f"node {running[0].name!r} is already running")
            self._each_host(nodes, launch_host)

        return self._timed(phase, body)

    def network_connect(self) -> PhaseTiming:
        """Form the star: every client peers with every miner, once a lock probe per host finds each node running."""
        pids = self._running_pids(self.config.all_nodes())
        down = [name for name, pid in pids.items() if pid is None]
        if down:
            raise NotRunning(f"cannot connect: nodes not running: {', '.join(sorted(down))}")

        def connect_host(host: str, clients: list[NodeSpec]) -> None:
            for client_spec in clients:
                admin = self.admin(client_spec, timeout=5.0)
                for miner in self.config.miners:
                    try:
                        admin.add_peer(miner.host, miner.blockchain_port)
                    except (AdminError, AdminTimeout, AdminUnreachable) as exc:
                        raise ExecutorFailure(host, f"connect {client_spec.name} -> {miner.name}: {exc}")

        return self._timed(Phase.NETWORK_CONNECT, lambda: self._each_host(self.config.clients, connect_host))

    def network_stop(self) -> PhaseTiming:
        """Stop every node: one host command per host, which stops its nodes one after another, in config order.

        Logs ``stop <node>: <seconds>`` for each node that was running, in
        config order: the time from the previous node's end, or for a host's
        first node from its command's start, to this node's end. Raises
        NotRunning when no node of the network was running.
        """
        stopped: list[str] = []

        def stop_host(host: str, group: list[NodeSpec]) -> None:
            for name, stop in self._stop(host, group).items():
                if stop.running:
                    # The stop anomaly reported at larger network sizes makes per-node
                    # latencies worth keeping around for later investigation.
                    note = " (escalated to kill)" if stop.escalated else ""
                    logger.info("stop %s: %.3fs%s", name, stop.seconds, note)
                    stopped.append(name)

        def body() -> None:
            self._each_host(self.config.all_nodes(), stop_host)
            if not stopped:
                raise NotRunning("no nodes of this network are running")

        return self._timed(Phase.NETWORK_STOP, body)

    def network_delete(self) -> PhaseTiming:
        """Remove every node directory, code image and the configuration directory: one probe and one rm per host.

        The rm syncs the host's filesystem before it returns. Else the removals
        of several quick create..delete cycles pile up in one ext4 journal
        commit, and a file created by the next create waits behind it.
        """
        if not self.config_dir().exists():
            raise NotCreated(f"{self.config_dir()} does not exist")
        pids = self._running_pids(self.config.all_nodes())
        alive = [n.name for n in self.config.all_nodes() if pids[n.name] is not None]
        if alive and not self.force:
            raise ManagerError(f"refusing to delete while nodes run: {', '.join(sorted(alive))} (stop first)")

        def delete_host(host: str, group: list[NodeSpec]) -> None:
            running = [n for n in group if pids[n.name] is not None]  # running nodes get here only with force
            if running:
                self._stop(host, running)
            dirs = _quoted(self.node_dir(n.name) for n in group)
            images = shlex.quote(str(self.config_dir())) + "/" + IMAGE_NAME.format("*") + "*"  # of any code version
            self._run(host, f"rm -rf {dirs} {images} && sync -f {shlex.quote(str(self.workspace))}")

        def body() -> None:
            self._each_host(self.config.all_nodes(), delete_host)
            shutil.rmtree(self.config_dir())

        return self._timed(Phase.NETWORK_DELETE, body)

    def network_status(self) -> dict[str, dict | None]:
        out: dict[str, dict | None] = {}
        for node in self.config.all_nodes():
            try:
                out[node.name] = self.admin(node, timeout=1.0).status()
            except (AdminError, AdminTimeout, AdminUnreachable):
                out[node.name] = None
        return out


def _quoted(paths: Iterable[Path]) -> str:
    """paths as shell words."""
    return " ".join(shlex.quote(str(p)) for p in paths)


# -- benchmarking ------------------------------------------------------------


@dataclass
class BenchRow:
    phase: str
    node_count: int
    prosumers: int
    rep: int
    duration: float


def raw_csv(rows: Iterable[tuple[str, int, int, float]]) -> str:
    """The raw timings CSV of ``--csv``: one (phase, node_count, rep, duration) row per phase per repetition."""
    lines = ["phase,node_count,rep,duration_seconds"]
    lines += [f"{phase},{node_count},{rep},{duration:.6f}" for phase, node_count, rep, duration in rows]
    return "\n".join(lines) + "\n"


@dataclass
class BenchResult:
    prosumer_counts: list[int]
    repetitions: int
    rows: list[BenchRow] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def durations(self, phase: str, prosumers: int) -> list[float]:
        return [r.duration for r in self.rows if r.phase == phase and r.prosumers == prosumers]

    def phases(self) -> list[str]:
        seen: list[str] = []
        for row in self.rows:
            if row.phase not in seen:
                seen.append(row.phase)
        return seen

    def summary(self) -> dict[str, dict[int, tuple[float, float]]]:
        """phase -> prosumer count -> (mean, stddev) over repetitions."""
        out: dict[str, dict[int, tuple[float, float]]] = {}
        for phase in self.phases():
            out[phase] = {}
            for count in self.prosumer_counts:
                values = self.durations(phase, count)
                if not values:
                    continue
                mean = statistics.fmean(values)
                std = statistics.stdev(values) if len(values) > 1 else 0.0
                out[phase][count] = (mean, std)
        return out

    def medians(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {}
        for phase in self.phases():
            out[phase] = {
                count: statistics.median(values)
                for count in self.prosumer_counts
                if (values := self.durations(phase, count))
            }
        return out

    def to_raw_csv(self) -> str:
        return raw_csv((row.phase, row.node_count, row.rep, row.duration) for row in self.rows)

    def to_summary_csv(self) -> str:
        """Benchmark-table layout: one row per phase, avg/stddev per prosumer count."""
        header = ["phase"]
        for count in self.prosumer_counts:
            header += [f"avg_{count}p", f"stddev_{count}p"]
        lines = [",".join(header)]
        summary = self.summary()
        for phase in self.phases():
            cells = [phase]
            for count in self.prosumer_counts:
                mean, std = summary.get(phase, {}).get(count, (float("nan"), float("nan")))
                cells += [f"{mean:.6f}", f"{std:.6f}"]
            lines.append(",".join(cells))
        if self.failures:
            lines.append("# failures: " + "; ".join(self.failures))
        return "\n".join(lines) + "\n"


def allocate_ports(count: int) -> list[int]:
    """Reserve distinct free TCP ports by binding and releasing them."""
    sockets = []
    ports = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
            ports.append(sock.getsockname()[1])
    finally:
        for sock in sockets:
            sock.close()
    return ports


def make_bench_config(template: NetworkConfig, prosumers: int, suffix: str | None = None) -> NetworkConfig:
    """Instantiate a config with the requested prosumer count + 1 dso + 1 miner.

    Genesis parameters come from the template; hosts are localhost and
    ports are freshly allocated so repeated runs never collide.
    """
    name = f"{template.configuration_name}-{suffix or f'p{prosumers}'}"
    ports = iter(allocate_ports(prosumers * 3 + 3 + 2))
    clients = [
        NodeSpec(
            name=f"prosumer{i + 1}",
            role="prosumer",
            host="127.0.0.1",
            blockchain_port=next(ports),
            admin_port=next(ports),
            wrapper_port=next(ports),
        )
        for i in range(prosumers)
    ]
    clients.append(
        NodeSpec(
            name="dso1",
            role="dso",
            host="127.0.0.1",
            blockchain_port=next(ports),
            admin_port=next(ports),
            wrapper_port=next(ports),
        )
    )
    miners = [
        NodeSpec(
            name="miner1",
            role="miner",
            host="127.0.0.1",
            blockchain_port=next(ports),
            admin_port=next(ports),
        )
    ]
    return NetworkConfig(
        configuration_name=name,
        configuration_version=template.configuration_version,
        genesis=template.genesis,
        clients=tuple(clients),
        miners=tuple(miners),
    )


def bench(
    template: NetworkConfig,
    prosumer_counts: Iterable[int],
    repetitions: int,
    workspace: str | Path,
    executor: Executor | None = None,
    node_defaults: NodeDefaults | None = None,
    warmup: bool = True,
) -> BenchResult:
    """Run the full lifecycle repeatedly per prosumer count and collect timings.

    Each repetition runs every count once, so a slow stretch of the host
    lands on all counts alike instead of on all repetitions of one count.
    A warmup repetition (not recorded) precedes the measured ones so cold
    interpreter/bytecode caches do not skew the first sample.
    """
    counts = list(prosumer_counts)
    result = BenchResult(prosumer_counts=counts, repetitions=repetitions)
    managers = [
        (count, NetworkManager(make_bench_config(template, count), workspace, executor=executor,
                               node_defaults=node_defaults, force=False))
        for count in counts
    ]
    for rep in ([-1] if warmup else []) + list(range(repetitions)):
        for count, manager in managers:
            try:
                timings = list(manager.network_create())
                timings.append(manager.start("miners"))
                timings.append(manager.start("clients"))
                timings.append(manager.network_connect())
                timings.append(manager.network_stop())
                timings.append(manager.network_delete())
                if rep >= 0:
                    result.rows.extend(
                        BenchRow(t.phase, t.node_count, count, rep, t.duration) for t in timings
                    )
            except ManagerError as exc:
                result.failures.append(f"count={count} rep={rep}: {exc}")
                logger.error("bench repetition failed (count=%d rep=%d): %s", count, rep, exc)
                _cleanup_best_effort(manager)
    return result


def _cleanup_best_effort(manager: NetworkManager) -> None:
    cleanup = NetworkManager(
        manager.config,
        manager.workspace,
        executor=manager.executor,
        force=True,
        node_defaults=manager.node_defaults,
    )
    for step in (cleanup.network_stop, cleanup.network_delete):
        try:
            step()
        except (ManagerError, OSError):  # the configuration directory is removed in-process
            pass
