"""Shared pieces of the chainyard benchmark.

Tracing, an executor that counts what the manager asks of it, one local
network driven through ``NetworkManager``, the correctness gates, and
small statistics helpers. Everything here talks to the system through
its public API; nothing reaches into ``src/``.
"""

from __future__ import annotations

import itertools
import json
import logging
import math
import os
import shutil
import signal
import statistics
import threading
import time
from contextlib import nullcontext
from pathlib import Path

from chainyard.chain import audit_chain
from chainyard.dsl import GenesisParams, NetworkConfig
from chainyard.executor import ExecResult, LocalExecutor
from chainyard.genesis import derive_account, read_genesis
from chainyard.manager import ManagerError, NetworkManager, NodeDefaults, make_bench_config
from chainyard.node import load_blocks
from chainyard.protocol import AdminClient, framed_request

TEMPLATE = NetworkConfig(
    configuration_name="bench",
    configuration_version="1",
    genesis=GenesisParams(chain_id=5871, difficulty=400, gas_limit=21000, balance=100000),
    clients=(),
    miners=(),
)


# -- statistics ----------------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


# -- tracing ---------------------------------------------------------------------


class _Span:
    __slots__ = ("tracer", "name", "op", "span_id", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, op):
        self.tracer = tracer
        self.name = name
        self.op = op

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1].span_id if stack else None
        if self.op is None and stack:
            self.op = stack[-1].op
        self.span_id = next(self.tracer._ids)
        stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append((self.span_id, self.parent, self.op, self.name, self.start, end))


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    A span is (id, parent id, operation id, name, start, end); spans of
    one operation share the operation id, inherited from the enclosing
    span when not given. Disabled, ``span`` returns a shared no-op
    context so untraced runs pay one method call per boundary.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, op=None):
        if not self.enabled:
            return nullcontext()
        return _Span(self, name, op)

    def durations(self, name: str) -> list[float]:
        return [end - start for (_, _, _, n, start, end) in self.spans if n == name]

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "op", "name", "start", "end")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]), encoding="utf-8")


def span_cost_us(samples: int = 20000) -> float:
    """Cost of recording one nested span, measured on a throwaway tracer."""
    probe = Tracer(True)
    started = time.perf_counter()
    with probe.span("outer", op=0):
        for _ in range(samples):
            with probe.span("inner"):
                pass
    return (time.perf_counter() - started) / samples * 1e6


# -- layer clients ------------------------------------------------------------------


class CountingExecutor(LocalExecutor):
    """Local executor that counts commands and time spent running them."""

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.log: list[tuple[float, float, str]] = []  # (perf_counter start, wall-clock start, command)

    def run(self, host: str, command: str) -> ExecResult:
        started, wall = time.perf_counter(), time.time()
        try:
            return super().run(host, command)
        finally:
            self.calls += 1
            self.busy += time.perf_counter() - started
            self.log.append((started, wall, command))


class TracedAdmin(AdminClient):
    """Admin client whose every request is a ``protocol.<op>`` span."""

    def __init__(self, host: str, port: int, tracer: Tracer, timeout: float = 3.0):
        super().__init__(host, port, timeout=timeout)
        self.tracer = tracer

    def request(self, op, params=None, timeout=None):
        with self.tracer.span("protocol." + op):
            return super().request(op, params, timeout)


def fetch_blocks(host: str, port: int, from_height: int) -> list[dict]:
    """Blocks from ``from_height`` up, over the node's peer protocol."""
    return framed_request(host, port, {"kind": "get_blocks", "fromHeight": from_height}, timeout=5.0)["blocks"]


def pid_alive(pid: int) -> bool:
    """True while the process exists and is not a zombie (read-only /proc probe)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB; 0.0 if it is gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# -- correctness gates -----------------------------------------------------------------


class Gates:
    """Named pass/fail checks; every failure is kept and counted."""

    def __init__(self):
        self.checked = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.checked += 1
        if not ok:
            self.failures.append(what)
        return ok


class _StopTimes(logging.Handler):
    """Collects the per-node stop latency the manager logs as ``stop <node>: <seconds>``."""

    def __init__(self):
        super().__init__()
        self.seconds: list[float] = []

    def emit(self, record: logging.LogRecord) -> None:
        if record.msg.startswith("stop %s") and record.args:
            self.seconds.append(float(record.args[1]))


# -- one local network ---------------------------------------------------------------------


class Net:
    """A single-miner star of local nodes, set up and torn down through ``NetworkManager``."""

    def __init__(self, work: Path, tag: str, prosumers: int, block_interval: float, tracer: Tracer):
        self.config = make_bench_config(TEMPLATE, prosumers, suffix=tag)
        self.executor = CountingExecutor()
        self.manager = NetworkManager(
            self.config, work / "ws", executor=self.executor, node_defaults=NodeDefaults(block_interval=block_interval)
        )
        self.block_interval = block_interval
        self.tracer = tracer
        self.phases: dict[str, float] = {}
        self.pids: dict[str, int] = {}
        self.known_pids: set[int] = set()
        self.stop_times: list[list[float]] = []  # per stop: seconds per node
        self.miner = self.config.miners[0]
        self.clients = list(self.config.clients)
        self.accounts = [derive_account(self.config.configuration_name, n.name) for n in self.config.all_nodes()]

    def admin(self, node, timeout: float = 3.0) -> TracedAdmin:
        return TracedAdmin(node.host, node.admin_port, self.tracer, timeout=timeout)

    def _phase(self, name: str, call):
        with self.tracer.span("manager." + name):
            result = call()
        for timing in result if isinstance(result, list) else [result]:
            self.phases[timing.phase] = timing.duration
        return result

    def setup(self) -> float:
        """create + start-miners + start-clients + connect; returns the wall time."""
        self.phases = {}
        self.executor.calls, self.executor.busy, self.executor.log = 0, 0.0, []
        started = time.perf_counter()
        self._phase("network_create", self.manager.network_create)
        self._phase("start_miners", lambda: self.manager.start("miners"))
        self._phase("start_clients", lambda: self.manager.start("clients"))
        self._phase("network_connect", self.manager.network_connect)
        elapsed = time.perf_counter() - started
        self.refresh_pids()
        return elapsed

    def refresh_pids(self) -> None:
        for node in self.config.all_nodes():
            try:
                pid = int((self.manager.node_dir(node.name) / "node.pid").read_text().strip())
            except (OSError, ValueError):
                continue
            self.pids[node.name] = pid
            self.known_pids.add(pid)

    def peak_rss_mb(self) -> float:
        self.refresh_pids()
        return max((vm_hwm_mb(pid) for pid in self.pids.values()), default=0.0)

    def settle(self, timeout: float = 15.0) -> bool:
        """Pause mining and wait until every client holds the miner's height."""
        miner = self.admin(self.miner)
        miner.set_mining(False)
        time.sleep(self.block_interval + 0.05)  # a block already being mined still lands
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            target = miner.block_number()
            heights = [self.admin(c).block_number() for c in self.clients]
            if all(h == target for h in heights) and miner.block_number() == target:
                return True
            time.sleep(0.05)
        return False

    def stop(self) -> float:
        """network_stop; also keeps the manager's own per-node stop times (``stop_times``)."""
        logger = logging.getLogger("chainyard.manager")
        recorder, level = _StopTimes(), logger.level
        logger.addHandler(recorder)
        logger.setLevel(logging.INFO)
        try:
            with self.tracer.span("manager.network_stop"):
                timing = self.manager.network_stop()
        finally:
            logger.removeHandler(recorder)
            logger.setLevel(level)
        self.stop_times.append(recorder.seconds)
        self.phases[timing.phase] = timing.duration
        return timing.duration

    def delete(self) -> float:
        with self.tracer.span("manager.network_delete"):
            timing = self.manager.network_delete()
        self.phases[timing.phase] = timing.duration
        return timing.duration

    def persisted_chains(self) -> dict[str, list]:
        return {node.name: load_blocks(self.manager.node_dir(node.name)) for node in self.config.all_nodes()}

    def audit(self, gates: Gates, chains: dict[str, list], tx_ids) -> None:
        """Gates on the stopped network's persisted chains."""
        doc = read_genesis(self.manager.node_dir(self.miner.name) / "genesis.json")
        for name, blocks in chains.items():
            problems = audit_chain(blocks, doc)
            gates.check(not problems, f"{name}: audit_chain: {problems[:3]}")
        miner_tip = chains[self.miner.name][-1].block_hash
        for client in self.clients:
            gates.check(
                chains[client.name][-1].block_hash == miner_tip,
                f"{client.name}: tip {chains[client.name][-1].height} differs from the miner's",
            )
        counts: dict[str, int] = {}
        for block in chains[self.miner.name]:
            for tx in block.transactions:
                counts[tx.tx_id] = counts.get(tx.tx_id, 0) + 1
        wanted = list(tx_ids)
        missing = sum(1 for tx_id in wanted if counts.get(tx_id, 0) == 0)
        twice = sum(1 for tx_id in wanted if counts.get(tx_id, 0) > 1)
        gates.check(missing == 0 and twice == 0, f"{missing} submitted txs never mined, {twice} mined twice")

    def copy_node_dir(self, name: str, target: Path) -> Path:
        shutil.rmtree(target, ignore_errors=True)
        shutil.copytree(self.manager.node_dir(name), target)
        return target

    def check_no_pids(self, gates: Gates) -> None:
        alive = sorted(pid for pid in self.known_pids if pid_alive(pid))
        gates.check(not alive, f"node pids still alive after teardown: {alive}")
        self.known_pids, self.pids = set(alive), {}

    def force_cleanup(self) -> None:
        """Best-effort stop + delete after a failure, so no node outlives the run."""
        cleanup = NetworkManager(
            self.config, self.manager.workspace, force=True, node_defaults=self.manager.node_defaults
        )
        for step in (cleanup.network_stop, cleanup.network_delete):
            try:
                step()
            except (ManagerError, OSError):
                pass
        for pid in self.known_pids:
            try:
                if pid_alive(pid) and b"chainyard.node" in Path(f"/proc/{pid}/cmdline").read_bytes():
                    os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.known_pids, self.pids = set(), {}
