"""Simulated blockchain node: ledger, mempool, mining, peers, admin wire.

A node runs from a data directory prepared by the manager:

    node.json      identity and runtime knobs
    genesis.json   canonical genesis document (hash-verified on load)
    meta.json      genesis hash stamped at first init (mismatch detection)
    blocks.log     append-only log of one block per line: its key-sorted, compact, ASCII-escaped JSON
    mempool.json   pending transaction journal, rewritten whenever a tx is admitted or mined
    peers.json     known peer endpoints, re-joined on restart
    node.pid       pid of the running process, which holds an exclusive flock on it

Runnable standalone: ``python -m chainyard.node --data-dir DIR``. With
``--detach`` and one ``--data-dir`` per node, the host's launcher forks a
background node per directory, and the command returns once each serves
admin. The first such command on a host becomes that launcher, which
exits by itself once no node it forked is alive. The manager runs it
from the network's code image, ``chainyard-<D>.zip``, so every node runs
the code its network was created with.

Fault modes replicate failure behaviors seen in real deployments:
``stall_mempool`` keeps mining blocks but never includes (or forwards)
pending transactions; ``unresponsive`` makes every admin request hang
until the client gives up.
"""

from __future__ import annotations

import fcntl
import itertools
import json
import logging
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from queue import PriorityQueue
from typing import Any, Callable, TextIO, TypeVar

from . import chain as chainmod
from .canonical import document, from_document
from .chain import Block, Chain, Transaction
from .genesis import GENESIS_FILE, GenesisDocument, read_genesis
from .protocol import Server, framed_request, reply_framed

logger = logging.getLogger(__name__)

T = TypeVar("T")

FAULT_MODES = ("none", "stall_mempool", "unresponsive")
UNRESPONSIVE_HANG_SECONDS = 600.0
SYNC_BATCH = 500
HELLO_TIMEOUT = 3.0  # seconds a peer gets to answer a hello; a restarted node serves admin after this at most
ADMIN_LINE_MAX = 64 * 1024  # bytes in an admin request line; the largest the program sends, a submit_tx, is < 1 KiB

DEFAULT_BLOCK_INTERVAL = 0.25
LOCK_WAIT = 0.5  # seconds a starting node or launch retries a held lock: a probe holds it far less
IMAGE_NAME = "chainyard-{}.zip"  # a code image, with its digest D in place of {}
THREAD_DIED = 6  # the exit status of a node that a failed block append or a thread's uncaught exception ended


def _image_digest() -> str | None:
    """D of the code image this module was imported from, or None when it runs from a source tree."""
    prefix, suffix = IMAGE_NAME.split("{}")
    image = Path(__file__).parent.parent.name  # chainyard-<D>.zip/chainyard/node.py inside an image
    return image[len(prefix):-len(suffix)] if image.startswith(prefix) and image.endswith(suffix) else None


CODE_DIGEST = _image_digest()


class PortInUse(OSError):
    pass


class NodeRunning(OSError):
    """Another live process holds the data directory's node.pid lock."""


class GenesisMismatch(RuntimeError):
    """Data directory was initialized from a different genesis document."""


@dataclass(frozen=True)
class NodePaths:
    root: Path

    @property
    def node_json(self) -> Path:
        return self.root / "node.json"

    @property
    def genesis(self) -> Path:
        return self.root / GENESIS_FILE

    @property
    def meta(self) -> Path:
        return self.root / "meta.json"

    @property
    def blocks(self) -> Path:
        return self.root / "blocks.log"

    @property
    def mempool(self) -> Path:
        return self.root / "mempool.json"

    @property
    def peers(self) -> Path:
        return self.root / "peers.json"

    @property
    def pid(self) -> Path:
        return self.root / "node.pid"

    @property
    def log(self) -> Path:
        return self.root / "node.log"

    @property
    def wrapper_journal(self) -> Path:
        return self.root / "wrapper-journal.log"


@dataclass(frozen=True, kw_only=True)
class NodeIdentity:
    """The content of ``node.json``; a file without a key that has a default here reads as that default."""

    configuration_name: str
    name: str
    role: str
    host: str
    blockchain_port: int
    admin_port: int
    wrapper_port: int | None = None
    account: str
    block_interval_seconds: float = DEFAULT_BLOCK_INTERVAL
    max_block_txs: int = chainmod.DEFAULT_MAX_BLOCK_TXS

    @staticmethod
    def load(path: Path) -> "NodeIdentity":
        return from_document(NodeIdentity, json.loads(path.read_text(encoding="utf-8")))

    def dump(self) -> dict:
        return document(self)


def meta_document(genesis_hash: str) -> dict:
    """The content of ``meta.json``: the genesis hash a data directory was initialized with."""
    return {"genesisHash": genesis_hash}


def _write_json_atomic(path: Path, payload) -> None:
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    tmp.replace(path)


def append_record(handle: TextIO, record: dict) -> None:
    """Write one record to an append-only log, as a line that ``read_append_log`` reads, and flush it."""
    handle.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    handle.flush()


def read_append_log(path: Path, parse: Callable[[Any], T], repair: bool = False) -> list[T]:
    """The records of an append-only log of one JSON document per line, each passed through ``parse``.

    A final line that does not parse is an append cut short (``kill -9``, a
    full disk): it is left out. With ``repair`` the file is then cut back to
    end before it, or a whole final line that lacks its newline gets one, so
    that the next append starts a line of its own. A bad line anywhere else
    raises ValueError naming the file and line.
    """
    with path.open("rb") as handle:
        lines = handle.readlines()
    records: list[T] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(parse(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            if lineno < len(lines):
                raise ValueError(f"{path}:{lineno}: unreadable line: {exc}") from exc
            if repair:
                os.truncate(path, sum(map(len, lines[:-1])))
                logger.warning("truncated a torn final line (%d bytes) from %s", len(line), path)
            return records
    if repair and lines and not lines[-1].endswith(b"\n"):
        with path.open("ab") as handle:
            handle.write(b"\n")
        logger.warning("wrote the missing final newline of %s", path)
    return records


def _read_block_log(path: Path, repair: bool = False) -> list[Block]:
    """The blocks in a ``blocks.log`` by ``read_append_log``'s rule; a bad line before the last is a GenesisMismatch."""
    try:
        return read_append_log(path, Block.from_dict, repair)
    except ValueError as exc:
        raise GenesisMismatch(str(exc)) from exc


def load_blocks(data_dir: str | Path) -> list[Block]:
    """Read the persisted chain (genesis block + block log) from a data directory."""
    paths = NodePaths(Path(data_dir))
    doc = read_genesis(paths.genesis)
    blocks = [chainmod.genesis_block(doc)]
    if paths.blocks.exists():
        blocks += _read_block_log(paths.blocks)
    return blocks


class NodeRuntime:
    """One node: chain state plus admin/peer servers and the mining loop."""

    def __init__(self, data_dir: str | Path):
        self.paths = NodePaths(Path(data_dir))
        if not self.paths.node_json.exists():
            raise FileNotFoundError(f"{self.paths.node_json}: node identity missing (was the node created?)")
        self.identity = NodeIdentity.load(self.paths.node_json)
        self.genesis_doc: GenesisDocument = read_genesis(self.paths.genesis)
        self._check_meta()

        self._lock = threading.RLock()
        self.chain = Chain(self.genesis_doc)
        self.peers: set[tuple[str, int]] = set()
        self.fault = "none"
        self.mining_enabled = self.identity.role == "miner"
        self.stop_event = threading.Event()
        self.failed = False

        self._blocks_handle = None
        # (rank, sequence, exclude, message, to): rank 0 ends gossip, then blocks, then txs; each rank in order
        self._outbox: PriorityQueue[tuple] = PriorityQueue()
        self._outbox_sequence = itertools.count()
        self._admin_server: Server | None = None
        self._peer_server: Server | None = None

        self._replay()
        self._load_mempool()
        self._load_peers()

    # -- persistence ------------------------------------------------------

    def _check_meta(self) -> None:
        if self.paths.meta.exists():
            meta = json.loads(self.paths.meta.read_text(encoding="utf-8"))
            stored = meta.get("genesisHash")
            if stored != self.genesis_doc.genesis_hash:
                raise GenesisMismatch(
                    f"data directory was initialized with genesis {stored}, "
                    f"got {self.genesis_doc.genesis_hash}"
                )
        else:
            _write_json_atomic(self.paths.meta, meta_document(self.genesis_doc.genesis_hash))

    def _replay(self) -> None:
        if not self.paths.blocks.exists():
            self.paths.blocks.touch()
            return
        for block in _read_block_log(self.paths.blocks, repair=True):
            status, detail = self.chain.receive_block(block)
            if status != "accepted":
                raise GenesisMismatch(
                    f"{self.paths.blocks}: persisted block {block.height} rejected ({status}: {detail})"
                )
        logger.info("%s: replayed chain to height %d", self.identity.name, self.chain.height)

    def _load_mempool(self) -> None:
        if not self.paths.mempool.exists():
            return
        data = json.loads(self.paths.mempool.read_text(encoding="utf-8") or "{}")
        for tx_dict in data.get("transactions", []):
            try:
                self.chain.submit_transaction(from_document(Transaction, tx_dict))
            except (chainmod.TxError, KeyError, TypeError):
                pass  # journal entries already mined or invalidated are dropped

    def _load_peers(self) -> None:
        if self.paths.peers.exists():
            data = json.loads(self.paths.peers.read_text(encoding="utf-8") or "[]")
            self.peers = {(host, port) for host, port in data}

    def _persist_block(self, block: Block) -> None:
        if self._blocks_handle is None:
            self._blocks_handle = self.paths.blocks.open("a", encoding="utf-8")
        append_record(self._blocks_handle, block.to_dict())

    def _persist_mempool(self) -> None:
        _write_json_atomic(self.paths.mempool, {"transactions": [tx.to_dict() for tx in self.chain.mempool.values()]})

    def _add_peer(self, peer: tuple[str, int]) -> None:
        """Record a peer; peers.json is rewritten only when the set grows. Call with the lock held."""
        if peer not in self.peers:
            self.peers.add(peer)
            _write_json_atomic(self.paths.peers, sorted([h, p] for h, p in self.peers))

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        try:
            self._admin_server = Server((self.identity.host, self.identity.admin_port), self._serve_admin)
            peer_address = (self.identity.host, self.identity.blockchain_port)
            self._peer_server = Server(peer_address, lambda sock: reply_framed(sock, self._dispatch_peer))
        except OSError as exc:
            if self._admin_server is not None:
                self._admin_server.stop()
                self._admin_server = None
            raise PortInUse(f"{self.identity.name}: {exc}") from exc
        self._peer_server.start()
        threading.Thread(target=self._broadcast_loop, daemon=True).start()
        if self.identity.role == "miner":
            threading.Thread(target=self._mine_loop, daemon=True).start()
        self._greet_known_peers()  # so a restarted node answers admin only once it has caught up
        self._admin_server.start()
        logger.info(
            "%s (%s) up: admin=%s:%d chain=%s:%d height=%d",
            self.identity.name,
            self.identity.role,
            self.identity.host,
            self.identity.admin_port,
            self.identity.host,
            self.identity.blockchain_port,
            self.chain.height,
        )

    def shutdown(self) -> None:
        logger.info("%s: shutting down", self.identity.name)
        self.stop_event.set()
        self._outbox.put((0, next(self._outbox_sequence), None, None, None))
        for server in (self._admin_server, self._peer_server):
            if server is not None:
                server.stop()
        self._admin_server = None
        self._peer_server = None
        with self._lock:  # no mempool journal write: each admitted or mined tx rewrote it
            if self._blocks_handle is not None:
                try:
                    self._blocks_handle.close()
                except OSError:  # only a line whose append failed, which fail_stop logged, is still buffered
                    pass
                self._blocks_handle = None
        logger.info("%s: stopped at height %d", self.identity.name, self.chain.height)

    def run_until_stopped(self, on_ready: Callable[[], None] | None = None) -> None:
        self.start()
        if on_ready is not None:
            on_ready()
        try:
            self.stop_event.wait()  # the admin stop, or a SIGTERM/SIGINT handler on this thread, sets it
        finally:
            self.shutdown()

    def request_stop(self) -> None:
        self.stop_event.set()

    def fail_stop(self, what: str, exc: BaseException) -> None:
        """Log why the node cannot serve on, and stop it; ``run_node`` then returns THREAD_DIED."""
        logger.error("%s: %s: stopping", self.identity.name, what, exc_info=exc)
        self.failed = True
        self.stop_event.set()

    # -- endpoint identity --------------------------------------------------

    @property
    def endpoint(self) -> dict:
        return {"host": self.identity.host, "port": self.identity.blockchain_port}

    # -- mining --------------------------------------------------------------

    def _mine_loop(self) -> None:
        interval = max(self.identity.block_interval_seconds, 0.01)
        while not self.stop_event.is_set():
            if not self.mining_enabled:
                self.stop_event.wait(0.05)
                continue
            started = time.monotonic()
            with self._lock:
                height = self.chain.height + 1
                parent = self.chain.tip.block_hash
                stall = self.fault == "stall_mempool"
                txs = () if stall else self.chain.assemble_candidate(self.identity.max_block_txs)
            block = chainmod.mine_candidate(
                height,
                parent,
                self.identity.account,
                txs,
                self.chain.target_bits,
                int(time.time()),
                should_abort=self.stop_event.is_set,
            )
            if block is None:
                break
            status, detail = self._accept_block(block)
            if status == "accepted":
                logger.debug("%s mined block %d (%d txs)", self.identity.name, block.height, len(block.transactions))
                self._gossip(None, block)
            else:
                logger.warning("%s: mined block rejected: %s %s", self.identity.name, status, detail)
            remaining = interval - (time.monotonic() - started)
            if remaining > 0:
                self.stop_event.wait(remaining)

    def _accept_block(self, block: Block) -> tuple[str, str | None]:
        """Apply a block to the chain; if accepted, persist it and the mempool it trimmed.

        A block it cannot append stops the node, which accepts no block
        after it, so ``blocks.log`` never skips a height.
        """
        with self._lock:
            if self.failed:
                return "Stopping", None
            status, detail = self.chain.receive_block(block)
            if status == "accepted":
                try:
                    self._persist_block(block)
                except OSError as exc:
                    self.fail_stop(f"appending block {block.height} to {self.paths.blocks} failed", exc)
                    return "Stopping", str(exc)
                if block.transactions:
                    self._persist_mempool()
        return status, detail

    def _admit_tx(self, tx_dict: dict, source: tuple[str, int] | None) -> bool:
        """Admit a tx to the mempool, persist it and gossip it on; False if it was already known.

        Raises TxError if the chain rejects it.
        """
        tx = from_document(Transaction, tx_dict)
        with self._lock:
            known = tx.tx_id in self.chain.mempool or tx.tx_id in self.chain.applied
            self.chain.submit_transaction(tx)
            if not known:
                self._persist_mempool()
        if not known and self.fault != "stall_mempool":
            self._gossip(source, tx)
        return not known

    # -- gossip ----------------------------------------------------------------

    def _gossip(
        self, exclude: tuple[str, int] | None, record: Block | Transaction, to: tuple[str, int] | None = None
    ) -> None:
        """Queue this node's new_block or new_tx message carrying the record, as ``_enqueue`` queues a message."""
        kind, key = ("new_block", "block") if isinstance(record, Block) else ("new_tx", "tx")
        self._enqueue(exclude, {"kind": kind, "from": self.endpoint, key: record.to_dict()}, to)

    def _enqueue(self, exclude: tuple[str, int] | None, message: dict, to: tuple[str, int] | None = None) -> None:
        """Queue a message for every peer but ``exclude``, or for the peer ``to`` alone."""
        rank = 1 if message["kind"] == "new_block" else 2
        self._outbox.put((rank, next(self._outbox_sequence), exclude, message, to))

    def _broadcast_loop(self) -> None:
        """Send gossip from one thread: every queued new_block before any queued new_tx, each kind in order.

        A burst of txs, relayed to each peer in turn, would otherwise hold the
        blocks mined meanwhile behind it, and the peers' heights would lag.
        """
        while (item := self._outbox.get())[0] > 0:  # shutdown() queues rank 0, ahead of any gossip
            _, _, exclude, message, to = item
            with self._lock:
                targets = sorted(self.peers) if to is None else [to]
            for target in targets:
                if target == exclude:
                    continue
                try:
                    framed_request(target[0], target[1], message, timeout=2.0)
                except Exception as exc:  # a peer that is down or answers garbage is skipped, never fatal
                    logger.debug("%s: broadcast to peer %s failed: %s", self.identity.name, target, exc)

    def _greet_known_peers(self) -> None:
        """Greet every persisted peer at once; return when all are greeted, or after HELLO_TIMEOUT at most."""
        with self._lock:
            greeters = [
                threading.Thread(target=self._guarded, args=(self._handshake, *peer), daemon=True)
                for peer in sorted(self.peers)
            ]
        for greeter in greeters:
            greeter.start()
        deadline = time.monotonic() + HELLO_TIMEOUT
        for greeter in greeters:
            greeter.join(max(0.0, deadline - time.monotonic()))

    def _guarded(self, exchange: Callable[[str, int], None], host: str, port: int) -> None:
        """Run ``exchange(host, port)``; a peer that is down or answers garbage is logged, never fatal."""
        try:
            exchange(host, port)
        except Exception as exc:
            logger.info("%s: %s with peer %s:%d failed: %s", self.identity.name, exchange.__name__, host, port, exc)

    def _handshake(self, host: str, port: int) -> None:
        """Hello exchange: register the peer, catch up if behind, share the mempool with that peer."""
        with self._lock:
            my_height = self.chain.height
        hello = {"kind": "hello", "from": self.endpoint, "height": my_height}
        ack = framed_request(host, port, hello, timeout=HELLO_TIMEOUT)
        with self._lock:
            self._add_peer((host, port))
        if ack.get("height", 0) > my_height:
            self._sync_from(host, port)
        if self.fault != "stall_mempool":
            with self._lock:
                pending = list(self.chain.mempool.values())
            for tx in pending:
                self._gossip(None, tx, to=(host, port))

    def _sync_from(self, host: str, port: int) -> None:
        while not self.stop_event.is_set():
            with self._lock:
                next_height = self.chain.height + 1
            reply = framed_request(host, port, {"kind": "get_blocks", "fromHeight": next_height}, timeout=5.0)
            batch = reply.get("blocks", [])
            if not batch:
                return
            for block_dict in batch:
                block = Block.from_dict(block_dict)
                status, _ = self._accept_block(block)
                if status not in ("accepted", "duplicate"):
                    return
            if len(batch) < SYNC_BATCH:
                return

    # -- admin protocol -----------------------------------------------------------

    def _serve_admin(self, sock: socket.socket) -> None:
        try:
            self._answer_admin(sock)
        except OSError as exc:  # the client went away; the next one is served as ever
            logger.debug("%s: admin client went away: %r", self.identity.name, exc)

    def _answer_admin(self, sock: socket.socket) -> None:
        """Answer one admin request line of at most ADMIN_LINE_MAX bytes; a ``stop`` takes effect once answered."""
        with sock.makefile("rb") as rfile:
            line = rfile.readline(ADMIN_LINE_MAX + 1)
        if not line:
            return
        if self.fault == "unresponsive":
            # Replicate a wedged client: accept the request, never answer.
            self.stop_event.wait(UNRESPONSIVE_HANG_SECONDS)
            return
        op = None
        try:
            if len(line) > ADMIN_LINE_MAX:
                raise ValueError(f"request line longer than {ADMIN_LINE_MAX} bytes")
            request = json.loads(line.decode("utf-8"))
            op = request.get("op")
            params = request.get("params") or {}
            if not isinstance(op, str):
                raise ValueError("request must carry a string 'op'")
            response = {"ok": True, "result": self._dispatch_admin(op, params)}
        except (chainmod.TxError, _AdminFault) as exc:
            response = {"ok": False, "error": {"code": exc.code, "message": str(exc)}}
        except (ValueError, KeyError, TypeError) as exc:
            response = {"ok": False, "error": {"code": "MalformedRequest", "message": str(exc)}}
        except Exception as exc:  # a bad request must never take the node down
            logger.exception("%s: admin request failed", self.identity.name)
            response = {"ok": False, "error": {"code": "InternalError", "message": str(exc)}}
        sock.sendall((json.dumps(response) + "\n").encode("utf-8"))
        if op == "stop" and response["ok"]:
            self.request_stop()

    def _dispatch_admin(self, op: str, params: dict):
        if op == "status":
            with self._lock:
                return {
                    "name": self.identity.name,
                    "role": self.identity.role,
                    "height": self.chain.height,
                    "pending": len(self.chain.mempool),
                    "peers": len(self.peers),
                    "fault": self.fault,
                    "mining": self.mining_enabled,
                    "genesisHash": self.genesis_doc.genesis_hash,
                    "account": self.identity.account,
                    "codeDigest": CODE_DIGEST,
                }
        if op == "block_number":
            with self._lock:
                return self.chain.height
        if op == "get_balance":
            with self._lock:
                return self.chain.balance_of(params["account"])
        if op == "get_nonce":
            with self._lock:
                return self.chain.next_nonce_for(params["account"])
        if op == "pending_count":
            with self._lock:
                return len(self.chain.mempool)
        if op == "get_transaction":
            with self._lock:
                status, height, tx = self.chain.transaction_status(params["txId"])
                return {"status": status, "height": height, "tx": tx.to_dict() if tx else None}
        if op == "submit_tx":
            self._admit_tx(params["tx"], None)
            return params["tx"]["txId"]
        if op == "add_peer":
            return self._admin_add_peer(params["host"], params["port"])
        if op == "set_fault":
            mode = params["mode"]
            if mode not in FAULT_MODES:
                raise ValueError(f"unknown fault mode {mode!r}")
            self.fault = mode
            logger.info("%s: fault mode set to %s", self.identity.name, mode)
            return mode
        if op == "set_mining":
            if self.identity.role != "miner":
                raise _AdminFault("NotMiner", f"{self.identity.name} is not a miner")
            self.mining_enabled = bool(params["enabled"])
            return self.mining_enabled
        if op == "stop":
            return "stopping"  # _answer_admin sets stop_event once this reply is written
        raise ValueError(f"unknown op {op!r}")

    def _admin_add_peer(self, host: str, port: int) -> int:
        if (host, port) == (self.identity.host, self.identity.blockchain_port):
            raise ValueError("a node cannot peer with itself")
        try:
            self._handshake(host, port)
        except OSError as exc:
            raise _AdminFault("ConnectionRefused", f"peer {host}:{port} not reachable: {exc}") from exc
        with self._lock:
            return len(self.peers)

    # -- peer protocol -------------------------------------------------------------

    def _dispatch_peer(self, message: dict) -> dict:
        kind = message.get("kind")
        sender = message.get("from") or {}
        source = (sender.get("host"), sender.get("port")) if sender else None
        if kind == "hello":
            with self._lock:
                if source and source[0] is not None:
                    self._add_peer(source)
                return {"kind": "hello_ack", "height": self.chain.height}
        if kind == "get_blocks":
            start = int(message.get("fromHeight", 1))
            with self._lock:
                batch = [b.to_dict() for b in self.chain.blocks[start : start + SYNC_BATCH]]
            return {"kind": "blocks", "blocks": batch}
        if kind == "new_block":
            return self._peer_new_block(message, source)
        if kind == "new_tx":
            try:
                fresh = self._admit_tx(message["tx"], source)
            except chainmod.TxError as exc:
                return {"kind": "ok", "status": "rejected", "detail": str(exc)}
            return {"kind": "ok", "status": "accepted" if fresh else "duplicate"}
        return {"kind": "error", "message": f"unknown message kind {kind!r}"}

    def _peer_new_block(self, message: dict, source: tuple[str, int] | None) -> dict:
        block = Block.from_dict(message["block"])
        status, detail = self._accept_block(block)
        if status == "accepted":
            # Forward exactly once: only the first acceptance reaches this path.
            self._gossip(source, block)
        elif status == "BadParent" and source and block.height > self.chain.height + 1:
            threading.Thread(target=self._guarded, args=(self._sync_from, *source), daemon=True).start()
        return {"kind": "ok", "status": status, "detail": detail}


class _AdminFault(RuntimeError):
    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def try_lock(path: str | Path) -> int | None:
    """Open path and take its exclusive flock without waiting; the fd, or None if another holds it.

    A lock taken on a file that its holder unlinked meanwhile counts as not
    taken, so the caller tries again on the file now at the path.
    """
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_CLOEXEC, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        if os.path.samestat(os.fstat(fd), os.stat(path)):
            return fd
    except (BlockingIOError, FileNotFoundError):
        pass
    except BaseException:
        os.close(fd)
        raise
    os.close(fd)
    return None


def _lock_pid_file(path: Path) -> int:
    """Take the exclusive flock on node.pid, write this process's pid into it, and return the fd.

    The lock lasts as long as the process, zombie state excluded, so a
    holder is a live node and a stale pid is locked by nobody. Probes take
    a shared lock for an instant, so a held lock is retried for LOCK_WAIT.
    """
    deadline = time.monotonic() + LOCK_WAIT
    while (fd := try_lock(path)) is None:
        if time.monotonic() >= deadline:
            raise NodeRunning(f"{path} is locked: a node already runs on this data directory")
        time.sleep(0.01)
    try:
        os.ftruncate(fd, 0)  # first, so a probe never reads a mix of two pids
        os.write(fd, str(os.getpid()).encode())
    except BaseException:
        os.close(fd)
        raise
    return fd


def run_node(data_dir: Path, on_ready: Callable[[], None] | None = None) -> int:
    """Run the node of data_dir until it is stopped; return the process exit status.

    The node.pid lock comes first: a second node on a running directory
    exits before it reads or writes any other file of it. A block append
    that fails, or a node thread that dies from an uncaught exception,
    stops the node, which then returns THREAD_DIED: it never serves on
    with a block it could not persist, or without that thread.
    """
    paths = NodePaths(data_dir)
    try:
        lock = _lock_pid_file(paths.pid)
    except NodeRunning as exc:
        logger.error("%s", exc)
        return 5
    except OSError as exc:
        logger.error("cannot initialize node: %s", exc)
        return 1
    try:
        try:
            runtime = NodeRuntime(data_dir)
        except GenesisMismatch as exc:
            logger.error("genesis mismatch: %s", exc)
            return 3
        except (OSError, ValueError) as exc:
            logger.error("cannot initialize node: %s", exc)
            return 1

        def _on_signal(signum, _frame):
            logger.info("signal %d: stopping", signum)
            runtime.request_stop()

        def _on_thread_death(args: threading.ExceptHookArgs) -> None:
            if args.exc_type is not SystemExit:
                runtime.fail_stop(f"thread {getattr(args.thread, 'name', '?')} died", args.exc_value)

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
        previous_hook, threading.excepthook = threading.excepthook, _on_thread_death
        try:
            runtime.run_until_stopped(on_ready)
        except PortInUse as exc:
            logger.error("%s", exc)
            return 4
        finally:
            threading.excepthook = previous_hook
        return THREAD_DIED if runtime.failed else 0
    finally:
        paths.pid.unlink(missing_ok=True)  # still under the lock, so never a later node's file
        os.close(lock)


def _parse_args(argv: list[str]) -> tuple[list[Path], bool]:
    """The data directories and --detach of ``[--detach] --data-dir DIR [--data-dir DIR ...]``.

    Several --data-dir need --detach. Any other command line prints the
    usage to stderr and exits 2. It is read without argparse, which would
    otherwise sit in the launcher's heap, and so in every node it forks.
    """
    detach = argv[:1] == ["--detach"]
    rest = argv[1:] if detach else argv
    flags, dirs = rest[::2], rest[1::2]
    well_formed = set(flags) == {"--data-dir"} and len(dirs) == len(flags) and not any(d.startswith("-") for d in dirs)
    if not well_formed or (len(dirs) > 1 and not detach):
        print("usage: chainyard-node [--detach] --data-dir DIR [--data-dir DIR ...]", file=sys.stderr)
        raise SystemExit(2)
    return [Path(d) for d in dirs], detach


def main(argv: list[str] | None = None) -> int:
    data_dirs, detach = _parse_args(sys.argv[1:] if argv is None else argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    if detach:
        from .forkserver import launch  # here, not at the top: forkserver imports this module

        os._exit(launch(data_dirs))  # its report is flushed and its nodes run on: skip the interpreter's teardown
    return run_node(data_dirs[0])


if __name__ == "__main__":
    sys.modules.setdefault("chainyard.node", sys.modules[__name__])  # so forkserver imports this copy, not a second
    sys.exit(main())
