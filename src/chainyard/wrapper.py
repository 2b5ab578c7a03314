"""Wrapper half of an actor: supervises one node, observes it, recovers it.

The wrapper polls its node's admin endpoint, turns chain progress into
events (new block, transaction mined/stalled, node unresponsive), and
dispatches them to subscribers through a single ordered queue.
Subscriptions never expire implicitly: an idle subscription still
receives the next matching event, however long it sat quiet. A poll that
reports a stalled transaction or an unresponsive node is followed by a
recovery on the same monitor thread, and close() waits for it to end.

Transactions are journaled (write-ahead) before submission so that a
restarted wrapper or node never loses them: recovery restarts the node
process from its data directory and resubmits everything still pending.
The node de-duplicates by tx id, so resubmission is idempotent.
"""

from __future__ import annotations

import base64
import logging
import os
import threading
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from queue import Queue
from typing import Callable, Iterable

from .canonical import sha256_hex
from .chain import DEFAULT_TX_COST, Transaction, make_transaction
from .genesis import read_genesis
from .launcher import LaunchFailed, NodeLauncher
from .node import NodeIdentity, NodePaths, append_record, read_append_log
from .protocol import (
    AdminClient,
    AdminError,
    AdminTimeout,
    AdminUnreachable,
    Server,
    framed_request,
    reply_framed,
)

logger = logging.getLogger(__name__)

NEW_BLOCK = "new_block"
TX_MINED = "transaction_mined"
TX_STALLED = "transaction_stalled"
NODE_UNRESPONSIVE = "node_unresponsive"
RECOVERY_FAILED = "recovery_failed"

CALLBACK_WARN_SECONDS = 0.5


class BindFailure(OSError):
    pass


class PeerUnreachable(ConnectionError):
    pass


class RecoveryFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class NodeEvent:
    kind: str
    observed_at: float
    height: int | None = None
    tx_id: str | None = None
    blocks_waited: int | None = None
    consecutive_timeouts: int | None = None


@dataclass
class Subscription:
    sub_id: str
    kinds: frozenset[str]
    callback: Callable[[NodeEvent], None]


@dataclass
class JournalEntry:
    tx: dict
    submitted_at: float
    status: str = "pending"  # pending | mined | failed
    resubmissions: int = 0
    mined_height: int | None = None
    # runtime-only stall bookkeeping
    submit_height: int = 0
    stall_reported: bool = False

    def describe(self) -> str:
        if self.resubmissions and self.status == "pending":
            return f"resubmitted({self.resubmissions})"
        return self.status


class TxJournal:
    """Append-only write-ahead journal of this wrapper's transactions."""

    def __init__(self, path: Path):
        self.path = path
        self.entries: dict[str, JournalEntry] = {}
        self._lock = threading.Lock()
        self._load()

    def _load(self) -> None:
        if self.path.exists():
            for record in read_append_log(self.path, dict, repair=True):
                self._fold(record)

    def _fold(self, record: dict) -> JournalEntry | None:
        """Apply one record to the entries, on load and live alike; the entry it names, if any."""
        kind = record.get("event")
        tx_id = record.get("txId")
        if kind == "submitted" and tx_id not in self.entries:
            self.entries[tx_id] = JournalEntry(tx=record["tx"], submitted_at=record.get("at", 0.0))
        elif tx_id in self.entries:
            entry = self.entries[tx_id]
            if kind == "mined":
                entry.status = "mined"
                entry.mined_height = record.get("height")
            elif kind == "resubmitted":
                entry.resubmissions += 1
                entry.status = "pending"
            elif kind == "failed":
                entry.status = "failed"
        return self.entries.get(tx_id)

    def _record(self, record: dict) -> JournalEntry:
        """Append a record (write-ahead), then apply it as a replay of the file would."""
        with self.path.open("a", encoding="utf-8") as handle:
            append_record(handle, record)
            os.fsync(handle.fileno())
        return self._fold(record)

    def record_submitted(self, tx: Transaction, submit_height: int) -> bool:
        """Journal a transaction before it goes to the node. False if already present."""
        with self._lock:
            if tx.tx_id in self.entries:
                return False
            entry = self._record({"event": "submitted", "txId": tx.tx_id, "tx": tx.to_dict(), "at": time.time()})
            entry.submit_height = submit_height
            return True

    def mark_mined(self, tx_id: str, height: int) -> None:
        with self._lock:
            entry = self.entries.get(tx_id)
            if entry is not None and entry.status != "mined":
                self._record({"event": "mined", "txId": tx_id, "height": height, "at": time.time()})

    def mark_resubmitted(self, tx_id: str, submit_height: int) -> None:
        with self._lock:
            if tx_id not in self.entries:
                return
            entry = self._record({"event": "resubmitted", "txId": tx_id, "at": time.time()})
            entry.submit_height = submit_height
            entry.stall_reported = False

    def mark_failed(self, tx_id: str, error: str) -> None:
        with self._lock:
            if tx_id in self.entries:
                self._record({"event": "failed", "txId": tx_id, "error": error, "at": time.time()})

    def pending(self) -> list[tuple[str, JournalEntry]]:
        with self._lock:
            items = [(tx_id, e) for tx_id, e in self.entries.items() if e.status == "pending"]
        return sorted(items, key=lambda item: item[1].submitted_at)


@dataclass
class RecoveryReport:
    restarted: bool
    resubmitted: int
    attempts: int


@dataclass
class OffchainReceipt:
    msg_id: str
    duplicate: bool
    attempts: int


LocalNodeLauncher = NodeLauncher  # the name callers outside src/ use for a wrapper's default launcher


class NodeWrapper:
    """Role-agnostic wrapper over one node's data directory.

    attach() starts the monitor loop and (when the node declares a
    wrapper port) the off-chain listener; close() tears both down.
    """

    admin_timeout = 0.4  # seconds per admin request
    stall_threshold = 3  # new blocks a pending tx may wait before it counts as stalled
    unresponsive_threshold = 3  # consecutive admin timeouts before the node counts as unresponsive
    max_restarts = 5  # restart attempts per recovery
    backoff_base = 0.2  # seconds before the second restart attempt, doubling after it
    offchain_retries = 2  # retries of an off-chain send after its first attempt

    def __init__(
        self,
        data_dir: str | Path,
        poll_period: float = 0.5,
        auto_recover: bool = True,
        launcher: NodeLauncher | None = None,
    ):
        self.paths = NodePaths(Path(data_dir).resolve())
        self.identity = NodeIdentity.load(self.paths.node_json)
        self.expected_genesis_hash = read_genesis(self.paths.genesis).genesis_hash
        self.account = self.identity.account
        self.name = self.identity.name
        self.admin = AdminClient(self.identity.host, self.identity.admin_port, timeout=self.admin_timeout)
        self.journal = TxJournal(self.paths.wrapper_journal)
        self.poll_period = poll_period
        self.auto_recover = auto_recover
        self.launcher = launcher or NodeLauncher()

        self.recovery_count = 0

        self._subs: list[Subscription] = []
        self._subs_lock = threading.Lock()
        self._events: Queue[NodeEvent | None] = Queue()
        self._submit_lock = threading.Lock()
        self._recover_lock = threading.Lock()  # held while a recovery runs
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None
        self._trigger: NodeEvent | None = None  # the last recovery trigger the running poll reported
        self._attached = False
        self._last_height: int | None = None
        self._consecutive_timeouts = 0
        self._offchain_server: Server | None = None
        self._offchain_handlers: list[Callable[[dict], None]] = []
        self._seen_msg_ids: set[str] = set()
        self._seen_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> "NodeWrapper":
        if self._attached:
            return self
        if self.identity.wrapper_port is not None:
            try:
                address = (self.identity.host, self.identity.wrapper_port)
                self._offchain_server = Server(address, lambda sock: reply_framed(sock, self._offchain_reply))
            except OSError as exc:
                raise BindFailure(f"{self.name}: cannot bind wrapper port {self.identity.wrapper_port}: {exc}") from exc
            self._offchain_server.start()
        threading.Thread(target=self._dispatch_loop, daemon=True).start()
        self._monitor = threading.Thread(target=self._monitor_loop, daemon=True)
        self._monitor.start()
        self._attached = True
        try:
            status = self.admin.status()
            self._last_height = status["height"]
            logger.info("%s wrapper attached: height=%d fault=%s", self.name, status["height"], status["fault"])
        except (AdminTimeout, AdminUnreachable):
            logger.info("%s wrapper attached with node down; supervision begins", self.name)
        return self

    def close(self) -> None:
        """Stop supervising; return once the monitor thread, with any recovery attempt in flight, has ended."""
        self._stopping.set()
        self._events.put(None)
        if self._offchain_server is not None:
            self._offchain_server.stop()
            self._offchain_server = None
        if self._monitor is not None:
            self._monitor.join()
        self._attached = False

    def __enter__(self) -> "NodeWrapper":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observer ---------------------------------------------------------------

    def subscribe(self, kinds: str | Iterable[str], callback: Callable[[NodeEvent], None]) -> Subscription:
        """Register a callback for events of one kind, or of any of several kinds. Subscriptions never expire."""
        sub = Subscription(uuid.uuid4().hex, frozenset([kinds] if isinstance(kinds, str) else kinds), callback)
        with self._subs_lock:
            self._subs.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        with self._subs_lock:
            self._subs = [s for s in self._subs if s.sub_id != sub.sub_id]

    def _emit(self, event: NodeEvent) -> None:
        if event.kind in (TX_STALLED, NODE_UNRESPONSIVE):
            self._trigger = event
        self._events.put(event)

    def _dispatch_loop(self) -> None:
        while (event := self._events.get()) is not None:  # close() enqueues the None
            with self._subs_lock:
                subs = list(self._subs)
            for sub in subs:
                if event.kind not in sub.kinds:
                    continue
                started = time.monotonic()
                try:
                    sub.callback(event)
                except Exception:  # subscriber bugs must not kill the dispatcher
                    logger.exception("%s: subscriber callback raised for %s", self.name, event.kind)
                elapsed = time.monotonic() - started
                if elapsed > CALLBACK_WARN_SECONDS:
                    logger.warning(
                        "%s: callback for %s took %.2fs; callbacks must be non-blocking", self.name, event.kind, elapsed
                    )

    # -- monitor -------------------------------------------------------------------

    def _monitor_loop(self) -> None:
        """Poll every poll_period; after a poll that reported a stall or an unresponsive node, recover here."""
        while not self._stopping.is_set():
            if self._recover_lock.locked():  # a recover() called from another thread
                self._stopping.wait(self.poll_period)
                continue
            cycle_started = time.monotonic()
            self._trigger = None
            self._poll_once()
            if self._trigger is not None and self.auto_recover:
                logger.warning("%s: %s triggered automatic recovery", self.name, self._trigger.kind)
                try:
                    self.recover()
                except RecoveryFailed as exc:
                    logger.error("%s: automatic recovery gave up: %s", self.name, exc)
            remaining = self.poll_period - (time.monotonic() - cycle_started)
            if remaining > 0:
                self._stopping.wait(remaining)

    def _poll_once(self) -> None:
        """One status call; on a new height, the new-block events and then one query per pending tx."""
        try:
            status = self.admin.status()
        except (AdminTimeout, AdminUnreachable):
            self._consecutive_timeouts += 1
            if self._consecutive_timeouts == self.unresponsive_threshold:
                self._emit(NodeEvent(NODE_UNRESPONSIVE, time.time(), consecutive_timeouts=self._consecutive_timeouts))
            return
        self._consecutive_timeouts = 0
        height, last = status["height"], self._last_height
        self._last_height = height
        if last is None or height <= last:
            return
        for observed in range(last + 1, height + 1):
            self._emit(NodeEvent(NEW_BLOCK, time.time(), height=observed))
        self._check_pending(height)

    def _check_pending(self, height: int) -> None:
        """A pending tx is stalled once height - submit_height reaches stall_threshold; it is reported once."""
        for tx_id, entry in self.journal.pending():
            try:
                info = self.admin.get_transaction(tx_id)
            except (AdminTimeout, AdminUnreachable):
                return
            if info["status"] == "mined":
                self.journal.mark_mined(tx_id, info["height"])
                self._emit(NodeEvent(TX_MINED, time.time(), tx_id=tx_id, height=info["height"]))
            elif height - entry.submit_height >= self.stall_threshold and not entry.stall_reported:
                entry.stall_reported = True
                self._emit(NodeEvent(TX_STALLED, time.time(), tx_id=tx_id, blocks_waited=self.stall_threshold))

    # -- transactions ------------------------------------------------------------------

    def _await_recovery(self) -> None:
        """Wait until a recovery in progress, if any, has finished. Recovery never takes _submit_lock."""
        with self._recover_lock:
            pass

    def submit(
        self,
        recipient: str,
        value: int,
        payload_hash: str | None = None,
        cost: int = DEFAULT_TX_COST,
    ) -> str:
        """Build, journal (write-ahead), and submit a transaction from this node's account."""
        self._await_recovery()
        with self._submit_lock:
            nonce = self.admin.get_nonce(self.account)
            tx = make_transaction(self.account, recipient, value, nonce, cost, payload_hash)
            return self._journal_and_send(tx)

    def submit_transaction(self, tx: Transaction) -> str:
        """Submit a caller-built transaction; duplicate tx ids collapse to one journal entry."""
        self._await_recovery()
        with self._submit_lock:
            return self._journal_and_send(tx)

    def _journal_and_send(self, tx: Transaction) -> str:
        try:
            submit_height = self.admin.block_number()
        except (AdminTimeout, AdminUnreachable):
            submit_height = self._last_height or 0
        fresh = self.journal.record_submitted(tx, submit_height)
        if not fresh:
            return tx.tx_id
        try:
            self.admin.submit_tx(tx.to_dict())
        except AdminError as exc:
            # Semantic rejection by the node: the transaction can never apply.
            self.journal.mark_failed(tx.tx_id, str(exc))
            raise
        except (AdminTimeout, AdminUnreachable) as exc:
            # Transport failure: the journal already holds the transaction, so
            # stall detection and recovery will resubmit it once the node heals.
            logger.warning("%s: submit of %s did not reach the node (%s); journaled", self.name, tx.tx_id[:12], exc)
        return tx.tx_id

    def submit_with_privacy(
        self,
        payload: bytes,
        recipient: str,
        value: int,
        endpoints: Iterable[tuple[str, int]],
        cost: int = DEFAULT_TX_COST,
    ) -> tuple[str, list[str]]:
        """Commit digest(payload) on-chain; ship the payload itself off-chain.

        The chain carries only the 32-byte digest; each endpoint receives
        the full payload and can verify it against the mined transaction.
        """
        payload_hash = sha256_hex(payload)
        tx_id = self.submit(recipient, value, payload_hash=payload_hash, cost=cost)
        message_ids = []
        for endpoint in endpoints:
            receipt = self.send_offchain(
                endpoint,
                payload,
                kind="payload",
                extra={"txId": tx_id, "payloadHash": payload_hash},
            )
            message_ids.append(receipt.msg_id)
        return tx_id, message_ids

    def verify_offchain_payload(self, tx_id: str, payload: bytes) -> tuple[bool, str]:
        """Check a received payload against the on-chain commitment for tx_id."""
        info = self.admin.get_transaction(tx_id)
        if info["status"] == "unknown":
            return False, "transaction unknown to node"
        expected = (info.get("tx") or {}).get("payloadHash")
        actual = sha256_hex(payload)
        if expected != actual:
            return False, f"payload digest {actual} != on-chain commitment {expected}"
        if info["status"] != "mined":
            return False, "commitment not mined yet"
        return True, "ok"

    # -- recovery ------------------------------------------------------------------------

    def recover(self) -> RecoveryReport:
        """Restart the node from its data directory and resubmit pending txs.

        Each attempt is a stop and a launch: two host commands. The wrapper
        backs off between attempts, and close() ends the retries.
        """
        host, root = self.identity.host, self.paths.root
        attempts = 0
        with self._recover_lock:
            while attempts < self.max_restarts:
                if self._stopping.wait(self.backoff_base * 2 ** (attempts - 1) if attempts else 0):
                    break
                attempts += 1
                # Each attempt stops what the last one may have left running, so its start never finds the lock held.
                self.launcher.stop(host, root)
                try:
                    self.launcher.start(host, [root])
                    status = self.admin.status()
                    if status["genesisHash"] != self.expected_genesis_hash:
                        self._emit(NodeEvent(RECOVERY_FAILED, time.time()))
                        raise RecoveryFailed(
                            f"{self.name}: restarted node reports genesis {status['genesisHash']}, "
                            f"expected {self.expected_genesis_hash}"
                        )
                    resubmitted = self._resubmit_pending()
                except (LaunchFailed, AdminTimeout, AdminUnreachable) as exc:
                    logger.warning("%s: restart attempt %d failed: %s", self.name, attempts, exc)
                    continue
                self._consecutive_timeouts = 0
                self._last_height = status["height"]
                self.recovery_count += 1
                logger.info("%s: recovered after %d attempt(s), resubmitted %d tx", self.name, attempts, resubmitted)
                return RecoveryReport(restarted=True, resubmitted=resubmitted, attempts=attempts)
            self._emit(NodeEvent(RECOVERY_FAILED, time.time()))
            why = "wrapper closed" if self._stopping.is_set() else "node refused to restart"
            raise RecoveryFailed(f"{self.name}: {why} after {attempts} attempts")

    def _resubmit_pending(self) -> int:
        count = 0
        current_height = self.admin.block_number()
        for tx_id, entry in self.journal.pending():
            try:
                self.admin.submit_tx(dict(entry.tx))
                self.journal.mark_resubmitted(tx_id, current_height)
                count += 1
            except AdminError as exc:
                self.journal.mark_failed(tx_id, str(exc))
        return count

    # -- off-chain channel ------------------------------------------------------------------

    def on_message(self, handler: Callable[[dict], None]) -> None:
        """Register a handler for inbound off-chain messages (called once per msg id)."""
        self._offchain_handlers.append(handler)

    def send_offchain(
        self,
        endpoint: tuple[str, int],
        payload: bytes,
        kind: str = "data",
        extra: dict | None = None,
        msg_id: str | None = None,
    ) -> OffchainReceipt:
        """At-least-once delivery with receiver-side de-duplication by message id."""
        message = {
            "msgId": msg_id or uuid.uuid4().hex,
            "kind": kind,
            "payload": base64.b64encode(payload).decode("ascii"),
            "from": {"name": self.name, "host": self.identity.host, "port": self.identity.wrapper_port},
        }
        if extra:
            message.update(extra)
        host, port = endpoint
        last_error: Exception | None = None
        for attempt in range(1, self.offchain_retries + 2):
            try:
                ack = framed_request(host, port, message, timeout=3.0)
                return OffchainReceipt(message["msgId"], bool(ack.get("duplicate")), attempt)
            except OSError as exc:
                last_error = exc
                time.sleep(0.05 * attempt)
        raise PeerUnreachable(f"{self.name}: wrapper peer {host}:{port} unreachable: {last_error}")

    def _offchain_reply(self, message: dict) -> dict:
        """Hand an inbound off-chain message to every handler, once per msg id, and acknowledge it."""
        msg_id = message.get("msgId")
        with self._seen_lock:
            duplicate = msg_id in self._seen_msg_ids
            if not duplicate and msg_id:
                self._seen_msg_ids.add(msg_id)
        if not duplicate:
            decoded = dict(message)
            try:
                decoded["payload"] = base64.b64decode(message.get("payload", ""))
            except (ValueError, TypeError):
                decoded["payload"] = b""
            for handler in list(self._offchain_handlers):
                try:
                    handler(decoded)
                except Exception:
                    logger.exception("%s: off-chain handler raised", self.name)
        return {"ok": True, "duplicate": duplicate}
