"""Wire protocols shared by nodes, wrappers, and the manager.

Admin protocol: newline-delimited JSON request/response over TCP,
request ``{"op": ..., "params": {...}}``, response
``{"ok": bool, "result"|"error": ...}``. One request per connection.

Peer and off-chain protocols: length-prefixed JSON messages (4-byte
big-endian length, then the UTF-8 payload), one request and its reply
per connection.

A server is an address plus one function that serves an accepted
connection: ``Server(address, serve)`` calls ``serve(sock)`` on a thread
of its own and closes the socket after it. A framed port passes
``lambda sock: reply_framed(sock, reply)``, with ``reply`` a function of
the request message that returns the reply message.
"""

from __future__ import annotations

import json
import logging
import selectors
import socket
import socketserver
import struct
import threading
from typing import Any, Callable

logger = logging.getLogger(__name__)

MAX_FRAME = 64 * 1024 * 1024


class Server(socketserver.ThreadingTCPServer):
    """Threaded TCP server that serves each connection with ``serve(sock)`` and stops as soon as it is told to.

    ``serve`` runs on a thread of its own per connection, and the socket is
    closed when it returns. ``serve_forever`` only sees a shutdown request
    when its poll interval runs out; this server's loop also wakes on a
    socket pair that ``stop()`` writes to, so stopping costs no poll wait.
    """

    allow_reuse_address = True
    daemon_threads = True
    # socketserver's backlog of 5 drops SYNs from a burst of clients (a cleared
    # interval's orders), and each dropped one waits out a 1 s retransmit.
    request_queue_size = socket.SOMAXCONN

    def __init__(self, address, serve: Callable[[socket.socket], None]):
        super().__init__(address, None)
        self._serve_connection = serve
        self._wake_read, self._wake_write = socket.socketpair()
        self._stop_requested = False
        self._loop: threading.Thread | None = None

    def start(self) -> None:
        """Serve on a daemon thread."""
        self._loop = threading.Thread(target=self._serve, daemon=True)
        self._loop.start()

    def finish_request(self, request, client_address) -> None:
        self._serve_connection(request)

    def _serve(self) -> None:
        with selectors.DefaultSelector() as selector:
            selector.register(self, selectors.EVENT_READ)
            selector.register(self._wake_read, selectors.EVENT_READ)
            while not self._stop_requested:
                for key, _ in selector.select():
                    if key.fileobj is self and not self._stop_requested:
                        self._handle_request_noblock()

    def stop(self) -> None:
        """Stop serving, wait for the loop to end, and close the listening socket."""
        self._stop_requested = True
        self._wake_write.send(b"\0")
        if self._loop is not None:
            self._loop.join()
        self.server_close()
        self._wake_read.close()
        self._wake_write.close()


class AdminError(RuntimeError):
    """The node answered with an error response."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message


class AdminTimeout(TimeoutError):
    pass


class AdminUnreachable(ConnectionError):
    pass


def send_framed(sock: socket.socket, obj: Any) -> None:
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


def recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ConnectionError("peer closed connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_framed(sock: socket.socket) -> Any:
    (length,) = struct.unpack(">I", recv_exact(sock, 4))
    if length > MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds limit")
    return json.loads(recv_exact(sock, length).decode("utf-8"))


def framed_request(host: str, port: int, obj: Any, timeout: float = 5.0) -> Any:
    """One length-prefixed request/response round trip on a fresh connection."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        send_framed(sock, obj)
        return recv_framed(sock)


def reply_framed(sock: socket.socket, reply: Callable[[Any], Any]) -> None:
    """Serve one framed request on an accepted socket: read it, and write back ``reply(request)``, framed.

    A client that sends garbage or goes away, or a request that ``reply``
    cannot answer, is logged and the connection closed; the server serves on.
    """
    try:
        send_framed(sock, reply(recv_framed(sock)))
    except Exception as exc:  # one bad client must never reach the serving loop
        logger.debug("framed request on port %d failed: %r", sock.getsockname()[1], exc)


class AdminClient:
    """Client side of the admin protocol. Stateless: one connection per request."""

    def __init__(self, host: str, port: int, timeout: float = 3.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def request(self, op: str, params: dict | None = None, timeout: float | None = None) -> Any:
        deadline = self.timeout if timeout is None else timeout
        message = json.dumps({"op": op, "params": params or {}}) + "\n"
        try:
            with socket.create_connection((self.host, self.port), timeout=deadline) as sock:
                sock.sendall(message.encode("utf-8"))
                line = sock.makefile("rb").readline()
            if not line:
                raise ConnectionError("empty admin response")
        except socket.timeout as exc:
            raise AdminTimeout(f"admin {self.host}:{self.port} timed out on {op!r}") from exc
        except OSError as exc:
            raise AdminUnreachable(f"admin {self.host}:{self.port} unreachable: {exc}") from exc
        response = json.loads(line)
        if not response.get("ok"):
            error = response.get("error") or {}
            raise AdminError(error.get("code", "Unknown"), error.get("message", "unspecified error"))
        return response.get("result")

    # Convenience wrappers for the common queries.

    def status(self, timeout: float | None = None) -> dict:
        return self.request("status", timeout=timeout)

    def block_number(self) -> int:
        return self.request("block_number")

    def get_balance(self, account: str) -> int:
        return self.request("get_balance", {"account": account})

    def pending_count(self) -> int:
        return self.request("pending_count")

    def get_transaction(self, tx_id: str) -> dict:
        return self.request("get_transaction", {"txId": tx_id})

    def get_nonce(self, account: str) -> int:
        return self.request("get_nonce", {"account": account})

    def submit_tx(self, tx_dict: dict) -> str:
        return self.request("submit_tx", {"tx": tx_dict})

    def add_peer(self, host: str, port: int) -> int:
        return self.request("add_peer", {"host": host, "port": port})

    def set_fault(self, mode: str) -> str:
        return self.request("set_fault", {"mode": mode})

    def set_mining(self, enabled: bool) -> bool:
        return self.request("set_mining", {"enabled": enabled})

    def stop(self, timeout: float | None = None) -> str:
        return self.request("stop", timeout=timeout)

    def is_up(self, timeout: float = 0.5) -> bool:
        try:
            self.status(timeout=timeout)
            return True
        except (AdminTimeout, AdminUnreachable, AdminError):
            return False
