"""Wire protocols shared by nodes, wrappers, and the manager.

Admin protocol: newline-delimited JSON request/response over TCP,
request ``{"op": ..., "params": {...}}``, response
``{"ok": bool, "result"|"error": ...}``. One request per connection.
``ADMIN_OPS`` is the one home of the op vocabulary: the node dispatches
on it, and ``AdminClient`` builds a method per op from it.

Peer and off-chain protocols: length-prefixed JSON messages (4-byte
big-endian length, then the UTF-8 payload), one request and its reply
per connection.

A server is a listening socket, one accept thread, and one thread per
connection: ``Server(address, serve)`` calls ``serve(sock)`` on the
connection's thread and closes the socket after it. A framed port passes
``lambda sock: reply_framed(sock, reply)``, with ``reply`` a function of
the request message that returns the reply message.
"""

from __future__ import annotations

import json
import logging
import socket
import struct
import threading
from typing import Any, Callable

logger = logging.getLogger(__name__)

MAX_FRAME = 64 * 1024 * 1024


class Server:
    """A listening socket whose accept thread serves each connection with ``serve(sock)`` on a thread of its own.

    It listens from construction, so a port in use raises there, and accepts
    from ``start()``. Each connection's socket is closed when ``serve``
    returns. ``stop()`` shuts the listener down, which wakes the blocked
    ``accept`` at once, and closes it.
    """

    def __init__(self, address, serve: Callable[[socket.socket], None]):
        # A backlog of 5 drops SYNs from a burst of clients (a cleared
        # interval's orders), and each dropped one waits out a 1 s retransmit.
        self._listener = socket.create_server(address, backlog=socket.SOMAXCONN)
        self.server_address = self._listener.getsockname()
        self._serve = serve
        self._stopped = False
        self._accepter: threading.Thread | None = None

    def start(self) -> None:
        """Accept on a daemon thread."""
        self._accepter = threading.Thread(target=self._accept_loop, daemon=True)
        self._accepter.start()

    def _accept_loop(self) -> None:
        while not self._stopped:
            try:
                sock, _ = self._listener.accept()
            except OSError:  # stop() shut the listener down; any other failure is tried again
                continue
            threading.Thread(target=self._serve_and_close, args=(sock,), daemon=True).start()

    def _serve_and_close(self, sock: socket.socket) -> None:
        with sock:
            self._serve(sock)

    def stop(self) -> None:
        """Stop accepting, wait for the accept thread to end, and close the listening socket."""
        self._stopped = True
        self._listener.shutdown(socket.SHUT_RDWR)
        if self._accepter is not None:
            self._accepter.join()
        self._listener.close()


# Each admin op, with the keys of its params in the order its AdminClient method takes them.
ADMIN_OPS: dict[str, tuple[str, ...]] = {
    "status": (),
    "block_number": (),
    "get_balance": ("account",),
    "pending_count": (),
    "get_transaction": ("txId",),
    "get_nonce": ("account",),
    "submit_tx": ("tx",),
    "add_peer": ("host", "port"),
    "set_fault": ("mode",),
    "set_mining": ("enabled",),
    "stop": (),
}


class AdminError(RuntimeError):
    """An admin error response: the node raises it to answer one, and the client raises it on one."""

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
            if not line.endswith(b"\n"):  # a node that died mid-reply leaves a torn line, or none
                raise ConnectionError(f"admin reply ended after {len(line)} bytes, before its newline")
            response = json.loads(line)
        except socket.timeout as exc:
            raise AdminTimeout(f"admin {self.host}:{self.port} timed out on {op!r}") from exc
        except (OSError, ValueError) as exc:
            raise AdminUnreachable(f"admin {self.host}:{self.port} unreachable: {exc}") from exc
        if not response.get("ok"):
            error = response.get("error") or {}
            raise AdminError(error.get("code", "Unknown"), error.get("message", "unspecified error"))
        return response.get("result")

    def __getattr__(self, op: str) -> Callable[..., Any]:
        """An op of ADMIN_OPS as a method, which takes the op's params in the table's order: ``add_peer(host, port)``."""
        if op not in ADMIN_OPS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {op!r}")
        return lambda *args: self.request(op, dict(zip(ADMIN_OPS[op], args, strict=True)))

    def is_up(self, timeout: float = 0.5) -> bool:
        try:
            self.request("status", timeout=timeout)
            return True
        except (AdminTimeout, AdminUnreachable, AdminError):
            return False
