"""Wire protocols shared by nodes, wrappers, and the manager.

Every port speaks one framing: each request and each reply is a frame,
one JSON document on one line, compact and ASCII-escaped, and a
connection carries one request and its reply. ``read_line`` and
``write_line`` are its one reader and one writer, ``parse_line`` reads a
line's document, and ``framed_request`` is its one client round trip.
No line carries ``NaN``, ``Infinity`` or ``-Infinity``: JSON has no such
values, though Python's ``json`` reads and writes them by default.

Admin port: a request ``{"op": ..., "params": {...}}`` of at most
``ADMIN_LINE_MAX`` bytes, and a reply ``{"ok": bool, "result"|"error": ...}``.
``ADMIN_OPS`` is the one home of the op vocabulary: the node dispatches on
it, and ``AdminClient`` builds a method per op from it. Peer and off-chain
ports: any request and reply of at most ``MAX_FRAME`` bytes.

A server is a listening socket, one accept thread, and one thread per
connection: ``Server(address, serve)`` calls ``serve(sock)`` on the
connection's thread and closes the socket after it. A peer or off-chain
port passes ``lambda sock: reply_framed(sock, reply)``, with ``reply`` a
function of the request message that returns the reply message.
"""

from __future__ import annotations

import json
import logging
import socket
import threading
from collections.abc import Callable

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any

logger = logging.getLogger(__name__)

ADMIN_LINE_MAX = 64 * 1024  # bytes in an admin request line; the largest the program sends, a submit_tx, is < 1 KiB
MAX_FRAME = 64 * 1024 * 1024  # bytes in any other frame: a peer or off-chain message, or a reply


class Server:
    """A listening socket whose accept thread serves each connection with ``serve(sock)`` on a thread of its own.

    It listens as soon as it is made, so a port in use raises there, and accepts
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


def read_line(sock: socket.socket, limit: int) -> bytes:
    """The bytes through the first newline, at most ``limit + 1`` of them, and fewer at EOF: ``readline(limit + 1)``.

    Bytes after the newline are dropped, for a connection carries one line each way. The first
    recv asks for 4 KiB, which most lines fit, rather than a 64 KiB buffer; later ones ask for 64 KiB.
    """
    chunks = []
    size = 0
    while size <= limit and (chunk := sock.recv(min(65536 if chunks else 4096, limit + 1 - size))):
        end = chunk.find(b"\n") + 1
        if end:
            chunks.append(chunk[:end])
            break
        chunks.append(chunk)
        size += len(chunk)
    return b"".join(chunks)


class NotJsonValue(ValueError):
    """A document carries NaN, Infinity or -Infinity."""


def _refuse_constant(name: str) -> None:
    raise NotJsonValue(f"{name} is not a JSON value")


def parse_line(line: bytes) -> Any:
    """The JSON document of a line; a line that is no JSON raises ValueError, and one that carries NaN NotJsonValue."""
    return json.loads(line, parse_constant=_refuse_constant)


def write_line(sock: socket.socket, obj: Any) -> None:
    sock.sendall(json.dumps(obj, separators=(",", ":"), allow_nan=False).encode("utf-8") + b"\n")


def framed_request(host: str, port: int, obj: Any, timeout: float = 5.0) -> Any:
    """One request line and its reply line on a fresh connection; a reply cut short raises ConnectionError."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        write_line(sock, obj)
        line = read_line(sock, MAX_FRAME)
    if not line.endswith(b"\n"):  # a server that died mid-reply leaves a torn line, or none
        raise ConnectionError(f"reply ended after {len(line)} bytes, before its newline")
    return parse_line(line)


def reply_framed(
    sock: socket.socket, reply: Callable[[Any], Any], refuse: Callable[[NotJsonValue], Any] | None = None
) -> None:
    """Serve one request line on an accepted socket: read it, and write back ``reply(request)`` as a line.

    A request that carries NaN or an infinity is answered ``refuse(error)``
    when that is given. Otherwise it, a client that sends garbage or goes
    away, or a request that ``reply`` cannot answer, is logged and the
    connection closed; the server serves on.
    """
    try:
        line = read_line(sock, MAX_FRAME)
        if len(line) > MAX_FRAME:
            raise ValueError(f"request line longer than {MAX_FRAME} bytes")
        try:
            request = parse_line(line)
        except NotJsonValue as exc:
            if refuse is None:
                raise
            write_line(sock, refuse(exc))
            return
        write_line(sock, reply(request))
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
        try:
            response = framed_request(self.host, self.port, {"op": op, "params": params or {}}, timeout=deadline)
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
