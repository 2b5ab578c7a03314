"""The launcher: a process per host that has imported the node and forks nodes on request.

``python -m chainyard.node --detach --data-dir DIR ...`` runs ``launch``.
The first launch on a host becomes that host's launcher, and later
launches reach it over a unix socket, most through ``LAUNCH_CLIENT``,
which starts far faster than an interpreter that imports the node. The
launcher exits by itself once no node it forked is alive.

Every node inherits the launcher's heap. This code is a module of its own
because compiling one larger node module left a larger heap behind in the
launcher, and so in every node.
"""

from __future__ import annotations

import json
import logging
import os
import select
import signal
import socket
import sys
import time
from pathlib import Path
from typing import Sequence

from .node import CODE_DIGEST, LOCK_WAIT, NodeIdentity, NodePaths, run_node, try_lock

logger = logging.getLogger(__name__)

START_TIMEOUT = 15.0  # seconds a forked node has to serve admin before its launcher kills it
READY = b"R"  # what a forked node writes to its launcher once it serves admin
NO_LAUNCHER = 75  # what LAUNCH_CLIENT exits with when no launcher answered it whole

# A launch request is the data directories, NUL-separated, then end of
# stream; the reply is "0", or "1" if a node failed, then the report line.
# This client runs as ``python -S -c LAUNCH_CLIENT SOCKET DIR...`` from
# launcher_home: without site and with no import but _socket, it starts in
# a fraction of the time that importing this module takes.
LAUNCH_CLIENT = """\
import _socket, sys
reply = b""
try:
    sock = _socket.socket(_socket.AF_UNIX, _socket.SOCK_STREAM)
    sock.connect(sys.argv[1])
    sock.sendall("\\0".join(sys.argv[2:]).encode("utf-8", "surrogateescape"))
    sock.shutdown(_socket.SHUT_WR)
    while chunk := sock.recv(65536):
        reply += chunk
except OSError:
    pass
if not reply.endswith(b"\\n"):
    sys.exit(%d)
sys.stdout.write(reply[1:].decode())
sys.exit(int(reply[:1]))
""" % NO_LAUNCHER


def launcher_home(data_dirs: Sequence[Path]) -> Path:
    """The directory a host's launcher works in: the common parent of the data directories of its nodes."""
    return Path(os.path.commonpath([Path(d).parent for d in data_dirs]))


def launcher_files(host: str, digest: str | None) -> tuple[str, str]:
    """The names of host's launcher lock (and pid) file and of its unix socket, relative to launcher_home.

    digest is D of the code image the launcher runs (None from a source
    tree), so each code version gets a launcher of its own. A unix socket
    address holds at most 108 bytes, so the launcher binds and is reached
    by the relative name from inside its directory.
    """
    return f"launcher-{host}-{digest}.pid", f"launcher-{host}-{digest}.sock"


def launch(data_dirs: list[Path]) -> int:
    """Start one background node per data directory through this host's launcher; print its report.

    The launcher is a single-threaded process that forks nodes on request.
    It holds the host's launcher lock, writes its pid into that file once
    it listens on the host's launcher socket, and exits by itself once no
    node it forked is alive. If no launcher holds the lock, this process
    takes it, listens, forks the launcher and asks it for these nodes; if
    one does, this process asks that one. A launcher that exits between
    requests answers nothing, and the lock is then tried again, for up to
    LOCK_WAIT. Only when no launcher can be had, or the host is unknown
    because node.json cannot be read, does this process fork the nodes
    itself.

    The report is one JSON object on the last line: each started node's
    pid under "started", each failure under "failed". Returns 1 if a node
    failed, else 0.

    The resolver of the C library is set up once, with one address lookup
    that leaves no descriptor open, before the launcher is forked, so that
    no node's first peer connection pays for it again.
    """
    data_dirs = [d.absolute() for d in data_dirs]
    socket.getaddrinfo("127.0.0.1", 0, type=socket.SOCK_STREAM)
    reply = b""
    try:
        host = NodeIdentity.load(NodePaths(data_dirs[0]).node_json).host
    except (OSError, ValueError, KeyError, TypeError):
        pass  # so each node fails on its own, as it would in a launcher
    else:
        os.chdir(launcher_home(data_dirs))
        reply = _reach_launcher(*launcher_files(host, CODE_DIGEST), b"\0".join(os.fsencode(d) for d in data_dirs))
    if not reply:
        reply = _report(*_fork_nodes(data_dirs))
    sys.stdout.write(reply[1:].decode())
    sys.stdout.flush()
    return int(reply[:1])


def _reach_launcher(lock_name: str, socket_name: str, request: bytes) -> bytes:
    """The reply of the launcher that holds lock_name, which this process becomes if none does; b"" if none answers."""
    deadline = time.monotonic() + LOCK_WAIT
    while True:
        lock = try_lock(lock_name)
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as client:
            try:
                if lock is None:
                    client.connect(socket_name)
                else:
                    _fork_launcher(lock, lock_name, socket_name, client)
                client.sendall(request)
                client.shutdown(socket.SHUT_WR)
                reply = _read_all(client)
            except OSError:  # no launcher listens, or it closed before it replied
                reply = b""
        whole = reply.endswith(b"\n")
        if whole or time.monotonic() >= deadline:
            return reply if whole else b""
        time.sleep(0.01)


def _fork_launcher(lock: int, lock_name: str, socket_name: str, client: socket.socket) -> None:
    """Under the held lock, listen on socket_name, connect client to it, and fork the launcher.

    The client is queued before the launcher runs, so the launcher serves
    at least its request. This process keeps neither the lock nor the
    listener.
    """
    try:
        os.ftruncate(lock, 0)  # a probe finds no launcher until it writes its pid
        try:
            os.unlink(socket_name)  # a dead launcher's: only the lock's holder binds this name
        except FileNotFoundError:
            pass
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as listener:
            listener.bind(socket_name)
            listener.listen(socket.SOMAXCONN)
            client.connect(socket_name)
            sys.stdout.flush()
            sys.stderr.flush()
            if os.fork() == 0:
                status = 1
                try:
                    client.close()  # else the launcher would wait for its own end of this request
                    status = _run_launcher(lock, listener, lock_name, socket_name)
                finally:  # the launcher never returns into the launch
                    os._exit(status)
    finally:
        os.close(lock)


def _run_launcher(lock: int, listener: socket.socket, lock_name: str, socket_name: str) -> int:
    """The launcher: fork the nodes each request on listener names, reap them, and return once none is alive.

    It waits on the listener and on a pidfd per node, never on a timer.
    On its way out it stops listening, then unlinks its socket and its
    lock file, still under its lock and by their names in its own working
    directory, so it never removes the files of a later launcher.
    """
    signal.signal(signal.SIGHUP, signal.SIG_IGN)  # as its nodes: it outlives the session that started it
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):  # so the launch command's caller does not wait on its output pipe
        os.dup2(null, fd)
    os.close(null)
    os.write(lock, str(os.getpid()).encode())
    poller = select.poll()
    poller.register(listener, select.POLLIN)
    nodes: dict[int, int] = {}  # pidfd -> pid of each node that is not reaped yet
    try:
        while True:
            for fd, _ in poller.poll():
                if fd in nodes:
                    os.waitpid(nodes.pop(fd), 0)
                    poller.unregister(fd)
                    os.close(fd)
                    continue
                with listener.accept()[0] as conn:
                    for pid in _answer_launch(conn):
                        pidfd = os.pidfd_open(pid)
                        nodes[pidfd] = pid
                        poller.register(pidfd, select.POLLIN)
            if not nodes:
                return 0
    finally:
        listener.close()
        for name in (socket_name, lock_name):
            try:
                os.unlink(name)
            except FileNotFoundError:
                pass


def _answer_launch(conn: socket.socket) -> list[int]:
    """Fork the nodes that the request on conn names, and reply with their report; the pids of those started."""
    try:
        request = _read_all(conn)
    except OSError:
        return []  # the client went away before it asked
    if not request:
        return []
    started, failed = _fork_nodes([Path(os.fsdecode(d)) for d in request.split(b"\0")])
    try:
        conn.sendall(_report(started, failed))
    except OSError:
        pass  # a client that went away leaves its nodes running
    return list(started.values())


def _read_all(sock: socket.socket) -> bytes:
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def _report(started: dict[str, int], failed: dict[str, str]) -> bytes:
    """A launch reply: "1" if a node failed, else "0", then the JSON report line."""
    return b"%d%s\n" % (1 if failed else 0, json.dumps({"started": started, "failed": failed}).encode())


def _fork_nodes(data_dirs: list[Path]) -> tuple[dict[str, int], dict[str, str]]:
    """Fork one background node per data directory; each started node's pid, and why each other one failed.

    The nodes start one at a time: each is forked once the one before it
    serves admin, or has failed. A node gets START_TIMEOUT to serve admin,
    or it is killed. A node closes every descriptor it inherits, so none
    holds its parent's lock or listener.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    started: dict[str, int] = {}
    failed: dict[str, str] = {}
    for data_dir in data_dirs:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                status = _forked_node(data_dir, write_fd)
            except Exception:
                logger.exception("%s: node failed", data_dir)
            finally:  # the child never returns into the launcher's loop
                logging.shutdown()
                os._exit(status)
        os.close(write_fd)
        if not select.select([read_fd], [], [], START_TIMEOUT)[0]:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            failed[str(data_dir)] = f"did not serve admin within {START_TIMEOUT:g}s and was killed"
        elif os.read(read_fd, 1) == READY:
            started[str(data_dir)] = pid
        else:  # the pipe closed empty: the node exited before it served admin
            failed[str(data_dir)] = _exit_text(os.waitpid(pid, 0)[1])
        os.close(read_fd)
    return started, failed


def _forked_node(data_dir: Path, ready_fd: int) -> int:
    """The body of a detached node, run in the child right after the fork."""
    signal.signal(signal.SIGHUP, signal.SIG_IGN)  # as nohup: it outlives the session that started it
    null = os.open(os.devnull, os.O_RDONLY)
    log = os.open(NodePaths(data_dir).log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    os.dup2(null, 0)
    os.dup2(log, 1)
    os.dup2(log, 2)
    # Keep no descriptor of the launcher's: the read end of this pipe, or any the launcher inherited itself.
    os.closerange(3, ready_fd)
    os.closerange(ready_fd + 1, os.sysconf("SC_OPEN_MAX"))

    def ready() -> None:
        try:
            os.write(ready_fd, READY)
        except OSError:
            pass  # a launcher that is gone leaves the node running, as nohup would
        os.close(ready_fd)

    return run_node(data_dir, ready)


def _exit_text(wait_status: int) -> str:
    code = os.waitstatus_to_exitcode(wait_status)
    return f"exited with status {code}" if code >= 0 else f"was killed by signal {-code}"
