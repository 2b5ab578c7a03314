"""Node process control: one set of rules for the network manager and the wrapper.

Every effect on a node's host goes through an Executor, so a node that one
side started can be probed and stopped by the other.
"""

from __future__ import annotations

import shlex
import sys
import time
from pathlib import Path

from .executor import Executor, LocalExecutor
from .node import NodePaths
from .protocol import AdminClient, AdminError, AdminTimeout, AdminUnreachable

STOP_REQUEST_TIMEOUT = 1.0  # seconds the admin stop request may take
STOP_GRACE = 3.0  # seconds a node gets to exit before kill -9, and after it


class LaunchFailed(RuntimeError):
    pass


class NodeLauncher:
    """Starts, probes and stops the node of a data directory on its host.

    data_dir must be resolved: the liveness test matches it against the node's ``--data-dir``.
    """

    def __init__(self, executor: Executor | None = None, python_cmd: str | None = None):
        self.executor = executor or LocalExecutor()
        self.python_cmd = python_cmd or sys.executable

    def start(self, host: str, data_dir: Path) -> int:
        """Start the node in the background, write its pid to node.pid and return it."""
        paths = NodePaths(data_dir)
        command = (
            f"nohup {shlex.quote(self.python_cmd)} -m chainyard.node --data-dir {shlex.quote(str(data_dir))} "
            f">> {shlex.quote(str(paths.log))} 2>&1 & echo $! > {shlex.quote(str(paths.pid))} && echo $!"
        )
        result = self.executor.run(host, command)
        if result.status != 0:
            raise LaunchFailed(f"command {command!r} exited {result.status}: {result.output.strip()}")
        return int(result.output.strip())

    def await_ready(self, admin: AdminClient, timeout: float) -> bool:
        """Poll the node's admin port until it answers; False if it did not within timeout."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if admin.is_up(timeout=0.5):
                return True
            time.sleep(0.02)
        return False

    def running_pid(self, host: str, data_dir: Path) -> int | None:
        """The pid in node.pid if it is this node's live process, else None: one host command."""
        pid_file = shlex.quote(str(NodePaths(data_dir).pid))
        result = self.executor.run(
            host,
            f'pid=$(cat {pid_file} 2>/dev/null) && case $pid in ""|*[!0-9]*) false ;; esac && '
            f'{_alive_test(data_dir, "$pid")} && echo $pid',
        )
        return int(result.output.split()[-1]) if result.status == 0 else None  # echo $pid prints last

    def is_alive(self, host: str, data_dir: Path, pid: int) -> bool:
        return self.executor.run(host, _alive_test(data_dir, pid)).status == 0

    def await_gone(self, host: str, data_dir: Path, pid: int) -> bool:
        """Wait on the host, up to STOP_GRACE, until pid is gone; False if it outlived the wait."""
        loop = f"while {_alive_test(data_dir, pid)}; do sleep 0.01; done"
        return self.executor.run(host, f"timeout {STOP_GRACE:g} sh -c {shlex.quote(loop)}").status == 0

    def kill(self, host: str, data_dir: Path, pid: int | None) -> None:
        """kill -9 the node if pid is still its process, then wait until it is gone."""
        if pid is not None:
            self.executor.run(host, f"{_alive_test(data_dir, pid)} && kill -9 {pid}")
            self.await_gone(host, data_dir, pid)

    def stop(self, host: str, admin: AdminClient, data_dir: Path, pid: int | None) -> bool:
        """Ask the node to stop, wait for pid to go, and kill -9 it if it does not; True if it escalated."""
        try:
            admin.stop(timeout=STOP_REQUEST_TIMEOUT)
        except (AdminError, AdminTimeout, AdminUnreachable):
            pass
        if pid is None or self.await_gone(host, data_dir, pid):
            return False
        self.kill(host, data_dir, pid)
        return True

    def reap(self) -> None:
        """Nothing to reap: nodes start detached, not as children of this process."""


def _alive_test(data_dir: Path, pid: int | str) -> str:
    """Shell test that holds while pid (a number, or a shell variable holding one) is the node process of data_dir.

    Read the state, as kill -0 counts zombies as alive and in containers nothing reaps reparented children
    promptly; and read the args, as the pid in a stale node.pid may since belong to any other process.
    """
    own = shlex.quote(f" --data-dir {data_dir}")
    return (
        f"s=$(ps -ww -o state=,args= -p {pid} 2>/dev/null) && "
        f"case $s in Z*) false ;; *chainyard.node*{own}) true ;; *) false ;; esac"
    )
