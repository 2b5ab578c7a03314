"""Command execution backends for the network manager.

The manager performs exactly two kinds of effects on hosts: running a
shell command and copying a file. The local executor targets localhost
regardless of the host field (test mode); the ssh executor shells out
to ssh the way a deployment host would.
"""

from __future__ import annotations

import logging
import shlex
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExecResult:
    status: int
    output: str


class Executor:
    def run(self, host: str, command: str) -> ExecResult:
        raise NotImplementedError

    def put_file(self, host: str, local_path: str | Path, remote_path: str | Path) -> None:
        """Copy local_path to remote_path on host, making remote_path's missing parent directories first."""
        raise NotImplementedError


class LocalExecutor(Executor):
    """Runs every command on localhost, whatever the host field says."""

    def run(self, host: str, command: str) -> ExecResult:
        proc = subprocess.run(
            ["/bin/sh", "-c", command],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        logger.debug("local[%s]$ %s -> %d", host, command, proc.returncode)
        return ExecResult(proc.returncode, proc.stdout)

    def put_file(self, host: str, local_path: str | Path, remote_path: str | Path) -> None:
        Path(remote_path).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(local_path, remote_path)


class SshExecutor(Executor):
    """Runs commands over ssh, and copies a file as one ssh command that reads it from stdin.

    Assumes key-based auth is already set up for the configured hosts,
    matching how multi-host deployments are driven in practice.
    """

    def __init__(self, user: str | None = None, ssh_options: tuple[str, ...] = ("-oBatchMode=yes",)):
        self.user = user
        self.ssh_options = ssh_options

    def _target(self, host: str) -> str:
        return f"{self.user}@{host}" if self.user else host

    def run(self, host: str, command: str, stdin: BinaryIO | None = None) -> ExecResult:
        argv = ["ssh", *self.ssh_options, self._target(host), command]
        proc = subprocess.run(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        logger.debug("ssh[%s]$ %s -> %d", host, command, proc.returncode)
        return ExecResult(proc.returncode, proc.stdout)

    def put_file(self, host: str, local_path: str | Path, remote_path: str | Path) -> None:
        # Both paths are quoted for the remote shell, which runs the whole command.
        directory, remote = shlex.quote(str(Path(remote_path).parent)), shlex.quote(str(remote_path))
        with open(local_path, "rb") as source:
            copy = self.run(host, f"mkdir -p {directory} && cat > {remote}", stdin=source)
        if copy.status != 0:
            raise OSError(f"copy to {host} failed: {copy.output}")


def make_executor(kind: str) -> Executor:
    if kind == "local":
        return LocalExecutor()
    if kind == "ssh":
        return SshExecutor()
    raise ValueError(f"unknown executor kind {kind!r}")
