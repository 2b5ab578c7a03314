"""Command execution backends for the network manager.

The manager performs exactly two kinds of effects on hosts: running a
shell command and writing bytes it holds to a file. The local executor
targets localhost regardless of the host field (test mode); the ssh
executor shells out to ssh the way a deployment host would. Both read a
command's output line by line as it arrives, and note when each line did,
so one command that works on several nodes can report each node's time.
"""

from __future__ import annotations

import logging
import shlex
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExecResult:
    status: int
    output: str
    line_times: tuple[float, ...] = ()  # the caller's time.perf_counter() when each output line arrived

    def timed_lines(self) -> list[tuple[float, str]]:
        """Each output line, without its newline, with the time it arrived."""
        return list(zip(self.line_times, self.output.split("\n")))


class Executor:
    def run(self, host: str, command: str) -> ExecResult:
        raise NotImplementedError

    def put(self, host: str, data: bytes, path: str | Path) -> None:
        """Write data to path on host, making path's missing parent directories first."""
        raise NotImplementedError


class LocalExecutor(Executor):
    """Runs every command on localhost, whatever the host field says."""

    def run(self, host: str, command: str) -> ExecResult:
        result = _run(["/bin/sh", "-c", command])
        logger.debug("local[%s]$ %s -> %d", host, command, result.status)
        return result

    def put(self, host: str, data: bytes, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(data)


class SshExecutor(Executor):
    """Runs commands over ssh, and writes a file as one ssh command that reads its bytes from stdin.

    Assumes key-based auth is already set up for the configured hosts,
    matching how multi-host deployments are driven in practice.
    """

    def __init__(self, user: str | None = None, ssh_options: tuple[str, ...] = ("-oBatchMode=yes",)):
        self.user = user
        self.ssh_options = ssh_options

    def _argv(self, host: str, command: str) -> list[str]:
        return ["ssh", *self.ssh_options, f"{self.user}@{host}" if self.user else host, command]

    def run(self, host: str, command: str) -> ExecResult:
        result = _run(self._argv(host, command))
        logger.debug("ssh[%s]$ %s -> %d", host, command, result.status)
        return result

    def put(self, host: str, data: bytes, path: str | Path) -> None:
        # Both paths are quoted for the remote shell, which runs the whole command.
        directory, remote = shlex.quote(str(Path(path).parent)), shlex.quote(str(path))
        argv = self._argv(host, f"mkdir -p {directory} && cat > {remote}")
        copy = subprocess.run(argv, input=data, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if copy.returncode != 0:
            raise OSError(f"copy to {host} failed: {copy.stdout.decode(errors='replace')}")


def _run(argv: list[str]) -> ExecResult:
    """Run argv with stderr into stdout, reading its output a line at a time as it arrives."""
    lines, times = [], []
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True) as proc:
        for line in proc.stdout:
            times.append(time.perf_counter())
            lines.append(line)
    return ExecResult(proc.returncode, "".join(lines), tuple(times))


def make_executor(kind: str) -> Executor:
    if kind == "local":
        return LocalExecutor()
    if kind == "ssh":
        return SshExecutor()
    raise ValueError(f"unknown executor kind {kind!r}")
