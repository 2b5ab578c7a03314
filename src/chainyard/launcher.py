"""Node process control: one set of rules for the network manager and the wrapper.

Every effect on a node's host goes through an Executor, so a node that one
side started can be probed and stopped by the other.

A live node holds an exclusive flock on its ``node.pid`` for its whole
life and writes its pid there. The lock goes with the process, even when
the process lingers as a zombie, so a pid counts as this node's exactly
while a process holds the lock and the file names that pid: a stale
``node.pid`` whose pid another process has since taken is locked by nobody.
``stop`` takes no pid: it is one host command that signals whatever holds
the lock when it runs, so no pid read earlier can be stale. It is the one
way a node is ended: SIGTERM, which the node answers with a graceful
shutdown, and ``kill -9`` only for a holder still there after STOP_GRACE.

Nodes start from a warm launcher: a process per host that has imported
the node and forks nodes on request (``forkserver.launch``). It holds the same
kind of lock on its own pid file, and exits once no node it forked is
alive. A launch asks it through a client that skips ``site`` and imports
only ``_socket``, and becomes the launcher when none runs.

A launcher runs from the network's code image: ``chainyard-<D>.zip`` in
its working directory, which holds the node's modules as sources and as
hash-based ``.pyc`` files (PEP 552). D digests those sources and the
interpreter's magic number, so two processes of one checkout name the
same image, while their marshalled bytes may differ. With the image as
its only ``PYTHONPATH`` and ``-S``, a launcher loads neither ``site`` nor
another copy of chainyard, and compiles nothing: every byte that saves
is saved again in every node it forks. An interpreter whose magic number
differs imports the sources beside the ``.pyc`` files.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import io
import json
import marshal
import shlex
import sys
import zipfile
from pathlib import Path
from typing import Sequence

from .executor import Executor, LocalExecutor
from .forkserver import LAUNCH_CLIENT, NO_LAUNCHER, launcher_files, launcher_home
from .node import IMAGE_NAME, NodePaths

STOP_GRACE = 3.0  # seconds a node gets to exit after SIGTERM before kill -9, and after it
ESCALATED = "=killed"  # what a stop's host command prints when it sends kill -9
IMAGE_MODULES = ("__init__", "canonical", "chain", "genesis", "protocol", "node", "forkserver")  # all a node imports
UNCHECKED_HASH_PYC = (1).to_bytes(4, "little")  # PEP 552 flags: hash-based, never checked against its source


@functools.cache
def _image_sources() -> tuple[tuple[str, bytes], ...]:
    """Each image module's path inside the image and its source, read once per process."""
    package = Path(__file__).parent
    return tuple((f"chainyard/{name}.py", (package / f"{name}.py").read_bytes()) for name in IMAGE_MODULES)


@functools.cache
def code_image_name() -> str:
    """The file name of this code version's image: chainyard-<D>.zip."""
    digest = hashlib.sha256(importlib.util.MAGIC_NUMBER)
    for path, source in _image_sources():
        digest.update(b"%s\0%d\0%s" % (path.encode(), len(source), source))
    return IMAGE_NAME.format(digest.hexdigest()[:16])


@functools.cache
def code_image() -> bytes:
    """This code version's image, compiled once per process: a deflated zip of each module's source and .pyc."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as image:
        for path, source in _image_sources():
            code = compile(source, path, "exec", dont_inherit=True, optimize=0)
            pyc = importlib.util.MAGIC_NUMBER + UNCHECKED_HASH_PYC + importlib.util.source_hash(source)
            for name, data in ((path, source), (path + "c", pyc + marshal.dumps(code))):
                image.writestr(zipfile.ZipInfo(name), data, zipfile.ZIP_DEFLATED)  # dated 1980: no clock in the bytes
    return buffer.getvalue()


class LaunchFailed(RuntimeError):
    def __init__(self, message: str, failed: dict[Path, str] | None = None):
        super().__init__(message)
        self.failed = failed or {}  # data directory -> why its node did not start


class ProbeFailed(RuntimeError):
    """A lock probe failed on its host (ssh exits 255 when it cannot connect): it never reads as "not running"."""


class NodeLauncher:
    """Starts, probes and stops the nodes of data directories on their host."""

    def __init__(self, executor: Executor | None = None):
        self.executor = executor or LocalExecutor()

    def start(self, host: str, data_dirs: Sequence[Path]) -> dict[Path, int]:
        """Start the nodes of data_dirs in the background, through the host's launcher; return each one's pid.

        One host command, run in the nodes' common parent directory. If a
        live launcher holds the host's launcher lock, the ``python -S``
        client asks it; else, or if it answers nothing, ``python -S -m
        chainyard.node --detach`` runs from this code version's image in
        that directory, and becomes the launcher. A missing image fails
        the launch, naming it: no launch runs chainyard from elsewhere.

        Returns once every node serves admin. Raises LaunchFailed, naming each
        node that exited or did not serve admin in time; the others keep running.
        """
        lock_name, socket_name = launcher_files(host)
        python = shlex.quote(sys.executable)
        dirs = [shlex.quote(str(d)) for d in data_dirs]
        home = launcher_home(data_dirs)
        image = shlex.quote(str(home / code_image_name()))
        client = f"{python} -S -c {shlex.quote(LAUNCH_CLIENT)} {shlex.quote(socket_name)} {' '.join(dirs)}"
        command = (
            f"cd {shlex.quote(str(home))} || exit; {_holder(lock_name)}; "
            f'if [ -n "$p" ]; then {client}; s=$?; [ $s = {NO_LAUNCHER} ] || exit $s; fi; '
            f"[ -f {image} ] || {{ echo no code image {image}; exit 1; }}; PYTHONPATH={image}; export PYTHONPATH; "
            f"exec {python} -S -m chainyard.node --detach {' '.join(f'--data-dir {d}' for d in dirs)}"
        )
        result = self.executor.run(host, command)
        try:
            report = json.loads(result.output.strip().splitlines()[-1])  # the launch's last line
            started, failed = report["started"], report["failed"]
        except (IndexError, ValueError, KeyError, TypeError):
            raise LaunchFailed(f"command {command!r} exited {result.status}: {result.output.strip()}") from None
        if failed:
            failures = {Path(d): why for d, why in failed.items()}
            raise LaunchFailed("; ".join(f"{d}: {why}" for d, why in failures.items()), failures)
        return {d: started[str(d)] for d in data_dirs}

    def running_pids(self, host: str, data_dirs: Sequence[Path]) -> dict[Path, int | None]:
        """Each directory's node pid if a live node holds its node.pid, else None: one host command."""
        probes = "; ".join(f'{_holder(NodePaths(d).pid)}; echo "=$p"' for d in data_dirs)
        result = self.executor.run(host, probes)
        lines = [line[1:] for line in result.output.splitlines() if line.startswith("=")]
        if result.status != 0 or len(lines) < len(data_dirs):
            raise ProbeFailed(f"lock probe exited {result.status}: {result.output.strip()}")
        return {d: int(p) if p.isdigit() else None for d, p in zip(data_dirs, lines)}

    def stop(self, host: str, data_dir: Path) -> bool:
        """SIGTERM whatever holds data_dir's node.pid lock and wait for it to go; True if it had to be killed.

        One host command: it waits up to STOP_GRACE for the lock, and only a
        holder still there gets kill -9 and a second wait. A node that is
        not running is left as it is.
        """
        wait = f"flock -w {STOP_GRACE:g} -s 9"
        term = f'[ -z "$p" ] || {{ kill -TERM "$p"; {wait}; }} || {{ echo {ESCALATED}; kill -9 "$p"; {wait}; }}'
        return ESCALATED in self.executor.run(host, _holder(NodePaths(data_dir).pid, then=term)).output.split()

    def reap(self) -> None:
        """Nothing to reap: nodes start detached, not as children of this process."""


def _holder(pid_file: str | Path, then: str = ":") -> str:
    """Shell that sets $p to the pid in pid_file while a process holds its lock, else to '', then runs then.

    The probe takes a shared lock, so it never holds off another probe, and a
    starting node or launcher retries past it. then runs with pid_file open
    on fd 9. A pid_file that is missing, or that its holder removed on exit,
    means no holder: the status is then 0, whatever then returned.
    """
    pid_file = shlex.quote(str(pid_file))
    return (
        f"p=; {{ flock -n -s -E 75 9; [ $? = 75 ] && read -r p <&9; {then}; }} 2>/dev/null 9<{pid_file} "
        f"|| test ! -e {pid_file}"
    )
