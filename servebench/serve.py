"""Start and stop ``repro-label serve`` as a child process.

The server is the program under test; it runs from the checkout's ``src``
tree in its own process, and the benchmark talks to it only over sockets.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

SHM_DIR = Path("/dev/shm")
SHM_PREFIX = "repro_shm_"


def cpu_count() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def shm_segments() -> set[str]:
    """Names of the program's shared-memory segments now in ``/dev/shm``."""
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.iterdir() if p.name.startswith(SHM_PREFIX)}


class Server:
    """One ``repro-label serve --port 0`` child with its stderr drained."""

    def __init__(self, src: Path, workers: int) -> None:
        """Spawn the server and block until ``/healthz`` answers 200."""
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0",
               "--workers", str(workers)]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        self.log: list[str] = []
        self._url = threading.Event()
        self.proc = subprocess.Popen(
            cmd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            if not self._url.wait(timeout=60):
                raise RuntimeError("server printed no URL: " + "".join(self.log))
            self._wait_healthy(deadline=time.monotonic() + 60)
        except BaseException:
            self.stop()
            raise

    def _drain(self) -> None:
        """Collect stderr; the first line carries the bound URL."""
        for line in self.proc.stderr:
            self.log.append(line)
            if line.startswith("serving on "):
                self.url = line.split()[-1].strip()
                self.host, port = self.url.rsplit("/", 1)[-1].split(":")
                self.port = int(port)
                self._url.set()
        self._url.set()

    def _wait_healthy(self, deadline: float) -> None:
        """Poll ``/healthz`` until it answers 200."""
        if self.proc.poll() is not None:
            raise RuntimeError("server exited: " + "".join(self.log))
        while True:
            try:
                with urllib.request.urlopen(self.url + "/healthz", timeout=5) as r:
                    if r.status == 200:
                        return
            except (urllib.error.URLError, OSError):
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("server never became healthy: "
                                   + "".join(self.log))
            time.sleep(0.005)

    def stop(self) -> int:
        """SIGTERM (graceful drain), SIGKILL after 60 s; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=10)
        return self.proc.returncode
