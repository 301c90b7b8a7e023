"""What the smoke harnesses in this directory share.

Each harness is a plain script, ``python tests/smoke/<name>.py
[--store DIR]`` (run by ``make <name>-smoke``), that prints
``<name> smoke OK`` and exits 0, or prints ``error: ...`` on stderr
and exits 1.  This module holds the throwaway store and one real
``python -m repro serve`` subprocess: boot on a free port, poll
``/healthz``, drain on SIGTERM.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time
from typing import Callable

from repro.service import ServiceClient, ServiceClientError

#: The smoke experiment: tiny, two workloads, trace engine.
SPEC = {
    "name": "serve-smoke",
    "workloads": ["fib", "gcd"],
    "base": {"codec": "shared-dict", "decompression": "ondemand"},
    "axes": {"grid": {"k_compress": [1, 2, "inf"]}},
    "engine": "trace",
}


class SmokeFailure(Exception):
    """A smoke assertion failed; the message is printed on stderr."""


def check(ok: object, message: str) -> None:
    if not ok:
        raise SmokeFailure(message)


def run(name: str, body: Callable[[str], None]) -> int:
    """Run ``body(store_root)`` as the ``name`` harness; the exit code.

    The store is ``--store DIR`` when given, else a temp dir that is
    removed afterwards.
    """
    parser = argparse.ArgumentParser(description=body.__doc__)
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory (default: a temp dir, removed afterwards)",
    )
    root = parser.parse_args().store
    temp = None
    if root is None:
        root = temp = tempfile.mkdtemp(prefix=f"repro-{name}-smoke-")
    try:
        body(root)
    except SmokeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
    print(f"{name} smoke OK")
    return 0


class Server:
    """A ``python -m repro serve`` subprocess on a free local port.

    Entering waits until ``/healthz`` is green; leaving kills the
    process unless :meth:`drain` already stopped it.
    """

    def __init__(self, root: str) -> None:
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            self.port = sock.getsockname()[1]
        self.url = f"http://127.0.0.1:{self.port}"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--host", "127.0.0.1", "--port", str(self.port),
             "--store", root, "--workers", "2"],
        )
        self.client = ServiceClient("127.0.0.1", self.port)

    def __enter__(self) -> "Server":
        try:
            self._wait_healthy(timeout=30.0)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.client.close()
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    def _wait_healthy(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        while True:
            check(self.proc.poll() is None,
                  f"server exited early (code {self.proc.returncode})")
            try:
                if self.client.healthz().get("ok"):
                    return
            except (ServiceClientError, OSError):
                pass
            check(time.monotonic() < deadline,
                  "server never became healthy")
            time.sleep(0.1)

    def drain(self) -> int:
        """SIGTERM the server; its exit code (-9 if it had to be
        killed after 60 s)."""
        self.client.close()
        self.proc.send_signal(signal.SIGTERM)
        try:
            return self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return -9
